//! Deterministic event-driven multi-node network simulation.
//!
//! One [`NetSim`] is a set of nodes (ARQ senders/receivers, relays,
//! pingers, pongers) on a broadcast medium described by directed edges.
//! Time is the integer-nanosecond clock of
//! [`tinysdr_dsp::event::EventQueue`]; every frame occupies the air for
//! its real PHY airtime ([`tinysdr_rf::phy::PhyModem::airtime_len_s`]
//! of the escaped wire image), transmissions from one radio serialize
//! with the OTA turnaround gap, and energy is charged to each node's
//! [`EnergyLedger`] at the paper-calibrated powers — the same
//! `radio_rx` / `radio_tx` / `mcu` tags as the PR 5 session engine.
//!
//! Physics implemented, in the order a transmission experiences them:
//!
//! 1. **Serialization** — a node's transmissions queue behind each
//!    other (`tx_free` cursor) with [`tinysdr_ota::session::TURNAROUND_S`]
//!    between frames; half-duplex, so transmitting corrupts anything
//!    the node was receiving at the same instant.
//! 2. **Listen-before-talk with random backoff** — a node first adds a
//!    CSMA-style backoff (a per-node, per-transmission splitmix64 draw
//!    in `[0, TURNAROUND_S/2)`) and then defers past every reception
//!    already committed to the air at its own antenna (carrier sense).
//!    Without the deferral a saturated half-duplex sender talks over
//!    every returning ACK and a store-and-forward relay can never
//!    interleave its two faces; without the backoff a relay chain —
//!    where every node shares identical turnaround constants and zero
//!    propagation delay — self-synchronizes into a phase lock in which
//!    the downstream ACK lands on the next upstream data frame on
//!    *every* cycle. Sensing only covers frames the node can hear:
//!    hidden terminals, by definition, are not sensed.
//! 3. **Collisions** — two receptions overlapping in time at the same
//!    receiver corrupt *both* (no capture effect). Because nodes only
//!    hear their graph neighbours, a star where the leaves cannot hear
//!    each other reproduces the classic hidden-terminal pathology.
//! 4. **Channel schedules** — per-edge loss/duplication/reorder
//!    [`Pattern`]s, evaluated per transmission index from
//!    order-independent splitmix64 streams (the PR 6 seed discipline),
//!    so a hop behaves identically no matter how events interleave.
//!
//! Determinism contract: given the same topology, payloads and seed,
//! [`NetSim::run`] produces a bit-identical [`SimReport`] — the event
//! queue breaks time ties by insertion order, every random draw is a
//! pure function of `(seed, edge, index)`, and no wall-clock or
//! iteration-order nondeterminism exists anywhere in the loop. The
//! `repro link` gate asserts exactly this, sharded vs sequential.

use crate::arq::{Action, ArqConfig, ArqReceiver, ArqSender, LinkError};
use crate::frame::{Frame, FrameKind};
use crate::ping::{PingConfig, PingReport, Pinger, Ponger};
use crate::unit_draw;
use std::collections::BTreeMap;
use tinysdr_dsp::event::{ns_to_s, s_to_ns, EventQueue};
use tinysdr_ota::seed::node_stream_seed;
use tinysdr_ota::session::TURNAROUND_S;
use tinysdr_power::energy::EnergyLedger;
use tinysdr_power::state::OtaEnergyModel;
use tinysdr_rf::phy::PhyModem;

/// Stream tag: per-edge frame-loss draws.
pub const STREAM_LINK_LOSS: u64 = 0x117A_0001;
/// Stream tag: per-edge duplication draws.
pub const STREAM_LINK_DUP: u64 = 0x117A_0002;
/// Stream tag: per-edge reordering draws.
pub const STREAM_LINK_REORDER: u64 = 0x117A_0003;
/// Stream tag: per-node retry-jitter draws (ARQ senders, pingers).
pub const STREAM_LINK_JITTER: u64 = 0x117A_0004;
/// Stream tag: per-node CSMA backoff draws (one per transmission).
pub const STREAM_LINK_CSMA: u64 = 0x117A_0006;

/// Default event budget: far above any legitimate scenario, low enough
/// to catch a protocol livelock in finite test time.
pub const DEFAULT_MAX_EVENTS: u64 = 2_000_000;

/// When (relative to a per-edge seed stream) a channel effect fires.
/// All variants are pure functions of `(seed, transmission index)`, so
/// a schedule replays identically regardless of event interleaving.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// Never fires.
    Never,
    /// Independent Bernoulli draw per transmission.
    Bernoulli {
        /// Firing probability in `[0, 1]`.
        prob: f64,
    },
    /// Explicit per-transmission schedule; beyond the end it never
    /// fires. The adversarial battery enumerates these exhaustively.
    Schedule {
        /// `fire[i]` = does transmission `i` get hit.
        fire: Vec<bool>,
    },
    /// Periodic burst: fires when `(index + offset) % period < len` —
    /// the worst case for a window of retransmissions.
    Burst {
        /// Cycle length in transmissions (0 disables).
        period: u64,
        /// Consecutive hits per cycle.
        len: u64,
        /// Phase shift of the burst within the cycle.
        offset: u64,
    },
}

impl Pattern {
    /// Does the effect fire on transmission `index`?
    #[must_use]
    pub fn fires(&self, seed: u64, index: u64) -> bool {
        match self {
            Pattern::Never => false,
            Pattern::Bernoulli { prob } => unit_draw(seed, index) < *prob,
            Pattern::Schedule { fire } => {
                usize::try_from(index)
                    .ok()
                    .and_then(|i| fire.get(i).copied())
                    == Some(true)
            }
            Pattern::Burst {
                period,
                len,
                offset,
            } => *period > 0 && (index.wrapping_add(*offset)) % period < *len,
        }
    }
}

/// One directed hop's channel model.
#[derive(Debug, Clone, PartialEq)]
pub struct HopProfile {
    /// RSSI the receiver observes on this hop, dBm.
    pub rssi_dbm: f64,
    /// Which transmissions the channel erases.
    pub loss: Pattern,
    /// Which transmissions arrive twice.
    pub duplicate: Pattern,
    /// Which transmissions are delayed past their natural slot.
    pub reorder: Pattern,
    /// Extra delivery delay applied to reordered transmissions.
    pub reorder_delay_s: f64,
    /// Propagation delay of the hop.
    pub prop_delay_s: f64,
}

impl HopProfile {
    /// A lossless, instantaneous hop at the given RSSI.
    #[must_use]
    pub fn clean(rssi_dbm: f64) -> Self {
        HopProfile {
            rssi_dbm,
            loss: Pattern::Never,
            duplicate: Pattern::Never,
            reorder: Pattern::Never,
            reorder_delay_s: 0.005,
            prop_delay_s: 0.0,
        }
    }

    /// A hop that independently erases each transmission with
    /// probability `loss_prob` (the shape `frame_loss_prob` measures
    /// out of the impairment chain).
    #[must_use]
    pub fn lossy(rssi_dbm: f64, loss_prob: f64) -> Self {
        HopProfile {
            loss: Pattern::Bernoulli { prob: loss_prob },
            ..HopProfile::clean(rssi_dbm)
        }
    }
}

/// What a node does in the scenario.
#[derive(Debug)]
pub enum Role {
    /// Transmits `payload` through the ARQ pipe and closes.
    Sender {
        /// Bytes to transfer.
        payload: Vec<u8>,
        /// ARQ parameters (use the same at the matching receiver).
        cfg: ArqConfig,
    },
    /// Terminates an ARQ stream and delivers bytes in order.
    Receiver {
        /// ARQ parameters.
        cfg: ArqConfig,
    },
    /// Store-and-forward: terminates the upstream ARQ stream and
    /// re-originates it downstream, chunk by chunk.
    Relay {
        /// ARQ parameters used on both faces.
        cfg: ArqConfig,
    },
    /// Sends pings and collects RTT/RSSI statistics.
    Pinger {
        /// Ping run parameters.
        cfg: PingConfig,
        /// First sequence number (offset co-located pingers so their
        /// pongs cannot cross-match).
        seq0: u16,
    },
    /// Answers every ping it hears.
    Ponger,
}

enum Actor {
    Sender { arq: ArqSender, payload: Vec<u8> },
    Receiver { arq: ArqReceiver },
    Relay { rx: ArqReceiver, tx: ArqSender },
    Pinger { p: Pinger },
    Ponger { p: Ponger },
}

impl Actor {
    fn start(&mut self, now_ns: u64, out: &mut Vec<Action>) {
        match self {
            Actor::Sender { arq, payload } => {
                let bytes = std::mem::take(payload);
                arq.offer(&bytes, out);
                arq.close(out);
            }
            Actor::Pinger { p } => p.start(now_ns, out),
            _ => {}
        }
    }

    fn on_frame(&mut self, frame: &Frame, rssi_dbm: f64, now_ns: u64, out: &mut Vec<Action>) {
        match self {
            Actor::Sender { arq, .. } => arq.on_frame(frame, out),
            Actor::Receiver { arq } => arq.on_frame(frame, out),
            Actor::Relay { rx, tx } => match frame.kind {
                FrameKind::Data | FrameKind::Fin => {
                    let mut up = Vec::new();
                    rx.on_frame(frame, &mut up);
                    for a in up {
                        match a {
                            Action::Deliver { bytes } => {
                                tx.offer(&bytes, out);
                                out.push(Action::Deliver { bytes });
                            }
                            Action::Finished => tx.close(out),
                            other => out.push(other),
                        }
                    }
                }
                FrameKind::Ack | FrameKind::FinAck => tx.on_frame(frame, out),
                _ => {}
            },
            Actor::Pinger { p } => p.on_frame(frame, rssi_dbm, now_ns, out),
            Actor::Ponger { p } => p.on_frame(frame, rssi_dbm, out),
        }
    }

    fn on_timer(&mut self, timer_id: u64, now_ns: u64, out: &mut Vec<Action>) {
        match self {
            Actor::Sender { arq, .. } => arq.on_timer(timer_id, out),
            Actor::Relay { tx, .. } => tx.on_timer(timer_id, out),
            Actor::Pinger { p } => p.on_timer(timer_id, now_ns, out),
            _ => {}
        }
    }

    /// Does this role ever declare itself finished? (Pongers are
    /// passive and never do.)
    fn is_terminal(&self) -> bool {
        !matches!(self, Actor::Ponger { .. })
    }
}

struct Node {
    label: String,
    actor: Actor,
    tx_free_ns: u64,
    /// Seed of this node's CSMA backoff stream.
    csma_seed: u64,
    /// Backoff draws taken so far (the stream index).
    tx_draws: u64,
    /// Active reception windows: (start, end, reception index).
    rx_windows: Vec<(u64, u64, usize)>,
    /// Active own-transmission windows: (start, end).
    tx_windows: Vec<(u64, u64)>,
    delivered: Vec<u8>,
    ledger: EnergyLedger,
    finished: bool,
    error: Option<LinkError>,
}

struct Edge {
    profile: HopProfile,
    to: usize,
    loss_seed: u64,
    dup_seed: u64,
    reorder_seed: u64,
    tx_count: u64,
    report: EdgeReport,
}

struct Reception {
    to: usize,
    from_edge: usize,
    frame: Frame,
    rssi_dbm: f64,
    corrupted: bool,
    channel_lost: bool,
    phantom: bool,
    reordered: bool,
}

enum Ev {
    Deliver { rec: usize },
    Timer { node: usize, timer_id: u64 },
}

/// Per-node outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// Scenario label of the node.
    pub label: String,
    /// In-order bytes the node's application saw (for a relay: bytes
    /// it forwarded downstream).
    pub delivered_bytes: u64,
    /// Did the node's protocol reach its terminal state?
    pub finished: bool,
    /// Typed failure, rendered, if the node gave up.
    pub error: Option<String>,
    /// Energy spent, per component (`radio_rx`/`radio_tx`/`mcu`).
    pub energy: EnergyLedger,
}

/// Per-directed-edge channel statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeReport {
    /// Transmitting node index.
    pub from: usize,
    /// Receiving node index.
    pub to: usize,
    /// Frames put on the air on this edge.
    pub tx_frames: u64,
    /// Frames that reached the receiver's deframer intact.
    pub delivered: u64,
    /// Frames erased by the channel schedule.
    pub lost: u64,
    /// Frames destroyed by overlapping receptions or half-duplex
    /// self-interference.
    pub collisions: u64,
    /// Extra deliveries injected by the duplication schedule.
    pub duplicated: u64,
    /// Deliveries delayed by the reordering schedule.
    pub reordered: u64,
    /// Wire bytes transmitted (escaped, delimited).
    pub bytes_on_air: u64,
    /// Total airtime spent on this edge.
    pub airtime_s: f64,
}

/// The full deterministic outcome of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulated time of the last processed event.
    pub duration_s: f64,
    /// Events processed.
    pub events: u64,
    /// Per-node outcomes, in node-creation order.
    pub nodes: Vec<NodeReport>,
    /// Per-edge statistics, in edge-creation order.
    pub edges: Vec<EdgeReport>,
}

/// The simulator. Build a topology with [`NetSim::add_node`] /
/// [`NetSim::link`], then [`NetSim::run`] it to completion.
pub struct NetSim {
    phy: Box<dyn PhyModem>,
    seed: u64,
    energy: OtaEnergyModel,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    out_edges: Vec<Vec<usize>>,
    queue: EventQueue<Ev>,
    receptions: Vec<Reception>,
    airtime_cache: BTreeMap<usize, u64>,
    turnaround_ns: u64,
    max_events: u64,
    now_ns: u64,
    events: u64,
    ran: bool,
}

impl NetSim {
    /// A simulator carrying frames over `phy`'s airtime model, with all
    /// randomness derived from `seed`.
    #[must_use]
    pub fn new(phy: &dyn PhyModem, seed: u64) -> Self {
        NetSim {
            phy: phy.clone_box(),
            seed,
            energy: OtaEnergyModel::paper(),
            nodes: Vec::new(),
            edges: Vec::new(),
            out_edges: Vec::new(),
            queue: EventQueue::new(),
            receptions: Vec::new(),
            airtime_cache: BTreeMap::new(),
            turnaround_ns: s_to_ns(TURNAROUND_S),
            max_events: DEFAULT_MAX_EVENTS,
            now_ns: 0,
            events: 0,
            ran: false,
        }
    }

    /// Add a node; returns its index. Jitter streams are derived from
    /// `(seed, node index)`, so co-located stations never share one.
    pub fn add_node(&mut self, label: &str, role: Role) -> usize {
        let idx = self.nodes.len();
        let jitter_seed = node_stream_seed(self.seed, idx as u64, STREAM_LINK_JITTER);
        let actor = match role {
            Role::Sender { payload, cfg } => Actor::Sender {
                arq: ArqSender::new(cfg, jitter_seed),
                payload,
            },
            Role::Receiver { cfg } => Actor::Receiver {
                arq: ArqReceiver::new(cfg),
            },
            Role::Relay { cfg } => Actor::Relay {
                rx: ArqReceiver::new(cfg.clone()),
                tx: ArqSender::new(cfg, jitter_seed),
            },
            Role::Pinger { cfg, seq0 } => Actor::Pinger {
                p: Pinger::new(cfg, seq0, jitter_seed),
            },
            Role::Ponger => Actor::Ponger { p: Ponger::new() },
        };
        self.nodes.push(Node {
            label: label.to_string(),
            actor,
            tx_free_ns: 0,
            csma_seed: node_stream_seed(self.seed, idx as u64, STREAM_LINK_CSMA),
            tx_draws: 0,
            rx_windows: Vec::new(),
            tx_windows: Vec::new(),
            delivered: Vec::new(),
            ledger: EnergyLedger::new(),
            finished: false,
            error: None,
        });
        self.out_edges.push(Vec::new());
        idx
    }

    /// Add one directed hop `from → to`.
    ///
    /// # Panics
    /// Panics on out-of-range node indices or a self-edge.
    pub fn add_edge(&mut self, from: usize, to: usize, profile: HopProfile) {
        assert!(
            from < self.nodes.len() && to < self.nodes.len(),
            "edge endpoints must exist"
        );
        assert_ne!(from, to, "self-edges are not a thing on a radio");
        let e = self.edges.len() as u64;
        self.edges.push(Edge {
            loss_seed: node_stream_seed(self.seed, e, STREAM_LINK_LOSS),
            dup_seed: node_stream_seed(self.seed, e, STREAM_LINK_DUP),
            reorder_seed: node_stream_seed(self.seed, e, STREAM_LINK_REORDER),
            to,
            tx_count: 0,
            report: EdgeReport {
                from,
                to,
                tx_frames: 0,
                delivered: 0,
                lost: 0,
                collisions: 0,
                duplicated: 0,
                reordered: 0,
                bytes_on_air: 0,
                airtime_s: 0.0,
            },
            profile,
        });
        self.out_edges[from].push(self.edges.len() - 1);
    }

    /// Add both directions of a hop.
    pub fn link(&mut self, a: usize, b: usize, forward: HopProfile, reverse: HopProfile) {
        self.add_edge(a, b, forward);
        self.add_edge(b, a, reverse);
    }

    /// Bytes delivered in order at `node`.
    #[must_use]
    pub fn delivered(&self, node: usize) -> &[u8] {
        &self.nodes[node].delivered
    }

    /// Ping statistics, if `node` is a pinger.
    #[must_use]
    pub fn ping_report(&self, node: usize) -> Option<PingReport> {
        match &self.nodes[node].actor {
            Actor::Pinger { p } => Some(p.report()),
            _ => None,
        }
    }

    /// The typed error that stopped `node`, if any.
    #[must_use]
    pub fn node_error(&self, node: usize) -> Option<LinkError> {
        self.nodes[node].error
    }

    fn airtime_ns(&mut self, wire_len: usize) -> u64 {
        if let Some(&ns) = self.airtime_cache.get(&wire_len) {
            return ns;
        }
        let ns = s_to_ns(self.phy.airtime_len_s(wire_len));
        self.airtime_cache.insert(wire_len, ns);
        ns
    }

    fn process_actions(&mut self, node_idx: usize, actions: Vec<Action>) {
        for a in actions {
            match a {
                Action::Tx { frame } => self.schedule_tx(node_idx, frame, None),
                Action::TxTimed {
                    frame,
                    timer_id,
                    timeout_s,
                } => {
                    self.schedule_tx(node_idx, frame, Some((timer_id, timeout_s)));
                }
                Action::Delay { timer_id, delay_s } => {
                    let t = self.now_ns.saturating_add(s_to_ns(delay_s));
                    self.queue.push(
                        t,
                        Ev::Timer {
                            node: node_idx,
                            timer_id,
                        },
                    );
                }
                Action::Deliver { bytes } => {
                    self.nodes[node_idx].delivered.extend_from_slice(&bytes);
                }
                Action::Finished => self.nodes[node_idx].finished = true,
                Action::Failed { error } => self.nodes[node_idx].error = Some(error),
            }
        }
    }

    fn schedule_tx(&mut self, from: usize, frame: Frame, timer: Option<(u64, f64)>) {
        let wire_len = frame.encode().len();
        let air_ns = self.airtime_ns(wire_len);
        let now = self.now_ns;
        let tx_mw = self.energy.ack_tx_mw;
        let (start, end) = {
            let node = &mut self.nodes[from];
            node.rx_windows.retain(|w| w.1 > now);
            // CSMA backoff: a fresh per-transmission draw desynchronizes
            // stations that share identical turnaround constants —
            // without it a relay chain phase-locks and the downstream
            // ACK collides with the next upstream data frame on every
            // cycle (retry jitter alone cannot break the lock, because
            // carrier sense re-quantizes every deferred start to the
            // end of the same reception window).
            let backoff_ns =
                (unit_draw(node.csma_seed, node.tx_draws) * 0.5 * self.turnaround_ns as f64) as u64;
            node.tx_draws += 1;
            let mut start = now.max(node.tx_free_ns).saturating_add(backoff_ns);
            // listen-before-talk: defer past every reception already
            // committed at this antenna. Fixpoint over the (few) active
            // windows — the result is the earliest clear slot, which is
            // independent of window iteration order.
            loop {
                let end = start.saturating_add(air_ns);
                let mut deferred = false;
                for &(s, e, _) in &node.rx_windows {
                    if s < end && e > start {
                        start = e;
                        deferred = true;
                    }
                }
                if !deferred {
                    break;
                }
            }
            let end = start.saturating_add(air_ns);
            node.tx_free_ns = end.saturating_add(self.turnaround_ns);
            node.ledger.record("radio_tx", tx_mw, air_ns);
            node.tx_windows.retain(|w| w.1 > now);
            node.tx_windows.push((start, end));
            (start, end)
        };
        // half-duplex: receptions committed *after* this decision that
        // overlap our own transmission are corrupted on the incoming
        // path (the tx_windows check below); nothing to corrupt here —
        // carrier sense just deferred around everything known.
        if let Some((timer_id, timeout_s)) = timer {
            let t = end.saturating_add(s_to_ns(timeout_s));
            self.queue.push(
                t,
                Ev::Timer {
                    node: from,
                    timer_id,
                },
            );
        }
        // the broadcast: every graph neighbour hears the transmission
        let out_edges = self.out_edges[from].clone();
        let rx_mw = self.energy.rx_mw;
        for e_idx in out_edges {
            let (to, rssi_dbm, prop_ns, reorder_extra_ns, lost, dup, reord) = {
                let edge = &mut self.edges[e_idx];
                let idx = edge.tx_count;
                edge.tx_count += 1;
                edge.report.tx_frames += 1;
                edge.report.bytes_on_air += wire_len as u64;
                edge.report.airtime_s += ns_to_s(air_ns);
                (
                    edge.to,
                    edge.profile.rssi_dbm,
                    s_to_ns(edge.profile.prop_delay_s),
                    s_to_ns(edge.profile.reorder_delay_s),
                    edge.profile.loss.fires(edge.loss_seed, idx),
                    edge.profile.duplicate.fires(edge.dup_seed, idx),
                    edge.profile.reorder.fires(edge.reorder_seed, idx),
                )
            };
            let rx_start = start.saturating_add(prop_ns);
            let rx_end = end.saturating_add(prop_ns);
            let rec_idx = self.receptions.len();
            let mut corrupted = false;
            let mut also_corrupt = Vec::new();
            {
                let node = &mut self.nodes[to];
                node.ledger.record("radio_rx", rx_mw, air_ns);
                node.rx_windows.retain(|w| w.1 > now);
                for &(s, e, idx) in &node.rx_windows {
                    if s < rx_end && e > rx_start {
                        also_corrupt.push(idx);
                        corrupted = true;
                    }
                }
                node.tx_windows.retain(|w| w.1 > now);
                for &(s, e) in &node.tx_windows {
                    if s < rx_end && e > rx_start {
                        corrupted = true;
                    }
                }
                node.rx_windows.push((rx_start, rx_end, rec_idx));
            }
            for idx in also_corrupt {
                self.receptions[idx].corrupted = true;
            }
            let deliver_at = if reord {
                rx_end.saturating_add(reorder_extra_ns)
            } else {
                rx_end
            };
            self.receptions.push(Reception {
                to,
                from_edge: e_idx,
                frame: frame.clone(),
                rssi_dbm,
                corrupted,
                channel_lost: lost,
                phantom: false,
                reordered: reord,
            });
            self.queue.push(deliver_at, Ev::Deliver { rec: rec_idx });
            if dup {
                // a delayed second copy: pure delivery, no physics
                let rec2 = self.receptions.len();
                self.receptions.push(Reception {
                    to,
                    from_edge: e_idx,
                    frame: frame.clone(),
                    rssi_dbm,
                    corrupted: false,
                    channel_lost: false,
                    phantom: true,
                    reordered: false,
                });
                self.queue
                    .push(deliver_at.saturating_add(air_ns), Ev::Deliver { rec: rec2 });
            }
        }
    }

    fn deliver(&mut self, rec_idx: usize) {
        let (to, from_edge, phantom, corrupted, channel_lost, reordered) = {
            let r = &self.receptions[rec_idx];
            (
                r.to,
                r.from_edge,
                r.phantom,
                r.corrupted,
                r.channel_lost,
                r.reordered,
            )
        };
        let ok = {
            let report = &mut self.edges[from_edge].report;
            if phantom {
                report.duplicated += 1;
                true
            } else if corrupted {
                report.collisions += 1;
                false
            } else if channel_lost {
                report.lost += 1;
                false
            } else {
                report.delivered += 1;
                if reordered {
                    report.reordered += 1;
                }
                true
            }
        };
        if !ok {
            return;
        }
        let frame = self.receptions[rec_idx].frame.clone();
        let rssi_dbm = self.receptions[rec_idx].rssi_dbm;
        let now = self.now_ns;
        let mut out = Vec::new();
        self.nodes[to]
            .actor
            .on_frame(&frame, rssi_dbm, now, &mut out);
        self.process_actions(to, out);
    }

    fn all_done(&self) -> bool {
        self.nodes
            .iter()
            .all(|n| n.finished || n.error.is_some() || !n.actor.is_terminal())
    }

    /// Run the scenario to completion and return its report. The run
    /// ends when every terminal node has finished or failed, or when
    /// the event queue drains.
    ///
    /// # Panics
    /// Panics if the event budget is exceeded (a protocol livelock —
    /// a bug, not a result) or if called twice.
    pub fn run(&mut self) -> SimReport {
        assert!(!self.ran, "NetSim::run may only be called once");
        self.ran = true;
        for i in 0..self.nodes.len() {
            let mut out = Vec::new();
            self.nodes[i].actor.start(0, &mut out);
            self.process_actions(i, out);
        }
        while let Some((t, ev)) = self.queue.pop() {
            self.events += 1;
            assert!(
                self.events <= self.max_events,
                "event budget {} exceeded — protocol livelock",
                self.max_events
            );
            self.now_ns = t;
            match ev {
                Ev::Deliver { rec } => self.deliver(rec),
                Ev::Timer { node, timer_id } => {
                    let mut out = Vec::new();
                    self.nodes[node].actor.on_timer(timer_id, t, &mut out);
                    self.process_actions(node, out);
                }
            }
            if self.all_done() {
                break;
            }
        }
        let dur_ns = self.now_ns;
        let mcu_mw = self.energy.mcu_mw;
        for node in &mut self.nodes {
            node.ledger.record("mcu", mcu_mw, dur_ns);
        }
        SimReport {
            duration_s: ns_to_s(dur_ns),
            events: self.events,
            nodes: self
                .nodes
                .iter()
                .map(|n| NodeReport {
                    label: n.label.clone(),
                    delivered_bytes: n.delivered.len() as u64,
                    finished: n.finished,
                    error: n.error.map(|e| e.to_string()),
                    energy: n.ledger.clone(),
                })
                .collect(),
            edges: self.edges.iter().map(|e| e.report.clone()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testphy::TestPhy;

    fn transfer_sim(
        payload: &[u8],
        hop: HopProfile,
        cfg: ArqConfig,
        seed: u64,
    ) -> (NetSim, SimReport) {
        let phy = TestPhy::new();
        let mut sim = NetSim::new(&phy, seed);
        let s = sim.add_node(
            "tx",
            Role::Sender {
                payload: payload.to_vec(),
                cfg: cfg.clone(),
            },
        );
        let r = sim.add_node("rx", Role::Receiver { cfg });
        sim.link(s, r, hop.clone(), HopProfile::clean(hop.rssi_dbm));
        let report = sim.run();
        (sim, report)
    }

    #[test]
    fn clean_hop_transfers_exactly() {
        let payload: Vec<u8> = (0..2000u32).map(|i| (i % 256) as u8).collect();
        let (sim, report) =
            transfer_sim(&payload, HopProfile::clean(-80.0), ArqConfig::sliding(8), 1);
        assert_eq!(sim.delivered(1), &payload[..]);
        assert!(report.nodes[0].finished && report.nodes[1].finished);
        assert_eq!(report.nodes[1].delivered_bytes, 2000);
        assert_eq!(report.edges[0].collisions, 0);
        assert_eq!(report.edges[0].lost, 0);
        // energy flowed: both radios and both MCUs spent something
        for n in &report.nodes {
            let tags = n.energy.by_tag();
            assert!(tags["radio_tx"] > 0.0 && tags["radio_rx"] > 0.0 && tags["mcu"] > 0.0);
        }
    }

    #[test]
    fn bernoulli_loss_recovers_with_retransmissions() {
        let payload: Vec<u8> = (0..1500u32).map(|i| (i * 13 % 256) as u8).collect();
        let (sim, report) = transfer_sim(
            &payload,
            HopProfile::lossy(-95.0, 0.25),
            ArqConfig::sliding(4),
            42,
        );
        assert_eq!(sim.delivered(1), &payload[..], "ARQ must mask 25 % loss");
        assert!(report.nodes[0].finished && report.nodes[1].finished);
        assert!(report.edges[0].lost > 0, "the schedule did fire");
        assert!(
            report.edges[0].tx_frames > 25,
            "retransmissions happened (base frames: 25 data + fin)"
        );
    }

    #[test]
    fn total_blackout_fails_with_typed_timeout() {
        let payload = vec![7u8; 100];
        let (sim, report) = transfer_sim(
            &payload,
            HopProfile::lossy(-120.0, 1.0),
            ArqConfig::stop_and_wait(),
            3,
        );
        let err = sim.node_error(0).expect("sender must fail, not hang");
        assert!(matches!(
            err,
            LinkError::Timeout {
                seq: 0,
                attempts: 12
            }
        ));
        assert!(!report.nodes[1].finished);
        assert_eq!(sim.delivered(1), b"", "nothing delivered, nothing invented");
    }

    #[test]
    fn identical_seeds_produce_bit_identical_reports() {
        let payload: Vec<u8> = (0..900u32).map(|i| (i % 251) as u8).collect();
        let hop = HopProfile::lossy(-97.0, 0.3);
        let run = |seed| transfer_sim(&payload, hop.clone(), ArqConfig::sliding(8), seed).1;
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds see different channels");
    }

    #[test]
    fn relay_chain_delivers_same_bytes_as_single_hop() {
        let payload: Vec<u8> = (0..800u32).map(|i| (i * 31 % 256) as u8).collect();
        let cfg = ArqConfig::sliding(4);
        let phy = TestPhy::new();
        let mut sim = NetSim::new(&phy, 5);
        let s = sim.add_node(
            "tx",
            Role::Sender {
                payload: payload.clone(),
                cfg: cfg.clone(),
            },
        );
        let relay = sim.add_node("relay", Role::Relay { cfg: cfg.clone() });
        let r = sim.add_node("rx", Role::Receiver { cfg });
        sim.link(
            s,
            relay,
            HopProfile::lossy(-90.0, 0.1),
            HopProfile::clean(-90.0),
        );
        sim.link(
            relay,
            r,
            HopProfile::lossy(-95.0, 0.1),
            HopProfile::clean(-95.0),
        );
        let report = sim.run();
        assert_eq!(sim.delivered(r), &payload[..]);
        assert!(report.nodes.iter().all(|n| n.finished), "{report:?}");
        // the relay spent tx energy forwarding — visible per hop
        assert!(report.nodes[relay].energy.by_tag()["radio_tx"] > 0.0);
    }

    #[test]
    fn hidden_terminals_collide_then_recover() {
        let phy = TestPhy::new();
        let mut sim = NetSim::new(&phy, 11);
        let a = sim.add_node(
            "a",
            Role::Pinger {
                cfg: PingConfig::new(8),
                seq0: 0,
            },
        );
        let b = sim.add_node("b", Role::Ponger);
        let c = sim.add_node(
            "c",
            Role::Pinger {
                cfg: PingConfig::new(8),
                seq0: 1000,
            },
        );
        // a and c both hear b, but not each other
        sim.link(a, b, HopProfile::clean(-70.0), HopProfile::clean(-70.0));
        sim.link(c, b, HopProfile::clean(-72.0), HopProfile::clean(-72.0));
        let report = sim.run();
        let collisions: u64 = report.edges.iter().map(|e| e.collisions).sum();
        assert!(collisions > 0, "simultaneous first pings must collide at b");
        let ra = sim.ping_report(a).unwrap();
        let rc = sim.ping_report(c).unwrap();
        assert!(
            ra.received + rc.received > 0,
            "retry jitter must break the lockstep: {ra:?} {rc:?}"
        );
        assert!(report.nodes[a].finished && report.nodes[c].finished);
    }

    #[test]
    fn ping_measures_both_rssi_ends() {
        let phy = TestPhy::new();
        let mut sim = NetSim::new(&phy, 2);
        let a = sim.add_node(
            "a",
            Role::Pinger {
                cfg: PingConfig::new(5),
                seq0: 0,
            },
        );
        let b = sim.add_node("b", Role::Ponger);
        sim.link(a, b, HopProfile::clean(-88.0), HopProfile::clean(-94.0));
        let report = sim.run();
        let pr = sim.ping_report(a).unwrap();
        assert_eq!(pr.sent, 5);
        assert_eq!(pr.received, 5);
        assert_eq!(pr.loss, 0.0);
        assert_eq!(
            pr.rssi_fwd_dbm, -88.0,
            "forward RSSI reported by the ponger"
        );
        assert_eq!(pr.rssi_rev_dbm, -94.0, "reverse RSSI measured on the pong");
        assert!(pr.rtt_min_s > 0.0 && pr.rtt_max_s >= pr.rtt_min_s);
        assert!(report.duration_s > 0.0);
    }

    #[test]
    fn duplication_and_reorder_schedules_are_masked_by_arq() {
        let payload: Vec<u8> = (0..700u32).map(|i| (i * 7 % 256) as u8).collect();
        let hop = HopProfile {
            duplicate: Pattern::Bernoulli { prob: 0.2 },
            reorder: Pattern::Bernoulli { prob: 0.2 },
            ..HopProfile::clean(-85.0)
        };
        let (sim, report) = transfer_sim(&payload, hop, ArqConfig::sliding(8), 77);
        assert_eq!(
            sim.delivered(1),
            &payload[..],
            "exactly-once despite dup+reorder"
        );
        assert!(report.edges[0].duplicated > 0);
        assert!(report.edges[0].reordered > 0);
        assert!(report.nodes[0].finished && report.nodes[1].finished);
    }

    #[test]
    fn burst_pattern_hits_consecutive_transmissions() {
        let p = Pattern::Burst {
            period: 10,
            len: 3,
            offset: 0,
        };
        let hits: Vec<bool> = (0..20).map(|i| p.fires(0, i)).collect();
        assert!(hits[0] && hits[1] && hits[2] && !hits[3]);
        assert!(hits[10] && hits[11] && hits[12] && !hits[13]);
        assert!(!Pattern::Burst {
            period: 0,
            len: 3,
            offset: 0
        }
        .fires(0, 0));
    }

    #[test]
    fn schedule_pattern_is_exact() {
        let p = Pattern::Schedule {
            fire: vec![true, false, true],
        };
        assert!(p.fires(123, 0));
        assert!(!p.fires(123, 1));
        assert!(p.fires(123, 2));
        assert!(!p.fires(123, 3), "beyond the schedule: never");
    }
}
