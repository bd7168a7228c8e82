//! The 20-node campus testbed (paper Fig. 7) and the OTA campaign
//! engine behind Fig. 14.
//!
//! "We deploy a testbed of 20 tinySDR devices across our institution's
//! campus" — node positions span tens of meters to about two kilometers
//! from the LoRa access point, giving the RSSI spread that turns into
//! Fig. 14's programming-time CDF.
//!
//! The campaign layer scales past the paper's 20 nodes, all the way to
//! the ROADMAP's million-node fleets:
//!
//! * **Block fold on the workspace executor** — nodes are split into
//!   fixed blocks of [`CampaignConfig::block_len`] ids;
//!   [`tinysdr_dsp::executor`] workers claim blocks from a shared
//!   atomic cursor (fast workers steal what slow ones would have owned
//!   under static chunking) and the campaign's merger folds finished
//!   blocks **strictly by block index**. Every
//!   floating-point sum therefore has a fixed association, so a
//!   sharded campaign is **bit-identical** to the sequential one for
//!   the same seed — including every energy number — regardless of
//!   shard count or steal interleaving. (Per-node randomness comes
//!   from order-independent [`tinysdr_ota::seed`] streams, as before.)
//! * **Streaming aggregation** — per-block results fold into a
//!   [`NodeAggregate`]; with [`RetainMode::Sketch`] the report's
//!   memory is independent of node count ([`RetainMode::Exact`], the
//!   default, retains per-node reports so paper-scale figures are
//!   unchanged).
//! * **Checkpoint/resume** — [`Testbed::run_campaign_checkpointed`]
//!   persists the merged prefix through
//!   [`tinysdr_ota::checkpoint`] and resumes a killed or cancelled
//!   campaign bit-identically to an uninterrupted run. Its
//!   [`CheckpointConfig`] carries both stop conditions: a block count
//!   and a cancel token.
//!
//! Two programming strategies are wired in: the paper's §3.4
//! sequential unicast ([`Testbed::run_campaign`]) and the §7 broadcast
//! with NACK-repair rounds plus targeted unicast repair
//! ([`Testbed::broadcast_campaign`]).
//!
//! Campaign payload air time is priced through the workspace-wide
//! [`tinysdr_rf::phy::PhyModem`] seam: every session asks the OTA
//! link's modem (`LinkModel::phy()`, the framed LoRa implementor) for
//! [`tinysdr_rf::phy::PhyModem::airtime_s`] rather than keeping a
//! parallel formula.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tinysdr_dsp::cancel::CancelToken;
use tinysdr_dsp::executor::fold_in_order;
use tinysdr_dsp::stats::Ecdf;
use tinysdr_ota::aggregate::{LifeProjection, NodeAggregate, NodeMetric, RetainMode};
use tinysdr_ota::blocks::BlockedUpdate;
use tinysdr_ota::broadcast::{run_broadcast, BroadcastConfig, BroadcastReport};
use tinysdr_ota::checkpoint::{chain_mix, CampaignCheckpoint, CheckpointError, VERSION};
use tinysdr_ota::json::{EcdfTable, Value};
use tinysdr_ota::seed::{
    node_stream_seed, stream_seed, STREAM_BROADCAST, STREAM_INTERFERENCE, STREAM_SESSION,
};
use tinysdr_ota::session::{run_session, LinkModel, SessionConfig, SessionReport};
use tinysdr_power::battery::Battery;
use tinysdr_power::duty::projected_life_years;
use tinysdr_power::energy::EnergyLedger;
use tinysdr_rf::pathloss::{Link, LogDistance};

/// AP transmit power (paper: "transmitting at 14 dBm").
pub const AP_TX_POWER_DBM: f64 = 14.0;
/// AP patch-antenna gain, dB.
pub const AP_ANTENNA_GAIN_DB: f64 = 6.0;

/// Default scheduler block length, nodes per block. Small enough that
/// modest campaigns exercise real work stealing, large enough that the
/// per-block merge lock is noise (a block is hundreds of milliseconds
/// of session simulation).
pub const DEFAULT_BLOCK_LEN: usize = 32;

/// One testbed node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Device identifier.
    pub id: u32,
    /// Distance from the AP, meters.
    pub distance_m: f64,
    /// Frozen link (shadowing realization).
    pub link: Link,
    /// Downlink RSSI from the AP, dBm.
    pub rssi_dbm: f64,
}

/// The campus testbed.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// Propagation model.
    pub model: LogDistance,
    /// The nodes.
    pub nodes: Vec<Node>,
}

impl Testbed {
    /// Build the 20-node campus testbed. Distances are log-uniform
    /// between 100 m and 2.5 km (near buildings through the campus
    /// edge), with per-link lognormal shadowing — all seeded. The far
    /// tail sits near the SF8/BW500 sensitivity, which is what spreads
    /// the Fig. 14 CDF to the right.
    pub fn campus(seed: u64) -> Self {
        Self::with_nodes(20, seed)
    }

    /// Build a testbed with `n` nodes (`n <= 2^32`, the node-id
    /// space). The testbed itself is `O(n)` — one [`Node`] per device;
    /// it is the campaign *report* whose memory the sketch mode keeps
    /// flat.
    pub fn with_nodes(n: usize, seed: u64) -> Self {
        assert!(
            n <= u32::MAX as usize + 1,
            "node ids are u32, got {n} nodes"
        );
        let model = LogDistance::campus_915mhz();
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = (0..n)
            .map(|i| {
                let log_d = rng.gen_range(100f64.ln()..2500f64.ln());
                let distance_m = log_d.exp();
                let mut link = Link::new(&model, distance_m, seed ^ (i as u64 * 7919));
                link.antenna_gains_db = AP_ANTENNA_GAIN_DB;
                let rssi = link.rssi_dbm(&model, AP_TX_POWER_DBM);
                Node {
                    id: i as u32,
                    distance_m,
                    link,
                    rssi_dbm: rssi,
                }
            })
            .collect();
        Testbed { model, nodes }
    }

    /// RSSI distribution across nodes, dBm.
    pub fn rssi_spread(&self) -> (f64, f64) {
        let min = self
            .nodes
            .iter()
            .map(|n| n.rssi_dbm)
            .fold(f64::MAX, f64::min);
        let max = self
            .nodes
            .iter()
            .map(|n| n.rssi_dbm)
            .fold(f64::MIN, f64::max);
        (min, max)
    }

    /// Location-dependent co-channel interference loss probability for a
    /// node, in `[0, 0.08)` — drawn from the node's own seed stream, so
    /// the draw is independent of programming order and shard layout.
    pub fn interference_loss(campaign_seed: u64, node_id: u32) -> f64 {
        let mut rng = StdRng::seed_from_u64(node_stream_seed(
            campaign_seed,
            node_id as u64,
            STREAM_INTERFERENCE,
        ));
        rng.gen_range(0.0..0.08)
    }

    /// The RNG seed a node's unicast programming session runs with.
    /// Exposed so tests can assert the no-collision contract.
    pub fn session_seed(campaign_seed: u64, node_id: u32) -> u64 {
        node_stream_seed(campaign_seed, node_id as u64, STREAM_SESSION)
    }

    /// Program one node: frozen link + per-node interference + the
    /// node's own session RNG stream. Pure in `(node, update, cfg)`.
    fn program_node(node: &Node, update: &BlockedUpdate, cfg: &CampaignConfig) -> SessionReport {
        let mut link = LinkModel::from_downlink(node.rssi_dbm);
        link.base_loss_prob = Self::interference_loss(cfg.seed, node.id);
        let scfg = SessionConfig {
            max_attempts: cfg.max_attempts,
            seed: Self::session_seed(cfg.seed, node.id),
        };
        run_session(update, &link, &scfg)
    }

    /// One scheduler block's work: program a slice of nodes
    /// sequentially into a fresh block-local aggregate.
    fn program_block(nodes: &[Node], update: &BlockedUpdate, cfg: &CampaignConfig) -> BlockOut {
        let mut agg = NodeAggregate::new(cfg.retain, cfg.projection);
        let mut reports = Vec::with_capacity(if cfg.retain.is_exact() {
            nodes.len()
        } else {
            0
        });
        for n in nodes {
            let rep = Self::program_node(n, update, cfg);
            agg.push_session(&rep);
            if cfg.retain.is_exact() {
                reports.push((n.id, rep));
            }
        }
        BlockOut { agg, reports }
    }

    /// Fingerprint of everything that determines a campaign's result:
    /// format version, campaign config (minus `shards`, which the
    /// determinism contract makes irrelevant), node identities/links,
    /// and the update payload. A resumed checkpoint must carry the
    /// same fingerprint or the resume is refused.
    fn campaign_fingerprint(nodes: &[Node], update: &BlockedUpdate, cfg: &CampaignConfig) -> u64 {
        let mut h = chain_mix(0xCA3B_A160_0000_0000, VERSION as u64);
        h = chain_mix(h, cfg.seed);
        h = chain_mix(h, cfg.max_attempts as u64);
        h = chain_mix(h, cfg.block_len as u64);
        match cfg.retain {
            RetainMode::Exact => h = chain_mix(h, 0),
            RetainMode::Sketch { alpha } => {
                h = chain_mix(h, 1);
                h = chain_mix(h, alpha.to_bits());
            }
        }
        match &cfg.projection {
            None => h = chain_mix(h, 0),
            Some(p) => {
                h = chain_mix(h, 1);
                h = chain_mix(h, p.period_s.to_bits());
                h = chain_mix(h, p.sleep_mw.to_bits());
                h = chain_mix(h, p.battery.capacity_mah.to_bits());
                h = chain_mix(h, p.battery.voltage_v.to_bits());
                h = chain_mix(h, p.battery.usable_fraction.to_bits());
            }
        }
        h = chain_mix(h, nodes.len() as u64);
        for n in nodes {
            h = chain_mix(h, n.id as u64);
            h = chain_mix(h, n.rssi_dbm.to_bits());
        }
        h = chain_mix(h, update.raw_len as u64);
        h = chain_mix(h, update.image_crc32 as u64);
        h = chain_mix(h, update.compressed_len() as u64);
        h = chain_mix(h, update.blocks.len() as u64);
        h
    }

    /// Fold the blocks from the merger's frontier on through the
    /// workspace executor, until the campaign runs out, the merger
    /// stops, or `cancel` trips at a block claim; then hand the merger
    /// back. The single engine behind [`Self::run_campaign`] and
    /// [`Self::run_campaign_checkpointed`].
    ///
    /// # Panics
    /// Propagates a panic from any campaign worker: losing a block's
    /// nodes would silently skew every merged distribution.
    fn fold_blocks(
        nodes: &[Node],
        update: &BlockedUpdate,
        cfg: &CampaignConfig,
        mut merger: InOrderMerger,
        cancel: &CancelToken,
    ) -> InOrderMerger {
        // a merger that starts stopped claims no block at all
        if merger.stopped {
            return merger;
        }
        fold_in_order(
            merger.next_block..cfg.blocks_for(nodes.len()),
            cfg.shards,
            cancel,
            || (),
            |b, _| {
                let lo = b * cfg.block_len;
                let hi = (lo + cfg.block_len).min(nodes.len());
                Self::program_block(&nodes[lo..hi], update, cfg)
            },
            |_, out| merger.offer(out),
        );
        merger
    }

    /// Run a unicast OTA campaign over a node subset, sharded per
    /// `cfg`, entirely in memory: with no checkpoint and a token nobody
    /// else holds, nothing stops the fold before the last block.
    fn run_campaign_on(
        nodes: &[Node],
        update: &BlockedUpdate,
        cfg: &CampaignConfig,
    ) -> CampaignReport {
        let merger = InOrderMerger::new(0, BlockOut::empty(cfg), None);
        let m = Self::fold_blocks(nodes, update, cfg, merger, &CancelToken::new());
        CampaignReport::from_blocks(m.acc)
    }

    /// Run a unicast OTA campaign: program every node with `update`.
    /// With `cfg.shards == 1` this is the paper's §3.4 flow (the AP
    /// programs nodes back to back); with more shards the sessions are
    /// simulated by work-stealing workers under the determinism
    /// contract (the result is bit-identical to the sequential run).
    pub fn run_campaign(&self, update: &BlockedUpdate, cfg: &CampaignConfig) -> CampaignReport {
        Self::run_campaign_on(&self.nodes, update, cfg)
    }

    /// Run a unicast campaign with periodic checkpoints, resuming from
    /// `ckpt.path` when a matching checkpoint exists. A resumed run is
    /// **bit-identical** to an uninterrupted one: the merged prefix is
    /// restored from disk and the remaining blocks are recomputed from
    /// their order-independent seed streams.
    ///
    /// Errors surface as [`CheckpointError`]: I/O problems, corrupt
    /// files, or a checkpoint written by a different campaign
    /// configuration. A run that stops early writes the merged
    /// frontier first: at [`CheckpointConfig::stop_after_blocks`] it
    /// returns [`CampaignRun::Interrupted`] (the kill half of the CI
    /// kill/resume equality gate), and once the
    /// [`CheckpointConfig::cancel_on`] token trips it returns
    /// [`CampaignRun::Cancelled`] (the testbed daemon's graceful
    /// shutdown). Either way a later identical call resumes.
    pub fn run_campaign_checkpointed(
        &self,
        update: &BlockedUpdate,
        cfg: &CampaignConfig,
        ckpt: &CheckpointConfig,
    ) -> Result<CampaignRun, CheckpointError> {
        let nblocks = cfg.blocks_for(self.nodes.len());
        let fingerprint = Self::campaign_fingerprint(&self.nodes, update, cfg);
        // resume from an existing checkpoint, if one matches
        let (start_block, acc) = if ckpt.path.exists() {
            let saved = CampaignCheckpoint::read(&ckpt.path)?;
            if saved.fingerprint != fingerprint {
                return Err(CheckpointError::Mismatch(
                    "checkpoint belongs to a different campaign",
                ));
            }
            if saved.total_blocks != nblocks as u64 {
                return Err(CheckpointError::Mismatch(
                    "checkpoint block count disagrees with campaign",
                ));
            }
            let acc = BlockOut {
                agg: saved.agg,
                reports: saved.reports,
            };
            (saved.merged_blocks as usize, acc)
        } else {
            (0, BlockOut::empty(cfg))
        };
        let state = CkptState {
            cfg: ckpt.clone(),
            fingerprint,
            total_blocks: nblocks as u64,
            last_written: start_block,
        };
        let merger = InOrderMerger::new(start_block, acc, Some(state));
        let mut m = Self::fold_blocks(&self.nodes, update, cfg, merger, &ckpt.cancel);
        if let Some(e) = m.failed.take() {
            return Err(e);
        }
        // persist the merged frontier whether the run finished or
        // stopped early, so a resume loses nothing
        m.write_checkpoint()?;
        if m.next_block >= nblocks {
            return Ok(CampaignRun::Complete(CampaignReport::from_blocks(m.acc)));
        }
        let (merged_blocks, total_blocks) = (m.next_block, nblocks);
        // without a failure or the stop point, only the token ends a
        // fold before its last block
        Ok(if m.stopped {
            CampaignRun::Interrupted {
                merged_blocks,
                total_blocks,
            }
        } else {
            CampaignRun::Cancelled {
                merged_blocks,
                total_blocks,
            }
        })
    }

    /// Run the §7 broadcast strategy: one shared broadcast with
    /// NACK-driven repair rounds, then targeted unicast repair sessions
    /// (through the sharded unicast engine) for any node the broadcast
    /// phase left incomplete.
    pub fn broadcast_campaign(
        &self,
        update: &BlockedUpdate,
        cfg: &BroadcastCampaignConfig,
    ) -> BroadcastCampaignReport {
        let links: Vec<LinkModel> = self
            .nodes
            .iter()
            .map(|n| {
                let mut l = LinkModel::from_downlink(n.rssi_dbm);
                l.base_loss_prob = Self::interference_loss(cfg.repair.seed, n.id);
                l
            })
            .collect();
        let broadcast = run_broadcast(
            update,
            &links,
            &BroadcastConfig {
                max_rounds: cfg.max_rounds,
                seed: stream_seed(cfg.repair.seed, STREAM_BROADCAST),
            },
        );
        let stragglers: Vec<Node> = self
            .nodes
            .iter()
            .zip(&broadcast.node_complete)
            .filter(|(_, &done)| !done)
            .map(|(n, _)| n.clone())
            .collect();
        let straggler_ids: Vec<u32> = stragglers.iter().map(|n| n.id).collect();
        let repaired = Self::run_campaign_on(&stragglers, update, &cfg.repair);
        let total_time_s = broadcast.total_time_s + repaired.total_air_time_s();
        BroadcastCampaignReport {
            node_ids: self.nodes.iter().map(|n| n.id).collect(),
            broadcast,
            straggler_ids,
            repaired,
            total_time_s,
        }
    }

    /// The Fig. 14 CDF of programming times, minutes (completed
    /// sessions only — check [`CampaignReport::completed`] against
    /// [`CampaignReport::len`] for coverage; an all-incomplete campaign
    /// yields an empty ECDF whose accessors return `None`).
    pub fn programming_time_cdf(
        &self,
        update: &BlockedUpdate,
        seed: u64,
    ) -> (Ecdf, CampaignReport) {
        let report = self.run_campaign(update, &CampaignConfig::sequential(seed));
        let ecdf = report
            .time_ecdf()
            // lint: allow(unjustified-panic, sequential() fixes RetainMode::Exact, so the ECDF always exists)
            .expect("sequential() campaigns retain exact ECDFs")
            .clone();
        (ecdf, report)
    }
}

/// One finished scheduler block: its aggregate and (exact mode only)
/// its per-node reports.
struct BlockOut {
    agg: NodeAggregate,
    reports: Vec<(u32, SessionReport)>,
}

impl BlockOut {
    /// Nothing merged yet.
    fn empty(cfg: &CampaignConfig) -> Self {
        BlockOut {
            agg: NodeAggregate::new(cfg.retain, cfg.projection),
            reports: Vec::new(),
        }
    }
}

/// Checkpointing state carried by the merger.
struct CkptState {
    cfg: CheckpointConfig,
    fingerprint: u64,
    total_blocks: u64,
    last_written: usize,
}

/// The campaign's fold state: the merged prefix, its checkpoint
/// bookkeeping and the stop/fail outcome. The executor hands it
/// finished blocks strictly in block-index order, so the merged state
/// never depends on steal interleaving.
struct InOrderMerger {
    next_block: usize,
    acc: BlockOut,
    ckpt: Option<CkptState>,
    failed: Option<CheckpointError>,
    stopped: bool,
}

impl InOrderMerger {
    /// A merger whose frontier starts at `start_block` with `acc`
    /// already folded. A stop point at or below that frontier is
    /// already reached, so the merger starts stopped and its run claims
    /// no block.
    fn new(start_block: usize, acc: BlockOut, ckpt: Option<CkptState>) -> Self {
        let stopped = ckpt
            .as_ref()
            .and_then(|ck| ck.cfg.stop_after_blocks)
            .is_some_and(|n| n <= start_block);
        InOrderMerger {
            next_block: start_block,
            acc,
            ckpt,
            failed: None,
            stopped,
        }
    }

    /// Merge the next block; `Break` once the stop point is reached or
    /// a periodic checkpoint write failed.
    fn offer(&mut self, out: BlockOut) -> ControlFlow<()> {
        self.acc.agg.merge(&out.agg);
        self.acc.reports.extend(out.reports);
        self.next_block += 1;
        let Some(ck) = &self.ckpt else {
            return ControlFlow::Continue(());
        };
        let due = self.next_block - ck.last_written >= ck.cfg.every_blocks;
        let stop_at = ck.cfg.stop_after_blocks;
        self.stopped = stop_at.is_some_and(|n| n <= self.next_block);
        if due && !self.stopped {
            self.failed = self.write_checkpoint().err();
        }
        if self.failed.is_some() || self.stopped {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Persist the merged prefix. Reports are sorted by id for the
    /// writer (ids are unique, so the sort is deterministic); the
    /// in-memory order keeps following block order until finalization.
    fn write_checkpoint(&mut self) -> Result<(), CheckpointError> {
        let Some(ck) = &mut self.ckpt else {
            return Ok(());
        };
        if self.next_block == ck.last_written {
            return Ok(());
        }
        let mut reports = self.acc.reports.clone();
        reports.sort_by_key(|(id, _)| *id);
        let snapshot = CampaignCheckpoint {
            fingerprint: ck.fingerprint,
            merged_blocks: self.next_block as u64,
            total_blocks: ck.total_blocks,
            agg: self.acc.agg.clone(),
            reports,
        };
        snapshot.write_atomic(&ck.cfg.path)?;
        ck.last_written = self.next_block;
        Ok(())
    }
}

/// Knobs for a unicast programming campaign.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Per-packet retry budget handed to each session.
    pub max_attempts: u32,
    /// Worker threads the campaign's blocks are stolen by
    /// (1 = sequential).
    pub shards: usize,
    /// Campaign seed; every node derives its own streams from it.
    pub seed: u64,
    /// What the report retains per node (exact reports vs sketches).
    pub retain: RetainMode,
    /// Scheduler block length, nodes per block. The unit of stealing,
    /// merging and checkpointing.
    pub block_len: usize,
    /// Optional battery-life projection streamed per node.
    pub projection: Option<LifeProjection>,
}

impl CampaignConfig {
    /// Scheduler blocks covering `nodes` nodes.
    fn blocks_for(&self, nodes: usize) -> usize {
        assert!(self.block_len >= 1, "block_len must be at least 1");
        nodes.div_ceil(self.block_len)
    }

    /// The paper's sequential flow: one thread, 40 attempts per packet,
    /// exact retention.
    pub fn sequential(seed: u64) -> Self {
        CampaignConfig {
            max_attempts: 40,
            shards: 1,
            seed,
            retain: RetainMode::Exact,
            block_len: DEFAULT_BLOCK_LEN,
            projection: None,
        }
    }

    /// Steal blocks across `shards` worker threads.
    pub fn sharded(seed: u64, shards: usize) -> Self {
        CampaignConfig {
            shards: shards.max(1),
            ..Self::sequential(seed)
        }
    }

    /// Select the retention mode (exact reports vs bounded-memory
    /// sketches).
    pub fn with_retain(mut self, retain: RetainMode) -> Self {
        self.retain = retain;
        self
    }

    /// Override the scheduler block length.
    ///
    /// # Panics
    /// Panics on `block_len == 0` — an empty block can never make
    /// progress.
    pub fn with_block_len(mut self, block_len: usize) -> Self {
        assert!(block_len >= 1, "block_len must be at least 1");
        self.block_len = block_len;
        self
    }

    /// Stream a battery-life projection per node (the sketch-mode
    /// counterpart of [`CampaignReport::battery_life_years_ecdf`]).
    pub fn with_projection(mut self, projection: LifeProjection) -> Self {
        self.projection = Some(projection);
        self
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self::sequential(1)
    }
}

/// Periodic-checkpoint configuration for
/// [`Testbed::run_campaign_checkpointed`].
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint file path (written atomically via temp + rename).
    pub path: std::path::PathBuf,
    /// Write a checkpoint every this many newly merged blocks.
    pub every_blocks: usize,
    /// Stop (with a final checkpoint) once this many leading blocks
    /// are merged — the deterministic "kill" half of the kill/resume
    /// equality gate. `None` runs to completion.
    pub stop_after_blocks: Option<usize>,
    /// Stop (with a final checkpoint) at the first block claim that
    /// finds this token cancelled. [`CheckpointConfig::new`] holds a
    /// token nobody else can cancel; set it with [`Self::cancel_on`].
    cancel: CancelToken,
}

impl CheckpointConfig {
    /// Checkpoint to `path` every `every_blocks` merged blocks.
    pub fn new(path: impl Into<std::path::PathBuf>, every_blocks: usize) -> Self {
        CheckpointConfig {
            path: path.into(),
            every_blocks: every_blocks.max(1),
            stop_after_blocks: None,
            cancel: CancelToken::new(),
        }
    }

    /// Stop after `n` merged blocks (simulated kill). A stop point at
    /// or below a resumed checkpoint's frontier stops the run before it
    /// claims any block.
    pub fn stop_after(mut self, n: usize) -> Self {
        self.stop_after_blocks = Some(n);
        self
    }

    /// Stop at the next block claim once `token` is cancelled (the
    /// testbed daemon's graceful-shutdown path). A token that is never
    /// cancelled changes nothing: the run is bit-identical to one
    /// without it.
    pub fn cancel_on(mut self, token: &CancelToken) -> Self {
        self.cancel = token.clone();
        self
    }
}

/// Outcome of a checkpointed campaign run.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // Complete is the common case; boxing it would tax every caller
pub enum CampaignRun {
    /// The campaign merged every block.
    Complete(CampaignReport),
    /// The run stopped at [`CheckpointConfig::stop_after_blocks`]; the
    /// checkpoint file holds the merged prefix for a later resume.
    Interrupted {
        /// Leading blocks merged (and persisted) before stopping.
        merged_blocks: usize,
        /// Total blocks in the campaign.
        total_blocks: usize,
    },
    /// The [`CheckpointConfig::cancel_on`] token was observed at a
    /// block boundary. The merged prefix was persisted before
    /// returning, so the run can resume later exactly like
    /// [`CampaignRun::Interrupted`].
    Cancelled {
        /// Leading blocks merged before the token was observed.
        merged_blocks: usize,
        /// Total blocks in the campaign.
        total_blocks: usize,
    },
}

impl CampaignRun {
    /// The completed report.
    ///
    /// # Panics
    /// Panics if the run was interrupted or cancelled — callers that
    /// set a stop point or a cancel token must match on
    /// [`CampaignRun`] instead.
    pub fn expect_complete(self) -> CampaignReport {
        match self {
            CampaignRun::Complete(rep) => rep,
            CampaignRun::Interrupted {
                merged_blocks,
                total_blocks,
            } => panic!("campaign interrupted at block {merged_blocks}/{total_blocks}"),
            CampaignRun::Cancelled {
                merged_blocks,
                total_blocks,
            } => panic!("campaign cancelled at block {merged_blocks}/{total_blocks}"),
        }
    }
}

/// Outcome of a unicast campaign, keyed by node id (not by iteration
/// position — block layouts must not change what a report means).
///
/// Beyond the Fig. 14 programming-time view, the report carries the
/// campaign's **energy axis**: per-node energy distribution, per-tag
/// component totals (`radio_rx` / `radio_tx` / `mcu` / `flash`), and
/// battery-lifetime projections for duty-cycled fleets. All of it is
/// folded blockwise in block-index order, so the sharded-equals-
/// sequential determinism contract extends to every energy number.
///
/// In [`RetainMode::Exact`] (the default) per-node reports and exact
/// ECDFs are retained and the pre-streaming accessors
/// ([`Self::time_ecdf`], [`Self::energy_ecdf`], [`Self::ledger`])
/// return `Some`/populated values; in [`RetainMode::Sketch`] only the
/// bounded-memory aggregate exists and the distribution accessors
/// ([`Self::time_dist`] etc.) are the interface.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Streaming aggregate over every node.
    agg: NodeAggregate,
    /// `(node id, session report)`, sorted by node id — exact mode
    /// only, empty in sketch mode.
    reports: Vec<(u32, SessionReport)>,
    /// Per-component ledgers of every node, merged ascending by id —
    /// exact mode only, empty in sketch mode (use
    /// [`Self::energy_by_tag`], which works in both modes).
    ledger: EnergyLedger,
}

impl CampaignReport {
    fn from_blocks(mut acc: BlockOut) -> Self {
        acc.reports.sort_by_key(|(id, _)| *id);
        let mut ledger = EnergyLedger::new();
        for (_, r) in &acc.reports {
            ledger.merge(&r.ledger);
        }
        CampaignReport {
            agg: acc.agg,
            reports: acc.reports,
            ledger,
        }
    }

    /// The streaming aggregate behind this report.
    pub fn aggregate(&self) -> &NodeAggregate {
        &self.agg
    }

    /// The retention mode the campaign ran with.
    pub fn retain(&self) -> RetainMode {
        self.agg.retain()
    }

    /// The session report for a node id, if the node was in the
    /// campaign (exact mode; sketch mode retains no per-node reports).
    pub fn get(&self, id: u32) -> Option<&SessionReport> {
        self.reports
            .binary_search_by_key(&id, |(i, _)| *i)
            .ok()
            .map(|k| &self.reports[k].1)
    }

    /// All `(node id, report)` pairs, ascending by node id (empty in
    /// sketch mode).
    pub fn reports(&self) -> &[(u32, SessionReport)] {
        &self.reports
    }

    /// Iterate over `(node id, report)` pairs, ascending by node id.
    pub fn iter(&self) -> impl Iterator<Item = &(u32, SessionReport)> {
        self.reports.iter()
    }

    /// Number of nodes in the campaign.
    pub fn len(&self) -> usize {
        self.agg.len()
    }

    /// `true` if the campaign covered no nodes.
    pub fn is_empty(&self) -> bool {
        self.agg.is_empty()
    }

    /// Number of nodes whose session completed.
    pub fn completed(&self) -> usize {
        self.agg.completed()
    }

    /// Sum of session durations, seconds — the AP's wall-clock time when
    /// sessions run back to back over the shared channel (simulation
    /// shards don't shorten air time; there is still one AP radio).
    pub fn total_air_time_s(&self) -> f64 {
        self.agg.total_duration_s()
    }

    /// Programming-time distribution (minutes, completed sessions
    /// only) — works in both retention modes.
    pub fn time_dist(&self) -> &NodeMetric {
        self.agg.time_dist()
    }

    /// Per-node session energy distribution, mJ — **all** nodes,
    /// completed or not (an aborted session still burned what it
    /// burned). Works in both retention modes.
    pub fn energy_dist(&self) -> &NodeMetric {
        self.agg.energy_dist()
    }

    /// Per-node bytes-over-air distribution — both retention modes.
    pub fn bytes_dist(&self) -> &NodeMetric {
        self.agg.bytes_dist()
    }

    /// Projected battery-life distribution, years — present iff the
    /// campaign was configured with a [`LifeProjection`].
    pub fn life_dist(&self) -> Option<&NodeMetric> {
        self.agg.life_dist()
    }

    /// Programming-time ECDF (minutes, completed sessions only).
    /// `None` in sketch mode — use [`Self::time_dist`] there.
    pub fn time_ecdf(&self) -> Option<&Ecdf> {
        self.agg.time_dist().as_ecdf()
    }

    /// Per-node session energy ECDF, mJ. `None` in sketch mode — use
    /// [`Self::energy_dist`] there.
    pub fn energy_ecdf(&self) -> Option<&Ecdf> {
        self.agg.energy_dist().as_ecdf()
    }

    /// Total node-side energy across the campaign, mJ (folded
    /// blockwise in block-index order).
    pub fn total_energy_mj(&self) -> f64 {
        self.agg.total_energy_mj()
    }

    /// Total bytes over the air across the campaign.
    pub fn total_bytes(&self) -> u64 {
        self.agg.total_bytes()
    }

    /// The merged per-component ledger of every node, ascending by id
    /// (tags `radio_rx`, `radio_tx`, `mcu`, `flash`). Exact mode only:
    /// a million-node ledger would hold millions of records, so sketch
    /// mode leaves it empty — [`Self::energy_by_tag`] carries the
    /// per-tag totals in both modes.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Campaign energy per component, mJ — streamed per-tag totals,
    /// available in both retention modes.
    pub fn energy_by_tag(&self) -> BTreeMap<String, f64> {
        self.agg.energy_by_tag()
    }

    /// Bytes of state this report holds — the quantity sketch mode
    /// keeps independent of node count.
    pub fn memory_bytes(&self) -> usize {
        let reports: usize = self
            .reports
            .iter()
            .map(|(_, r)| {
                std::mem::size_of::<(u32, SessionReport)>()
                    + std::mem::size_of_val(r.ledger.records())
            })
            .sum();
        let ledger = std::mem::size_of_val(self.ledger.records());
        self.agg.memory_bytes() + reports + ledger
    }

    /// Battery-lifetime projection: each node repeats its session every
    /// `period_s` seconds and spends the rest at the `sleep_mw` floor
    /// (pass [`tinysdr_power::state::deep_sleep_mw`] for the paper's
    /// 30 µW). Returns the ECDF of per-node lifetimes in **years**.
    ///
    /// Exact mode only (it replays the retained reports); in sketch
    /// mode configure [`CampaignConfig::with_projection`] up front and
    /// read [`Self::life_dist`]. Both paths share
    /// [`tinysdr_power::duty::projected_life_years`], so their math
    /// cannot drift apart.
    ///
    /// # Panics
    /// Panics on a non-positive/non-finite `period_s` or a negative/
    /// non-finite `sleep_mw` — garbage inputs must not be silently
    /// projected as always-on.
    pub fn battery_life_years_ecdf(&self, battery: &Battery, period_s: f64, sleep_mw: f64) -> Ecdf {
        let mut out = Ecdf::new();
        for (_, r) in &self.reports {
            if let Some(years) =
                projected_life_years(r.node_energy_mj, r.duration_s, period_s, sleep_mw, battery)
            {
                out.push(years);
            }
        }
        out
    }
}

/// Five-number (plus mean) summary of one campaign observable, in
/// whichever retention mode the campaign ran. The JSON form of a
/// [`NodeMetric`]: everything the control plane reports per
/// distribution without shipping the full curve (that is what
/// [`CampaignReport::ecdf_tables`] is for). `None` fields (an empty
/// distribution) serialize as `null`.
#[derive(Debug, Clone, PartialEq)]
pub struct DistSummary {
    /// Observations folded in.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: Option<f64>,
    /// Smallest observation.
    pub min: Option<f64>,
    /// Largest observation.
    pub max: Option<f64>,
    /// Median.
    pub p50: Option<f64>,
    /// 90th percentile.
    pub p90: Option<f64>,
    /// 99th percentile.
    pub p99: Option<f64>,
}

impl DistSummary {
    /// Summarize a metric (exact or sketch mode).
    pub fn of(m: &NodeMetric) -> Self {
        DistSummary {
            count: m.len() as u64,
            mean: m.mean(),
            min: m.min(),
            max: m.max(),
            p50: m.quantile(0.50),
            p90: m.quantile(0.90),
            p99: m.quantile(0.99),
        }
    }

    /// As a JSON object.
    pub fn to_json(&self) -> Value {
        let opt = |x: Option<f64>| x.map(Value::num).unwrap_or(Value::Null);
        Value::Obj(vec![
            ("count".into(), Value::num(self.count as f64)),
            ("mean".into(), opt(self.mean)),
            ("min".into(), opt(self.min)),
            ("max".into(), opt(self.max)),
            ("p50".into(), opt(self.p50)),
            ("p90".into(), opt(self.p90)),
            ("p99".into(), opt(self.p99)),
        ])
    }

    /// Inverse of [`Self::to_json`].
    pub fn from_json(v: &Value) -> Option<DistSummary> {
        let opt = |key: &str| -> Option<Option<f64>> {
            match v.get(key)? {
                Value::Null => Some(None),
                other => Some(Some(other.as_f64()?)),
            }
        };
        Some(DistSummary {
            count: v.get("count")?.as_u64()?,
            mean: opt("mean")?,
            min: opt("min")?,
            max: opt("max")?,
            p50: opt("p50")?,
            p90: opt("p90")?,
            p99: opt("p99")?,
        })
    }
}

/// The serializable face of a [`CampaignReport`]: totals plus
/// per-observable [`DistSummary`]s, identical whichever retention mode
/// produced them. This is the document the testbed daemon writes as
/// `report.json` and `repro --json` prints — both build it through
/// [`CampaignReport::summary`], which is what makes the two outputs
/// byte-comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Nodes the campaign programmed.
    pub nodes: u64,
    /// Sessions that completed the update.
    pub completed: u64,
    /// Sum of all sessions' air time, seconds.
    pub total_air_time_s: f64,
    /// Sum of all node energies, millijoules.
    pub total_energy_mj: f64,
    /// Total bytes over the air.
    pub total_bytes: u64,
    /// Whether per-node reports were retained exactly.
    pub retain_exact: bool,
    /// Per-component energy totals, ascending by tag.
    pub energy_by_tag: Vec<(String, f64)>,
    /// Programming-time distribution, minutes.
    pub time_min: DistSummary,
    /// Per-node energy distribution, millijoules.
    pub energy_mj: DistSummary,
    /// Per-node bytes-over-air distribution.
    pub bytes: DistSummary,
    /// Battery-life projection distribution, years (campaigns with a
    /// [`LifeProjection`] only).
    pub life_years: Option<DistSummary>,
}

impl CampaignSummary {
    /// As a JSON object (`kind: "campaign"`).
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("kind".into(), Value::str("campaign")),
            ("schema".into(), Value::num(1.0)),
            ("nodes".into(), Value::num(self.nodes as f64)),
            ("completed".into(), Value::num(self.completed as f64)),
            ("total_air_time_s".into(), Value::num(self.total_air_time_s)),
            ("total_energy_mj".into(), Value::num(self.total_energy_mj)),
            ("total_bytes".into(), Value::num(self.total_bytes as f64)),
            ("retain_exact".into(), Value::Bool(self.retain_exact)),
            (
                "energy_by_tag".into(),
                Value::Obj(
                    self.energy_by_tag
                        .iter()
                        .map(|(tag, mj)| (tag.clone(), Value::num(*mj)))
                        .collect(),
                ),
            ),
            ("time_min".into(), self.time_min.to_json()),
            ("energy_mj".into(), self.energy_mj.to_json()),
            ("bytes".into(), self.bytes.to_json()),
        ];
        fields.push((
            "life_years".into(),
            match &self.life_years {
                Some(d) => d.to_json(),
                None => Value::Null,
            },
        ));
        Value::Obj(fields)
    }

    /// Inverse of [`Self::to_json`].
    pub fn from_json(v: &Value) -> Option<CampaignSummary> {
        if v.get("kind")?.as_str()? != "campaign" {
            return None;
        }
        let mut energy_by_tag = Vec::new();
        for (tag, mj) in v.get("energy_by_tag")?.as_obj()? {
            energy_by_tag.push((tag.clone(), mj.as_f64()?));
        }
        Some(CampaignSummary {
            nodes: v.get("nodes")?.as_u64()?,
            completed: v.get("completed")?.as_u64()?,
            total_air_time_s: v.get("total_air_time_s")?.as_f64()?,
            total_energy_mj: v.get("total_energy_mj")?.as_f64()?,
            total_bytes: v.get("total_bytes")?.as_u64()?,
            retain_exact: v.get("retain_exact")?.as_bool()?,
            energy_by_tag,
            time_min: DistSummary::from_json(v.get("time_min")?)?,
            energy_mj: DistSummary::from_json(v.get("energy_mj")?)?,
            bytes: DistSummary::from_json(v.get("bytes")?)?,
            life_years: match v.get("life_years")? {
                Value::Null => None,
                d => Some(DistSummary::from_json(d)?),
            },
        })
    }
}

impl CampaignReport {
    /// The serializable summary of this report — a pure function of
    /// the report, so two bit-identical reports summarize to
    /// byte-identical JSON.
    pub fn summary(&self) -> CampaignSummary {
        CampaignSummary {
            nodes: self.len() as u64,
            completed: self.completed() as u64,
            total_air_time_s: self.total_air_time_s(),
            total_energy_mj: self.total_energy_mj(),
            total_bytes: self.total_bytes(),
            retain_exact: self.retain().is_exact(),
            energy_by_tag: self.energy_by_tag().into_iter().collect(),
            time_min: DistSummary::of(self.time_dist()),
            energy_mj: DistSummary::of(self.energy_dist()),
            bytes: DistSummary::of(self.bytes_dist()),
            life_years: self.life_dist().map(DistSummary::of),
        }
    }

    /// Shorthand for `summary().to_json()`.
    pub fn to_json(&self) -> Value {
        self.summary().to_json()
    }

    /// The report's distribution curves as artifact tables, each
    /// thinned to at most `max_points` steps: programming time,
    /// energy, bytes, and (when projected) battery life.
    pub fn ecdf_tables(&self, max_points: usize) -> Vec<EcdfTable> {
        let mut tables = vec![
            EcdfTable::from_curve("time_min", &self.time_dist().curve(), max_points),
            EcdfTable::from_curve("energy_mj", &self.energy_dist().curve(), max_points),
            EcdfTable::from_curve("bytes", &self.bytes_dist().curve(), max_points),
        ];
        if let Some(life) = self.life_dist() {
            tables.push(EcdfTable::from_curve(
                "life_years",
                &life.curve(),
                max_points,
            ));
        }
        tables
    }
}

/// Knobs for the broadcast + targeted-repair strategy.
#[derive(Debug, Clone, Copy)]
pub struct BroadcastCampaignConfig {
    /// NACK-repair rounds the broadcast phase may use before falling
    /// back to targeted unicast.
    pub max_rounds: u32,
    /// Engine configuration (seed, shards, retry budget) for the
    /// targeted unicast repair phase; its seed also keys the broadcast
    /// streams.
    pub repair: CampaignConfig,
}

impl BroadcastCampaignConfig {
    /// Default shape: 12 broadcast repair rounds, sequential repair.
    pub fn new(seed: u64) -> Self {
        BroadcastCampaignConfig {
            max_rounds: 12,
            repair: CampaignConfig::sequential(seed),
        }
    }
}

/// Outcome of a broadcast campaign: the shared phase plus the targeted
/// unicast repairs.
#[derive(Debug, Clone)]
pub struct BroadcastCampaignReport {
    /// Node ids in testbed order — the key aligning the positional
    /// broadcast vectors with the id-keyed repair report.
    pub node_ids: Vec<u32>,
    /// The shared broadcast phase (`node_complete`/`node_energy_mj` are
    /// positional, in testbed order).
    pub broadcast: BroadcastReport,
    /// Node ids the broadcast phase left incomplete — the targets of
    /// the repair phase.
    pub straggler_ids: Vec<u32>,
    /// Targeted unicast repair sessions for broadcast stragglers
    /// (empty when the broadcast phase reached everyone).
    pub repaired: CampaignReport,
    /// Broadcast time plus repair sessions back to back, seconds.
    pub total_time_s: f64,
}

impl BroadcastCampaignReport {
    /// `true` once every node holds the full image (via broadcast or a
    /// repair session).
    pub fn all_complete(&self) -> bool {
        self.straggler_ids
            .iter()
            .all(|&id| self.repaired.get(id).map(|r| r.completed).unwrap_or(false))
    }

    /// Per-node campaign energy, mJ: what the node spent listening to
    /// the shared broadcast (plus NACKing) plus, for stragglers, the
    /// targeted repair session on top.
    pub fn node_energy_ecdf(&self) -> Ecdf {
        let mut e = Ecdf::new();
        for (i, &id) in self.node_ids.iter().enumerate() {
            let mut mj = self.broadcast.node_energy_mj[i];
            if let Some(r) = self.repaired.get(id) {
                mj += r.node_energy_mj;
            }
            e.push(mj);
        }
        e
    }

    /// Total node-side energy across broadcast and repair phases, mJ.
    pub fn total_energy_mj(&self) -> f64 {
        self.broadcast.node_energy_mj.iter().sum::<f64>() + self.repaired.total_energy_mj()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinysdr_ota::image::FirmwareImage;

    #[test]
    fn campus_has_20_nodes_with_spread() {
        let tb = Testbed::campus(42);
        assert_eq!(tb.nodes.len(), 20);
        let (min, max) = tb.rssi_spread();
        // near node strong, far node weak, all above BW500 sensitivity
        assert!(max > -80.0, "strongest {max}");
        assert!(min < -95.0, "weakest {min}");
        assert!(min > -125.0, "weakest {min} must still be reachable");
    }

    #[test]
    fn distances_span_campus() {
        let tb = Testbed::campus(42);
        let dmin = tb
            .nodes
            .iter()
            .map(|n| n.distance_m)
            .fold(f64::MAX, f64::min);
        let dmax = tb
            .nodes
            .iter()
            .map(|n| n.distance_m)
            .fold(f64::MIN, f64::max);
        assert!(dmin < 150.0);
        assert!(dmax > 1000.0);
    }

    #[test]
    fn mcu_campaign_mean_matches_fig14() {
        // MCU images (≈24 KB compressed): paper Fig. 14 shows ≈39 s mean
        let tb = Testbed::campus(42);
        let img = FirmwareImage::paper_mcu("mac", 3);
        let upd = BlockedUpdate::build(&img);
        let (ecdf, reports) = tb.programming_time_cdf(&upd, 7);
        // the far tail of the campus may be unreachable at SF8/BW500 —
        // the paper's AP placement guaranteed coverage; we tolerate one
        // node out of range
        let completed = reports.completed();
        assert!(completed >= 19, "only {completed}/20 nodes completed");
        let mean_s = ecdf.mean().expect("completed sessions") * 60.0;
        assert!((mean_s - 45.0).abs() < 15.0, "MCU campaign mean {mean_s} s");
        // CDF spread: far nodes pay for retransmissions
        assert!(ecdf.max().unwrap() > ecdf.min().unwrap());
    }

    #[test]
    fn far_nodes_take_longer() {
        let tb = Testbed::campus(11);
        let img = FirmwareImage::mcu("m", 20_000, 5);
        let upd = BlockedUpdate::build(&img);
        let reports = tb.run_campaign(&upd, &CampaignConfig::sequential(3));
        // correlate RSSI with duration: weakest third vs strongest third
        let mut by_rssi: Vec<_> = tb
            .nodes
            .iter()
            .map(|n| {
                (
                    n.rssi_dbm,
                    reports.get(n.id).expect("node in campaign").duration_s,
                )
            })
            .collect();
        by_rssi.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let weak_mean: f64 = by_rssi[..6].iter().map(|(_, d)| d).sum::<f64>() / 6.0;
        let strong_mean: f64 = by_rssi[14..].iter().map(|(_, d)| d).sum::<f64>() / 6.0;
        assert!(
            weak_mean >= strong_mean,
            "weak {weak_mean} vs strong {strong_mean}"
        );
    }

    #[test]
    fn testbed_is_reproducible() {
        let a = Testbed::campus(9);
        let b = Testbed::campus(9);
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.rssi_dbm, y.rssi_dbm);
        }
        let c = Testbed::campus(10);
        assert!(a.nodes[0].rssi_dbm != c.nodes[0].rssi_dbm);
    }

    #[test]
    fn custom_size_testbeds() {
        let tb = Testbed::with_nodes(5, 1);
        assert_eq!(tb.nodes.len(), 5);
    }

    #[test]
    fn node_seeds_never_collide_with_each_other_or_the_campaign_rng() {
        // regression: `seed ^ (id as u64) << 8` parsed as
        // `seed ^ (id << 8)`, so node 0's session ran on the bare
        // campaign seed and low ids differed in a few bits only
        let campaign_seed = 42u64;
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(campaign_seed));
        for id in 0..2048u32 {
            assert!(
                seen.insert(Testbed::session_seed(campaign_seed, id)),
                "session seed collision at node {id}"
            );
        }
        assert_ne!(Testbed::session_seed(campaign_seed, 0), campaign_seed);
    }

    #[test]
    fn interference_is_per_node_and_order_independent() {
        let a = Testbed::interference_loss(7, 3);
        assert_eq!(a, Testbed::interference_loss(7, 3), "pure in (seed, id)");
        assert!((0.0..0.08).contains(&a));
        assert_ne!(a, Testbed::interference_loss(7, 4));
        assert_ne!(a, Testbed::interference_loss(8, 3));
    }

    #[test]
    fn sharded_campaign_is_bit_identical_to_sequential() {
        // the determinism contract: same seed -> identical reports,
        // regardless of worker count / steal interleaving. block_len 8
        // over 64 nodes gives 8 blocks, so every shard count below
        // genuinely interleaves.
        let tb = Testbed::with_nodes(64, 5);
        let img = FirmwareImage::mcu("fw", 8_000, 2);
        let upd = BlockedUpdate::build(&img);
        let seq = tb.run_campaign(&upd, &CampaignConfig::sequential(11).with_block_len(8));
        assert_eq!(seq.len(), 64);
        for shards in [2usize, 3, 8, 64] {
            let par = tb.run_campaign(&upd, &CampaignConfig::sharded(11, shards).with_block_len(8));
            assert_eq!(seq.reports(), par.reports(), "{shards} shards diverged");
            // the whole report (aggregate included) is bit-identical
            assert_eq!(seq, par, "{shards} shards: aggregate diverged");
            let a = seq.time_ecdf().expect("exact mode");
            let b = par.time_ecdf().expect("exact mode");
            assert_eq!(a.len(), b.len());
            assert_eq!(a.curve(), b.curve());
            // the contract extends to the energy axis: ECDF, merged
            // ledger and per-tag totals are all bit-identical
            assert_eq!(
                seq.energy_ecdf().expect("exact mode").curve(),
                par.energy_ecdf().expect("exact mode").curve(),
                "{shards} shards: energy ECDF diverged"
            );
            assert_eq!(seq.ledger(), par.ledger(), "{shards} shards: ledger");
            assert_eq!(seq.energy_by_tag(), par.energy_by_tag());
            assert_eq!(seq.total_energy_mj(), par.total_energy_mj());
        }
        // shard counts beyond the block count are clamped, not a panic
        let wide = tb.run_campaign(&upd, &CampaignConfig::sharded(11, 1000).with_block_len(8));
        assert_eq!(seq.reports(), wide.reports());
    }

    #[test]
    fn sketch_campaign_matches_exact_mode_contract() {
        // sketch retention obeys the same determinism contract, and
        // its quantiles track the exact run within alpha
        let tb = Testbed::with_nodes(48, 5);
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("sk", 8_000, 2));
        let base = CampaignConfig::sequential(11)
            .with_block_len(8)
            .with_retain(RetainMode::sketch());
        let seq = tb.run_campaign(&upd, &base);
        let par = tb.run_campaign(&upd, &CampaignConfig { shards: 4, ..base });
        assert_eq!(seq, par, "sketch mode must stay bit-identical");
        assert!(seq.reports().is_empty(), "sketch mode retains no reports");
        assert!(seq.time_ecdf().is_none());
        let exact = tb.run_campaign(&upd, &CampaignConfig::sequential(11).with_block_len(8));
        assert_eq!(seq.len(), exact.len());
        assert_eq!(seq.completed(), exact.completed());
        assert_eq!(seq.total_energy_mj(), exact.total_energy_mj());
        for q in [0.1, 0.5, 0.9] {
            let s = seq.energy_dist().quantile(q).unwrap();
            let e = exact.energy_dist().quantile(q).unwrap();
            assert!(
                (s - e).abs() <= 0.011 * e.abs(),
                "q={q}: sketch {s} vs exact {e}"
            );
        }
        assert_eq!(seq.energy_dist().min(), exact.energy_dist().min());
        assert_eq!(seq.energy_dist().max(), exact.energy_dist().max());
        // per-tag totals are streamed, not derived from a ledger
        assert!(seq.ledger().is_empty());
        let (s_tags, e_tags) = (seq.energy_by_tag(), exact.energy_by_tag());
        for (tag, mj) in &e_tags {
            assert!((s_tags[tag] - mj).abs() < 1e-9 * mj.abs().max(1.0), "{tag}");
        }
    }

    #[test]
    fn merger_stops_at_stop_after_when_later_blocks_arrive_first() {
        let block = || BlockOut {
            agg: NodeAggregate::new(RetainMode::Exact, None),
            reports: Vec::new(),
        };
        let path = std::env::temp_dir().join("tinysdr_testbed_merger_stop.ckpt");
        let ckpt = CkptState {
            cfg: CheckpointConfig::new(&path, 8).stop_after(2),
            fingerprint: 0,
            total_blocks: 5,
            last_written: 0,
        };
        let mut m = InOrderMerger::new(0, block(), Some(ckpt));
        // block 0 finishes last, after blocks 1–4 wait in the
        // executor's reorder buffer
        let finished = std::sync::atomic::AtomicUsize::new(0);
        fold_in_order(
            0..5,
            5,
            &CancelToken::new(),
            || (),
            |b, _| {
                use std::sync::atomic::Ordering;
                if b == 0 {
                    while finished.load(Ordering::Acquire) < 4 {
                        std::thread::yield_now();
                    }
                } else {
                    finished.fetch_add(1, Ordering::Release);
                }
                block()
            },
            |_, out| m.offer(out),
        );
        assert!(m.stopped);
        assert_eq!(m.next_block, 2, "merged past the stop point");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_to_uninterrupted() {
        let dir = std::env::temp_dir().join("tinysdr_testbed_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let tb = Testbed::with_nodes(40, 5);
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("ck", 8_000, 2));
        for retain in [RetainMode::Exact, RetainMode::sketch()] {
            let cfg = CampaignConfig::sharded(11, 3)
                .with_block_len(8)
                .with_retain(retain);
            let uninterrupted = tb.run_campaign(&upd, &cfg);
            let path = dir.join(format!("c_{}.ckpt", retain.is_exact()));
            std::fs::remove_file(&path).ok();
            // phase 1: killed after 2 of 5 blocks
            let killed = tb
                .run_campaign_checkpointed(
                    &upd,
                    &cfg,
                    &CheckpointConfig::new(&path, 1).stop_after(2),
                )
                .expect("checkpointed run");
            match killed {
                CampaignRun::Interrupted {
                    merged_blocks,
                    total_blocks,
                } => {
                    assert!(merged_blocks >= 2, "stopped at {merged_blocks}");
                    assert_eq!(total_blocks, 5);
                }
                other => panic!("must stop after 2 blocks, got {other:?}"),
            }
            // phase 2: resume to completion
            let resumed = tb
                .run_campaign_checkpointed(&upd, &cfg, &CheckpointConfig::new(&path, 2))
                .expect("resume")
                .expect_complete();
            assert_eq!(
                resumed, uninterrupted,
                "{retain:?}: resume diverged from uninterrupted run"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn checkpoint_refuses_a_different_campaign() {
        let dir = std::env::temp_dir().join("tinysdr_testbed_ckpt_mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.ckpt");
        std::fs::remove_file(&path).ok();
        let tb = Testbed::with_nodes(16, 5);
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("fp", 8_000, 2));
        let cfg = CampaignConfig::sequential(11).with_block_len(4);
        let run = tb
            .run_campaign_checkpointed(&upd, &cfg, &CheckpointConfig::new(&path, 1).stop_after(2))
            .expect("first run");
        assert!(matches!(run, CampaignRun::Interrupted { .. }));
        // same path, different seed → refuse
        let other = CampaignConfig::sequential(12).with_block_len(4);
        let err = tb
            .run_campaign_checkpointed(&upd, &other, &CheckpointConfig::new(&path, 1))
            .expect_err("mismatched checkpoint must be refused");
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn campaign_reports_are_keyed_by_node_id() {
        let tb = Testbed::with_nodes(9, 3);
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("k", 6_000, 1));
        let rep = tb.run_campaign(&upd, &CampaignConfig::sharded(5, 4).with_block_len(2));
        for n in &tb.nodes {
            assert!(rep.get(n.id).is_some(), "node {} missing", n.id);
        }
        assert!(rep.get(9).is_none());
        let ids: Vec<u32> = rep.iter().map(|(id, _)| *id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "reports must come back ordered by node id");
    }

    #[test]
    fn empty_campaign_cdf_is_explicit() {
        // regression: with zero completed sessions the ECDF accessors
        // used to panic (min/max/quantile) or lie (mean() == 0.0)
        let mut tb = Testbed::with_nodes(3, 1);
        for n in tb.nodes.iter_mut() {
            n.rssi_dbm = -140.0; // below any fading margin: nothing completes
        }
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("dead", 5_000, 1));
        let (ecdf, reports) = tb.programming_time_cdf(&upd, 2);
        assert_eq!(reports.completed(), 0);
        assert!(ecdf.is_empty());
        assert_eq!(ecdf.mean(), None);
        assert_eq!(ecdf.min(), None);
        assert_eq!(ecdf.max(), None);
        assert_eq!(ecdf.quantile(0.5), None);
    }

    #[test]
    fn campaign_energy_axis_is_consistent() {
        let tb = Testbed::campus(42);
        let upd = BlockedUpdate::build(&FirmwareImage::paper_mcu("mac", 3));
        let rep = tb.run_campaign(&upd, &CampaignConfig::sequential(7));
        // the ECDF covers every node, the ledger totals the same energy
        let e = rep.energy_ecdf().expect("exact mode");
        assert_eq!(e.len(), rep.len());
        assert!(
            (rep.ledger().total_mj() - rep.total_energy_mj()).abs() < 1e-6 * rep.total_energy_mj(),
            "ledger {} vs sum {}",
            rep.ledger().total_mj(),
            rep.total_energy_mj()
        );
        // per-tag breakdown: the radio dominates an OTA session
        let tags = rep.energy_by_tag();
        assert!(tags["radio_rx"] > tags["mcu"]);
        assert!(tags["radio_rx"] > tags["radio_tx"]);
        assert!(tags.contains_key("flash"));
        // far nodes retransmit more, so energy spreads like time does
        assert!(e.max().unwrap() > e.min().unwrap());
        // paper anchor: an MCU update costs ~1.9 kJ·10⁻³ per node on a
        // strong link; the campus median sits in the same decade
        let med = e.quantile(0.5).unwrap();
        assert!(med > 1000.0 && med < 8000.0, "median {med} mJ");
    }

    #[test]
    fn battery_projection_scales_with_update_period() {
        use tinysdr_power::battery::Battery;
        let tb = Testbed::with_nodes(8, 5);
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("fw", 8_000, 2));
        let rep = tb.run_campaign(&upd, &CampaignConfig::sequential(3));
        let b = Battery::lipo_1000mah();
        let sleep = tinysdr_power::state::deep_sleep_mw();
        let d = rep.battery_life_years_ecdf(&b, 86_400.0, sleep);
        let w = rep.battery_life_years_ecdf(&b, 7.0 * 86_400.0, sleep);
        assert_eq!(d.len(), rep.len());
        // updating 7x less often must extend every quantile of life
        assert!(w.quantile(0.5).unwrap() > d.quantile(0.5).unwrap());
        // and nothing can outlive the sleep-floor bound (~14 years)
        let bound = b.lifetime_years(sleep).unwrap();
        assert!(w.max().unwrap() <= bound);
        // a node updated continuously lives measured-in-days
        let frantic = rep.battery_life_years_ecdf(&b, 1.0, sleep);
        assert!(frantic.max().unwrap() < 0.1);
    }

    #[test]
    fn streamed_life_projection_matches_exact_replay() {
        // the sketch-mode path (projection configured up front) and
        // the exact-mode replay produce the same values in exact mode
        let tb = Testbed::with_nodes(8, 5);
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("fw", 8_000, 2));
        let b = Battery::lipo_1000mah();
        let sleep = tinysdr_power::state::deep_sleep_mw();
        let proj = LifeProjection {
            period_s: 86_400.0,
            sleep_mw: sleep,
            battery: b,
        };
        let rep = tb.run_campaign(&upd, &CampaignConfig::sequential(3).with_projection(proj));
        let streamed = rep.life_dist().expect("projection configured");
        let replayed = rep.battery_life_years_ecdf(&b, 86_400.0, sleep);
        assert_eq!(
            streamed.as_ecdf().expect("exact mode"),
            &replayed,
            "streamed and replayed life projections must agree"
        );
    }

    #[test]
    fn broadcast_report_carries_the_energy_axis() {
        let tb = Testbed::campus(42);
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("bc", 10_000, 4));
        let cfg = BroadcastCampaignConfig {
            max_rounds: 6,
            repair: CampaignConfig::sequential(9),
        };
        let rep = tb.broadcast_campaign(&upd, &cfg);
        let e = rep.node_energy_ecdf();
        assert_eq!(e.len(), tb.nodes.len());
        assert!(
            (e.mean().unwrap() * tb.nodes.len() as f64 - rep.total_energy_mj()).abs()
                < 1e-6 * rep.total_energy_mj()
        );
        // stragglers paid broadcast + repair: they sit at the top
        if let Some(&id) = rep.straggler_ids.first() {
            let pos = rep.node_ids.iter().position(|&n| n == id).unwrap();
            let straggler_mj =
                rep.broadcast.node_energy_mj[pos] + rep.repaired.get(id).unwrap().node_energy_mj;
            assert!(straggler_mj > e.quantile(0.5).unwrap());
        }
    }

    #[test]
    fn targeted_repair_completes_what_broadcast_misses() {
        // strong links but location-dependent interference (several
        // percent per-packet loss), and a broadcast phase with zero
        // repair rounds: whoever misses a packet in the single pass
        // must be finished by a targeted unicast session
        let mut tb = Testbed::with_nodes(6, 3);
        for n in tb.nodes.iter_mut() {
            n.rssi_dbm = -90.0;
        }
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("strag", 8_000, 2));
        let cfg = BroadcastCampaignConfig {
            max_rounds: 0,
            repair: CampaignConfig::sequential(4),
        };
        let rep = tb.broadcast_campaign(&upd, &cfg);
        assert!(!rep.repaired.is_empty(), "the lossy node must need repair");
        assert!(
            rep.all_complete(),
            "repair phase must finish the stragglers"
        );
        // a repair session is the same session the unicast campaign
        // would have run: same seed stream, same link
        let uni = tb.run_campaign(&upd, &CampaignConfig::sequential(4));
        for (id, r) in rep.repaired.iter() {
            assert_eq!(uni.get(*id), Some(r));
        }
    }

    #[test]
    fn broadcast_campaign_handles_reordered_node_lists() {
        // node ids and vector positions diverge after a reorder; the
        // repair bookkeeping must follow ids, not positions
        let mut tb = Testbed::with_nodes(6, 3);
        for n in tb.nodes.iter_mut() {
            n.rssi_dbm = -90.0;
        }
        tb.nodes.reverse();
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("strag", 8_000, 2));
        let cfg = BroadcastCampaignConfig {
            max_rounds: 0,
            repair: CampaignConfig::sequential(4),
        };
        let rep = tb.broadcast_campaign(&upd, &cfg);
        assert!(
            !rep.straggler_ids.is_empty(),
            "single pass must leave stragglers"
        );
        for &id in &rep.straggler_ids {
            assert!(rep.repaired.get(id).is_some(), "repair keyed by id {id}");
        }
        assert!(rep.all_complete());
    }

    /// A fresh checkpoint path under the temp dir.
    fn ckpt_path(dir: &str, file: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(file);
        std::fs::remove_file(&path).ok();
        path
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let tb = Testbed::with_nodes(96, 5);
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("cx", 6_000, 1));
        let cfg = CampaignConfig::sharded(5, 3).with_block_len(8);
        let plain = tb.run_campaign(&upd, &cfg);
        let path = ckpt_path("tinysdr_core_cancel", "live_token.ckpt");
        let token = CancelToken::new();
        let run = tb
            .run_campaign_checkpointed(
                &upd,
                &cfg,
                &CheckpointConfig::new(&path, 4).cancel_on(&token),
            )
            .expect("checkpointed run");
        match run {
            CampaignRun::Complete(rep) => assert_eq!(rep, plain, "live token must be a no-op"),
            other => panic!("uncancelled run did not complete: {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_block() {
        let tb = Testbed::with_nodes(64, 6);
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("cc", 6_000, 1));
        let path = ckpt_path("tinysdr_core_cancel", "pre_cancelled.ckpt");
        let token = CancelToken::new();
        token.cancel();
        let run = tb
            .run_campaign_checkpointed(
                &upd,
                &CampaignConfig::sequential(6).with_block_len(8),
                &CheckpointConfig::new(&path, 1).cancel_on(&token),
            )
            .expect("checkpointed run");
        match run {
            CampaignRun::Cancelled {
                merged_blocks,
                total_blocks,
            } => {
                assert_eq!(merged_blocks, 0);
                assert_eq!(total_blocks, 8);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert!(!path.exists(), "nothing merged, so nothing to persist");
    }

    #[test]
    fn cancel_checkpoint_resume_is_bit_identical() {
        // A sequential run with a poll-fuse token dies at a
        // deterministic block boundary; the cancellation path must
        // have checkpointed the frontier, and resuming must equal the
        // uninterrupted run bit for bit — the daemon's
        // graceful-shutdown contract.
        let tb = Testbed::with_nodes(128, 7);
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("cr", 6_000, 1));
        let cfg = CampaignConfig::sequential(7).with_block_len(8);
        let uninterrupted = tb.run_campaign(&upd, &cfg);

        let path = ckpt_path("tinysdr_core_cancel", "cancel_resume.ckpt");
        // the worker polls once per block claim; trip on the 6th poll
        let token = CancelToken::cancelled_after(6);
        let run = tb
            .run_campaign_checkpointed(
                &upd,
                &cfg,
                &CheckpointConfig::new(&path, 1000).cancel_on(&token),
            )
            .expect("cancelled run still writes its checkpoint");
        match run {
            CampaignRun::Cancelled { merged_blocks, .. } => {
                assert_eq!(merged_blocks, 5, "fuse trips on the 6th block claim")
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert!(path.exists(), "cancellation must persist the frontier");

        let resumed = tb
            .run_campaign_checkpointed(&upd, &cfg, &CheckpointConfig::new(&path, 1000))
            .expect("resume")
            .expect_complete();
        assert_eq!(resumed, uninterrupted, "cancel + resume diverged");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stop_point_at_or_below_the_frontier_claims_no_block() {
        // A run whose stop point is already reached must return before
        // it claims a block, not compute and park every remaining one.
        // The poll-fuse token counts claims: a worker polls it before
        // each one, so a run that claims a block trips a fuse of 2 on
        // its next poll, and a run that claims none leaves it unburnt.
        let tb = Testbed::with_nodes(64, 8);
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("sp", 6_000, 1));
        let cfg = CampaignConfig::sequential(8).with_block_len(8);
        let uninterrupted = tb.run_campaign(&upd, &cfg);
        let path = ckpt_path("tinysdr_core_stop_point", "frontier.ckpt");

        let fuse = CancelToken::cancelled_after(2);
        let run = tb
            .run_campaign_checkpointed(
                &upd,
                &cfg,
                &CheckpointConfig::new(&path, 1)
                    .stop_after(0)
                    .cancel_on(&fuse),
            )
            .expect("stop_after(0) run");
        assert!(
            matches!(
                run,
                CampaignRun::Interrupted {
                    merged_blocks: 0,
                    total_blocks: 8
                }
            ),
            "{run:?}"
        );
        assert!(!path.exists(), "nothing merged, so nothing to persist");
        assert!(!fuse.is_cancelled(), "stop_after(0) claimed a block");

        // kill after 3 blocks, then resume with stop points at and
        // below that frontier: both stop at once and leave the
        // checkpoint as it was
        let killed = tb
            .run_campaign_checkpointed(&upd, &cfg, &CheckpointConfig::new(&path, 1).stop_after(3))
            .expect("killed run");
        assert!(matches!(
            killed,
            CampaignRun::Interrupted {
                merged_blocks: 3,
                ..
            }
        ));
        let saved = std::fs::read(&path).expect("checkpoint after the kill");
        for stop in [3, 2] {
            let fuse = CancelToken::cancelled_after(2);
            let run = tb
                .run_campaign_checkpointed(
                    &upd,
                    &cfg,
                    &CheckpointConfig::new(&path, 1)
                        .stop_after(stop)
                        .cancel_on(&fuse),
                )
                .expect("resumed run");
            assert!(
                matches!(
                    run,
                    CampaignRun::Interrupted {
                        merged_blocks: 3,
                        total_blocks: 8
                    }
                ),
                "stop_after({stop}): {run:?}"
            );
            assert!(!fuse.is_cancelled(), "stop_after({stop}) claimed a block");
            assert_eq!(std::fs::read(&path).expect("checkpoint"), saved);
        }

        let resumed = tb
            .run_campaign_checkpointed(&upd, &cfg, &CheckpointConfig::new(&path, 1))
            .expect("resume")
            .expect_complete();
        assert_eq!(resumed, uninterrupted, "stopped legs changed the result");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summary_json_round_trips_and_is_deterministic() {
        let tb = Testbed::with_nodes(48, 9);
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("js", 6_000, 1));
        let rep = tb.run_campaign(&upd, &CampaignConfig::sequential(9));
        let summary = rep.summary();
        let doc = summary.to_json().write_pretty();
        assert_eq!(
            doc,
            rep.summary().to_json().write_pretty(),
            "summary JSON must be byte-deterministic"
        );
        let back = CampaignSummary::from_json(&Value::parse(&doc).expect("parses"))
            .expect("well-formed summary");
        assert_eq!(back, summary, "JSON round trip lost information");
        assert_eq!(back.nodes, 48);
        assert!(back.total_energy_mj > 0.0);
    }

    #[test]
    fn ecdf_tables_cover_every_observable() {
        let tb = Testbed::with_nodes(32, 10);
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("et", 6_000, 1));
        let proj = LifeProjection {
            period_s: 86_400.0,
            sleep_mw: 0.03,
            battery: Battery::lipo_1000mah(),
        };
        let rep = tb.run_campaign(&upd, &CampaignConfig::sequential(10).with_projection(proj));
        let tables = rep.ecdf_tables(16);
        let labels: Vec<&str> = tables.iter().map(|t| t.label.as_str()).collect();
        assert_eq!(labels, ["time_min", "energy_mj", "bytes", "life_years"]);
        for t in &tables {
            assert!(t.points.len() >= 2 && t.points.len() <= 16, "{}", t.label);
            let parsed = tinysdr_ota::json::EcdfTable::from_json(
                &Value::parse(&t.to_json().write()).expect("parses"),
            )
            .expect("table round trip");
            assert_eq!(&parsed, t);
        }
    }

    #[test]
    fn broadcast_campaign_repairs_stragglers() {
        let tb = Testbed::campus(42);
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("bc", 10_000, 4));
        let cfg = BroadcastCampaignConfig {
            max_rounds: 6,
            repair: CampaignConfig::sequential(9),
        };
        let rep = tb.broadcast_campaign(&upd, &cfg);
        assert!(
            rep.all_complete(),
            "broadcast + targeted repair must reach the campus"
        );
        // the shared phase plus repairs still crushes 20 unicast sessions
        let uni = tb.run_campaign(&upd, &CampaignConfig::sequential(9));
        assert!(
            rep.total_time_s < uni.total_air_time_s() / 3.0,
            "broadcast {:.0}s vs unicast {:.0}s",
            rep.total_time_s,
            uni.total_air_time_s()
        );
    }
}
