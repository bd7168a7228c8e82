//! The packet-data-plane experiments behind `repro link`.
//!
//! Three things happen here, in order:
//!
//! 1. **Contract gates** — a small adversarial ARQ battery (worst-case
//!    burst/schedule loss, duplication + reordering storms, total
//!    blackout) runs through the real event-driven network simulation
//!    and must end in exactly-once delivery or a typed timeout; and the
//!    goodput curve plus the multi-hop table must be **bit-identical**
//!    sharded vs sequential — per-hop energy ledgers included. The
//!    gates `assert!`, so a violation aborts the binary (the CI
//!    `link-smoke` step relies on that).
//! 2. **Goodput vs RSSI** — the BLE GFSK modem's per-frame loss is
//!    measured out of the real impairment chain
//!    ([`tinysdr_link::phylink::frame_loss_prob`], separately for data
//!    and ACK frames — ACKs are shorter and die later), then a fixed
//!    payload is transferred through the network simulation at each
//!    RSSI with stop-and-wait and window-8 ARQ. The result is the
//!    paper-style "how close to sensitivity can a packet service run"
//!    curve, with loss inherited from the conformance physics instead
//!    of an invented model.
//! 3. **Multi-hop OTA dissemination** — the same firmware wire stream
//!    the PR 5 session engine prices travels over 1, 2 and 3 real ARQ
//!    hops ([`tinysdr_link::transfer::ota_transfer`]); each row reports
//!    delivery, CRC-verified image bytes, duration and the per-node
//!    energy split. The point is appended to `BENCH_link.json`
//!    through [`crate::trajectory::record`].

use std::ops::ControlFlow;

use tinysdr_ble::modem::BleBerPhy;
use tinysdr_dsp::cancel::CancelToken;
use tinysdr_dsp::executor::{fold_in_order, map_in_order};
use tinysdr_link::arq::ArqConfig;
use tinysdr_link::frame::Frame;
use tinysdr_link::phylink::{frame_loss_prob, test_payload};
use tinysdr_link::pipe::{transfer, tuned_config, Hop, TransferReport};
use tinysdr_link::sim::{HopProfile, Pattern};
use tinysdr_link::testphy::TestPhy;
use tinysdr_link::transfer::{ota_transfer, OtaTransferReport};
use tinysdr_ota::blocks::BlockedUpdate;
use tinysdr_ota::image::FirmwareImage;
use tinysdr_ota::json::Value;
use tinysdr_ota::seed::splitmix64;
use tinysdr_rf::impairments::ImpairmentChain;
use tinysdr_rf::phy::PhyModem;

use crate::bench_shards;
use crate::trajectory::record;

/// The modem carrying every `repro link` experiment: BLE GFSK at the
/// radio's native 4 MS/s — the registry PHY with the shortest airtimes,
/// so the packet layer's turnaround economics dominate, as they do on
/// the real platform.
pub fn link_phy() -> BleBerPhy {
    BleBerPhy::new(4)
}

/// One point of the goodput-vs-RSSI curve. `PartialEq` because the
/// sharded==sequential gate compares whole curves.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodputPoint {
    /// Hop RSSI, dBm.
    pub rssi_dbm: f64,
    /// Measured data-frame loss probability at this RSSI.
    pub data_loss: f64,
    /// Measured ACK-frame loss probability at this RSSI.
    pub ack_loss: f64,
    /// Stop-and-wait outcome.
    pub stop_and_wait: TransferReport,
    /// Window-8 sliding ARQ outcome.
    pub window8: TransferReport,
}

/// One row of the multi-hop dissemination table.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHopRow {
    /// Number of ARQ hops (1 = direct, n = n−1 store-and-forward
    /// relays).
    pub hops: usize,
    /// The full OTA-over-link outcome, per-node energy included.
    pub report: OtaTransferReport,
}

/// Experiment sizing: the RSSI grid, PER trial count and payload.
struct Effort {
    rssi_grid: Vec<f64>,
    per_trials: u32,
    payload_len: usize,
    image_len: usize,
}

fn effort(quick: bool) -> Effort {
    if quick {
        Effort {
            rssi_grid: vec![-98.0, -95.0, -92.0, -89.0, -86.0],
            per_trials: 24,
            payload_len: 1500,
            image_len: 6_000,
        }
    } else {
        Effort {
            rssi_grid: (0..8).map(|i| -100.0 + 2.0 * i as f64).collect(),
            per_trials: 150,
            payload_len: 6_000,
            image_len: 20_000,
        }
    }
}

/// A representative data frame (full 60-byte chunk) for PER
/// measurement — the payload is the escape-dense splitmix64 stream, the
/// worst case for the framing layer.
fn per_data_frame(seed: u64) -> Frame {
    Frame::data(0, test_payload(ArqConfig::sliding(8).chunk_len, seed))
}

/// Measure one curve point: PER for data and ACK frames out of the
/// impairment chain, then two ARQ transfers over a hop with exactly
/// that Bernoulli loss in each direction.
fn goodput_point(
    phy: &BleBerPhy,
    rssi_dbm: f64,
    idx: u64,
    seed: u64,
    eff: &Effort,
) -> GoodputPoint {
    let chain = ImpairmentChain::new(phy.noise_figure_db());
    let per_seed = splitmix64(seed ^ (idx << 8));
    let data_loss = frame_loss_prob(
        phy,
        &chain,
        rssi_dbm,
        &per_data_frame(seed),
        eff.per_trials,
        per_seed,
    );
    let ack_loss = frame_loss_prob(
        phy,
        &chain,
        rssi_dbm,
        &Frame::ack(0),
        eff.per_trials,
        per_seed ^ 1,
    );
    let hop = Hop {
        forward: HopProfile {
            loss: Pattern::Bernoulli { prob: data_loss },
            ..HopProfile::clean(rssi_dbm)
        },
        reverse: HopProfile {
            loss: Pattern::Bernoulli { prob: ack_loss },
            ..HopProfile::clean(rssi_dbm)
        },
    };
    let payload = test_payload(eff.payload_len, seed);
    let sim_seed = splitmix64(seed ^ (idx << 8) ^ 0x11);
    let (stop_and_wait, _) = transfer(
        &payload,
        phy,
        std::slice::from_ref(&hop),
        tuned_config(phy, 1),
        sim_seed,
    );
    let (window8, _) = transfer(
        &payload,
        phy,
        std::slice::from_ref(&hop),
        tuned_config(phy, 8),
        sim_seed,
    );
    GoodputPoint {
        rssi_dbm,
        data_loss,
        ack_loss,
        stop_and_wait,
        window8,
    }
}

/// Measure the goodput-vs-RSSI curve on `shards` executor workers
/// (1 = sequential), each holding its own [`link_phy`]. Bit-identical
/// for any shard count: every point's randomness is a pure function of
/// `(seed, point index)`, and the points come back in grid order — the
/// gate asserts exactly this.
///
/// # Panics
/// Propagates a panic from any shard: a dead shard must abort the
/// curve, or the determinism contract would hide missing points.
pub fn goodput_curve(seed: u64, quick: bool, shards: usize) -> Vec<GoodputPoint> {
    let eff = effort(quick);
    let mut curve = Vec::with_capacity(eff.rssi_grid.len());
    fold_in_order(
        0..eff.rssi_grid.len(),
        shards,
        &CancelToken::new(),
        link_phy,
        |i, phy| goodput_point(phy, eff.rssi_grid[i], i as u64, seed, &eff),
        |_, point| {
            curve.push(point);
            ControlFlow::Continue(())
        },
    );
    curve
}

/// The dissemination hop used by every multi-hop row: loss measured out
/// of the impairment chain at −92 dBm (mid-curve — lossy enough that
/// ARQ visibly works, clean enough that three hops converge).
fn multihop_hop(phy: &BleBerPhy, seed: u64, eff: &Effort) -> Hop {
    let chain = ImpairmentChain::new(phy.noise_figure_db());
    let rssi_dbm = -92.0;
    let data_loss = frame_loss_prob(
        phy,
        &chain,
        rssi_dbm,
        &per_data_frame(seed),
        eff.per_trials,
        splitmix64(seed ^ 0xA0),
    );
    let ack_loss = frame_loss_prob(
        phy,
        &chain,
        rssi_dbm,
        &Frame::ack(0),
        eff.per_trials,
        splitmix64(seed ^ 0xA1),
    );
    Hop {
        forward: HopProfile {
            loss: Pattern::Bernoulli { prob: data_loss },
            ..HopProfile::clean(rssi_dbm)
        },
        reverse: HopProfile {
            loss: Pattern::Bernoulli { prob: ack_loss },
            ..HopProfile::clean(rssi_dbm)
        },
    }
}

/// The firmware update every multi-hop row disseminates.
fn multihop_update(eff: &Effort) -> BlockedUpdate {
    BlockedUpdate::build(&FirmwareImage::mcu("link_fw", eff.image_len, 3))
}

/// Disseminate the firmware wire stream over 1, 2 and 3 ARQ hops,
/// one row per hop count, on `shards` executor workers (1 =
/// sequential). Bit-identical for any shard count — every row is a
/// pure function of `(seed, hop count)` — and the rows carry the full
/// per-node energy ledgers, so the gate's equality covers per-hop
/// energy too.
///
/// # Panics
/// Propagates a panic from any shard (abort-loudly contract).
pub fn multihop_rows(seed: u64, quick: bool, shards: usize) -> Vec<MultiHopRow> {
    let eff = effort(quick);
    let phy = link_phy();
    let hop = multihop_hop(&phy, seed, &eff);
    let update = multihop_update(&eff);
    let cfg = tuned_config(&phy, 8);
    map_in_order(&[1, 2, 3], shards, |&hops| {
        let chain: Vec<Hop> = (0..hops).map(|_| hop.clone()).collect();
        let (report, _) = ota_transfer(
            &update,
            &phy,
            &chain,
            cfg.clone(),
            splitmix64(seed ^ (hops as u64)),
        );
        MultiHopRow { hops, report }
    })
}

/// Gate 1: the in-binary adversarial battery. Worst-case deterministic
/// channel schedules through the real simulation must end in
/// exactly-once in-order delivery — or, for the blackout, a typed
/// timeout with nothing delivered. Runs on the cheap test PHY so the
/// battery costs milliseconds.
fn gate_adversarial(seed: u64) {
    let phy = TestPhy::new();
    let payload = test_payload(1200, seed);
    let cfg = tuned_config(&phy, 8);
    let cases: Vec<(&str, HopProfile, HopProfile)> = vec![
        (
            "burst loss on data (3-in-10)",
            HopProfile {
                loss: Pattern::Burst {
                    period: 10,
                    len: 3,
                    offset: 0,
                },
                ..HopProfile::clean(-90.0)
            },
            HopProfile::clean(-90.0),
        ),
        (
            "burst loss on ACKs (3-in-10)",
            HopProfile::clean(-90.0),
            HopProfile {
                loss: Pattern::Burst {
                    period: 10,
                    len: 3,
                    offset: 0,
                },
                ..HopProfile::clean(-90.0)
            },
        ),
        (
            "first 8 data frames erased (whole first window)",
            HopProfile {
                loss: Pattern::Schedule {
                    fire: vec![true; 8],
                },
                ..HopProfile::clean(-90.0)
            },
            HopProfile::clean(-90.0),
        ),
        (
            "dup+reorder storm both directions",
            HopProfile {
                duplicate: Pattern::Bernoulli { prob: 0.3 },
                reorder: Pattern::Bernoulli { prob: 0.3 },
                ..HopProfile::clean(-90.0)
            },
            HopProfile {
                duplicate: Pattern::Bernoulli { prob: 0.3 },
                reorder: Pattern::Bernoulli { prob: 0.3 },
                ..HopProfile::clean(-90.0)
            },
        ),
    ];
    for (label, forward, reverse) in cases {
        let (rep, delivered) = transfer(
            &payload,
            &phy,
            &[Hop { forward, reverse }],
            cfg.clone(),
            splitmix64(seed ^ 0x5A),
        );
        assert!(
            rep.completed,
            "adversarial case '{label}' did not complete: {:?}",
            rep.error
        );
        assert_eq!(
            delivered, payload,
            "adversarial case '{label}' corrupted the stream"
        );
    }
    let mut short = cfg.clone();
    short.max_attempts = 4;
    let (rep, delivered) = transfer(
        &payload,
        &phy,
        &[Hop {
            forward: HopProfile {
                loss: Pattern::Bernoulli { prob: 1.0 },
                ..HopProfile::clean(-120.0)
            },
            reverse: HopProfile::clean(-120.0),
        }],
        short,
        splitmix64(seed ^ 0x5B),
    );
    assert!(
        !rep.completed && rep.error.is_some(),
        "blackout must fail with a typed error"
    );
    assert!(delivered.is_empty(), "blackout must deliver nothing");
    println!("gate: adversarial battery (burst/schedule loss, dup+reorder storm, blackout) — exactly-once or typed timeout");
}

/// Gate 2: sharded == sequential, bit for bit, for both the goodput
/// curve and the multi-hop table (whose rows embed every node's
/// `EnergyLedger` — per-hop energy is inside the equality).
fn gate_determinism(seed: u64, quick: bool) {
    let shards = bench_shards();
    let seq_curve = goodput_curve(seed, quick, 1);
    let par_curve = goodput_curve(seed, quick, shards);
    assert_eq!(
        seq_curve, par_curve,
        "link determinism contract violated: goodput curve sharded != sequential"
    );
    let seq_rows = multihop_rows(seed, quick, 1);
    let par_rows = multihop_rows(seed, quick, shards);
    assert_eq!(
        seq_rows, par_rows,
        "link determinism contract violated: multi-hop table sharded != sequential (energy included)"
    );
    println!(
        "gate: {shards} shards == sequential, bit-identical on {} curve points and {} multi-hop rows (per-hop energy ledgers included)",
        par_curve.len(),
        par_rows.len()
    );
}

/// Build the canonical JSON document for a link run — the exact bytes
/// `repro --json link` prints and a `tinysdr-testbedd` link job stores
/// as `report.json` (one builder, so the two are bit-identical for the
/// same `(seed, quick)`).
pub fn link_json(seed: u64, quick: bool) -> Value {
    let shards = bench_shards();
    let curve = goodput_curve(seed, quick, shards);
    let rows = multihop_rows(seed, quick, shards);
    let phy = link_phy();
    let goodput = curve
        .iter()
        .map(|p| {
            Value::Obj(vec![
                ("rssi_dbm".into(), Value::num(p.rssi_dbm)),
                ("data_loss".into(), Value::num(p.data_loss)),
                ("ack_loss".into(), Value::num(p.ack_loss)),
                (
                    "stop_and_wait".into(),
                    Value::Obj(vec![
                        ("completed".into(), Value::Bool(p.stop_and_wait.completed)),
                        (
                            "goodput_bps".into(),
                            Value::num(p.stop_and_wait.goodput_bps),
                        ),
                        ("duration_s".into(), Value::num(p.stop_and_wait.duration_s)),
                    ]),
                ),
                (
                    "window8".into(),
                    Value::Obj(vec![
                        ("completed".into(), Value::Bool(p.window8.completed)),
                        ("goodput_bps".into(), Value::num(p.window8.goodput_bps)),
                        ("duration_s".into(), Value::num(p.window8.duration_s)),
                    ]),
                ),
            ])
        })
        .collect();
    let multihop = rows
        .iter()
        .map(|r| {
            let nodes = r
                .report
                .link
                .sim
                .nodes
                .iter()
                .map(|n| {
                    let tags = n.energy.by_tag();
                    Value::Obj(vec![
                        ("label".into(), Value::str(n.label.clone())),
                        ("finished".into(), Value::Bool(n.finished)),
                        ("energy_mj".into(), Value::num(n.energy.total_mj())),
                        (
                            "radio_tx_mj".into(),
                            Value::num(tags.get("radio_tx").copied().unwrap_or(0.0)),
                        ),
                        (
                            "radio_rx_mj".into(),
                            Value::num(tags.get("radio_rx").copied().unwrap_or(0.0)),
                        ),
                    ])
                })
                .collect();
            Value::Obj(vec![
                ("hops".into(), Value::num(r.hops as f64)),
                ("completed".into(), Value::Bool(r.report.link.completed)),
                ("image_ok".into(), Value::Bool(r.report.image_ok)),
                ("stream_len".into(), Value::num(r.report.stream_len as f64)),
                ("image_len".into(), Value::num(r.report.image_len as f64)),
                ("duration_s".into(), Value::num(r.report.link.duration_s)),
                ("goodput_bps".into(), Value::num(r.report.link.goodput_bps)),
                ("nodes".into(), Value::Arr(nodes)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("schema".into(), Value::num(1.0)),
        ("experiment".into(), Value::str("link")),
        ("phy".into(), Value::str(phy.label())),
        ("seed".into(), Value::hex_u64(seed)),
        ("quick".into(), Value::Bool(quick)),
        ("goodput".into(), Value::Arr(goodput)),
        ("multihop".into(), Value::Arr(multihop)),
    ])
}

/// The `BENCH_link.json` point of one run: wall time, the curve's
/// best goodput and knee, and the compact curve and multi-hop rows.
fn trajectory_point(
    curve: &[GoodputPoint],
    rows: &[MultiHopRow],
    wall_s: f64,
) -> Vec<(String, Value)> {
    let best = curve
        .iter()
        .filter(|p| p.window8.completed)
        .map(|p| p.window8.goodput_bps)
        .fold(0.0f64, f64::max);
    let knee = curve
        .iter()
        .filter(|p| p.window8.completed)
        .map(|p| p.rssi_dbm)
        .fold(f64::INFINITY, f64::min);
    let goodput = curve
        .iter()
        .map(|p| {
            Value::Obj(vec![
                ("rssi_dbm".into(), Value::num(p.rssi_dbm)),
                ("data_loss".into(), Value::num(p.data_loss)),
                ("ack_loss".into(), Value::num(p.ack_loss)),
                ("sw_bps".into(), Value::num(p.stop_and_wait.goodput_bps)),
                ("w8_bps".into(), Value::num(p.window8.goodput_bps)),
            ])
        })
        .collect();
    let multihop = rows
        .iter()
        .map(|r| {
            let relay_mj: f64 = r
                .report
                .link
                .sim
                .nodes
                .iter()
                .filter(|n| n.label.starts_with("relay"))
                .map(|n| n.energy.total_mj())
                .sum();
            Value::Obj(vec![
                ("hops".into(), Value::num(r.hops as f64)),
                ("image_ok".into(), Value::Bool(r.report.image_ok)),
                ("duration_s".into(), Value::num(r.report.link.duration_s)),
                ("goodput_bps".into(), Value::num(r.report.link.goodput_bps)),
                // `+ 0.0` turns the empty sum's -0.0 into 0
                ("relay_energy_mj".into(), Value::num(relay_mj + 0.0)),
            ])
        })
        .collect();
    vec![
        ("wall_s".into(), Value::num(wall_s)),
        ("best_goodput_bps".into(), Value::num(best)),
        // non-finite (no completing point) serializes as null
        ("lowest_completing_rssi_dbm".into(), Value::num(knee)),
        ("goodput".into(), Value::Arr(goodput)),
        ("multihop".into(), Value::Arr(multihop)),
    ]
}

/// The `repro link` entry point: gates, goodput-vs-RSSI, multi-hop
/// dissemination, `BENCH_link.json`.
#[allow(clippy::disallowed_methods)] // bench harness: wall time is the measurement
pub fn link(seed: u64, quick: bool) {
    println!(
        "== Packet data plane: framing + ARQ + multi-hop over the event-driven network sim ==\n"
    );
    let t0 = std::time::Instant::now(); // lint: allow(ambient-time, bench harness measures wall time)
    gate_adversarial(seed);
    if quick {
        gate_determinism(seed, quick);
    }
    let shards = bench_shards();
    let curve = goodput_curve(seed, quick, shards);
    let rows = multihop_rows(seed, quick, shards);
    let wall_s = t0.elapsed().as_secs_f64();

    let phy = link_phy();
    println!(
        "\n== Goodput vs RSSI ({}, measured PER from the impairment chain) ==",
        phy.label()
    );
    println!(
        "{:>10} {:>10} {:>10} {:>16} {:>16}",
        "RSSI dBm", "data PER", "ack PER", "stop&wait bps", "window-8 bps"
    );
    for p in &curve {
        let fmt = |r: &TransferReport| {
            if r.completed {
                format!("{:>16.0}", r.goodput_bps)
            } else {
                format!("{:>16}", "timeout")
            }
        };
        println!(
            "{:>10.1} {:>10.3} {:>10.3} {} {}",
            p.rssi_dbm,
            p.data_loss,
            p.ack_loss,
            fmt(&p.stop_and_wait),
            fmt(&p.window8),
        );
    }

    println!("\n== Multi-hop OTA dissemination (firmware wire stream over real ARQ hops) ==");
    for r in &rows {
        let e: Vec<String> = r
            .report
            .link
            .sim
            .nodes
            .iter()
            .map(|n| format!("{} {:.1} mJ", n.label, n.energy.total_mj()))
            .collect();
        println!(
            "  {} hop(s): image_ok={} {} bytes in {:.2} s ({:.0} bps) | {}",
            r.hops,
            r.report.image_ok,
            r.report.image_len,
            r.report.link.duration_s,
            r.report.link.goodput_bps,
            e.join(", "),
        );
    }

    let out = "BENCH_link.json";
    match record(out, "link", quick, trajectory_point(&curve, &rows, wall_s)) {
        Ok(()) => println!("\ntrajectory point appended to {out}"),
        Err(e) => println!("\ncould not write {out}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_and_multihop_table_are_shard_invariant() {
        let curve = goodput_curve(3, true, 1);
        let rows = multihop_rows(3, true, 1);
        assert_eq!(curve.len(), effort(true).rssi_grid.len());
        assert_eq!(rows.iter().map(|r| r.hops).collect::<Vec<_>>(), [1, 2, 3]);
        for shards in [2, 3, 7] {
            assert_eq!(goodput_curve(3, true, shards), curve, "{shards} shards");
            assert_eq!(multihop_rows(3, true, shards), rows, "{shards} shards");
        }
    }
}
