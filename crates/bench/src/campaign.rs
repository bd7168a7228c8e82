//! The million-node campaign benchmark behind `repro campaign`.
//!
//! Three things happen here, in order:
//!
//! 1. **Contract gates** — the work-stealing scheduler must be
//!    bit-identical to the sequential run (reports, aggregate, every
//!    energy number) in both retention modes, and a killed + resumed
//!    checkpointed campaign must equal the uninterrupted one. The
//!    gates `assert!`, so a contract violation aborts the binary — the
//!    CI smoke step relies on that.
//! 2. **Scale measurement** — a small reference campaign and the full
//!    campaign (1M nodes in the non-`--quick` run) both execute under
//!    [`RetainMode::Sketch`]; the report memory of the two is compared
//!    to demonstrate (and assert) that report state is independent of
//!    node count.
//! 3. **Trajectory point** — the measurement is appended to
//!    `BENCH_campaign.json` through [`crate::trajectory::record`], so
//!    the campaign-scaling history is tracked across commits.

use tinysdr_core::testbed::{CampaignConfig, CampaignReport, CheckpointConfig, Testbed};
use tinysdr_ota::aggregate::{NodeMetric, RetainMode};
use tinysdr_ota::blocks::BlockedUpdate;
use tinysdr_ota::image::FirmwareImage;
use tinysdr_ota::json::Value;

use crate::bench_shards;
use crate::trajectory::record;

/// The firmware image every campaign node downloads: a mid-size MCU
/// update (the paper's smallest update class, so million-node runs
/// stay tractable on one machine). Public so the testbed daemon runs
/// the *same* workload as `repro campaign` — a prerequisite for its
/// bit-identical-report contract.
pub fn bench_update() -> BlockedUpdate {
    BlockedUpdate::build(&FirmwareImage::mcu("fleet_fw", 8_000, 2))
}

/// The campaign configuration behind [`campaign_json`]: sharded to the
/// machine's parallelism, sketch retention. The scheduler's
/// sharded==sequential contract keeps the resulting report independent
/// of the shard count, so this is deterministic in `seed` alone.
pub fn bench_campaign_config(seed: u64) -> CampaignConfig {
    CampaignConfig::sharded(seed, bench_shards()).with_retain(RetainMode::sketch())
}

/// Gate 1: work-stealing == sequential, bit for bit, in both retention
/// modes — including the aggregate, the merged ledger and every energy
/// number (the whole [`CampaignReport`] is `PartialEq`).
fn gate_work_stealing(seed: u64, nodes: usize) {
    let tb = Testbed::with_nodes(nodes, seed);
    let upd = bench_update();
    let shards = bench_shards();
    for retain in [RetainMode::Exact, RetainMode::sketch()] {
        let base = CampaignConfig::sequential(seed ^ 0xC0)
            .with_block_len(16)
            .with_retain(retain);
        let seq = tb.run_campaign(&upd, &base);
        for s in [shards, 3] {
            let par = tb.run_campaign(&upd, &CampaignConfig { shards: s, ..base });
            assert_eq!(
                seq, par,
                "work-stealing contract violated: {s} shards != sequential ({retain:?})"
            );
        }
    }
    println!(
        "gate: work-stealing == sequential over {nodes} nodes, bit-identical \
         (reports, aggregate, ledger, energy) in Exact and Sketch modes"
    );
}

/// Gate 2: a campaign killed at a checkpoint and resumed is
/// bit-identical to the uninterrupted run.
fn gate_kill_resume(seed: u64, nodes: usize) {
    let tb = Testbed::with_nodes(nodes, seed ^ 0x5E);
    let upd = bench_update();
    let cfg = CampaignConfig::sharded(seed ^ 0x5E, bench_shards())
        .with_block_len(8)
        .with_retain(RetainMode::sketch());
    let uninterrupted = tb.run_campaign(&upd, &cfg);
    let dir = std::env::temp_dir().join("tinysdr_bench_campaign");
    // lint: allow(unjustified-panic, repro harness aborts loudly on an unusable temp dir)
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("kill_resume.ckpt");
    std::fs::remove_file(&path).ok();
    let kill_at = nodes / cfg.block_len / 2;
    let killed = tb
        .run_campaign_checkpointed(
            &upd,
            &cfg,
            &CheckpointConfig::new(&path, 1).stop_after(kill_at),
        )
        // lint: allow(unjustified-panic, repro gate must abort loudly on a checkpoint failure)
        .expect("checkpointed run");
    let resumed = tb
        .run_campaign_checkpointed(&upd, &cfg, &CheckpointConfig::new(&path, 4))
        // lint: allow(unjustified-panic, repro gate must abort loudly on a resume failure)
        .expect("resume")
        .expect_complete();
    assert_eq!(
        resumed, uninterrupted,
        "kill/resume contract violated: resumed run diverged"
    );
    std::fs::remove_file(&path).ok();
    println!(
        "gate: kill at block {kill_at}/{} + resume == uninterrupted, bit-identical \
         ({:?})",
        nodes.div_ceil(cfg.block_len),
        killed
    );
}

/// One measured campaign: run `nodes` under sketch retention with
/// periodic checkpoints, return the report plus wall seconds.
#[allow(clippy::disallowed_methods)] // measuring wall time is the point of a bench harness
fn measured_run(nodes: usize, seed: u64, label: &str) -> (CampaignReport, f64) {
    let tb = Testbed::with_nodes(nodes, seed);
    let upd = bench_update();
    let cfg = CampaignConfig::sharded(seed, bench_shards()).with_retain(RetainMode::sketch());
    let dir = std::env::temp_dir().join("tinysdr_bench_campaign");
    // lint: allow(unjustified-panic, repro harness aborts loudly on an unusable temp dir)
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{label}.ckpt"));
    std::fs::remove_file(&path).ok();
    // checkpoint every ~1% of the run so a kill loses little work
    let every = (nodes / CampaignConfig::default().block_len / 100).max(64);
    let t0 = std::time::Instant::now(); // lint: allow(ambient-time, bench harness measures wall time)
    let rep = tb
        .run_campaign_checkpointed(&upd, &cfg, &CheckpointConfig::new(&path, every))
        // lint: allow(unjustified-panic, repro measurement must abort loudly on a campaign failure)
        .expect("campaign run")
        .expect_complete();
    let wall_s = t0.elapsed().as_secs_f64();
    std::fs::remove_file(&path).ok();
    println!(
        "{label}: {} nodes in {:.1} s ({:.0} sessions/s), report memory {} KB",
        rep.len(),
        wall_s,
        rep.len() as f64 / wall_s.max(1e-9),
        rep.memory_bytes() / 1024
    );
    (rep, wall_s)
}

/// Run the benchmark campaign (`bench_update`, sharded scheduler,
/// sketch retention) for `nodes` nodes at `seed` and return the
/// canonical [`CampaignReport::to_json`] summary. This is the exact
/// document `repro campaign --json` prints and a `tinysdr-testbedd`
/// campaign job stores — one builder, so the two are bit-identical for
/// the same `(nodes, seed)`. The sharded scheduler is bit-identical to
/// sequential, so the shard count (machine parallelism) does not leak
/// into the output.
pub fn campaign_json(nodes: usize, seed: u64) -> Value {
    let tb = Testbed::with_nodes(nodes, seed);
    tb.run_campaign(&bench_update(), &bench_campaign_config(seed))
        .to_json()
}

/// The `BENCH_campaign.json` point of one run: the full campaign's
/// scale, rate and distribution summary, plus the reference run's
/// report memory for the flat-memory comparison.
fn trajectory_point(
    small: &CampaignReport,
    full: &CampaignReport,
    wall_s: f64,
) -> Vec<(String, Value)> {
    let time = full.time_dist();
    let energy = full.energy_dist();
    let quantiles = |dist: &NodeMetric, qs: &[(&str, f64)]| {
        Value::Obj(
            qs.iter()
                .map(|&(k, q)| (k.into(), Value::num(dist.quantile(q).unwrap_or(f64::NAN))))
                .collect(),
        )
    };
    vec![
        ("nodes".into(), Value::num(full.len() as f64)),
        ("completed".into(), Value::num(full.completed() as f64)),
        ("wall_s".into(), Value::num(wall_s)),
        (
            "sessions_per_s".into(),
            Value::num(full.len() as f64 / wall_s.max(1e-9)),
        ),
        (
            "report_memory_bytes".into(),
            Value::Obj(vec![
                ("small".into(), Value::num(small.memory_bytes() as f64)),
                ("full".into(), Value::num(full.memory_bytes() as f64)),
            ]),
        ),
        ("small_nodes".into(), Value::num(small.len() as f64)),
        (
            "time_min".into(),
            quantiles(time, &[("p50", 0.50), ("p90", 0.90), ("p99", 0.99)]),
        ),
        (
            "energy_mj".into(),
            quantiles(energy, &[("p50", 0.50), ("p90", 0.90)]),
        ),
        (
            "total_energy_j".into(),
            Value::num(full.total_energy_mj() / 1000.0),
        ),
        ("total_bytes".into(), Value::num(full.total_bytes() as f64)),
    ]
}

/// The `repro campaign` entry point. Runs the contract gates, then the
/// scale measurement (`nodes_full` nodes; 1M in the non-quick run),
/// asserts flat report memory, and appends to `BENCH_campaign.json`.
#[allow(clippy::disallowed_methods)] // bench harness: wall time is the measurement
pub fn campaign(nodes_full: usize, seed: u64, quick: bool) {
    println!("== Campaign scale: streaming aggregation + work stealing + checkpoints ==\n");
    let gate_nodes = if quick { 384 } else { 1024 };
    gate_work_stealing(seed, gate_nodes);
    gate_kill_resume(seed, if quick { 256 } else { 1024 });

    // the 10k-node reference: large enough to saturate the sketches'
    // log-bucket sets, so the full run's report can be compared
    // against an already-converged baseline
    let nodes_small = (nodes_full / 100).clamp(10_000, nodes_full / 2);
    let (small, _) = measured_run(nodes_small, seed, "reference");
    let (full, wall_s) = measured_run(nodes_full, seed, "full");

    // the tentpole claim: report memory is independent of node count.
    // The sketch's bucket set saturates once the value range is
    // covered, so a 100x node-count increase may grow the report only
    // by not-yet-seen buckets — well under 2x.
    let ratio = full.memory_bytes() as f64 / small.memory_bytes() as f64;
    assert!(
        ratio < 2.0,
        "report memory grew {ratio:.2}x from {} to {} nodes — not flat",
        nodes_small,
        nodes_full
    );
    println!(
        "flat-memory check: {}x nodes -> {:.2}x report memory ({} KB vs {} KB)",
        nodes_full / nodes_small,
        ratio,
        full.memory_bytes() / 1024,
        small.memory_bytes() / 1024
    );

    let time = full.time_dist();
    println!(
        "\nfull campaign: {}/{} completed | time p50 {:.1} / p90 {:.1} / p99 {:.1} min | {:.1} kJ total",
        full.completed(),
        full.len(),
        time.quantile(0.50).unwrap_or(f64::NAN),
        time.quantile(0.90).unwrap_or(f64::NAN),
        time.quantile(0.99).unwrap_or(f64::NAN),
        full.total_energy_mj() / 1e6,
    );

    let out = "BENCH_campaign.json";
    match record(
        out,
        "campaign",
        quick,
        trajectory_point(&small, &full, wall_s),
    ) {
        Ok(()) => println!("trajectory point appended to {out}"),
        Err(e) => println!("could not write {out}: {e}"),
    }
}
