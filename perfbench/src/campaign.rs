//! `campaign`: a 1024-node unicast OTA campaign of the benchmark update
//! (8 KB `fleet_fw`, 76 packets) through `run_campaign_checkpointed`
//! with sketch retention and one shard per core. The costly parts are
//! SX1276 PER estimation, the session packet loop, the aggregate fold,
//! the block scheduler and checkpoint writes; there is no waveform DSP.
//!
//! The traced replay programs the same nodes block by block through the
//! public pieces the engine composes (`LinkModel::from_downlink`,
//! `Testbed::interference_loss`, `Testbed::session_seed`, `run_session`,
//! `NodeAggregate::push_session`/`merge`, `CampaignCheckpoint`), and its
//! aggregate must equal `CampaignReport::aggregate()`.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use tinysdr_bench::campaign::{bench_campaign_config, bench_update};
use tinysdr_core::testbed::{CampaignConfig, CampaignReport, CheckpointConfig, Node, Testbed};
use tinysdr_ota::aggregate::NodeAggregate;
use tinysdr_ota::blocks::BlockedUpdate;
use tinysdr_ota::checkpoint::CampaignCheckpoint;
use tinysdr_ota::session::{run_session, LinkModel, SessionConfig};

use crate::report::Report;
use crate::trace::{Trace, Tracer};
use crate::{median_setup, report_trace, stats, timed, timed_units, Ctx};

/// Fleet size of one campaign.
pub const NODES: usize = 1024;
/// Checkpoint cadence, merged blocks.
const CKPT_EVERY_BLOCKS: usize = 4;
/// Fleet size of the set-up warm-up campaign.
const WARM_NODES: usize = 64;

/// The campaign a run measures.
struct Input {
    testbed: Testbed,
    update: BlockedUpdate,
    cfg: CampaignConfig,
}

fn input(ctx: &Ctx) -> Input {
    let mut cfg = bench_campaign_config(ctx.seed);
    cfg.shards = ctx.nproc;
    Input {
        testbed: Testbed::with_nodes(NODES, ctx.seed),
        update: bench_update(),
        cfg,
    }
}

/// One checkpointed campaign, starting from an empty checkpoint path.
fn run_once(inp: &Input, ckpt: &Path) -> CampaignReport {
    std::fs::remove_file(ckpt).ok();
    let rep = inp
        .testbed
        .run_campaign_checkpointed(
            &inp.update,
            &inp.cfg,
            &CheckpointConfig::new(ckpt, CKPT_EVERY_BLOCKS),
        )
        .expect("checkpointed campaign")
        .expect_complete();
    std::fs::remove_file(ckpt).ok();
    rep
}

fn check(rep: &mut Report, c: &CampaignReport) {
    rep.check(
        "completed <= nodes",
        c.completed() <= c.len() && c.len() == NODES,
    );
    rep.check(
        "campaign totals are finite",
        c.total_energy_mj().is_finite() && c.total_air_time_s().is_finite() && c.total_bytes() > 0,
    );
}

/// One node's session through the engine's public pieces.
fn program(node: &Node, inp: &Input, t: &mut Tracer) -> tinysdr_ota::session::SessionReport {
    let (link, scfg) = t.span("ota.session.link", |_| {
        let mut link = LinkModel::from_downlink(node.rssi_dbm);
        link.base_loss_prob = Testbed::interference_loss(inp.cfg.seed, node.id);
        let scfg = SessionConfig {
            max_attempts: inp.cfg.max_attempts,
            seed: Testbed::session_seed(inp.cfg.seed, node.id),
        };
        (link, scfg)
    });
    t.span("ota.session", |_| run_session(&inp.update, &link, &scfg))
}

/// Replay counters.
#[derive(Default)]
struct Counts {
    packets_aired: u64,
    retransmissions: u64,
}

/// The traced replay: blocks claimed from a shared cursor by one thread
/// per core, folded in block order, checkpointed at the engine's
/// cadence. Returns the merged aggregate, the trace and the counters.
fn replay(
    inp: &Input,
    lanes: usize,
    ckpt: &Path,
    main: &mut Tracer,
) -> (NodeAggregate, Trace, Counts) {
    let nodes = &inp.testbed.nodes;
    let block_len = inp.cfg.block_len;
    let nblocks = nodes.len().div_ceil(block_len);
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<Option<NodeAggregate>>> = Mutex::new(vec![None; nblocks]);
    let counts = Mutex::new(Counts::default());
    let tracers: Vec<Tracer> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|k| {
                let mut t = main.fork(k as u32 + 1);
                let (cursor, done, counts) = (&cursor, &done, &counts);
                s.spawn(move || {
                    let mut local = Counts::default();
                    loop {
                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                        if b >= nblocks {
                            break;
                        }
                        t.set_op(b as u64);
                        let agg = t.span("core.testbed.block", |t| {
                            let mut agg = NodeAggregate::new(inp.cfg.retain, inp.cfg.projection);
                            let hi = ((b + 1) * block_len).min(nodes.len());
                            for node in &nodes[b * block_len..hi] {
                                let r = program(node, inp, t);
                                local.packets_aired +=
                                    u64::from(r.data_packets + r.retransmissions);
                                local.retransmissions += u64::from(r.retransmissions);
                                t.span("ota.aggregate.push", |_| agg.push_session(&r));
                            }
                            agg
                        });
                        done.lock().expect("block table")[b] = Some(agg);
                    }
                    let mut c = counts.lock().expect("counters");
                    c.packets_aired += local.packets_aired;
                    c.retransmissions += local.retransmissions;
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign replay thread panicked"))
            .collect()
    });
    let mut acc = NodeAggregate::new(inp.cfg.retain, inp.cfg.projection);
    let blocks = done.into_inner().expect("block table");
    for (b, agg) in blocks.into_iter().enumerate() {
        let agg = agg.expect("every block was programmed");
        main.set_op(b as u64);
        main.span("ota.aggregate.merge", |_| acc.merge(&agg));
        if (b + 1) % CKPT_EVERY_BLOCKS == 0 || b + 1 == nblocks {
            let snapshot = CampaignCheckpoint {
                fingerprint: 0,
                merged_blocks: b as u64 + 1,
                total_blocks: nblocks as u64,
                agg: acc.clone(),
                reports: Vec::new(),
            };
            main.span("ota.checkpoint.write", |_| snapshot.write_atomic(ckpt))
                .expect("checkpoint write");
        }
    }
    std::fs::remove_file(ckpt).ok();
    let mut trace = Trace::default();
    for t in tracers {
        trace.absorb(t.into_spans());
    }
    (acc, trace, counts.into_inner().expect("counters"))
}

/// Run the workload.
pub fn run(ctx: &Ctx, rep: &mut Report) {
    let ckpt = ctx.out.join(format!("campaign-seed{}.ckpt", ctx.seed));
    if !ctx.trace {
        let setup_s = median_setup(|| {
            let inp = input(ctx);
            // warm the session engine and the scheduler on a small fleet
            let warm = Testbed::with_nodes(WARM_NODES, ctx.seed ^ 1);
            std::hint::black_box(warm.run_campaign(&inp.update, &inp.cfg));
        });
        rep.e2e("setup_s", setup_s, "s");
        let inp = input(ctx);
        let mut first: Option<CampaignReport> = None;
        let mut same = true;
        let walls = timed_units(ctx.seconds, |_| {
            let c = run_once(&inp, &ckpt);
            rep.attempted += c.len() as u64;
            match &first {
                None => first = Some(c),
                Some(f) => same &= *f == c,
            }
        });
        rep.check("repeated campaigns are identical", same);
        let c = first.expect("at least one campaign ran");
        check(rep, &c);
        rep.digest("campaign.report", c.to_json().write().as_bytes());
        rep.walls(&walls);
        let wall_s = stats::median(&walls).unwrap_or(f64::NAN);
        rep.extra("sessions_per_s", NODES as f64 / wall_s, "1/s");
        return;
    }
    let inp = input(ctx);
    let (c, base_wall) = timed(|| run_once(&inp, &ckpt));
    rep.attempted += c.len() as u64;
    check(rep, &c);
    rep.digest("campaign.report", c.to_json().write().as_bytes());
    let mut main = ctx.tracer(0);
    let ((agg, mut tr, counts), traced_wall) = timed(|| replay(&inp, ctx.nproc, &ckpt, &mut main));
    tr.absorb(main.into_spans());
    rep.check(
        "traced replay's aggregate equals CampaignReport::aggregate()",
        agg == *c.aggregate(),
    );
    let blocks_ns = tr.durations("core.testbed.block");
    report_trace(
        ctx,
        rep,
        "campaign",
        &tr,
        (base_wall, traced_wall),
        &blocks_ns,
    );
    let to_ms = |v: Vec<f64>| v.into_iter().map(|ns| ns / 1e6).collect::<Vec<_>>();
    let to_us = |v: Vec<f64>| v.into_iter().map(|ns| ns / 1e3).collect::<Vec<_>>();
    rep.extra_dist("ota.session_ms", &to_ms(tr.durations("ota.session")), "ms");
    let mean = |v: Vec<f64>| stats::mean(&v).unwrap_or(f64::NAN);
    rep.extra(
        "ota.aggregate.push_us",
        mean(to_us(tr.durations("ota.aggregate.push"))),
        "us",
    );
    rep.extra(
        "ota.aggregate.merge_us",
        mean(to_us(tr.durations("ota.aggregate.merge"))),
        "us",
    );
    rep.extra(
        "ota.checkpoint.write_ms",
        mean(to_ms(tr.durations("ota.checkpoint.write"))),
        "ms",
    );
    rep.extra(
        "ota.session.packets_aired",
        counts.packets_aired as f64,
        "count",
    );
    rep.extra(
        "ota.session.retransmissions",
        counts.retransmissions as f64,
        "count",
    );
    rep.extra("sessions_per_s", NODES as f64 / base_wall, "1/s");
}
