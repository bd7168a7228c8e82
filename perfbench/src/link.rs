//! `link`: the packet data plane at full effort — `link_json`'s
//! goodput-vs-RSSI curve and 1–3-hop OTA dissemination table over the
//! BLE GFSK modem, repeated over consecutive seeds. It is the only
//! workload where framing, ARQ and `NetSim` are hot, and it reaches the
//! impairment chain through the allocating `ImpairmentChain::apply` per
//! PER trial (the waterfall uses the prepared replay) and demodulation
//! through short BLE frames.
//!
//! The traced replay measures the same seeds through the public pieces
//! `goodput_curve`/`multihop_rows` compose — `frame_to_waveform`,
//! `ImpairmentChain::apply`, `PhyModem::demodulate`, `Deframer`,
//! `transfer`, `ota_transfer` — on the same threads, and must reproduce
//! their curve points and table rows exactly.

use tinysdr_bench::link::{
    goodput_curve, link_json, link_phy, multihop_rows, GoodputPoint, MultiHopRow,
};
use tinysdr_ble::modem::BleBerPhy;
use tinysdr_link::arq::ArqConfig;
use tinysdr_link::frame::{Deframer, Frame};
use tinysdr_link::phylink::{frame_to_waveform, test_payload, STREAM_LINK_PER};
use tinysdr_link::pipe::{transfer, tuned_config, Hop};
use tinysdr_link::sim::{HopProfile, Pattern};
use tinysdr_link::transfer::ota_transfer;
use tinysdr_ota::blocks::BlockedUpdate;
use tinysdr_ota::image::FirmwareImage;
use tinysdr_ota::seed::{node_stream_seed, splitmix64};
use tinysdr_rf::impairments::ImpairmentChain;
use tinysdr_rf::phy::PhyModem;

use crate::inputs::link_seed;
use crate::report::Report;
use crate::trace::{Trace, Tracer};
use crate::{median_setup, report_trace, timed, timed_units, Ctx};

// Full-effort sizing of `tinysdr_bench::link` (its `effort(false)`).
const RSSI_POINTS: usize = 8;
const RSSI_START_DBM: f64 = -100.0;
const RSSI_STEP_DB: f64 = 2.0;
const PER_TRIALS: u32 = 150;
const PAYLOAD_LEN: usize = 6_000;
const IMAGE_LEN: usize = 20_000;
const MULTIHOP_RSSI_DBM: f64 = -92.0;

const ROWS_CHECK: &str =
    "direct hop delivers a CRC-verified image; relayed rows deliver one exactly when they complete";

/// Seeds per traced replay (one seed is too short to time steadily).
const TRACE_SEEDS: u64 = 8;

/// Shard count `link_json` uses: the machine's cores, at least two.
fn shards(ctx: &Ctx) -> usize {
    ctx.nproc.max(2)
}

/// Replay of `frame_loss_prob` + `waveform_to_frames`, span per call.
fn frame_loss(
    phy: &BleBerPhy,
    chain: &ImpairmentChain,
    rssi_dbm: f64,
    frame: &Frame,
    seed: u64,
    t: &mut Tracer,
) -> f64 {
    t.span("link.frame_loss", |t| {
        let tx = t.span("link.phylink.tx", |_| frame_to_waveform(phy, frame));
        let fs = phy.sample_rate_hz();
        let mut lost = 0u32;
        for i in 0..PER_TRIALS {
            let trial_seed = node_stream_seed(seed, u64::from(i), STREAM_LINK_PER);
            let rx = t.span("rf.impairments.apply", |_| {
                chain.apply(&tx, rssi_dbm, fs, trial_seed)
            });
            let frames = t.span("link.phylink.rx", |t| {
                let bytes = t.span("ble.demod", |_| phy.demodulate(&rx).bytes);
                let mut deframer = Deframer::new();
                let mut out = Vec::new();
                t.span("link.frame.deframe", |_| {
                    deframer.push_bytes(&bytes, &mut out)
                });
                out
            });
            if !(frames.len() == 1 && frames[0] == *frame) {
                lost += 1;
            }
        }
        f64::from(lost) / f64::from(PER_TRIALS)
    })
}

/// A hop whose data and ACK directions drop frames with the measured
/// probabilities.
fn lossy_hop(rssi_dbm: f64, data_loss: f64, ack_loss: f64) -> Hop {
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

fn data_frame(seed: u64) -> Frame {
    Frame::data(0, test_payload(ArqConfig::sliding(8).chunk_len, seed))
}

/// Replay of one goodput-curve point.
fn goodput_point(
    phy: &BleBerPhy,
    idx: u64,
    seed: u64,
    events: &mut u64,
    t: &mut Tracer,
) -> GoodputPoint {
    let rssi_dbm = RSSI_START_DBM + RSSI_STEP_DB * idx as f64;
    let chain = ImpairmentChain::new(phy.noise_figure_db());
    let per_seed = splitmix64(seed ^ (idx << 8));
    let data_loss = frame_loss(phy, &chain, rssi_dbm, &data_frame(seed), per_seed, t);
    let ack_loss = frame_loss(phy, &chain, rssi_dbm, &Frame::ack(0), per_seed ^ 1, t);
    let hop = lossy_hop(rssi_dbm, data_loss, ack_loss);
    let payload = test_payload(PAYLOAD_LEN, seed);
    let sim_seed = splitmix64(seed ^ (idx << 8) ^ 0x11);
    let mut run = |window: u16| {
        let (r, _) = t.span("link.transfer", |_| {
            transfer(
                &payload,
                phy,
                std::slice::from_ref(&hop),
                tuned_config(phy, window),
                sim_seed,
            )
        });
        *events += r.sim.events;
        r
    };
    let stop_and_wait = run(1);
    let window8 = run(8);
    GoodputPoint {
        rssi_dbm,
        data_loss,
        ack_loss,
        stop_and_wait,
        window8,
    }
}

/// The traced replay of one seed: the curve on `shards` threads in the
/// engine's contiguous chunks, then one thread per multi-hop row.
fn replay_seed(
    seed: u64,
    shards: usize,
    main: &mut Tracer,
    trace: &mut Trace,
    events: &mut u64,
) -> (Vec<GoodputPoint>, Vec<MultiHopRow>) {
    let phy = link_phy();
    let idxs: Vec<u64> = (0..RSSI_POINTS as u64).collect();
    let chunk = idxs.len().div_ceil(shards).max(1);
    let chunks: Vec<(Vec<GoodputPoint>, Tracer, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = idxs
            .chunks(chunk)
            .enumerate()
            .map(|(k, batch)| {
                let mut t = main.fork(k as u32 + 1);
                s.spawn(move || {
                    let phy = link_phy();
                    let mut ev = 0;
                    let pts = batch
                        .iter()
                        .map(|&i| {
                            t.set_op(seed ^ (i << 56));
                            t.span("bench.link.point", |t| {
                                goodput_point(&phy, i, seed, &mut ev, t)
                            })
                        })
                        .collect();
                    (pts, t, ev)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("goodput replay thread panicked"))
            .collect()
    });
    let mut curve = Vec::new();
    for (pts, t, ev) in chunks {
        curve.extend(pts);
        trace.absorb(t.into_spans());
        *events += ev;
    }
    let chain = ImpairmentChain::new(phy.noise_figure_db());
    let data_loss = frame_loss(
        &phy,
        &chain,
        MULTIHOP_RSSI_DBM,
        &data_frame(seed),
        splitmix64(seed ^ 0xA0),
        main,
    );
    let ack_loss = frame_loss(
        &phy,
        &chain,
        MULTIHOP_RSSI_DBM,
        &Frame::ack(0),
        splitmix64(seed ^ 0xA1),
        main,
    );
    let hop = lossy_hop(MULTIHOP_RSSI_DBM, data_loss, ack_loss);
    let update = BlockedUpdate::build(&FirmwareImage::mcu("link_fw", IMAGE_LEN, 3));
    let cfg = tuned_config(&phy, 8);
    let rows: Vec<(MultiHopRow, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=3usize)
            .map(|hops| {
                let mut t = main.fork(10 + hops as u32);
                let (phy, hop, update, cfg) = (&phy, &hop, &update, &cfg);
                s.spawn(move || {
                    t.set_op(seed ^ ((hops as u64) << 60));
                    let chain: Vec<Hop> = (0..hops).map(|_| hop.clone()).collect();
                    let (report, _) = t.span("bench.link.row", |t| {
                        t.span("link.ota_transfer", |_| {
                            ota_transfer(
                                update,
                                phy,
                                &chain,
                                cfg.clone(),
                                splitmix64(seed ^ hops as u64),
                            )
                        })
                    });
                    (MultiHopRow { hops, report }, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("multihop replay thread panicked"))
            .collect()
    });
    let mut table = Vec::new();
    for (row, t) in rows {
        *events += row.report.link.sim.events;
        table.push(row);
        trace.absorb(t.into_spans());
    }
    (curve, table)
}

/// `(completed, image_ok)` of each multi-hop row of a `link_json`
/// document.
fn row_outcomes(doc: &tinysdr_ota::json::Value) -> Vec<(bool, bool)> {
    let flag =
        |r: &tinysdr_ota::json::Value, k: &str| r.get(k).and_then(|v| v.as_bool()) == Some(true);
    doc.get("multihop")
        .and_then(|m| m.as_arr())
        .map_or(Vec::new(), |rows| {
            rows.iter()
                .map(|r| (flag(r, "completed"), flag(r, "image_ok")))
                .collect()
        })
}

/// The multi-hop table's output check. The direct hop must deliver a
/// CRC-verified image. A relayed row may time out on a lossy seed (the
/// ARQ contract is exactly-once delivery *or* a typed timeout), but it
/// must deliver a verified image exactly when its transfer completes.
/// Returns `(rows ok, rows that timed out)`.
fn check_rows(rows: &[(bool, bool)]) -> (bool, u64) {
    let direct = rows.first() == Some(&(true, true));
    let consistent = rows.len() == 3 && rows.iter().all(|&(done, image)| done == image);
    (
        direct && consistent,
        rows.iter().filter(|r| !r.0).count() as u64,
    )
}

/// Run the workload.
pub fn run(ctx: &Ctx, rep: &mut Report) {
    if !ctx.trace {
        let setup_s = median_setup(|| {
            let phy = link_phy();
            std::hint::black_box(frame_to_waveform(&phy, &data_frame(ctx.seed)));
            std::hint::black_box(BlockedUpdate::build(&FirmwareImage::mcu(
                "link_fw", IMAGE_LEN, 3,
            )));
            // warm the framing, ARQ and simulator paths on the quick effort
            std::hint::black_box(link_json(ctx.seed, true));
        });
        rep.e2e("setup_s", setup_s, "s");
        let mut all_ok = true;
        let mut timeouts = 0;
        let walls = timed_units(ctx.seconds, |i| {
            let doc = link_json(link_seed(ctx.seed, i as u64), false);
            rep.attempted += 1;
            let (ok, t) = check_rows(&row_outcomes(&doc));
            all_ok &= ok;
            timeouts += t;
            if i == 0 {
                rep.digest("link.report", doc.write().as_bytes());
            }
        });
        rep.check(ROWS_CHECK, all_ok);
        rep.extra("link.relay_timeouts", timeouts as f64, "count");
        rep.walls(&walls);
        return;
    }
    let shards = shards(ctx);
    let seeds: Vec<u64> = (0..TRACE_SEEDS).map(|i| link_seed(ctx.seed, i)).collect();
    let (untraced, base_wall) = timed(|| {
        seeds
            .iter()
            .map(|&s| {
                (
                    goodput_curve(s, false, shards),
                    multihop_rows(s, false, shards),
                )
            })
            .collect::<Vec<_>>()
    });
    rep.attempted += seeds.len() as u64;
    rep.digest("link.report", link_json(seeds[0], false).write().as_bytes());
    let mut main = ctx.tracer(0);
    let mut tr = Trace::default();
    let mut events = 0u64;
    let (replayed, traced_wall) = timed(|| {
        seeds
            .iter()
            .map(|&s| replay_seed(s, shards, &mut main, &mut tr, &mut events))
            .collect::<Vec<_>>()
    });
    tr.absorb(main.into_spans());
    rep.check(
        ROWS_CHECK,
        untraced.iter().all(|(_, rows)| {
            let outcomes: Vec<(bool, bool)> = rows
                .iter()
                .map(|r| (r.report.link.completed, r.report.image_ok))
                .collect();
            check_rows(&outcomes).0
        }),
    );
    rep.check(
        "traced replay reproduces every curve point and table row",
        replayed == untraced,
    );
    let mut parts = tr.durations("bench.link.point");
    parts.extend(tr.durations("bench.link.row"));
    report_trace(ctx, rep, "link", &tr, (base_wall, traced_wall), &parts);
    let by_name = tr.by_name();
    let per_call = |name: &str, scale: f64| {
        by_name
            .get(name)
            .map_or(f64::NAN, |s| s.total_ns as f64 / s.count as f64 / scale)
    };
    rep.extra("link.frame_loss_ms", per_call("link.frame_loss", 1e6), "ms");
    rep.extra("link.transfer_ms", per_call("link.transfer", 1e6), "ms");
    rep.extra(
        "link.ota_transfer_ms",
        per_call("link.ota_transfer", 1e6),
        "ms",
    );
    rep.extra(
        "rf.impairments.apply_us",
        per_call("rf.impairments.apply", 1e3),
        "us",
    );
    rep.extra("link.phylink.rx_us", per_call("link.phylink.rx", 1e3), "us");
    rep.extra("ble.demod_us", per_call("ble.demod", 1e3), "us");
    rep.extra("link.sim.events", events as f64, "count");
    let sim_ns = ["link.transfer", "link.ota_transfer"]
        .iter()
        .filter_map(|n| by_name.get(n))
        .map(|s| s.total_ns as f64)
        .sum::<f64>();
    rep.extra(
        "link.sim.events_per_s",
        events as f64 / (sim_ns / 1e9),
        "1/s",
    );
}
