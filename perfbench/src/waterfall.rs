//! `waterfall`: the full conformance grid (11 scenarios × 8
//! impairments) through `run_waterfall`, sharded over every core. It
//! exercises the receiver path — prepared impairment passes,
//! `PhyModem::demodulate_batch`, the DSP kernels — and never touches
//! `ota`, `core` or `testbedd`.
//!
//! The traced replay runs the same curves through the same public calls
//! (reference modulation → `prepare_pass_into` → `apply_prepared_into` →
//! `demodulate_batch` → `count_errors`) on the engine's contiguous
//! per-core chunks, and must reproduce the untraced report's error
//! counts exactly.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tinysdr_bench::waterfall::{run_waterfall, WaterfallConfig, WaterfallReport};
use tinysdr_dsp::complex::Complex;
use tinysdr_ota::seed::stream_seed;
use tinysdr_rf::impairments::{ChainScratch, PreparedPass};
use tinysdr_rf::phy::ErrorCount;
use tinysdr_zigbee::modem::SPEC_SENSITIVITY_DBM;

use crate::report::Report;
use crate::trace::{Trace, Tracer};
use crate::{median_setup, report_trace, timed, timed_units, Ctx};

// The engine's seed derivation (`tinysdr_bench::waterfall`): stream
// tags and per-scenario / per-curve offsets. The replay must derive the
// same streams or its counts will not match.
const TAG_DATA: u64 = 0xDA7A_0001;
const TAG_CHAIN: u64 = 0xC4A1_0002;
const SCENARIO_SALT: u64 = 0x5CE0;
const CURVE_SALT: u64 = 0x13B0;

/// Paper anchors: LoRa SF8/BW125 at 10 % PER and BLE at BER 1e-3.
const LORA_ANCHOR: (&str, f64, f64) = ("LoRa PER SF8 BW125", 0.10, -126.0);
const BLE_ANCHOR: (&str, f64, f64) = ("BLE BER 4Msps", 1e-3, -94.0);

/// Slack of the waterfall shape check: 1.5 flipped trials, and at
/// least 2.5 % absolute for the error floors phase noise leaves on the
/// long-symbol LoRa curves, where the rate wanders by a few symbols.
const MONOTONE_SLACK_TRIALS: f64 = 1.5;
const MONOTONE_SLACK_RATE: f64 = 0.025;

fn scenario_seed(sweep_seed: u64, s_idx: usize) -> u64 {
    stream_seed(sweep_seed, s_idx as u64 ^ SCENARIO_SALT)
}

fn curve_seed(sweep_seed: u64, s_idx: usize, i_idx: usize) -> u64 {
    stream_seed(scenario_seed(sweep_seed, s_idx), i_idx as u64 ^ CURVE_SALT)
}

/// The receiver family a scenario label belongs to.
#[derive(Debug, Clone, Copy)]
enum Family {
    Lora,
    Ble,
    Zigbee,
}

impl Family {
    fn of(label: &str) -> Family {
        if label.starts_with("LoRa") {
            Family::Lora
        } else if label.starts_with("BLE") {
            Family::Ble
        } else {
            Family::Zigbee
        }
    }

    fn idx(self) -> usize {
        self as usize
    }

    fn demod_span(self) -> &'static str {
        ["lora.demod", "ble.demod", "zigbee.demod"][self.idx()]
    }

    fn modulate_span(self) -> &'static str {
        ["lora.modulate", "ble.modulate", "zigbee.modulate"][self.idx()]
    }

    const NAMES: [&'static str; 3] = ["lora", "ble", "zigbee"];
}

/// A scenario's reference frame and its transmit waveform.
struct Reference {
    frame: Vec<u8>,
    tx: Vec<Complex>,
}

/// Draw and modulate every scenario's reference frame, as the engine
/// does once per scenario.
fn references(cfg: &WaterfallConfig, t: &mut Tracer) -> Vec<Reference> {
    cfg.scenarios
        .iter()
        .enumerate()
        .map(|(s_idx, sc)| {
            let data_seed = stream_seed(scenario_seed(cfg.seed, s_idx), TAG_DATA);
            let mut rng = StdRng::seed_from_u64(data_seed);
            let frame: Vec<u8> = (0..sc.frame_len).map(|_| rng.gen::<u8>()).collect();
            let family = Family::of(&sc.label());
            let tx = t.span(family.modulate_span(), |_| sc.phy.modulate(&frame));
            Reference { frame, tx }
        })
        .collect()
}

/// Work counters of the replay, per receiver family.
#[derive(Default)]
struct Counters {
    demod_calls: [AtomicU64; 3],
    samples: [AtomicU64; 3],
}

/// Replay one chunk of curves; returns `(errors, trials)` per point in
/// grid order.
fn replay_chunk(
    cfg: &WaterfallConfig,
    refs: &[Reference],
    jobs: &[(usize, usize)],
    counters: &Counters,
    t: &mut Tracer,
) -> Vec<(u64, u64)> {
    let mut scratch = ChainScratch::new();
    let mut prep = PreparedPass::new();
    let mut rx: Vec<Vec<Complex>> = Vec::new();
    let mut out = Vec::new();
    for &(s_idx, i_idx) in jobs {
        t.set_op((s_idx * cfg.impairments.len() + i_idx) as u64);
        t.span("bench.waterfall.curve", |t| {
            let sc = &cfg.scenarios[s_idx];
            let phy = sc.phy.as_ref();
            let family = Family::of(&phy.label());
            let chain = cfg.impairments[i_idx]
                .chain
                .clone()
                .with_noise_figure(phy.noise_figure_db());
            let fs = phy.sample_rate_hz();
            let reference = &refs[s_idx];
            let rssis = sc.rssi.points();
            let cs = curve_seed(cfg.seed, s_idx, i_idx);
            let mut counts = vec![ErrorCount::ZERO; rssis.len()];
            rx.resize_with(rssis.len(), Vec::new);
            for k in 0..sc.passes {
                let pass_seed = stream_seed(cs, TAG_CHAIN ^ ((k as u64) << 20));
                t.span("rf.impairments.prepare", |_| {
                    chain.prepare_pass_into(&reference.tx, fs, pass_seed, &mut prep, &mut scratch)
                });
                for (buf, &rssi_dbm) in rx.iter_mut().zip(&rssis) {
                    t.span("rf.impairments.apply_prepared", |_| {
                        chain.apply_prepared_into(&prep, rssi_dbm, buf)
                    });
                }
                let captures: Vec<&[Complex]> = rx.iter().map(|r| r.as_slice()).collect();
                let f = family.idx();
                counters.demod_calls[f].fetch_add(1, Ordering::Relaxed);
                counters.samples[f].fetch_add(
                    captures.iter().map(|c| c.len() as u64).sum(),
                    Ordering::Relaxed,
                );
                let results = t.span(family.demod_span(), |_| phy.demodulate_batch(&captures));
                for (count, res) in counts.iter_mut().zip(&results) {
                    *count += t.span("phy.count_errors", |_| {
                        phy.count_errors(&reference.frame, res)
                    });
                }
            }
            out.extend(counts.iter().map(|c| (c.errors, c.trials)));
        });
    }
    out
}

/// The traced replay of the whole grid on `shards` threads, split into
/// the engine's contiguous chunks. Returns the per-point counts in grid
/// order, the trace and the counters.
fn replay(
    cfg: &WaterfallConfig,
    shards: usize,
    main: &mut Tracer,
) -> (Vec<(u64, u64)>, Trace, Counters) {
    let refs = main.span("bench.waterfall.references", |t| references(cfg, t));
    let jobs: Vec<(usize, usize)> = (0..cfg.scenarios.len())
        .flat_map(|s| (0..cfg.impairments.len()).map(move |i| (s, i)))
        .collect();
    let counters = Counters::default();
    let chunk = jobs.len().div_ceil(shards).max(1);
    let parts: Vec<(Vec<(u64, u64)>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .enumerate()
            .map(|(k, batch)| {
                let mut t = main.fork(k as u32 + 1);
                let (refs, counters) = (&refs, &counters);
                s.spawn(move || {
                    let pts = replay_chunk(cfg, refs, batch, counters, &mut t);
                    (pts, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("waterfall replay thread panicked"))
            .collect()
    });
    let mut trace = Trace::default();
    let mut points = Vec::new();
    for (pts, t) in parts {
        points.extend(pts);
        trace.absorb(t.into_spans());
    }
    (points, trace, counters)
}

/// The grid configuration of a run.
fn config(ctx: &Ctx) -> WaterfallConfig {
    WaterfallConfig::full(ctx.seed).sharded(ctx.nproc)
}

/// Output checks on a report, plus the paper-anchor error.
fn check(rep: &mut Report, cfg: &WaterfallConfig, wf: &WaterfallReport) {
    let zb = wf.sensitivity_dbm("802.15.4 OQPSK", "clean", 0.01);
    rep.check(
        "802.15.4 1%-SER sensitivity meets the -85 dBm spec floor",
        zb.is_some_and(|s| s <= SPEC_SENSITIVITY_DBM),
    );
    let mut monotone = true;
    for sc in &cfg.scenarios {
        let label = sc.label();
        for imp in &cfg.impairments {
            let min_trials = wf
                .points
                .iter()
                .filter(|p| p.scenario == label && p.impairment == imp.label)
                .map(|p| p.trials)
                .min()
                .unwrap_or(1)
                .max(1);
            let tol = (MONOTONE_SLACK_TRIALS / min_trials as f64).max(MONOTONE_SLACK_RATE);
            if !wf.is_monotone_non_increasing(&label, &imp.label, tol) {
                println!(
                    "non-monotone curve: {label} / {}: {:?} (min trials {min_trials})",
                    imp.label,
                    wf.curve(&label, &imp.label)
                );
                monotone = false;
            }
        }
    }
    rep.check("every curve is non-increasing in RSSI", monotone);
    let errs: Vec<Option<f64>> = [LORA_ANCHOR, BLE_ANCHOR]
        .iter()
        .map(|&(sc, thr, anchor)| {
            wf.sensitivity_dbm(sc, "clean", thr)
                .map(|s| (s - anchor).abs())
        })
        .collect();
    if rep.check(
        "LoRa and BLE clean curves cross their anchor thresholds",
        errs.iter().all(Option::is_some),
    ) {
        let errs: Vec<f64> = errs.into_iter().flatten().collect();
        rep.extra(
            "fidelity_err_db",
            errs.iter().sum::<f64>() / errs.len() as f64,
            "dB",
        );
    }
}

/// Run the workload.
pub fn run(ctx: &Ctx, rep: &mut Report) {
    let cfg = config(ctx);
    let curves = (cfg.scenarios.len() * cfg.impairments.len()) as u64;
    if !ctx.trace {
        let setup_s = median_setup(|| {
            let cfg = config(ctx);
            let refs = references(&cfg, &mut ctx.tracer(0));
            std::hint::black_box(&refs);
            // warm the modems' and the engine's code and allocator paths
            std::hint::black_box(run_waterfall(
                &WaterfallConfig::quick(ctx.seed).sharded(ctx.nproc),
            ));
        });
        rep.e2e("setup_s", setup_s, "s");
        let mut first: Option<WaterfallReport> = None;
        let mut same = true;
        let walls = timed_units(ctx.seconds, |_| {
            let wf = run_waterfall(&cfg);
            rep.attempted += curves;
            match &first {
                None => first = Some(wf),
                Some(f) => same &= *f == wf,
            }
        });
        rep.check("repeated grids are identical", same);
        let wf = first.expect("at least one grid ran");
        check(rep, &cfg, &wf);
        rep.digest("waterfall.report", wf.to_json().write().as_bytes());
        rep.walls(&walls);
        rep.extra("waterfall.points", wf.points.len() as f64, "count");
        return;
    }
    let (wf, base_wall) = timed(|| run_waterfall(&cfg));
    rep.attempted += curves;
    check(rep, &cfg, &wf);
    rep.digest("waterfall.report", wf.to_json().write().as_bytes());
    let mut main = ctx.tracer(0);
    let ((points, mut tr, counters), traced_wall) = timed(|| replay(&cfg, ctx.nproc, &mut main));
    tr.absorb(main.into_spans());
    let untraced: Vec<(u64, u64)> = wf.points.iter().map(|p| (p.errors, p.trials)).collect();
    rep.check(
        "traced replay reproduces every point's error counts",
        points == untraced,
    );
    let curves_ns = tr.durations("bench.waterfall.curve");
    report_trace(
        ctx,
        rep,
        "waterfall",
        &tr,
        (base_wall, traced_wall),
        &curves_ns,
    );
    let by_name = tr.by_name();
    let ms = |name: &str| by_name.get(name).map_or(0.0, |s| s.self_ns as f64 / 1e6);
    rep.extra(
        "rf.impairments.prepare_ms",
        ms("rf.impairments.prepare"),
        "ms",
    );
    rep.extra(
        "rf.impairments.apply_prepared_ms",
        ms("rf.impairments.apply_prepared"),
        "ms",
    );
    rep.extra("phy.count_errors_ms", ms("phy.count_errors"), "ms");
    rep.extra(
        "bench.waterfall.curve_ms.max",
        curves_ns.iter().copied().fold(0.0, f64::max) / 1e6,
        "ms",
    );
    let mut calls = 0;
    let mut samples = 0;
    for (f, name) in Family::NAMES.iter().enumerate() {
        let demod_ms = ms(&format!("{name}.demod"));
        let n = counters.samples[f].load(Ordering::Relaxed);
        calls += counters.demod_calls[f].load(Ordering::Relaxed);
        samples += n;
        rep.extra(&format!("{name}.demod_ms"), demod_ms, "ms");
        rep.extra(
            &format!("{name}.demod_msps"),
            n as f64 / 1e3 / demod_ms,
            "Msps",
        );
    }
    rep.extra("waterfall.demod_calls", calls as f64, "count");
    rep.extra("waterfall.samples", samples as f64, "count");
}
