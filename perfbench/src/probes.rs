//! Per-layer probes: fixed, seeded calls into each layer's public entry
//! points, timed in spans, run after every traced replay. Each probe is
//! the median over repeated calls. They isolate a layer so a change to
//! it shows here even when an end-to-end figure moves only a little.
//!
//! `rf.sx1276.per_us` times `packet_error_rate` with its current
//! `trials`/seed arguments; replacing the Monte-Carlo estimate with
//! quadrature (ROADMAP item 2) removes them, and the probe's call must
//! change with it.

use std::hint::black_box;

use tinysdr_bench::link::link_phy;
use tinysdr_ble::modem::BleBerPhy;
use tinysdr_core::testbed::Testbed;
use tinysdr_dsp::chirp::{dechirp_into, ChirpConfig, ChirpGenerator};
use tinysdr_dsp::complex::Complex;
use tinysdr_dsp::fft::{peak_bin, FftPlan};
use tinysdr_dsp::fir::demod_frontend;
use tinysdr_link::frame::{Deframer, Frame};
use tinysdr_link::phylink::{frame_loss_prob, frame_to_waveform, test_payload, waveform_to_frames};
use tinysdr_link::pipe::{transfer, tuned_config, Hop};
use tinysdr_link::sim::HopProfile;
use tinysdr_link::transfer::ota_transfer;
use tinysdr_lora::modem::LoraSerPhy;
use tinysdr_ota::aggregate::{NodeAggregate, RetainMode};
use tinysdr_ota::blocks::BlockedUpdate;
use tinysdr_ota::checkpoint::CampaignCheckpoint;
use tinysdr_ota::image::FirmwareImage;
use tinysdr_ota::session::{run_session, LinkModel, SessionConfig, SessionReport};
use tinysdr_rf::impairments::{ChainScratch, ImpairmentChain, PreparedPass};
use tinysdr_rf::phy::PhyModem;
use tinysdr_rf::sx1276::{packet_error_rate, LoRaParams};
use tinysdr_testbedd::spec::{job_id, JobRecord, JobSpec, JobState};
use tinysdr_testbedd::store::ArtifactStore;
use tinysdr_zigbee::modem::ZigbeePhy;

use crate::inputs::derive;
use crate::report::Report;
use crate::trace::Tracer;
use crate::{stats, Ctx};

/// Sessions the OTA probe runs (p90 needs 100).
const SESSIONS: usize = 100;

/// Time `reps` spans named `name`, each running `f` `batch` times after
/// one warm-up call; returns ns per call, one sample per span.
fn sample(
    t: &mut Tracer,
    name: &'static str,
    reps: usize,
    batch: usize,
    mut f: impl FnMut(),
) -> Vec<f64> {
    f();
    (0..reps)
        .map(|_| {
            t.span(name, |_| {
                for _ in 0..batch {
                    f();
                }
            });
            t.last_ns() as f64 / batch as f64
        })
        .collect()
}

fn med(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(f64::NAN)
}

/// A noisy capture of `frame` through an AWGN chain at `rssi_dbm`.
fn capture(phy: &dyn PhyModem, frame: &[u8], rssi_dbm: f64, seed: u64) -> Vec<Complex> {
    ImpairmentChain::new(phy.noise_figure_db()).apply(
        &phy.modulate(frame),
        rssi_dbm,
        phy.sample_rate_hz(),
        seed,
    )
}

fn dsp(t: &mut Tracer, rep: &mut Report, seed: u64) {
    let gen = ChirpGenerator::new(ChirpConfig::new(8, 125e3, 1));
    let reference = gen.dechirp_reference();
    let window = capture(
        &LoraSerPhy::new(8, 125e3),
        &test_payload(32, seed),
        -120.0,
        seed,
    );
    let sym = &window[..256];
    let mut fir = demod_frontend(0.45);
    let mut out = Vec::new();
    let v = sample(t, "dsp.fir", 30, 1, || {
        fir.process_into(black_box(&window), &mut out)
    });
    rep.layer("dsp.fir_ns_per_sample", med(&v) / window.len() as f64, "ns");
    let v = sample(t, "dsp.dechirp256", 30, 256, || {
        dechirp_into(black_box(sym), &reference, &mut out)
    });
    rep.layer("dsp.dechirp256_ns", med(&v), "ns");
    let plan = FftPlan::new(256);
    let mut buf = sym.to_vec();
    let v = sample(t, "dsp.fft256", 30, 256, || {
        buf.copy_from_slice(sym);
        plan.forward(black_box(&mut buf));
    });
    rep.layer("dsp.fft256_ns", med(&v), "ns");
    let v = sample(t, "dsp.peak_bin256", 30, 256, || {
        black_box(peak_bin(black_box(&buf)));
    });
    rep.layer("dsp.peak_bin256_ns", med(&v), "ns");
}

fn rf(t: &mut Tracer, rep: &mut Report, seed: u64) {
    let phy = LoraSerPhy::new(8, 125e3);
    let tx = phy.modulate(&test_payload(240, seed));
    let fs = phy.sample_rate_hz();
    let chain = ImpairmentChain::new(phy.noise_figure_db())
        .with_timing_offset(0.25)
        .with_clock_drift_ppm(2.0)
        .with_iq_imbalance(1.0, 5.0)
        .with_cfo_hz(30.0)
        .with_phase_noise(100.0)
        .with_block_fading(8192)
        .with_adc_quantization(13);
    let mut prep = PreparedPass::new();
    let mut scratch = ChainScratch::new();
    let mut k = 0u64;
    let v = sample(t, "rf.impairments.prepare", 10, 1, || {
        k += 1;
        chain.prepare_pass_into(&tx, fs, seed ^ k, &mut prep, &mut scratch);
    });
    rep.layer("rf.impairments.prepare_ms", med(&v) / 1e6, "ms");
    let mut out = Vec::new();
    let v = sample(t, "rf.impairments.apply_prepared", 20, 1, || {
        chain.apply_prepared_into(&prep, -125.0, &mut out)
    });
    rep.layer("rf.impairments.apply_prepared_ms", med(&v) / 1e6, "ms");
    let ble = link_phy();
    let frame_wave = frame_to_waveform(&ble, &Frame::data(0, test_payload(60, seed)));
    let awgn = ImpairmentChain::new(ble.noise_figure_db());
    let v = sample(t, "rf.impairments.apply", 50, 4, || {
        k += 1;
        black_box(awgn.apply(&frame_wave, -92.0, ble.sample_rate_hz(), seed ^ k));
    });
    rep.layer("rf.impairments.apply_us", med(&v) / 1e3, "us");
    let params = LoRaParams::ota_link();
    let v = sample(t, "rf.sx1276.per", 30, 1, || {
        k += 1;
        black_box(packet_error_rate(-115.0, &params, 66, 2000, seed ^ k));
    });
    rep.layer("rf.sx1276.per_us", med(&v) / 1e3, "us");
}

type DemodProbe = (&'static str, &'static str, Box<dyn PhyModem>, usize, f64);

fn phys(t: &mut Tracer, rep: &mut Report, seed: u64) {
    let lora: Box<dyn PhyModem> = Box::new(LoraSerPhy::new(8, 125e3));
    // (metric, span, modem, frame bytes, RSSI dBm)
    let probes: [DemodProbe; 3] = [
        ("lora.demod_msps", "lora.demod", lora, 64, -122.0),
        (
            "ble.demod_msps",
            "ble.demod",
            Box::new(BleBerPhy::new(4)),
            500,
            -92.0,
        ),
        (
            "zigbee.demod_msps",
            "zigbee.demod",
            Box::new(ZigbeePhy::new(2)),
            250,
            -96.0,
        ),
    ];
    for (metric, span, phy, frame_len, rssi) in probes {
        let frame = test_payload(frame_len, seed);
        let caps: Vec<Vec<Complex>> = (0..8)
            .map(|i| capture(phy.as_ref(), &frame, rssi, seed ^ i))
            .collect();
        let views: Vec<&[Complex]> = caps.iter().map(|c| c.as_slice()).collect();
        let samples: usize = caps.iter().map(Vec::len).sum();
        let v = sample(t, span, 8, 1, || {
            black_box(phy.demodulate_batch(&views));
        });
        rep.layer(metric, samples as f64 / 1e3 / (med(&v) / 1e6), "Msps");
        if span == "lora.demod" {
            let results = phy.demodulate_batch(&views);
            let v = sample(t, "phy.count_errors", 30, results.len(), || {
                for r in &results {
                    black_box(phy.count_errors(&frame, r));
                }
            });
            rep.layer(
                "phy.count_errors_us",
                med(&v) / 1e3 / results.len() as f64,
                "us",
            );
        }
    }
}

fn ota(t: &mut Tracer, rep: &mut Report, ctx: &Ctx) {
    let seed = derive(ctx.seed, 0x07A);
    let tb = Testbed::with_nodes(SESSIONS, seed);
    let update = BlockedUpdate::build(&FirmwareImage::mcu("fleet_fw", 8_000, 2));
    let mut reports: Vec<SessionReport> = Vec::new();
    let mut ms = Vec::new();
    for node in &tb.nodes {
        let mut link = LinkModel::from_downlink(node.rssi_dbm);
        link.base_loss_prob = Testbed::interference_loss(seed, node.id);
        let cfg = SessionConfig {
            max_attempts: 40,
            seed: Testbed::session_seed(seed, node.id),
        };
        reports.push(t.span("ota.session", |_| run_session(&update, &link, &cfg)));
        ms.push(t.last_ns() as f64 / 1e6);
    }
    rep.layer(
        "ota.session_ms.p50",
        stats::percentile(&ms, 0.5).unwrap_or(f64::NAN),
        "ms",
    );
    rep.layer(
        "ota.session_ms.p90",
        stats::percentile(&ms, 0.9).unwrap_or(f64::NAN),
        "ms",
    );
    let mut blocks: Vec<NodeAggregate> = Vec::new();
    let v = sample(t, "ota.aggregate.push", 20, 1, || {
        blocks = reports
            .chunks(10)
            .map(|c| {
                let mut a = NodeAggregate::new(RetainMode::sketch(), None);
                for r in c {
                    a.push_session(r);
                }
                a
            })
            .collect();
    });
    rep.layer(
        "ota.aggregate.push_us",
        med(&v) / 1e3 / SESSIONS as f64,
        "us",
    );
    let mut acc = NodeAggregate::new(RetainMode::sketch(), None);
    let v = sample(t, "ota.aggregate.merge", 20, 1, || {
        acc = NodeAggregate::new(RetainMode::sketch(), None);
        for b in &blocks {
            acc.merge(b);
        }
    });
    rep.layer(
        "ota.aggregate.merge_us",
        med(&v) / 1e3 / blocks.len() as f64,
        "us",
    );
    let ck = CampaignCheckpoint {
        fingerprint: seed,
        merged_blocks: blocks.len() as u64,
        total_blocks: blocks.len() as u64,
        agg: acc,
        reports: Vec::new(),
    };
    let path = ctx.out.join(format!("probe-seed{}.ckpt", ctx.seed));
    let v = sample(t, "ota.checkpoint.write", 10, 1, || {
        ck.write_atomic(&path).expect("probe checkpoint write")
    });
    std::fs::remove_file(&path).ok();
    rep.layer("ota.checkpoint.write_ms", med(&v) / 1e6, "ms");
    rep.layer("ota.checkpoint.bytes", ck.encode().len() as f64, "bytes");
}

fn link(t: &mut Tracer, rep: &mut Report, seed: u64) {
    let phy = link_phy();
    let frame = Frame::data(7, test_payload(60, seed));
    let v = sample(t, "link.frame.encode", 30, 256, || {
        black_box(frame.encode());
    });
    rep.layer("link.frame.encode_ns", med(&v), "ns");
    let stream: Vec<u8> = (0..100u16)
        .flat_map(|i| Frame::data(i, test_payload(60, seed ^ u64::from(i))).encode())
        .collect();
    let mut out = Vec::new();
    let v = sample(t, "link.frame.deframe", 30, 1, || {
        out.clear();
        Deframer::new().push_bytes(black_box(&stream), &mut out);
    });
    rep.layer(
        "link.frame.deframe_ns_per_byte",
        med(&v) / stream.len() as f64,
        "ns",
    );
    let chain = ImpairmentChain::new(phy.noise_figure_db());
    let v = sample(t, "link.frame_loss", 5, 1, || {
        black_box(frame_loss_prob(&phy, &chain, -92.0, &frame, 20, seed));
    });
    rep.layer("link.frame_loss_ms", med(&v) / 1e6, "ms");
    let rx = chain.apply(
        &frame_to_waveform(&phy, &frame),
        -92.0,
        phy.sample_rate_hz(),
        seed,
    );
    let v = sample(t, "link.phylink.rx", 50, 1, || {
        black_box(waveform_to_frames(&phy, &rx));
    });
    rep.layer("link.phylink.rx_us", med(&v) / 1e3, "us");
    let hop = Hop::symmetric(HopProfile::lossy(-92.0, 0.05));
    let payload = test_payload(6_000, seed);
    let mut events = 0u64;
    let v = sample(t, "link.transfer", 5, 1, || {
        let (r, _) = transfer(
            &payload,
            &phy,
            std::slice::from_ref(&hop),
            tuned_config(&phy, 8),
            seed,
        );
        events = r.sim.events;
    });
    rep.layer("link.transfer_ms", med(&v) / 1e6, "ms");
    rep.layer(
        "link.sim.events_per_s",
        events as f64 / (med(&v) / 1e9),
        "1/s",
    );
    let update = BlockedUpdate::build(&FirmwareImage::mcu("link_fw", 20_000, 3));
    let v = sample(t, "link.ota_transfer", 3, 1, || {
        black_box(ota_transfer(
            &update,
            &phy,
            std::slice::from_ref(&hop),
            tuned_config(&phy, 8),
            seed,
        ));
    });
    rep.layer("link.ota_transfer_ms", med(&v) / 1e6, "ms");
}

fn testbedd(t: &mut Tracer, rep: &mut Report, ctx: &Ctx) {
    let root = ctx.out.join(format!("probe-store-seed{}", ctx.seed));
    std::fs::remove_dir_all(&root).ok();
    let store = ArtifactStore::open(&root).expect("probe store");
    let recs: Vec<JobRecord> = (0..crate::daemon::STORE_CAP as u64)
        .map(|i| {
            let spec = JobSpec::Waterfall {
                seed: i,
                quick: true,
            };
            let mut r = JobRecord::new(job_id(i + 1, spec.fingerprint()), spec, 5, 0);
            r.state = JobState::Done;
            r
        })
        .collect();
    let mut i = 0;
    let v = sample(t, "testbedd.store.save_record", 40, 1, || {
        store
            .save_record(&recs[i % recs.len()])
            .expect("probe save_record");
        i += 1;
    });
    rep.layer("testbedd.store.save_record_us", med(&v) / 1e3, "us");
    for r in &recs {
        store.save_record(r).expect("probe save_record");
    }
    let v = sample(t, "testbedd.store.retention_scan", 10, 1, || {
        black_box(store.enforce_retention(recs.len(), u64::MAX, 1));
    });
    rep.layer("testbedd.store.retention_scan_ms", med(&v) / 1e6, "ms");
    std::fs::remove_dir_all(&root).ok();
    let v = crate::daemon::health_probe(ctx, t, 60);
    rep.layer("testbedd.http.health_us", med(&v) / 1e3, "us");
}

/// Run every probe and report the per-layer metrics.
pub fn run(ctx: &Ctx, rep: &mut Report) {
    let seed = derive(ctx.seed, 0x9B0E);
    let mut t = Tracer::new(ctx.epoch, 100, true);
    dsp(&mut t, rep, seed);
    rf(&mut t, rep, seed);
    phys(&mut t, rep, seed);
    ota(&mut t, rep, ctx);
    link(&mut t, rep, seed);
    testbedd(&mut t, rep, ctx);
}
