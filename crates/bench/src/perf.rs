//! The hot-path perf gates behind `repro perf`.
//!
//! Three things happen here, mirroring `repro campaign`:
//!
//! 1. **Contract gate** — the impairment chain's hot path must be
//!    bit-identical to the reference it replaced:
//!    [`ImpairmentChain::apply`] against its recorded digest and the
//!    prepared-pass replay against `apply`. The gate `assert!`s, so a
//!    contract violation aborts the binary — the CI perf-smoke step
//!    relies on that.
//! 2. **Timed runs** — the quick waterfall grid (the sweep the
//!    curve-major engine was restructured for) and the three modem
//!    families' modulate/demodulate workloads, timed through their
//!    scratch-reusing `_into` forms in steady state.
//! 3. **Trajectory points** — the measurements are appended to
//!    `BENCH_waterfall.json` and `BENCH_modem.json` through
//!    [`crate::trajectory::record`]. The `pre-batching` points in those
//!    files' history are the pre-refactor reference; the full run gates
//!    the waterfall speedup against the recorded `wall_ms`.

use tinysdr_ble::gfsk::{GfskDemodulator, GfskModulator, GfskScratch};
use tinysdr_dsp::nco::ideal_tone;
use tinysdr_lora::demodulator::Demodulator;
use tinysdr_lora::modulator::Modulator;
use tinysdr_lora::packet::Frame;
use tinysdr_ota::checkpoint::checksum;
use tinysdr_ota::json::Value;
use tinysdr_rf::impairments::{ChainScratch, ImpairmentChain, PreparedPass};
use tinysdr_zigbee::modem::bytes_to_symbols;
use tinysdr_zigbee::oqpsk::{OqpskDemodulator, OqpskModulator, OqpskScratch};

use crate::trajectory::{labelled, record};
use crate::waterfall::{run_waterfall, WaterfallConfig};

/// The speedup floor `repro perf` (full mode) enforces on the quick
/// waterfall grid, sequential, versus the recorded pre-batching point.
const REQUIRED_WATERFALL_SPEEDUP: f64 = 1.5;

/// The waterfall trajectory, whose `pre-batching` point is the gate's
/// baseline.
const WATERFALL_TRAJECTORY: &str = "BENCH_waterfall.json";

/// The finite `wall_ms` of the `pre-batching` point in the waterfall
/// trajectory at `path`: the quick grid measured sequentially at the
/// commit preceding the batched-hot-path restructure. `None` if the
/// file, the point or a finite time is missing.
fn pre_batching_wall_ms(path: &str) -> Option<f64> {
    let doc = Value::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    doc.get("points")?
        .as_arr()?
        .iter()
        .find(|p| p.get("label").and_then(Value::as_str) == Some("pre-batching"))?
        .get("wall_ms")?
        .as_f64()
        .filter(|ms| ms.is_finite())
}

/// Checksum of every `apply` capture the chain gate makes (both seeds,
/// three RSSI points each, in that order), recorded from `apply` (one
/// prepare and one replay) with the sine-free windowed-sinc taps of
/// `tinysdr_dsp::delay` in the timing and drift stages and stage 8's
/// ziggurat noise.
const CHAIN_GOLDEN: u64 = 0xbdb2_11d0_df04_16c8;

/// The chain gate: across a chain stacking every stage, `apply`
/// reproduces the recorded digest, and the prepared-pass replay that
/// the sweep engine leans on — one prepare, many RSSI points, one
/// reused output buffer — is bit-identical to it.
fn gate_chain_bit_identity() {
    let fs = 1e6;
    let tx = ideal_tone(30e3, fs, 4096);
    let chain = ImpairmentChain::new(6.0)
        .with_timing_offset(0.25)
        .with_clock_drift_ppm(2.0)
        .with_iq_imbalance(1.0, 5.0)
        .with_cfo_hz(300.0)
        .with_phase_noise(100.0)
        .with_block_fading(512)
        .with_adc_quantization(12);
    let mut scratch = ChainScratch::new();
    let mut prep = PreparedPass::new();
    let mut out = Vec::new();
    let mut bytes = Vec::new();
    for seed in [1u64, 99] {
        chain.prepare_pass_into(&tx, fs, seed, &mut prep, &mut scratch);
        for rssi_dbm in [-60.0, -100.0, -130.0] {
            let reference = chain.apply(&tx, rssi_dbm, fs, seed);
            for z in &reference {
                bytes.extend(z.re.to_bits().to_le_bytes());
                bytes.extend(z.im.to_bits().to_le_bytes());
            }
            chain.apply_prepared_into(&prep, rssi_dbm, &mut out);
            assert_eq!(reference, out, "prepared replay diverged at {rssi_dbm} dBm");
        }
    }
    let digest = checksum(&bytes);
    assert_eq!(digest, CHAIN_GOLDEN, "apply digest {digest:#018x}");
}

/// Time `reps` calls of `f` after one warm-up call and return the best
/// single call's seconds — the same best-sample estimator the vendored
/// criterion shim reports as ns/iter, so pre/post trajectory points
/// are methodologically comparable. Every workload here runs ≥ 10 µs,
/// far above the timer's resolution.
#[allow(clippy::disallowed_methods)] // measuring wall time is the point of a bench harness
fn time_per_call(reps: u32, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now(); // lint: allow(ambient-time, bench harness measures wall time)
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// One modem family's measured throughput, Msamples/s.
#[derive(Debug, Clone, PartialEq)]
pub struct ModemPoint {
    /// Modulator throughput, Msamples/s (non-finite → `null` in JSON).
    pub mod_msps: f64,
    /// Demodulator throughput, Msamples/s.
    pub demod_msps: f64,
}

impl ModemPoint {
    fn to_json(&self) -> Value {
        let num = |x: f64| {
            if x.is_finite() {
                Value::num(x)
            } else {
                Value::Null
            }
        };
        Value::Obj(vec![
            ("modulate_msps".into(), num(self.mod_msps)),
            ("demodulate_msps".into(), num(self.demod_msps)),
        ])
    }

    fn from_json(v: &Value) -> Option<ModemPoint> {
        let num = |v: Option<&Value>| match v {
            None | Some(Value::Null) => Some(f64::NAN),
            Some(x) => x.as_f64(),
        };
        Some(ModemPoint {
            mod_msps: num(v.get("modulate_msps"))?,
            demod_msps: num(v.get("demodulate_msps"))?,
        })
    }
}

/// The measured `repro perf` report: three modem families plus the
/// quick waterfall grid timing. This is what the `--json` path and the
/// testbed daemon's `perf` jobs both serialize — one builder, so the
/// two outputs are bit-identical for identical measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// LoRa SF8/BW125 frame workload.
    pub lora: ModemPoint,
    /// BLE GFSK beacon workload.
    pub ble: ModemPoint,
    /// 802.15.4 O-QPSK 16-byte frame workload.
    pub zigbee: ModemPoint,
    /// Points in the timed quick waterfall grid.
    pub waterfall_grid_points: u64,
    /// Best wall time of the quick waterfall grid, milliseconds.
    pub waterfall_wall_ms: f64,
}

impl PerfReport {
    /// The three modem families, keyed as in [`PerfReport::to_json`]
    /// and the `BENCH_modem.json` points.
    fn modem_fields(&self) -> Vec<(String, Value)> {
        vec![
            ("lora_sf8_frame".into(), self.lora.to_json()),
            ("ble_beacon".into(), self.ble.to_json()),
            ("zigbee_16b_frame".into(), self.zigbee.to_json()),
        ]
    }

    /// Canonical JSON form (`kind: "perf"`, `schema: 1`).
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("kind".into(), Value::str("perf")),
            ("schema".into(), Value::num(1.0)),
        ];
        fields.extend(self.modem_fields());
        fields.push((
            "waterfall_grid_points".into(),
            Value::num(self.waterfall_grid_points as f64),
        ));
        fields.push((
            "waterfall_wall_ms".into(),
            if self.waterfall_wall_ms.is_finite() {
                Value::num(self.waterfall_wall_ms)
            } else {
                Value::Null
            },
        ));
        Value::Obj(fields)
    }

    /// Rebuild a report from [`PerfReport::to_json`] output; `None` if
    /// the value is not a well-formed perf report.
    pub fn from_json(v: &Value) -> Option<PerfReport> {
        if v.get("kind").and_then(Value::as_str) != Some("perf") {
            return None;
        }
        let modem = |key: &str| ModemPoint::from_json(v.get(key)?);
        Some(PerfReport {
            lora: modem("lora_sf8_frame")?,
            ble: modem("ble_beacon")?,
            zigbee: modem("zigbee_16b_frame")?,
            waterfall_grid_points: v.get("waterfall_grid_points").and_then(Value::as_u64)?,
            waterfall_wall_ms: match v.get("waterfall_wall_ms") {
                None | Some(Value::Null) => f64::NAN,
                Some(x) => x.as_f64()?,
            },
        })
    }
}

/// LoRa SF8/BW125, the 16-byte frame of `benches/modem.rs`, through the
/// scratch-reusing frame paths in steady state.
fn measure_lora(reps: u32) -> ModemPoint {
    let m = Modulator::standard(8, 125e3, 1, 1);
    let d = Demodulator::standard(8, 125e3, 1, 1);
    let frame = Frame::from_payload(&[0u8; 16], *m.frame_params());
    let mut wave = Vec::new();
    m.modulate_frame_into(&frame, &mut wave);
    let n = wave.len() as f64;
    let t_mod = time_per_call(reps, || m.modulate_frame_into(&frame, &mut wave));
    let mut scratch = d.scratch();
    let t_demod = time_per_call(reps, || {
        d.demodulate_with(&wave, &mut scratch);
    });
    ModemPoint {
        mod_msps: n / t_mod / 1e6,
        demod_msps: n / t_demod / 1e6,
    }
}

/// BLE GFSK, the beacon workload of `benches/modem.rs`, through the
/// scratch-reusing `_into` paths.
fn measure_ble(reps: u32) -> ModemPoint {
    let m = GfskModulator::new(4);
    let d = GfskDemodulator::new(4);
    // lint: allow(unjustified-panic, perf harness aborts loudly on a malformed beacon)
    let pkt = tinysdr_ble::packet::AdvPacket::beacon([1, 2, 3, 4, 5, 6], &[0u8; 24]).expect("adv");
    let bits = pkt.to_bits(37);
    let mut scratch = GfskScratch::new();
    let mut wave = Vec::new();
    m.modulate_into(&bits, &mut scratch, &mut wave);
    let n = wave.len() as f64;
    let t_mod = time_per_call(reps, || m.modulate_into(&bits, &mut scratch, &mut wave));
    let mut rx_bits = Vec::new();
    let t_demod = time_per_call(reps, || d.demodulate_into(&wave, &mut rx_bits));
    ModemPoint {
        mod_msps: n / t_mod / 1e6,
        demod_msps: n / t_demod / 1e6,
    }
}

/// 802.15.4 O-QPSK, a 16-byte frame through the scratch-reusing
/// `_into` paths (no pre-refactor bench exists; this starts the
/// trajectory).
fn measure_zigbee(reps: u32) -> ModemPoint {
    let m = OqpskModulator::new(2);
    let d = OqpskDemodulator::new(2);
    let frame: Vec<u8> = (0..16).map(|i| (i * 97 + 13) as u8).collect();
    let symbols = bytes_to_symbols(&frame);
    let mut scratch = OqpskScratch::new();
    let mut wave = Vec::new();
    m.modulate_symbols_into(&symbols, &mut scratch, &mut wave);
    let n = wave.len() as f64;
    let t_mod = time_per_call(reps, || {
        m.modulate_symbols_into(&symbols, &mut scratch, &mut wave)
    });
    let mut rx_symbols = Vec::new();
    let t_demod = time_per_call(reps, || d.demodulate_symbols_into(&wave, &mut rx_symbols));
    ModemPoint {
        mod_msps: n / t_mod / 1e6,
        demod_msps: n / t_demod / 1e6,
    }
}

/// Time the quick waterfall grid sequentially, returning
/// `(grid points, best wall seconds over iters)`.
#[allow(clippy::disallowed_methods)] // bench harness: wall time is the measurement
fn measure_waterfall(iters: u32) -> (usize, f64) {
    let cfg = WaterfallConfig::quick(7);
    let points = run_waterfall(&cfg).points.len();
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = std::time::Instant::now(); // lint: allow(ambient-time, bench harness measures wall time)
        let rep = run_waterfall(&cfg);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(rep.points.len(), points, "grid size changed between iters");
        best = best.min(dt);
    }
    (points, best)
}

/// Run the bit-identity gate and the timed workloads, returning the
/// measurements without printing anything — the shared engine behind
/// `repro perf`, `repro perf --json`, and the testbed daemon's `perf`
/// jobs. `quick` keeps the repetition counts CI-sized.
///
/// # Panics
/// The gate `assert!`s: a hot path diverging bit-wise from its
/// reference aborts the run rather than report timings for wrong code.
pub fn measure_perf(quick: bool) -> PerfReport {
    gate_chain_bit_identity();
    // short bursts: long sustained loops depress clocks on small
    // machines and skew the best-sample estimate downward
    let reps = if quick { 10 } else { 20 };
    let lora = measure_lora(reps);
    let ble = measure_ble(reps);
    let zigbee = measure_zigbee(reps);
    let (points, wall_s) = measure_waterfall(if quick { 2 } else { 5 });
    PerfReport {
        lora,
        ble,
        zigbee,
        waterfall_grid_points: points as u64,
        waterfall_wall_ms: wall_s * 1e3,
    }
}

/// The `repro perf` entry point: the bit-identity gate, timed modem and
/// waterfall runs, and one point appended to each of the two
/// trajectory files, both carrying the caller's `label` (for example a
/// revision or change name) when one is given. `quick` keeps the
/// repetition counts CI-sized and
/// skips the wall-clock gate (shared runners are not the recording
/// machine); the full run enforces `REQUIRED_WATERFALL_SPEEDUP` (1.5×)
/// against the `pre-batching` point recorded in `BENCH_waterfall.json`.
///
/// # Panics
/// In full mode, if that point is missing or the gate fails.
pub fn perf(quick: bool, label: Option<&str>) {
    println!("== Hot-path perf: allocation-free batched DSP, gated trajectories ==\n");
    let pre_ms = pre_batching_wall_ms(WATERFALL_TRAJECTORY);
    assert!(
        quick || pre_ms.is_some(),
        "waterfall perf gate: {WATERFALL_TRAJECTORY} has no pre-batching point with a \
         finite wall_ms, so the full run has no baseline to gate against"
    );
    let pre_ms = pre_ms.unwrap_or(f64::NAN);
    let report = measure_perf(quick);
    println!("gate: apply == recorded digest == prepared replay, bit-identical (all nine stages)");

    let (lora, ble, zigbee) = (&report.lora, &report.ble, &report.zigbee);
    println!(
        "modem throughput (Msamples/s): LoRa SF8 mod {:.1} / demod {:.1} | \
         BLE mod {:.1} / demod {:.1} | 802.15.4 mod {:.1} / demod {:.1}",
        lora.mod_msps,
        lora.demod_msps,
        ble.mod_msps,
        ble.demod_msps,
        zigbee.mod_msps,
        zigbee.demod_msps
    );

    let points = report.waterfall_grid_points as f64;
    let wall_ms = report.waterfall_wall_ms;
    let speedup = pre_ms / wall_ms;
    println!(
        "waterfall quick grid: {points} points in {wall_ms:.1} ms ({:.0} points/s) — \
         {speedup:.2}x vs the recorded pre-batching {pre_ms:.1} ms",
        points / (wall_ms / 1e3),
    );

    // the caller's label names both points; without one they carry none
    let modem = labelled(label, report.modem_fields());
    let waterfall = labelled(
        label,
        vec![
            ("grid".into(), Value::str("quick")),
            ("shards".into(), Value::num(1.0)),
            ("grid_points".into(), Value::num(points)),
            ("wall_ms".into(), Value::num(wall_ms)),
            ("points_per_s".into(), Value::num(points / (wall_ms / 1e3))),
            ("speedup_vs_pre".into(), Value::num(speedup)),
        ],
    );
    for (path, experiment, fields) in [
        ("BENCH_modem.json", "modem_perf", modem),
        (WATERFALL_TRAJECTORY, "waterfall_perf", waterfall),
    ] {
        match record(path, experiment, quick, fields) {
            Ok(()) => println!("trajectory point appended to {path}"),
            Err(e) => println!("could not write {path}: {e}"),
        }
    }

    if !quick {
        assert!(
            speedup >= REQUIRED_WATERFALL_SPEEDUP,
            "waterfall perf gate: {speedup:.2}x < required {REQUIRED_WATERFALL_SPEEDUP}x \
             vs the recorded pre-batching measurement"
        );
        println!("perf gate: {speedup:.2}x >= {REQUIRED_WATERFALL_SPEEDUP}x, holds");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_report_json_round_trips() {
        let rep = PerfReport {
            lora: ModemPoint {
                mod_msps: 357.679,
                demod_msps: 20.38,
            },
            ble: ModemPoint {
                mod_msps: 56.778,
                demod_msps: 28.629,
            },
            zigbee: ModemPoint {
                mod_msps: 11.5,
                demod_msps: 4.25,
            },
            waterfall_grid_points: 57,
            waterfall_wall_ms: 92.125,
        };
        let doc = rep.to_json().write_pretty();
        let parsed =
            PerfReport::from_json(&Value::parse(&doc).expect("parses")).expect("valid perf json");
        assert_eq!(parsed, rep);
        assert_eq!(rep.to_json().write_pretty(), doc);
    }

    #[test]
    fn non_finite_throughput_serializes_as_null_and_reads_back_nan() {
        let rep = PerfReport {
            lora: ModemPoint {
                mod_msps: 1.0,
                demod_msps: 2.0,
            },
            ble: ModemPoint {
                mod_msps: 3.0,
                demod_msps: 4.0,
            },
            zigbee: ModemPoint {
                mod_msps: f64::NAN,
                demod_msps: f64::NAN,
            },
            waterfall_grid_points: 1,
            waterfall_wall_ms: 5.0,
        };
        let doc = rep.to_json().write();
        assert!(doc.contains("\"zigbee_16b_frame\":{\"modulate_msps\":null"));
        let parsed = PerfReport::from_json(&Value::parse(&doc).unwrap()).unwrap();
        assert!(parsed.zigbee.mod_msps.is_nan() && parsed.zigbee.demod_msps.is_nan());
    }

    #[test]
    fn committed_waterfall_trajectory_holds_the_gate_baseline() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_waterfall.json");
        let pre_ms = pre_batching_wall_ms(path).expect("pre-batching point with a finite wall_ms");
        assert!(pre_ms > 0.0, "{pre_ms}");
    }

    #[test]
    fn chain_gate_holds() {
        gate_chain_bit_identity();
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let v = Value::parse("{\"kind\":\"campaign\",\"schema\":1}").unwrap();
        assert!(PerfReport::from_json(&v).is_none());
    }
}
