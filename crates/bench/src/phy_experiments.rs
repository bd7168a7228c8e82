//! PHY-layer experiments: Figs. 8, 10, 11, 12, 15.
//!
//! Figs. 10–12 are views of the conformance waterfall
//! ([`crate::waterfall::run_waterfall`]): each sweeps RSSI over the
//! single `clean` chain (calibrated AWGN at the receiver's noise
//! figure), and its sensitivity is the report's threshold crossing.
//! Figs. 8 and 15 run their own scenes: a DAC spectrum, and two
//! transmitters summed at one receiver.

use tinysdr_dsp::chirp::ChirpConfig;
use tinysdr_dsp::executor::map_in_order;
use tinysdr_dsp::spectrum::{welch, WelchConfig};
use tinysdr_lora::concurrent::ConcurrentReceiver;
use tinysdr_lora::modem::{LoraPerPhy, LoraSerPhy};
use tinysdr_lora::modulator::{single_tone, Modulator, Transmitter};
use tinysdr_lora::packet::FrameParams;
use tinysdr_lora::phy::CodeParams;
use tinysdr_rf::at86rf215;
use tinysdr_rf::channel::{measure_rssi_dbm, set_rssi, superpose};
use tinysdr_rf::impairments::ImpairmentChain;

use crate::waterfall::{
    run_waterfall, NamedImpairment, RssiGrid, Scenario, SweepScenario, WaterfallConfig,
    WaterfallReport,
};
use crate::{bench_shards, Series};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The error rate at which Figs. 10 and 11 read a sensitivity.
const LORA_THRESHOLD: f64 = 0.10;

/// Fig. 8: single-tone TX spectrum through the 13-bit DAC.
/// Returns `(spectrum series around the carrier, worst spur dBc)`.
pub fn fig8() -> (Series, f64) {
    let fs = at86rf215::SAMPLE_RATE_HZ;
    // the paper transmits near 915 MHz; baseband shows the tone offset
    let tone = single_tone(500e3, fs, 1 << 16);
    // pass through the radio's 13-bit DAC
    let q = tinysdr_dsp::fixed::Quantizer::AT86RF215;
    let dac: Vec<_> = tone.iter().map(|&z| q.round_trip_iq(z)).collect();
    let spec = welch(&dac, fs, &WelchConfig::default());
    let (_, peak) = spec.peak();
    let mut s = Series::new("Power (dB rel. carrier)");
    for (f, p) in spec.to_db(peak) {
        // plot ±3 MHz around the carrier like the figure's 912..918 MHz
        if f.abs() <= 3e6 {
            s.push(915.0 + f / 1e6, p);
        }
    }
    let spur = spec.worst_spur_dbc(8).unwrap_or(-200.0);
    (s, spur)
}

/// Sweep `scenarios` over the single `clean` chain at `seed`, sharded.
fn clean_sweep(scenarios: Vec<SweepScenario>, seed: u64) -> WaterfallReport {
    run_waterfall(&WaterfallConfig {
        seed,
        shards: bench_shards(),
        scenarios,
        impairments: vec![NamedImpairment::new("clean", ImpairmentChain::new(0.0))],
    })
}

/// The `clean` curve of `scenario` in `report` as a series named
/// `label` (error rate × `scale`), paired with its `threshold`
/// sensitivity.
fn view(
    report: &WaterfallReport,
    scenario: &str,
    label: String,
    scale: f64,
    threshold: f64,
) -> (Series, Option<f64>) {
    let mut s = Series::new(label);
    for (x, y) in report.curve(scenario, "clean") {
        s.push(x, y * scale);
    }
    (s, report.sensitivity_dbm(scenario, "clean", threshold))
}

/// One SF8 LoRa scenario per bandwidth (250, then 125 kHz) swept over
/// the clean chain at `seed`, each curve (error rate in %) labelled
/// `"{prefix}SF8 BW…"` with its 10 % sensitivity.
fn lora_curves(
    prefix: &str,
    seed: u64,
    scenario: impl Fn(f64) -> SweepScenario,
) -> Vec<(Series, Option<f64>)> {
    let bws = [250e3, 125e3];
    let report = clean_sweep(bws.iter().map(|&bw| scenario(bw)).collect(), seed);
    report
        .scenario_labels()
        .iter()
        .zip(bws)
        .map(|(sc, bw)| {
            let label = format!("{prefix}SF8 BW{}", bw / 1e3);
            view(&report, sc, label, 100.0, LORA_THRESHOLD)
        })
        .collect()
}

/// Fig. 10: LoRa modulator PER vs RSSI — TinySDR TX and SX1276 TX, both
/// at SF8 CR 4/8 with BW 250 and 125 kHz, `packets` three-byte frames
/// per point, received on the SX1276-model receiver. Both transmitters
/// run at the same `seed`, so they see the same frames and channel
/// draws. Returns the four curves (PER in %) with their 10 %-PER
/// sensitivities.
pub fn fig10(packets: u32, seed: u64) -> Vec<(Series, Option<f64>)> {
    let transmitters = [
        ("TinySDR ", Transmitter::TinySdr),
        ("SX1276 ", Transmitter::Sx1276),
    ];
    transmitters
        .into_iter()
        .flat_map(|(prefix, tx)| {
            lora_curves(prefix, seed, |bw| {
                // CR 4/8: the diagonal interleaver spreads one corrupted
                // symbol to at most one bit per codeword, so Hamming(8,4)
                // absorbs isolated symbol errors — this is what puts LoRa
                // packets at the datasheet sensitivity rather than the
                // raw-symbol threshold
                let phy = LoraPerPhy::new(8, bw, 4).with_transmitter(tx);
                SweepScenario::new(Box::new(phy), 3)
                    .with_passes(packets)
                    .with_rssi(RssiGrid::new(-135, -99, 2))
            })
        })
        .collect()
}

/// Fig. 11: TinySDR demodulator chirp-symbol error rate vs RSSI at SF8,
/// BW 250 and 125 kHz (SX1276-model transmitter, TinySDR receiver at
/// NF 4.5 dB), `symbols` random chirps per point. Returns both curves
/// (SER in %) with their 10 %-SER sensitivities.
pub fn fig11(symbols: usize, seed: u64) -> Vec<(Series, Option<f64>)> {
    lora_curves("", seed, |bw| {
        let phy = LoraSerPhy::new(8, bw).with_transmitter(Transmitter::Sx1276);
        // SF8: one byte per chirp symbol
        SweepScenario::new(Box::new(phy), symbols).with_rssi(RssiGrid::new(-140, -100, 2))
    })
}

/// Fig. 12: BLE BER vs RSSI (TinySDR GFSK transmitter, CC2650-class
/// matched-template receiver), `bits` random bits per point. Returns
/// the curve with its BER-1e-3 sensitivity; the paper's reference line
/// is [`tinysdr_ble::modem::CC2650_SENSITIVITY_DBM`].
pub fn fig12(bits: usize, seed: u64) -> (Series, Option<f64>) {
    let scenario = Scenario::ble_ber(4, bits).with_rssi(RssiGrid::new(-104, -60, 2));
    let label = scenario.label();
    let report = clean_sweep(vec![scenario], seed);
    view(&report, &label, "BLE packet BER".into(), 1.0, 1e-3)
}

/// Fig. 15a: concurrent orthogonal LoRa, equal receive power. Returns
/// SER-vs-RSSI for both lanes (percent).
pub fn fig15a(symbols: usize, seed: u64) -> Vec<Series> {
    let sweep: Vec<f64> = (-130..=-100).step_by(2).map(|x| x as f64).collect();
    let pts = map_in_order(&sweep, bench_shards(), |&rssi| {
        concurrent_point(rssi, rssi, symbols, seed)
    });
    let mut s125 = Series::new("SF8 BW125 (concurrent)");
    let mut s250 = Series::new("SF8 BW250 (concurrent)");
    for (x, (a, b)) in sweep.iter().zip(pts) {
        s125.push(*x, a * 100.0);
        s250.push(*x, b * 100.0);
    }
    vec![s125, s250]
}

/// Fig. 15b: BW125 lane fixed near sensitivity (−123 dBm), interferer
/// power swept. Returns the BW125 lane SER (percent) vs interferer
/// power.
pub fn fig15b(symbols: usize, seed: u64) -> Series {
    let sweep: Vec<f64> = (-130..=-100).step_by(1).map(|x| x as f64).collect();
    let pts = map_in_order(&sweep, bench_shards(), |&int_rssi| {
        concurrent_point(-123.0, int_rssi, symbols, seed).0
    });
    let mut s = Series::new("SF8 BW125 @ -123 dBm");
    for (x, y) in sweep.iter().zip(pts) {
        s.push(*x, y * 100.0);
    }
    s
}

/// Run the two-transmitter §6 scene and return both lanes' SERs.
fn concurrent_point(rssi_125: f64, rssi_250: f64, symbols: usize, seed: u64) -> (f64, f64) {
    let cfg_a = ChirpConfig::new(8, 125e3, 4);
    let cfg_b = ChirpConfig::new(8, 250e3, 2);
    let code = CodeParams::new(8, 1);
    let ma = Modulator::new(cfg_a, FrameParams::new(code));
    let mb = Modulator::new(cfg_b, FrameParams::new(code));
    let mut rng =
        StdRng::seed_from_u64(seed ^ (rssi_125 as i64 as u64) << 7 ^ (rssi_250 as i64 as u64));
    let sa: Vec<u16> = (0..symbols).map(|_| rng.gen_range(0..256)).collect();
    let sb: Vec<u16> = (0..symbols * 2).map(|_| rng.gen_range(0..256)).collect();
    let mut siga = ma.modulate_symbols(&sa);
    let mut sigb = mb.modulate_symbols(&sb);
    set_rssi(&mut siga, rssi_125);
    set_rssi(&mut sigb, rssi_250);
    let sum = superpose(&siga, &sigb);
    let rx = ImpairmentChain::new(at86rf215::NOISE_FIGURE_DB).apply(
        &sum,
        measure_rssi_dbm(&sum),
        500e3,
        seed ^ 0xCC,
    );
    let rcv = ConcurrentReceiver::paper_pair();
    let sers = rcv.symbol_error_rates(&rx, &[sa, sb]);
    (sers[0], sers[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinysdr_ble::modem::CC2650_SENSITIVITY_DBM;
    use tinysdr_dsp::stats::threshold_crossing;

    /// The curve labelled `label` among `curves`.
    fn find<'a>(curves: &'a [(Series, Option<f64>)], label: &str) -> &'a (Series, Option<f64>) {
        curves.iter().find(|(s, _)| s.label == label).unwrap()
    }

    #[test]
    fn fig8_spur_floor() {
        let (_, spur) = fig8();
        // 13-bit DAC + 10-bit LUT: spurs well below −55 dBc ("no
        // unexpected harmonics")
        assert!(spur < -55.0, "worst spur {spur} dBc");
    }

    #[test]
    fn fig10_sensitivity_close_to_minus126() {
        // small-trial smoke version of the full figure
        let curves = fig10(25, 7);
        let sens = find(&curves, "TinySDR SF8 BW125")
            .1
            .expect("curve must cross 10% PER");
        assert!((sens + 126.0).abs() < 3.0, "sensitivity {sens} dBm");
        // BW250 costs ≈3 dB
        let sens250 = find(&curves, "TinySDR SF8 BW250").1.unwrap();
        assert!(
            sens250 > sens + 1.0 && sens250 < sens + 5.5,
            "BW250 {sens250}"
        );
    }

    #[test]
    fn fig10_tinysdr_comparable_to_sx1276() {
        let curves = fig10(25, 3);
        let t = find(&curves, "TinySDR SF8 BW125").1.unwrap();
        let r = find(&curves, "SX1276 SF8 BW125").1.unwrap();
        // "comparable sensitivity": within 1.5 dB of each other
        assert!((t - r).abs() < 1.5, "TinySDR {t} vs SX1276 {r}");
    }

    #[test]
    fn fig11_demod_sensitivity() {
        let curves = fig11(120, 5);
        let (bw125, sens) = find(&curves, "SF8 BW125");
        // paper: "can demodulate chirp symbols down to −126 dBm" — the
        // figure shows ≈0% SER at −126 with the transition below it
        // (TinySDR's 4.5 dB NF front end beats the SX1276's 7 dB)
        let at_126 = bw125.points.iter().find(|p| p.0 == -126.0).unwrap().1;
        assert!(at_126 < 10.0, "SER at -126 dBm: {at_126}%");
        let sens = sens.expect("crossing");
        assert!(sens < -126.0 && sens > -136.0, "10% crossing {sens} dBm");
        // BW250 transitions ~3 dB earlier
        let sens250 = find(&curves, "SF8 BW250").1.expect("crossing");
        assert!(sens250 > sens + 1.0 && sens250 < sens + 5.5);
    }

    #[test]
    fn fig12_ble_sensitivity_near_cc2650_line() {
        let (curve, sens) = fig12(30_000, 9);
        let cc2650 = CC2650_SENSITIVITY_DBM;
        let sens = sens.expect("BER curve crosses 1e-3");
        // the paper reports −94 (CC2650 line −96/−97); our clean-TX
        // simulation sits on the CC2650 line itself — assert the curve
        // lands between the paper's figure and the datasheet reference
        assert!(sens > -100.0 && sens < -91.0, "BLE sensitivity {sens} dBm");
        assert!(
            (sens - cc2650).abs() < 3.5,
            "vs CC2650 line {cc2650}: {sens}"
        );
        // waterfall shape: monotone non-increasing BER with RSSI
        for w in curve.points.windows(4) {
            assert!(w[3].1 <= w[0].1 + 5e-3, "BER not falling near {}", w[0].0);
        }
    }

    #[test]
    fn fig15a_loses_couple_db() {
        // concurrent BW125 sensitivity vs solo Fig. 11: ≈2 dB worse
        let conc = fig15a(80, 11);
        let c125 = conc.iter().find(|s| s.label.contains("BW125")).unwrap();
        let rates: Vec<(f64, f64)> = c125.points.iter().map(|&(x, y)| (x, y / 100.0)).collect();
        let sens_conc = threshold_crossing(&rates, LORA_THRESHOLD).expect("crossing");
        let solo = fig11(80, 11);
        let sens_solo = find(&solo, "SF8 BW125").1.expect("crossing");
        let loss = sens_conc - sens_solo;
        assert!(loss > -0.5 && loss < 4.5, "concurrency loss {loss} dB");
    }

    #[test]
    fn fig15b_knee_near_noise_floor() {
        let s = fig15b(60, 13);
        // quiet interferer: decodable; loud interferer: degraded. (Our
        // quantized chirps are cleaner than the paper's hardware, so the
        // knee sits a few dB higher — see EXPERIMENTS.md.)
        let at_quiet = s.points.iter().find(|p| p.0 == -130.0).unwrap().1;
        let at_loud = s.points.iter().find(|p| p.0 == -100.0).unwrap().1;
        assert!(at_quiet < 35.0, "SER at quiet interferer {at_quiet}%");
        assert!(
            at_loud > at_quiet + 12.0,
            "loud interferer must hurt: quiet {at_quiet}% loud {at_loud}%"
        );
    }
}
