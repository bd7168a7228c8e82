//! PHY-layer experiments: Figs. 8, 10, 11, 12, 15.
//!
//! These run the real modems through calibrated AWGN, sweeping RSSI the
//! way the paper's cabled/field experiments swept received power.

use tinysdr_ble::gfsk::{count_bit_errors, GfskDemodulator, GfskModulator};
use tinysdr_ble::packet::AdvPacket;
use tinysdr_dsp::chirp::ChirpConfig;
use tinysdr_dsp::executor::map_in_order;
use tinysdr_dsp::spectrum::{welch, WelchConfig};
use tinysdr_dsp::stats::threshold_crossing;
use tinysdr_lora::concurrent::ConcurrentReceiver;
use tinysdr_lora::demodulator::Demodulator;
use tinysdr_lora::modulator::{single_tone, Modulator, ReferenceModulator};
use tinysdr_lora::packet::FrameParams;
use tinysdr_lora::phy::CodeParams;
use tinysdr_rf::at86rf215;
use tinysdr_rf::channel::{set_rssi, superpose, AwgnChannel};
use tinysdr_rf::sx1276;

use crate::{bench_shards, Series};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fig. 8: single-tone TX spectrum through the 13-bit DAC.
/// Returns `(spectrum series around the carrier, worst spur dBc)`.
pub fn fig8(seed: u64) -> (Series, f64) {
    let _ = seed;
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

/// One PER measurement: `packets` three-byte-payload frames at `rssi`.
fn lora_per_point(tinysdr_tx: bool, bw: f64, rssi: f64, packets: u32, seed: u64) -> f64 {
    let chirp = ChirpConfig::new(8, bw, 1);
    // CR 4/8: the diagonal interleaver spreads one corrupted symbol to
    // at most one bit per codeword, so Hamming(8,4) absorbs isolated
    // symbol errors — this is what puts LoRa packets at the datasheet
    // sensitivity rather than the raw-symbol threshold
    let code = CodeParams::new(8, 4);
    let fp = FrameParams::new(code);
    // Fig. 10's receiver is an SX1276 → reference demodulator with the
    // SX1276 noise figure
    let demod = Demodulator::new(chirp, fp);
    let payload = [0xA5u8, 0x5A, 0xC3];
    let mut errors = 0u32;
    for k in 0..packets {
        let mut sig = if tinysdr_tx {
            Modulator::new(chirp, fp).modulate(&payload)
        } else {
            ReferenceModulator::new(chirp, fp).modulate(&payload)
        };
        let mut ch = AwgnChannel::new(sx1276::NOISE_FIGURE_DB, seed ^ (k as u64) << 16);
        ch.apply(&mut sig, rssi, chirp.fs());
        let ok = demod
            .demodulate(&sig)
            .map(|f| f.crc_ok && f.payload == payload)
            .unwrap_or(false);
        if !ok {
            errors += 1;
        }
    }
    errors as f64 / packets as f64
}

/// Fig. 10: LoRa modulator PER vs RSSI — TinySDR TX and SX1276 TX, both
/// at SF8 with BW 125 and 250 kHz, received on the SX1276-model
/// receiver. Returns the four curves (PER in %).
pub fn fig10(packets: u32, seed: u64) -> Vec<Series> {
    let sweep: Vec<f64> = (-135..=-99).step_by(2).map(|x| x as f64).collect();
    let mut out = Vec::new();
    for (label, tinysdr_tx, bw) in [
        ("TinySDR SF8 BW250", true, 250e3),
        ("TinySDR SF8 BW125", true, 125e3),
        ("SX1276 SF8 BW250", false, 250e3),
        ("SX1276 SF8 BW125", false, 125e3),
    ] {
        let pts = map_in_order(&sweep, bench_shards(), |&rssi| {
            lora_per_point(tinysdr_tx, bw, rssi, packets, seed ^ (rssi as i64 as u64))
        });
        let mut s = Series::new(label);
        for (x, y) in sweep.iter().zip(pts) {
            s.push(*x, y * 100.0);
        }
        out.push(s);
    }
    out
}

/// Extract a 10%-PER sensitivity estimate from a Fig. 10-style curve.
pub fn curve_sensitivity_dbm(s: &Series, threshold_percent: f64) -> Option<f64> {
    let pts: Vec<(f64, f64)> = s.points.iter().map(|&(x, y)| (x, y / 100.0)).collect();
    threshold_crossing(&pts, threshold_percent / 100.0)
}

/// Fig. 11: TinySDR demodulator chirp-symbol error rate vs RSSI
/// (SX1276-model transmitter, TinySDR receiver at NF 4.5 dB).
pub fn fig11(symbols: usize, seed: u64) -> Vec<Series> {
    let sweep: Vec<f64> = (-140..=-100).step_by(2).map(|x| x as f64).collect();
    let mut out = Vec::new();
    for (label, bw) in [("SF8 BW250", 250e3), ("SF8 BW125", 125e3)] {
        let chirp = ChirpConfig::new(8, bw, 1);
        let code = CodeParams::new(8, 1);
        let demod = Demodulator::new(chirp, FrameParams::new(code));
        let tx = ReferenceModulator::new(chirp, FrameParams::new(code));
        let pts = map_in_order(&sweep, bench_shards(), |&rssi| {
            let mut rng = StdRng::seed_from_u64(seed ^ (rssi as i64 as u64) << 3);
            let syms: Vec<u16> = (0..symbols).map(|_| rng.gen_range(0..256)).collect();
            let mut sig = tx.modulate_symbols(&syms);
            let mut ch = AwgnChannel::new(at86rf215::NOISE_FIGURE_DB, seed ^ (rssi as i64 as u64));
            ch.apply(&mut sig, rssi, chirp.fs());
            demod.symbol_error_rate(&sig, &syms) * 100.0
        });
        let mut s = Series::new(label);
        for (x, y) in sweep.iter().zip(pts) {
            s.push(*x, y);
        }
        out.push(s);
    }
    out
}

/// The CC2650-class effective noise figure now lives with the GFSK
/// modem itself; re-exported here for the experiment code and older
/// callers.
pub use tinysdr_ble::gfsk::CC2650_NOISE_FIGURE_DB;

/// Fig. 12: BLE beacon BER vs RSSI (TinySDR beacons, CC2650-class
/// matched-template receiver). Returns the curve plus the CC2650
/// reference sensitivity line the paper draws at BER 1e-3.
pub fn fig12(bits_per_point: usize, seed: u64) -> (Series, f64) {
    let sps = 4; // 4 MS/s at 1 Mbit/s — the radio's native rate
    let m = GfskModulator::new(sps);
    let d = GfskDemodulator::new(sps);
    // lint: allow(unjustified-panic, static 24-byte payload is within the 31-byte AD limit)
    let pkt = AdvPacket::beacon([0xB0, 0x0B, 0x1E, 0x50, 0x5E, 0xC7], &[0x42; 24]).unwrap();
    let bits = pkt.to_bits(37);
    let base = m.modulate(&bits);
    let reps = bits_per_point.div_ceil(bits.len());

    let sweep: Vec<f64> = (-104..=-60).step_by(2).map(|x| x as f64).collect();
    let pts = map_in_order(&sweep, bench_shards(), |&rssi| {
        let mut errs = 0u64;
        let mut total = 0u64;
        for r in 0..reps {
            let mut sig = base.clone();
            let mut ch = AwgnChannel::new(
                CC2650_NOISE_FIGURE_DB,
                seed ^ (rssi as i64 as u64) << 8 ^ r as u64,
            );
            ch.apply(&mut sig, rssi, m.fs());
            let rx = d.demodulate(&sig);
            let (e, n) = count_bit_errors(&bits, &rx);
            errs += e;
            total += n;
        }
        errs as f64 / total as f64
    });
    let mut s = Series::new("BLE packet BER");
    for (x, y) in sweep.iter().zip(pts) {
        s.push(*x, y);
    }
    // TI CC2650 datasheet sensitivity (BER 1e-3): −96 dBm at 1 Mbps BLE
    (s, -96.0)
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
    let mut rx = superpose(&siga, &sigb);
    let mut ch = AwgnChannel::new(at86rf215::NOISE_FIGURE_DB, seed ^ 0xCC);
    ch.add_noise(&mut rx, 500e3);
    let rcv = ConcurrentReceiver::paper_pair();
    let sers = rcv.symbol_error_rates(&rx, &[sa, sb]);
    (sers[0], sers[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_spur_floor() {
        let (_, spur) = fig8(1);
        // 13-bit DAC + 10-bit LUT: spurs well below −55 dBc ("no
        // unexpected harmonics")
        assert!(spur < -55.0, "worst spur {spur} dBc");
    }

    #[test]
    fn fig10_sensitivity_close_to_minus126() {
        // small-trial smoke version of the full figure
        let curves = fig10(25, 7);
        let tinysdr_bw125 = curves
            .iter()
            .find(|s| s.label == "TinySDR SF8 BW125")
            .unwrap();
        let sens = curve_sensitivity_dbm(tinysdr_bw125, 10.0).expect("curve must cross 10% PER");
        assert!((sens + 126.0).abs() < 3.0, "sensitivity {sens} dBm");
        // BW250 costs ≈3 dB
        let bw250 = curves
            .iter()
            .find(|s| s.label == "TinySDR SF8 BW250")
            .unwrap();
        let sens250 = curve_sensitivity_dbm(bw250, 10.0).unwrap();
        assert!(
            sens250 > sens + 1.0 && sens250 < sens + 5.5,
            "BW250 {sens250}"
        );
    }

    #[test]
    fn fig10_tinysdr_comparable_to_sx1276() {
        let curves = fig10(25, 3);
        let t = curve_sensitivity_dbm(
            curves
                .iter()
                .find(|s| s.label == "TinySDR SF8 BW125")
                .unwrap(),
            10.0,
        )
        .unwrap();
        let r = curve_sensitivity_dbm(
            curves
                .iter()
                .find(|s| s.label == "SX1276 SF8 BW125")
                .unwrap(),
            10.0,
        )
        .unwrap();
        // "comparable sensitivity": within 1.5 dB of each other
        assert!((t - r).abs() < 1.5, "TinySDR {t} vs SX1276 {r}");
    }

    #[test]
    fn fig11_demod_sensitivity() {
        let curves = fig11(120, 5);
        let bw125 = curves.iter().find(|s| s.label == "SF8 BW125").unwrap();
        // paper: "can demodulate chirp symbols down to −126 dBm" — the
        // figure shows ≈0% SER at −126 with the transition below it
        // (TinySDR's 4.5 dB NF front end beats the SX1276's 7 dB)
        let at_126 = bw125.points.iter().find(|p| p.0 == -126.0).unwrap().1;
        assert!(at_126 < 10.0, "SER at -126 dBm: {at_126}%");
        let sens = curve_sensitivity_dbm(bw125, 10.0).expect("crossing");
        assert!(sens < -126.0 && sens > -136.0, "10% crossing {sens} dBm");
        // BW250 transitions ~3 dB earlier
        let bw250 = curves.iter().find(|s| s.label == "SF8 BW250").unwrap();
        let sens250 = curve_sensitivity_dbm(bw250, 10.0).expect("crossing");
        assert!(sens250 > sens + 1.0 && sens250 < sens + 5.5);
    }

    #[test]
    fn fig12_ble_sensitivity_near_cc2650_line() {
        let (curve, cc2650) = fig12(30_000, 9);
        let pts: Vec<(f64, f64)> = curve.points.clone();
        let sens =
            tinysdr_dsp::stats::threshold_crossing(&pts, 1e-3).expect("BER curve crosses 1e-3");
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
        let sens_conc = curve_sensitivity_dbm(c125, 10.0).expect("crossing");
        let solo = fig11(80, 11);
        let s125 = solo.iter().find(|s| s.label == "SF8 BW125").unwrap();
        let sens_solo = curve_sensitivity_dbm(s125, 10.0).expect("crossing");
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
