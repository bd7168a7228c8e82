//! Channel helpers: RSSI scaling and measurement, carrier and integer
//! timing offsets, and the two-transmitter sum.
//!
//! Receiver noise lives in one place, stage 8 of
//! [`crate::impairments::ImpairmentChain`]: the paper's sensitivity
//! sweeps (Figs. 10–12, 15) step the received signal strength while the
//! noise stays fixed by physics, `N = −174 dBm/Hz + 10·log10(fs) + NF`.

use tinysdr_dsp::complex::{mean_power, normalize_power, Complex};

use crate::units::dbm_to_mw;

/// Scale a signal buffer so its mean power equals `rssi_dbm` (no noise).
pub fn set_rssi(sig: &mut [Complex], rssi_dbm: f64) {
    normalize_power(sig, dbm_to_mw(rssi_dbm));
}

/// Measured RSSI of a buffer in dBm.
pub fn measure_rssi_dbm(sig: &[Complex]) -> f64 {
    crate::units::mw_to_dbm(mean_power(sig))
}

/// Apply a carrier frequency offset of `cfo_hz` (receiver LO error).
pub fn apply_cfo(sig: &mut [Complex], cfo_hz: f64, fs: f64) {
    let w = std::f64::consts::TAU * cfo_hz / fs;
    for (n, s) in sig.iter_mut().enumerate() {
        *s *= Complex::from_angle(w * n as f64);
    }
}

/// Prepend `n` samples of silence (integer timing offset).
pub fn apply_delay(sig: &[Complex], n: usize) -> Vec<Complex> {
    let mut out = vec![Complex::ZERO; n];
    out.extend_from_slice(sig);
    out
}

/// Sum two transmissions sample-by-sample, zero-padding the shorter one —
/// the collision channel for the concurrent-reception study.
pub fn superpose(a: &[Complex], b: &[Complex]) -> Vec<Complex> {
    let n = a.len().max(b.len());
    (0..n)
        .map(|i| {
            let x = a.get(i).copied().unwrap_or(Complex::ZERO);
            let y = b.get(i).copied().unwrap_or(Complex::ZERO);
            x + y
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impairments::ImpairmentChain;
    use crate::units::{mw_to_dbm, noise_floor_dbm, thermal_noise_dbm};
    use tinysdr_dsp::nco::ideal_tone;

    /// `n` samples of the chain's stage-8 noise: a silent waveform has no
    /// RSSI gain, so its capture is the noise alone.
    fn chain_noise(nf: f64, n: usize, fs: f64, seed: u64) -> Vec<Complex> {
        ImpairmentChain::new(nf).apply(&vec![Complex::ZERO; n], 0.0, fs, seed)
    }

    #[test]
    fn rssi_scaling_is_exact() {
        let mut sig = ideal_tone(1000.0, 1e6, 4096);
        set_rssi(&mut sig, -100.0);
        assert!((measure_rssi_dbm(&sig) + 100.0).abs() < 0.01);
    }

    #[test]
    fn noise_power_matches_physics() {
        let fs = 1e6;
        let noise = chain_noise(6.0, 200_000, fs, 42);
        let p_dbm = mw_to_dbm(mean_power(&noise));
        let expect = thermal_noise_dbm(fs) + 6.0;
        assert!((p_dbm - expect).abs() < 0.1, "noise {p_dbm} vs {expect}");
    }

    #[test]
    fn noise_power_tracks_fs_and_nf_across_the_grid() {
        // the calibration every waterfall leans on: injected noise power
        // must equal noise_floor_dbm(fs, nf) for every (fs, NF) the
        // sweeps use — LoRa 125/500 kHz, BLE 4 MHz, both front ends
        for (i, &fs) in [125e3, 500e3, 4e6].iter().enumerate() {
            for (j, &nf) in [3.0, 4.5, 6.7, 7.0].iter().enumerate() {
                let noise = chain_noise(nf, 150_000, fs, 1000 + (i * 7 + j) as u64);
                let got = mw_to_dbm(mean_power(&noise));
                let want = noise_floor_dbm(fs, nf);
                assert!(
                    (got - want).abs() < 0.15,
                    "fs {fs} NF {nf}: {got:.2} vs {want:.2} dBm"
                );
            }
        }
    }

    #[test]
    fn set_rssi_measure_rssi_round_trip_over_the_sweep_range() {
        // the x-axis of every waterfall: scaling to a target RSSI and
        // reading it back must agree over the full sweep span, for both
        // a tone and a noise-like waveform
        let noise_like = chain_noise(0.0, 8192, 1e6, 55);
        let tone = ideal_tone(3000.0, 1e6, 8192);
        for rssi in [-140.0, -126.0, -109.0, -94.0, -60.0, 0.0] {
            for base in [&tone, &noise_like] {
                let mut sig = base.clone();
                set_rssi(&mut sig, rssi);
                let got = measure_rssi_dbm(&sig);
                assert!((got - rssi).abs() < 1e-9, "set {rssi} measured {got} dBm");
            }
        }
    }

    #[test]
    fn noise_is_complex_circular() {
        let noise = chain_noise(0.0, 100_000, 1e6, 9);
        let mean: Complex = noise.iter().copied().sum::<Complex>() / noise.len() as f64;
        assert!(mean.abs() < 0.001 * mean_power(&noise).sqrt() * 100.0);
        // I and Q power split equally
        let pi: f64 = noise.iter().map(|z| z.re * z.re).sum::<f64>();
        let pq: f64 = noise.iter().map(|z| z.im * z.im).sum::<f64>();
        assert!((pi / pq - 1.0).abs() < 0.05);
    }

    #[test]
    fn cfo_shifts_tone() {
        use tinysdr_dsp::fft::{fft, peak_bin};
        let fs = 1e6;
        let n = 1024;
        let mut sig = ideal_tone(100.0 * fs / n as f64, fs, n);
        apply_cfo(&mut sig, 50.0 * fs / n as f64, fs);
        let (k, _) = peak_bin(&fft(&sig)).unwrap();
        assert_eq!(k, 150);
    }

    #[test]
    fn superpose_pads_shorter() {
        let a = vec![Complex::ONE; 10];
        let b = vec![Complex::ONE; 4];
        let s = superpose(&a, &b);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], Complex::new(2.0, 0.0));
        assert_eq!(s[9], Complex::ONE);
    }

    #[test]
    fn delay_prepends_silence() {
        let sig = vec![Complex::ONE; 3];
        let d = apply_delay(&sig, 2);
        assert_eq!(d.len(), 5);
        assert_eq!(d[0], Complex::ZERO);
        assert_eq!(d[2], Complex::ONE);
    }

    #[test]
    fn deterministic_with_same_seed() {
        assert_eq!(chain_noise(5.0, 16, 1e6, 99), chain_noise(5.0, 16, 1e6, 99));
    }
}
