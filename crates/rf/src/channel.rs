//! Channel models: calibrated AWGN and carrier/timing offsets.
//!
//! The paper's sensitivity sweeps (Figs. 10–12, 15) step the received
//! signal strength while the receiver's noise stays fixed by physics:
//! `N = −174 dBm/Hz + 10·log10(fs) + NF`. [`AwgnChannel`] reproduces
//! exactly that: it scales the transmit waveform to the wanted RSSI and
//! adds complex white Gaussian noise of the correct power for the
//! simulation bandwidth.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinysdr_dsp::complex::{mean_power, normalize_power, Complex};

use crate::units::{dbm_to_mw, noise_floor_dbm};

/// One pair of independent standard Gaussian samples via Box–Muller —
/// the statistical kernel behind [`AwgnChannel`] and the randomized
/// stages of [`crate::impairments::ImpairmentChain`] (one shared
/// implementation so the two can never drift apart).
#[inline]
pub(crate) fn gauss_pair(rng: &mut StdRng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = std::f64::consts::TAU * u2;
    (r * theta.cos(), r * theta.sin())
}

/// Complex AWGN generator with physical noise power.
#[derive(Debug)]
pub struct AwgnChannel {
    /// Receiver noise figure in dB (AT86RF215: 3–5 dB per the paper; the
    /// SX1276 comparator uses 7 dB).
    pub noise_figure_db: f64,
    rng: StdRng,
}

impl AwgnChannel {
    /// Create a channel with a given receiver noise figure and RNG seed.
    pub fn new(noise_figure_db: f64, seed: u64) -> Self {
        AwgnChannel {
            noise_figure_db,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One sample of zero-mean complex Gaussian noise with total power
    /// `p_mw` (split across I and Q).
    #[inline]
    fn noise_sample(&mut self, p_mw: f64) -> Complex {
        let sigma = (p_mw / 2.0).sqrt();
        let (i, q) = gauss_pair(&mut self.rng);
        Complex::new(sigma * i, sigma * q)
    }

    /// Scale `sig` to `rssi_dbm` and add receiver noise for a simulation
    /// (sampling) bandwidth of `fs` Hz. Returns the actual noise power in
    /// mW that was injected.
    ///
    /// The *occupied* bandwidth of the signal does not matter here — a
    /// narrowband signal inside a wide `fs` sees proportionally more total
    /// noise, and the receiver's filtering/processing gain then recovers
    /// the SNR, exactly as in hardware.
    pub fn apply(&mut self, sig: &mut [Complex], rssi_dbm: f64, fs: f64) -> f64 {
        normalize_power(sig, dbm_to_mw(rssi_dbm));
        let n_mw = dbm_to_mw(noise_floor_dbm(fs, self.noise_figure_db));
        for s in sig.iter_mut() {
            *s += self.noise_sample(n_mw);
        }
        n_mw
    }

    /// Generate `n` samples of pure receiver noise (no signal present),
    /// for noise-only occupancy tests.
    pub fn noise_only(&mut self, n: usize, fs: f64) -> Vec<Complex> {
        let mut out = Vec::with_capacity(n);
        self.noise_only_into(n, fs, &mut out);
        out
    }

    /// [`AwgnChannel::noise_only`] into a caller-owned buffer (cleared
    /// first). The draws are exactly the sequence [`AwgnChannel::add_noise`]
    /// would add to a signal of length `n`, so a precomputed noise vector
    /// added sample-by-sample is bit-identical to calling `add_noise`.
    pub fn noise_only_into(&mut self, n: usize, fs: f64, out: &mut Vec<Complex>) {
        let n_mw = dbm_to_mw(noise_floor_dbm(fs, self.noise_figure_db));
        out.clear();
        out.reserve(n);
        for _ in 0..n {
            let s = self.noise_sample(n_mw);
            out.push(s);
        }
    }

    /// Add noise to a pre-scaled signal without renormalizing it — used
    /// when several transmitters are summed first (the concurrent
    /// reception study, §6).
    pub fn add_noise(&mut self, sig: &mut [Complex], fs: f64) -> f64 {
        let n_mw = dbm_to_mw(noise_floor_dbm(fs, self.noise_figure_db));
        for s in sig.iter_mut() {
            *s += self.noise_sample(n_mw);
        }
        n_mw
    }
}

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
    use crate::units::{mw_to_dbm, thermal_noise_dbm};
    use tinysdr_dsp::nco::ideal_tone;

    #[test]
    fn rssi_scaling_is_exact() {
        let mut sig = ideal_tone(1000.0, 1e6, 4096);
        set_rssi(&mut sig, -100.0);
        assert!((measure_rssi_dbm(&sig) + 100.0).abs() < 0.01);
    }

    #[test]
    fn noise_power_matches_physics() {
        let mut ch = AwgnChannel::new(6.0, 42);
        let fs = 1e6;
        let noise = ch.noise_only(200_000, fs);
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
                let mut ch = AwgnChannel::new(nf, 1000 + (i * 7 + j) as u64);
                let noise = ch.noise_only(150_000, fs);
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
        let mut ch = AwgnChannel::new(0.0, 55);
        let noise_like = ch.noise_only(8192, 1e6);
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
    fn apply_returns_the_injected_noise_power() {
        // the n_mw return value is documented as the actual injected
        // noise power; pin it to the calibrated floor
        let fs = 250e3;
        let nf = 4.5;
        let mut ch = AwgnChannel::new(nf, 77);
        let mut sig = ideal_tone(10e3, fs, 1024);
        let n_mw = ch.apply(&mut sig, -120.0, fs);
        assert!(
            (mw_to_dbm(n_mw) - noise_floor_dbm(fs, nf)).abs() < 1e-9,
            "reported noise power off the calibrated floor"
        );
    }

    #[test]
    fn snr_after_apply_is_rssi_minus_floor() {
        let fs = 500e3;
        let nf = 4.5;
        let rssi = -110.0;
        let mut ch = AwgnChannel::new(nf, 7);
        let mut sig = ideal_tone(10e3, fs, 100_000);
        let n_mw = ch.apply(&mut sig, rssi, fs);
        let total_dbm = measure_rssi_dbm(&sig);
        // total power ≈ signal + noise
        let expect_mw = dbm_to_mw(rssi) + n_mw;
        assert!((dbm_to_mw(total_dbm) - expect_mw).abs() / expect_mw < 0.05);
    }

    #[test]
    fn noise_is_complex_circular() {
        let mut ch = AwgnChannel::new(0.0, 9);
        let noise = ch.noise_only(100_000, 1e6);
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
        let mut a = AwgnChannel::new(5.0, 99);
        let mut b = AwgnChannel::new(5.0, 99);
        assert_eq!(a.noise_only(16, 1e6), b.noise_only(16, 1e6));
    }
}
