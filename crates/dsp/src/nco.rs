//! Numerically-controlled oscillator with a quantized sin/cos lookup table.
//!
//! The paper's chirp generator "generates the I/Q samples of each chirp
//! symbol in the packet using a squared phase accumulator and two lookup
//! tables for Sin and Cos function" (§4.1, after their reference \[67\]).
//! This module provides the lookup-table oscillator; [`crate::chirp`] adds
//! the squared accumulator on top.
//!
//! The LUT has 1024 entries (10-bit phase index) and 13-bit signed
//! amplitude to match the AT86RF215 DAC word width. Both quantizations are
//! deliberately modelled: they set the spur floor visible in Fig. 8 and
//! contribute to the small non-orthogonality the paper observes between
//! concurrent chirps (Fig. 15a).

use crate::complex::Complex;

/// Number of entries in the sin/cos lookup table (10-bit phase index).
pub const LUT_SIZE: usize = 1024;

/// Amplitude resolution of LUT entries, matching the radio's 13-bit DAC.
pub const LUT_AMPLITUDE_BITS: u32 = 13;

/// Shared quantized sin/cos table.
#[derive(Debug, Clone)]
pub struct SinCosLut {
    /// `(cos, sin)` pairs quantized to signed `LUT_AMPLITUDE_BITS`.
    table: Vec<(i16, i16)>,
    full_scale: f64,
}

impl SinCosLut {
    /// Build the standard 1024-entry, 13-bit table.
    pub fn new() -> Self {
        Self::with_params(LUT_SIZE, LUT_AMPLITUDE_BITS)
    }

    /// Build a table with custom depth and amplitude resolution.
    ///
    /// # Panics
    /// Panics unless `size` is a power of two and `1 <= amp_bits <= 15`.
    pub fn with_params(size: usize, amp_bits: u32) -> Self {
        assert!(size.is_power_of_two(), "LUT size must be a power of two");
        assert!((1..=15).contains(&amp_bits), "amplitude bits out of range");
        let full_scale = ((1i32 << (amp_bits - 1)) - 1) as f64;
        let table = (0..size)
            .map(|k| {
                let theta = std::f64::consts::TAU * k as f64 / size as f64;
                let (s, c) = theta.sin_cos();
                (
                    (c * full_scale).round() as i16,
                    (s * full_scale).round() as i16,
                )
            })
            .collect();
        SinCosLut { table, full_scale }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` if the table is empty (never for a constructed table).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Look up `e^{jθ}` for a 32-bit phase word (the top bits index the
    /// table), returning a unit-scaled complex sample with quantized
    /// amplitude.
    #[inline]
    pub fn lookup(&self, phase: u32) -> Complex {
        let shift = 32 - self.table.len().trailing_zeros();
        let idx = (phase >> shift) as usize;
        let (c, s) = self.table[idx];
        Complex::new(c as f64 / self.full_scale, s as f64 / self.full_scale)
    }
}

impl Default for SinCosLut {
    fn default() -> Self {
        Self::new()
    }
}

/// Phase-accumulator oscillator producing quantized complex exponentials.
///
/// Frequency is expressed as a signed fraction of the sampling rate and
/// stored as a 32-bit phase increment, exactly like a hardware DDS.
#[derive(Debug, Clone)]
pub struct Nco {
    lut: SinCosLut,
    phase: u32,
    step: u32,
}

impl Nco {
    /// Create an oscillator at `freq_hz` for sampling rate `fs` (Hz).
    ///
    /// Negative frequencies are valid (two's-complement phase step).
    pub fn new(freq_hz: f64, fs: f64) -> Self {
        let mut nco = Nco {
            lut: SinCosLut::new(),
            phase: 0,
            step: 0,
        };
        nco.set_freq(freq_hz, fs);
        nco
    }

    /// Retune without resetting phase (phase-continuous, like the radio).
    pub fn set_freq(&mut self, freq_hz: f64, fs: f64) {
        let frac = freq_hz / fs;
        self.step = (frac * (u32::MAX as f64 + 1.0)).round() as i64 as u32;
    }

    /// Produce the next sample and advance the accumulator.
    #[inline]
    pub fn next_sample(&mut self) -> Complex {
        let out = self.lut.lookup(self.phase);
        self.phase = self.phase.wrapping_add(self.step);
        out
    }

    /// Fill `out` with consecutive samples.
    pub fn fill(&mut self, out: &mut [Complex]) {
        for s in out.iter_mut() {
            *s = self.next_sample();
        }
    }

    /// Generate `n` samples into a fresh vector.
    pub fn take(&mut self, n: usize) -> Vec<Complex> {
        (0..n).map(|_| self.next_sample()).collect()
    }
}

/// Generate an *ideal* (unquantized) complex tone: `e^{j2π f n / fs}`.
///
/// Used as the reference against which the NCO's spur floor is measured.
pub fn ideal_tone(freq_hz: f64, fs: f64, n: usize) -> Vec<Complex> {
    let w = std::f64::consts::TAU * freq_hz / fs;
    (0..n).map(|i| Complex::from_angle(w * i as f64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{fft, peak_bin};

    #[test]
    fn lut_entries_are_unit_phasors() {
        let lut = SinCosLut::new();
        assert_eq!(lut.len(), 1024);
        for k in 0..1024u32 {
            let z = lut.lookup(k << 22);
            // quantized to 13 bits → magnitude within ~2^-11 of 1
            assert!((z.abs() - 1.0).abs() < 2e-3, "entry {k}: |z|={}", z.abs());
        }
    }

    #[test]
    fn nco_tone_lands_in_expected_bin() {
        let fs = 4.0e6; // radio sampling rate
        let n = 4096;
        // bin 256 of a 4096-point FFT at 4 MHz = 250 kHz
        let f = 256.0 * fs / n as f64;
        let mut nco = Nco::new(f, fs);
        let x = nco.take(n);
        let (k, _) = peak_bin(&fft(&x)).unwrap();
        assert_eq!(k, 256);
    }

    #[test]
    fn nco_negative_frequency() {
        let fs = 1.0e6;
        let n = 1024;
        let f = -100.0 * fs / n as f64; // bin -100 → 924
        let mut nco = Nco::new(f, fs);
        let x = nco.take(n);
        let (k, _) = peak_bin(&fft(&x)).unwrap();
        assert_eq!(k, n - 100);
    }

    #[test]
    fn nco_spur_floor_below_minus_55dbc() {
        // 10-bit phase LUT gives ~ -60 dBc worst-case spurs; assert < -55 dBc.
        let fs = 4.0e6;
        let n = 4096;
        let f = 333.0 * fs / n as f64; // exact bin to avoid leakage
        let mut nco = Nco::new(f, fs);
        let x = nco.take(n);
        let spec = fft(&x);
        let (k0, peak) = peak_bin(&spec).unwrap();
        assert_eq!(k0, 333);
        let worst_spur = spec
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != k0)
            .map(|(_, v)| v.abs())
            .fold(0.0f64, f64::max);
        let dbc = 20.0 * (worst_spur / peak).log10();
        assert!(dbc < -55.0, "worst spur {dbc:.1} dBc");
    }

    #[test]
    fn phase_continuity_across_retune() {
        let fs = 1.0e6;
        let mut nco = Nco::new(1000.0, fs);
        let a = nco.next_sample();
        nco.set_freq(2000.0, fs);
        let b = nco.next_sample();
        // consecutive unit phasors: |b - a| bounded by max phase step
        assert!((b - a).abs() < 0.1);
    }

    #[test]
    fn ideal_tone_matches_nco_closely() {
        let fs = 1.0e6;
        let f = 12_345.0;
        let mut nco = Nco::new(f, fs);
        let q = nco.take(256);
        let i = ideal_tone(f, fs, 256);
        for (a, b) in q.iter().zip(&i) {
            assert!((*a - *b).abs() < 0.01, "quantized and ideal diverged");
        }
    }

    #[test]
    fn dc_nco_is_constant_one() {
        let mut nco = Nco::new(0.0, 1.0e6);
        for _ in 0..16 {
            let z = nco.next_sample();
            assert!((z.re - 1.0).abs() < 1e-3 && z.im.abs() < 1e-3);
        }
    }
}
