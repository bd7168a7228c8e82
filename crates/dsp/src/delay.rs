//! Fractional-delay interpolation and sample-clock drift.
//!
//! The conformance harness needs two timing impairments the integer
//! helpers in `tinysdr_rf::channel` cannot express:
//!
//! * a **fractional sample-timing offset** — the receiver's sampling
//!   grid never lands exactly on the transmitter's, so a captured
//!   waveform is the continuous signal evaluated `τ` samples late with
//!   `τ` non-integer;
//! * **sample-clock drift** — the transmitter's and receiver's crystals
//!   disagree by a few ppm, so the receiver effectively resamples the
//!   waveform at a slightly wrong rate and the symbol grid slips
//!   cumulatively over a long frame.
//!
//! Both are built on the same windowed-sinc interpolation kernel
//! ([`fractional_delay_kernel`]): an odd-length Hamming-windowed sinc
//! evaluated at the fractional offset, normalized to unity DC gain. The
//! kernel's integer group delay is compensated internally, so
//! [`fractional_delay`] with an integer `delay` reproduces the plain
//! shift-by-n result exactly (up to the zero-padded edges).

use crate::complex::Complex;
use crate::math::sinc;
use crate::window::Window;

/// Default interpolation kernel length (odd so the group delay is an
/// integer number of samples and can be compensated exactly).
pub const DEFAULT_TAPS: usize = 31;

/// Windowed-sinc interpolation kernel for a fractional offset
/// `mu ∈ [0, 1)`: tap `k` is `sinc(k − half + mu)` shaped by a Hamming
/// window and normalized to unity DC gain.
///
/// # Panics
/// Panics if `taps` is even or zero, or `mu` is outside `[0, 1)`.
pub fn fractional_delay_kernel(mu: f64, taps: usize) -> Vec<f64> {
    assert!(taps % 2 == 1, "kernel length must be odd, got {taps}");
    assert!((0.0..1.0).contains(&mu), "mu must be in [0,1), got {mu}");
    let half = (taps / 2) as f64;
    let w = Window::Hamming.coefficients(taps);
    let mut h: Vec<f64> = (0..taps)
        .map(|k| sinc(k as f64 - half + mu) * w[k])
        .collect();
    let sum: f64 = h.iter().sum();
    for t in &mut h {
        *t /= sum;
    }
    h
}

/// Reusable scratch state for the timing impairments: the
/// [`DEFAULT_TAPS`]-point Hamming window plus the per-call
/// interpolation kernel.
///
/// Holding one `DelayScratch` per worker lets [`fractional_delay_into`]
/// and [`resample_drift_into`] run with zero steady-state allocation.
/// The cached window is identical to the one the allocating paths build
/// per call, so buffer reuse cannot change a single bit of the output.
#[derive(Debug, Clone, Default)]
pub struct DelayScratch {
    window: Vec<f64>,
    kernel: Vec<f64>,
}

impl DelayScratch {
    /// Fresh scratch; buffers fill lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The kernel's Hamming window, built on first use.
    fn window(&mut self) -> &[f64] {
        if self.window.is_empty() {
            self.window = Window::Hamming.coefficients(DEFAULT_TAPS);
        }
        &self.window
    }
}

/// Delay a buffer by `delay ≥ 0` samples: the output approximates
/// `y[n] = x(n − delay)` with zeros assumed outside the input.
///
/// The integer part is an exact shift; the fractional part is windowed-
/// sinc interpolation with the [`DEFAULT_TAPS`]-tap kernel (group delay
/// compensated, so the output grid aligns with the input grid). The
/// output is one sample longer than `x.len() + ceil(delay)` would
/// suggest only when a fractional tail spills over.
///
/// # Panics
/// Panics on negative `delay`.
pub fn fractional_delay(x: &[Complex], delay: f64) -> Vec<Complex> {
    let mut out = Vec::new();
    fractional_delay_into(x, delay, &mut DelayScratch::new(), &mut out);
    out
}

/// [`fractional_delay`] into a caller-owned output buffer, reusing
/// `scratch` for the window and kernel. Zero steady-state allocation
/// once the buffers have capacity.
///
/// # Panics
/// Panics on negative `delay`.
pub fn fractional_delay_into(
    x: &[Complex],
    delay: f64,
    scratch: &mut DelayScratch,
    out: &mut Vec<Complex>,
) {
    assert!(delay >= 0.0, "delay must be non-negative, got {delay}");
    out.clear();
    let di = delay.floor() as usize;
    let mu = delay - di as f64;
    if mu == 0.0 {
        // pure integer shift: no interpolation error at all
        out.resize(di, Complex::ZERO);
        out.extend_from_slice(x);
        return;
    }
    // same construction as `fractional_delay_kernel`, into reused storage
    scratch.window();
    let DelayScratch { window, kernel } = scratch;
    kernel.clear();
    let half_f = (DEFAULT_TAPS / 2) as f64;
    kernel.extend(
        window
            .iter()
            .enumerate()
            .map(|(k, &wk)| sinc(k as f64 - half_f + mu) * wk),
    );
    let sum: f64 = kernel.iter().sum();
    for t in kernel.iter_mut() {
        *t /= sum;
    }
    let half = (DEFAULT_TAPS / 2) as i64;
    let out_len = x.len() + di + 1;
    out.reserve(out_len);
    for n in 0..out_len {
        // y[n] = x(n − di − mu), interpolated from taps centered on n − di
        let base = n as i64 - di as i64;
        let mut acc = Complex::ZERO;
        for (k, &h) in kernel.iter().enumerate() {
            let m = base - half + k as i64;
            if m >= 0 && (m as usize) < x.len() {
                acc += x[m as usize].scale(h);
            }
        }
        out.push(acc);
    }
}

/// Resample a buffer as seen through a sample clock that runs `ppm`
/// parts-per-million fast (positive `ppm`: the receiver clock ticks
/// faster than nominal, so it reads the waveform slightly *ahead* each
/// sample and the symbol grid slips forward cumulatively).
///
/// Output sample `m` is the windowed-sinc interpolation of
/// `x(m · (1 + ppm·1e-6))`; the output covers the input's full time
/// span. Zero drift returns the input unchanged.
///
/// # Panics
/// Panics if the drift is so large the resampling ratio is
/// non-positive (|ppm| must stay below 1e6).
pub fn resample_drift(x: &[Complex], ppm: f64) -> Vec<Complex> {
    let mut out = Vec::new();
    resample_drift_into(x, ppm, &mut DelayScratch::new(), &mut out);
    out
}

/// [`resample_drift`] into a caller-owned output buffer, reusing
/// `scratch` for the window. Zero steady-state allocation once the
/// buffers have capacity.
///
/// # Panics
/// Panics if the drift is so large the resampling ratio is
/// non-positive, like [`resample_drift`].
pub fn resample_drift_into(
    x: &[Complex],
    ppm: f64,
    scratch: &mut DelayScratch,
    out: &mut Vec<Complex>,
) {
    let ratio = 1.0 + ppm * 1e-6;
    assert!(ratio > 0.0, "drift ratio must stay positive, got {ratio}");
    out.clear();
    if ppm == 0.0 || x.is_empty() {
        out.extend_from_slice(x);
        return;
    }
    let half = (DEFAULT_TAPS / 2) as i64;
    let w = scratch.window();
    // cover the input's full time span [0, len): a fast clock (ratio > 1)
    // must not drop the tail fraction of a sample, or every fixed-grid
    // measurement loses its final symbol window to truncation
    let out_len = (x.len() as f64 / ratio).ceil() as usize;
    out.reserve(out_len);
    for m in 0..out_len {
        let t = m as f64 * ratio;
        let base = t.floor() as i64;
        let mu = t - base as f64;
        // interpolate x(base + mu): tap k sits at offset k − half − mu
        // from the evaluation point; normalize per-sample for unity DC
        // gain at every fractional phase
        let mut acc = Complex::ZERO;
        let mut norm = 0.0;
        for (k, &wk) in w.iter().enumerate() {
            let h = sinc(k as f64 - half as f64 - mu) * wk;
            norm += h;
            let i = base - half + k as i64;
            if i >= 0 && (i as usize) < x.len() {
                acc += x[i as usize].scale(h);
            }
        }
        out.push(acc.scale(1.0 / norm));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::mean_power;
    use crate::nco::ideal_tone;

    #[test]
    fn kernel_at_zero_offset_is_identity() {
        let h = fractional_delay_kernel(0.0, 31);
        assert!((h[15] - 1.0).abs() < 1e-12);
        for (k, &t) in h.iter().enumerate() {
            if k != 15 {
                assert!(t.abs() < 1e-12, "tap {k} = {t}");
            }
        }
    }

    #[test]
    fn kernel_is_dc_normalized() {
        for mu in [0.1, 0.25, 0.5, 0.9] {
            let s: f64 = fractional_delay_kernel(mu, 21).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "mu {mu}: sum {s}");
        }
    }

    #[test]
    fn integer_delay_is_exact_shift() {
        let x = ideal_tone(1e3, 100e3, 64);
        let y = fractional_delay(&x, 5.0);
        assert_eq!(y.len(), 69);
        for z in y.iter().take(5) {
            assert_eq!(*z, Complex::ZERO);
        }
        for n in 0..64 {
            assert!((y[n + 5] - x[n]).abs() < 1e-15);
        }
    }

    #[test]
    fn fractional_delay_shifts_tone_phase() {
        // delaying a tone by τ samples rotates it by −2π·f·τ/fs
        let fs = 1e6;
        let f = 50e3; // mid-band: the kernel is accurate here
        let n = 2048;
        let x = ideal_tone(f, fs, n);
        for tau in [0.25, 0.5, 0.75] {
            let y = fractional_delay(&x, tau);
            // compare against the analytically delayed tone, skipping the
            // kernel-length edges
            let want = -std::f64::consts::TAU * f * tau / fs;
            let mut err = 0.0f64;
            for m in 64..n - 64 {
                let rot = (y[m] * x[m].conj()).arg();
                err = err.max((rot - want).abs());
            }
            assert!(err < 0.01, "tau {tau}: phase error {err} rad");
        }
    }

    #[test]
    fn two_half_sample_delays_equal_one_sample() {
        let fs = 1e6;
        let x = ideal_tone(30e3, fs, 1024);
        let twice = fractional_delay(&fractional_delay(&x, 0.5), 0.5);
        let once = fractional_delay(&x, 1.0);
        let mut err = 0.0f64;
        for m in 64..1024 - 64 {
            err = err.max((twice[m] - once[m]).abs());
        }
        assert!(err < 0.01, "cascade error {err}");
    }

    #[test]
    fn fractional_delay_preserves_midband_power() {
        let x = ideal_tone(40e3, 1e6, 4096);
        let y = fractional_delay(&x, 0.37);
        let p = mean_power(&y[64..4032]) / mean_power(&x[64..4032]);
        assert!((p - 1.0).abs() < 0.01, "power ratio {p}");
    }

    #[test]
    fn zero_drift_is_identity() {
        let x = ideal_tone(10e3, 1e6, 256);
        assert_eq!(resample_drift(&x, 0.0), x);
    }

    #[test]
    fn drift_slips_the_grid_cumulatively() {
        // +100 ppm over 10,000 samples ⇒ the last output sample reads
        // the input one full sample early
        let fs = 1e6;
        let f = 25e3;
        let n = 10_000;
        let x = ideal_tone(f, fs, n);
        let y = resample_drift(&x, 100.0);
        // near the end, y[m] ≈ x(m·1.0001): phase advanced by
        // 2π·f·(m·1e-4)/fs relative to x[m]
        let m = n - 200;
        let want = std::f64::consts::TAU * f * (m as f64 * 1e-4) / fs;
        let got = (y[m] * x[m].conj()).arg();
        assert!((got - want).abs() < 0.05, "drift phase {got} vs {want}");
    }

    #[test]
    fn negative_drift_lengthens_the_capture() {
        let x = ideal_tone(10e3, 1e6, 10_000);
        let slow = resample_drift(&x, -5_000.0);
        let fast = resample_drift(&x, 5_000.0);
        assert!(slow.len() > x.len(), "slow clock reads more samples");
        assert!(fast.len() < x.len(), "fast clock reads fewer samples");
    }

    #[test]
    fn into_variants_match_allocating_paths_bitwise() {
        let x = ideal_tone(25e3, 1e6, 777);
        let mut scratch = DelayScratch::new();
        let mut out = Vec::new();
        for delay in [0.0, 3.0, 0.25, 7.6] {
            fractional_delay_into(&x, delay, &mut scratch, &mut out);
            assert_eq!(out, fractional_delay(&x, delay), "delay {delay}");
        }
        for ppm in [0.0, 2.0, -40.0, 5_000.0] {
            resample_drift_into(&x, ppm, &mut scratch, &mut out);
            assert_eq!(out, resample_drift(&x, ppm), "ppm {ppm}");
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn rejects_even_kernel() {
        fractional_delay_kernel(0.5, 16);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_delay() {
        fractional_delay(&[Complex::ONE], -1.0);
    }
}
