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
//! Both are built on the same windowed-sinc interpolation kernel: a
//! 31-tap Hamming-windowed sinc evaluated at the fractional offset `μ`,
//! normalized to unity DC gain. The kernel's integer group delay is
//! compensated internally, so [`fractional_delay_into`] with an integer
//! `delay` reproduces the plain shift-by-n result exactly (up to the
//! zero-padded edges).
//!
//! The taps need no `sin`. For an integer `j`,
//! `sin(π(j − μ)) = −(−1)ʲ·sin(πμ)`, so tap `j` of the kernel,
//! `sinc(j − μ)·w_j`, is the barycentric weight `(−1)ʲ·w_j / (μ − j)`
//! times the factor `sin(πμ)/π` that every tap shares, and the DC
//! normalization divides that factor out. One builder forms the 31
//! weights with one division each from a signed window cached in
//! [`DelayScratch`]; in exact arithmetic they are the sinc taps. At
//! `μ == 0` (an output sample of the drift resampler whose read point
//! lands on an input sample) the kernel is the exact shift and the
//! sample is copied bit for bit. Against the sinc form (the tests'
//! reference), over a 200k-sample broadband capture with |x| ≤ 0.71,
//! output samples move by at most 1.35e-15 for drifts from ±2 to
//! ±5000 ppm and 1.04e-15 for delays 0.25, 0.37 and 7.6
//! (`matches_the_sinc_form_to_rounding` bounds both at 1e-14·max|x|).
//!
//! Both write into a caller-owned output buffer against a reusable
//! [`DelayScratch`]; the buffer is cleared first, so a reused buffer
//! gives the same output as a fresh one.

use crate::complex::Complex;
use crate::window::Window;

/// Interpolation kernel length (odd so the group delay is an integer
/// number of samples and can be compensated exactly).
const TAPS: usize = 31;

/// The kernel's group delay: the centre tap's index.
const HALF: usize = TAPS / 2;

/// Below this fractional offset the builder returns the exact shift:
/// every other normalized tap is under `μ` (so its contribution is
/// below rounding), and `w/μ` stays finite. A subnormal `μ` would
/// overflow the centre weight to infinity.
const MU_EXACT: f64 = f64::EPSILON * f64::EPSILON;

/// Reusable scratch state for the timing impairments: the kernel's
/// Hamming window with tap `j = k − 15` signed by `(−1)ʲ`.
///
/// Holding one `DelayScratch` per worker lets [`fractional_delay_into`]
/// and [`resample_drift_into`] run with zero steady-state allocation.
/// The cached window is the one a fresh scratch builds, so scratch
/// reuse cannot change a single bit of the output.
#[derive(Debug, Clone, Default)]
pub struct DelayScratch {
    signed_window: Option<[f64; TAPS]>,
}

impl DelayScratch {
    /// Fresh scratch; the window is built on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(−1)ʲ·w_j` for `j = k − HALF`, built on first use.
    fn signed_window(&mut self) -> &[f64; TAPS] {
        self.signed_window.get_or_insert_with(|| {
            let mut signed = [0.0; TAPS];
            let w = Window::Hamming.coefficients(TAPS);
            for (k, (s, &wk)) in signed.iter_mut().zip(&w).enumerate() {
                *s = if (k + HALF).is_multiple_of(2) {
                    wk
                } else {
                    -wk
                };
            }
            signed
        })
    }
}

/// Unnormalized taps of the kernel that interpolates `x(base + mu)`
/// from `x[base − HALF ..= base + HALF]`, into `taps`; returns their
/// sum, the DC normalization. Tap `k` is `signed[k] / (mu − j)` with
/// `j = k − HALF`: `sinc(j − mu)·w_j` up to the common factor
/// `π / sin(πμ)`. For `|mu| <` [`MU_EXACT`] (zero included) it is the
/// unit impulse, the exact shift.
fn build_taps(signed: &[f64; TAPS], mu: f64, taps: &mut [f64; TAPS]) -> f64 {
    if mu.abs() < MU_EXACT {
        *taps = std::array::from_fn(|k| if k == HALF { 1.0 } else { 0.0 });
        return 1.0;
    }
    for (k, (t, &s)) in taps.iter_mut().zip(signed).enumerate() {
        *t = s / (mu - (k as f64 - HALF as f64));
    }
    taps.iter().sum()
}

/// `Σ_k taps[k]·x[start + k]` in tap order, over the taps whose sample
/// lies inside `x` (zeros are assumed outside it). Only a window that
/// overhangs an edge pays the per-tap range checks.
#[inline]
fn dot(x: &[Complex], start: isize, taps: &[f64; TAPS]) -> Complex {
    if start >= 0 {
        if let Some(window) = x.get(start as usize..start as usize + TAPS) {
            return window
                .iter()
                .zip(taps)
                .fold(Complex::ZERO, |acc, (&z, &h)| acc + z.scale(h));
        }
    }
    let mut acc = Complex::ZERO;
    for (k, &h) in taps.iter().enumerate() {
        if let Some(z) = usize::try_from(start + k as isize)
            .ok()
            .and_then(|i| x.get(i))
        {
            acc += z.scale(h);
        }
    }
    acc
}

/// Delay a buffer by `delay ≥ 0` samples into `out` (cleared first),
/// reusing `scratch` for the window: the output approximates
/// `y[n] = x(n − delay)` with zeros assumed outside the input. Zero
/// steady-state allocation once the buffer has capacity.
///
/// The integer part is an exact shift; the fractional part is windowed-
/// sinc interpolation with the 31-tap kernel (group delay compensated,
/// so the output grid aligns with the input grid). The output is one
/// sample longer than `x.len() + ceil(delay)` would suggest only when a
/// fractional tail spills over.
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
    // y[n] = x(n − di − mu): the kernel evaluated `−mu` past tap HALF,
    // built once and normalized tap by tap
    let mut taps = [0.0; TAPS];
    let sum = build_taps(scratch.signed_window(), -mu, &mut taps);
    for t in &mut taps {
        *t /= sum;
    }
    let out_len = x.len() + di + 1;
    out.reserve(out_len);
    let lead = (di + HALF) as isize;
    out.extend((0..out_len).map(|n| dot(x, n as isize - lead, &taps)));
}

/// Resample a buffer as seen through a sample clock that runs `ppm`
/// parts-per-million fast (positive `ppm`: the receiver clock ticks
/// faster than nominal, so it reads the waveform slightly *ahead* each
/// sample and the symbol grid slips forward cumulatively), into `out`
/// (cleared first), reusing `scratch` for the window. Zero steady-state
/// allocation once the buffer has capacity.
///
/// Output sample `m` is the windowed-sinc interpolation of
/// `x(m · (1 + ppm·1e-6))`, normalized per sample to unity DC gain; a
/// read point that lands on an input sample copies it. The output
/// covers the input's full time span. Zero drift copies the input
/// unchanged.
///
/// # Panics
/// Panics if the drift is so large the resampling ratio is
/// non-positive (|ppm| must stay below 1e6).
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
    let signed = scratch.signed_window();
    // cover the input's full time span [0, len): a fast clock (ratio > 1)
    // must not drop the tail fraction of a sample, or every fixed-grid
    // measurement loses its final symbol window to truncation
    let out_len = (x.len() as f64 / ratio).ceil() as usize;
    out.reserve(out_len);
    let mut taps = [0.0; TAPS];
    out.extend((0..out_len).map(|m| {
        let t = m as f64 * ratio;
        let base = t.floor();
        let mu = t - base;
        let base = base as usize;
        if mu == 0.0 {
            return x.get(base).copied().unwrap_or(Complex::ZERO);
        }
        let norm = build_taps(signed, mu, &mut taps);
        dot(x, base as isize - HALF as isize, &taps).scale(1.0 / norm)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::mean_power;
    use crate::math::sinc;
    use crate::nco::ideal_tone;

    /// [`fractional_delay_into`] into a fresh buffer.
    fn delayed(x: &[Complex], delay: f64) -> Vec<Complex> {
        let mut out = Vec::new();
        fractional_delay_into(x, delay, &mut DelayScratch::new(), &mut out);
        out
    }

    /// [`resample_drift_into`] into a fresh buffer.
    fn drifted(x: &[Complex], ppm: f64) -> Vec<Complex> {
        let mut out = Vec::new();
        resample_drift_into(x, ppm, &mut DelayScratch::new(), &mut out);
        out
    }

    /// The builder's taps at `mu`, normalized to unity DC gain.
    fn normalized_taps(mu: f64) -> [f64; TAPS] {
        let mut taps = [0.0; TAPS];
        let sum = build_taps(DelayScratch::new().signed_window(), mu, &mut taps);
        taps.map(|t| t / sum)
    }

    /// The sinc form of the kernel: tap `k` is `sinc(k − HALF − mu)·w_k`,
    /// one `sin` per tap.
    fn sinc_taps(mu: f64) -> Vec<f64> {
        let w = Window::Hamming.coefficients(TAPS);
        (0..TAPS)
            .map(|k| sinc(k as f64 - HALF as f64 - mu) * w[k])
            .collect()
    }

    /// `Σ_k h[k]·x[base − HALF + k]` over the samples inside `x`, in tap
    /// order.
    fn sinc_mac(x: &[Complex], base: i64, h: &[f64]) -> Complex {
        let mut acc = Complex::ZERO;
        for (k, &hk) in h.iter().enumerate() {
            let i = base - HALF as i64 + k as i64;
            if i >= 0 && (i as usize) < x.len() {
                acc += x[i as usize].scale(hk);
            }
        }
        acc
    }

    /// [`fractional_delay_into`] on the sinc-form kernel.
    fn sinc_delayed(x: &[Complex], delay: f64) -> Vec<Complex> {
        let di = delay.floor() as usize;
        let mut h = sinc_taps(di as f64 - delay);
        let sum: f64 = h.iter().sum();
        for t in &mut h {
            *t /= sum;
        }
        (0..x.len() + di + 1)
            .map(|n| sinc_mac(x, n as i64 - di as i64, &h))
            .collect()
    }

    /// [`resample_drift_into`] on the sinc-form kernel, normalized per
    /// sample, `μ == 0` included.
    fn sinc_drifted(x: &[Complex], ppm: f64) -> Vec<Complex> {
        let ratio = 1.0 + ppm * 1e-6;
        (0..(x.len() as f64 / ratio).ceil() as usize)
            .map(|m| {
                let t = m as f64 * ratio;
                let base = t.floor() as i64;
                let h = sinc_taps(t - base as f64);
                let norm: f64 = h.iter().sum();
                sinc_mac(x, base, &h).scale(1.0 / norm)
            })
            .collect()
    }

    /// A broadband test capture: a chirp sweeping the whole band at
    /// amplitude 0.71, plus a tone.
    fn broadband(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                Complex::from_angle(std::f64::consts::PI * t * t / n as f64).scale(0.5)
                    + Complex::from_angle(0.3 * t).scale(0.21)
            })
            .collect()
    }

    #[test]
    fn kernel_at_zero_offset_is_identity() {
        // zero and a subnormal offset both give the exact shift, and
        // every tap is finite
        for mu in [0.0, 1e-310, -1e-310] {
            let h = normalized_taps(mu);
            assert_eq!(h[HALF], 1.0, "mu {mu}");
            for (k, &t) in h.iter().enumerate() {
                if k != HALF {
                    assert_eq!(t, 0.0, "mu {mu}: tap {k} = {t}");
                }
            }
        }
    }

    #[test]
    fn kernel_is_dc_normalized() {
        for mu in [1e-30, 0.1, 0.25, 0.5, 0.9, -0.37, -0.999] {
            let h = normalized_taps(mu);
            assert!(h.iter().all(|t| t.is_finite()), "mu {mu}: {h:?}");
            let s: f64 = h.iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "mu {mu}: sum {s}");
        }
    }

    #[test]
    fn matches_the_sinc_form_to_rounding() {
        let x = broadband(4096);
        let peak = x.iter().map(|z| z.abs()).fold(0.0, f64::max);
        let worst = |got: &[Complex], want: &[Complex]| {
            assert_eq!(got.len(), want.len());
            got.iter()
                .zip(want)
                .map(|(&a, &b)| (a - b).abs())
                .fold(0.0, f64::max)
        };
        for ppm in [2.0, -2.0, 20.0, -20.0, 40.0, 5_000.0, -5_000.0] {
            let err = worst(&drifted(&x, ppm), &sinc_drifted(&x, ppm));
            assert!(err <= 1e-14 * peak, "ppm {ppm}: |new − sinc| {err:e}");
        }
        for delay in [0.25, 0.37, 7.6] {
            let err = worst(&delayed(&x, delay), &sinc_delayed(&x, delay));
            assert!(err <= 1e-14 * peak, "delay {delay}: |new − sinc| {err:e}");
        }
    }

    #[test]
    fn drift_copies_the_samples_it_lands_on() {
        // a 1.25 ratio lands every fourth output on an input sample
        let x = broadband(4000);
        let y = drifted(&x, 250_000.0);
        let ratio = 1.0 + 250_000.0 * 1e-6;
        let mut landed = 0;
        for (m, z) in y.iter().enumerate() {
            let t = m as f64 * ratio;
            if t.fract() == 0.0 {
                let want = x[t as usize];
                assert_eq!(z.re.to_bits(), want.re.to_bits(), "sample {m}");
                assert_eq!(z.im.to_bits(), want.im.to_bits(), "sample {m}");
                landed += 1;
            }
        }
        assert_eq!(landed, 800);
    }

    #[test]
    fn subnormal_delay_stays_finite() {
        let x = broadband(256);
        let y = delayed(&x, 1e-310);
        assert_eq!(y.len(), x.len() + 1);
        assert!(y.iter().all(|z| z.re.is_finite() && z.im.is_finite()));
        assert_eq!(&y[..x.len()], &x[..]);
    }

    #[test]
    fn integer_delay_is_exact_shift() {
        let x = ideal_tone(1e3, 100e3, 64);
        let y = delayed(&x, 5.0);
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
            let y = delayed(&x, tau);
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
        let twice = delayed(&delayed(&x, 0.5), 0.5);
        let once = delayed(&x, 1.0);
        let mut err = 0.0f64;
        for m in 64..1024 - 64 {
            err = err.max((twice[m] - once[m]).abs());
        }
        assert!(err < 0.01, "cascade error {err}");
    }

    #[test]
    fn fractional_delay_preserves_midband_power() {
        let x = ideal_tone(40e3, 1e6, 4096);
        let y = delayed(&x, 0.37);
        let p = mean_power(&y[64..4032]) / mean_power(&x[64..4032]);
        assert!((p - 1.0).abs() < 0.01, "power ratio {p}");
    }

    #[test]
    fn zero_drift_is_identity() {
        let x = ideal_tone(10e3, 1e6, 256);
        assert_eq!(drifted(&x, 0.0), x);
    }

    #[test]
    fn drift_slips_the_grid_cumulatively() {
        // +100 ppm over 10,000 samples ⇒ the last output sample reads
        // the input one full sample early
        let fs = 1e6;
        let f = 25e3;
        let n = 10_000;
        let x = ideal_tone(f, fs, n);
        let y = drifted(&x, 100.0);
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
        let slow = drifted(&x, -5_000.0);
        let fast = drifted(&x, 5_000.0);
        assert!(slow.len() > x.len(), "slow clock reads more samples");
        assert!(fast.len() < x.len(), "fast clock reads fewer samples");
    }

    #[test]
    fn reused_dirty_buffers_match_fresh_ones_bitwise() {
        // one scratch and one output buffer, pre-filled with junk and
        // reused across calls of both kernels, longer and shorter
        // outputs alike: every call equals a fresh buffer and scratch
        let x = ideal_tone(25e3, 1e6, 777);
        let mut scratch = DelayScratch::new();
        let mut out = vec![Complex::new(f64::NAN, 7.0); 2_000];
        for delay in [0.0, 3.0, 0.25, 7.6] {
            fractional_delay_into(&x, delay, &mut scratch, &mut out);
            assert_eq!(out, delayed(&x, delay), "delay {delay}");
            resample_drift_into(&x[..300], delay * 100.0, &mut scratch, &mut out);
            assert_eq!(
                out,
                drifted(&x[..300], delay * 100.0),
                "ppm {}",
                delay * 100.0
            );
        }
        for ppm in [2.0, -40.0, 5_000.0] {
            resample_drift_into(&x, ppm, &mut scratch, &mut out);
            assert_eq!(out, drifted(&x, ppm), "ppm {ppm}");
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_delay() {
        delayed(&[Complex::ONE], -1.0);
    }
}
