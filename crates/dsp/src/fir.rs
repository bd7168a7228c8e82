//! FIR filtering and windowed-sinc design.
//!
//! The paper's LoRa demodulator runs incoming I/Q "through a 14 tap FIR
//! low-pass filter to suppress high frequency noise and interference"
//! (§4.1, Fig. 6b). [`lowpass`] designs that filter; [`Fir`] runs it as a
//! streaming direct-form block, the same structure a small FPGA
//! implementation uses.

use crate::complex::Complex;
use crate::math::sinc;
use crate::window::Window;

/// Streaming direct-form FIR filter over complex samples with real taps.
#[derive(Debug, Clone)]
pub struct Fir {
    taps: Vec<f64>,
    /// Circular delay line.
    delay: Vec<Complex>,
    pos: usize,
    /// Block-convolution workspace for [`Fir::process_into`]: the last
    /// `len − 1` inputs followed by the new block, contiguous.
    work: Vec<Complex>,
}

impl Fir {
    /// Create a filter from a tap vector.
    ///
    /// # Panics
    /// Panics on an empty tap vector.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "FIR needs at least one tap");
        let n = taps.len();
        Fir {
            taps,
            delay: vec![Complex::ZERO; n],
            pos: 0,
            work: Vec::new(),
        }
    }

    /// Number of taps.
    #[inline]
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// `true` if there are no taps (cannot happen post-construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Tap values.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Reset the delay line to zeros.
    pub fn reset(&mut self) {
        self.delay.fill(Complex::ZERO);
        self.pos = 0;
    }

    /// Push one sample, get one filtered sample (streaming).
    #[inline]
    pub fn push(&mut self, x: Complex) -> Complex {
        let n = self.taps.len();
        self.delay[self.pos] = x;
        let mut acc = Complex::ZERO;
        let mut idx = self.pos;
        for &t in &self.taps {
            acc += self.delay[idx].scale(t);
            idx = if idx == 0 { n - 1 } else { idx - 1 };
        }
        self.pos = (self.pos + 1) % n;
        acc
    }

    /// Filter a whole buffer (stateful: continues from previous samples).
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        let mut out = Vec::with_capacity(x.len());
        self.process_into(x, &mut out);
        out
    }

    /// [`Fir::process`] into a caller-owned buffer (cleared first) —
    /// bit-identical to a [`Fir::push`] loop, with zero allocation once
    /// `out` and the filter's workspace have capacity.
    ///
    /// The block runs as a contiguous convolution over the delay-line
    /// history followed by `x`, four outputs at a time in independent
    /// accumulators. Each output still starts from zero and adds its
    /// taps in `push`'s order (newest sample first), so every sum rounds
    /// exactly as the streaming path does. The delay line is left
    /// holding the block's last `len` samples, so streaming continues
    /// seamlessly with either `push` or another `process_into`.
    pub fn process_into(&mut self, x: &[Complex], out: &mut Vec<Complex>) {
        out.clear();
        if x.is_empty() {
            return;
        }
        let n = self.taps.len();
        // history, oldest first: the `n − 1` samples before `pos`
        // (`delay[pos]` is the oldest and drops out at the next push)
        self.work.clear();
        self.work.reserve(n - 1 + x.len());
        for k in 1..n {
            // lint: allow(unchecked-index, (pos + k) % n < n = delay.len())
            self.work.push(self.delay[(self.pos + k) % n]);
        }
        self.work.extend_from_slice(x);
        out.reserve(x.len());
        let taps = &self.taps;
        // output i reads work[i ..= i + n − 1]; tap k weighs work[i + n − 1 − k]
        for w in self.work.windows(n + 3).step_by(4).take(x.len() / 4) {
            let mut acc = [Complex::ZERO; 4];
            for (s, &t) in w.windows(4).rev().zip(taps) {
                for (a, &v) in acc.iter_mut().zip(s) {
                    *a += v.scale(t);
                }
            }
            out.extend_from_slice(&acc);
        }
        let done = out.len();
        // lint: allow(unchecked-index, done = 4 * (x.len() / 4) <= x.len() < work.len())
        for w in self.work[done..].windows(n) {
            let mut acc = Complex::ZERO;
            for (&v, &t) in w.iter().rev().zip(taps) {
                acc += v.scale(t);
            }
            out.push(acc);
        }
        // the delay line keeps the stream's last n samples, oldest at pos
        let tail = self.work.len() - n;
        // lint: allow(unchecked-index, work holds n − 1 + x.len() >= n samples since x is non-empty)
        self.delay.copy_from_slice(&self.work[tail..]);
        self.pos = 0;
    }

    /// Group delay in samples for a linear-phase (symmetric) design.
    pub fn group_delay(&self) -> f64 {
        (self.taps.len() as f64 - 1.0) / 2.0
    }

    /// Complex frequency response at normalized frequency `f` (cycles per
    /// sample, `-0.5..0.5`).
    pub fn freq_response(&self, f: f64) -> Complex {
        let mut acc = Complex::ZERO;
        for (n, &t) in self.taps.iter().enumerate() {
            acc += Complex::from_angle(-std::f64::consts::TAU * f * n as f64).scale(t);
        }
        acc
    }
}

/// Design a windowed-sinc low-pass filter.
///
/// * `num_taps` — filter length (the paper uses 14).
/// * `cutoff` — normalized cutoff frequency in cycles/sample (`0..0.5`).
/// * `window` — spectral window applied to the sinc prototype.
///
/// Taps are normalized for unity DC gain.
///
/// # Panics
/// Panics if `cutoff` is outside `(0, 0.5)` or `num_taps == 0`.
pub fn lowpass(num_taps: usize, cutoff: f64, window: Window) -> Fir {
    assert!(num_taps > 0, "need at least one tap");
    assert!(
        cutoff > 0.0 && cutoff < 0.5,
        "cutoff must be in (0, 0.5), got {cutoff}"
    );
    let m = num_taps as f64 - 1.0;
    let w = window.coefficients(num_taps);
    let mut taps: Vec<f64> = (0..num_taps)
        .map(|n| {
            let x = n as f64 - m / 2.0;
            2.0 * cutoff * sinc(2.0 * cutoff * x) * w[n]
        })
        .collect();
    let sum: f64 = taps.iter().sum();
    for t in &mut taps {
        *t /= sum;
    }
    Fir::new(taps)
}

/// The exact front-end filter from the paper's demodulator: 14 taps,
/// Hamming window, cutoff at `bw_fraction` of the sampling rate.
///
/// For an OSR-1 receiver the signal occupies the whole band, so the filter
/// is designed at 0.45 (slightly inside Nyquist) purely to knock down
/// out-of-band noise; for oversampled receivers pass `0.5 / osr`.
pub fn paper_lora_frontend(bw_fraction: f64) -> Fir {
    lowpass(14, bw_fraction.clamp(0.05, 0.45), Window::Hamming)
}

/// Demodulator variant of the front-end filter with an *odd* length
/// (15 taps) so the group delay is an integer (7 samples) and the
/// symbol-window grid stays sample-aligned after delay compensation.
///
/// An even-length filter's half-sample delay splits the dechirped FFT
/// peak between adjacent bins and costs ±1-symbol errors; hardware
/// sidesteps this by strobing the window counter on the opposite clock
/// edge, which a sample-domain simulation cannot do. One extra tap is
/// behaviourally identical and keeps Table 6's LUT accounting intact
/// (the resource model still costs the 14-tap design).
pub fn demod_frontend(bw_fraction: f64) -> Fir {
    lowpass(15, bw_fraction.clamp(0.05, 0.45), Window::Hamming)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::mean_power;
    use crate::nco::ideal_tone;

    #[test]
    fn dc_gain_is_unity() {
        let f = lowpass(14, 0.25, Window::Hamming);
        let dc = f.freq_response(0.0);
        assert!((dc.abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn passband_and_stopband() {
        let f = lowpass(63, 0.125, Window::Blackman);
        // passband: 0.05 cycles/sample
        let pb = f.freq_response(0.05).abs();
        assert!((pb - 1.0).abs() < 0.01, "passband gain {pb}");
        // stopband: 0.3 cycles/sample
        let sb = f.freq_response(0.3).abs();
        assert!(sb < 0.001, "stopband gain {sb}");
    }

    #[test]
    fn streaming_matches_block_convolution() {
        let taps = vec![0.25, 0.5, 0.25];
        let mut fir = Fir::new(taps.clone());
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::new(i as f64, -(i as f64)))
            .collect();
        let y = fir.process(&x);
        for n in 0..x.len() {
            let mut expect = Complex::ZERO;
            for (k, &t) in taps.iter().enumerate() {
                if n >= k {
                    expect += x[n - k].scale(t);
                }
            }
            assert!((y[n] - expect).abs() < 1e-12);
        }
    }

    /// Deterministic, sign-mixed test signal (exercises -0.0 and
    /// cancellation in the accumulators).
    fn signal(len: usize, salt: f64) -> Vec<Complex> {
        (0..len)
            .map(|i| {
                let t = i as f64 + salt;
                Complex::new((t * 0.731).sin() * 3.0, -(t * 0.377).cos())
            })
            .collect()
    }

    fn taps(n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| ((k as f64 + 1.0) * 0.61).cos() / (k as f64 + 1.5))
            .collect()
    }

    /// The reference the block kernel must reproduce bit for bit.
    fn push_loop(fir: &mut Fir, x: &[Complex]) -> Vec<Complex> {
        x.iter().map(|&s| fir.push(s)).collect()
    }

    #[test]
    fn process_into_is_bit_identical_to_push_loop() {
        for n in 1..=33usize {
            for len in (0..=9usize).chain([1031]) {
                // a primed delay line, so the history prefix matters
                let mut a = Fir::new(taps(n));
                let mut b = a.clone();
                let prime = signal(n + 2, 7.0);
                push_loop(&mut a, &prime);
                push_loop(&mut b, &prime);
                let x = signal(len, n as f64);
                let mut out = vec![Complex::ONE; 3]; // stale contents are cleared
                a.process_into(&x, &mut out);
                assert_eq!(out, push_loop(&mut b, &x), "{n} taps, {len} samples");
                // both filters now hold the same stream state
                let probe = signal(5, -3.0);
                assert_eq!(
                    push_loop(&mut a, &probe),
                    push_loop(&mut b, &probe),
                    "{n} taps, state after {len} samples"
                );
            }
        }
    }

    #[test]
    fn split_block_streaming_equals_one_block() {
        let x = signal(300, 0.5);
        for n in [1usize, 4, 15, 33] {
            for cut in [0usize, 1, 3, 14, 150, 299, 300] {
                let mut whole = Fir::new(taps(n));
                let mut split = whole.clone();
                let want = whole.process(&x);
                let mut got = split.process(&x[..cut]);
                got.extend(split.process(&x[cut..]));
                assert_eq!(got, want, "{n} taps, cut at {cut}");
                // and a push after the block continues the same stream
                let s = Complex::new(0.25, -1.5);
                assert_eq!(split.push(s), whole.push(s), "{n} taps, cut at {cut}");
            }
        }
    }

    #[test]
    fn tone_attenuation_in_stopband() {
        let mut f = lowpass(14, 0.1, Window::Hamming);
        let tone = ideal_tone(0.35e6, 1.0e6, 4096); // 0.35 cyc/sample
        let out = f.process(&tone);
        let att = mean_power(&out[64..]) / mean_power(&tone);
        assert!(att < 0.01, "stopband tone leaked: {att}");
    }

    #[test]
    fn reset_clears_state() {
        let mut f = Fir::new(vec![1.0; 8]);
        f.push(Complex::ONE);
        f.reset();
        let y = f.push(Complex::ZERO);
        assert_eq!(y, Complex::ZERO);
    }

    #[test]
    fn paper_frontend_is_14_taps() {
        let f = paper_lora_frontend(0.25);
        assert_eq!(f.len(), 14);
        assert!((f.group_delay() - 6.5).abs() < 1e-12);
    }

    #[test]
    fn linear_phase_symmetry() {
        let f = lowpass(21, 0.2, Window::Hann);
        let t = f.taps();
        for i in 0..t.len() / 2 {
            assert!(
                (t[i] - t[t.len() - 1 - i]).abs() < 1e-12,
                "tap {i} asymmetric"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn rejects_bad_cutoff() {
        lowpass(14, 0.75, Window::Hamming);
    }
}
