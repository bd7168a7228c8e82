//! Iterative radix-2 FFT with a reusable plan.
//!
//! The paper's LoRa demodulator feeds dechirped symbols to "an FFT block
//! implemented using a standard IP core from Lattice" (§4.1) whose size is
//! `2^SF` (64..4096 for SF 6..12, times the oversampling ratio). This
//! module is the software stand-in for that core. A [`FftPlan`] owns the
//! twiddle-factor and bit-reversal tables so per-symbol work is
//! allocation-free, mirroring how the hardware core is instantiated once
//! per configuration.

use crate::complex::Complex;

/// Precomputed FFT plan for a fixed power-of-two size.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Forward twiddles laid out stage by stage: the stage with
    /// half-width `h` reads `stage_twiddles[h − 1 .. 2h − 1]`, entry `k`
    /// being `exp(-j 2π k / 2h)` — the value a strided walk of the
    /// `n/2`-entry table would load (it is copied from it), stored
    /// contiguously so every stage streams its twiddles in order.
    stage_twiddles: Vec<Complex>,
    /// Bit-reversal permutation.
    rev: Vec<u32>,
}

impl FftPlan {
    /// Build a plan for an `n`-point transform.
    ///
    /// # Panics
    /// Panics if `n` is not a power of two or is smaller than 2.
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 2 && n.is_power_of_two(),
            "FFT size must be a power of two >= 2, got {n}"
        );
        let log2n = n.trailing_zeros();
        let twiddles: Vec<Complex> = (0..n / 2)
            .map(|k| {
                let theta = -std::f64::consts::TAU * k as f64 / n as f64;
                Complex::from_angle(theta)
            })
            .collect();
        let mut stage_twiddles = Vec::with_capacity(n - 1);
        let mut half = 1;
        while half < n {
            let step = n / (2 * half);
            stage_twiddles.extend(twiddles.iter().step_by(step).take(half));
            half *= 2;
        }
        let mut rev = vec![0u32; n];
        for i in 0..n {
            rev[i] = (rev[i >> 1] >> 1) | (((i & 1) as u32) << (log2n - 1));
        }
        FftPlan {
            n,
            stage_twiddles,
            rev,
        }
    }

    /// Transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false`: [`FftPlan::new`] rejects sizes below 2, so a plan
    /// cannot be empty. Provided only so `len` follows Rust's
    /// `len`/`is_empty` API convention.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place forward DFT (no normalization), `X[k] = Σ x[n] e^{-j2πnk/N}`.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the plan size.
    pub fn forward(&self, buf: &mut [Complex]) {
        assert_eq!(buf.len(), self.n, "FFT buffer length mismatch");
        self.permute(buf);
        self.butterflies::<false>(buf);
    }

    /// In-place inverse DFT with `1/N` normalization.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the plan size.
    pub fn inverse(&self, buf: &mut [Complex]) {
        assert_eq!(buf.len(), self.n, "FFT buffer length mismatch");
        self.permute(buf);
        self.butterflies::<true>(buf);
        let inv = 1.0 / self.n as f64;
        for s in buf.iter_mut() {
            *s = s.scale(inv);
        }
    }

    /// Convenience: forward transform of a slice into a fresh vector.
    pub fn forward_vec(&self, x: &[Complex]) -> Vec<Complex> {
        let mut buf = x.to_vec();
        self.forward(&mut buf);
        buf
    }

    fn permute(&self, buf: &mut [Complex]) {
        for i in 0..self.n {
            let j = self.rev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
    }

    /// Radix-2 decimation-in-time stages over a bit-reversed buffer.
    /// Each stage splits every `2h`-block into its halves and walks them
    /// against the stage's contiguous twiddle run. Each butterfly forms
    /// `y = b·w`, then `a + y` and `a − y`.
    fn butterflies<const INVERSE: bool>(&self, buf: &mut [Complex]) {
        let mut half = 1;
        while half < self.n {
            // lint: allow(unchecked-index, the table holds n − 1 entries and half < n)
            let tw = &self.stage_twiddles[half - 1..2 * half - 1];
            for block in buf.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                    let w = if INVERSE { w.conj() } else { w };
                    let x = *a;
                    let y = *b * w;
                    *a = x + y;
                    *b = x - y;
                }
            }
            half *= 2;
        }
    }
}

/// One-shot forward FFT (builds a plan internally). Prefer [`FftPlan`] in
/// loops.
pub fn fft(x: &[Complex]) -> Vec<Complex> {
    FftPlan::new(x.len()).forward_vec(x)
}

/// One-shot inverse FFT with `1/N` normalization.
pub fn ifft(x: &[Complex]) -> Vec<Complex> {
    let plan = FftPlan::new(x.len());
    let mut buf = x.to_vec();
    plan.inverse(&mut buf);
    buf
}

/// Index and magnitude of the strongest FFT bin.
///
/// This is the paper's "Symbol Detector \[that\] scans the output of the FFT
/// for peaks" (Fig. 6b). Returns `Some((argmax_k |X[k]|, max |X[k]|))`, or
/// `None` for an empty spectrum (matching the `Ecdf` convention of
/// returning `None` instead of a silent NaN).
pub fn peak_bin(x: &[Complex]) -> Option<(usize, f64)> {
    if x.is_empty() {
        return None;
    }
    let mut best = (0usize, f64::MIN);
    for (k, v) in x.iter().enumerate() {
        let m = v.norm_sqr();
        if m > best.1 {
            best = (k, m);
        }
    }
    Some((best.0, best.1.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: Complex, b: Complex, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a} (tol {tol})");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2() {
        FftPlan::new(12);
    }

    #[test]
    fn impulse_transforms_to_flat() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        let plan = FftPlan::new(16);
        plan.forward(&mut x);
        for v in &x {
            assert_close(*v, Complex::ONE, 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 256;
        let k0 = 37;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::from_angle(std::f64::consts::TAU * k0 as f64 * i as f64 / n as f64))
            .collect();
        let spec = fft(&x);
        let (k, mag) = peak_bin(&spec).unwrap();
        assert_eq!(k, k0);
        assert!((mag - n as f64).abs() < 1e-6);
        // all other bins ~0
        for (i, v) in spec.iter().enumerate() {
            if i != k0 {
                assert!(v.abs() < 1e-6, "leakage at bin {i}: {}", v.abs());
            }
        }
    }

    #[test]
    fn round_trip_identity() {
        let n = 1024;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let y = ifft(&fft(&x));
        for (a, b) in y.iter().zip(&x) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn linearity() {
        let n = 64;
        let a: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.0)).collect();
        let b: Vec<Complex> = (0..n).map(|i| Complex::new(0.0, (n - i) as f64)).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        for i in 0..n {
            assert_close(fsum[i], fa[i] + fb[i], 1e-9);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 512;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 2.0).cos()))
            .collect();
        let time_energy: f64 = x.iter().map(|s| s.norm_sqr()).sum();
        let spec = fft(&x);
        let freq_energy: f64 = spec.iter().map(|s| s.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-12);
    }

    #[test]
    fn matches_naive_dft_small() {
        let n = 32;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 1.7).cos(), (i as f64 * 0.3).sin()))
            .collect();
        let fast = fft(&x);
        for (k, &bin) in fast.iter().enumerate() {
            let mut acc = Complex::ZERO;
            for (i, &xi) in x.iter().enumerate() {
                let theta = -std::f64::consts::TAU * (k * i) as f64 / n as f64;
                acc += xi * Complex::from_angle(theta);
            }
            assert_close(bin, acc, 1e-9);
        }
    }

    /// The strided-twiddle radix-2 kernel the per-stage tables replaced:
    /// one `n/2`-entry table, loaded at stride `n / len` per stage.
    fn strided_reference(x: &[Complex], inverse: bool) -> Vec<Complex> {
        let n = x.len();
        let twiddles: Vec<Complex> = (0..n / 2)
            .map(|k| Complex::from_angle(-std::f64::consts::TAU * k as f64 / n as f64))
            .collect();
        let bits = n.trailing_zeros();
        let mut buf = x.to_vec();
        for i in 0..n {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            if i < j {
                buf.swap(i, j);
            }
        }
        for stage in 0..bits {
            let len = 2usize << stage;
            let half = len / 2;
            let step = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let tw = twiddles[k * step];
                    let tw = if inverse { tw.conj() } else { tw };
                    let a = buf[start + k];
                    let b = buf[start + k + half] * tw;
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
            }
        }
        if inverse {
            let inv = 1.0 / n as f64;
            for s in buf.iter_mut() {
                *s = s.scale(inv);
            }
        }
        buf
    }

    #[test]
    fn stage_tables_are_bit_identical_to_strided_reference() {
        for bits in 1..=12u32 {
            let n = 1usize << bits;
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.913).sin(), -(i as f64 * 0.271).cos()))
                .collect();
            let plan = FftPlan::new(n);
            let mut fwd = x.clone();
            plan.forward(&mut fwd);
            assert_eq!(fwd, strided_reference(&x, false), "forward, n = {n}");
            let mut inv = x.clone();
            plan.inverse(&mut inv);
            assert_eq!(inv, strided_reference(&x, true), "inverse, n = {n}");
        }
    }

    #[test]
    fn peak_bin_of_empty_is_none() {
        // regression: used to return (0, sqrt(f64::MIN)) = NaN
        assert_eq!(peak_bin(&[]), None);
    }

    #[test]
    fn all_sf_sizes_plan() {
        // paper instantiates FFTs for SF 6..12
        for sf in 6..=12u32 {
            let plan = FftPlan::new(1 << sf);
            assert_eq!(plan.len(), 1 << sf);
        }
    }
}
