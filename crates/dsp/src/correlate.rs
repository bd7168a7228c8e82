//! Lock-step template correlation for noncoherent matched detection.
//!
//! The BLE GFSK and 802.15.4 O-QPSK receivers decide each window by the
//! largest `|Σₖ x[k]·conj(tₚ[k])|²` over a small bank of reference
//! waveforms `tₚ`. Correlating one template at a time is one serial add
//! chain per template; [`TemplateBank`] instead stores the bank
//! conjugated and transposed (sample-major, one lane per template, real
//! and imaginary parts split), so each received sample updates every
//! template's accumulator in lock-step — `L` independent chains the CPU
//! can overlap and the compiler can vectorize.
//!
//! The arithmetic is the per-template loop's, term for term: each
//! accumulator starts from zero and adds `x.re·tr − x.im·ti` and
//! `x.re·ti + x.im·tr` in sample order, with `ti = −t.im` stored so the
//! products are exactly those of `x * t.conj()`. Every energy therefore
//! rounds exactly as `Complex` accumulation does.

use crate::complex::Complex;

/// One sample position of the bank: template `p`'s real part and
/// negated imaginary part (its conjugate) in lane `p`.
#[derive(Debug, Clone, Copy)]
struct Row<const L: usize> {
    re: [f64; L],
    im: [f64; L],
}

/// `L` equal-length reference waveforms, conjugated and transposed for
/// lock-step correlation.
#[derive(Debug, Clone)]
pub struct TemplateBank<const L: usize> {
    rows: Vec<Row<L>>,
}

impl<const L: usize> TemplateBank<L> {
    /// Build the bank from `L` templates of equal length.
    ///
    /// # Panics
    /// Panics unless there are exactly `L` templates, all of one length.
    pub fn new(templates: &[Vec<Complex>]) -> Self {
        assert_eq!(templates.len(), L, "need exactly {L} templates");
        let len = templates.first().map_or(0, Vec::len);
        assert!(
            templates.iter().all(|t| t.len() == len),
            "templates must share one length"
        );
        let rows = (0..len)
            .map(|k| {
                let mut row = Row {
                    re: [0.0; L],
                    im: [0.0; L],
                };
                for (p, t) in templates.iter().enumerate() {
                    row.re[p] = t[k].re;
                    row.im[p] = -t[k].im;
                }
                row
            })
            .collect();
        TemplateBank { rows }
    }

    /// `Σₖ x[k]·conj(tₚ[k])` for every template `p`, over the first
    /// `min(x.len(), template length)` samples: the complex lane sums,
    /// bit-identical to accumulating `x[k] * t[k].conj()` into a
    /// `Complex` from zero, one template at a time. They are linear in
    /// `x`, which is what lets a sweep superpose signal and noise
    /// correlations.
    pub fn correlations(&self, x: &[Complex]) -> [Complex; L] {
        let (re, im) = self.lane_sums(x);
        let mut out = [Complex::ZERO; L];
        for ((c, &a), &b) in out.iter_mut().zip(&re).zip(&im) {
            *c = Complex::new(a, b);
        }
        out
    }

    /// `|Σₖ x[k]·conj(tₚ[k])|²` for every template `p`: the `norm_sqr`
    /// of each of [`TemplateBank::correlations`], taken straight from
    /// the split lanes.
    fn energies(&self, x: &[Complex]) -> [f64; L] {
        let (re, im) = self.lane_sums(x);
        let mut out = [0.0f64; L];
        for ((e, &a), &b) in out.iter_mut().zip(&re).zip(&im) {
            *e = a * a + b * b;
        }
        out
    }

    /// The real and imaginary lane sums behind
    /// [`TemplateBank::correlations`], accumulated in lock-step.
    fn lane_sums(&self, x: &[Complex]) -> ([f64; L], [f64; L]) {
        let mut re = [0.0f64; L];
        let mut im = [0.0f64; L];
        for (&x, row) in x.iter().zip(&self.rows) {
            let lanes = re.iter_mut().zip(im.iter_mut());
            for ((a, b), (&tr, &ti)) in lanes.zip(row.re.iter().zip(&row.im)) {
                *a += x.re * tr - x.im * ti;
                *b += x.re * ti + x.im * tr;
            }
        }
        (re, im)
    }

    /// The first template with the largest correlation energy
    /// `|Σₖ x[k]·conj(tₚ[k])|²` over the first `min(x.len(), template
    /// length)` samples, and that energy: `(0, f64::MIN)` when no energy
    /// beats `f64::MIN` (all NaN). Bit-identical to correlating one
    /// template at a time into a `Complex` from zero.
    pub fn best(&self, x: &[Complex]) -> (usize, f64) {
        let mut best = (0usize, f64::MIN);
        for (p, &e) in self.energies(x).iter().enumerate() {
            if e > best.1 {
                best = (p, e);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-template loop the bank replaces: one complex sum per
    /// template.
    fn serial_sums(templates: &[Vec<Complex>], x: &[Complex]) -> Vec<Complex> {
        templates
            .iter()
            .map(|t| {
                let mut c = Complex::ZERO;
                for (&s, &tv) in x.iter().zip(t) {
                    c += s * tv.conj();
                }
                c
            })
            .collect()
    }

    /// The per-template loop's energies.
    fn serial(templates: &[Vec<Complex>], x: &[Complex]) -> Vec<f64> {
        serial_sums(templates, x)
            .into_iter()
            .map(Complex::norm_sqr)
            .collect()
    }

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn waves(n: usize, len: usize, seed: u64) -> Vec<Vec<Complex>> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                (0..len)
                    .map(|_| Complex::new(lcg(&mut s), lcg(&mut s)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn energies_match_the_per_template_loop_bit_for_bit() {
        let t8 = waves(8, 12, 1);
        let bank8 = TemplateBank::<8>::new(&t8);
        let t16 = waves(16, 66, 2);
        let bank16 = TemplateBank::<16>::new(&t16);
        // shorter, equal and longer windows than the templates
        for (k, len) in [0usize, 1, 5, 11, 12, 13, 65, 66, 80]
            .into_iter()
            .enumerate()
        {
            let x = &waves(1, len, 10 + k as u64)[0];
            let got: Vec<u64> = bank8.energies(x).iter().map(|e| e.to_bits()).collect();
            let want: Vec<u64> = serial(&t8, x).iter().map(|e| e.to_bits()).collect();
            assert_eq!(got, want, "L = 8, {len} samples");
            let got: Vec<u64> = bank16.energies(x).iter().map(|e| e.to_bits()).collect();
            let want: Vec<u64> = serial(&t16, x).iter().map(|e| e.to_bits()).collect();
            assert_eq!(got, want, "L = 16, {len} samples");
            // the complex lane sums themselves, bit for bit
            let bits = |c: &Complex| (c.re.to_bits(), c.im.to_bits());
            let got: Vec<_> = bank16.correlations(x).iter().map(bits).collect();
            let want: Vec<_> = serial_sums(&t16, x).iter().map(bits).collect();
            assert_eq!(got, want, "L = 16 sums, {len} samples");
        }
    }

    #[test]
    fn best_is_the_first_maximum() {
        // two identical templates tie: the first wins
        let mut t = waves(4, 6, 3);
        t[3] = t[1].clone();
        let bank = TemplateBank::<4>::new(&t);
        let x = t[1].clone();
        assert_eq!(bank.best(&x).0, 1);
        // an empty window correlates to zero everywhere: template 0
        assert_eq!(bank.best(&[]), (0, 0.0));
        // signed zeros: a zero sample still yields +0 energies
        assert_eq!(bank.energies(&[Complex::ZERO; 3]), [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "one length")]
    fn ragged_templates_are_rejected() {
        let mut t = waves(2, 4, 5);
        t[1].pop();
        let _ = TemplateBank::<2>::new(&t);
    }
}
