//! The framed receive over a superposed pass.
//!
//! Per pass, the faded signal `s` and the noise `n` are filtered once
//! each, and each `(start, chirp)` window's signal and noise spectra are
//! formed the first time any point visits it, into the worker's
//! [`WindowCache`]. Per point, the receiver's own search
//! ([`Demodulator::receive`]) runs over `g·S + N`; every decision it
//! takes — the preamble gate, the peak symbols, the refine and SFD
//! magnitude comparisons, the SFD score's sign, the data symbols — is a
//! comparison whose two sides carry bounds of a few
//! `δ = MARGIN·(g·A_s + A_n + R·ρ) + R·ρ` ([`WindowProjection::delta`]),
//! certified as the stream receivers' argmax is, or refused.

use tinysdr_dsp::complex::{l2_norm, Complex};
use tinysdr_rf::superpose::{
    certified_argmax, LinearPass, Ranking, ReceiverScratch, WindowCache, WindowProjection,
};

use super::{Chirp, DemodFrame, Demodulator, FrameWindows, Level};

/// A decision the superposed source could not certify.
#[derive(Debug, Clone, Copy)]
struct Uncertain;

/// The superposed window source of one point: the pass's filtered
/// signal and noise, the window memo, and the point's gain `g`.
struct SuperposedWindows<'a> {
    demod: &'a Demodulator,
    /// The filtered, padded signal and noise.
    filtered: [&'a [Complex]; 2],
    /// The unfiltered signal and noise the window bounds read.
    raw: [&'a [Complex]; 2],
    windows: &'a mut WindowCache,
    /// [`Demodulator::window_gain`].
    window_gain: f64,
    g: f64,
    /// The point's residual bound `ρ`.
    rho: f64,
}

impl SuperposedWindows<'_> {
    /// The projections of the window at `start` against `chirp`, formed
    /// on the pass's first visit. Each bound is `√N·‖h‖₁·‖x‖₂` over the
    /// unfiltered samples the window's FIR outputs read, its history
    /// included, and the residual gain `√N·‖h‖₁·√L` for the `L` samples
    /// read; padding reads nothing.
    fn window(&mut self, start: usize, chirp: Chirp) -> WindowProjection<'_> {
        let d = self.demod;
        let ns = d.cfg.samples_per_symbol();
        let (reference, key) = match chirp {
            Chirp::Up => (&d.up_ref, 2 * start),
            Chirp::Down => (&d.down_ref, 2 * start + 1),
        };
        let ([signal_in, noise_in], [signal_raw, noise_raw]) = (self.filtered, self.raw);
        let gain = self.window_gain;
        self.windows.window(key, |signal, noise| {
            for (out, x) in [(signal, signal_in), (noise, noise_in)] {
                // lint: allow(unchecked-index, the search asks only for windows inside len())
                let window = &x[start..start + ns];
                for ((o, &z), &r) in out.iter_mut().zip(window).zip(reference) {
                    *o = z * r;
                }
                d.plan.forward(out);
            }
            let delay = d.fir.group_delay() as usize;
            let history = d.fir.len() - 1;
            let len = signal_raw.len();
            let read =
                (start + delay).saturating_sub(history).min(len)..(start + ns + delay).min(len);
            // lint: allow(unchecked-index, both ends are clamped to the equal lengths)
            let (s, n) = (&signal_raw[read.clone()], &noise_raw[read]);
            let residual = gain * (s.len() as f64).sqrt();
            (gain * l2_norm(s), gain * l2_norm(n), residual)
        })
    }
}

impl FrameWindows for SuperposedWindows<'_> {
    type Refusal = Uncertain;

    fn len(&self) -> usize {
        let [signal, _] = self.filtered;
        signal.len()
    }

    /// The gate `M ≥ gate·μ` (peak over mean magnitude) with `M` and `μ`
    /// each within δ of the exact receive's, so the lead `M − gate·μ`
    /// within `(1 + |gate|)·δ`; a passing window also needs a certified
    /// peak bin. A mean within δ of zero (silence) is refused, since the
    /// exact gate reads quality 0 there.
    fn preamble_symbol(&mut self, start: usize) -> Result<Option<u16>, Uncertain> {
        let (g, rho, gate) = (self.g, self.rho, self.demod.preamble_quality);
        let w = self.window(start, Chirp::Up);
        let delta = w.delta(g, rho);
        let mut sum = 0.0;
        let rank = Ranking::of(w.powers(g).inspect(|p| sum += p.sqrt()));
        let mean = sum / w.signal.len() as f64;
        let tol = (1.0 + gate.abs()) * delta;
        let lead = rank.top - gate * mean;
        if !(tol.is_finite() && mean > delta) {
            Err(Uncertain)
        } else if lead > tol {
            let bin = rank.certified(delta).ok_or(Uncertain)?;
            Ok(Some(bin as u16))
        } else if -lead > tol {
            Ok(None)
        } else {
            Err(Uncertain)
        }
    }

    /// Symbol 0 is certified when bin 0 beats every other bin by more
    /// than 2δ, and ruled out when some bin beats bin 0 by more than 2δ.
    fn zero_peak(&mut self, start: usize) -> Result<Option<Level>, Uncertain> {
        let (g, rho) = (self.g, self.rho);
        let w = self.window(start, Chirp::Up);
        let delta = w.delta(g, rho);
        let rank = Ranking::of(w.powers(g));
        if rank.certified(delta) == Some(0) {
            return Ok(Some(Level {
                value: rank.top,
                err: delta,
            }));
        }
        let zero = w.powers(g).next().unwrap_or(0.0).sqrt();
        if delta.is_finite() && rank.top - zero > 2.0 * delta {
            return Ok(None);
        }
        Err(Uncertain)
    }

    fn magnitude(&mut self, start: usize, chirp: Chirp) -> Level {
        let (g, rho) = (self.g, self.rho);
        let w = self.window(start, chirp);
        Level {
            value: w.powers(g).fold(0.0, f64::max).sqrt(),
            err: w.delta(g, rho),
        }
    }

    fn data_symbol(&mut self, start: usize) -> Result<u16, Uncertain> {
        let (g, rho) = (self.g, self.rho);
        let w = self.window(start, Chirp::Up);
        certified_argmax(&w, g, rho)
            .map(|bin| bin as u16)
            .ok_or(Uncertain)
    }

    /// Decided when the two values differ by more than their bounds
    /// together; ties and non-finite bounds are refused.
    fn greater(&self, a: Level, b: Level) -> Result<bool, Uncertain> {
        let (lead, err) = (a.value - b.value, a.err + b.err);
        if lead > err {
            Ok(true)
        } else if -lead > err {
            Ok(false)
        } else {
            Err(Uncertain)
        }
    }
}

impl Demodulator {
    /// Run the framed receive at every point of a superposed pass,
    /// handing `each(point, frame)` the receive of every point whose
    /// decisions were all certified — [`Demodulator::demodulate`]'s
    /// result on the capture `g·signal + noise + q`, `q` the point's
    /// quantization residual. Points without a gain and refused points
    /// get no call.
    ///
    /// # Panics
    /// Panics if the signal and noise lengths differ or the demodulator
    /// oversamples (an oversampled peak folds two bins).
    pub(crate) fn decide_superposed(
        &self,
        pass: &LinearPass<'_>,
        scratch: &mut ReceiverScratch,
        mut each: impl FnMut(usize, Option<DemodFrame>),
    ) {
        assert_eq!(
            pass.signal.len(),
            pass.noise.len(),
            "signal and noise must align"
        );
        assert_eq!(self.cfg.osr, 1, "superposition needs one sample per chip");
        let ReceiverScratch {
            front: [signal, noise],
            windows,
        } = scratch;
        let mut fir = self.fir.clone();
        self.filter_padded(pass.signal, &mut fir, signal);
        self.filter_padded(pass.noise, &mut fir, noise);
        windows.clear(self.cfg.samples_per_symbol());
        let window_gain = self.window_gain();
        for (i, (gain, &rho)) in pass.gains.iter().zip(pass.residuals).enumerate() {
            let Some(g) = *gain else {
                continue;
            };
            let mut source = SuperposedWindows {
                demod: self,
                filtered: [signal, noise],
                raw: [pass.signal, pass.noise],
                windows: &mut *windows,
                window_gain,
                g,
                rho,
            };
            if let Ok(frame) = self.receive(&mut source) {
                each(i, frame);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demodulator::ExactWindows;
    use std::convert::Infallible;

    /// SF8 at one sample per chip: 256-sample windows and bins.
    const N: usize = 256;
    /// The superposed source's gain.
    const G: f64 = 0.7;

    fn demod() -> Demodulator {
        Demodulator::standard(8, 125e3, 1, 1)
    }

    /// A spectrum of `floor` in every bin but `bins`.
    fn spectrum(floor: Complex, bins: &[(usize, Complex)]) -> Vec<Complex> {
        let mut s = vec![floor; N];
        for &(k, v) in bins {
            s[k] = v;
        }
        s
    }

    /// A window whose dechirp against `chirp` transforms to `spectrum`
    /// up to rounding: the inverse transform, divided by the (quantized,
    /// so not quite unit-modulus) reference.
    fn window_with(d: &Demodulator, spectrum: &[Complex], chirp: Chirp) -> Vec<Complex> {
        let reference = match chirp {
            Chirp::Up => &d.up_ref,
            Chirp::Down => &d.down_ref,
        };
        let mut x = spectrum.to_vec();
        d.plan.inverse(&mut x);
        x.iter()
            .zip(reference)
            .map(|(&z, &r)| (z * r.conj()).scale(1.0 / r.norm_sqr()))
            .collect()
    }

    /// A window of one sample `z` at `i`: dechirped against either
    /// chirp it transforms to `|z|` in every bin.
    fn impulse(i: usize, z: Complex) -> Vec<Complex> {
        let mut w = vec![Complex::ZERO; N];
        w[i] = z;
        w
    }

    /// `windows` back to back, then the framed path's padding.
    fn capture(windows: &[Vec<Complex>]) -> Vec<Complex> {
        let mut x = windows.concat();
        x.extend(vec![Complex::ZERO; N]);
        x
    }

    /// Hand `check` the superposed source of the filtered capture
    /// `filtered` (noise zero, gain [`G`], no residual, bounds read from
    /// the unpadded samples) and the exact source of the capture it
    /// stands for, `G·filtered`.
    fn with_sources(
        filtered: &[Complex],
        check: impl FnOnce(&Demodulator, &mut SuperposedWindows<'_>, &mut ExactWindows<'_>),
    ) {
        let d = demod();
        let zeros = vec![Complex::ZERO; filtered.len()];
        let scaled: Vec<Complex> = filtered.iter().map(|z| z.scale(G)).collect();
        let unpadded = filtered.len() - N;
        let mut windows = WindowCache::default();
        windows.clear(N);
        let mut fast = SuperposedWindows {
            demod: &d,
            filtered: [filtered, &zeros],
            raw: [&filtered[..unpadded], &zeros[..unpadded]],
            windows: &mut windows,
            window_gain: d.window_gain(),
            g: G,
            rho: 0.0,
        };
        let mut buf = Vec::new();
        let mut exact = ExactWindows {
            demod: &d,
            filtered: &scaled,
            buf: &mut buf,
        };
        check(&d, &mut fast, &mut exact);
    }

    fn exact<T>(r: Result<T, Infallible>) -> T {
        let Ok(v) = r;
        v
    }

    /// Give `fast` the residual bound `ρ` at which `R·ρ = G·gap` on every
    /// window of `windows`: a decision the superposition certifies by a
    /// margin of about `G·gap` (more than `2δ(G, 0)`) then lies inside
    /// `2δ(G, ρ)`, and must be refused.
    fn cover(fast: &mut SuperposedWindows<'_>, windows: &[(usize, Chirp)], gap: f64) {
        let r = windows
            .iter()
            .map(|&(start, chirp)| fast.window(start, chirp).residual_gain)
            .fold(f64::INFINITY, f64::min);
        fast.rho = G * gap.abs() / r;
    }

    #[test]
    fn preamble_gate_ties_are_refused() {
        // peak 7 at bin 30 and 101 bins of magnitude 5, the rest silent:
        // mean 512/256 = 2, so the quality sits exactly on the 3.5 gate
        let tie = 7.0;
        for (peak, certified) in [(tie, false), (tie + 0.1, true), (tie - 0.1, true)] {
            let mut bins: Vec<(usize, Complex)> =
                (100..201).map(|k| (k, Complex::new(3.0, -4.0))).collect();
            bins.push((30, Complex::new(0.0, peak)));
            let x = capture(&[window_with(
                &demod(),
                &spectrum(Complex::ZERO, &bins),
                Chirp::Up,
            )]);
            with_sources(&x, |_, fast, ex| {
                let got = fast.preamble_symbol(0);
                assert_eq!(got.is_ok(), certified, "peak {peak}");
                if let Ok(symbol) = got {
                    assert_eq!(symbol, exact(ex.preamble_symbol(0)), "peak {peak}");
                }
                // a residual that covers the lead leaves the gate open
                cover(fast, &[(0, Chirp::Up)], peak - tie);
                assert!(fast.preamble_symbol(0).is_err(), "peak {peak}");
            });
        }
    }

    #[test]
    fn preamble_peak_ties_are_refused() {
        // the gate passes by far, but bins 30 and 31 share the peak (at
        // phases whose components round differently)
        let floor = Complex::new(0.3, 0.4);
        for (rival, certified) in [(7.0, false), (6.9, true)] {
            let bins = [
                (30, Complex::from_angle(-2.2).scale(7.0)),
                (31, Complex::from_angle(0.4).scale(rival)),
            ];
            let x = capture(&[window_with(&demod(), &spectrum(floor, &bins), Chirp::Up)]);
            with_sources(&x, |_, fast, ex| {
                let got = fast.preamble_symbol(0);
                assert_eq!(got.is_ok(), certified, "rival {rival}");
                if let Ok(symbol) = got {
                    assert_eq!(symbol, Some(30));
                    assert_eq!(symbol, exact(ex.preamble_symbol(0)));
                }
                cover(fast, &[(0, Chirp::Up)], 7.0 - rival);
                assert!(fast.preamble_symbol(0).is_err(), "rival {rival}");
            });
        }
    }

    #[test]
    fn refine_symbol_ties_are_refused() {
        // bin 0 against bin 5: tied (|3 + 4i| = |4 + 3i|), bin 0 ahead,
        // bin 5 ahead
        let floor = Complex::new(0.2, -0.1);
        for (rival, want) in [(3.0, None), (2.9, Some(true)), (3.1, Some(false))] {
            let bins = [(0, Complex::new(3.0, 4.0)), (5, Complex::new(4.0, rival))];
            let x = capture(&[window_with(&demod(), &spectrum(floor, &bins), Chirp::Up)]);
            with_sources(&x, |_, fast, ex| {
                let got = fast.zero_peak(0);
                assert_eq!(
                    got.as_ref().ok().map(Option::is_some),
                    want,
                    "rival {rival}"
                );
                let exact_peak = exact(ex.zero_peak(0));
                if let Ok(level) = got {
                    assert_eq!(level.is_some(), exact_peak.is_some(), "rival {rival}");
                }
                // |4 + 2.9i| and |4 + 3.1i| sit within 0.06 of 5
                cover(fast, &[(0, Chirp::Up)], 0.1);
                assert!(fast.zero_peak(0).is_err(), "rival {rival}");
            });
        }
    }

    #[test]
    fn magnitude_comparison_ties_are_refused() {
        // two windows peaking at |3 + 4i| = |5i| = 5: the refine's and
        // the SFD search's comparisons between them refuse either way
        let a = window_with(
            &demod(),
            &spectrum(Complex::new(0.1, 0.0), &[(0, Complex::new(3.0, 4.0))]),
            Chirp::Up,
        );
        for (peak, certified) in [(5.0, false), (5.01, true)] {
            let bins = [(0, Complex::new(0.0, peak))];
            let b = window_with(
                &demod(),
                &spectrum(Complex::new(0.2, -0.1), &bins),
                Chirp::Up,
            );
            with_sources(&capture(&[a.clone(), b]), |_, fast, ex| {
                let (ma, mb) = (fast.magnitude(0, Chirp::Up), fast.magnitude(N, Chirp::Up));
                let (ea, eb) = (ex.magnitude(0, Chirp::Up), ex.magnitude(N, Chirp::Up));
                for (x, y, ex_x, ex_y) in [(ma, mb, ea, eb), (mb, ma, eb, ea)] {
                    let got = fast.greater(x, y);
                    assert_eq!(got.is_ok(), certified, "peak {peak}");
                    if let Ok(more) = got {
                        assert_eq!(more, exact(ex.greater(ex_x, ex_y)), "peak {peak}");
                    }
                }
                let (za, zb) = (fast.zero_peak(0), fast.zero_peak(N));
                let (Ok(Some(za)), Ok(Some(zb))) = (za, zb) else {
                    panic!("both windows peak at bin 0");
                };
                assert_eq!(fast.greater(zb, za).is_ok(), certified, "peak {peak}");
                // a residual that covers the gap leaves both comparisons open
                cover(fast, &[(0, Chirp::Up), (N, Chirp::Up)], peak - 5.0);
                let (ma, mb) = (fast.magnitude(0, Chirp::Up), fast.magnitude(N, Chirp::Up));
                assert!(fast.greater(ma, mb).is_err(), "peak {peak}");
                assert!(fast.greater(mb, ma).is_err(), "peak {peak}");
            });
        }
    }

    #[test]
    fn sfd_score_ties_are_refused() {
        let d = demod();
        let (u, v) = (Complex::new(0.6, 0.8), Complex::new(-0.28, 0.96));
        // impulse windows spread flat at their magnitude against either
        // chirp, so every SFD score d0 + d1 − u0 − u1 is exactly 0:
        // with one offset only the score's sign is decided, with two
        // the argmax between them comes first
        for windows in [
            vec![impulse(3, u), impulse(100, v)],
            vec![impulse(3, u), impulse(100, v), impulse(7, v)],
        ] {
            with_sources(&capture(&windows), |d, fast, _| {
                assert!(d.find_sfd(fast, 0).is_err(), "{} windows", windows.len());
            });
        }
        // a downchirp in the first SFD window settles both
        let down = window_with(
            &d,
            &spectrum(Complex::new(0.05, 0.0), &[(0, Complex::new(0.0, 9.0))]),
            Chirp::Down,
        );
        with_sources(
            &capture(&[impulse(3, u), down, impulse(7, v)]),
            |d, fast, ex| {
                let got = d.find_sfd(fast, 0);
                assert!(matches!(got, Ok(Some(N))), "{got:?}");
                assert_eq!(got.ok(), Some(exact(d.find_sfd(ex, 0))));
                // the winning score d₀ + d₁ − u₀ − u₁ carries four window
                // bounds: a residual of a quarter of it covers its sign
                let score = fast.magnitude(N, Chirp::Down).value
                    + fast.magnitude(2 * N, Chirp::Down).value
                    - fast.magnitude(N, Chirp::Up).value
                    - fast.magnitude(2 * N, Chirp::Up).value;
                let windows = [N, 2 * N].map(|start| (start, Chirp::Up));
                cover(fast, &windows, score / G / 4.0);
                assert!(d.find_sfd(fast, 0).is_err());
            },
        );
    }

    #[test]
    fn data_symbol_ties_are_refused() {
        let floor = Complex::new(-0.1, 0.3);
        // two bins of magnitude 5 at phases whose components round
        // differently
        for (rival, certified) in [(5.0, false), (5.01, true)] {
            let bins = [
                (17, Complex::from_angle(-2.2).scale(5.0)),
                (200, Complex::from_angle(0.4).scale(rival)),
            ];
            let x = capture(&[window_with(&demod(), &spectrum(floor, &bins), Chirp::Up)]);
            with_sources(&x, |_, fast, ex| {
                let got = fast.data_symbol(0);
                assert_eq!(got.is_ok(), certified, "rival {rival}");
                if let Ok(symbol) = got {
                    assert_eq!(symbol, 200);
                    assert_eq!(symbol, exact(ex.data_symbol(0)));
                }
                cover(fast, &[(0, Chirp::Up)], rival - 5.0);
                assert!(fast.data_symbol(0).is_err(), "rival {rival}");
            });
        }
    }

    #[test]
    fn all_zero_padding_windows_are_refused() {
        // the window after a one-window capture is all padding: every bin
        // is exactly zero, so the exact receive settles each decision by
        // its first-maximum and zero-quality rules, which the superposed
        // source does not reproduce — it refuses them all
        let x = capture(&[impulse(40, Complex::new(0.0, 1.0))]);
        with_sources(&x, |_, fast, ex| {
            assert!(fast.preamble_symbol(N).is_err());
            assert_eq!(exact(ex.preamble_symbol(N)), None);
            assert!(fast.zero_peak(N).is_err());
            assert!(exact(ex.zero_peak(N)).is_some());
            assert!(fast.data_symbol(N).is_err());
            assert_eq!(exact(ex.data_symbol(N)), 0);
        });
        // a whole pass that reaches the padding window without a
        // preamble is left to the exact path at every point
        let d = demod();
        let signal: Vec<Complex> = (0..4 * N)
            .map(|i| Complex::from_angle(0.37 * (i * i) as f64).scale(1e-3))
            .collect();
        let noise = vec![Complex::ZERO; signal.len()];
        let gains = [Some(0.5), Some(2.0)];
        let pass = LinearPass {
            signal: &signal,
            noise: &noise,
            gains: &gains,
            residuals: &[0.0; 2],
        };
        let mut decided = 0;
        d.decide_superposed(&pass, &mut ReceiverScratch::default(), |_, _| decided += 1);
        assert_eq!(decided, 0);
    }
}
