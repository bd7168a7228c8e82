//! Superposed linear receivers: decide every RSSI point of a prepared
//! pass from two projections.
//!
//! The capture at RSSI `r` is `g(r)·s + n + q`: `s` the prepared front
//! half with its fading applied ([`PreparedPass::faded_signal`]), `n` the
//! prepared noise ([`PreparedPass::noise`]), `g(r)` the stage-6 gain
//! ([`PreparedPass::rssi_gain`]) and `q` the ADC stage's quantization
//! residual, every `|q_k|` at most the point's
//! `ρ = `[`ImpairmentChain::residual_bounds`] (0 without ADC stage). A
//! receiver that is linear in its capture up to the decisions it takes
//! on each window — LoRa's FIR → dechirp → FFT, the 802.15.4 and BLE
//! template correlators — maps that capture to `g·R(s) + R(n) + R(q)`.
//! So a [`LinearReceiver`] projects `s` and `n` once per pass, window by
//! window, and decides each point of the curve from `g·S + N`, with no
//! per-point capture, filter, transform or correlation; `R(q)` is only
//! bounded, by `R·ρ` per bin.
//!
//! The superposition rounds differently from the exact path
//! (`apply_prepared_into` → `demodulate`) and leaves the residual
//! out, so a point is decided only when every decision it takes is
//! **certified**: the two sides of each comparison differ by more than
//! the bounds they carry, a few [`WindowProjection::delta`] each, on
//! `|Y_fast − Y_exact|`. Any uncertain decision, non-finite bound or
//! missing gain sends the **whole point** to the exact path, so the
//! superposed path never needs a tie rule of its own and every count it
//! produces is the exact path's count.
//!
//! Stream receivers (LoRa SER, 802.15.4, BLE) decide a fixed sequence of
//! windows by one argmax each and share [`decide_stream`]. The framed
//! LoRa receiver visits data-dependent windows and decides its own pass,
//! projecting each window once into a [`WindowCache`].

use tinysdr_dsp::complex::Complex;

use crate::impairments::{ImpairmentChain, PreparedPass};
use crate::phy::{DemodResult, PhyModem};

/// Relative bound on the rounding gap between the superposed and the
/// exact decision statistic of one bin. For window bounds `A_s`, `A_n`,
/// `R` (see [`WindowProjection`]), gain `g` and residual bound `ρ`,
/// `|Y_fast − Y_exact| ≤ δ = MARGIN·(g·A_s + A_n + R·ρ) + R·ρ`
/// ([`WindowProjection::delta`]): the first term is rounding, the second
/// the quantization residual `q` the superposition leaves out (the
/// receiver is linear, so `|R(q)_k| ≤ R·ρ`). Without ADC stage `ρ = 0`
/// and rounding is all that is left.
///
/// Derivation. Let ε = 2⁻⁵³. Every value either path forms is bounded by
/// `g·A_s + A_n + R·ρ` (up to a factor 1 + O(ε)): the capture is
/// `g·s + n + q`, and each of the three bounds covers every bin of the
/// receiver's projection of its part *and* every partial sum on the way
/// there (the bounds are computed from the window's unfiltered inputs,
/// FIR history included, so filter attenuation cannot hide input energy).
/// Each floating-point operation then moves a bin by at most a few ε
/// times that bound, accumulated along the chain of operations from
/// capture to magnitude:
/// - the capture `(x·g)·h + n` on the exact path, and `g·S + N` on the
///   fast one: ≤ 4ε each;
/// - the LoRa receiver: the 15-tap FIR (`γ₁₅` ≈ 15ε), the unit-modulus
///   dechirp (3ε) and ≤ 10 radix-2 stages at ≈ 7ε each (Higham's
///   `η = μ + γ₄(√2 + μ)` per stage, twiddles exact to an ulp, relative
///   to `√N·‖w‖₂ ≤ A`): ≤ 90ε per receive;
/// - the 802.15.4 and BLE receivers: one 66-term (12-term at 4 samples
///   per bit) correlation per template (`γ₆₆·Σ|x||t| ≤ γ₆₆·A`): ≤ 70ε
///   per receive;
/// - the magnitude that ranks the bins, `√(re² + im²)`: 2ε.
///
/// Two receives plus the rest stay below `2·90ε + 10ε = 190ε ≈ 2.1·10⁻¹⁴`,
/// so `MARGIN = 10⁻¹⁰` keeps a safety factor above 4000 over the worst
/// receiver here. That slack also covers the exact receiver's own
/// arithmetic after the magnitudes — the mean of ≤ 4096 magnitudes
/// (≤ 4096ε relative), a quotient, a sum of four magnitudes — each a
/// relative error of at most ~10⁻¹² on values bounded by the same sum.
/// (The ADC stage's own rounding sits inside `ρ`, whose slack covers
/// it.) It is a property of the arithmetic, not a tuning knob: a smaller
/// value risks a flipped decision; a larger one only sends more points
/// to the exact path (at real noise levels the certified gap is ~10⁻⁹ of
/// the bin spread, so almost none fall back without ADC stage).
pub const MARGIN: f64 = 1e-10;

/// One window of a superposed pass: the receiver's decision statistic
/// for the signal and for the noise window, bin by bin, a bound on
/// each, and the receiver's gain on a bounded residual.
#[derive(Debug, Clone, Copy)]
pub struct WindowProjection<'a> {
    /// `R(s)` over the window: one complex statistic per bin.
    pub signal: &'a [Complex],
    /// `R(n)` over the window, bin-aligned with `signal`.
    pub noise: &'a [Complex],
    /// `A_s`: a bound on `|R(x)_k|` for every bin `k` and every
    /// intermediate sum of the projection, valid for any input equal to
    /// `s` on the samples the window reads — a norm of those unfiltered
    /// samples times the receiver's worst-case gain.
    pub signal_bound: f64,
    /// `A_n`: the same bound for the noise window.
    pub noise_bound: f64,
    /// `R`: a bound on `|R(q)_k|`, every intermediate sum included, per
    /// unit of `max_k |q_k|` over the samples the window reads — the
    /// receiver's bound factor times `√(samples the window reads)`.
    pub residual_gain: f64,
}

impl WindowProjection<'_> {
    /// `δ = MARGIN·(g·A_s + A_n + R·ρ) + R·ρ`: at gain `g` and residual
    /// bound `ρ` (0 without ADC stage, where `δ` is the rounding term
    /// alone), the bound on the gap between any bin of `g·S + N` and
    /// the exact receive's bin, and so between their magnitudes.
    pub fn delta(&self, g: f64, rho: f64) -> f64 {
        let residual = self.residual_gain * rho;
        MARGIN * (g * self.signal_bound + self.noise_bound + residual) + residual
    }

    /// `|g·S_k + N_k|²` for every bin `k`, in bin order.
    pub fn powers(&self, g: f64) -> impl Iterator<Item = f64> + '_ {
        self.signal.iter().zip(self.noise).map(move |(s, n)| {
            let re = g * s.re + n.re;
            let im = g * s.im + n.im;
            re * re + im * im
        })
    }
}

/// The two largest magnitudes of a superposed window and the bin of
/// the larger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ranking {
    /// The bin with the largest magnitude (the first, on exact ties).
    pub bin: usize,
    /// Its magnitude (`√` of the largest power; `NaN` without bins).
    pub top: f64,
    /// The largest magnitude among the other bins (0 with one bin).
    pub runner_up: f64,
}

impl Ranking {
    /// Rank bins given their powers `|Y_k|²` in bin order, in one pass.
    pub fn of(powers: impl IntoIterator<Item = f64>) -> Ranking {
        let (mut bin, mut top, mut second) = (0usize, -1.0f64, -1.0f64);
        for (k, p) in powers.into_iter().enumerate() {
            if p > second {
                if p > top {
                    second = top;
                    top = p;
                    bin = k;
                } else {
                    second = p;
                }
            }
        }
        Ranking {
            bin,
            top: top.sqrt(),
            runner_up: second.max(0.0).sqrt(),
        }
    }

    /// The top bin when the exact receiver is certain to pick it too:
    /// its magnitude beats every other bin's by more than `2·delta`, so
    /// no rounding of either path within `delta` can reorder them.
    /// `None` when the gap is within `2·delta` (ties included) or
    /// `delta` is not finite.
    pub fn certified(&self, delta: f64) -> Option<usize> {
        (delta.is_finite() && self.top - self.runner_up > 2.0 * delta).then_some(self.bin)
    }
}

/// The winning bin of `|g·S + N|` when the exact receiver is certain to
/// pick it too ([`Ranking::certified`] at the window's `δ(g, ρ)`).
pub fn certified_argmax(w: &WindowProjection<'_>, g: f64, rho: f64) -> Option<usize> {
    Ranking::of(w.powers(g)).certified(w.delta(g, rho))
}

/// One prepared pass as a linear receiver sees it.
#[derive(Debug, Clone, Copy)]
pub struct LinearPass<'a> {
    /// The faded signal `s = h∘F`.
    pub signal: &'a [Complex],
    /// The prepared noise `n`, sample-aligned with `signal`.
    pub noise: &'a [Complex],
    /// The stage-6 gain `g(r)` of each point; `None` (a silent front
    /// half) leaves the point to the exact path.
    pub gains: &'a [Option<f64>],
    /// The bound `ρ` of each point on its capture's quantization
    /// residual ([`ImpairmentChain::residual_bounds`]; 0 without ADC
    /// stage).
    pub residuals: &'a [f64],
}

/// A receiver that is linear in its capture up to the decisions it
/// takes on each window.
///
/// # Contract
///
/// [`LinearReceiver::decide`] hands `each(i, result)` the
/// [`DemodResult`] the modem's `demodulate` returns for the capture
/// `g·signal + noise + q` at `g = gains[i]`, once for every point whose
/// decisions it certified, and never for any other point (points
/// without a gain included). Certified means: every comparison the
/// exact receiver makes on that capture is decided the same way for any
/// rounding of either path within [`MARGIN`]'s bound and any residual
/// `q` with every `|q_k| ≤ residuals[i]`.
pub trait LinearReceiver: Send + Sync {
    /// Decide the points of `pass` it can certify. `scratch` is the
    /// calling worker's, reused across passes.
    fn decide(
        &self,
        pass: &LinearPass<'_>,
        scratch: &mut ReceiverScratch,
        each: &mut dyn FnMut(usize, DemodResult),
    );
}

/// [`LinearReceiver::decide`] for a stream receiver: a fixed sequence
/// of `windows` windows, each decided by one argmax.
///
/// `project` walks the receiver's windows over `pass.signal` and
/// `pass.noise` in order, handing each window's projections to its
/// callback before the next window is formed; only one window is alive
/// at a time. Window `i`'s certified top bin `b` becomes unit
/// `unit(i, b)`, and a point whose windows were all certified gets
/// `result(units)`, in point order once the walk is done.
pub fn decide_stream(
    pass: &LinearPass<'_>,
    windows: usize,
    each: &mut dyn FnMut(usize, DemodResult),
    project: impl FnOnce(&mut dyn FnMut(WindowProjection<'_>)),
    unit: impl Fn(usize, usize) -> u16,
    result: impl Fn(Vec<u16>) -> DemodResult,
) {
    // `Some(units)` while every window of the point so far is certified
    let mut units: Vec<Option<Vec<u16>>> = pass
        .gains
        .iter()
        .map(|g| g.map(|_| Vec::with_capacity(windows)))
        .collect();
    let mut window = 0;
    project(&mut |w| {
        for ((point, gain), &rho) in units.iter_mut().zip(pass.gains).zip(pass.residuals) {
            if let (Some(u), Some(g)) = (point.as_mut(), *gain) {
                match certified_argmax(&w, g, rho) {
                    Some(bin) => u.push(unit(window, bin)),
                    None => *point = None,
                }
            }
        }
        window += 1;
    });
    for (i, point) in units.into_iter().enumerate() {
        if let Some(u) = point {
            each(i, result(u));
        }
    }
}

/// A memo of projected windows for a receiver whose windows depend on
/// its own decisions: each key's signal and noise projections are
/// formed the first time any point of the pass visits it and kept until
/// [`WindowCache::clear`]. Clearing keeps every buffer, so a worker's
/// cache stops allocating once it has seen its largest pass.
#[derive(Debug, Clone, Default)]
pub struct WindowCache {
    width: usize,
    /// `slots[key]`: the key's slot + 1, or 0 when not projected yet.
    slots: Vec<usize>,
    /// The keys holding a slot, so a clear touches only them.
    keys: Vec<usize>,
    /// Slot-major projections, `width` bins per slot.
    signal: Vec<Complex>,
    noise: Vec<Complex>,
    /// `(A_s, A_n, R)` per slot.
    bounds: Vec<(f64, f64, f64)>,
}

impl WindowCache {
    /// Forget every window; the next ones hold `width` bins.
    pub fn clear(&mut self, width: usize) {
        for &key in &self.keys {
            if let Some(slot) = self.slots.get_mut(key) {
                *slot = 0;
            }
        }
        self.keys.clear();
        self.signal.clear();
        self.noise.clear();
        self.bounds.clear();
        self.width = width;
    }

    /// The window under `key`. On its first visit `project` fills the
    /// signal and noise bins (zeroed, `width` each) and returns the
    /// window's bounds `(A_s, A_n, R)`.
    pub fn window(
        &mut self,
        key: usize,
        project: impl FnOnce(&mut [Complex], &mut [Complex]) -> (f64, f64, f64),
    ) -> WindowProjection<'_> {
        if key >= self.slots.len() {
            self.slots.resize(key + 1, 0);
        }
        let w = self.width;
        // lint: allow(unchecked-index, the slot table was just grown past `key`)
        let held = &mut self.slots[key];
        let slot = match *held {
            0 => {
                let slot = self.bounds.len();
                *held = slot + 1;
                self.keys.push(key);
                self.signal.resize((slot + 1) * w, Complex::ZERO);
                self.noise.resize((slot + 1) * w, Complex::ZERO);
                let (signal, noise) = (
                    self.signal.split_at_mut(slot * w).1,
                    self.noise.split_at_mut(slot * w).1,
                );
                self.bounds.push(project(signal, noise));
                slot
            }
            held => held - 1,
        };
        let bins = slot * w..(slot + 1) * w;
        // lint: allow(unchecked-index, every slot below bounds.len() holds `width` bins and a bound)
        let ((signal, noise), (signal_bound, noise_bound, residual_gain)) = (
            (&self.signal[bins.clone()], &self.noise[bins]),
            self.bounds[slot],
        );
        WindowProjection {
            signal,
            noise,
            signal_bound,
            noise_bound,
            residual_gain,
        }
    }
}

/// The buffers a receiver keeps across the passes of one curve: its
/// front-end outputs for the pass's signal and noise (the framed LoRa
/// receiver's filtered captures) and its window memo.
#[derive(Debug, Clone, Default)]
pub struct ReceiverScratch {
    /// Front-end outputs of `signal` (`[0]`) and `noise` (`[1]`).
    pub front: [Vec<Complex>; 2],
    /// Projected windows of the pass.
    pub windows: WindowCache,
}

/// How the points of one or more passes were decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathCensus {
    /// Points decided by superposition.
    pub superposed: u64,
    /// Points the superposed path refused (an uncertain decision, a
    /// non-finite bound or no gain), decided by the exact path.
    pub fallback: u64,
    /// Points of a modem without a linear receiver, decided by the
    /// exact path.
    pub exact: u64,
}

impl std::ops::AddAssign for PathCensus {
    fn add_assign(&mut self, rhs: PathCensus) {
        self.superposed += rhs.superposed;
        self.fallback += rhs.fallback;
        self.exact += rhs.exact;
    }
}

/// Demodulate a prepared pass at every point of `rssis`, handing each
/// point's result to `each(point index, result)` once: the superposed
/// points as the receiver certifies them, then every other point in
/// point order.
///
/// When the modem has a [`LinearReceiver`], the receiver decides every
/// point it can certify from the faded signal, the noise and the
/// chain's residual bounds; every other point — and every point of a
/// modem without one — runs the exact path,
/// [`ImpairmentChain::apply_prepared_into`] into `capture` and then
/// [`PhyModem::demodulate`]. Either way each result equals the
/// exact path's. `capture` is scratch (it also holds a fading pass's
/// faded signal while the pass is decided); `receiver` is the linear
/// receiver's, reused across the passes of a curve. Starts no threads.
pub fn demodulate_pass(
    phy: &dyn PhyModem,
    chain: &ImpairmentChain,
    prep: &PreparedPass,
    rssis: &[f64],
    capture: &mut Vec<Complex>,
    receiver: &mut ReceiverScratch,
    mut each: impl FnMut(usize, DemodResult),
) -> PathCensus {
    let linear = phy.linear_receiver();
    let mut census = PathCensus::default();
    let mut superposed = vec![false; rssis.len()];
    if let Some(linear) = linear {
        let gains: Vec<Option<f64>> = rssis.iter().map(|&r| prep.rssi_gain(r)).collect();
        let (signal, noise) = (prep.faded_signal(capture), prep.noise());
        let residuals = chain.residual_bounds(signal, noise, &gains);
        let pass = LinearPass {
            signal,
            noise,
            gains: &gains,
            residuals: &residuals,
        };
        linear.decide(&pass, receiver, &mut |i, result| {
            if let Some(done) = superposed.get_mut(i) {
                *done = true;
                census.superposed += 1;
                each(i, result);
            }
        });
    }
    for (i, (&rssi_dbm, done)) in rssis.iter().zip(superposed).enumerate() {
        if done {
            continue;
        }
        if linear.is_some() {
            census.fallback += 1;
        } else {
            census.exact += 1;
        }
        chain.apply_prepared_into(prep, rssi_dbm, capture);
        each(i, phy.demodulate(capture));
    }
    census
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window<'a>(signal: &'a [Complex], noise: &'a [Complex], bound: f64) -> WindowProjection<'a> {
        WindowProjection {
            signal,
            noise,
            signal_bound: bound,
            noise_bound: bound,
            residual_gain: bound,
        }
    }

    #[test]
    fn a_clear_winner_is_certified() {
        let s = [
            Complex::new(1.0, 0.0),
            Complex::new(5.0, 0.0),
            Complex::ZERO,
        ];
        let n = [
            Complex::new(0.1, 0.0),
            Complex::ZERO,
            Complex::new(0.0, 0.2),
        ];
        assert_eq!(certified_argmax(&window(&s, &n, 10.0), 2.0, 0.0), Some(1));
    }

    #[test]
    fn ties_and_near_ties_are_refused() {
        let s = [Complex::new(3.0, 0.0), Complex::new(0.0, 3.0)];
        let n = [Complex::ZERO; 2];
        // an exact tie: no rounding can vouch for either bin
        assert_eq!(certified_argmax(&window(&s, &n, 6.0), 1.0, 0.0), None);
        // a gap inside 2δ is refused, one outside it is certified
        let s = [Complex::new(3.0, 0.0), Complex::new(3.0 + 1e-12, 0.0)];
        assert_eq!(certified_argmax(&window(&s, &n, 6.0), 1.0, 0.0), None);
        let s = [Complex::new(3.0, 0.0), Complex::new(3.0 + 1e-6, 0.0)];
        assert_eq!(certified_argmax(&window(&s, &n, 6.0), 1.0, 0.0), Some(1));
    }

    #[test]
    fn a_gap_the_residual_covers_is_refused() {
        // bins 10⁻⁶ apart: certified on rounding alone (2δ(1, 0) ≈
        // 2.4·10⁻⁹), refused once the residual term R·ρ = 10⁻⁶ covers
        // the gap (2δ(1, ρ) > 2·10⁻⁶)
        let s = [Complex::new(3.0, 0.0), Complex::new(3.0 + 1e-6, 0.0)];
        let n = [Complex::ZERO; 2];
        let w = window(&s, &n, 6.0);
        assert_eq!(certified_argmax(&w, 1.0, 0.0), Some(1));
        assert_eq!(certified_argmax(&w, 1.0, 1e-6 / 6.0), None);
    }

    #[test]
    fn without_a_residual_delta_is_the_rounding_term_bit_for_bit() {
        let s = [Complex::ZERO];
        for (a_s, a_n, g) in [(6.0, 0.25, 1.0), (1e-3, 7.5, 3.3e5), (0.0, 0.0, 2.0)] {
            let w = WindowProjection {
                signal: &s,
                noise: &s,
                signal_bound: a_s,
                noise_bound: a_n,
                residual_gain: 17.0,
            };
            let rounding = MARGIN * (g * a_s + a_n);
            assert_eq!(w.delta(g, 0.0).to_bits(), rounding.to_bits());
            assert!(w.delta(g, 0.5) >= rounding + 17.0 * 0.5);
        }
    }

    #[test]
    fn non_finite_bounds_are_refused() {
        let s = [Complex::new(1.0, 0.0), Complex::ZERO];
        let n = [Complex::ZERO; 2];
        assert_eq!(certified_argmax(&window(&s, &n, f64::NAN), 1.0, 0.0), None);
        assert_eq!(
            certified_argmax(&window(&s, &n, f64::INFINITY), 1.0, 0.0),
            None
        );
    }

    #[test]
    fn window_cache_projects_each_key_once_per_pass() {
        let mut cache = WindowCache::default();
        let mut calls = 0;
        for pass in 0..3 {
            cache.clear(4);
            for key in [7usize, 2, 7, 40, 2] {
                let w = cache.window(key, |s, n| {
                    calls += 1;
                    assert!(s.iter().chain(n.iter()).all(|z| *z == Complex::ZERO));
                    s[0] = Complex::new(key as f64, pass as f64);
                    n[3] = Complex::new(1.0, 0.0);
                    (key as f64, 0.5, 3.0)
                });
                assert_eq!(w.signal.len(), 4);
                assert_eq!(w.signal[0], Complex::new(key as f64, pass as f64));
                assert_eq!(w.noise[3], Complex::new(1.0, 0.0));
                assert_eq!(
                    (w.signal_bound, w.noise_bound, w.residual_gain),
                    (key as f64, 0.5, 3.0)
                );
            }
        }
        assert_eq!(calls, 9, "three distinct keys per pass");
    }
}
