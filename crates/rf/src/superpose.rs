//! Superposed linear receivers: decide every RSSI point of a prepared
//! pass from two projections.
//!
//! For a chain without ADC stage ([`ImpairmentChain::is_linear_after_front`])
//! the capture at RSSI `r` is `g(r)·s + n`: `s` the prepared front half
//! with its fading applied ([`PreparedPass::faded_signal`]), `n` the
//! prepared noise ([`PreparedPass::noise`]) and `g(r)` the stage-6 gain
//! ([`PreparedPass::rssi_gain`]). A receiver that is linear in its
//! capture up to a per-window argmax — LoRa's FIR → dechirp → FFT, the
//! 802.15.4 chip-correlator bank — maps that capture to
//! `g·R(s) + R(n)`. So a [`LinearReceiver`] projects `s` and `n` once
//! per pass, window by window, and each point of the curve is decided
//! from `g·S + N` plus the argmax, with no per-point capture, filter or
//! transform.
//!
//! The superposition rounds differently from the exact path
//! (`apply_prepared_into` → `demodulate_batch`), so a point is decided
//! only when every window's winner is **certified**: its magnitude beats
//! the runner-up by more than twice a bound [`MARGIN`]`·(g·A_s + A_n)`
//! on `|Y_fast − Y_exact|`. Any uncertain window, non-finite bound or
//! missing gain sends the **whole point** to the exact path, so the
//! superposed path never needs a tie rule of its own and every count it
//! produces is the exact path's count.

use tinysdr_dsp::complex::Complex;

use crate::impairments::{ImpairmentChain, PreparedPass};
use crate::phy::{DemodResult, PhyModem};

/// Relative bound on the rounding gap between the superposed and the
/// exact decision statistic of one bin: for window bounds `A_s`, `A_n`
/// (see [`WindowProjection`]) and gain `g`,
/// `|Y_fast − Y_exact| ≤ δ = MARGIN·(g·A_s + A_n)`.
///
/// Derivation. Let ε = 2⁻⁵³. Every value either path forms is bounded by
/// `g·A_s + A_n` (up to a factor 1 + O(ε)), because `A` bounds every bin
/// of the receiver's projection *and* every partial sum on the way there
/// (the bounds are computed from the window's unfiltered inputs, FIR
/// history included, so filter attenuation cannot hide input energy).
/// Each floating-point operation then moves a bin by at most a few ε
/// times that bound, accumulated along the chain of operations from
/// capture to magnitude:
/// - the capture `(x·g)·h + n` on the exact path, and `g·S + N` on the
///   fast one: ≤ 4ε each;
/// - the LoRa receiver: the 15-tap FIR (`γ₁₅` ≈ 15ε), the unit-modulus
///   dechirp (3ε) and ≤ 10 radix-2 stages at ≈ 7ε each (Higham's
///   `η = μ + γ₄(√2 + μ)` per stage, twiddles exact to an ulp, relative
///   to `√N·‖w‖₂ ≤ A`): ≤ 90ε per receive;
/// - the 802.15.4 receiver: one 66-term correlation per template
///   (`γ₆₆·Σ|x||t| ≤ γ₆₆·A`): ≤ 70ε per receive;
/// - the magnitude that ranks the bins, `√(re² + im²)`: 2ε.
///
/// Two receives plus the rest stay below `2·90ε + 10ε = 190ε ≈ 2.1·10⁻¹⁴`,
/// so `MARGIN = 10⁻¹⁰` keeps a safety factor above 4000 over the worst
/// receiver here. It is a property of the arithmetic, not a tuning knob:
/// a smaller value risks a flipped decision; a larger one only sends more
/// points to the exact path (at real noise levels the certified gap is
/// ~10⁻⁹ of the bin spread, so almost none fall back).
pub const MARGIN: f64 = 1e-10;

/// One window of a superposed pass: the receiver's decision statistic
/// for the signal and for the noise window, bin by bin, and a bound on
/// each.
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
}

/// A receiver that is linear in its capture up to a final per-window
/// argmax over `|Y_k|`.
///
/// # Contract
///
/// * [`LinearReceiver::project`] walks exactly the windows the modem's
///   `demodulate` decides, in order, and its bins are those the modem
///   ranks: window `k`'s unit is the index of the largest `|Y_k|` of
///   the exact receive.
/// * `R` is linear: up to rounding, `demodulate` sees `g·signal + noise`
///   through the same windows, and the bounds of [`WindowProjection`]
///   hold for every value either path forms.
/// * [`LinearReceiver::result`] rebuilds the [`DemodResult`] that
///   `demodulate` returns for a capture whose windows decided `units`.
pub trait LinearReceiver: Send + Sync {
    /// Walk `signal` and `noise` (equal length) window by window in the
    /// receiver's own streamed order, handing each window's projections
    /// and bounds to `each` before the next window is formed.
    fn project(
        &self,
        signal: &[Complex],
        noise: &[Complex],
        each: &mut dyn FnMut(WindowProjection<'_>),
    );

    /// The demodulation result of a capture whose windows decided
    /// `units` (one per projected window, in order).
    fn result(&self, units: Vec<u16>) -> DemodResult;
}

/// How the points of one or more passes were decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathCensus {
    /// Points decided by superposition.
    pub superposed: u64,
    /// Points the superposed path refused (an uncertain window, a
    /// non-finite bound or no gain), decided by the exact path.
    pub fallback: u64,
    /// Points without a superposed path (nonlinear receiver or a chain
    /// with an ADC stage), decided by the exact path.
    pub exact: u64,
}

impl std::ops::AddAssign for PathCensus {
    fn add_assign(&mut self, rhs: PathCensus) {
        self.superposed += rhs.superposed;
        self.fallback += rhs.fallback;
        self.exact += rhs.exact;
    }
}

/// The winning bin of `|g·S + N|` when the exact receiver is certain to
/// pick it too: its magnitude beats every other bin's by more than 2δ,
/// so no rounding of either path within δ can reorder them. `None` when
/// the gap is within 2δ (ties included) or the bound is not finite.
fn certified_argmax(w: &WindowProjection<'_>, g: f64) -> Option<usize> {
    let delta = MARGIN * (g * w.signal_bound + w.noise_bound);
    // top two |Y|² in one pass
    let (mut best, mut top, mut second) = (0usize, -1.0f64, -1.0f64);
    for (k, (s, n)) in w.signal.iter().zip(w.noise).enumerate() {
        let re = g * s.re + n.re;
        let im = g * s.im + n.im;
        let p = re * re + im * im;
        if p > second {
            if p > top {
                second = top;
                top = p;
                best = k;
            } else {
                second = p;
            }
        }
    }
    let gap = top.sqrt() - second.max(0.0).sqrt();
    (delta.is_finite() && gap > 2.0 * delta).then_some(best)
}

/// Demodulate a prepared pass at every point of `rssis`, handing each
/// point's result to `each(point index, result)` in point order.
///
/// When the chain is linear after its front half and the modem has a
/// [`LinearReceiver`], the receiver projects the faded signal and the
/// noise once, and every point whose windows are all certified is
/// decided by superposition; every other point — and every point of a
/// nonlinear receiver or quantizing chain — runs the exact path,
/// [`ImpairmentChain::apply_prepared_into`] into `capture` and then
/// [`PhyModem::demodulate_batch`]. Either way each result equals the
/// exact path's. `capture` is scratch (it also holds a faded signal
/// while the pass is projected). Starts no threads.
pub fn demodulate_pass(
    phy: &dyn PhyModem,
    chain: &ImpairmentChain,
    prep: &PreparedPass,
    rssis: &[f64],
    capture: &mut Vec<Complex>,
    mut each: impl FnMut(usize, DemodResult),
) -> PathCensus {
    let linear = phy
        .linear_receiver()
        .filter(|_| chain.is_linear_after_front());
    // `Some(units)` while every window of the point so far is certified
    let mut decided: Vec<Option<Vec<u16>>> = vec![None; rssis.len()];
    if let Some(receiver) = linear {
        let gains: Vec<Option<f64>> = rssis.iter().map(|&r| prep.rssi_gain(r)).collect();
        for (units, gain) in decided.iter_mut().zip(&gains) {
            *units = gain.map(|_| Vec::new());
        }
        receiver.project(prep.faded_signal(capture), prep.noise(), &mut |w| {
            for (units, gain) in decided.iter_mut().zip(&gains) {
                if let (Some(u), Some(g)) = (units.as_mut(), *gain) {
                    match certified_argmax(&w, g) {
                        Some(bin) => u.push(bin as u16),
                        None => *units = None,
                    }
                }
            }
        });
    }
    let mut census = PathCensus::default();
    for (i, (&rssi_dbm, units)) in rssis.iter().zip(decided).enumerate() {
        if let (Some(receiver), Some(units)) = (linear, units) {
            census.superposed += 1;
            each(i, receiver.result(units));
            continue;
        }
        if linear.is_some() {
            census.fallback += 1;
        } else {
            census.exact += 1;
        }
        chain.apply_prepared_into(prep, rssi_dbm, capture);
        for res in phy.demodulate_batch(&[capture.as_slice()]) {
            each(i, res);
        }
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
        assert_eq!(certified_argmax(&window(&s, &n, 10.0), 2.0), Some(1));
    }

    #[test]
    fn ties_and_near_ties_are_refused() {
        let s = [Complex::new(3.0, 0.0), Complex::new(0.0, 3.0)];
        let n = [Complex::ZERO; 2];
        // an exact tie: no rounding can vouch for either bin
        assert_eq!(certified_argmax(&window(&s, &n, 6.0), 1.0), None);
        // a gap inside 2δ is refused, one outside it is certified
        let s = [Complex::new(3.0, 0.0), Complex::new(3.0 + 1e-12, 0.0)];
        assert_eq!(certified_argmax(&window(&s, &n, 6.0), 1.0), None);
        let s = [Complex::new(3.0, 0.0), Complex::new(3.0 + 1e-6, 0.0)];
        assert_eq!(certified_argmax(&window(&s, &n, 6.0), 1.0), Some(1));
    }

    #[test]
    fn non_finite_bounds_are_refused() {
        let s = [Complex::new(1.0, 0.0), Complex::ZERO];
        let n = [Complex::ZERO; 2];
        assert_eq!(certified_argmax(&window(&s, &n, f64::NAN), 1.0), None);
        assert_eq!(certified_argmax(&window(&s, &n, f64::INFINITY), 1.0), None);
    }
}
