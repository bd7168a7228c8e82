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
//! out, so a decision is taken from it only when it is **certified**:
//! the two sides of the comparison differ by more than the bounds they
//! carry, a few [`WindowProjection::delta`] each, on
//! `|Y_fast − Y_exact|`. Refused windows are settled: an uncertain
//! decision is re-read from the point's exact capture
//! ([`ExactCaptures`]), through the receiver's own exact kernel on that
//! window's samples alone, and the rest of the point stays superposed.
//! Only a point without a gain or with a non-finite bound goes whole to
//! the exact path. So the superposed path never needs a tie rule of its
//! own, and every count it produces is the exact path's count.
//!
//! Most certified decisions need no scan of the window's bins: a
//! [`PeakSummary`], formed once per window, bounds every bin but the
//! signal's (or the noise's) top one at any gain, and a point whose top
//! bin clears that bound by `2δ` is decided from that one bin.
//!
//! Stream receivers (LoRa SER, 802.15.4, BLE) decide a fixed sequence of
//! windows by one argmax each and share [`decide_stream`]. The framed
//! LoRa receiver visits data-dependent windows and decides its own pass,
//! projecting each window once into a [`WindowCache`]; on a chain whose
//! faded signal is the same in every pass
//! ([`ImpairmentChain::has_pass_invariant_signal`]) it keeps the signal
//! halves for the whole curve.

use std::ops::Range;

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
/// value risks a flipped decision; a larger one only settles more
/// windows on the exact path (at real noise levels the certified gap is
/// ~10⁻⁹ of the bin spread, so almost none is settled without ADC stage).
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
        self.signal
            .iter()
            .zip(self.noise)
            .map(move |(&s, &n)| bin_power(s, n, g))
    }

    /// `|g·S_k + N_k|` for bin `k`, rounded exactly as [`Ranking::of`]
    /// ranks it over [`WindowProjection::powers`]; `None` past the
    /// window.
    fn magnitude(&self, k: usize, g: f64) -> Option<f64> {
        let (&s, &n) = (self.signal.get(k)?, self.noise.get(k)?);
        Some(bin_power(s, n, g).sqrt())
    }

    /// The certified winning bin of `|g·S + N|` against the bound
    /// `delta` (the window's [`WindowProjection::delta`] at `g`):
    /// [`Ranking::certified`] of the whole window, but taken from the
    /// window's [`PeakSummary`] alone when its [`PeakSummary::lead`]
    /// clears `2·delta` — the scan would return that bin then too.
    pub fn certified(&self, peaks: Option<&PeakSummary>, g: f64, delta: f64) -> Option<usize> {
        if let Some(lead) = peaks.and_then(|p| p.lead(self, g, 2.0 * delta)) {
            return Some(lead.bin);
        }
        Ranking::of(self.powers(g)).certified(delta)
    }
}

/// `|g·s + n|²`, the one rounding of a superposed bin's power.
#[inline]
fn bin_power(s: Complex, n: Complex, g: f64) -> f64 {
    let re = g * s.re + n.re;
    let im = g * s.im + n.im;
    re * re + im * im
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

/// Relative slack of [`PeakSummary::lead`]'s bound on the other bins:
/// the computed `|g·S_k + N_k|` exceeds `g·|S_k| + |N_k|` by at most
/// `(1 + ε)⁴`, each summarized magnitude understates its bin by at most
/// `1 + 2ε`, and forming the bound rounds four more times, so
/// `1 + 10ε` covers it (ε = 2⁻⁵³); `1 + 64ε` leaves room.
const LEAD_SLACK: f64 = 1.0 + 32.0 * f64::EPSILON;

/// Absolute slack of that bound: a power below the normal range rounds
/// by up to `2⁻¹⁰⁷⁴`, which moves a magnitude by up to `2⁻⁵³⁷ ≈ 2·10⁻¹⁶²`
/// — negligible against every magnitude a receiver ranks, but not
/// relative to the tiny ones.
const LEAD_TINY: f64 = 1e-150;

/// Largest bound on the other bins the lead accepts: below it no other
/// bin's power can overflow, so the scan ranks finite powers only.
const LEAD_HUGE: f64 = 1e150;

/// The peaks of one window, formed once for every point of the curve:
/// the [`Ranking`] of the signal's bin magnitudes `|S_k|` and of the
/// noise's `|N_k|`.
///
/// At any gain `g`, every bin `k` other than `b` satisfies
/// `|g·S_k + N_k| ≤ g·max_{k≠b}|S_k| + max_k|N_k|`, and the same with
/// the roles of signal and noise swapped. So when the computed magnitude
/// of the signal's top bin (near sensitivity and above) or of the
/// noise's (far below it) beats that bound, inflated by a few ulps, by
/// more than `2δ`, the whole window's ranking would certify that bin
/// too — without scanning it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakSummary {
    signal: Ranking,
    noise: Ranking,
}

/// A bin that beats every other bin of a superposed window for certain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lead {
    /// The bin.
    pub bin: usize,
    /// Its magnitude `|g·S_bin + N_bin|`, as [`Ranking::of`] computes it.
    pub top: f64,
    /// A bound on every other bin's computed magnitude.
    pub others: f64,
}

impl PeakSummary {
    /// The peaks of `w`'s two halves; `None` when a bin of either is not
    /// finite or the window is empty.
    pub fn of(w: &WindowProjection<'_>) -> Option<PeakSummary> {
        Some(PeakSummary {
            signal: PeakSummary::half(w.signal)?,
            noise: PeakSummary::half(w.noise)?,
        })
    }

    /// The two halves' peaks, formed apart (see [`PeakSummary::half`]).
    fn from_halves(signal: Option<Ranking>, noise: Option<Ranking>) -> Option<PeakSummary> {
        Some(PeakSummary {
            signal: signal?,
            noise: noise?,
        })
    }

    /// The [`Ranking`] of one half's bin magnitudes; `None` when a bin
    /// is not finite or there is none.
    fn half(bins: &[Complex]) -> Option<Ranking> {
        let mut finite = !bins.is_empty();
        let rank = Ranking::of(bins.iter().map(|z| {
            finite &= z.re.is_finite() && z.im.is_finite();
            z.norm_sqr()
        }));
        finite.then_some(rank)
    }

    /// The signal's or the noise's top bin at gain `g` when its computed
    /// magnitude beats the bound on every other bin by more than `need`,
    /// whichever is found first; `None` otherwise (the caller then
    /// scans). `w` must be the window the summary was formed from.
    pub fn lead(&self, w: &WindowProjection<'_>, g: f64, need: f64) -> Option<Lead> {
        let (s, n) = (self.signal, self.noise);
        [(s.bin, s.runner_up, n.top), (n.bin, s.top, n.runner_up)]
            .into_iter()
            .find_map(|(bin, signal_rest, noise_rest)| {
                let others = (g * (signal_rest + LEAD_TINY) + (noise_rest + LEAD_TINY))
                    * LEAD_SLACK
                    + LEAD_TINY;
                if others.is_nan() || others > LEAD_HUGE {
                    return None;
                }
                let top = w.magnitude(bin, g)?;
                (top - others > need).then_some(Lead { bin, top, others })
            })
    }
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
    /// The chain leaves the faded signal the same in every pass of a
    /// curve ([`ImpairmentChain::has_pass_invariant_signal`]): a
    /// receiver may keep what it formed from `signal` across passes, as
    /// long as [`ReceiverScratch::keeps_signal`] vouches for it.
    pub invariant_signal: bool,
}

/// The exact path of one pass, for the windows a receiver refused: the
/// samples of each point's capture that a refused window reads, formed
/// on demand into the caller's capture buffer, bit-identical to those of
/// [`ImpairmentChain::apply_prepared_into`]'s capture.
///
/// Only the spans the receiver asks for are formed, after one pass over
/// the point's samples for the ADC stage's AGC peak: quantizing a whole
/// capture costs more than the settles it serves. Every other sample of
/// the buffer is NaN, so a kernel that reads past its span cannot pass
/// for exact.
#[derive(Debug)]
pub struct ExactCaptures<'a> {
    chain: &'a ImpairmentChain,
    prep: &'a PreparedPass,
    rssis: &'a [f64],
    capture: &'a mut Vec<Complex>,
    /// The point whose spans `capture` holds, and its capture's AGC peak.
    held: Option<(usize, f64)>,
    /// The spans formed for the held point.
    formed: Vec<Range<usize>>,
    settled: u64,
}

impl<'a> ExactCaptures<'a> {
    /// The exact captures of `prep` at `rssis`, formed in `capture`.
    pub fn new(
        chain: &'a ImpairmentChain,
        prep: &'a PreparedPass,
        rssis: &'a [f64],
        capture: &'a mut Vec<Complex>,
    ) -> Self {
        ExactCaptures {
            chain,
            prep,
            rssis,
            capture,
            held: None,
            formed: Vec::new(),
            settled: 0,
        }
    }

    /// Samples in each point's capture.
    pub fn len(&self) -> usize {
        self.prep.len()
    }

    /// `true` if the captures are empty.
    pub fn is_empty(&self) -> bool {
        self.prep.is_empty()
    }

    /// Settle one window of point `point`: form the samples `reads` of
    /// the point's capture, the ones the window reads, and run the
    /// receiver's exact window `kernel` on the capture, counting one
    /// settled window. The kernel sees a slice of the capture's length
    /// whose samples in `reads` (and in the point's earlier spans) are
    /// exact.
    ///
    /// # Panics
    /// Panics if `point` is not a point of the pass or `reads` reaches
    /// past the capture.
    pub fn settle<T>(
        &mut self,
        point: usize,
        reads: Range<usize>,
        kernel: impl FnOnce(&[Complex]) -> T,
    ) -> T {
        const UNFORMED: Complex = Complex::new(f64::NAN, f64::NAN);
        let rssi_dbm = self.rssis[point];
        let peak = match self.held {
            Some((held, peak)) if held == point => peak,
            held => {
                if held.is_none() {
                    self.capture.clear();
                    self.capture.resize(self.prep.len(), UNFORMED);
                }
                for span in self.formed.drain(..) {
                    self.capture[span].fill(UNFORMED);
                }
                let peak = self.chain.capture_peak(self.prep, rssi_dbm);
                self.held = Some((point, peak));
                peak
            }
        };
        self.chain
            .apply_prepared_span(self.prep, rssi_dbm, peak, reads.clone(), self.capture);
        self.formed.push(reads);
        self.settled += 1;
        kernel(self.capture)
    }

    /// Windows settled so far.
    pub fn settled(&self) -> u64 {
        self.settled
    }
}

/// A receiver that is linear in its capture up to the decisions it
/// takes on each window.
///
/// # Contract
///
/// [`LinearReceiver::decide`] hands `each(i, result)` the
/// [`DemodResult`] the modem's `demodulate` returns for the capture
/// `g·signal + noise + q` at `g = gains[i]`, at most once per point. A
/// decision it takes from the superposition is certified: every
/// comparison the exact receiver makes on that capture is decided the
/// same way for any rounding of either path within [`MARGIN`]'s bound
/// and any residual `q` with every `|q_k| ≤ residuals[i]`. Every other
/// decision is settled through [`ExactCaptures::settle`], by the exact
/// receiver's own kernel on the window's samples of the capture. A
/// point without a gain, or one the receiver abandons (a non-finite
/// bound), gets no call.
pub trait LinearReceiver: Send + Sync {
    /// Decide the points of `pass`. `scratch` is the calling worker's,
    /// reused across the passes of a curve; `exact` settles the
    /// windows the superposition cannot certify.
    fn decide(
        &self,
        pass: &LinearPass<'_>,
        scratch: &mut ReceiverScratch,
        exact: &mut ExactCaptures<'_>,
        each: &mut dyn FnMut(usize, DemodResult),
    );
}

/// [`LinearReceiver::decide`] for a stream receiver: a fixed sequence
/// of windows, each decided by one argmax.
///
/// `project` walks the receiver's windows over `pass.signal` and
/// `pass.noise` in order, handing each window's projections to its
/// callback before the next window is formed; only one window is alive
/// at a time. Window `i`'s certified top bin `b` becomes unit
/// `unit(i, b)`. A refused window `i` of point `p` is settled once the
/// walk is done, as `settle(exact, p, i)`: the unit the exact receiver
/// decides for window `i` of the point's capture, through
/// [`ExactCaptures::settle`]. Every point with a gain and finite bounds
/// then gets `result(units)`, in point order.
pub fn decide_stream(
    pass: &LinearPass<'_>,
    exact: &mut ExactCaptures<'_>,
    each: &mut dyn FnMut(usize, DemodResult),
    project: impl FnOnce(&mut dyn FnMut(WindowProjection<'_>)),
    unit: impl Fn(usize, usize) -> u16,
    mut settle: impl FnMut(&mut ExactCaptures<'_>, usize, usize) -> u16,
    result: impl Fn(Vec<u16>) -> DemodResult,
) {
    /// A point's units so far, refused windows holding a placeholder.
    #[derive(Default)]
    struct Units {
        units: Vec<u16>,
        refused: Vec<usize>,
    }
    // `Some` while no window of the point had a non-finite bound
    let mut points: Vec<Option<Units>> = pass
        .gains
        .iter()
        .map(|g| g.map(|_| Units::default()))
        .collect();
    let mut window = 0;
    project(&mut |w| {
        let peaks = PeakSummary::of(&w);
        for ((point, gain), &rho) in points.iter_mut().zip(pass.gains).zip(pass.residuals) {
            let (Some(u), Some(g)) = (point.as_mut(), *gain) else {
                continue;
            };
            let delta = w.delta(g, rho);
            if !delta.is_finite() {
                *point = None;
                continue;
            }
            match w.certified(peaks.as_ref(), g, delta) {
                Some(bin) => u.units.push(unit(window, bin)),
                None => {
                    u.refused.push(window);
                    u.units.push(0);
                }
            }
        }
        window += 1;
    });
    for (i, point) in points.into_iter().enumerate() {
        let Some(mut u) = point else {
            continue;
        };
        for &k in &u.refused {
            let settled = settle(exact, i, k);
            if let Some(slot) = u.units.get_mut(k) {
                *slot = settled;
            }
        }
        each(i, result(u.units));
    }
}

/// One slot of a [`WindowCache`]: the bounds and peaks of its two
/// halves, and the pass its noise half belongs to.
#[derive(Debug, Clone, Copy)]
struct Slot {
    signal_bound: f64,
    residual_gain: f64,
    signal_peaks: Option<Ranking>,
    noise_bound: f64,
    noise_peaks: Option<Ranking>,
    noise_pass: u64,
}

/// A memo of projected windows for a receiver whose windows depend on
/// its own decisions: each key's signal and noise projections are
/// formed the first time any point visits it and kept until
/// [`WindowCache::clear`]; [`WindowCache::clear_noise`] forgets only
/// the noise halves, for a next pass over the same signal. Clearing
/// keeps every buffer, so a worker's cache stops allocating once it has
/// seen its largest curve.
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
    meta: Vec<Slot>,
    /// The current pass: a slot's noise half is current when its
    /// `noise_pass` equals it.
    pass: u64,
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
        self.meta.clear();
        self.width = width;
        self.pass += 1;
    }

    /// Forget every window's noise half, keeping the signal halves for a
    /// pass over the same signal.
    pub fn clear_noise(&mut self) {
        self.pass += 1;
    }

    /// Bins per window.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The window under `key` and its peaks. On the key's first visit
    /// `signal` fills the signal bins (zeroed, `width` of them) and
    /// returns `(A_s, R)`; on its first visit in a pass `noise` fills
    /// the noise bins (zeroed) and returns `A_n`.
    pub fn window(
        &mut self,
        key: usize,
        signal: impl FnOnce(&mut [Complex]) -> (f64, f64),
        noise: impl FnOnce(&mut [Complex]) -> f64,
    ) -> (WindowProjection<'_>, Option<PeakSummary>) {
        if key >= self.slots.len() {
            self.slots.resize(key + 1, 0);
        }
        let w = self.width;
        // lint: allow(unchecked-index, the slot table was just grown past `key`)
        let held = &mut self.slots[key];
        let slot = match *held {
            0 => {
                let slot = self.meta.len();
                *held = slot + 1;
                self.keys.push(key);
                self.signal.resize((slot + 1) * w, Complex::ZERO);
                self.noise.resize((slot + 1) * w, Complex::ZERO);
                let bins = self.signal.split_at_mut(slot * w).1;
                let (signal_bound, residual_gain) = signal(bins);
                self.meta.push(Slot {
                    signal_bound,
                    residual_gain,
                    signal_peaks: PeakSummary::half(bins),
                    noise_bound: f64::NAN,
                    noise_peaks: None,
                    // stale until projected below
                    noise_pass: self.pass.wrapping_sub(1),
                });
                slot
            }
            held => held - 1,
        };
        let bins = slot * w..(slot + 1) * w;
        // lint: allow(unchecked-index, every slot below meta.len() holds `width` bins of each half)
        let (meta, noise_bins) = (&mut self.meta[slot], &mut self.noise[bins.clone()]);
        if meta.noise_pass != self.pass {
            noise_bins.fill(Complex::ZERO);
            meta.noise_bound = noise(noise_bins);
            meta.noise_peaks = PeakSummary::half(noise_bins);
            meta.noise_pass = self.pass;
        }
        let meta = *meta;
        // lint: allow(unchecked-index, as above)
        let (signal, noise) = (&self.signal[bins.clone()], &self.noise[bins]);
        (
            WindowProjection {
                signal,
                noise,
                signal_bound: meta.signal_bound,
                noise_bound: meta.noise_bound,
                residual_gain: meta.residual_gain,
            },
            PeakSummary::from_halves(meta.signal_peaks, meta.noise_peaks),
        )
    }
}

/// The buffers a receiver keeps across the passes of one curve: its
/// front-end outputs for the pass's signal and noise (the framed LoRa
/// receiver's filtered captures) and its window memo. One scratch
/// serves one receiver.
#[derive(Debug, Clone, Default)]
pub struct ReceiverScratch {
    /// Front-end outputs of `signal` (`[0]`) and `noise` (`[1]`).
    pub front: [Vec<Complex>; 2],
    /// Projected windows of the pass (of the curve, for the signal
    /// halves, while [`ReceiverScratch::keeps_signal`] holds).
    pub windows: WindowCache,
    /// The signal `front[0]` and the signal halves were formed from,
    /// while they are kept across passes.
    kept: Option<Vec<Complex>>,
    /// A fading pass's faded signal, while the pass is decided.
    faded: Vec<Complex>,
}

impl ReceiverScratch {
    /// Whether the signal side of the scratch — `front[0]` and the
    /// windows' signal halves — was formed from `pass.signal` and may
    /// stay: the pass's chain keeps its signal across passes and the
    /// scratch holds a bit-identical copy of it. When it does not, the
    /// receiver must form the signal side anew, and the scratch
    /// remembers `pass.signal` for the next pass if the chain allows.
    pub fn keeps_signal(&mut self, pass: &LinearPass<'_>) -> bool {
        let same = |a: &Complex, b: &Complex| {
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()
        };
        let kept = pass.invariant_signal
            && self.kept.as_deref().is_some_and(|kept| {
                kept.len() == pass.signal.len()
                    && kept.iter().zip(pass.signal).all(|(a, b)| same(a, b))
            });
        if !kept {
            self.kept = pass.invariant_signal.then(|| pass.signal.to_vec());
        }
        kept
    }
}

/// How the points of one or more passes were decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathCensus {
    /// Points decided by a linear receiver: from the superposition,
    /// with any refused window settled on the exact path.
    pub superposed: u64,
    /// Points the linear receiver left whole to the exact path (no
    /// gain, or a non-finite bound).
    pub fallback: u64,
    /// Points of a modem without a linear receiver, decided by the
    /// exact path.
    pub exact: u64,
    /// Windows of superposed points whose decision was refused and
    /// settled by the receiver's exact kernel on the point's capture.
    pub settled: u64,
}

impl std::ops::AddAssign for PathCensus {
    fn add_assign(&mut self, rhs: PathCensus) {
        self.superposed += rhs.superposed;
        self.fallback += rhs.fallback;
        self.exact += rhs.exact;
        self.settled += rhs.settled;
    }
}

/// Demodulate a prepared pass at every point of `rssis`, handing each
/// point's result to `each(point index, result)` once: the superposed
/// points as the receiver decides them, then every other point in
/// point order.
///
/// When the modem has a [`LinearReceiver`], the receiver decides every
/// point from the faded signal, the noise and the chain's residual
/// bounds, settling its refused windows on the point's exact capture;
/// every point it leaves — and every point of a modem without one —
/// runs the exact path, [`ImpairmentChain::apply_prepared_into`] into
/// `capture` and then [`PhyModem::demodulate`]. Either way each result
/// equals the exact path's. `capture` is scratch, the one capture
/// buffer of both; `receiver` is the linear receiver's, reused across
/// the passes of a curve. Starts no threads.
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
        let mut faded = std::mem::take(&mut receiver.faded);
        let (signal, noise) = (prep.faded_signal(&mut faded), prep.noise());
        let residuals = chain.residual_bounds(signal, noise, &gains);
        let pass = LinearPass {
            signal,
            noise,
            gains: &gains,
            residuals: &residuals,
            invariant_signal: chain.has_pass_invariant_signal(),
        };
        let mut exact = ExactCaptures::new(chain, prep, rssis, capture);
        linear.decide(&pass, receiver, &mut exact, &mut |i, result| {
            if let Some(done) = superposed.get_mut(i) {
                *done = true;
                census.superposed += 1;
                each(i, result);
            }
        });
        census.settled = exact.settled();
        receiver.faded = faded;
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

    /// A random bin: mostly a moderate complex value at a random scale
    /// (subnormal to near overflow), sometimes zero or non-finite.
    fn random_bin(rng: &mut rand::rngs::StdRng) -> Complex {
        use rand::Rng;
        const SPECIAL: [f64; 6] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
        ];
        let part = |rng: &mut rand::rngs::StdRng| -> f64 {
            if rng.gen_range(0..40) == 0 {
                SPECIAL[rng.gen_range(0..SPECIAL.len())]
            } else {
                let scale = match rng.gen_range(0..5) {
                    0 => [1e-160, 1e-310, 1e150, 1e300][rng.gen_range(0..4)],
                    _ => 1.0,
                };
                rng.gen_range(-1.0..1.0) * scale
            }
        };
        Complex::new(part(rng), part(rng))
    }

    #[test]
    fn the_peak_summary_agrees_with_the_scan_at_every_gain() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        let gains = [
            0.0,
            5e-324,
            1e-310,
            1e-160,
            1e-3,
            0.5,
            1.0,
            7.0,
            1e150,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        let mut shortcuts = 0;
        for case in 0..3000 {
            let width = [1, 2, 3, 8, 64][case % 5];
            let mut signal: Vec<Complex> = (0..width).map(|_| random_bin(&mut rng)).collect();
            let mut noise: Vec<Complex> = (0..width)
                .map(|_| random_bin(&mut rng).scale(0.1))
                .collect();
            match case % 7 {
                // a clear signal peak over weak noise
                0 => signal[case % width] = Complex::new(40.0, -30.0),
                // two signal bins tied in magnitude, no noise
                1 if width > 1 => {
                    signal[0] = Complex::new(3.0, 4.0);
                    signal[width - 1] = Complex::new(0.0, 5.0);
                    noise.fill(Complex::ZERO);
                }
                // silence in one half or both
                2 => signal.fill(Complex::ZERO),
                3 => noise.fill(Complex::ZERO),
                // a noise peak that leads at low gain
                4 => noise[width / 2] = Complex::new(-6.0, 8.0),
                _ => {}
            }
            let one_norm = |x: &[Complex]| x.iter().map(|z| z.abs()).sum::<f64>();
            let (a_s, a_n) = if case % 2 == 0 {
                (one_norm(&signal), one_norm(&noise))
            } else {
                (50.0, 2.0)
            };
            let w = WindowProjection {
                signal: &signal,
                noise: &noise,
                signal_bound: a_s,
                noise_bound: a_n,
                residual_gain: (width as f64).sqrt(),
            };
            let peaks = PeakSummary::of(&w);
            let drawn = rng.gen_range(0.0..3.0) * 10f64.powi(rng.gen_range(-8..8));
            for g in gains.into_iter().chain([drawn]) {
                for rho in [0.0, 1e-9, 0.3] {
                    let delta = w.delta(g, rho);
                    let scan = certified_argmax(&w, g, rho);
                    assert_eq!(
                        w.certified(peaks.as_ref(), g, delta),
                        scan,
                        "case {case}, g {g:e}, rho {rho}"
                    );
                    let lead = peaks.and_then(|p| p.lead(&w, g, 2.0 * delta));
                    if let Some(lead) = lead {
                        shortcuts += 1;
                        assert_eq!(Some(lead.bin), scan, "case {case}, g {g:e}");
                    }
                }
                // with no margin asked, the lead is the scan's top bin
                // with its magnitude, and the largest power's root
                if let Some(lead) = peaks.and_then(|p| p.lead(&w, g, 0.0)) {
                    let rank = Ranking::of(w.powers(g));
                    assert_eq!(lead.bin, rank.bin, "case {case}, g {g:e}");
                    assert_eq!(lead.top.to_bits(), rank.top.to_bits(), "case {case}");
                    assert!(rank.runner_up <= lead.others, "case {case}, g {g:e}");
                    let max = w.powers(g).fold(0.0, f64::max).sqrt();
                    assert_eq!(lead.top.to_bits(), max.to_bits(), "case {case}");
                }
            }
        }
        assert!(shortcuts > 5000, "the shortcut fired {shortcuts} times");
    }

    #[test]
    fn a_scratch_keeps_only_the_signal_it_formed() {
        let pass = |signal: &'static [Complex], invariant_signal| LinearPass {
            signal,
            noise: signal,
            gains: &[],
            residuals: &[],
            invariant_signal,
        };
        const A: [Complex; 2] = [Complex::new(1.0, 0.0), Complex::new(0.0, -0.0)];
        const B: [Complex; 2] = [Complex::new(1.0, 0.0), Complex::new(0.0, 0.0)];
        let mut scratch = ReceiverScratch::default();
        // nothing formed yet, not even for an empty signal
        assert!(!scratch.keeps_signal(&pass(&[], true)));
        assert!(!scratch.keeps_signal(&pass(&A, true)));
        assert!(scratch.keeps_signal(&pass(&A, true)));
        // a signal that differs in one bit, or a chain that changes it
        assert!(!scratch.keeps_signal(&pass(&B, true)));
        assert!(!scratch.keeps_signal(&pass(&B, false)));
        assert!(!scratch.keeps_signal(&pass(&B, true)));
        assert!(scratch.keeps_signal(&pass(&B, true)));
    }

    #[test]
    fn window_cache_projects_each_key_once_per_pass() {
        let mut cache = WindowCache::default();
        let (mut signal_calls, mut noise_calls) = (0, 0);
        for pass in 0..3 {
            // the signal halves live for the curve, the noise halves for
            // one pass
            if pass == 0 {
                cache.clear(4);
            } else {
                cache.clear_noise();
            }
            for key in [7usize, 2, 7, 40, 2] {
                let (w, peaks) = cache.window(
                    key,
                    |s| {
                        signal_calls += 1;
                        assert!(s.iter().all(|z| *z == Complex::ZERO));
                        s[0] = Complex::new(key as f64, 1.0);
                        (key as f64, 3.0)
                    },
                    |n| {
                        noise_calls += 1;
                        assert!(n.iter().all(|z| *z == Complex::ZERO));
                        n[3] = Complex::new(pass as f64, 0.0);
                        0.5
                    },
                );
                assert_eq!(w.signal.len(), 4);
                assert_eq!(w.signal[0], Complex::new(key as f64, 1.0));
                assert_eq!(w.noise[3], Complex::new(pass as f64, 0.0));
                assert_eq!(
                    (w.signal_bound, w.noise_bound, w.residual_gain),
                    (key as f64, 0.5, 3.0)
                );
                assert_eq!(peaks, PeakSummary::of(&w));
            }
        }
        assert_eq!(signal_calls, 3, "three distinct keys per curve");
        assert_eq!(noise_calls, 9, "three distinct keys per pass");
        // a full clear forgets the signal halves too
        cache.clear(4);
        cache.window(2, |_| (0.0, 0.0), |_| 0.0);
        assert_eq!(cache.keys, [2]);
    }
}
