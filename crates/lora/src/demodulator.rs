//! The LoRa demodulator (paper Fig. 6b).
//!
//! Pipeline, exactly as the paper wires it: "It begins by reading data
//! from the I/Q radio into the I/Q Deserializer […] we run the data
//! through a 14 tap FIR low-pass filter to suppress high frequency noise
//! and interference. We store the filtered samples in a buffer […] we
//! use the Chirp Generator module from the LoRa Modulator to generate a
//! baseline upchirp/downchirp symbol, and then we multiply that with the
//! received chirp symbol using our Complex Multiplier unit. The output
//! of the multiplication then goes to an FFT block […] Finally the
//! Symbol Detector scans the output of the FFT for peaks and records the
//! frequency of the peak to determine the symbol value. To detect chirp
//! type (upchirp/downchirp), we multiply each chirp symbol with both an
//! upchirp and downchirp and then compare the amplitudes of their FFT
//! peaks."

use std::ops::Range;

use tinysdr_dsp::chirp::{dechirp_into, ChirpConfig, ChirpGenerator};
use tinysdr_dsp::complex::{l2_norm, Complex};
use tinysdr_dsp::fft::FftPlan;
use tinysdr_dsp::fir::{demod_frontend, Fir};
use tinysdr_rf::superpose::WindowProjection;

/// Reusable working state for one demodulator's `*_with` hot paths:
/// the front-end FIR (cloned from the demodulator so taps match), the
/// group-delay-compensated capture of the framed path, and the
/// dechirp/FFT symbol buffer. Build with [`Demodulator::scratch`]; hold
/// one per worker thread.
#[derive(Debug, Clone)]
pub struct DemodScratch {
    fir: Fir,
    filtered: Vec<Complex>,
    buf: Vec<Complex>,
}

use crate::packet::FrameParams;
use crate::phy::{self, CodeParams};

mod superposed;

/// Result of detecting one chirp symbol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymbolDetection {
    /// Winning symbol value (FFT peak bin folded to `0..2^SF`).
    pub symbol: u16,
    /// Peak magnitude.
    pub magnitude: f64,
    /// Mean magnitude across bins (noise reference for thresholding).
    pub mean_magnitude: f64,
}

impl SymbolDetection {
    /// Peak-to-mean ratio; preamble detection thresholds on this. A
    /// window without energy (zero mean) has no peak: its quality is 0,
    /// so digital silence never passes the preamble gate.
    pub fn quality(&self) -> f64 {
        if self.mean_magnitude > 0.0 {
            self.magnitude / self.mean_magnitude
        } else {
            0.0
        }
    }
}

/// Relative margin of the decision-only peak search: bins within it of
/// the largest `|X[k]|²` are re-ranked by exact magnitude, and a
/// preamble quality within it of the gate is re-decided by the exact
/// scan. The two magnitude routines and the two mean sums differ by a
/// few ulp per bin — under `n · 1e-15` relative for `n ≤ 4096` bins —
/// far inside this margin (DESIGN.md, "Receiver kernels").
const PEAK_MARGIN: f64 = 1e-9;

/// Peak `|X[k]|²` range inside which every bin near the peak keeps full
/// relative precision: above `NORM_SQR_MIN` no squared component that
/// matters is subnormal, at or below `NORM_SQR_MAX` none overflowed.
/// Spectra outside it (including all-zero ones) take the exact scan.
const NORM_SQR_MIN: f64 = 1e-200;
const NORM_SQR_MAX: f64 = 1e300;

/// The exact peak scan every public detection reports: `|X[k]|` per
/// bin (oversampled receivers fold in the mirrored bin), first maximum
/// on ties, and the mean magnitude over the `n` chip bins.
fn scan_exact(spec: &[Complex], n: usize, osr: usize) -> SymbolDetection {
    let ns = spec.len();
    let mut best = (0u16, f64::MIN);
    let mut sum = 0.0;
    for s in 0..n {
        let mut mag = spec[s].abs();
        if osr > 1 {
            mag += spec[(ns - n + s) % ns].abs();
        }
        sum += mag;
        if mag > best.1 {
            best = (s as u16, mag);
        }
    }
    SymbolDetection {
        symbol: best.0,
        magnitude: best.1,
        mean_magnitude: sum / n as f64,
    }
}

/// Largest `|X[k]|²` of a spectrum, handing every bin's `|X[k]|²` to
/// `each` in bin order; `None` when the largest falls outside
/// `NORM_SQR_MIN..=NORM_SQR_MAX` or any bin is non-finite or too large
/// (the fast search then cannot vouch for its ranking).
fn top_norm_sqr(spec: &[Complex], mut each: impl FnMut(f64)) -> Option<f64> {
    let mut top = 0.0f64;
    let mut tame = true;
    for v in spec {
        let p = v.norm_sqr();
        tame &= p <= NORM_SQR_MAX;
        each(p);
        if p > top {
            top = p;
        }
    }
    (tame && top >= NORM_SQR_MIN).then_some(top)
}

/// `(symbol, |X[symbol]|)` of the first maximum magnitude, given the
/// spectrum's largest `|X[k]|²` `top`: only bins within [`PEAK_MARGIN`]
/// of `top` can hold the maximum magnitude, so only they pay an `abs`.
/// Every bin whose magnitude ties the maximum passes the cut, so the
/// first of them is [`scan_exact`]'s peak, with its magnitude.
fn peak_near(spec: &[Complex], top: f64) -> (u16, f64) {
    let cut = top * (1.0 - PEAK_MARGIN);
    let mut best = (0u16, f64::MIN);
    for (s, v) in spec.iter().enumerate() {
        if v.norm_sqr() >= cut {
            let mag = v.abs();
            if mag > best.1 {
                best = (s as u16, mag);
            }
        }
    }
    best
}

/// A demodulated frame.
#[derive(Debug, Clone, PartialEq)]
pub struct DemodFrame {
    /// Decoded payload bytes.
    pub payload: Vec<u8>,
    /// Payload CRC passed.
    pub crc_ok: bool,
    /// Header intact.
    pub header_ok: bool,
    /// FEC corrections performed.
    pub corrections: usize,
    /// Sample index where the first payload symbol starts.
    pub payload_start: usize,
    /// Raw payload symbols prior to decoding.
    pub symbols: Vec<u16>,
}

/// The demodulator for one `(SF, BW, OSR)` configuration.
#[derive(Debug, Clone)]
pub struct Demodulator {
    cfg: ChirpConfig,
    frame_params: FrameParams,
    fir: Fir,
    plan: FftPlan,
    /// Conjugate base upchirp (dechirp reference for data symbols).
    up_ref: Vec<Complex>,
    /// Conjugate base downchirp (dechirp reference for SFD detection).
    down_ref: Vec<Complex>,
    /// Peak-to-mean quality needed to accept a preamble symbol.
    pub preamble_quality: f64,
}

impl Demodulator {
    /// Build a demodulator.
    pub fn new(cfg: ChirpConfig, frame_params: FrameParams) -> Self {
        assert_eq!(cfg.sf, frame_params.code.sf, "chirp and code SF must agree");
        let generator = ChirpGenerator::new(cfg);
        let up_ref = generator.dechirp_reference();
        let down_ref: Vec<Complex> = generator
            .downchirp()
            .into_iter()
            .map(|z| z.conj())
            .collect();
        let ns = cfg.samples_per_symbol();
        Demodulator {
            cfg,
            frame_params,
            fir: demod_frontend(0.45 / cfg.osr as f64),
            plan: FftPlan::new(ns),
            up_ref,
            down_ref,
            // at the SF8 sensitivity point the preamble peak-to-mean sits
            // near 5.7; noise-only windows max out near 2.7 — 3.5 splits
            // them with margin on both sides
            preamble_quality: 3.5,
        }
    }

    /// Convenience constructor matching [`crate::modulator::Modulator::standard`].
    pub fn standard(sf: u8, bw: f64, osr: usize, cr: u8) -> Self {
        let chirp = ChirpConfig::new(sf, bw, osr);
        let code = CodeParams::new(sf, cr);
        Demodulator::new(chirp, FrameParams::new(code))
    }

    /// Chirp configuration.
    pub fn config(&self) -> &ChirpConfig {
        &self.cfg
    }

    /// Fresh per-demodulator scratch state for the `*_with` hot paths:
    /// a private FIR clone plus the filtered-capture and dechirp/FFT
    /// buffers. One per worker thread; reusable across captures.
    pub fn scratch(&self) -> DemodScratch {
        DemodScratch {
            fir: self.fir.clone(),
            filtered: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// Run the front-end low-pass filter over a capture with group-delay
    /// compensation: the output is sample-aligned with the input (the
    /// trailing edge is flushed with zeros).
    pub fn filter(&self, x: &[Complex]) -> Vec<Complex> {
        let mut f = self.fir.clone();
        let mut out = Vec::new();
        self.filter_core(x, &mut f, &mut out);
        out
    }

    /// The filter body, against caller-owned FIR state and output.
    fn filter_core(&self, x: &[Complex], f: &mut Fir, out: &mut Vec<Complex>) {
        f.reset();
        let delay = f.group_delay() as usize;
        f.process_into(x, out);
        for _ in 0..delay {
            out.push(f.push(Complex::ZERO));
        }
        out.drain(..delay);
    }

    fn detect_with(&self, window: &[Complex], reference: &[Complex]) -> SymbolDetection {
        let mut buf = Vec::with_capacity(window.len());
        self.detect_with_buf(window, reference, &mut buf)
    }

    /// Dechirp → FFT of one symbol window into `buf`.
    fn spectrum_into(&self, window: &[Complex], reference: &[Complex], buf: &mut Vec<Complex>) {
        let ns = self.cfg.samples_per_symbol();
        assert_eq!(window.len(), ns, "window must be one symbol");
        dechirp_into(window, reference, buf);
        self.plan.forward(buf);
    }

    /// Dechirp → FFT → exact peak scan against a caller-owned working
    /// buffer. Bit-identical to the allocating `detect_with`.
    fn detect_with_buf(
        &self,
        window: &[Complex],
        reference: &[Complex],
        buf: &mut Vec<Complex>,
    ) -> SymbolDetection {
        self.spectrum_into(window, reference, buf);
        scan_exact(buf, self.cfg.n_chips(), self.cfg.osr)
    }

    /// `(symbol, magnitude)` of the exact peak scan of a spectrum,
    /// without its mean: the SFD and refine searches read nothing else.
    /// At one sample per chip only the near-peak bins pay an `abs`;
    /// oversampled receivers fold two bins into a magnitude sum, which
    /// `|X[k]|²` cannot rank, so they keep the full scan.
    fn peak(&self, spec: &[Complex]) -> (u16, f64) {
        if self.cfg.osr == 1 {
            if let Some(top) = top_norm_sqr(spec, |_| ()) {
                return peak_near(spec, top);
            }
        }
        let det = scan_exact(spec, self.cfg.n_chips(), self.cfg.osr);
        (det.symbol, det.magnitude)
    }

    /// The preamble gate on a spectrum: `Some(symbol)` exactly when the
    /// exact scan's quality reaches [`Demodulator::preamble_quality`].
    ///
    /// At one sample per chip the mean comes from `Σ sqrt(|X[k]|²)`
    /// instead of `Σ |X[k]|`; a quality within [`PEAK_MARGIN`] of the
    /// gate, a spectrum outside the safe `|X[k]|²` range (digital
    /// silence included) and oversampled receivers are decided by the
    /// exact scan.
    fn preamble_symbol(&self, spec: &[Complex]) -> Option<u16> {
        let gate = self.preamble_quality;
        if self.cfg.osr == 1 {
            let mut sum = 0.0;
            if let Some(top) = top_norm_sqr(spec, |p| sum += p.sqrt()) {
                let (symbol, magnitude) = peak_near(spec, top);
                let quality = magnitude / (sum / spec.len() as f64);
                if (quality - gate).abs() > PEAK_MARGIN * gate.abs() {
                    return (quality >= gate).then_some(symbol);
                }
            }
        }
        let det = scan_exact(spec, self.cfg.n_chips(), self.cfg.osr);
        (det.quality() >= gate).then_some(det.symbol)
    }

    /// The data symbol of a dechirped spectrum: `scan_exact(..).symbol`
    /// for callers that read nothing else.
    ///
    /// At one sample per chip the peak is picked over `|X[k]|²` instead
    /// of `|X[k]|`, skipping a `hypot` per bin and the unused mean
    /// magnitude sum. Squaring is monotone, so this is the same argmax
    /// (first maximum on ties) up to the rounding of the two magnitude
    /// routines — equivalent rather than bit-identical by construction,
    /// which the waterfall golden digests and the aligned-detection
    /// tests gate. Oversampled receivers fold two bins into a magnitude
    /// *sum*, which squared norms cannot rank, so they keep the full
    /// scan.
    fn data_symbol(&self, spec: &[Complex]) -> u16 {
        if self.cfg.osr > 1 {
            return scan_exact(spec, self.cfg.n_chips(), self.cfg.osr).symbol;
        }
        let mut best = (0u16, f64::MIN);
        for (s, v) in spec.iter().enumerate() {
            let p = v.norm_sqr();
            if p > best.1 {
                best = (s as u16, p);
            }
        }
        best.0
    }

    /// Detect the symbol in an aligned window (dechirp → FFT → peak).
    pub fn detect_symbol(&self, window: &[Complex]) -> SymbolDetection {
        self.detect_with(window, &self.up_ref)
    }

    /// Detect chirp direction by comparing up- and down-dechirped peaks
    /// (the paper's chirp-type detector).
    pub fn detect_direction(&self, window: &[Complex]) -> tinysdr_dsp::chirp::ChirpDirection {
        let up = self.detect_with(window, &self.up_ref);
        let down = self.detect_with(window, &self.down_ref);
        if up.magnitude >= down.magnitude {
            tinysdr_dsp::chirp::ChirpDirection::Up
        } else {
            tinysdr_dsp::chirp::ChirpDirection::Down
        }
    }

    /// Chirp-symbol error rate over an *aligned* stream of known symbols
    /// — the measurement behind Figs. 11 and 15 ("We record the received
    /// RF signals in the FPGA memory and run them through our
    /// demodulator to compute a chirp symbol error rate").
    pub fn symbol_error_rate(&self, rx: &[Complex], sent: &[u16]) -> f64 {
        let (errors, total) = self.symbol_errors(rx, sent);
        if total == 0 {
            0.0
        } else {
            errors as f64 / total as f64
        }
    }

    /// Raw `(errors, trials)` counts behind [`Self::symbol_error_rate`]
    /// — the waterfall sweeps accumulate counts so that per-point Wilson
    /// intervals and merged curves stay exact. Symbols whose window runs
    /// past the capture are counted as errors (a truncated capture lost
    /// them; ignoring them would understate the error rate).
    pub fn symbol_errors(&self, rx: &[Complex], sent: &[u16]) -> (u64, u64) {
        self.symbol_errors_with(rx, sent, &mut self.scratch())
    }

    /// [`Demodulator::symbol_errors`] against caller-owned scratch —
    /// the sweep engine's hot path, allocation-free in steady state and
    /// bit-identical to the allocating route.
    pub fn symbol_errors_with(
        &self,
        rx: &[Complex],
        sent: &[u16],
        scratch: &mut DemodScratch,
    ) -> (u64, u64) {
        let mut tx = sent.iter();
        let mut errors = 0u64;
        self.walk_aligned(rx, scratch, sent.len(), |symbol| {
            errors += u64::from(tx.next() != Some(&symbol));
        });
        // symbols whose window runs past the capture were lost
        errors += tx.len() as u64;
        (errors, sent.len() as u64)
    }

    /// Detect every aligned symbol window of a capture — front-end
    /// filter, then dechirp/FFT/peak per `samples_per_symbol` chunk —
    /// into `units`. This is the stream modem's demodulation pipeline
    /// against caller-owned scratch: bit-identical to [`Demodulator::filter`]
    /// followed by per-window [`Demodulator::detect_symbol`], with zero
    /// steady-state allocation.
    pub fn detect_aligned_with(
        &self,
        rx: &[Complex],
        scratch: &mut DemodScratch,
        units: &mut Vec<u16>,
    ) {
        units.clear();
        self.walk_aligned(rx, scratch, usize::MAX, |symbol| units.push(symbol));
    }

    /// Stream the first `max_windows` aligned symbol windows of `rx`
    /// through the front end one window at a time, handing each
    /// window's data symbol to `each`.
    ///
    /// The FIR state carries across windows: the first block also feeds
    /// the group delay, whose outputs are dropped, and past the end of
    /// the capture the filter is flushed with zeros — exactly the
    /// samples [`Demodulator::filter`] produces, by the FIR's
    /// split-block streaming contract. Each window is filtered straight
    /// into the symbol buffer and dechirped, transformed and scanned
    /// while it is still in cache, with no whole-capture copy.
    fn walk_aligned(
        &self,
        rx: &[Complex],
        scratch: &mut DemodScratch,
        max_windows: usize,
        mut each: impl FnMut(u16),
    ) {
        let DemodScratch { fir, buf, .. } = scratch;
        let windows = self.start_walk(rx, fir, buf).min(max_windows);
        for k in 0..windows {
            self.aligned_spectrum(rx, k, fir, buf);
            each(self.data_symbol(buf));
        }
    }

    /// Start a streamed aligned walk over `rx`: reset `fir` and feed it
    /// the group delay's leading samples (their outputs land in `buf`
    /// and are dropped). Returns the number of whole windows in `rx`.
    fn start_walk(&self, rx: &[Complex], fir: &mut Fir, buf: &mut Vec<Complex>) -> usize {
        let delay = fir.group_delay() as usize;
        fir.reset();
        fir.process_into(&rx[..delay.min(rx.len())], buf);
        rx.len() / self.cfg.samples_per_symbol()
    }

    /// Window `k` of a walk begun by [`Demodulator::start_walk`] (windows
    /// in order): filter its samples into `buf`, zero-flushing the FIR
    /// past the end of `rx`, then dechirp and transform in place.
    /// Returns the range of `rx` the window fed the filter.
    fn aligned_spectrum(
        &self,
        rx: &[Complex],
        k: usize,
        fir: &mut Fir,
        buf: &mut Vec<Complex>,
    ) -> Range<usize> {
        let ns = self.cfg.samples_per_symbol();
        let start = (k * ns + fir.group_delay() as usize).min(rx.len());
        let end = (start + ns).min(rx.len());
        fir.process_into(&rx[start..end], buf);
        buf.resize_with(ns, || fir.push(Complex::ZERO));
        for (z, &r) in buf.iter_mut().zip(&self.up_ref) {
            *z *= r;
        }
        self.plan.forward(buf);
        start..end
    }

    /// The aligned walk of [`Demodulator::detect_aligned_with`] over a
    /// signal and a noise vector of equal length in lock step, handing
    /// `each` every window's two dechirped spectra and their bounds. The
    /// walk is linear, so the spectra of `g·signal + noise` are
    /// `g·S + N` up to rounding.
    ///
    /// A window's bound is `√N·‖h‖₁·‖x‖₂` over every sample its FIR
    /// outputs read — the window's own inputs plus the `taps − 1` before
    /// them — which bounds every bin and every partial sum of the
    /// filter, the unit-modulus dechirp and the FFT; its residual gain
    /// is `√N·‖h‖₁·√L` for the `L` samples read, since a residual of at
    /// most `ρ` per sample has `‖q‖₂ ≤ √L·ρ` there.
    ///
    /// # Panics
    /// Panics if the lengths differ or the demodulator oversamples (an
    /// oversampled data symbol folds two bins, which is not an argmax
    /// over one).
    pub(crate) fn project_aligned(
        &self,
        signal: &[Complex],
        noise: &[Complex],
        each: &mut dyn FnMut(WindowProjection<'_>),
    ) {
        assert_eq!(signal.len(), noise.len(), "signal and noise must align");
        assert_eq!(self.cfg.osr, 1, "superposition needs one sample per chip");
        let history = self.fir.len() - 1;
        let gain = self.window_gain();
        let (mut fir_s, mut fir_n) = (self.fir.clone(), self.fir.clone());
        let (mut spec_s, mut spec_n) = (Vec::new(), Vec::new());
        let windows = self.start_walk(signal, &mut fir_s, &mut spec_s);
        self.start_walk(noise, &mut fir_n, &mut spec_n);
        for k in 0..windows {
            let read = self.aligned_spectrum(signal, k, &mut fir_s, &mut spec_s);
            self.aligned_spectrum(noise, k, &mut fir_n, &mut spec_n);
            let read = read.start.saturating_sub(history)..read.end;
            each(WindowProjection {
                signal: &spec_s,
                noise: &spec_n,
                signal_bound: gain * l2_norm(&signal[read.clone()]),
                noise_bound: gain * l2_norm(&noise[read.clone()]),
                residual_gain: gain * (read.len() as f64).sqrt(),
            });
        }
    }

    /// The dechirp reference of `chirp`: the conjugate base upchirp or
    /// downchirp.
    fn reference(&self, chirp: Chirp) -> &[Complex] {
        match chirp {
            Chirp::Up => &self.up_ref,
            Chirp::Down => &self.down_ref,
        }
    }

    /// The spectrum of the window at `start` of `rx`'s filtered capture,
    /// dechirped against `chirp`, into `scratch.buf`: the samples
    /// [`Demodulator::filter`] puts at `start..start + N` (zero past the
    /// capture, the framed path's padding), formed from the FIR inputs
    /// those samples read alone — the window's own and the `taps − 1`
    /// before them, zero outside the capture.
    ///
    /// Each FIR output is a sum over the last `taps` inputs, started at
    /// zero and added in tap order whatever came before, so every sample
    /// is bit-identical to the whole-capture filter's; so is the
    /// spectrum to the stream walk's window `start / N` and to the
    /// framed search's window at `start`. It is the kernel a refused
    /// superposed decision is settled by.
    ///
    /// It reads `rx` at [`Demodulator::window_reads`] only.
    fn exact_window_spectrum(
        &self,
        rx: &[Complex],
        start: usize,
        chirp: Chirp,
        scratch: &mut DemodScratch,
    ) {
        let DemodScratch { fir, filtered, buf } = scratch;
        let (ns, len) = (self.cfg.samples_per_symbol(), rx.len());
        // input index of the window's first output, and of its history
        let first = start + fir.group_delay() as usize;
        let history = first.saturating_sub(fir.len() - 1);
        fir.reset();
        // lint: allow(unchecked-index, both ends are clamped to the capture)
        fir.process_into(&rx[history.min(len)..first.min(len)], filtered);
        for _ in history.max(len)..first {
            fir.push(Complex::ZERO);
        }
        let outputs = ns.min(len.saturating_sub(start));
        // lint: allow(unchecked-index, both ends are clamped to the capture)
        fir.process_into(&rx[first.min(len)..(first + outputs).min(len)], filtered);
        filtered.resize_with(outputs, || fir.push(Complex::ZERO));
        filtered.resize(ns, Complex::ZERO);
        self.spectrum_into(filtered, self.reference(chirp), buf);
    }

    /// The samples of a capture of `len` samples that
    /// [`Demodulator::exact_window_spectrum`] reads for the window at
    /// `start`: the FIR inputs of the window's samples inside the
    /// capture, and the `taps − 1` before them.
    pub(crate) fn window_reads(&self, len: usize, start: usize) -> Range<usize> {
        let ns = self.cfg.samples_per_symbol();
        let first = start + self.fir.group_delay() as usize;
        let history = first.saturating_sub(self.fir.len() - 1);
        let outputs = ns.min(len.saturating_sub(start));
        history.min(len)..(first + outputs).min(len)
    }

    /// The data symbol of the stream walk's window `k` of `rx`
    /// ([`Demodulator::detect_aligned_with`]'s `k`-th symbol), from
    /// that window's samples alone ([`Demodulator::exact_window_spectrum`]).
    pub(crate) fn settle_aligned(
        &self,
        rx: &[Complex],
        k: usize,
        scratch: &mut DemodScratch,
    ) -> u16 {
        let start = k * self.cfg.samples_per_symbol();
        self.exact_window_spectrum(rx, start, Chirp::Up, scratch);
        self.data_symbol(&scratch.buf)
    }

    /// `√N·‖h‖₁`: times the norm of the unfiltered samples a window's
    /// FIR outputs read, a bound on every bin and partial sum of its
    /// filter, unit-modulus dechirp and FFT.
    fn window_gain(&self) -> f64 {
        (self.cfg.samples_per_symbol() as f64).sqrt()
            * self.fir.taps().iter().map(|t| t.abs()).sum::<f64>()
    }

    /// Locate the preamble and return the fine-aligned sample index of
    /// a symbol boundary inside it.
    fn find_preamble<W: FrameWindows>(&self, w: &mut W) -> Result<Option<usize>, W::Refusal> {
        let ns = self.cfg.samples_per_symbol();
        let osr = self.cfg.osr;
        let n = self.cfg.n_chips() as i64;
        let needed = 3; // consecutive consistent windows
        let mut run = 0usize;
        let mut run_sym = 0u16;
        let mut run_start = 0usize;
        let mut k = 0usize;
        while (k + 1) * ns <= w.len() {
            if let Some(symbol) = w.preamble_symbol(k * ns)? {
                // tolerate ±1 chip jitter between windows (quantized
                // chirps + filter edges wobble the split-bin estimate)
                let close = {
                    let d = (symbol as i64 - run_sym as i64).rem_euclid(n);
                    d <= 1 || d == n - 1
                };
                if run > 0 && close {
                    run += 1;
                    run_sym = symbol;
                } else {
                    run = 1;
                    run_sym = symbol;
                    run_start = k;
                }
                if run >= needed {
                    // misalignment δ (samples): window starts δ after the
                    // symbol boundary, and the detected preamble symbol
                    // equals δ in chips
                    let delta = run_sym as usize * osr;
                    let coarse = run_start * ns + if delta == 0 { 0 } else { ns - delta };
                    return self.refine_alignment(w, coarse).map(Some);
                }
            } else {
                run = 0;
            }
            k += 1;
        }
        Ok(None)
    }

    /// Fine alignment: probe sample offsets around the coarse estimate
    /// (which may be off by ±1 chip) and keep the one whose window
    /// dechirps to *exactly* symbol 0 with the strongest peak — at the
    /// true boundary the preamble lands in bin 0; an offset of a full
    /// chip moves it to bin ±1 and must be rejected, or every payload
    /// symbol would read off by one.
    fn refine_alignment<W: FrameWindows>(
        &self,
        w: &mut W,
        coarse: usize,
    ) -> Result<usize, W::Refusal> {
        let ns = self.cfg.samples_per_symbol();
        let span = (self.cfg.osr as i64).max(2);
        let mut best = (coarse, Level::exact(f64::MIN));
        for e in -span..=span {
            let pos = coarse as i64 + e;
            if pos < 0 || (pos as usize + ns) > w.len() {
                continue;
            }
            if let Some(magnitude) = w.zero_peak(pos as usize)? {
                if w.greater(magnitude, best.1)? {
                    best = (pos as usize, magnitude);
                }
            }
        }
        Ok(best.0)
    }

    /// Demodulate one frame from a raw capture: front-end filter,
    /// preamble search, SFD alignment, header decode, payload decode.
    ///
    /// Returns `None` when no frame is found (no preamble, SFD missing,
    /// or the header block is unreadable).
    pub fn demodulate(&self, rx: &[Complex]) -> Option<DemodFrame> {
        self.demodulate_with(rx, &mut self.scratch())
    }

    /// [`Demodulator::demodulate`] against caller-owned scratch, so a
    /// caller (`repro perf`'s timed loop) reuses the FIR state and the
    /// filtered/dechirp buffers across captures. Bit-identical to the
    /// allocating route.
    pub fn demodulate_with(
        &self,
        rx: &[Complex],
        scratch: &mut DemodScratch,
    ) -> Option<DemodFrame> {
        let DemodScratch { fir, filtered, buf } = scratch;
        self.filter_padded(rx, fir, filtered);
        let Ok(frame) = self.receive(&mut ExactWindows {
            demod: self,
            filtered,
            buf,
        });
        frame
    }

    /// The front-end filter of the framed path, plus one symbol of zero
    /// padding so a grid offset can't starve the final symbol window.
    fn filter_padded(&self, x: &[Complex], fir: &mut Fir, out: &mut Vec<Complex>) {
        self.filter_core(x, fir, out);
        out.extend(std::iter::repeat_n(
            Complex::ZERO,
            self.cfg.samples_per_symbol(),
        ));
    }

    /// The framed receive over a window source: preamble search, fine
    /// alignment, SFD search, header and payload decode. The one copy
    /// of the framed search: [`ExactWindows`] runs it on a filtered
    /// capture, a superposed source on a pass's projections.
    fn receive<W: FrameWindows>(&self, w: &mut W) -> Result<Option<DemodFrame>, W::Refusal> {
        let Some(pos) = self.find_preamble(w)? else {
            return Ok(None);
        };
        let Some(sfd_start) = self.find_sfd(w, pos)? else {
            return Ok(None);
        };
        self.decode_after_sfd(w, sfd_start)
    }

    /// Locate the SFD by total evidence rather than a fragile
    /// window-by-window walk: the two consecutive downchirp windows
    /// maximize (down-energy − up-energy) summed over the pair. The
    /// search span covers the rest of the preamble plus the sync word
    /// from wherever the preamble lock at `pos` happened. Returns the
    /// first SFD window's sample index, or `None` without downchirp
    /// evidence anywhere.
    ///
    /// Consecutive offsets overlap by one window: offset `j`'s second
    /// window is offset `j + 1`'s first, so its two detections are
    /// carried over instead of recomputed — the same windows through
    /// the same kernels, hence the same magnitudes bit for bit.
    fn find_sfd<W: FrameWindows>(
        &self,
        w: &mut W,
        pos: usize,
    ) -> Result<Option<usize>, W::Refusal> {
        let ns = self.cfg.samples_per_symbol();
        let max_j = self.frame_params.preamble_len + 4;
        let mut best: Option<(usize, Level)> = None;
        // (down, up) peak magnitudes of the window at `start`
        let mut carried: Option<(Level, Level)> = None;
        for j in 1..=max_j {
            let start = pos + j * ns;
            if start + 2 * ns > w.len() {
                break;
            }
            let (d0, u0) = match carried {
                Some(mags) => mags,
                None => (
                    w.magnitude(start, Chirp::Down),
                    w.magnitude(start, Chirp::Up),
                ),
            };
            let d1 = w.magnitude(start + ns, Chirp::Down);
            let u1 = w.magnitude(start + ns, Chirp::Up);
            carried = Some((d1, u1));
            let score = d0 + d1 - u0 - u1;
            let better = match best {
                Some((_, s)) => w.greater(score, s)?,
                None => true,
            };
            if better {
                best = Some((start, score));
            }
        }
        let Some((sfd_start, score)) = best else {
            return Ok(None);
        };
        // no downchirp evidence anywhere — not a frame
        Ok(w.greater(score, Level::exact(0.0))?.then_some(sfd_start))
    }

    /// Header and payload decode once the SFD is found at `sfd_start`.
    fn decode_after_sfd<W: FrameWindows>(
        &self,
        w: &mut W,
        sfd_start: usize,
    ) -> Result<Option<DemodFrame>, W::Refusal> {
        let ns = self.cfg.samples_per_symbol();
        // skip the 2.25-symbol SFD
        let payload_start = sfd_start + ns * 2 + ns / 4;

        // header block: 8 symbols
        if payload_start + 8 * ns > w.len() {
            return Ok(None);
        }
        let mut symbols: Vec<u16> = Vec::new();
        for i in 0..8 {
            symbols.push(w.data_symbol(payload_start + i * ns)?);
        }
        // decode just the header block to learn the payload length
        let Some(payload_len) = header_declared_len(&symbols, self.frame_params.code) else {
            return Ok(None);
        };
        let total_syms = phy::symbol_count(payload_len, self.frame_params.code);
        if payload_start + total_syms * ns > w.len() {
            return Ok(None);
        }
        for i in 8..total_syms {
            symbols.push(w.data_symbol(payload_start + i * ns)?);
        }
        Ok(
            phy::decode(&symbols, self.frame_params.code).map(|dec| DemodFrame {
                payload: dec.payload,
                crc_ok: dec.crc_ok,
                header_ok: dec.header_ok,
                corrections: dec.corrections,
                payload_start,
                symbols,
            }),
        )
    }
}

/// The chirp a framed window is dechirped against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chirp {
    /// The base upchirp (preamble, refine, data symbols).
    Up,
    /// The base downchirp (SFD evidence).
    Down,
}

/// A peak magnitude, or a sum of them, as a window source reports it:
/// its value, a bound on its distance from the exact receive's value
/// (zero on the exact path, whose values are the receive's own), and
/// the windows it sums, so a superposed source can re-read it from the
/// exact capture.
#[derive(Debug, Clone, Copy)]
struct Level {
    value: f64,
    err: f64,
    terms: Terms,
}

/// What a [`Level`] is a sum of.
#[derive(Debug, Clone, Copy)]
enum Terms {
    /// Nothing to re-read: the value is the exact receive's own.
    Exact,
    /// The peak magnitudes of the first `n` windows listed, by window
    /// key and whether it is subtracted, folded left to right as the
    /// search combined them.
    Windows([(usize, bool); 4], usize),
    /// A combination no left fold of window magnitudes reproduces.
    Opaque,
}

impl Level {
    /// A value the exact receive forms itself.
    fn exact(value: f64) -> Level {
        Level {
            value,
            err: 0.0,
            terms: Terms::Exact,
        }
    }

    /// The superposed peak magnitude of the window under `key`, within
    /// `err` of the exact receive's.
    fn window(key: usize, value: f64, err: f64) -> Level {
        Level {
            value,
            err,
            terms: Terms::Windows([(key, false); 4], 1),
        }
    }

    /// `self ± rhs`, its bound the sum of both, its terms `self`'s then
    /// `rhs`'s when `rhs` is one window.
    fn combine(self, rhs: Level, subtract: bool) -> Level {
        let terms = match (self.terms, rhs.terms) {
            (Terms::Exact, Terms::Exact) => Terms::Exact,
            (Terms::Windows(mut keys, n), Terms::Windows([(key, minus), ..], 1)) => {
                match keys.get_mut(n) {
                    Some(slot) => {
                        *slot = (key, minus != subtract);
                        Terms::Windows(keys, n + 1)
                    }
                    None => Terms::Opaque,
                }
            }
            _ => Terms::Opaque,
        };
        let value = if subtract {
            self.value - rhs.value
        } else {
            self.value + rhs.value
        };
        Level {
            value,
            err: self.err + rhs.err,
            terms,
        }
    }
}

impl std::ops::Add for Level {
    type Output = Level;
    fn add(self, rhs: Level) -> Level {
        self.combine(rhs, false)
    }
}

impl std::ops::Sub for Level {
    type Output = Level;
    fn sub(self, rhs: Level) -> Level {
        self.combine(rhs, true)
    }
}

/// Where the framed search reads its windows. Every decision the search
/// takes on a window's spectrum goes through one of these methods, so
/// the search has one copy: [`ExactWindows`] answers each from the
/// filtered capture with the receiver's own kernels, bit for bit, and a
/// superposed source answers from `g·S + N`, settling a decision it
/// cannot certify on the exact capture's window, or abandons the whole
/// receive (`Err`).
///
/// `start` is a sample index of the filtered, padded capture; the
/// search only asks for windows that lie inside [`FrameWindows::len`].
trait FrameWindows {
    /// Why a decision was refused; never produced by the exact source.
    type Refusal;
    /// Samples in the filtered capture, padding included.
    fn len(&self) -> usize;
    /// The preamble gate on the up-dechirped window at `start`
    /// ([`Demodulator::preamble_symbol`]).
    fn preamble_symbol(&mut self, start: usize) -> Result<Option<u16>, Self::Refusal>;
    /// The peak magnitude of the up-dechirped window at `start` when its
    /// peak symbol is 0, else `None`.
    fn zero_peak(&mut self, start: usize) -> Result<Option<Level>, Self::Refusal>;
    /// The peak magnitude of the window at `start` dechirped against
    /// `chirp`.
    fn magnitude(&mut self, start: usize, chirp: Chirp) -> Level;
    /// The data symbol of the up-dechirped window at `start`
    /// ([`Demodulator::data_symbol`]).
    fn data_symbol(&mut self, start: usize) -> Result<u16, Self::Refusal>;
    /// `a.value > b.value` as the exact receive decides it.
    fn greater(&mut self, a: Level, b: Level) -> Result<bool, Self::Refusal>;
}

/// The exact window source: one filtered capture, each window dechirped
/// and transformed into `buf` when asked, and decided by the receiver's
/// own searches.
struct ExactWindows<'a> {
    demod: &'a Demodulator,
    filtered: &'a [Complex],
    buf: &'a mut Vec<Complex>,
}

impl ExactWindows<'_> {
    /// Dechirp → FFT of the window at `start` into `buf`.
    fn spectrum(&mut self, start: usize, chirp: Chirp) -> &[Complex] {
        let d = self.demod;
        let ns = d.cfg.samples_per_symbol();
        // lint: allow(unchecked-index, the search asks only for windows inside len())
        let window = &self.filtered[start..start + ns];
        d.spectrum_into(window, d.reference(chirp), self.buf);
        self.buf
    }
}

impl FrameWindows for ExactWindows<'_> {
    type Refusal = std::convert::Infallible;

    fn len(&self) -> usize {
        self.filtered.len()
    }

    fn preamble_symbol(&mut self, start: usize) -> Result<Option<u16>, Self::Refusal> {
        let d = self.demod;
        Ok(d.preamble_symbol(self.spectrum(start, Chirp::Up)))
    }

    fn zero_peak(&mut self, start: usize) -> Result<Option<Level>, Self::Refusal> {
        let d = self.demod;
        let (symbol, magnitude) = d.peak(self.spectrum(start, Chirp::Up));
        Ok((symbol == 0).then_some(Level::exact(magnitude)))
    }

    fn magnitude(&mut self, start: usize, chirp: Chirp) -> Level {
        let d = self.demod;
        Level::exact(d.peak(self.spectrum(start, chirp)).1)
    }

    fn data_symbol(&mut self, start: usize) -> Result<u16, Self::Refusal> {
        let d = self.demod;
        Ok(d.data_symbol(self.spectrum(start, Chirp::Up)))
    }

    fn greater(&mut self, a: Level, b: Level) -> Result<bool, Self::Refusal> {
        Ok(a.value > b.value)
    }
}

/// Extract the declared payload length from a decoded header block
/// (symbols 0..8), verifying the header checksum. Returns `None` on a
/// corrupt header.
fn header_declared_len(symbols: &[u16], code: CodeParams) -> Option<usize> {
    use crate::phy::{deinterleave, gray_encode, hamming_decode};
    let hdr_sf_app = (code.sf - 2) as usize;
    let blk: Vec<u16> = symbols[..8]
        .iter()
        .map(|&s| (gray_encode(s) & ((1 << code.sf) - 1)) >> 2)
        .collect();
    let cws = deinterleave(&blk, hdr_sf_app, 4);
    let nib: Vec<u8> = cws.iter().map(|&c| hamming_decode(c, 4).nibble).collect();
    if nib.len() < 5 {
        return None;
    }
    let len = ((nib[0] << 4) | nib[1]) as usize;
    let flags = nib[2];
    let chk = (nib[3] << 4) | nib[4];
    if chk == (len as u8 ^ (flags << 4) ^ 0x5A) {
        Some(len)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulator::Modulator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tinysdr_rf::channel::apply_delay;
    use tinysdr_rf::impairments::ImpairmentChain;

    /// `n` samples of receiver noise at 125 kHz: the chain's capture of a
    /// silent waveform, which it leaves unscaled.
    fn noise(n: usize, seed: u64) -> Vec<Complex> {
        ImpairmentChain::new(4.5).apply(&vec![Complex::ZERO; n], 0.0, 125e3, seed)
    }

    fn loopback(sf: u8, bw: f64, osr: usize, cr: u8, payload: &[u8]) -> DemodFrame {
        let m = Modulator::standard(sf, bw, osr, cr);
        let d = Demodulator::standard(sf, bw, osr, cr);
        let sig = m.modulate(payload);
        d.demodulate(&sig).expect("clean loopback must decode")
    }

    #[test]
    fn clean_loopback_sf8() {
        let f = loopback(8, 125e3, 1, 1, b"hello tinySDR");
        assert_eq!(f.payload, b"hello tinySDR");
        assert!(f.crc_ok && f.header_ok);
    }

    #[test]
    fn clean_loopback_all_sf() {
        for sf in 7..=12u8 {
            let f = loopback(sf, 125e3, 1, 1, b"sf sweep");
            assert_eq!(f.payload, b"sf sweep", "SF{sf}");
            assert!(f.crc_ok, "SF{sf}");
        }
    }

    #[test]
    fn clean_loopback_oversampled() {
        let f = loopback(8, 125e3, 4, 2, b"osr4");
        assert_eq!(f.payload, b"osr4");
        assert!(f.crc_ok);
    }

    #[test]
    fn decodes_with_unaligned_start() {
        let m = Modulator::standard(8, 125e3, 1, 1);
        let d = Demodulator::standard(8, 125e3, 1, 1);
        let sig = m.modulate(b"offset test");
        for delay in [1usize, 17, 100, 255, 300] {
            let delayed = apply_delay(&sig, delay);
            let f = d
                .demodulate(&delayed)
                .unwrap_or_else(|| panic!("delay {delay}"));
            assert_eq!(f.payload, b"offset test", "delay {delay}");
            assert!(f.crc_ok, "delay {delay}");
        }
    }

    #[test]
    fn decodes_at_high_snr_with_noise() {
        let m = Modulator::standard(8, 125e3, 1, 1);
        let d = Demodulator::standard(8, 125e3, 1, 1);
        // 18 dB above sensitivity
        let sig = ImpairmentChain::new(4.5).apply(&m.modulate(b"noisy"), -100.0, 125e3, 11);
        let f = d.demodulate(&sig).expect("decode at -100 dBm");
        assert_eq!(f.payload, b"noisy");
        assert!(f.crc_ok);
    }

    #[test]
    fn fails_gracefully_on_pure_noise() {
        let d = Demodulator::standard(8, 125e3, 1, 1);
        assert!(
            d.demodulate(&noise(256 * 40, 3)).is_none(),
            "noise must not decode"
        );
    }

    #[test]
    fn symbol_error_rate_zero_at_high_snr() {
        let m = Modulator::standard(8, 125e3, 1, 1);
        let d = Demodulator::standard(8, 125e3, 1, 1);
        let mut rng = StdRng::seed_from_u64(5);
        let syms: Vec<u16> = (0..100).map(|_| rng.gen_range(0..256)).collect();
        let sig = ImpairmentChain::new(4.5).apply(&m.modulate_symbols(&syms), -110.0, 125e3, 8);
        let ser = d.symbol_error_rate(&sig, &syms);
        assert_eq!(ser, 0.0, "SER at -110 dBm should be zero");
    }

    #[test]
    fn symbol_error_rate_transitions_near_sensitivity() {
        // SF8/BW125 sensitivity is −126 dBm: a few dB above → low SER,
        // far below → SER toward (M−1)/M. Noncoherent theory
        // (`sx1276::symbol_error_prob`) puts the ideal detector's SER at
        // 0.90 at −140 dBm; at −135 dBm it is 0.47, too close to the 0.5
        // bound for 300 symbols to decide
        let m = Modulator::standard(8, 125e3, 1, 1);
        let d = Demodulator::standard(8, 125e3, 1, 1);
        let mut rng = StdRng::seed_from_u64(6);
        let syms: Vec<u16> = (0..300).map(|_| rng.gen_range(0..256)).collect();
        let base = m.modulate_symbols(&syms);

        let good = ImpairmentChain::new(4.5).apply(&base, -122.0, 125e3, 21);
        let ser_good = d.symbol_error_rate(&good, &syms);

        let bad = ImpairmentChain::new(4.5).apply(&base, -140.0, 125e3, 22);
        let ser_bad = d.symbol_error_rate(&bad, &syms);

        assert!(ser_good < 0.05, "SER at -122 dBm: {ser_good}");
        assert!(ser_bad > 0.5, "SER at -140 dBm: {ser_bad}");
    }

    #[test]
    fn scratch_paths_are_bit_identical_to_allocating_paths() {
        let m = Modulator::standard(8, 125e3, 1, 1);
        let d = Demodulator::standard(8, 125e3, 1, 1);
        let mut rng = StdRng::seed_from_u64(17);
        let mut scratch = d.scratch();
        // frame path, reusing scratch across noisy captures
        for trial in 0..3u64 {
            let sig = m.modulate(b"scratch contract");
            let sig = ImpairmentChain::new(4.5).apply(&sig, -115.0, 125e3, 100 + trial);
            assert_eq!(d.demodulate_with(&sig, &mut scratch), d.demodulate(&sig));
        }
        // aligned-symbol path
        let syms: Vec<u16> = (0..60).map(|_| rng.gen_range(0..256)).collect();
        let sig = ImpairmentChain::new(4.5).apply(&m.modulate_symbols(&syms), -130.0, 125e3, 9);
        assert_eq!(
            d.symbol_errors_with(&sig, &syms, &mut scratch),
            d.symbol_errors(&sig, &syms)
        );
        // and filter itself
        let mut s2 = d.scratch();
        let DemodScratch { fir, filtered, .. } = &mut s2;
        d.filter_core(&sig, fir, filtered);
        assert_eq!(*filtered, d.filter(&sig));
    }

    #[test]
    fn aligned_symbol_scan_matches_full_detection() {
        // the norm² peak scan must pick detect_symbol's bin on every
        // window: noisy chirps across each SF's RSSI window, noise-only
        // windows, and exact all-zero windows (a flat spectrum)
        let mut rng = StdRng::seed_from_u64(23);
        for sf in 7..=10u8 {
            let m = Modulator::standard(sf, 125e3, 1, 1);
            let d = Demodulator::standard(sf, 125e3, 1, 1);
            let ns = d.config().samples_per_symbol();
            let syms: Vec<u16> = (0..16).map(|_| rng.gen_range(0..1 << sf)).collect();
            let base = m.modulate_symbols(&syms);
            let anchor = tinysdr_rf::sx1276::sensitivity_dbm(sf, 125e3).round();
            let mut scratch = d.scratch();
            let mut units = Vec::new();
            for (k, offset_db) in (-16..=26).step_by(6).enumerate() {
                let seed = 100 * sf as u64 + k as u64;
                let rssi = anchor + offset_db as f64;
                let mut rx = ImpairmentChain::new(4.5).apply(&base, rssi, 125e3, seed);
                rx.extend(noise(2 * ns, seed ^ 0xF00));
                rx.extend(vec![Complex::ZERO; 3 * ns]);
                d.detect_aligned_with(&rx, &mut scratch, &mut units);
                let want: Vec<u16> = d
                    .filter(&rx)
                    .chunks_exact(ns)
                    .map(|w| d.detect_symbol(w).symbol)
                    .collect();
                assert_eq!(units, want, "SF{sf} at anchor {offset_db:+} dB");
                assert_eq!(units.last(), Some(&0), "all-zero window reads bin 0");
            }
        }
    }

    #[test]
    fn leading_digital_silence_does_not_lock_the_preamble_search() {
        // regression: an all-zero window used to report quality ∞ and
        // pass the gate, so three silent windows before a frame formed
        // a "preamble" at bin 0 and the frame was lost
        let m = Modulator::standard(8, 125e3, 1, 1);
        let d = Demodulator::standard(8, 125e3, 1, 1);
        let ns = d.config().samples_per_symbol();
        let sig = m.modulate(b"after silence");
        for silent in 0..=20 {
            let mut rx = vec![Complex::ZERO; silent * ns];
            rx.extend_from_slice(&sig);
            let f = d
                .demodulate(&rx)
                .unwrap_or_else(|| panic!("{silent} silent windows"));
            assert_eq!(f.payload, b"after silence", "{silent} silent windows");
            assert!(f.crc_ok, "{silent} silent windows");
        }
        let silence = d.detect_symbol(&vec![Complex::ZERO; ns]);
        assert_eq!(silence.quality(), 0.0);
    }

    /// The decision-only searches against the exact `abs()` scan on one
    /// spectrum: peak symbol and magnitude bit for bit, and the gate at
    /// `gate`.
    fn assert_fast_search_is_exact(spec: &[Complex], gate: f64, what: &str) {
        let mut d = Demodulator::standard(8, 125e3, 1, 1);
        d.preamble_quality = gate;
        let exact = scan_exact(spec, spec.len(), 1);
        let (symbol, magnitude) = d.peak(spec);
        assert_eq!(symbol, exact.symbol, "{what}: peak bin");
        assert_eq!(
            magnitude.to_bits(),
            exact.magnitude.to_bits(),
            "{what}: peak magnitude"
        );
        let want = (exact.quality() >= gate).then_some(exact.symbol);
        assert_eq!(d.preamble_symbol(spec), want, "{what}: gate {gate}");
    }

    #[test]
    fn decision_only_search_matches_the_exact_scan_on_adversarial_spectra() {
        let n = 256;
        let flat = |v: Complex| vec![v; n];
        let gates = [3.5, 0.0, 1.0, 2.0, 100.0];
        let mut cases: Vec<(String, Vec<Complex>)> = Vec::new();
        // exact ties: equal magnitudes from different components
        let mut tie = flat(Complex::new(0.5, 0.25));
        tie[9] = Complex::new(4.0, 3.0);
        tie[40] = Complex::new(3.0, 4.0);
        tie[41] = Complex::new(0.0, -5.0);
        tie[200] = Complex::new(-5.0, 0.0);
        cases.push(("exact ties".into(), tie));
        // bins one ulp apart, each order
        for (a, b) in [(1.0f64, 1.0f64.next_up()), (1.0f64.next_up(), 1.0)] {
            let mut s = flat(Complex::new(0.1, 0.0));
            s[17] = Complex::new(a, 0.7);
            s[18] = Complex::new(b, 0.7);
            cases.push((format!("one ulp apart ({a:e}, {b:e})"), s));
        }
        // components whose squares round together while hypot may not
        let mut state = 0x5eed_u64;
        for k in 0..64 {
            let mut s = flat(Complex::new(1e-3, -2e-3));
            let base = Complex::new(0.6 + 0.001 * k as f64, 0.8 - 0.0007 * k as f64);
            for (j, bin) in [3usize, 77, 78, 190, 255].into_iter().enumerate() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mut re = base.re;
                let mut im = base.im;
                for _ in 0..(state >> 61) {
                    re = if j % 2 == 0 {
                        re.next_up()
                    } else {
                        re.next_down()
                    };
                }
                for _ in 0..((state >> 58) & 7) {
                    im = if j % 3 == 0 {
                        im.next_down()
                    } else {
                        im.next_up()
                    };
                }
                s[bin] = Complex::new(re, im);
            }
            cases.push((format!("near-tied cluster {k}"), s));
        }
        // digital silence, and magnitudes that force the exact fallback
        cases.push(("all zero".into(), flat(Complex::ZERO)));
        for scale in [1e-160, 1e-155, 1e-100, 1e149, 1e150, 1e151, 1e155, 1e160] {
            let mut s = flat(Complex::new(0.3 * scale, 0.1 * scale));
            s[5] = Complex::new(2.0 * scale, -1.5 * scale);
            s[6] = Complex::new(-1.5 * scale, 2.0 * scale);
            cases.push((format!("scale {scale:e}"), s));
        }
        // subnormal squares that rank two bins the wrong way round:
        // |a| < |b| but |a|² > |b|² after rounding
        let mut sub = flat(Complex::new(1e-163, 0.0));
        sub[60] = Complex::new(3.7170862637993984e-162, 4.797491019362484e-162);
        sub[61] = Complex::new(4.606650186576713e-162, 4.1429591930884093e-162);
        assert!(sub[60].abs() < sub[61].abs() && sub[60].norm_sqr() > sub[61].norm_sqr());
        cases.push(("subnormal squares out of order".into(), sub));
        let mut nan = flat(Complex::new(0.2, 0.1));
        nan[3] = Complex::new(f64::NAN, f64::INFINITY);
        nan[4] = Complex::new(3.0, 0.0);
        cases.push(("NaN and ∞ components".into(), nan));
        for (what, spec) in &cases {
            for &gate in &gates {
                assert_fast_search_is_exact(spec, gate, what);
            }
        }
    }

    #[test]
    fn preamble_gate_is_exact_at_the_threshold() {
        // peak 7 at one bin, 101 bins of magnitude 5, the rest silent:
        // mean 512 / 256 = 2, quality exactly 3.5
        let n = 256;
        let spectrum = |peak: f64| {
            let mut s = vec![Complex::ZERO; n];
            s[30] = Complex::new(0.0, peak);
            for bin in s.iter_mut().skip(100).take(101) {
                *bin = Complex::new(3.0, -4.0);
            }
            s
        };
        let at = spectrum(7.0);
        assert_eq!(scan_exact(&at, n, 1).quality(), 3.5);
        for gate in [3.5, 3.5f64.next_up(), 3.5f64.next_down()] {
            assert_fast_search_is_exact(&at, gate, "quality 3.5");
            for peak in [7.0f64.next_up(), 7.0f64.next_down()] {
                assert_fast_search_is_exact(&spectrum(peak), gate, "quality 3.5 ± 1 ulp");
            }
        }
        let d = Demodulator::standard(8, 125e3, 1, 1);
        assert_eq!(d.preamble_symbol(&at), Some(30), "3.5 passes a 3.5 gate");
    }

    #[test]
    fn decision_only_search_matches_the_exact_scan_on_received_windows() {
        // real dechirped spectra: noisy preambles, SFD downchirps and
        // noise-only windows, against gates spread around their qualities
        let m = Modulator::standard(8, 125e3, 1, 1);
        let d = Demodulator::standard(8, 125e3, 1, 1);
        let ns = d.config().samples_per_symbol();
        let sig = m.modulate(b"gate sweep");
        let mut buf = Vec::new();
        let mut fast_decided = 0;
        for (k, rssi) in [-110.0, -122.0, -126.0, -130.0, -140.0]
            .into_iter()
            .enumerate()
        {
            let rx = apply_delay(&sig, 19 * k);
            let rx = ImpairmentChain::new(4.5).apply(&rx, rssi, 125e3, 70 + k as u64);
            let filtered = d.filter(&rx);
            for w in filtered.chunks_exact(ns) {
                for reference in [&d.up_ref, &d.down_ref] {
                    d.spectrum_into(w, reference, &mut buf);
                    let q = scan_exact(&buf, ns, 1).quality();
                    for gate in [3.5, q * (1.0 + 1e-6), q * (1.0 - 1e-6), q, 2.0, 6.0] {
                        assert_fast_search_is_exact(&buf, gate, &format!("{rssi} dBm"));
                        fast_decided += usize::from((q - gate).abs() > 1e-9 * gate);
                    }
                }
            }
        }
        assert!(fast_decided > 100);
    }

    #[test]
    fn streamed_aligned_walk_matches_filter_then_detect() {
        for (sf, osr) in [(7u8, 1usize), (8, 1), (7, 2)] {
            let m = Modulator::standard(sf, 125e3, osr, 1);
            let d = Demodulator::standard(sf, 125e3, osr, 1);
            let ns = d.config().samples_per_symbol();
            let syms: Vec<u16> = (0..6u16).map(|k| (37 * k + 5) % (1 << sf)).collect();
            let rx = m.modulate_symbols(&syms);
            let rx = ImpairmentChain::new(4.5).apply(&rx, -118.0, 125e3, sf as u64);
            let mut scratch = d.scratch();
            let mut units = Vec::new();
            for len in [0, 1, 6, 7, ns - 1, ns, ns + 7, 5 * ns + 3] {
                let x = &rx[..len];
                d.detect_aligned_with(x, &mut scratch, &mut units);
                let want: Vec<u16> = d
                    .filter(x)
                    .chunks_exact(ns)
                    .map(|w| d.detect_symbol(w).symbol)
                    .collect();
                assert_eq!(units, want, "SF{sf} OSR{osr}, {len} samples");
                // the error walk: the same windows, truncated ones lost
                let lost = syms.len() - want.len().min(syms.len());
                let flipped = want.iter().zip(&syms).filter(|(a, b)| a != b).count();
                assert_eq!(
                    d.symbol_errors_with(x, &syms, &mut scratch),
                    ((lost + flipped) as u64, syms.len() as u64),
                    "SF{sf} OSR{osr}, {len} samples"
                );
            }
        }
    }

    fn same_bits(a: &[Complex], b: &[Complex]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    #[test]
    fn settled_windows_are_the_exact_paths_windows_bit_for_bit() {
        // the window kernel a refused decision settles by, against the
        // whole-capture paths: every window of the stream walk, and the
        // framed search's windows at every offset against both chirps
        // (partial and all-padding windows included), on captures of
        // every length class
        for sf in [7u8, 8] {
            let m = Modulator::standard(sf, 125e3, 1, 1);
            let d = Demodulator::standard(sf, 125e3, 1, 1);
            let ns = d.config().samples_per_symbol();
            let syms: Vec<u16> = (0..5u16).map(|k| (53 * k + 9) % (1 << sf)).collect();
            let tx = m.modulate_symbols(&syms);
            let rx = ImpairmentChain::new(4.5).apply(&tx, -121.0, 125e3, sf as u64);
            let mut scratch = d.scratch();
            for len in [1, 6, 13, ns - 1, ns, ns + 9, 3 * ns + 5, 5 * ns] {
                let x = &rx[..len];
                // the stream walk, window by window
                let (mut fir, mut walk) = (d.fir.clone(), Vec::new());
                let windows = d.start_walk(x, &mut fir, &mut walk);
                for k in 0..windows {
                    d.aligned_spectrum(x, k, &mut fir, &mut walk);
                    d.exact_window_spectrum(x, k * ns, Chirp::Up, &mut scratch);
                    assert!(
                        same_bits(&scratch.buf, &walk),
                        "SF{sf}, {len} samples, window {k}"
                    );
                    assert_eq!(d.settle_aligned(x, k, &mut scratch), d.data_symbol(&walk));
                }
                // the framed search's windows
                let (mut filtered, mut buf) = (Vec::new(), Vec::new());
                d.filter_padded(x, &mut d.fir.clone(), &mut filtered);
                let mut exact = ExactWindows {
                    demod: &d,
                    filtered: &filtered,
                    buf: &mut buf,
                };
                for start in (0..=len).step_by(5).chain([len.saturating_sub(1), len]) {
                    // the kernel reads the capture at window_reads alone
                    let reads = d.window_reads(len, start);
                    let masked: Vec<Complex> = (0..len)
                        .map(|i| match reads.contains(&i) {
                            true => x[i],
                            false => Complex::new(f64::NAN, f64::NAN),
                        })
                        .collect();
                    for chirp in [Chirp::Up, Chirp::Down] {
                        let want = exact.spectrum(start, chirp).to_vec();
                        d.exact_window_spectrum(&masked, start, chirp, &mut scratch);
                        assert!(
                            same_bits(&scratch.buf, &want),
                            "SF{sf}, {len} samples, {chirp:?} window at {start}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn projected_walk_is_the_aligned_walk_and_its_bounds_hold() {
        // signal = a noisy capture, noise = a second draw: the signal's
        // spectra pick the aligned walk's symbols, and every bin of
        // either projection lies under its window bound
        for sf in [7u8, 9] {
            let m = Modulator::standard(sf, 125e3, 1, 1);
            let d = Demodulator::standard(sf, 125e3, 1, 1);
            let ns = d.config().samples_per_symbol();
            let syms: Vec<u16> = (0..5u16).map(|k| (53 * k + 3) % (1 << sf)).collect();
            let signal = m.modulate_symbols(&syms);
            let signal = ImpairmentChain::new(4.5).apply(&signal, -120.0, 125e3, 11);
            let noise: Vec<Complex> = noise(signal.len(), 12)
                .into_iter()
                .map(|z| z.scale(1e3))
                .collect();
            for len in [0, ns - 1, ns + 3, 4 * ns + 7, signal.len()] {
                let (x, n) = (&signal[..len], &noise[..len]);
                let mut units = Vec::new();
                d.detect_aligned_with(x, &mut d.scratch(), &mut units);
                let mut picked = Vec::new();
                d.project_aligned(x, n, &mut |w| {
                    picked.push(d.data_symbol(w.signal));
                    assert!(w.signal.iter().all(|v| v.abs() <= w.signal_bound));
                    assert!(w.noise.iter().all(|v| v.abs() <= w.noise_bound));
                });
                assert_eq!(picked, units, "SF{sf}, {len} samples");
            }
            // an impulse among window 0's last inputs: its filter tail
            // spills into window 1, whose own inputs are all zero, so
            // window 1's bound holds only by counting the FIR history
            let delay = d.scratch().fir.group_delay() as usize;
            let mut x = vec![Complex::ZERO; 3 * ns];
            x[ns + delay - 3] = Complex::new(0.6, 0.8);
            let zeros = vec![Complex::ZERO; x.len()];
            let mut k = 0;
            d.project_aligned(&x, &zeros, &mut |w| {
                let top = w.signal.iter().map(|v| v.abs()).fold(0.0, f64::max);
                assert!(k != 1 || top > 0.0, "SF{sf}: window 1 sees the tail");
                assert!(top <= w.signal_bound, "SF{sf}, window {k}");
                k += 1;
            });
        }
    }

    /// Reference SFD search without carried detections: four fresh
    /// dechirp/FFT detections per offset.
    fn find_sfd_uncached(
        d: &Demodulator,
        filtered: &[Complex],
        pos: usize,
        buf: &mut Vec<Complex>,
    ) -> Option<usize> {
        let ns = d.cfg.samples_per_symbol();
        let mut best: Option<(usize, f64)> = None;
        for j in 1..=d.frame_params.preamble_len + 4 {
            let start = pos + j * ns;
            if start + 2 * ns > filtered.len() {
                break;
            }
            let (w0, w1) = (
                &filtered[start..start + ns],
                &filtered[start + ns..start + 2 * ns],
            );
            let score = d.detect_with_buf(w0, &d.down_ref, buf).magnitude
                + d.detect_with_buf(w1, &d.down_ref, buf).magnitude
                - d.detect_with_buf(w0, &d.up_ref, buf).magnitude
                - d.detect_with_buf(w1, &d.up_ref, buf).magnitude;
            if best.map(|(_, s)| score > s).unwrap_or(true) {
                best = Some((start, score));
            }
        }
        let (sfd_start, score) = best?;
        (score > 0.0).then_some(sfd_start)
    }

    fn demodulate_uncached(d: &Demodulator, rx: &[Complex]) -> Option<DemodFrame> {
        let DemodScratch { fir, filtered, buf } = &mut d.scratch();
        d.filter_padded(rx, fir, filtered);
        let mut w = ExactWindows {
            demod: d,
            filtered,
            buf,
        };
        let Ok(pos) = d.find_preamble(&mut w);
        let sfd_start = find_sfd_uncached(d, filtered, pos?, buf)?;
        let Ok(frame) = d.decode_after_sfd(
            &mut ExactWindows {
                demod: d,
                filtered,
                buf,
            },
            sfd_start,
        );
        frame
    }

    #[test]
    fn cached_sfd_search_matches_uncached_reference() {
        let m = Modulator::standard(8, 125e3, 1, 1);
        let d = Demodulator::standard(8, 125e3, 1, 1);
        let sig = m.modulate(b"offset test");
        let mut decoded = 0;
        let mut check = |rx: &[Complex], what: &str| {
            let got = d.demodulate(rx);
            decoded += usize::from(got.is_some());
            assert_eq!(got, demodulate_uncached(&d, rx), "{what}");
        };
        for delay in [1usize, 17, 100, 255, 300] {
            check(&apply_delay(&sig, delay), &format!("delay {delay}"));
        }
        for (k, rssi) in [-100.0, -118.0, -122.0, -124.0, -126.0, -128.0, -132.0]
            .into_iter()
            .enumerate()
        {
            for trial in 0..3u64 {
                let rx = apply_delay(&sig, 37 * trial as usize);
                let seed = 60 + 10 * k as u64 + trial;
                let rx = ImpairmentChain::new(4.5).apply(&rx, rssi, 125e3, seed);
                check(&rx, &format!("{rssi} dBm, trial {trial}"));
            }
        }
        check(&noise(256 * 40, 3), "pure noise");
        assert!(decoded >= 10, "only {decoded} captures decoded");
    }

    #[test]
    fn direction_detector_works() {
        use tinysdr_dsp::chirp::{ChirpDirection, ChirpGenerator};
        let cfg = ChirpConfig::new(8, 125e3, 1);
        let d = Demodulator::standard(8, 125e3, 1, 1);
        let g = ChirpGenerator::new(cfg);
        assert_eq!(d.detect_direction(&g.upchirp(37)), ChirpDirection::Up);
        assert_eq!(d.detect_direction(&g.downchirp()), ChirpDirection::Down);
    }

    #[test]
    fn fec_earns_its_keep_under_noise() {
        // at a marginal SNR, CR 4/8 decodes packets CR 4/5 loses
        let payload = b"fec gain test payload";
        let rssi = -124.5;
        let mut ok = [0u32; 2];
        for (i, cr) in [1u8, 4].iter().enumerate() {
            let m = Modulator::standard(8, 125e3, 1, *cr);
            let d = Demodulator::standard(8, 125e3, 1, *cr);
            for trial in 0..30 {
                let sig = ImpairmentChain::new(4.5).apply(
                    &m.modulate(payload),
                    rssi,
                    125e3,
                    1000 + trial,
                );
                if let Some(f) = d.demodulate(&sig) {
                    if f.crc_ok && f.payload == payload {
                        ok[i] += 1;
                    }
                }
            }
        }
        assert!(
            ok[1] >= ok[0],
            "CR4/8 ({}) must beat CR4/5 ({})",
            ok[1],
            ok[0]
        );
    }
}
