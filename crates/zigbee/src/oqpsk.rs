//! O-QPSK modulation with half-sine pulse shaping and the
//! chip-correlation receiver (IEEE 802.15.4 §6.5, 2.4 GHz PHY).
//!
//! TX: each 4-bit symbol spreads to its 32-chip PN sequence
//! ([`crate::chips`]); even-indexed chips drive the I rail, odd-indexed
//! chips the Q rail, each as a half-sine pulse spanning two chip
//! periods, with the Q rail offset by one chip period — the classic
//! offset-QPSK/MSK structure, constant-envelope by construction, at
//! 2 Mchip/s.
//!
//! RX: noncoherent chip correlation. Each received symbol window is
//! correlated against the 16 reference chip waveforms (built by the
//! same shaper, so they carry the exact pulse overlap) and the largest
//! correlation magnitude wins — the DSSS despreading that buys the
//! 2.4 GHz PHY its processing gain.

use std::ops::Range;

use tinysdr_dsp::complex::{l2_norm, Complex};
use tinysdr_dsp::correlate::TemplateBank;
use tinysdr_rf::superpose::WindowProjection;

use crate::chips::{chip_sequence, CHIPS_PER_SYMBOL, CHIP_RATE};

/// Half-sine O-QPSK modulator at `spc` samples per chip.
#[derive(Debug, Clone)]
pub struct OqpskModulator {
    spc: usize,
    /// One half-sine pulse, `2·spc` samples: `sin(π·t / 2Tc)`.
    pulse: Vec<f64>,
}

impl OqpskModulator {
    /// New modulator at `spc ≥ 2` samples per chip (`spc = 2` is the
    /// AT86RF215's native 4 MS/s).
    pub fn new(spc: usize) -> Self {
        assert!(spc >= 2, "need at least 2 samples per chip");
        let n = 2 * spc;
        let pulse = (0..n)
            .map(|i| (std::f64::consts::PI * i as f64 / n as f64).sin())
            .collect();
        OqpskModulator { spc, pulse }
    }

    /// Samples per chip.
    pub fn spc(&self) -> usize {
        self.spc
    }

    /// Sampling rate, Hz.
    pub fn fs(&self) -> f64 {
        CHIP_RATE * self.spc as f64
    }

    /// Samples in one 32-chip symbol period.
    pub fn samples_per_symbol(&self) -> usize {
        CHIPS_PER_SYMBOL * self.spc
    }

    /// Modulate a chip stream (0/1, even length) into I/Q samples in a
    /// caller-owned buffer, with the I/Q rail intermediates held in
    /// `scratch` — zero steady-state allocation across a batch. Output
    /// length is `chips.len()·spc + spc` — the final Q half-sine extends
    /// one chip period past the last chip slot.
    pub fn modulate_chips_into(
        &self,
        chips: &[u8],
        scratch: &mut OqpskScratch,
        out: &mut Vec<Complex>,
    ) {
        self.chips_core(chips, &mut scratch.i_rail, &mut scratch.q_rail, out);
    }

    fn chips_core(
        &self,
        chips: &[u8],
        i_rail: &mut Vec<f64>,
        q_rail: &mut Vec<f64>,
        out: &mut Vec<Complex>,
    ) {
        assert!(
            chips.len().is_multiple_of(2),
            "O-QPSK chips come in I/Q pairs"
        );
        let spc = self.spc;
        let n = chips.len() * spc + spc;
        i_rail.clear();
        i_rail.resize(n, 0.0);
        q_rail.clear();
        q_rail.resize(n, 0.0);
        for (k, &c) in chips.iter().enumerate() {
            let a = if c != 0 { 1.0 } else { -1.0 };
            // chip k's half-sine starts at its own chip slot; even chips
            // ride I, odd chips ride Q (the built-in Tc offset)
            let start = k * spc;
            let rail: &mut Vec<f64> = if k % 2 == 0 { i_rail } else { q_rail };
            for (j, &p) in self.pulse.iter().enumerate() {
                rail[start + j] += a * p;
            }
        }
        out.clear();
        out.extend(
            i_rail
                .iter()
                .zip(q_rail.iter())
                .map(|(&re, &im)| Complex::new(re, im)),
        );
    }

    /// Modulate 4-bit data symbols (`0..16`) through DSSS spreading.
    pub fn modulate_symbols(&self, symbols: &[u8]) -> Vec<Complex> {
        let mut out = Vec::new();
        self.modulate_symbols_into(symbols, &mut OqpskScratch::default(), &mut out);
        out
    }

    /// [`OqpskModulator::modulate_symbols`] into a caller-owned buffer,
    /// with the chip expansion and I/Q rails held in `scratch`.
    /// Bit-identical to the allocating path.
    pub fn modulate_symbols_into(
        &self,
        symbols: &[u8],
        scratch: &mut OqpskScratch,
        out: &mut Vec<Complex>,
    ) {
        let OqpskScratch {
            chips,
            i_rail,
            q_rail,
        } = scratch;
        chips.clear();
        for &s in symbols {
            chips.extend_from_slice(&chip_sequence(s));
        }
        self.chips_core(chips, i_rail, q_rail, out);
    }
}

/// Reusable intermediates for the O-QPSK modulator's `*_into` paths:
/// the DSSS chip expansion and the two pulse-shaped rails. One per
/// worker thread (or batch) is enough.
#[derive(Debug, Clone, Default)]
pub struct OqpskScratch {
    chips: Vec<u8>,
    i_rail: Vec<f64>,
    q_rail: Vec<f64>,
}

impl OqpskScratch {
    /// Fresh scratch; buffers grow lazily.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Noncoherent chip-correlation receiver.
#[derive(Debug, Clone)]
pub struct OqpskDemodulator {
    spc: usize,
    /// The 16 single-symbol reference waveforms, as a lock-step
    /// correlation bank.
    templates: TemplateBank<16>,
    /// The largest template norm `maxₚ ‖tₚ‖₂`: by Cauchy–Schwarz a
    /// window's correlations are bounded by it times the window norm.
    template_norm: f64,
}

impl OqpskDemodulator {
    /// Receiver at `spc` samples per chip (must match the transmitter).
    pub fn new(spc: usize) -> Self {
        let m = OqpskModulator::new(spc);
        let templates: Vec<Vec<Complex>> = (0..16u8).map(|s| m.modulate_symbols(&[s])).collect();
        let template_norm = templates.iter().map(|t| l2_norm(t)).fold(0.0, f64::max);
        OqpskDemodulator {
            spc,
            templates: TemplateBank::new(&templates),
            template_norm,
        }
    }

    /// Samples per chip.
    pub fn spc(&self) -> usize {
        self.spc
    }

    /// Samples in one 32-chip symbol period.
    pub fn samples_per_symbol(&self) -> usize {
        CHIPS_PER_SYMBOL * self.spc
    }

    /// Detect one aligned symbol window: the index of the chip sequence
    /// with the largest `|correlation|` (noncoherent — invariant to the
    /// capture's carrier phase), plus that magnitude.
    /// Samples past the template length are ignored.
    pub fn detect_symbol(&self, window: &[Complex]) -> (u8, f64) {
        let (s, m) = self.templates.best(window);
        (s as u8, m)
    }

    /// Demodulate an *aligned* capture into 4-bit symbols, one per full
    /// 32-chip window.
    pub fn demodulate_symbols(&self, x: &[Complex]) -> Vec<u8> {
        let mut out = Vec::new();
        self.demodulate_symbols_into(x, &mut out);
        out
    }

    /// [`OqpskDemodulator::demodulate_symbols`] into a caller-owned
    /// buffer (cleared first) — allocation-free in steady state,
    /// bit-identical to the allocating path.
    pub fn demodulate_symbols_into(&self, x: &[Complex], out: &mut Vec<u8>) {
        let ns = self.samples_per_symbol();
        let n_syms = x.len() / ns;
        out.clear();
        out.reserve(n_syms);
        out.extend((0..n_syms).map(|i| self.decide_symbol(x, i)));
    }

    /// Symbol `i` of an aligned capture `x`: the chip sequence that
    /// correlates strongest with its window.
    pub(crate) fn decide_symbol(&self, x: &[Complex], i: usize) -> u8 {
        // lint: allow(unchecked-index, window() clamps to x.len())
        self.detect_symbol(&x[self.window(i, x.len())]).0
    }

    /// Samples of symbol window `i` in a capture of `len` samples: the
    /// symbol period plus the half-chip spill-over past it when the
    /// capture still has it — the last Q pulse carries real symbol
    /// energy.
    pub(crate) fn window(&self, i: usize, len: usize) -> Range<usize> {
        let ns = self.samples_per_symbol();
        i * ns..((i + 1) * ns + self.spc).min(len)
    }

    /// The windows of [`OqpskDemodulator::demodulate_symbols_into`] over
    /// a signal and a noise vector of equal length in lock step, handing
    /// `each` the window's 16 template correlations of each and their
    /// bounds, `maxₚ ‖tₚ‖₂·‖x‖₂` over the window (and
    /// `maxₚ ‖tₚ‖₂·√(window length)` on a residual). Correlation is linear,
    /// so the correlations of `g·signal + noise` are `g·S + N` up to
    /// rounding.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub(crate) fn project_symbols(
        &self,
        signal: &[Complex],
        noise: &[Complex],
        each: &mut dyn FnMut(WindowProjection<'_>),
    ) {
        assert_eq!(signal.len(), noise.len(), "signal and noise must align");
        for i in 0..signal.len() / self.samples_per_symbol() {
            let w = self.window(i, signal.len());
            let (s, n) = (&signal[w.clone()], &noise[w]);
            each(WindowProjection {
                signal: &self.templates.correlations(s),
                noise: &self.templates.correlations(n),
                signal_bound: self.template_norm * l2_norm(s),
                noise_bound: self.template_norm * l2_norm(n),
                residual_gain: self.template_norm * (s.len() as f64).sqrt(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tinysdr_rf::impairments::ImpairmentChain;

    #[test]
    fn a_settled_symbol_reads_its_window_alone() {
        // the kernel a refused window is settled by: each symbol from a
        // capture that holds only its window (NaN elsewhere) equals the
        // whole-capture demodulation's, truncated captures included
        let (m, d) = (OqpskModulator::new(2), OqpskDemodulator::new(2));
        let tx = m.modulate_symbols(&random_symbols(12, 4));
        let rx = ImpairmentChain::new(6.0).apply(&tx, -97.0, 4e6, 4);
        for len in [rx.len(), rx.len() - 1, 3 * 64 + 1, 64] {
            let x = &rx[..len];
            for (i, &symbol) in d.demodulate_symbols(x).iter().enumerate() {
                let reads = d.window(i, len);
                let masked: Vec<Complex> = (0..len)
                    .map(|k| match reads.contains(&k) {
                        true => x[k],
                        false => Complex::new(f64::NAN, f64::NAN),
                    })
                    .collect();
                assert_eq!(
                    d.decide_symbol(&masked, i),
                    symbol,
                    "{len} samples, symbol {i}"
                );
            }
        }
    }

    fn random_symbols(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..16u8)).collect()
    }

    #[test]
    fn waveform_length_and_rates() {
        let m = OqpskModulator::new(2);
        assert_eq!(m.fs(), 4e6);
        assert_eq!(m.samples_per_symbol(), 64);
        let sig = m.modulate_symbols(&[0, 1, 2]);
        assert_eq!(sig.len(), 3 * 64 + 2);
    }

    #[test]
    fn envelope_is_constant_in_steady_state() {
        // MSK property: after the first chip period and before the last,
        // |s|² = sin² + cos² = 1
        let m = OqpskModulator::new(4);
        let sig = m.modulate_symbols(&random_symbols(8, 3));
        let spc = 4;
        for z in &sig[spc..sig.len() - spc] {
            assert!((z.abs() - 1.0).abs() < 1e-9, "|s| = {}", z.abs());
        }
    }

    #[test]
    fn into_variants_are_bit_identical() {
        let m = OqpskModulator::new(2);
        let d = OqpskDemodulator::new(2);
        let mut scratch = OqpskScratch::new();
        let mut wave = Vec::new();
        let mut rx = Vec::new();
        // reuse scratch across streams of different lengths
        for (n, seed) in [(16usize, 3u64), (64, 5), (7, 8)] {
            let syms = random_symbols(n, seed);
            m.modulate_symbols_into(&syms, &mut scratch, &mut wave);
            assert_eq!(wave, m.modulate_symbols(&syms), "{n} symbols");
            d.demodulate_symbols_into(&wave, &mut rx);
            assert_eq!(rx, d.demodulate_symbols(&wave), "{n} symbols");
        }
        // raw chip path too: the dirty reused scratch and buffer equal
        // fresh ones
        let chips = [1u8, 0, 0, 1, 1, 1, 0, 0];
        m.modulate_chips_into(&chips, &mut scratch, &mut wave);
        let mut fresh = Vec::new();
        m.modulate_chips_into(&chips, &mut OqpskScratch::new(), &mut fresh);
        assert_eq!(wave, fresh);
    }

    /// Today's `detect_symbol`, one serial accumulation per template:
    /// the reference the lock-step bank must reproduce.
    fn detect_per_template(templates: &[Vec<Complex>], window: &[Complex]) -> (u8, f64) {
        let mut best = (0u8, f64::MIN);
        for (s, t) in templates.iter().enumerate() {
            let mut c = Complex::ZERO;
            for (&x, &tv) in window.iter().zip(t) {
                c += x * tv.conj();
            }
            let m = c.norm_sqr();
            if m > best.1 {
                best = (s as u8, m);
            }
        }
        best
    }

    #[test]
    fn lock_step_correlator_matches_the_per_template_loop() {
        for spc in [2usize, 4] {
            let m = OqpskModulator::new(spc);
            let d = OqpskDemodulator::new(spc);
            let templates: Vec<Vec<Complex>> =
                (0..16u8).map(|s| m.modulate_symbols(&[s])).collect();
            let ns = d.samples_per_symbol();
            let clean = m.modulate_symbols(&random_symbols(24, spc as u64));
            for (k, rssi) in [-90.0, -100.0, -106.0, -115.0].into_iter().enumerate() {
                let sig = ImpairmentChain::new(10.0).apply(&clean, rssi, m.fs(), 50 + k as u64);
                // every window, with its spill-over, without it (the
                // capture ends on the symbol boundary) and part of it
                for i in 0..24 {
                    for end in [(i + 1) * ns, (i + 1) * ns + 1, (i + 1) * ns + spc] {
                        let w = &sig[i * ns..end.min(sig.len())];
                        let (sym, mag) = d.detect_symbol(w);
                        let (want_sym, want_mag) = detect_per_template(&templates, w);
                        assert_eq!(sym, want_sym, "spc {spc}, {rssi} dBm, window {i}..{end}");
                        assert_eq!(mag.to_bits(), want_mag.to_bits(), "spc {spc}, {rssi} dBm");
                    }
                }
                // a capture cut on a symbol boundary: the final window
                // has no spill-over
                let cut = &sig[..24 * ns];
                let want: Vec<u8> = (0..24)
                    .map(|i| {
                        let end = ((i + 1) * ns + spc).min(cut.len());
                        detect_per_template(&templates, &cut[i * ns..end]).0
                    })
                    .collect();
                assert_eq!(d.demodulate_symbols(cut), want, "spc {spc}, {rssi} dBm");
            }
        }
    }

    #[test]
    fn projected_windows_are_the_demodulators_and_their_bounds_hold() {
        let m = OqpskModulator::new(2);
        let d = OqpskDemodulator::new(2);
        let ns = d.samples_per_symbol();
        let chain = ImpairmentChain::new(10.0);
        let signal = chain.apply(
            &m.modulate_symbols(&random_symbols(6, 21)),
            -104.0,
            m.fs(),
            3,
        );
        // a silent waveform's capture is the noise alone
        let noise = chain.apply(&vec![Complex::ZERO; signal.len()], 0.0, m.fs(), 4);
        // with and without the final spill-over, and a short capture
        for len in [ns - 1, 3 * ns, 3 * ns + 1, signal.len()] {
            let (x, n) = (&signal[..len], &noise[..len]);
            let mut picked = Vec::new();
            d.project_symbols(x, n, &mut |w| {
                let s = w.signal;
                let best = (0..s.len()).fold(0, |b, p| {
                    if s[p].norm_sqr() > s[b].norm_sqr() {
                        p
                    } else {
                        b
                    }
                });
                picked.push(best as u8);
                assert!(s.iter().all(|v| v.abs() <= w.signal_bound));
                assert!(w.noise.iter().all(|v| v.abs() <= w.noise_bound));
            });
            assert_eq!(picked, d.demodulate_symbols(x), "{len} samples");
        }
    }

    #[test]
    fn clean_loopback_recovers_symbols() {
        let m = OqpskModulator::new(2);
        let d = OqpskDemodulator::new(2);
        let syms = random_symbols(64, 7);
        let rx = d.demodulate_symbols(&m.modulate_symbols(&syms));
        assert_eq!(rx, syms);
    }

    #[test]
    fn loopback_survives_a_carrier_phase_rotation() {
        // noncoherent detection: a constant phase offset must not matter
        let m = OqpskModulator::new(2);
        let d = OqpskDemodulator::new(2);
        let syms = random_symbols(32, 9);
        let rot = Complex::from_angle(1.1);
        let sig: Vec<Complex> = m
            .modulate_symbols(&syms)
            .into_iter()
            .map(|z| z * rot)
            .collect();
        assert_eq!(d.demodulate_symbols(&sig), syms);
    }

    #[test]
    fn loopback_at_high_snr_is_clean() {
        let m = OqpskModulator::new(2);
        let d = OqpskDemodulator::new(2);
        let syms = random_symbols(128, 11);
        let sig = ImpairmentChain::new(4.5).apply(&m.modulate_symbols(&syms), -70.0, m.fs(), 5);
        assert_eq!(d.demodulate_symbols(&sig), syms);
    }

    #[test]
    fn ser_transitions_with_rssi() {
        // DSSS processing gain: clean at −90 dBm, chance-level deep
        // below the noise floor
        let m = OqpskModulator::new(2);
        let d = OqpskDemodulator::new(2);
        let syms = random_symbols(256, 13);
        let base = m.modulate_symbols(&syms);
        let ser = |rssi: f64, seed: u64| {
            let sig = ImpairmentChain::new(10.0).apply(&base, rssi, m.fs(), seed);
            let rx = d.demodulate_symbols(&sig);
            rx.iter().zip(&syms).filter(|(a, b)| a != b).count() as f64 / syms.len() as f64
        };
        assert_eq!(ser(-90.0, 1), 0.0, "clean at -90 dBm");
        assert!(ser(-115.0, 2) > 0.5, "chance-level far below the floor");
    }
}
