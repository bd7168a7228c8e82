//! LoRa chirp generation with the FPGA's squared-phase-accumulator
//! structure.
//!
//! LoRa modulates data onto Chirp Spread Spectrum (CSS) symbols: a symbol
//! carrying value `s ∈ [0, 2^SF)` is the base upchirp cyclically shifted by
//! `s` chips (paper §4.1). The frequency of an upchirp sweeps linearly from
//! `-BW/2` to `+BW/2` over the symbol, wrapping once for a shifted symbol.
//!
//! Two generators are provided:
//!
//! * [`ChirpGenerator`] — the hardware-faithful path: a 32-bit phase
//!   accumulator whose per-sample increment itself increments linearly
//!   ("squared phase accumulator"), with samples drawn from the quantized
//!   [`SinCosLut`]. This is the structure the paper implements in Verilog.
//! * [`ideal_chirp`] — a double-precision reference used by tests and by
//!   the SX1276 comparator model.

use crate::complex::Complex;
use crate::nco::SinCosLut;

/// Chirp sweep direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChirpDirection {
    /// Frequency increases with time (data symbols, preamble).
    Up,
    /// Frequency decreases with time (start-of-frame delimiter).
    Down,
}

/// Static description of one chirp configuration `(SF, BW, OSR)`.
///
/// `OSR` is the integer oversampling ratio of the sample stream relative to
/// the chip rate: the radio samples at `fs = OSR · BW`. The concurrent
/// receiver (§6) runs decoders with different `(SF, BW)` on one stream, so
/// each decoder gets its own OSR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChirpConfig {
    /// Spreading factor, 6..=12 per the LoRa specification.
    pub sf: u8,
    /// Bandwidth in Hz (7.8125 kHz .. 500 kHz).
    pub bw: f64,
    /// Integer oversampling ratio (`fs = osr · bw`), at least 1.
    pub osr: usize,
}

impl ChirpConfig {
    /// Construct and validate a configuration.
    ///
    /// # Panics
    /// Panics if `sf` is outside 6..=12, `bw` is non-positive, or `osr == 0`.
    pub fn new(sf: u8, bw: f64, osr: usize) -> Self {
        assert!((6..=12).contains(&sf), "LoRa SF must be 6..=12, got {sf}");
        assert!(bw > 0.0, "bandwidth must be positive");
        assert!(osr >= 1, "oversampling ratio must be >= 1");
        ChirpConfig { sf, bw, osr }
    }

    /// Chips per symbol, `2^SF`.
    #[inline]
    pub fn n_chips(&self) -> usize {
        1 << self.sf
    }

    /// Samples per symbol, `2^SF · OSR`.
    #[inline]
    pub fn samples_per_symbol(&self) -> usize {
        self.n_chips() * self.osr
    }

    /// Sampling rate `fs = OSR · BW` in Hz.
    #[inline]
    pub fn fs(&self) -> f64 {
        self.bw * self.osr as f64
    }

    /// Chirp slope `BW² / 2^SF` in Hz/s — the quantity that must differ for
    /// two transmissions to be orthogonal (paper §6).
    #[inline]
    pub fn chirp_slope(&self) -> f64 {
        self.bw * self.bw / self.n_chips() as f64
    }

    /// Raw PHY bit rate `SF · BW / 2^SF` in bit/s (before coding), the
    /// formula quoted in the paper's LoRa primer.
    #[inline]
    pub fn phy_bit_rate_bps(&self) -> f64 {
        self.sf as f64 * self.bw / self.n_chips() as f64
    }

    /// `true` if two configurations are mutually orthogonal (different
    /// chirp slopes).
    pub fn is_orthogonal_to(&self, other: &ChirpConfig) -> bool {
        (self.chirp_slope() - other.chirp_slope()).abs() > 1e-6
    }
}

/// Hardware-faithful chirp generator (squared phase accumulator + LUT).
#[derive(Debug, Clone)]
pub struct ChirpGenerator {
    cfg: ChirpConfig,
    lut: SinCosLut,
    /// Phase-step increment per sample, Q32 cycles/sample²: `1/(N·OSR²)`.
    dstep: i64,
    /// Phase step corresponding to the full bandwidth, Q32 cycles/sample.
    bw_step: i64,
}

const Q32: f64 = 4294967296.0; // 2^32

impl ChirpGenerator {
    /// Build a generator for one `(SF, BW, OSR)` configuration.
    pub fn new(cfg: ChirpConfig) -> Self {
        // frequency in cycles/sample spans [-1/(2·OSR), +1/(2·OSR));
        // slope in cycles/sample² is 1/(N·OSR²).
        let dstep = (Q32 / (cfg.n_chips() as f64 * (cfg.osr * cfg.osr) as f64)).round() as i64;
        let bw_step = (Q32 / cfg.osr as f64).round() as i64;
        ChirpGenerator {
            cfg,
            lut: SinCosLut::new(),
            dstep,
            bw_step,
        }
    }

    /// The configuration this generator was built for.
    #[inline]
    pub fn config(&self) -> &ChirpConfig {
        &self.cfg
    }

    /// Generate the chirp symbol carrying `symbol` (cyclic shift), in the
    /// given direction. `symbol` must be `< 2^SF`.
    ///
    /// Downchirps ignore the cyclic shift only in the sense that the LoRa
    /// SFD always uses symbol 0; a shifted downchirp is still generated
    /// faithfully if requested.
    pub fn chirp(&self, symbol: u32, dir: ChirpDirection) -> Vec<Complex> {
        let mut out = Vec::with_capacity(self.cfg.samples_per_symbol());
        self.chirp_into(symbol, dir, &mut out);
        out
    }

    /// [`ChirpGenerator::chirp`] into a caller-owned buffer (cleared
    /// first) — the allocation-free path the batched modulator drives
    /// once per symbol. Bit-identical to the allocating version.
    pub fn chirp_into(&self, symbol: u32, dir: ChirpDirection, out: &mut Vec<Complex>) {
        out.clear();
        self.append_chirp(symbol, dir, out);
    }

    /// Append the chirp carrying `symbol` to `out` without clearing it —
    /// the building block for whole-frame modulation into one buffer.
    pub fn append_chirp(&self, symbol: u32, dir: ChirpDirection, out: &mut Vec<Complex>) {
        assert!(
            (symbol as usize) < self.cfg.n_chips(),
            "symbol {symbol} out of range for SF{}",
            self.cfg.sf
        );
        let ns = self.cfg.samples_per_symbol();
        out.reserve(ns);

        // initial frequency in Q32 cycles/sample
        let half_bw = self.bw_step / 2;
        let sym_off = (symbol as i64) * self.bw_step / self.cfg.n_chips() as i64;
        let (mut step, dstep) = match dir {
            ChirpDirection::Up => (-half_bw + sym_off, self.dstep),
            ChirpDirection::Down => (half_bw - sym_off, -self.dstep),
        };

        let mut phase: u32 = 0;
        for _ in 0..ns {
            out.push(self.lut.lookup(phase));
            phase = phase.wrapping_add(step as u32); // two's-complement add
            step += dstep;
            // wrap instantaneous frequency back into [-BW/2, BW/2)
            if step >= half_bw {
                step -= self.bw_step;
            } else if step < -half_bw {
                step += self.bw_step;
            }
        }
    }

    /// Convenience: upchirp carrying `symbol`.
    pub fn upchirp(&self, symbol: u32) -> Vec<Complex> {
        self.chirp(symbol, ChirpDirection::Up)
    }

    /// Convenience: base (symbol-0) downchirp, used for dechirping and the
    /// SFD.
    pub fn downchirp(&self) -> Vec<Complex> {
        self.chirp(0, ChirpDirection::Down)
    }

    /// Conjugate of the base upchirp — the dechirping reference for
    /// demodulation (multiplying by this is identical to multiplying by the
    /// base downchirp but makes intent explicit).
    pub fn dechirp_reference(&self) -> Vec<Complex> {
        self.upchirp(0).into_iter().map(|z| z.conj()).collect()
    }

    /// Generate a fractional (length-scaled) downchirp, used for the
    /// 2.25-symbol start-of-frame delimiter. `num`/`den` scale the length.
    pub fn fractional_downchirp(&self, num: usize, den: usize) -> Vec<Complex> {
        let full = self.downchirp();
        let n = full.len() * num / den;
        full[..n].to_vec()
    }
}

/// Dechirp a symbol window against a reference: element-wise
/// `window[i] · reference[i]` into a caller-owned buffer (cleared
/// first). This is the paper's "Complex Multiplier unit" (Fig. 6b)
/// as an allocation-free kernel: the demodulator reuses one scratch
/// buffer per symbol instead of collecting a fresh `Vec` each time.
/// Bit-identical to [`crate::complex::elementwise_mul`] on equal-length
/// inputs; trailing reference samples beyond the window are ignored.
pub fn dechirp_into(window: &[Complex], reference: &[Complex], out: &mut Vec<Complex>) {
    out.clear();
    out.extend(window.iter().zip(reference).map(|(&a, &b)| a * b));
}

/// Double-precision reference chirp (no quantization), for tests and the
/// SX1276 comparator model.
pub fn ideal_chirp(cfg: &ChirpConfig, symbol: u32, dir: ChirpDirection) -> Vec<Complex> {
    assert!((symbol as usize) < cfg.n_chips());
    let ns = cfg.samples_per_symbol();
    let fs = cfg.fs();
    let n = cfg.n_chips() as f64;
    let slope = cfg.chirp_slope(); // Hz/s
    let f0 = -cfg.bw / 2.0 + symbol as f64 * cfg.bw / n;
    let mut out = Vec::with_capacity(ns);
    let mut phase = 0.0f64;
    let mut f = f0;
    let dt = 1.0 / fs;
    for _ in 0..ns {
        out.push(Complex::from_angle(std::f64::consts::TAU * phase));
        let df = match dir {
            ChirpDirection::Up => slope * dt,
            ChirpDirection::Down => -slope * dt,
        };
        phase += f * dt;
        f += df;
        if f >= cfg.bw / 2.0 {
            f -= cfg.bw;
        } else if f < -cfg.bw / 2.0 {
            f += cfg.bw;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{fft, peak_bin};

    /// Dechirp-and-FFT a symbol, returning the winning bin folded to
    /// `0..2^SF` (the OSR images are combined as the real demodulator
    /// does).
    fn detect(cfg: &ChirpConfig, sig: &[Complex]) -> usize {
        let gen = ChirpGenerator::new(*cfg);
        let dref = gen.dechirp_reference();
        let prod: Vec<Complex> = sig.iter().zip(&dref).map(|(&a, &b)| a * b).collect();
        let spec = fft(&prod);
        let n = cfg.n_chips();
        let ns = cfg.samples_per_symbol();
        let mut best = (0usize, f64::MIN);
        for s in 0..n {
            let mut mag = spec[s].abs();
            if cfg.osr > 1 {
                mag += spec[(ns - n + s) % ns].abs();
            }
            if mag > best.1 {
                best = (s, mag);
            }
        }
        best.0
    }

    #[test]
    fn all_symbols_decode_osr1() {
        let cfg = ChirpConfig::new(7, 125e3, 1);
        let gen = ChirpGenerator::new(cfg);
        for s in (0..128).step_by(7) {
            let sig = gen.upchirp(s);
            assert_eq!(detect(&cfg, &sig), s as usize, "symbol {s}");
        }
    }

    #[test]
    fn all_symbols_decode_osr4() {
        let cfg = ChirpConfig::new(8, 125e3, 4);
        let gen = ChirpGenerator::new(cfg);
        for s in (0..256).step_by(17) {
            let sig = gen.upchirp(s);
            assert_eq!(detect(&cfg, &sig), s as usize, "symbol {s}");
        }
    }

    #[test]
    fn every_sf_round_trips_symbol_zero_and_max() {
        for sf in 6..=12u8 {
            let cfg = ChirpConfig::new(sf, 125e3, 1);
            let gen = ChirpGenerator::new(cfg);
            let n = cfg.n_chips() as u32;
            for s in [0, 1, n / 2, n - 1] {
                let sig = gen.upchirp(s);
                assert_eq!(detect(&cfg, &sig), s as usize, "SF{sf} symbol {s}");
            }
        }
    }

    #[test]
    fn chirp_has_unit_amplitude() {
        let cfg = ChirpConfig::new(8, 125e3, 2);
        let gen = ChirpGenerator::new(cfg);
        for z in gen.upchirp(100) {
            assert!((z.abs() - 1.0).abs() < 2e-3);
        }
    }

    #[test]
    fn downchirp_is_near_conjugate_of_upchirp() {
        let cfg = ChirpConfig::new(7, 250e3, 1);
        let gen = ChirpGenerator::new(cfg);
        let up = gen.upchirp(0);
        let down = gen.downchirp();
        // up · down should concentrate at DC after... actually up·up* = 1;
        // up vs conj(down): equal up to LUT quantization
        for (u, d) in up.iter().zip(&down) {
            assert!((*u - d.conj()).abs() < 0.02);
        }
    }

    #[test]
    fn quantized_matches_ideal_chirp() {
        let cfg = ChirpConfig::new(8, 125e3, 1);
        let gen = ChirpGenerator::new(cfg);
        let q = gen.upchirp(42);
        let i = ideal_chirp(&cfg, 42, ChirpDirection::Up);
        // correlation between quantized and ideal should be ~1
        let corr: Complex = q.iter().zip(&i).map(|(&a, &b)| a * b.conj()).sum();
        let rho = corr.abs() / q.len() as f64;
        assert!(rho > 0.99, "correlation {rho}");
    }

    #[test]
    fn chirp_into_matches_chirp_bitwise() {
        let cfg = ChirpConfig::new(8, 125e3, 2);
        let gen = ChirpGenerator::new(cfg);
        let mut buf = Vec::new();
        for (s, dir) in [
            (0u32, ChirpDirection::Up),
            (100, ChirpDirection::Up),
            (255, ChirpDirection::Down),
        ] {
            gen.chirp_into(s, dir, &mut buf);
            assert_eq!(buf, gen.chirp(s, dir), "symbol {s}");
        }
        // append composes whole frames identically to concatenation
        let mut frame = Vec::new();
        gen.append_chirp(3, ChirpDirection::Up, &mut frame);
        gen.append_chirp(7, ChirpDirection::Up, &mut frame);
        let mut want = gen.upchirp(3);
        want.extend(gen.upchirp(7));
        assert_eq!(frame, want);
    }

    #[test]
    fn dechirp_into_matches_elementwise_mul() {
        let cfg = ChirpConfig::new(7, 125e3, 1);
        let gen = ChirpGenerator::new(cfg);
        let sig = gen.upchirp(42);
        let dref = gen.dechirp_reference();
        let mut out = Vec::new();
        dechirp_into(&sig, &dref, &mut out);
        assert_eq!(out, crate::complex::elementwise_mul(&sig, &dref));
    }

    #[test]
    fn fractional_sfd_length() {
        let cfg = ChirpConfig::new(9, 125e3, 1);
        let gen = ChirpGenerator::new(cfg);
        let sfd = gen.fractional_downchirp(1, 4); // quarter symbol
        assert_eq!(sfd.len(), cfg.samples_per_symbol() / 4);
    }

    #[test]
    fn phy_bit_rate_formula() {
        // SF7 BW125: 125e3/128*7 ≈ 6.84 kbps (paper's rate formula)
        let cfg = ChirpConfig::new(7, 125e3, 1);
        assert!((cfg.phy_bit_rate_bps() - 6835.94).abs() < 1.0);
        // SF12 at BW125 ≈ 366 bps raw
        let cfg = ChirpConfig::new(12, 125e3, 1);
        assert!((cfg.phy_bit_rate_bps() - 366.2).abs() < 1.0);
    }

    #[test]
    fn orthogonality_predicate() {
        let a = ChirpConfig::new(8, 125e3, 4);
        let b = ChirpConfig::new(8, 250e3, 2);
        let c = ChirpConfig::new(8, 125e3, 1);
        assert!(a.is_orthogonal_to(&b)); // different slope
        assert!(!a.is_orthogonal_to(&c)); // same SF/BW, OSR irrelevant
                                          // SF10/BW250 vs SF8/BW125: slope 250²/1024 vs 125²/256 = 61.0 both!
        let d = ChirpConfig::new(10, 250e3, 1);
        let e = ChirpConfig::new(8, 125e3, 1);
        assert!(
            !d.is_orthogonal_to(&e),
            "equal-slope configs are NOT orthogonal"
        );
    }

    #[test]
    fn cross_bw_energy_spreads() {
        // a BW250 chirp dechirped with a BW125 reference must not
        // concentrate: peak bin carries a small fraction of total energy.
        let cfg_a = ChirpConfig::new(8, 125e3, 4); // fs = 500 kHz
        let cfg_b = ChirpConfig::new(8, 250e3, 2); // fs = 500 kHz
        let gen_b = ChirpGenerator::new(cfg_b);
        let interferer = gen_b.upchirp(99);
        // truncate/extend to one cfg_a symbol worth of samples
        let ns = cfg_a.samples_per_symbol();
        let mut sig = Vec::with_capacity(ns);
        while sig.len() < ns {
            sig.extend_from_slice(&interferer);
        }
        sig.truncate(ns);
        let gen_a = ChirpGenerator::new(cfg_a);
        let dref = gen_a.dechirp_reference();
        let prod: Vec<Complex> = sig.iter().zip(&dref).map(|(&a, &b)| a * b).collect();
        let spec = fft(&prod);
        let total: f64 = spec.iter().map(|z| z.norm_sqr()).sum();
        let (_, peak) = peak_bin(&spec).unwrap();
        let frac = peak * peak / total;
        assert!(
            frac < 0.05,
            "interferer concentrated {frac} of energy in one bin"
        );
    }
}
