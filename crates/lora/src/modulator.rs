//! The LoRa modulator (paper Fig. 6a).
//!
//! "The modulator begins with the Packet Generator module which reads
//! data either from FPGA memory for transmitting fixed packets or from
//! the MCU, as well as LoRa configuration parameters such as SF, coding
//! and BW. This module determines each symbol value and its
//! corresponding cyclic-shift. Next, the Packet Generator sends these
//! parameters along with the symbol values to the Chirp Generator
//! module, which generates the I/Q samples of each chirp symbol in the
//! packet using a squared phase accumulator and two lookup tables."
//!
//! The modulator here is exactly that: [`crate::packet::Frame`] plays
//! the Packet Generator; [`ChirpGenerator`] (squared phase accumulator +
//! quantized LUT) plays the Chirp Generator; the output is the sample
//! stream handed to the I/Q serializer. The same frame builder also
//! stands in for the SX1276 comparator of Figs. 10 and 11, fed by ideal
//! (unquantized) chirps instead ([`Transmitter::Sx1276`]).

use tinysdr_dsp::chirp::{ideal_chirp, ChirpConfig, ChirpDirection, ChirpGenerator};
use tinysdr_dsp::complex::Complex;

use crate::packet::{Frame, FrameParams};
use crate::phy::CodeParams;

/// Which transmitter's chirps a [`Modulator`] emits; both build the
/// same frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transmitter {
    /// TinySDR's FPGA chirp generator: squared phase accumulator and
    /// quantized LUT.
    #[default]
    TinySdr,
    /// Ideal (unquantized) chirps: the SX1276 comparator transmitter of
    /// Fig. 10 and the signal source of Fig. 11.
    Sx1276,
}

/// The modulator: one instance per (SF, BW, OSR) configuration.
#[derive(Debug, Clone)]
pub struct Modulator {
    chirp_cfg: ChirpConfig,
    generator: ChirpGenerator,
    frame_params: FrameParams,
    transmitter: Transmitter,
}

impl Modulator {
    /// Build a modulator.
    ///
    /// # Panics
    /// Panics if the frame's SF and the chirp configuration's SF differ.
    pub fn new(chirp_cfg: ChirpConfig, frame_params: FrameParams) -> Self {
        assert_eq!(
            chirp_cfg.sf, frame_params.code.sf,
            "chirp and code SF must agree"
        );
        Modulator {
            chirp_cfg,
            generator: ChirpGenerator::new(chirp_cfg),
            frame_params,
            transmitter: Transmitter::TinySdr,
        }
    }

    /// Builder: emit `transmitter`'s chirps (default
    /// [`Transmitter::TinySdr`]).
    pub fn with_transmitter(mut self, transmitter: Transmitter) -> Self {
        self.transmitter = transmitter;
        self
    }

    /// Convenience: standard frame around a payload at `(sf, bw, osr)`.
    pub fn standard(sf: u8, bw: f64, osr: usize, cr: u8) -> Self {
        let chirp = ChirpConfig::new(sf, bw, osr);
        let code = CodeParams::new(sf, cr);
        Modulator::new(chirp, FrameParams::new(code))
    }

    /// Frame parameters.
    pub fn frame_params(&self) -> &FrameParams {
        &self.frame_params
    }

    /// Modulate payload bytes into a full frame of I/Q samples.
    pub fn modulate(&self, payload: &[u8]) -> Vec<Complex> {
        let frame = Frame::from_payload(payload, self.frame_params);
        self.modulate_frame(&frame)
    }

    /// Modulate a pre-built frame.
    pub fn modulate_frame(&self, frame: &Frame) -> Vec<Complex> {
        let mut out = Vec::new();
        self.modulate_frame_into(frame, &mut out);
        out
    }

    /// [`Modulator::modulate_frame`] into a caller-owned buffer (cleared
    /// first): every chirp is appended directly to `out`, so a batch of
    /// frames reuses one allocation. Bit-identical to the allocating
    /// path.
    pub fn modulate_frame_into(&self, frame: &Frame, out: &mut Vec<Complex>) {
        let spsym = self.chirp_cfg.samples_per_symbol();
        let total =
            (self.frame_params.frame_symbols(frame.symbols.len()) * spsym as f64).ceil() as usize;
        out.clear();
        out.reserve(total);

        // preamble: zero-shift upchirps
        for _ in 0..self.frame_params.preamble_len {
            self.append_chirp(0, ChirpDirection::Up, out);
        }
        // sync word: two upchirps
        for &s in &self.frame_params.sync_word {
            self.append_chirp(s as u32, ChirpDirection::Up, out);
        }
        // SFD: 2.25 downchirps (the quarter symbol is a truncated full
        // downchirp — the same samples `fractional_downchirp(1, 4)` keeps)
        self.append_chirp(0, ChirpDirection::Down, out);
        self.append_chirp(0, ChirpDirection::Down, out);
        let sfd_tail = out.len();
        self.append_chirp(0, ChirpDirection::Down, out);
        out.truncate(sfd_tail + spsym / 4);
        // payload symbols
        for &s in &frame.symbols {
            self.append_chirp(s as u32, ChirpDirection::Up, out);
        }
    }

    /// Modulate a bare symbol stream (no preamble/SFD) — the §6
    /// concurrent-reception experiment transmits "random chirp symbols"
    /// continuously.
    pub fn modulate_symbols(&self, symbols: &[u16]) -> Vec<Complex> {
        let mut out = Vec::new();
        self.modulate_symbols_into(symbols, &mut out);
        out
    }

    /// [`Modulator::modulate_symbols`] into a caller-owned buffer
    /// (cleared first). Bit-identical to the allocating path.
    pub fn modulate_symbols_into(&self, symbols: &[u16], out: &mut Vec<Complex>) {
        out.clear();
        out.reserve(symbols.len() * self.chirp_cfg.samples_per_symbol());
        for &s in symbols {
            self.append_chirp(s as u32, ChirpDirection::Up, out);
        }
    }

    /// Samples in one symbol period.
    pub fn samples_per_symbol(&self) -> usize {
        self.chirp_cfg.samples_per_symbol()
    }

    /// Append one chirp from the configured transmitter.
    fn append_chirp(&self, symbol: u32, dir: ChirpDirection, out: &mut Vec<Complex>) {
        match self.transmitter {
            Transmitter::TinySdr => self.generator.append_chirp(symbol, dir, out),
            Transmitter::Sx1276 => out.extend(ideal_chirp(&self.chirp_cfg, symbol, dir)),
        }
    }
}

/// A single-tone "modulator" — the Fig. 8 experiment ("we implement a
/// single-tone modulator on the FPGA that generates the appropriate I/Q
/// samples and streams them over LVDS").
pub fn single_tone(freq_offset_hz: f64, fs: f64, n: usize) -> Vec<Complex> {
    let mut nco = tinysdr_dsp::nco::Nco::new(freq_offset_hz, fs);
    nco.take(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinysdr_dsp::complex::mean_power;

    #[test]
    fn frame_length_matches_structure() {
        let m = Modulator::standard(8, 125e3, 1, 1);
        let sig = m.modulate(&[1, 2, 3]);
        let spsym = m.samples_per_symbol();
        let frame = Frame::from_payload(&[1, 2, 3], *m.frame_params());
        let expect =
            (m.frame_params().frame_symbols(frame.symbols.len()) * spsym as f64).round() as usize;
        assert_eq!(sig.len(), expect);
    }

    #[test]
    fn output_is_constant_envelope() {
        let m = Modulator::standard(7, 250e3, 2, 1);
        let sig = m.modulate(b"ce");
        for z in &sig {
            assert!(
                (z.abs() - 1.0).abs() < 3e-3,
                "CSS must be constant envelope"
            );
        }
        assert!((mean_power(&sig) - 1.0).abs() < 0.01);
    }

    #[test]
    fn symbols_only_stream_length() {
        let m = Modulator::standard(8, 125e3, 4, 1);
        let sig = m.modulate_symbols(&[0, 100, 255]);
        assert_eq!(sig.len(), 3 * 256 * 4);
    }

    #[test]
    fn into_variants_are_bit_identical() {
        let m = Modulator::standard(8, 125e3, 2, 1);
        let frame = Frame::from_payload(b"into contract", *m.frame_params());
        let mut out = Vec::new();
        m.modulate_frame_into(&frame, &mut out);
        assert_eq!(out, m.modulate_frame(&frame));
        // reuse the same (now oversized) buffer for a symbol stream
        m.modulate_symbols_into(&[0, 100, 255], &mut out);
        assert_eq!(out, m.modulate_symbols(&[0, 100, 255]));
    }

    #[test]
    fn single_tone_is_a_tone() {
        use tinysdr_dsp::fft::{fft, peak_bin};
        let sig = single_tone(500e3, 4e6, 4096);
        let (k, _) = peak_bin(&fft(&sig)).unwrap();
        assert_eq!(k, 512); // 500 kHz / 4 MHz × 4096
    }

    #[test]
    #[should_panic(expected = "SF must agree")]
    fn sf_mismatch_panics() {
        let chirp = ChirpConfig::new(8, 125e3, 1);
        let code = CodeParams::new(9, 1);
        Modulator::new(chirp, FrameParams::new(code));
    }

    /// Continue the FNV-1a digest `h` over every sample's `re` and `im`
    /// bit patterns.
    fn digest(mut h: u64, samples: &[Complex]) -> u64 {
        for z in samples {
            for word in [z.re.to_bits(), z.im.to_bits()] {
                for byte in word.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
                }
            }
        }
        h
    }

    /// Digest of one transmitter's frames (CR 4/5 and 4/8) and symbol
    /// streams at SF 7–10 and BW 125/250/500 kHz, one sample per chip.
    fn waveform_digest(
        frame: impl Fn(ChirpConfig, FrameParams, &[u8]) -> Vec<Complex>,
        stream: impl Fn(ChirpConfig, FrameParams, &[u16]) -> Vec<Complex>,
    ) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325;
        for sf in 7..=10u8 {
            for bw in [125e3, 250e3, 500e3] {
                let chirp = ChirpConfig::new(sf, bw, 1);
                for cr in [1, 4] {
                    let fp = FrameParams::new(CodeParams::new(sf, cr));
                    h = digest(h, &frame(chirp, fp, b"golden"));
                }
                let fp = FrameParams::new(CodeParams::new(sf, 1));
                let symbols: Vec<u16> = (0..16u16).map(|k| (k * 37) % (1 << sf)).collect();
                h = digest(h, &stream(chirp, fp, &symbols));
            }
        }
        h
    }

    fn ideal(chirp: ChirpConfig, fp: FrameParams) -> Modulator {
        Modulator::new(chirp, fp).with_transmitter(Transmitter::Sx1276)
    }

    /// The LUT transmitter's waveforms.
    const LUT_GOLDEN: u64 = 0xe66f_b00d_55c2_bf3d;
    /// The ideal-chirp transmitter's waveforms, recorded from a separate
    /// reference modulator that built its own frames.
    const IDEAL_GOLDEN: u64 = 0x85ae_fde5_b785_5fa1;

    #[test]
    fn waveforms_match_the_golden_digests() {
        let lut = waveform_digest(
            |c, fp, p| Modulator::new(c, fp).modulate(p),
            |c, fp, s| Modulator::new(c, fp).modulate_symbols(s),
        );
        assert_eq!(lut, LUT_GOLDEN, "LUT digest {lut:#018x}");
        let ideal = waveform_digest(
            |c, fp, p| ideal(c, fp).modulate(p),
            |c, fp, s| ideal(c, fp).modulate_symbols(s),
        );
        assert_eq!(ideal, IDEAL_GOLDEN, "ideal digest {ideal:#018x}");
    }

    #[test]
    fn reference_and_quantized_agree_closely() {
        let chirp = ChirpConfig::new(8, 125e3, 1);
        let fp = FrameParams::new(CodeParams::new(8, 1));
        let q = Modulator::new(chirp, fp).modulate(b"abc");
        let i = ideal(chirp, fp).modulate(b"abc");
        assert_eq!(q.len(), i.len());
        let corr: Complex = q
            .iter()
            .zip(&i)
            .map(|(&a, &b)| a * b.conj())
            .sum::<Complex>()
            / q.len() as f64;
        assert!(corr.abs() > 0.98, "correlation {}", corr.abs());
    }
}
