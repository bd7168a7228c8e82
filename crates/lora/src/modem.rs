//! [`PhyModem`] implementors for the LoRa stack.
//!
//! Two modems cover the paper's two LoRa measurements:
//!
//! * [`LoraSerPhy`] — the *stream* modem behind Figs. 11 and 15: bare
//!   chirp symbols on a fixed grid, error unit = chirp symbol.
//! * [`LoraPerPhy`] — the *framed* modem behind Fig. 10 and the §3.4
//!   OTA link: full frames (preamble, sync, SFD, coded payload), error
//!   unit = packet. Its [`PhyModem::airtime_len_s`] override uses the
//!   Semtech AN1200.13 closed form, which is what the OTA campaign
//!   engine charges for air time.
//!
//! Byte ⇄ symbol mapping for the stream modem: the frame is read as a
//! bit string MSB-first and chopped into SF-bit chirp symbols (trailing
//! bits that do not fill a symbol are dropped on TX and zero-padded on
//! RX repacking). The mapping is its own inverse over whole symbols, so
//! `demodulate(modulate(f))` is lossless in the native unit.

use tinysdr_dsp::complex::Complex;
use tinysdr_rf::phy::{unit_errors_between, DemodResult, ErrorCount, PhyModem};
use tinysdr_rf::superpose::{
    decide_stream, ExactCaptures, LinearPass, LinearReceiver, ReceiverScratch,
};
use tinysdr_rf::{at86rf215, sx1276};

use crate::demodulator::{DemodFrame, Demodulator};
use crate::modulator::{Modulator, Transmitter};
use crate::packet::FrameParams;
use crate::phy::CodeParams;

/// The 900 MHz ISM carrier both LoRa modems run at (the paper's
/// deployment band).
pub const LORA_CENTER_HZ: f64 = 915e6;

/// Read `frame` as an MSB-first bit string and chop it into `sf`-bit
/// symbols; trailing bits that do not fill a symbol are dropped.
pub fn frame_to_symbols(frame: &[u8], sf: u8) -> Vec<u16> {
    let sf = sf as usize;
    let n = (frame.len() * 8) / sf;
    (0..n)
        .map(|k| {
            let mut v = 0u16;
            for b in 0..sf {
                let idx = k * sf + b;
                let bit = (frame[idx / 8] >> (7 - idx % 8)) & 1;
                v = (v << 1) | bit as u16;
            }
            v
        })
        .collect()
}

/// Inverse of [`frame_to_symbols`]: pack `sf`-bit symbols MSB-first
/// into bytes (the final partial byte is zero-padded).
pub fn symbols_to_frame(symbols: &[u16], sf: u8) -> Vec<u8> {
    let sf = sf as usize;
    let total_bits = symbols.len() * sf;
    let mut out = vec![0u8; total_bits.div_ceil(8)];
    for (k, &s) in symbols.iter().enumerate() {
        for b in 0..sf {
            let bit = (s >> (sf - 1 - b)) & 1;
            let idx = k * sf + b;
            out[idx / 8] |= (bit as u8) << (7 - idx % 8);
        }
    }
    out
}

/// Stream-mode LoRa: bare chirp symbols on a fixed grid (no preamble),
/// exactly the §6 / Fig. 11 measurement. AT86RF215-class receiver.
#[derive(Debug, Clone)]
pub struct LoraSerPhy {
    sf: u8,
    bw_hz: f64,
    modulator: Modulator,
    demod: Demodulator,
}

impl LoraSerPhy {
    /// New stream modem at `(sf, bw)`, one sample per chip.
    pub fn new(sf: u8, bw_hz: f64) -> Self {
        LoraSerPhy {
            sf,
            bw_hz,
            modulator: Modulator::standard(sf, bw_hz, 1, 1),
            demod: Demodulator::standard(sf, bw_hz, 1, 1),
        }
    }

    /// Builder: transmit `transmitter`'s chirps (default
    /// [`Transmitter::TinySdr`]); the receiver and the label stay.
    pub fn with_transmitter(mut self, transmitter: Transmitter) -> Self {
        self.modulator = self.modulator.with_transmitter(transmitter);
        self
    }

    /// Spreading factor.
    pub fn sf(&self) -> u8 {
        self.sf
    }
}

impl PhyModem for LoraSerPhy {
    fn label(&self) -> String {
        format!("LoRa SER SF{} BW{}", self.sf, (self.bw_hz / 1e3) as u32)
    }

    fn sample_rate_hz(&self) -> f64 {
        self.bw_hz
    }

    fn occupied_bw_hz(&self) -> f64 {
        self.bw_hz
    }

    fn noise_figure_db(&self) -> f64 {
        at86rf215::NOISE_FIGURE_DB
    }

    fn sensitivity_anchor_dbm(&self) -> f64 {
        sx1276::sensitivity_dbm(self.sf, self.bw_hz)
    }

    fn center_frequency_hz(&self) -> f64 {
        LORA_CENTER_HZ
    }

    fn modulate(&self, frame: &[u8]) -> Vec<Complex> {
        self.modulator
            .modulate_symbols(&frame_to_symbols(frame, self.sf))
    }

    fn demodulate(&self, iq: &[Complex]) -> DemodResult {
        let mut units = Vec::new();
        self.demod
            .detect_aligned_with(iq, &mut self.demod.scratch(), &mut units);
        let bytes = symbols_to_frame(&units, self.sf);
        DemodResult::stream(bytes, units)
    }

    /// Native unit: chirp symbols. Lost symbols (truncated capture)
    /// count as errors; surplus detected windows are ignored.
    fn count_errors(&self, tx_frame: &[u8], rx: &DemodResult) -> ErrorCount {
        unit_errors_between(&frame_to_symbols(tx_frame, self.sf), &rx.units)
    }

    /// The stream receiver is FIR → dechirp → FFT → argmax at one
    /// sample per chip: linear up to the argmax.
    fn linear_receiver(&self) -> Option<&dyn LinearReceiver> {
        Some(self)
    }

    fn clone_box(&self) -> Box<dyn PhyModem> {
        Box::new(self.clone())
    }
}

/// Superposition over the stream receiver's own streamed window walk
/// (group delay, zero flush): a capture shorter than the symbol stream
/// projects fewer windows, and `count_errors` charges the lost symbols
/// as it does for a demodulated capture. A refused window is settled by
/// filtering, dechirping and transforming that window of the capture
/// alone.
impl LinearReceiver for LoraSerPhy {
    fn decide(
        &self,
        pass: &LinearPass<'_>,
        _: &mut ReceiverScratch,
        exact: &mut ExactCaptures<'_>,
        each: &mut dyn FnMut(usize, DemodResult),
    ) {
        let d = &self.demod;
        let mut scratch = d.scratch();
        decide_stream(
            pass,
            exact,
            each,
            |window| d.project_aligned(pass.signal, pass.noise, window),
            |_, bin| bin as u16,
            |exact, point, k| {
                let reads = d.window_reads(exact.len(), k * d.config().samples_per_symbol());
                exact.settle(point, reads, |capture| {
                    d.settle_aligned(capture, k, &mut scratch)
                })
            },
            |units| DemodResult::stream(symbols_to_frame(&units, self.sf), units),
        );
    }
}

/// Framed LoRa: full Fig. 5 frames through the coded PHY chain, error
/// unit = packet (CRC + payload compare). SX1276-class receiver — this
/// is the Fig. 10 comparator and the §3.4 OTA downlink.
///
/// The modem carries the analytic [`sx1276::LoRaParams`] verbatim
/// (including `explicit_header`/`crc_on`/`low_dr_opt`), so air-time
/// pricing honors every flag a caller customized; the waveform path
/// always modulates explicit-header + CRC frames — the only frame shape
/// the Fig. 5 structure models (see DESIGN.md fidelity notes).
#[derive(Debug)]
pub struct LoraPerPhy {
    params: sx1276::LoRaParams,
    frame_params: FrameParams,
    transmitter: Transmitter,
    /// Lazily built DSP state (modulator + demodulator with FFT plan
    /// and chirp references): the air-time path never touches samples,
    /// and the OTA campaign builds one of these per session.
    modem: std::sync::OnceLock<(Modulator, Demodulator)>,
}

impl Clone for LoraPerPhy {
    fn clone(&self) -> Self {
        // the DSP state is derived and cheap to rebuild on demand;
        // cloning resets it rather than copying reference vectors
        LoraPerPhy {
            params: self.params,
            frame_params: self.frame_params,
            transmitter: self.transmitter,
            modem: std::sync::OnceLock::new(),
        }
    }
}

impl LoraPerPhy {
    /// New framed modem at `(sf, bw)` with coding rate index `cr`
    /// (1..=4 for 4/5..4/8) and the Fig. 5 default 10-symbol preamble.
    pub fn new(sf: u8, bw_hz: f64, cr: u8) -> Self {
        Self::with_frame_params(sf, bw_hz, cr, FrameParams::new(CodeParams::new(sf, cr)))
    }

    /// The §5.3 OTA downlink: SF8, BW 500 kHz, CR 4/6, 8-chirp preamble.
    pub fn ota_link() -> Self {
        Self::from_lora_params(sx1276::LoRaParams::ota_link())
    }

    /// Full control over the frame structure.
    pub fn with_frame_params(sf: u8, bw_hz: f64, cr: u8, frame_params: FrameParams) -> Self {
        let mut params = sx1276::LoRaParams::new(sf, bw_hz, cr + 4);
        params.preamble_symbols = frame_params.preamble_len;
        LoraPerPhy {
            params,
            frame_params,
            transmitter: Transmitter::TinySdr,
            modem: std::sync::OnceLock::new(),
        }
    }

    /// Build the modem from analytic link parameters, preserving every
    /// air-time-relevant flag (`explicit_header`, `crc_on`,
    /// `low_dr_opt`) exactly as given — this is how the OTA session
    /// engine derives its modem from `LinkModel.params`.
    pub fn from_lora_params(params: sx1276::LoRaParams) -> Self {
        let cr = params.cr_denom - 4;
        let mut fp = FrameParams::new(CodeParams::new(params.sf, cr));
        fp.preamble_len = params.preamble_symbols;
        LoraPerPhy {
            params,
            frame_params: fp,
            transmitter: Transmitter::TinySdr,
            modem: std::sync::OnceLock::new(),
        }
    }

    /// Builder: transmit `transmitter`'s chirps (default
    /// [`Transmitter::TinySdr`]); the receiver and the label stay.
    pub fn with_transmitter(mut self, transmitter: Transmitter) -> Self {
        self.transmitter = transmitter;
        self.modem = std::sync::OnceLock::new();
        self
    }

    /// The analytic modem parameters (Semtech AN1200.13 terms).
    pub fn lora_params(&self) -> sx1276::LoRaParams {
        self.params
    }

    fn modem(&self) -> &(Modulator, Demodulator) {
        self.modem.get_or_init(|| {
            let chirp = tinysdr_dsp::chirp::ChirpConfig::new(self.params.sf, self.params.bw_hz, 1);
            (
                Modulator::new(chirp, self.frame_params).with_transmitter(self.transmitter),
                Demodulator::new(chirp, self.frame_params),
            )
        })
    }
}

impl PhyModem for LoraPerPhy {
    fn label(&self) -> String {
        format!(
            "LoRa PER SF{} BW{}",
            self.params.sf,
            (self.params.bw_hz / 1e3) as u32
        )
    }

    fn sample_rate_hz(&self) -> f64 {
        self.params.bw_hz
    }

    fn occupied_bw_hz(&self) -> f64 {
        self.params.bw_hz
    }

    fn noise_figure_db(&self) -> f64 {
        sx1276::NOISE_FIGURE_DB
    }

    fn sensitivity_anchor_dbm(&self) -> f64 {
        sx1276::sensitivity_dbm(self.params.sf, self.params.bw_hz)
    }

    fn center_frequency_hz(&self) -> f64 {
        LORA_CENTER_HZ
    }

    fn modulate(&self, frame: &[u8]) -> Vec<Complex> {
        self.modem().0.modulate(frame)
    }

    fn demodulate(&self, iq: &[Complex]) -> DemodResult {
        framed_result(self.modem().1.demodulate(iq))
    }

    /// Native unit: whole packets — one trial, one error unless the
    /// frame decoded with a valid CRC to exactly the transmitted bytes.
    fn count_errors(&self, tx_frame: &[u8], rx: &DemodResult) -> ErrorCount {
        let ok = rx.frame_ok == Some(true) && rx.bytes == tx_frame;
        ErrorCount::new(u64::from(!ok), 1)
    }

    /// The Semtech AN1200.13 closed form, allocation-free: authoritative
    /// for LoRa, and what the OTA session engine prices every packet by.
    fn airtime_len_s(&self, frame_len: usize) -> f64 {
        self.lora_params().airtime_s(frame_len)
    }

    /// The framed receiver's searches are comparisons of FIR → dechirp
    /// → FFT magnitudes at one sample per chip: linear up to them.
    fn linear_receiver(&self) -> Option<&dyn LinearReceiver> {
        Some(self)
    }

    fn clone_box(&self) -> Box<dyn PhyModem> {
        Box::new(self.clone())
    }
}

/// The framed receiver decides each point of a pass itself: it filters
/// the signal and the noise once, projects each window it visits once,
/// and runs its own search over the superposition at every point,
/// settling uncertain decisions on the point's exact capture.
impl LinearReceiver for LoraPerPhy {
    fn decide(
        &self,
        pass: &LinearPass<'_>,
        scratch: &mut ReceiverScratch,
        exact: &mut ExactCaptures<'_>,
        each: &mut dyn FnMut(usize, DemodResult),
    ) {
        self.modem()
            .1
            .decide_superposed(pass, scratch, exact, |i, frame| {
                each(i, framed_result(frame))
            });
    }
}

/// The packet modem's view of one framed receive: payload and symbols
/// with the CRC and header verdict, or nothing without a frame.
fn framed_result(frame: Option<DemodFrame>) -> DemodResult {
    match frame {
        Some(f) => {
            let ok = f.crc_ok && f.header_ok;
            DemodResult::framed(f.payload, f.symbols, ok)
        }
        None => DemodResult::empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_symbol_mapping_round_trips_whole_symbols() {
        for sf in 7u8..=12 {
            let frame: Vec<u8> = (0..16).map(|i| (i * 37 + 11) as u8).collect();
            let syms = frame_to_symbols(&frame, sf);
            assert_eq!(syms.len(), (frame.len() * 8) / sf as usize);
            assert!(syms.iter().all(|&s| s < (1 << sf)));
            let back = symbols_to_frame(&syms, sf);
            // the first ⌊bits/sf⌋·sf bits are preserved exactly
            let whole_bits = syms.len() * sf as usize;
            for idx in 0..whole_bits {
                let a = (frame[idx / 8] >> (7 - idx % 8)) & 1;
                let b = (back[idx / 8] >> (7 - idx % 8)) & 1;
                assert_eq!(a, b, "bit {idx} at SF{sf}");
            }
        }
    }

    #[test]
    fn ser_phy_clean_roundtrip_is_lossless() {
        let phy = LoraSerPhy::new(8, 125e3);
        let frame: Vec<u8> = (0..32).map(|i| (i * 73) as u8).collect();
        let rx = phy.demodulate(&phy.modulate(&frame));
        let c = phy.count_errors(&frame, &rx);
        assert_eq!(c.trials, 32);
        assert!(
            c.is_clean(),
            "{} symbol errors on a clean channel",
            c.errors
        );
        assert_eq!(rx.bytes, frame);
        assert_eq!(rx.frame_ok, None);
    }

    #[test]
    fn ser_phy_metadata_matches_the_front_end() {
        let phy = LoraSerPhy::new(8, 125e3);
        assert_eq!(phy.label(), "LoRa SER SF8 BW125");
        assert_eq!(phy.sample_rate_hz(), 125e3);
        assert_eq!(phy.occupied_bw_hz(), 125e3);
        assert_eq!(phy.noise_figure_db(), at86rf215::NOISE_FIGURE_DB);
        assert!((phy.sensitivity_anchor_dbm() + 126.0).abs() < 0.5);
        assert_eq!(phy.center_frequency_hz(), 915e6);
    }

    #[test]
    fn sx1276_transmitter_changes_only_the_waveform() {
        // both modems keep their label and receiver, and emit the
        // ideal-chirp modulator's frames and streams (a clone too)
        let chirp = tinysdr_dsp::chirp::ChirpConfig::new(8, 250e3, 1);
        let ideal = |cr| {
            Modulator::new(chirp, FrameParams::new(CodeParams::new(8, cr)))
                .with_transmitter(Transmitter::Sx1276)
        };
        let frame = [0xA5u8, 0x5A, 0xC3];
        let per = LoraPerPhy::new(8, 250e3, 4);
        let sx = per.clone().with_transmitter(Transmitter::Sx1276);
        assert_eq!(sx.label(), per.label());
        assert_ne!(sx.modulate(&frame), per.modulate(&frame));
        assert_eq!(sx.clone_box().modulate(&frame), ideal(4).modulate(&frame));
        let rx = sx.demodulate(&sx.modulate(&frame));
        assert!(sx.count_errors(&frame, &rx).is_clean());
        let ser = LoraSerPhy::new(8, 250e3);
        let sx = ser.clone().with_transmitter(Transmitter::Sx1276);
        assert_eq!(sx.label(), ser.label());
        assert_eq!(
            sx.clone_box().modulate(&frame),
            ideal(1).modulate_symbols(&frame_to_symbols(&frame, 8))
        );
    }

    #[test]
    fn ser_phy_counts_lost_symbols_as_errors() {
        let phy = LoraSerPhy::new(7, 125e3);
        let frame = vec![0x5Au8; 14]; // 16 SF7 symbols
        let tx = phy.modulate(&frame);
        let rx = phy.demodulate(&tx[..tx.len() / 2]);
        let c = phy.count_errors(&frame, &rx);
        assert_eq!(c.trials, 16);
        assert!(c.errors >= 8, "half the capture lost, errors {}", c.errors);
    }

    #[test]
    fn per_phy_clean_roundtrip_decodes_the_packet() {
        let phy = LoraPerPhy::new(8, 125e3, 4);
        let frame = b"per phy".to_vec();
        let rx = phy.demodulate(&phy.modulate(&frame));
        assert_eq!(rx.frame_ok, Some(true));
        assert_eq!(rx.bytes, frame);
        assert_eq!(phy.count_errors(&frame, &rx), ErrorCount::new(0, 1));
    }

    #[test]
    fn per_phy_scores_noise_as_one_packet_error() {
        let phy = LoraPerPhy::new(8, 125e3, 4);
        let rx = phy.demodulate(&vec![Complex::ZERO; 4096]);
        assert_eq!(phy.count_errors(b"x", &rx), ErrorCount::new(1, 1));
    }

    #[test]
    fn per_phy_airtime_matches_the_semtech_closed_form() {
        let phy = LoraPerPhy::ota_link();
        let params = sx1276::LoRaParams::ota_link();
        for len in [1usize, 10, 60, 69] {
            assert!(
                (phy.airtime_len_s(len) - params.airtime_s(len)).abs() < 1e-12,
                "airtime diverged at {len} bytes"
            );
        }
    }

    #[test]
    fn per_phy_waveform_airtime_is_near_the_closed_form() {
        // the default (waveform-length) route and the analytic override
        // must tell the same story — the frame structure is the formula
        let phy = LoraPerPhy::ota_link();
        let frame = vec![0xA5u8; 60];
        let wf = phy.modulate(&frame).len() as f64 / phy.sample_rate_hz();
        let an = phy.airtime_len_s(frame.len());
        assert!(
            (wf - an).abs() / an < 0.15,
            "waveform {wf:.4}s vs analytic {an:.4}s"
        );
    }
}
