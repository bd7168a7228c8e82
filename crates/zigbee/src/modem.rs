//! [`PhyModem`] implementor for the 802.15.4 O-QPSK PHY.
//!
//! [`ZigbeePhy`] is the third protocol of the registry — the proof that
//! the [`PhyModem`] seam carries a PHY the workspace never shipped
//! before. Frame bytes map to 4-bit symbols low-nibble-first (the
//! 802.15.4 octet order), spread to 32-chip PN sequences, and ride a
//! half-sine O-QPSK waveform at 2 Mchip/s; the receiver despreads by
//! chip correlation. Error unit = 4-bit DSSS symbol.

use tinysdr_dsp::complex::Complex;
use tinysdr_rf::phy::{unit_errors_between, DemodResult, ErrorCount, PhyModem};
use tinysdr_rf::superpose::{
    decide_stream, ExactCaptures, LinearPass, LinearReceiver, ReceiverScratch,
};

use crate::chips::CHIP_RATE;
use crate::oqpsk::{OqpskDemodulator, OqpskModulator};

/// 802.15.4 channel 19's carrier, Hz (2405 + 5·(19−11) MHz).
pub const ZIGBEE_CENTER_HZ: f64 = 2.445e9;

/// Spec receiver-sensitivity floor, dBm: IEEE 802.15.4 §6.5.3.3
/// requires ≤ −85 dBm at 1% PER.
pub const SPEC_SENSITIVITY_DBM: f64 = -85.0;

/// Typical 2.4 GHz silicon sensitivity, dBm (CC2538/AT86RF233-class
/// datasheets quote −97 to −101; we anchor at the conservative end).
pub const SILICON_SENSITIVITY_DBM: f64 = -97.0;

/// Effective receiver noise figure, dB — calibrated (like the BLE
/// modem's CC2650 figure) so the chip-correlation receiver's measured
/// 1%-SER point lands on the ≈ −97 dBm silicon anchor rather than the
/// correlator's theoretical limit; the gap absorbs the implementation
/// losses (channel filtering, sync jitter, finite AGC) real 802.15.4
/// radios carry. Recorded in EXPERIMENTS.md.
pub const ZIGBEE_NOISE_FIGURE_DB: f64 = 17.8;

/// Unpack bytes into 4-bit symbols, low nibble first (802.15.4 octet
/// order).
pub fn bytes_to_symbols(frame: &[u8]) -> Vec<u8> {
    frame.iter().flat_map(|&b| [b & 0x0F, b >> 4]).collect()
}

/// Pack 4-bit symbols back into bytes, low nibble first; a trailing
/// unpaired nibble is zero-padded.
pub fn symbols_to_bytes(symbols: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; symbols.len().div_ceil(2)];
    for (i, &s) in symbols.iter().enumerate() {
        out[i / 2] |= (s & 0x0F) << (4 * (i % 2));
    }
    out
}

/// The 802.15.4 O-QPSK DSSS modem as a [`PhyModem`].
#[derive(Debug, Clone)]
pub struct ZigbeePhy {
    spc: usize,
    modulator: OqpskModulator,
    demod: OqpskDemodulator,
}

impl ZigbeePhy {
    /// New modem at `spc` samples per chip (`spc = 2` → 4 MS/s, the
    /// AT86RF215's native I/Q rate).
    pub fn new(spc: usize) -> Self {
        ZigbeePhy {
            spc,
            modulator: OqpskModulator::new(spc),
            demod: OqpskDemodulator::new(spc),
        }
    }

    /// Samples per chip.
    pub fn spc(&self) -> usize {
        self.spc
    }
}

impl Default for ZigbeePhy {
    fn default() -> Self {
        Self::new(2)
    }
}

impl PhyModem for ZigbeePhy {
    fn label(&self) -> String {
        "802.15.4 OQPSK".to_string()
    }

    fn sample_rate_hz(&self) -> f64 {
        self.modulator.fs()
    }

    /// The O-QPSK main lobe spans the chip rate.
    fn occupied_bw_hz(&self) -> f64 {
        CHIP_RATE
    }

    fn noise_figure_db(&self) -> f64 {
        ZIGBEE_NOISE_FIGURE_DB
    }

    fn sensitivity_anchor_dbm(&self) -> f64 {
        SILICON_SENSITIVITY_DBM
    }

    fn center_frequency_hz(&self) -> f64 {
        ZIGBEE_CENTER_HZ
    }

    fn modulate(&self, frame: &[u8]) -> Vec<Complex> {
        self.modulator.modulate_symbols(&bytes_to_symbols(frame))
    }

    fn demodulate(&self, iq: &[Complex]) -> DemodResult {
        let syms = self.demod.demodulate_symbols(iq);
        let bytes = symbols_to_bytes(&syms);
        let units = syms.into_iter().map(u16::from).collect();
        DemodResult::stream(bytes, units)
    }

    /// Native unit: 4-bit DSSS symbols. Lost symbols (truncated
    /// capture) count as errors.
    fn count_errors(&self, tx_frame: &[u8], rx: &DemodResult) -> ErrorCount {
        let tx: Vec<u16> = bytes_to_symbols(tx_frame)
            .into_iter()
            .map(u16::from)
            .collect();
        unit_errors_between(&tx, &rx.units)
    }

    /// The chip-correlator bank is linear up to its argmax.
    fn linear_receiver(&self) -> Option<&dyn LinearReceiver> {
        Some(self)
    }

    fn clone_box(&self) -> Box<dyn PhyModem> {
        Box::new(self.clone())
    }
}

/// Superposition over the correlator's own windows (spill-over
/// included); a truncated capture projects fewer windows, and
/// `count_errors` charges the lost symbols. A refused window is settled
/// by correlating that window of the capture.
impl LinearReceiver for ZigbeePhy {
    fn decide(
        &self,
        pass: &LinearPass<'_>,
        _: &mut ReceiverScratch,
        exact: &mut ExactCaptures<'_>,
        each: &mut dyn FnMut(usize, DemodResult),
    ) {
        decide_stream(
            pass,
            exact,
            each,
            |window| self.demod.project_symbols(pass.signal, pass.noise, window),
            |_, bin| bin as u16,
            |exact, point, i| {
                let reads = self.demod.window(i, exact.len());
                exact.settle(point, reads, |capture| {
                    u16::from(self.demod.decide_symbol(capture, i))
                })
            },
            |units| {
                let syms: Vec<u8> = units.iter().map(|&u| u as u8).collect();
                DemodResult::stream(symbols_to_bytes(&syms), units)
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nibble_packing_round_trips() {
        let frame: Vec<u8> = (0..23).map(|i| (i * 53 + 1) as u8).collect();
        assert_eq!(symbols_to_bytes(&bytes_to_symbols(&frame)), frame);
        assert_eq!(bytes_to_symbols(&[0xA5]), vec![0x5, 0xA]);
        // unpaired nibble zero-padded
        assert_eq!(symbols_to_bytes(&[0x7]), vec![0x07]);
    }

    #[test]
    fn clean_roundtrip_is_lossless() {
        let phy = ZigbeePhy::new(2);
        let frame: Vec<u8> = (0..32).map(|i| (i * 97 + 13) as u8).collect();
        let rx = phy.demodulate(&phy.modulate(&frame));
        let c = phy.count_errors(&frame, &rx);
        assert_eq!(c.trials, 64);
        assert!(
            c.is_clean(),
            "{} symbol errors on a clean channel",
            c.errors
        );
        assert_eq!(rx.bytes, frame);
        assert_eq!(rx.frame_ok, None);
    }

    #[test]
    fn metadata_matches_the_2450mhz_phy() {
        let phy = ZigbeePhy::default();
        assert_eq!(phy.label(), "802.15.4 OQPSK");
        assert_eq!(phy.sample_rate_hz(), 4e6);
        assert_eq!(phy.occupied_bw_hz(), 2e6);
        assert_eq!(phy.sensitivity_anchor_dbm(), SILICON_SENSITIVITY_DBM);
        assert!(phy.sensitivity_anchor_dbm() < SPEC_SENSITIVITY_DBM);
        assert_eq!(phy.center_frequency_hz(), 2.445e9);
    }

    #[test]
    fn truncated_capture_loses_symbols_as_errors() {
        let phy = ZigbeePhy::new(2);
        let frame = vec![0x3Cu8; 10]; // 20 symbols
        let tx = phy.modulate(&frame);
        let rx = phy.demodulate(&tx[..tx.len() / 2]);
        let c = phy.count_errors(&frame, &rx);
        assert_eq!(c.trials, 20);
        assert!(c.errors >= 10, "errors {}", c.errors);
    }

    #[test]
    fn airtime_reflects_the_250kbps_rate() {
        // 25 bytes = 50 symbols at 62.5 ksym/s = 0.8 ms
        let phy = ZigbeePhy::new(2);
        let t = phy.airtime_len_s(25);
        assert!((t - 0.8e-3).abs() < 0.05e-3, "airtime {t} s");
    }
}
