//! [`PhyModem`] implementor for the BLE GFSK modem.
//!
//! [`BleBerPhy`] is the Fig. 12 measurement as a pluggable modem: frame
//! bytes are unpacked LSB-first into the bit stream (the BLE air
//! order), GFSK-modulated, and received by the CC2650-class
//! matched-template detector. Error unit = bit.

use tinysdr_dsp::complex::Complex;
use tinysdr_rf::phy::{unit_errors_between, DemodResult, ErrorCount, PhyModem};
use tinysdr_rf::superpose::{decide_stream, LinearPass, LinearReceiver, ReceiverScratch};

/// Re-exported from [`crate::gfsk`], the crate's bit-order authority.
pub use crate::gfsk::{bits_to_bytes, bytes_to_bits};
use crate::gfsk::{center_bit, GfskDemodulator, GfskModulator, CC2650_NOISE_FIGURE_DB};

/// BLE advertising channel 38's carrier — the middle of the three
/// advertising channels.
pub const BLE_CENTER_HZ: f64 = 2.426e9;

/// TI CC2650 datasheet sensitivity at BER 1e-3 for 1 Mbps BLE, dBm —
/// the reference line the paper draws in Fig. 12.
pub const CC2650_SENSITIVITY_DBM: f64 = -96.0;

/// The BLE GFSK modem as a [`PhyModem`]: 1 Mbit/s, BT = 0.5, h = 0.5,
/// CC2650-class noncoherent receiver.
#[derive(Debug, Clone)]
pub struct BleBerPhy {
    sps: usize,
    modulator: GfskModulator,
    demod: GfskDemodulator,
}

impl BleBerPhy {
    /// New modem at `sps` samples per bit (the radio's native rate is
    /// 4 MS/s, i.e. `sps = 4`).
    pub fn new(sps: usize) -> Self {
        BleBerPhy {
            sps,
            modulator: GfskModulator::new(sps),
            demod: GfskDemodulator::new(sps),
        }
    }

    /// Samples per bit.
    pub fn sps(&self) -> usize {
        self.sps
    }
}

impl PhyModem for BleBerPhy {
    fn label(&self) -> String {
        format!("BLE BER {}Msps", self.sps)
    }

    fn sample_rate_hz(&self) -> f64 {
        self.modulator.fs()
    }

    /// BLE 1M occupies ~1 MHz (±250 kHz deviation plus the Gaussian
    /// skirt).
    fn occupied_bw_hz(&self) -> f64 {
        1e6
    }

    fn noise_figure_db(&self) -> f64 {
        CC2650_NOISE_FIGURE_DB
    }

    fn sensitivity_anchor_dbm(&self) -> f64 {
        CC2650_SENSITIVITY_DBM
    }

    fn center_frequency_hz(&self) -> f64 {
        BLE_CENTER_HZ
    }

    fn modulate(&self, frame: &[u8]) -> Vec<Complex> {
        self.modulator.modulate(&bytes_to_bits(frame))
    }

    fn demodulate(&self, iq: &[Complex]) -> DemodResult {
        let bits = self.demod.demodulate(iq);
        let bytes = bits_to_bytes(&bits);
        let units = bits.into_iter().map(u16::from).collect();
        DemodResult::stream(bytes, units)
    }

    /// Native unit: bits. Lost bits (truncated capture) count as
    /// errors, exactly as [`crate::gfsk::count_bit_errors`] does.
    fn count_errors(&self, tx_frame: &[u8], rx: &DemodResult) -> ErrorCount {
        let tx_bits: Vec<u16> = bytes_to_bits(tx_frame).into_iter().map(u16::from).collect();
        unit_errors_between(&tx_bits, &rx.units)
    }

    /// The template correlator bank is linear up to its per-bit argmax.
    fn linear_receiver(&self) -> Option<&dyn LinearReceiver> {
        Some(self)
    }

    fn clone_box(&self) -> Box<dyn PhyModem> {
        Box::new(self.clone())
    }
}

/// Superposition over the detector's own clamped 3-bit windows; window
/// `i`'s winning template reads as its center bit.
impl LinearReceiver for BleBerPhy {
    fn decide(
        &self,
        pass: &LinearPass<'_>,
        _: &mut ReceiverScratch,
        each: &mut dyn FnMut(usize, DemodResult),
    ) {
        decide_stream(
            pass,
            pass.signal.len() / self.sps,
            each,
            |window| self.demod.project_bits(pass.signal, pass.noise, window),
            |i, p| u16::from(center_bit(i, p)),
            |units| {
                let bits: Vec<u8> = units.iter().map(|&u| u as u8).collect();
                DemodResult::stream(bits_to_bytes(&bits), units)
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_packing_round_trips() {
        let frame: Vec<u8> = (0..17).map(|i| (i * 41 + 3) as u8).collect();
        assert_eq!(bits_to_bytes(&bytes_to_bits(&frame)), frame);
        // partial byte zero-padded
        assert_eq!(bits_to_bytes(&[1, 0, 1]), vec![0b101]);
    }

    #[test]
    fn clean_roundtrip_is_lossless() {
        let phy = BleBerPhy::new(4);
        let frame: Vec<u8> = (0..48).map(|i| (i * 29 + 7) as u8).collect();
        let rx = phy.demodulate(&phy.modulate(&frame));
        let c = phy.count_errors(&frame, &rx);
        assert_eq!(c.trials, 48 * 8);
        assert!(c.is_clean(), "{} bit errors on a clean channel", c.errors);
        assert_eq!(rx.bytes, frame);
    }

    #[test]
    fn metadata_matches_the_cc2650_front_end() {
        let phy = BleBerPhy::new(4);
        assert_eq!(phy.label(), "BLE BER 4Msps");
        assert_eq!(phy.sample_rate_hz(), 4e6);
        assert_eq!(phy.occupied_bw_hz(), 1e6);
        assert_eq!(phy.noise_figure_db(), CC2650_NOISE_FIGURE_DB);
        assert_eq!(phy.sensitivity_anchor_dbm(), -96.0);
        assert_eq!(phy.center_frequency_hz(), 2.426e9);
    }

    #[test]
    fn truncated_capture_loses_bits_as_errors() {
        let phy = BleBerPhy::new(4);
        let frame = vec![0xC3u8; 8];
        let tx = phy.modulate(&frame);
        let rx = phy.demodulate(&tx[..tx.len() / 2]);
        let c = phy.count_errors(&frame, &rx);
        assert_eq!(c.trials, 64);
        assert!(c.errors >= 32, "errors {}", c.errors);
    }
}
