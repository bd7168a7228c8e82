//! Property-based invariants for the 802.15.4 O-QPSK PHY, mirroring
//! the LoRa/GFSK modem properties from the conformance-harness PR.

use proptest::prelude::*;
use tinysdr_rf::impairments::ImpairmentChain;
use tinysdr_rf::phy::PhyModem;
use tinysdr_zigbee::chips::{chip_sequence, CHIPS_PER_SYMBOL};
use tinysdr_zigbee::modem::{bytes_to_symbols, symbols_to_bytes, ZigbeePhy};
use tinysdr_zigbee::oqpsk::{OqpskDemodulator, OqpskModulator, OqpskScratch};

proptest! {
    /// Nibble packing is the identity for any byte frame.
    #[test]
    fn nibble_packing_identity(frame in prop::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(symbols_to_bytes(&bytes_to_symbols(&frame)), frame);
    }

    /// modulate → demodulate over a clean channel is lossless for any
    /// frame and supported sample rate.
    #[test]
    fn clean_roundtrip_any_frame(
        frame in prop::collection::vec(any::<u8>(), 1..48),
        spc in 2usize..=4,
    ) {
        let phy = ZigbeePhy::new(spc);
        let rx = phy.demodulate(&phy.modulate(&frame));
        let c = phy.count_errors(&frame, &rx);
        prop_assert_eq!(c.trials, 2 * frame.len() as u64);
        prop_assert!(c.is_clean(), "{} symbol errors", c.errors);
        prop_assert_eq!(rx.bytes, frame);
    }

    /// The roundtrip stays lossless at high SNR (−75 dBm is ~22 dB
    /// above the calibrated sensitivity) and under a random constant
    /// carrier phase — the noncoherent correlator's whole job.
    #[test]
    fn high_snr_roundtrip_with_phase(
        frame in prop::collection::vec(any::<u8>(), 1..32),
        seed in any::<u64>(),
        phase in 0.0f64..std::f64::consts::TAU,
    ) {
        let phy = ZigbeePhy::new(2);
        let rot = tinysdr_dsp::complex::Complex::from_angle(phase);
        let sig: Vec<_> = phy.modulate(&frame).into_iter().map(|z| z * rot).collect();
        let chain = ImpairmentChain::new(phy.noise_figure_db());
        let sig = chain.apply(&sig, -75.0, phy.sample_rate_hz(), seed);
        let c = phy.count_errors(&frame, &phy.demodulate(&sig));
        prop_assert!(c.is_clean(), "{} errors at -75 dBm", c.errors);
    }

    /// Chip-sequence structure: every symbol's sequence despreads to
    /// itself through the correlator even when embedded mid-stream.
    #[test]
    fn every_symbol_detected_in_context(sym in 0u8..16, left in 0u8..16, right in 0u8..16) {
        let m = OqpskModulator::new(2);
        let d = OqpskDemodulator::new(2);
        let rx = d.demodulate_symbols(&m.modulate_symbols(&[left, sym, right]));
        prop_assert_eq!(rx, vec![left, sym, right]);
    }

    /// A single chip flip never flips the despread symbol: 32-chip
    /// sequences are ≥ 12 chips apart, so one bad chip leaves the
    /// correct sequence closest.
    #[test]
    fn one_chip_error_is_absorbed(sym in 0u8..16, hit in 0usize..CHIPS_PER_SYMBOL) {
        let m = OqpskModulator::new(2);
        let d = OqpskDemodulator::new(2);
        let mut chips = chip_sequence(sym);
        chips[hit] ^= 1;
        let mut sig = Vec::new();
        m.modulate_chips_into(&chips, &mut OqpskScratch::new(), &mut sig);
        prop_assert_eq!(d.detect_symbol(&sig).0, sym);
    }
}
