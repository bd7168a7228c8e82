//! A deliberately cheap loopback PHY for link-layer testing.
//!
//! The adversarial ARQ battery and the exhaustive small-topology sweeps
//! run thousands of simulated transfers; pushing every frame through a
//! real chirp or GFSK modulator would make the debug-build test suite
//! crawl without testing anything new (the real PHYs have their own
//! conformance suites, and the registry-wide packet-layer test in
//! `tests/` exercises the true waveform path). [`TestPhy`] keeps the
//! *airtime model* honest — frames occupy the air proportionally to
//! their wire length at a LoRa-ish 50 kb/s — while `modulate` is plain
//! BPSK at one sample per bit, so the simulator's timing, collision and
//! energy arithmetic are exercised at full fidelity for microcents.

use tinysdr_dsp::complex::Complex;
use tinysdr_rf::phy::{DemodResult, PhyModem};

/// Nominal bit rate of the test PHY, bits per second.
pub const TEST_PHY_BPS: f64 = 50_000.0;

/// The cheap loopback modem (see module docs).
#[derive(Debug, Clone, Default)]
pub struct TestPhy;

impl TestPhy {
    /// A fresh instance.
    #[must_use]
    pub fn new() -> Self {
        TestPhy
    }
}

impl PhyModem for TestPhy {
    fn label(&self) -> String {
        "test-bpsk-50k".to_string()
    }
    fn sample_rate_hz(&self) -> f64 {
        TEST_PHY_BPS
    }
    fn occupied_bw_hz(&self) -> f64 {
        TEST_PHY_BPS
    }
    fn noise_figure_db(&self) -> f64 {
        6.0
    }
    fn sensitivity_anchor_dbm(&self) -> f64 {
        -110.0
    }
    fn center_frequency_hz(&self) -> f64 {
        915e6
    }
    fn modulate(&self, frame: &[u8]) -> Vec<Complex> {
        frame
            .iter()
            .flat_map(|b| (0..8).map(move |i| (b >> i) & 1))
            .map(|bit| Complex::new(if bit == 1 { 1.0 } else { -1.0 }, 0.0))
            .collect()
    }
    fn demodulate(&self, iq: &[Complex]) -> DemodResult {
        let units: Vec<u16> = iq.iter().map(|z| u16::from(z.re > 0.0)).collect();
        let bytes = units
            .chunks(8)
            .map(|c| {
                c.iter()
                    .enumerate()
                    .fold(0u8, |acc, (i, &b)| acc | ((b as u8) << i))
            })
            .collect();
        DemodResult::stream(bytes, units)
    }
    fn airtime_len_s(&self, frame_len: usize) -> f64 {
        // closed form — the hot path for the simulator's airtime cache
        frame_len as f64 * 8.0 / TEST_PHY_BPS
    }
    fn clone_box(&self) -> Box<dyn PhyModem> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_bytes() {
        let phy = TestPhy::new();
        let frame = [0xC0u8, 0xDB, 0x42, 0x00, 0xFF];
        let rx = phy.demodulate(&phy.modulate(&frame));
        assert_eq!(rx.bytes, frame);
        assert!(phy.count_errors(&frame, &rx).is_clean());
    }

    #[test]
    fn closed_form_airtime_matches_waveform_route() {
        let phy = TestPhy::new();
        for len in [0usize, 1, 9, 64, 130] {
            let closed = phy.airtime_len_s(len);
            let derived = phy.modulate(&vec![0u8; len]).len() as f64 / phy.sample_rate_hz();
            assert!((closed - derived).abs() < 1e-12, "len {len}");
        }
    }
}
