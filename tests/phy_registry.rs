//! Registry-level properties of the `PhyModem` seam: every modem the
//! workspace registers must round-trip a random frame losslessly
//! through a clean channel and survive hostile captures, and the
//! registry must preserve the keyed / ordered contracts the sweep
//! engine relies on.

use proptest::prelude::*;
use tinysdr_bench::waterfall::standard_registry;
use tinysdr_dsp::complex::Complex;
use tinysdr_rf::impairments::{ChainScratch, ImpairmentChain, PreparedPass};
use tinysdr_rf::superpose::{demodulate_pass, ReceiverScratch};

proptest! {
    /// The core `PhyModem` contract, per registered PHY: for any
    /// non-empty frame, `demodulate(modulate(frame))` over a clean
    /// channel is lossless in the modem's native unit. New protocols
    /// added to the standard registry inherit this gate for free.
    #[test]
    fn every_registered_phy_roundtrips_losslessly(
        frame in prop::collection::vec(any::<u8>(), 3..24),
        // exercised against every registry entry each case
        _nonce in 0u8..4,
    ) {
        let reg = standard_registry();
        prop_assert!(!reg.is_empty());
        for phy in reg.iter() {
            let tx = phy.modulate(&frame);
            prop_assert!(!tx.is_empty(), "{} produced no samples", phy.label());
            let rx = phy.demodulate(&tx);
            let c = phy.count_errors(&frame, &rx);
            prop_assert!(c.trials > 0, "{} counted no trials", phy.label());
            prop_assert!(
                c.is_clean(),
                "{}: {}/{} errors through a clean channel",
                phy.label(), c.errors, c.trials
            );
        }
    }

    /// Metadata sanity for every registered PHY: rates are positive,
    /// the occupied bandwidth fits the sample rate, the sensitivity
    /// anchor is a plausible dBm, and airtime scales with frame length.
    #[test]
    fn every_registered_phy_has_sane_metadata(len in 4usize..32) {
        for phy in standard_registry().iter() {
            prop_assert!(phy.sample_rate_hz() > 0.0);
            prop_assert!(phy.occupied_bw_hz() > 0.0);
            prop_assert!(phy.occupied_bw_hz() <= phy.sample_rate_hz() + 1e-9);
            prop_assert!((-150.0..=-50.0).contains(&phy.sensitivity_anchor_dbm()));
            prop_assert!(phy.center_frequency_hz() > 100e6);
            let short = phy.airtime_len_s(len);
            let long = phy.airtime_len_s(len * 4);
            prop_assert!(short > 0.0);
            prop_assert!(long > short, "{}: airtime must grow", phy.label());
        }
    }
}

#[test]
fn registry_lookup_is_keyed_and_ordered() {
    let reg = standard_registry();
    let labels = reg.labels();
    // registration order == iteration order (the determinism contract)
    let iterated: Vec<String> = reg.iter().map(|p| p.label()).collect();
    assert_eq!(labels, iterated);
    for l in &labels {
        assert_eq!(reg.get(l).expect("keyed lookup").label(), *l);
    }
    // the three protocols of the paper's claim are all present
    assert!(labels.iter().any(|l| l.starts_with("LoRa")));
    assert!(labels.iter().any(|l| l.starts_with("BLE")));
    assert!(labels.iter().any(|l| l.starts_with("802.15.4")));
}

/// Raw I/Q is a trust boundary. No registered modem may panic on an
/// empty, a 1-sample, a silent or a non-finite capture. And a pass
/// whose signal and noise are non-finite — a NaN or infinite transmit
/// waveform, a NaN or infinite noise figure, with and without fading
/// and ADC stages — must still yield, at every point, exactly what the
/// exact path (`apply_prepared_into` + `demodulate`) yields.
#[test]
fn every_registered_phy_survives_hostile_captures() {
    let (inf, nan) = (f64::INFINITY, f64::NAN);
    let frame = [0xA5u8; 4];
    let rssis = [-140.0, -100.0, -60.0];
    for phy in standard_registry().iter() {
        let clean = phy.modulate(&frame);
        let n = clean.len();
        let captures = [
            Vec::new(),
            vec![Complex::new(1.0, -1.0)],
            vec![Complex::ZERO; n],
            vec![Complex::new(nan, nan); n],
            vec![Complex::new(inf, -inf); n],
            vec![Complex::new(-inf, inf); n],
        ];
        for iq in &captures {
            let rx = phy.demodulate(iq);
            phy.count_errors(&frame, &rx);
        }

        let mut poisoned = clean.clone();
        poisoned[n / 2] = Complex::new(nan, 0.0);
        let blown: Vec<Complex> = [Complex::new(inf, 0.0), Complex::new(0.0, -inf)]
            .into_iter()
            .cycle()
            .take(n)
            .collect();
        for (tx, noise_figure_db) in [(&clean, nan), (&poisoned, inf), (&blown, nan)] {
            let plain = ImpairmentChain::new(noise_figure_db);
            let stacked = plain
                .clone()
                .with_block_fading(64)
                .with_adc_quantization(13);
            for chain in [plain, stacked] {
                let mut prep = PreparedPass::new();
                let fs = phy.sample_rate_hz();
                chain.prepare_pass_into(tx, fs, 7, &mut prep, &mut ChainScratch::new());
                let mut got = vec![None; rssis.len()];
                let mut capture = Vec::new();
                demodulate_pass(
                    phy,
                    &chain,
                    &prep,
                    &rssis,
                    &mut capture,
                    &mut ReceiverScratch::default(),
                    |i, res| got[i] = Some(res),
                );
                for (&rssi_dbm, got) in rssis.iter().zip(&got) {
                    chain.apply_prepared_into(&prep, rssi_dbm, &mut capture);
                    assert_eq!(
                        got.as_ref(),
                        Some(&phy.demodulate(&capture)),
                        "{} at {rssi_dbm} dBm, noise figure {noise_figure_db}",
                        phy.label()
                    );
                }
            }
        }
    }
}
