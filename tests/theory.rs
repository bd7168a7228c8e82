//! Theory oracles for the clean curves: the measured receivers against
//! closed forms that depend on neither receiver path.
//!
//! LoRa SER: the clean SF 7–10 / BW 125 kHz curves, at the full grid's
//! 240 symbols per point, against `sx1276::symbol_error_prob`
//! (noncoherent `2^SF`-ary detection) at
//! `SNR = RSSI − (−174 + 10·log₁₀ BW + NF)`. Each curve gets a fitted
//! implementation loss `L` (the dB the receiver gives away to the ideal
//! detector), which must stay inside a stated band, and every point's
//! count must be consistent with the theory curve shifted by `L`. A
//! receiver that got uniformly worse — and was then re-pinned — fails
//! here.
//!
//! BLE BER: the clean 1 Mb/s GFSK curve, at the full grid's 40,000 bits
//! per point, against noncoherent BFSK, `Pb = ½·exp(−Eb/2N₀)` with
//! `Eb/N₀ = SNR + 10·log₁₀(fs / 1 Mb/s)` (the noise is drawn over the
//! simulation bandwidth `fs`). The 3-bit matched-template detector is
//! not BFSK — it gains from the Gaussian pulse's memory at low SNR and
//! loses from its inter-symbol interference at high SNR, so its offset
//! to theory runs from about −2.3 to +0.3 dB along the curve and no
//! single shifted curve fits it. The check is the one the paper reads
//! off Fig. 12: the BER-1e-3 crossing, within ±1 dB of theory's.

use tinysdr_bench::waterfall::{run_waterfall, NamedImpairment, Scenario, WaterfallConfig};
use tinysdr_dsp::stats::ErrorRate;
use tinysdr_rf::impairments::ImpairmentChain;
use tinysdr_rf::sx1276::symbol_error_prob;
use tinysdr_rf::units::noise_floor_dbm;

/// Band for the fitted LoRa implementation loss, dB. The ideal
/// detector bounds the receiver, so `L` sits at or above 0 up to the
/// fit's own sampling spread at 240 symbols per point (~0.15 dB, hence
/// the lower edge). The four curves fit 0.33, −0.12, 0.41 and 0.04 dB
/// at seed 1, so the 1 dB upper edge catches a receiver that lost
/// 0.6 dB or more.
const LORA_LOSS_BAND_DB: (f64, f64) = (-0.5, 1.0);

/// Band for the clean BLE curve's BER-1e-3 crossing against noncoherent
/// BFSK theory, dB. Seed 1 crosses at −96.1 dBm against −96.3 dBm.
const BLE_CROSSING_BAND_DB: f64 = 1.0;

/// Two-sided normal quantile of a 99.9 % interval.
const Z_999: f64 = 3.2905;

/// The loss `L` (0.01 dB grid over ±3 dB) that maximizes the binomial
/// likelihood of the measured `(snr, errors, trials)` points under
/// `theory(snr − L)`.
fn fit_loss_db(points: &[(f64, u64, u64)], theory: impl Fn(f64) -> f64) -> f64 {
    let nll = |loss: f64| -> f64 {
        points
            .iter()
            .map(|&(snr, errors, trials)| {
                let p = theory(snr - loss).clamp(1e-12, 1.0 - 1e-12);
                -(errors as f64 * p.ln() + (trials - errors) as f64 * (1.0 - p).ln())
            })
            .sum()
    };
    (-300..=300)
        .map(|k| k as f64 / 100.0)
        .min_by(|a, b| nll(*a).total_cmp(&nll(*b)))
        .expect("non-empty grid")
}

#[test]
fn clean_lora_ser_tracks_noncoherent_theory() {
    let bw_hz = 125e3;
    let cfg = WaterfallConfig {
        seed: 1,
        shards: 1,
        scenarios: (7..=10u8)
            .map(|sf| Scenario::lora_ser(sf, bw_hz, 240))
            .collect(),
        impairments: vec![NamedImpairment::new("clean", ImpairmentChain::new(0.0))],
    };
    let rep = run_waterfall(&cfg);
    for (sc, sf) in cfg.scenarios.iter().zip(7..=10u8) {
        let floor_dbm = noise_floor_dbm(bw_hz, sc.phy.noise_figure_db());
        let points: Vec<(f64, u64, u64)> = rep
            .points
            .iter()
            .filter(|p| p.scenario == sc.label())
            .map(|p| (p.rssi_dbm - floor_dbm, p.errors, p.trials))
            .collect();
        assert_eq!(points.len(), 22, "{}", sc.label());
        assert!(points.iter().all(|p| p.2 == 240), "{}", sc.label());
        let theory = |snr_db: f64| symbol_error_prob(snr_db, sf);
        let loss = fit_loss_db(&points, theory);
        assert!(
            (LORA_LOSS_BAND_DB.0..=LORA_LOSS_BAND_DB.1).contains(&loss),
            "{}: implementation loss {loss:.2} dB outside {LORA_LOSS_BAND_DB:?}",
            sc.label()
        );
        for &(snr_db, errors, trials) in &points {
            let mut rate = ErrorRate::new();
            rate.record_batch(errors, trials);
            let (lo, hi) = rate.wilson_interval(Z_999);
            let want = theory(snr_db - loss);
            assert!(
                (lo..=hi).contains(&want),
                "{} at SNR {snr_db:.1} dB: {errors}/{trials} measured, theory {want:.4} \
                 (L = {loss:.2} dB) outside [{lo:.4}, {hi:.4}]",
                sc.label()
            );
        }
        println!("{}: implementation loss {loss:.2} dB", sc.label());
    }
}

#[test]
fn clean_ble_crossing_tracks_noncoherent_bfsk() {
    let cfg = WaterfallConfig {
        seed: 1,
        shards: 1,
        scenarios: vec![Scenario::ble_ber(4, 40_000)],
        impairments: vec![NamedImpairment::new("clean", ImpairmentChain::new(0.0))],
    };
    let sc = &cfg.scenarios[0];
    let fs = sc.phy.sample_rate_hz();
    let target = 1e-3;
    let measured = run_waterfall(&cfg)
        .sensitivity_dbm(&sc.label(), "clean", target)
        .expect("the clean BLE curve crosses BER 1e-3");
    // ½·exp(−x/2) = target at Eb/N₀ = x = 2·ln(1 / 2·target)
    let ebn0_db = 10.0 * (2.0 * (0.5 / target).ln()).log10();
    let theory =
        ebn0_db - 10.0 * (fs / 1e6).log10() + noise_floor_dbm(fs, sc.phy.noise_figure_db());
    println!(
        "{}: BER 1e-3 at {measured:.2} dBm, theory {theory:.2} dBm",
        sc.label()
    );
    assert!(
        (measured - theory).abs() <= BLE_CROSSING_BAND_DB,
        "{}: BER 1e-3 crossing {measured:.2} dBm is more than {BLE_CROSSING_BAND_DB} dB \
         from noncoherent BFSK's {theory:.2} dBm",
        sc.label()
    );
}
