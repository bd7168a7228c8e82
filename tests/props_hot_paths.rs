//! Property-based bit-identity contracts for the allocation-free hot
//! paths: for random configurations, seeds and signals, every
//! `_into` / prepared-pass variant must reproduce its
//! allocating reference **bit for bit** — buffer reuse is a
//! performance seam, never a semantics seam. Plus steady-state
//! no-allocation smoke checks on the sweep loop's buffers.

use proptest::prelude::*;

use tinysdr_ble::gfsk::{GfskModulator, GfskScratch};
use tinysdr_dsp::chirp::{dechirp_into, ChirpConfig, ChirpDirection, ChirpGenerator};
use tinysdr_dsp::complex::Complex;
use tinysdr_dsp::delay::{fractional_delay_into, resample_drift_into, DelayScratch};
use tinysdr_dsp::fir::demod_frontend;
use tinysdr_dsp::gaussian::GaussianFilter;
use tinysdr_rf::impairments::{ChainScratch, ImpairmentChain, PreparedPass};

/// Deterministic pseudo-random I/Q signal from a seed (content-keyed,
/// no ambient RNG — the workspace determinism rule).
fn tone(seed: u64, n: usize) -> Vec<Complex> {
    (0..n)
        .map(|i| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let p = (h >> 11) as f64 / (1u64 << 53) as f64;
            Complex::from_angle(p * std::f64::consts::TAU).scale(0.25 + 0.75 * p)
        })
        .collect()
}

proptest! {
    /// The prepared-pass replay through dirty reused buffers (scratch,
    /// pass state and output all left over from another signal) is
    /// bit-identical to `apply` with fresh ones, for a random subset of
    /// the nine chain stages, any seed and any RSSI.
    #[test]
    fn chain_buffered_and_prepared_match_apply(
        seed in any::<u64>(),
        sig_seed in any::<u64>(),
        rssi_dbm in -140.0f64..-40.0,
        mask in 0u32..128,
        adc_bits in 2u32..=24,
    ) {
        let mut chain = ImpairmentChain::new(6.0);
        if mask & 1 != 0 {
            chain = chain.with_timing_offset(0.25 + (mask as f64) / 300.0);
        }
        if mask & 2 != 0 {
            chain = chain.with_clock_drift_ppm(2.0);
        }
        if mask & 4 != 0 {
            chain = chain.with_iq_imbalance(1.0, 5.0);
        }
        if mask & 8 != 0 {
            chain = chain.with_cfo_hz(30.0 + mask as f64);
        }
        if mask & 16 != 0 {
            chain = chain.with_phase_noise(100.0);
        }
        if mask & 32 != 0 {
            chain = chain.with_block_fading(256);
        }
        if mask & 64 != 0 {
            chain = chain.with_adc_quantization(adc_bits);
        }
        let fs = 1e6;
        let tx = tone(sig_seed, 1024);
        let reference = chain.apply(&tx, rssi_dbm, fs, seed);

        let mut scratch = ChainScratch::new();
        let mut prep = PreparedPass::new();
        let mut out = Vec::new();
        chain.prepare_pass_into(&tone(!sig_seed, 1536), fs, !seed, &mut prep, &mut scratch);
        chain.apply_prepared_into(&prep, rssi_dbm - 7.0, &mut out);
        chain.prepare_pass_into(&tx, fs, seed, &mut prep, &mut scratch);
        chain.apply_prepared_into(&prep, rssi_dbm, &mut out);
        prop_assert_eq!(&reference, &out);
    }

    /// The `_into` DSP variants (fractional delay, drift resampler,
    /// FIR, chirp generator) are bit-identical to their
    /// allocating references on random signals, and the Gaussian
    /// shaper's output into a dirty buffer to a fresh one.
    #[test]
    fn dsp_into_variants_match_allocating(
        sig_seed in any::<u64>(),
        n in 96usize..192,
        delay in 0.0f64..8.0,
        ppm in -30.0f64..30.0,
        symbol in 0u32..128,
    ) {
        let x = tone(sig_seed, n);

        // the timing kernels into a dirty reused buffer and scratch
        // equal fresh ones
        let mut out = x.clone();
        let mut scratch = DelayScratch::new();
        let mut fresh = Vec::new();
        fractional_delay_into(&x, delay, &mut scratch, &mut out);
        fractional_delay_into(&x, delay, &mut DelayScratch::new(), &mut fresh);
        prop_assert_eq!(&fresh, &out);
        resample_drift_into(&x, ppm, &mut scratch, &mut out);
        let mut fresh = Vec::new();
        resample_drift_into(&x, ppm, &mut DelayScratch::new(), &mut fresh);
        prop_assert_eq!(&fresh, &out);

        let mut fir = demod_frontend(0.25);
        let filtered = fir.process(&x);
        fir.reset();
        fir.process_into(&x, &mut out);
        prop_assert_eq!(filtered, out.clone());

        let shaper = GaussianFilter::ble(4);
        let bits: Vec<i8> = (0..n / 8).map(|i| if (sig_seed >> (i % 64)) & 1 == 1 { 1 } else { -1 }).collect();
        // into a dirty buffer longer than the trajectory and a fresh one
        let mut freq = vec![f64::NAN; 3 * n];
        shaper.shape_into(&bits, 4, &mut freq);
        let mut fresh = Vec::new();
        shaper.shape_into(&bits, 4, &mut fresh);
        prop_assert_eq!(fresh, freq);

        let gen = ChirpGenerator::new(ChirpConfig::new(7, 125e3, 1));
        for dir in [ChirpDirection::Up, ChirpDirection::Down] {
            let allocating = gen.chirp(symbol, dir);
            gen.chirp_into(symbol, dir, &mut out);
            prop_assert_eq!(&allocating, &out);
            let reference = gen.dechirp_reference();
            dechirp_into(&allocating, &reference, &mut out);
            let manual: Vec<Complex> =
                allocating.iter().zip(&reference).map(|(&a, &b)| a * b).collect();
            prop_assert_eq!(manual, out.clone());
        }
    }
}

/// Steady-state sweep loop (prepare pass → replay per RSSI) touches no
/// allocator once the buffers are warm: the output vector's pointer and
/// capacity must stay fixed across passes and RSSI points.
#[test]
fn steady_state_sweep_loop_does_not_reallocate() {
    let chain = ImpairmentChain::new(6.0)
        .with_timing_offset(0.25)
        .with_cfo_hz(200.0)
        .with_block_fading(256)
        .with_adc_quantization(12);
    let fs = 1e6;
    let tx = tone(7, 2048);
    let mut scratch = ChainScratch::new();
    let mut prep = PreparedPass::new();
    let mut rx = Vec::new();
    // warm-up pass sizes every buffer
    chain.prepare_pass_into(&tx, fs, 0, &mut prep, &mut scratch);
    chain.apply_prepared_into(&prep, -90.0, &mut rx);
    let (ptr, cap) = (rx.as_ptr(), rx.capacity());
    for pass in 1..=10u64 {
        chain.prepare_pass_into(&tx, fs, pass, &mut prep, &mut scratch);
        for rssi_dbm in [-120.0, -100.0, -80.0, -60.0] {
            chain.apply_prepared_into(&prep, rssi_dbm, &mut rx);
            assert_eq!(rx.as_ptr(), ptr, "rx buffer reallocated at pass {pass}");
            assert_eq!(rx.capacity(), cap, "rx capacity changed at pass {pass}");
        }
    }
}

/// The modem-side scratch paths are likewise allocation-free in steady
/// state: a batch of equal-sized frames reuses one waveform buffer.
#[test]
fn modem_scratch_buffers_are_stable_in_steady_state() {
    let m = GfskModulator::new(4);
    let bits: Vec<u8> = (0..256).map(|i| ((i * 7) % 3 == 0) as u8).collect();
    let mut scratch = GfskScratch::new();
    let mut wave = Vec::new();
    m.modulate_into(&bits, &mut scratch, &mut wave);
    let (ptr, cap) = (wave.as_ptr(), wave.capacity());
    for i in 0..20 {
        m.modulate_into(&bits, &mut scratch, &mut wave);
        assert_eq!(
            wave.as_ptr(),
            ptr,
            "GFSK wave buffer reallocated at iter {i}"
        );
        assert_eq!(
            wave.capacity(),
            cap,
            "GFSK wave capacity changed at iter {i}"
        );
    }
}
