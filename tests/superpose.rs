//! Superposed linear receivers against the exact path: for random
//! chains (quantizing ones included), modems, seeds and RSSI grids,
//! every point `demodulate_pass` decides equals `apply_prepared_into` +
//! `demodulate` — for the stream receivers (LoRa SER, 802.15.4,
//! BLE) and the framed LoRa PER receiver — and exact ties are refused
//! and handed to the exact path. (The framed receiver's individual
//! decisions are tie-tested next to it, in `tinysdr_lora`; which curves
//! the waterfall engine superposes is tested in
//! `tinysdr_bench::waterfall`.)

use proptest::prelude::*;

use tinysdr_ble::gfsk::GfskModulator;
use tinysdr_ble::modem::BleBerPhy;
use tinysdr_dsp::chirp::{ChirpConfig, ChirpGenerator};
use tinysdr_dsp::complex::Complex;
use tinysdr_dsp::fir::demod_frontend;
use tinysdr_lora::modem::{LoraPerPhy, LoraSerPhy};
use tinysdr_lora::modulator::Transmitter;
use tinysdr_rf::impairments::{ChainScratch, ImpairmentChain, PreparedPass};
use tinysdr_rf::phy::{DemodResult, PhyModem};
use tinysdr_rf::superpose::{demodulate_pass, PathCensus, ReceiverScratch};
use tinysdr_zigbee::modem::ZigbeePhy;
use tinysdr_zigbee::oqpsk::OqpskModulator;

/// Every point of one prepared pass, through `demodulate_pass` and
/// through the exact path, plus the census.
fn both_paths(
    phy: &dyn PhyModem,
    chain: &ImpairmentChain,
    prep: &PreparedPass,
    rssis: &[f64],
) -> (Vec<DemodResult>, Vec<DemodResult>, PathCensus) {
    let mut got = vec![DemodResult::empty(); rssis.len()];
    let mut capture = Vec::new();
    let census = demodulate_pass(
        phy,
        chain,
        prep,
        rssis,
        &mut capture,
        &mut ReceiverScratch::default(),
        |i, res| got[i] = res,
    );
    let exact = rssis
        .iter()
        .map(|&rssi_dbm| {
            chain.apply_prepared_into(prep, rssi_dbm, &mut capture);
            phy.demodulate(&capture)
        })
        .collect();
    (got, exact, census)
}

/// Prepare one pass of `tx` through `chain` at `fs`.
fn prepare(chain: &ImpairmentChain, tx: &[Complex], fs: f64, seed: u64) -> PreparedPass {
    let mut prep = PreparedPass::new();
    chain.prepare_pass_into(tx, fs, seed, &mut prep, &mut ChainScratch::new());
    prep
}

/// The ADC stages a random chain ends in: none, or the radio's 13-bit
/// words and two coarser ones.
const ADC_BITS: [Option<u32>; 4] = [None, Some(13), Some(10), Some(8)];

/// A random subset of the impairments, ending in `adc_bits`-bit
/// quantization when given.
fn random_chain(mask: u32, coherence: usize, nf_db: f64, adc_bits: Option<u32>) -> ImpairmentChain {
    let mut chain = ImpairmentChain::new(nf_db);
    if let Some(bits) = adc_bits {
        chain = chain.with_adc_quantization(bits);
    }
    if mask & 1 != 0 {
        chain = chain.with_timing_offset(0.25 + (mask % 7) as f64 * 0.5);
    }
    if mask & 2 != 0 {
        chain = chain.with_clock_drift_ppm(if mask & 64 != 0 { -20.0 } else { 2.0 });
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
        chain = chain.with_block_fading(coherence);
    }
    chain
}

/// The stream modems with a linear receiver: LoRa SER at SF 7–10
/// (indices 0–23, see [`lora_case`]), 802.15.4 (index 24) and BLE
/// (index 25).
fn stream_modem(idx: usize) -> Box<dyn PhyModem> {
    match idx {
        0..24 => {
            let (sf, bw, tx) = lora_case(idx);
            Box::new(LoraSerPhy::new(sf, bw).with_transmitter(tx))
        }
        24 => Box::new(ZigbeePhy::new(2)),
        _ => Box::new(BleBerPhy::new(4)),
    }
}

/// The framed LoRa PER modem at SF 7–9 (indices 0–17, see
/// [`lora_case`]).
fn framed_modem(idx: usize) -> Box<dyn PhyModem> {
    let (sf, bw, tx) = lora_case(idx);
    Box::new(LoraPerPhy::new(sf, bw, 4).with_transmitter(tx))
}

/// LoRa case `idx`: both transmitters (the LUT and the ideal chirps) at
/// each of BW 125/250/500 kHz, six cases per SF from SF7 up.
fn lora_case(idx: usize) -> (u8, f64, Transmitter) {
    let tx = if idx.is_multiple_of(2) {
        Transmitter::TinySdr
    } else {
        Transmitter::Sx1276
    };
    let bw = [125e3, 250e3, 500e3][(idx / 2) % 3];
    (7 + (idx / 6) as u8, bw, tx)
}

/// One prepared pass of `frame` through a random chain, decided both
/// ways on a grid from the noise floor (error rate near 1) to well above
/// sensitivity (error rate 0): every point must match, none may run
/// without a linear receiver, and some must superpose unless the ADC
/// words are coarser than the radio's.
fn check_pass(
    phy: &dyn PhyModem,
    seed: u64,
    (mask, coherence, adc_bits): (u32, usize, Option<u32>),
    frame: &[u8],
    offset_db: f64,
) {
    let chain = random_chain(mask, coherence, phy.noise_figure_db(), adc_bits);
    let tx = phy.modulate(frame);
    let prep = prepare(&chain, &tx, phy.sample_rate_hz(), seed);
    let anchor = phy.sensitivity_anchor_dbm();
    let rssis: Vec<f64> = (0..8)
        .map(|i| anchor - 16.0 + offset_db + 6.0 * i as f64)
        .collect();
    let (got, exact, census) = both_paths(phy, &chain, &prep, &rssis);
    prop_assert_eq!(census.exact, 0);
    prop_assert_eq!(census.superposed + census.fallback, rssis.len() as u64);
    // the coarse words are there to stress the residual bound: their
    // half-LSB residual can cover every gap, so only the radio's
    // 13-bit words must leave some point to superpose
    if adc_bits.is_none_or(|bits| bits >= 13) {
        prop_assert!(census.superposed > 0, "nothing superposed: {:?}", census);
    }
    for (i, (g, e)) in got.iter().zip(&exact).enumerate() {
        prop_assert_eq!(
            g,
            e,
            "{} at {} dBm, ADC {:?}",
            phy.label(),
            rssis[i],
            adc_bits
        );
    }
}

proptest! {
    /// Superposition decides what the exact path decides, point by
    /// point, for the stream receivers.
    #[test]
    fn superposed_points_equal_the_exact_path(
        seed in any::<u64>(),
        modem in 0usize..26,
        mask in 0u32..128,
        coherence in 64usize..4096,
        adc in 0usize..4,
        frame_bytes in prop::collection::vec(any::<u8>(), 6..14),
        offset_db in 0.0f64..4.0,
    ) {
        let chain = (mask, coherence, ADC_BITS[adc]);
        check_pass(stream_modem(modem).as_ref(), seed, chain, &frame_bytes, offset_db);
    }

    /// The same for the framed LoRa PER receiver: preamble, refine,
    /// SFD, header and payload decisions over the superposition.
    #[test]
    fn superposed_frames_equal_the_exact_path(
        seed in any::<u64>(),
        modem in 0usize..18,
        mask in 0u32..128,
        coherence in 64usize..4096,
        adc in 0usize..4,
        payload in prop::collection::vec(any::<u8>(), 1..6),
        offset_db in 0.0f64..4.0,
    ) {
        let chain = (mask, coherence, ADC_BITS[adc]);
        check_pass(framed_modem(modem).as_ref(), seed, chain, &payload, offset_db);
    }
}

/// A noiseless chain: the prepared noise of a zero-bandwidth pass is
/// exactly zero, so the capture is the scaled signal alone.
const NOISELESS_FS: f64 = 0.0;

#[test]
fn lora_exact_ties_fall_back_to_the_exact_path() {
    // A one-window capture (the window feeds the filter the samples
    // after its group delay) whose last two samples leave exactly two
    // nonzero filtered samples, of equal magnitude, at the window's end.
    // Dechirped, they are two equal-amplitude tones whose spectrum
    // |e^{jφ} + e^{j2πk/N}| peaks at 2πk/N = φ; with φ halfway between
    // bins k₀ and k₀ + 1 those two bins tie, up to the rounding of the
    // capture itself, and no rounding of the superposition may pick one.
    let fir = demod_frontend(0.45);
    let (delay, h) = (fir.group_delay() as usize, fir.taps());
    for (sf, k0) in [(7u8, 17usize), (8, 200), (9, 3), (10, 511)] {
        let phy = LoraSerPhy::new(sf, 125e3);
        let n = 1usize << sf;
        let r = ChirpGenerator::new(ChirpConfig::new(sf, 125e3, 1)).dechirp_reference();
        let phi = std::f64::consts::TAU * (k0 as f64 + 0.5) / n as f64;
        // filtered window: w[n−2] = h₀·a, w[n−1] = h₀·b + h₁·a; after the
        // dechirp the second must be the first turned by φ
        let a = Complex::new(0.6, -0.8);
        let turned = (a.scale(h[0]) * r[n - 2] * Complex::from_angle(phi)) * r[n - 1].conj();
        let b = (turned - a.scale(h[1])).scale(1.0 / h[0]);
        let mut tx = vec![Complex::ZERO; n + delay];
        tx[n + delay - 2] = a;
        tx[n + delay - 1] = b;
        let chain = ImpairmentChain::new(phy.noise_figure_db());
        let prep = prepare(&chain, &tx, NOISELESS_FS, 3);
        assert!(prep.noise().iter().all(|z| z.norm_sqr() == 0.0));
        let rssis = [-131.0, -120.0, -100.0, -80.0, -37.5];
        let (got, exact, census) = both_paths(&phy, &chain, &prep, &rssis);
        assert_eq!(census.fallback, rssis.len() as u64, "SF{sf}: {census:?}");
        assert_eq!(got, exact, "SF{sf}");
        // the exact path settles the tie on one of the two bins
        let pair = [k0 as u16, (k0 + 1) as u16];
        assert!(got.iter().all(|r| pair.contains(&r.units[0])), "SF{sf}");
    }
}

#[test]
fn zigbee_exact_ties_fall_back_to_the_exact_path() {
    // a window halfway between two chip templates, c·(tₐ + t_b)/2, has
    // correlations c·(E + ρ)/2 and c·(E + ρ̄)/2 with them (E the common
    // template energy): equal magnitudes, whatever the complex c
    let phy = ZigbeePhy::new(2);
    let m = OqpskModulator::new(2);
    let c = Complex::from_angle(0.7).scale(0.5);
    for (a, b) in [(0u8, 1u8), (3, 12), (7, 8), (15, 2)] {
        let (ta, tb) = (m.modulate_symbols(&[a]), m.modulate_symbols(&[b]));
        let tx: Vec<Complex> = ta.iter().zip(&tb).map(|(&x, &y)| (x + y) * c).collect();
        let chain = ImpairmentChain::new(phy.noise_figure_db());
        let prep = prepare(&chain, &tx, NOISELESS_FS, 5);
        let rssis = [-110.0, -97.0, -83.0, -60.0, -41.5];
        let (got, exact, census) = both_paths(&phy, &chain, &prep, &rssis);
        assert_eq!(census.fallback, rssis.len() as u64, "{a}/{b}: {census:?}");
        assert_eq!(got, exact, "{a}/{b}");
        // the exact path settles the tie on one of the two templates
        assert!(got
            .iter()
            .all(|r| r.units == [a as u16] || r.units == [b as u16]));
    }
}

#[test]
fn ble_exact_ties_fall_back_to_the_exact_path() {
    // a three-bit capture c·(tₐ + t_b)/2 halfway between two 3-bit
    // templates: bits 0 and 1 are decided on the whole capture, where
    // the two correlations are c·(E + ρ)/2 and c·(E + ρ̄)/2 with the
    // common template energy E (GFSK is constant-envelope): equal
    // magnitudes, whatever the complex c
    let phy = BleBerPhy::new(4);
    let m = GfskModulator::new(4);
    let template = |p: u8| m.modulate(&[(p >> 2) & 1, (p >> 1) & 1, p & 1]);
    let c = Complex::from_angle(-1.1).scale(0.8);
    // pairs whose two templates out-correlate the other six on it
    for (a, b) in [(1u8, 2u8), (2, 4), (0, 6), (5, 6)] {
        let (ta, tb) = (template(a), template(b));
        let tx: Vec<Complex> = ta.iter().zip(&tb).map(|(&x, &y)| (x + y) * c).collect();
        let chain = ImpairmentChain::new(phy.noise_figure_db());
        let prep = prepare(&chain, &tx, NOISELESS_FS, 7);
        let rssis = [-100.0, -94.0, -81.0, -60.0, -33.5];
        let (got, exact, census) = both_paths(&phy, &chain, &prep, &rssis);
        assert_eq!(census.fallback, rssis.len() as u64, "{a}/{b}: {census:?}");
        assert_eq!(got, exact, "{a}/{b}");
        assert!(got.iter().all(|r| r.units.len() == 3), "{a}/{b}");
    }
}
