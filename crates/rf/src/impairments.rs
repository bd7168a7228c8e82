//! Composable channel impairments for PHY conformance sweeps.
//!
//! The paper's sensitivity figures (10–12, 15) sweep received power
//! through a calibrated AWGN channel. Real links add more than noise:
//! LO offset and phase noise, sampling-clock error, I/Q path mismatch,
//! multipath fading, and the ADC's finite word width. [`ImpairmentChain`]
//! stacks those effects in their physical order and ends in calibrated
//! AWGN at the receiver's thermal floor, so a conformance sweep can ask
//! "what does the SF8 waterfall look like with 2 ppm clock drift and a
//! 1 dB I/Q gain error?" and get a reproducible answer. It is the
//! workspace's one noise model: every noisy capture goes through
//! [`ImpairmentChain::apply`] or a prepared pass.
//!
//! The chain is **stateless and deterministic**: [`ImpairmentChain::apply`]
//! takes an explicit seed and derives one independent splitmix64 stream
//! per randomized stage, so the same `(chain, signal, seed)` triple
//! produces bit-identical output on any thread of any shard — the same
//! contract the OTA campaign engine enforces.
//!
//! Every capture takes one path through the stages:
//! [`ImpairmentChain::prepare_pass_into`] runs the RSSI-independent
//! work of a `(tx, fs, seed)` pass (stages 1–5, the fading draws and
//! the AWGN vector), and [`ImpairmentChain::apply_prepared_into`]
//! replays it at one RSSI point (stages 6–9). [`ImpairmentChain::apply`]
//! is that pair with fresh buffers; a sweep prepares once per pass and
//! replays per point.
//!
//! After the RSSI-independent front half, a prepared pass is
//! superposable: stages 6–8 are linear, so the capture at RSSI `r` is
//! `g(r)·s + n` for the pass's faded signal `s` and noise `n`, and stage
//! 9 adds a residual that [`ImpairmentChain::residual_bounds`] bounds
//! per point (the AGC keeps every rail below full scale, so nothing
//! clips). [`crate::superpose`] decides receivers from that form.
//!
//! Stage order (TX → antenna → RX):
//!
//! 1. fractional sample-timing offset ([`tinysdr_dsp::delay`])
//! 2. sample-clock drift (ppm resampling)
//! 3. transmitter I/Q gain/phase imbalance
//! 4. carrier frequency offset
//! 5. oscillator phase noise (Wiener process of a given linewidth)
//! 6. scale to the wanted RSSI
//! 7. block Rayleigh fading (unit mean power)
//! 8. calibrated AWGN at the receiver noise figure
//! 9. ADC quantization at the LVDS word width (AGC'd to full scale)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinysdr_dsp::complex::{mean_power, Complex};
use tinysdr_dsp::delay::{fractional_delay_into, resample_drift_into, DelayScratch};
use tinysdr_dsp::fixed::Quantizer;

use crate::units::{db_to_lin, dbm_to_mw, noise_floor_dbm};

/// splitmix64 finalizer (same avalanche the OTA seed derivation uses);
/// kept local so the RF substrate stays below the OTA layer.
#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the RNG seed for one named stage of one chain application.
#[inline]
fn stage_seed(seed: u64, tag: u64) -> u64 {
    splitmix64(seed ^ splitmix64(tag))
}

/// Stream tag for the phase-noise Wiener process.
const TAG_PHASE_NOISE: u64 = 0x7A5E_0001;
/// Stream tag for the block-fading coefficient draws.
const TAG_FADING: u64 = 0xFADE_0002;
/// Stream tag for the AWGN stage.
const TAG_NOISE: u64 = 0xA36A_0003;

/// One pair of independent standard Gaussian samples via Box–Muller:
/// the statistical kernel behind every randomized stage (phase noise,
/// fading, AWGN).
#[inline]
fn gauss_pair(rng: &mut StdRng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = std::f64::consts::TAU * u2;
    (r * theta.cos(), r * theta.sin())
}

/// The fraction of full scale the AGC maps a capture's peak rail to
/// before stage 9 quantizes it. Below 1, so no rail clips: every
/// quantized rail lies within half an LSB of its input.
pub const AGC_TARGET: f64 = 0.9;

/// A deterministic stack of channel impairments ending in calibrated
/// AWGN. Build with [`ImpairmentChain::new`] plus the `with_*` builder
/// methods; apply with [`ImpairmentChain::apply`], or prepare a pass once
/// ([`ImpairmentChain::prepare_pass_into`]) and replay it per RSSI point
/// ([`ImpairmentChain::apply_prepared_into`]).
///
/// The fields are private so the builder invariants (non-negative timing
/// offset, valid ADC word width, …) cannot be bypassed by hand-editing a
/// constructed chain; read them back through the accessor methods.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpairmentChain {
    noise_figure_db: f64,
    timing_offset_samples: f64,
    clock_drift_ppm: f64,
    iq_gain_db: f64,
    iq_phase_deg: f64,
    cfo_hz: f64,
    phase_noise_linewidth_hz: f64,
    fading_block_samples: Option<usize>,
    adc_bits: Option<u32>,
}

impl ImpairmentChain {
    /// A chain with no impairments beyond calibrated AWGN at the given
    /// receiver noise figure: the plain noisy channel the paper's
    /// sensitivity figures sweep. A silent `tx` (mean power 0) is left
    /// unscaled, so its capture is the noise alone.
    pub fn new(noise_figure_db: f64) -> Self {
        ImpairmentChain {
            noise_figure_db,
            timing_offset_samples: 0.0,
            clock_drift_ppm: 0.0,
            iq_gain_db: 0.0,
            iq_phase_deg: 0.0,
            cfo_hz: 0.0,
            phase_noise_linewidth_hz: 0.0,
            fading_block_samples: None,
            adc_bits: None,
        }
    }

    /// Replace the receiver noise figure (a conformance grid reuses one
    /// impairment recipe across receivers with different front ends).
    pub fn with_noise_figure(mut self, noise_figure_db: f64) -> Self {
        self.noise_figure_db = noise_figure_db;
        self
    }

    /// Add a sample-timing offset (integer + fractional samples, ≥ 0).
    pub fn with_timing_offset(mut self, samples: f64) -> Self {
        assert!(samples >= 0.0, "timing offset must be non-negative");
        self.timing_offset_samples = samples;
        self
    }

    /// Add sample-clock drift in ppm.
    pub fn with_clock_drift_ppm(mut self, ppm: f64) -> Self {
        self.clock_drift_ppm = ppm;
        self
    }

    /// Add transmitter I/Q imbalance: `gain_db` on the Q rail relative
    /// to I, plus a quadrature error of `phase_deg` degrees.
    pub fn with_iq_imbalance(mut self, gain_db: f64, phase_deg: f64) -> Self {
        self.iq_gain_db = gain_db;
        self.iq_phase_deg = phase_deg;
        self
    }

    /// Add a carrier frequency offset in Hz.
    pub fn with_cfo_hz(mut self, cfo_hz: f64) -> Self {
        self.cfo_hz = cfo_hz;
        self
    }

    /// Add oscillator phase noise as a Wiener process whose per-sample
    /// variance is `2π·linewidth/fs` (Lorentzian linewidth model).
    pub fn with_phase_noise(mut self, linewidth_hz: f64) -> Self {
        assert!(linewidth_hz >= 0.0, "linewidth must be non-negative");
        self.phase_noise_linewidth_hz = linewidth_hz;
        self
    }

    /// Add block Rayleigh fading with the given coherence length in
    /// samples. The complex channel coefficient is redrawn per block
    /// from CN(0, 1), so the *expected* receive power still equals the
    /// requested RSSI.
    pub fn with_block_fading(mut self, coherence_samples: usize) -> Self {
        assert!(coherence_samples > 0, "coherence must be positive");
        self.fading_block_samples = Some(coherence_samples);
        self
    }

    /// Quantize the received waveform to `bits`-bit I/Q words (the LVDS
    /// data path of Fig. 4 carries 13-bit words).
    ///
    /// # Panics
    /// Panics if `bits` is outside `2..=24` — the word widths
    /// [`Quantizer::new`] supports. Validating here keeps the panic at
    /// the builder instead of deep inside a sweep's `apply` call.
    pub fn with_adc_quantization(mut self, bits: u32) -> Self {
        assert!(
            (2..=24).contains(&bits),
            "ADC word width must be 2..=24 bits, got {bits}"
        );
        self.adc_bits = Some(bits);
        self
    }

    /// Receiver noise figure in dB for the final AWGN stage.
    pub fn noise_figure_db(&self) -> f64 {
        self.noise_figure_db
    }

    /// Sample-timing offset in samples (integer + fractional), ≥ 0.
    pub fn timing_offset_samples(&self) -> f64 {
        self.timing_offset_samples
    }

    /// Sample-clock drift in parts per million (positive: RX clock fast).
    pub fn clock_drift_ppm(&self) -> f64 {
        self.clock_drift_ppm
    }

    /// I/Q gain imbalance in dB (Q rail relative to I rail).
    pub fn iq_gain_db(&self) -> f64 {
        self.iq_gain_db
    }

    /// I/Q phase (quadrature) error in degrees.
    pub fn iq_phase_deg(&self) -> f64 {
        self.iq_phase_deg
    }

    /// Carrier frequency offset in Hz.
    pub fn cfo_hz(&self) -> f64 {
        self.cfo_hz
    }

    /// Oscillator Lorentzian linewidth in Hz (0: phase noise disabled).
    pub fn phase_noise_linewidth_hz(&self) -> f64 {
        self.phase_noise_linewidth_hz
    }

    /// Block-fading coherence length in samples (`None`: fading disabled).
    pub fn fading_block_samples(&self) -> Option<usize> {
        self.fading_block_samples
    }

    /// ADC word width in bits (`None`: the float path, no quantization).
    pub fn adc_bits(&self) -> Option<u32> {
        self.adc_bits
    }

    /// `true` if the chain is AWGN-only (no extra impairments).
    pub fn is_awgn_only(&self) -> bool {
        self.timing_offset_samples == 0.0
            && self.clock_drift_ppm == 0.0
            && self.iq_gain_db == 0.0
            && self.iq_phase_deg == 0.0
            && self.cfo_hz == 0.0
            && self.phase_noise_linewidth_hz == 0.0
            && self.fading_block_samples.is_none()
            && self.adc_bits.is_none()
    }

    /// `true` if every pass of one waveform has the same faded signal
    /// ([`PreparedPass::faded_signal`]): no phase noise and no fading,
    /// the two seeded stages before the gain. Only the noise (and the
    /// quantization it feeds) then differs between passes.
    pub fn has_pass_invariant_signal(&self) -> bool {
        self.phase_noise_linewidth_hz == 0.0 && self.fading_block_samples.is_none()
    }

    /// Run a transmit waveform through the chain: impairments in
    /// physical order, scaled to `rssi_dbm`, noise for a simulation
    /// bandwidth of `fs` Hz, and (optionally) ADC quantization.
    ///
    /// Deterministic: the output depends only on `(self, tx, rssi_dbm,
    /// fs, seed)` — never on threads, shards or call order.
    ///
    /// This is [`ImpairmentChain::prepare_pass_into`] followed by
    /// [`ImpairmentChain::apply_prepared_into`], with the replay run in
    /// place over the prepared front half: two capture-sized buffers
    /// (front half and noise), the first returned as the capture. A
    /// sweep over many RSSI points prepares once and replays per point.
    pub fn apply(&self, tx: &[Complex], rssi_dbm: f64, fs: f64, seed: u64) -> Vec<Complex> {
        let mut prep = PreparedPass::new();
        self.prepare_pass_into(tx, fs, seed, &mut prep, &mut ChainScratch::new());
        let mut capture = std::mem::take(&mut prep.front);
        self.replay_in_place(&prep, rssi_dbm, &mut capture);
        capture
    }

    /// Stages 1–4 of the chain (timing, drift, I/Q imbalance, CFO) into
    /// `front`. None of them is seeded, so a sweep whose passes share one
    /// waveform runs them once and starts every pass from `front` with
    /// [`ImpairmentChain::prepare_pass_from`].
    pub fn prepare_front_into(
        &self,
        tx: &[Complex],
        fs: f64,
        front: &mut Vec<Complex>,
        scratch: &mut ChainScratch,
    ) {
        let out = front;
        // 1. sample-timing offset, 2. sample-clock drift. The resampler
        // cannot run in place, so only a chain with both stages goes
        // through the scratch buffer; drift alone resamples `tx` itself.
        let (mu, ppm) = (self.timing_offset_samples, self.clock_drift_ppm);
        match (mu > 0.0, ppm != 0.0) {
            (true, true) => {
                fractional_delay_into(tx, mu, &mut scratch.delay, &mut scratch.tmp);
                resample_drift_into(&scratch.tmp, ppm, &mut scratch.delay, out);
            }
            (true, false) => fractional_delay_into(tx, mu, &mut scratch.delay, out),
            (false, true) => resample_drift_into(tx, ppm, &mut scratch.delay, out),
            (false, false) => {
                out.clear();
                out.extend_from_slice(tx);
            }
        }
        // 3. I/Q imbalance: y = μ·x + ν·conj(x) with g the linear gain
        // ratio and φ the quadrature error
        if self.iq_gain_db != 0.0 || self.iq_phase_deg != 0.0 {
            let g = db_to_lin(self.iq_gain_db / 2.0); // amplitude ratio
            let phi = self.iq_phase_deg.to_radians();
            let e = Complex::from_angle(phi);
            let mu = (Complex::ONE + e.scale(g)).scale(0.5);
            let nu = (Complex::ONE - e.conj().scale(g)).scale(0.5);
            for z in out.iter_mut() {
                *z = mu * *z + nu * z.conj();
            }
        }
        // 4. carrier frequency offset
        if self.cfo_hz != 0.0 {
            crate::channel::apply_cfo(out, self.cfo_hz, fs);
        }
    }

    /// Stage 5, phase noise (Wiener process), in place; Box–Muller
    /// yields two Gaussians per draw — use both, alternating samples.
    fn apply_phase_noise(&self, out: &mut [Complex], fs: f64, seed: u64) {
        if self.phase_noise_linewidth_hz > 0.0 {
            let sigma = (std::f64::consts::TAU * self.phase_noise_linewidth_hz / fs).sqrt();
            let mut rng = StdRng::seed_from_u64(stage_seed(seed, TAG_PHASE_NOISE));
            let mut phase = 0.0f64;
            let mut spare: Option<f64> = None;
            for z in out.iter_mut() {
                *z *= Complex::from_angle(phase);
                let n = match spare.take() {
                    Some(n) => n,
                    None => {
                        let (a, b) = gauss_pair(&mut rng);
                        spare = Some(b);
                        a
                    }
                };
                phase += sigma * n;
            }
        }
    }

    /// Stage 9, ADC quantization with AGC, against a peak rail the
    /// caller already folded (in sample order, from 0, with `f64::max`):
    /// scale the peak rail to [`AGC_TARGET`] of full scale, quantize,
    /// scale back (the AGC keeps downstream power arithmetic in dBm
    /// intact).
    fn quantize_at_peak(&self, sig: &mut [Complex], peak: f64) {
        if let Some(bits) = self.adc_bits {
            let q = Quantizer::new(bits);
            if peak > 0.0 {
                let agc = AGC_TARGET / peak;
                for z in sig.iter_mut() {
                    *z = q.round_trip_iq(z.scale(agc)).scale(1.0 / agc);
                }
            }
        }
    }

    /// Precompute everything about one `(tx, fs, seed)` pass that does
    /// not depend on the target RSSI: the front half of the chain
    /// (stages 1–5), its mean power, the per-block fading coefficients
    /// and the full AWGN noise vector. A sweep curve then replays the
    /// pass at each RSSI point with [`ImpairmentChain::apply_prepared_into`],
    /// skipping the expensive interpolation and Gaussian draws — with
    /// bit-identical output, because every stage's RNG stream is keyed
    /// on `seed` alone and the per-point arithmetic is unchanged.
    ///
    /// This is [`ImpairmentChain::prepare_front_into`] followed by
    /// [`ImpairmentChain::prepare_pass_from`]'s seeded stages, without
    /// the copy of the front half between them.
    pub fn prepare_pass_into(
        &self,
        tx: &[Complex],
        fs: f64,
        seed: u64,
        prep: &mut PreparedPass,
        scratch: &mut ChainScratch,
    ) {
        self.prepare_front_into(tx, fs, &mut prep.front, scratch);
        self.prepare_seeded(fs, seed, prep);
    }

    /// [`ImpairmentChain::prepare_pass_into`] from stages 1–4 that
    /// [`ImpairmentChain::prepare_front_into`] already ran on the same
    /// `(tx, fs)`: only the seeded stages (phase noise, fading draws,
    /// AWGN) run per pass. Bit-identical to `prepare_pass_into`.
    pub fn prepare_pass_from(
        &self,
        front: &[Complex],
        fs: f64,
        seed: u64,
        prep: &mut PreparedPass,
    ) {
        prep.front.clear();
        prep.front.extend_from_slice(front);
        self.prepare_seeded(fs, seed, prep);
    }

    /// The seeded part of a pass on `prep.front` (stages 1–4 applied):
    /// stage 5 in place, the front half's mean power, the fading
    /// coefficients and the noise vector.
    fn prepare_seeded(&self, fs: f64, seed: u64, prep: &mut PreparedPass) {
        self.apply_phase_noise(&mut prep.front, fs, seed);
        prep.front_power = mean_power(&prep.front);
        prep.fading_block = self.fading_block_samples;
        prep.fading.clear();
        if let Some(block) = self.fading_block_samples {
            let mut rng = StdRng::seed_from_u64(stage_seed(seed, TAG_FADING));
            let mut i = 0;
            while i < prep.front.len() {
                let (re, im) = gauss_pair(&mut rng);
                prep.fading
                    .push(Complex::new(re, im).scale(std::f64::consts::FRAC_1_SQRT_2));
                i += block;
            }
        }
        self.awgn_into(prep.front.len(), fs, seed, &mut prep.noise);
    }

    /// Stage 8's draws, `n` samples into `out` (cleared first): complex
    /// white Gaussian noise at the receiver's thermal floor
    /// `N = −174 dBm/Hz + 10·log10(fs) + NF`, split equally across I and
    /// Q. `fs` is the simulation (sampling) bandwidth, not the signal's
    /// occupied one: a narrowband signal in a wide `fs` sees more total
    /// noise, and the receiver's filtering recovers the SNR, as in
    /// hardware.
    fn awgn_into(&self, n: usize, fs: f64, seed: u64, out: &mut Vec<Complex>) {
        let n_mw = dbm_to_mw(noise_floor_dbm(fs, self.noise_figure_db));
        let mut rng = StdRng::seed_from_u64(stage_seed(seed, TAG_NOISE));
        out.clear();
        out.reserve(n);
        for _ in 0..n {
            let sigma = (n_mw / 2.0).sqrt();
            let (i, q) = gauss_pair(&mut rng);
            out.push(Complex::new(sigma * i, sigma * q));
        }
    }

    /// Replay a prepared pass at one RSSI point: copy the front half,
    /// scale to `rssi_dbm`, apply the precomputed fading blocks, add the
    /// precomputed noise vector, quantize. Must be called with the same
    /// chain that prepared `prep`; the output is then what
    /// [`ImpairmentChain::apply`] returns at the same `(tx, rssi_dbm, fs,
    /// seed)`.
    ///
    /// The front half is copied into `out` and replayed there in place.
    pub fn apply_prepared_into(&self, prep: &PreparedPass, rssi_dbm: f64, out: &mut Vec<Complex>) {
        out.clear();
        out.extend_from_slice(&prep.front);
        self.replay_in_place(prep, rssi_dbm, out);
    }

    /// Stages 6–9 of `prep` at `rssi_dbm` over `capture`, which holds
    /// the pass's front half: stages 6–8 and the AGC peak in one pass,
    /// each sample taking the stages in chain order, then stage 9 when
    /// the chain quantizes.
    fn replay_in_place(&self, prep: &PreparedPass, rssi_dbm: f64, capture: &mut [Complex]) {
        let gain = prep.rssi_gain(rssi_dbm);
        let agc = self.adc_bits.is_some();
        let mut peak = 0.0f64;
        let block = prep.block_len();
        let blocks = capture.chunks_mut(block).zip(prep.noise.chunks(block));
        for (b, (samples, noise)) in blocks.enumerate() {
            let fade = prep.fade(b);
            for (z, &n) in samples.iter_mut().zip(noise) {
                *z = received(*z, n, gain, fade);
                if agc {
                    peak = peak.max(rail(*z));
                }
            }
        }
        // 9. ADC quantization
        self.quantize_at_peak(capture, peak);
    }

    /// The AGC's peak rail of [`ImpairmentChain::apply_prepared_into`]'s
    /// capture at `rssi_dbm`, without forming it: 0 without ADC stage.
    pub(crate) fn capture_peak(&self, prep: &PreparedPass, rssi_dbm: f64) -> f64 {
        if self.adc_bits.is_none() {
            return 0.0;
        }
        let gain = prep.rssi_gain(rssi_dbm);
        let mut peak = 0.0f64;
        let block = prep.block_len();
        let blocks = prep.front.chunks(block).zip(prep.noise.chunks(block));
        for (b, (front, noise)) in blocks.enumerate() {
            let fade = prep.fade(b);
            for (&x, &n) in front.iter().zip(noise) {
                peak = peak.max(rail(received(x, n, gain, fade)));
            }
        }
        peak
    }

    /// Samples `span` of [`ImpairmentChain::apply_prepared_into`]'s
    /// capture at `rssi_dbm`, written to `out[span]`, given the capture's
    /// peak rail ([`ImpairmentChain::capture_peak`]): each sample takes
    /// the same stages with the same arithmetic, so it is bit-identical
    /// to the whole capture's.
    ///
    /// # Panics
    /// Panics if `span` reaches past the pass or past `out`.
    pub(crate) fn apply_prepared_span(
        &self,
        prep: &PreparedPass,
        rssi_dbm: f64,
        peak: f64,
        span: std::ops::Range<usize>,
        out: &mut [Complex],
    ) {
        let gain = prep.rssi_gain(rssi_dbm);
        // lint: allow(unchecked-index, the caller keeps `span` inside the pass)
        let (front, noise) = (&prep.front[span.clone()], &prep.noise[span.clone()]);
        // lint: allow(unchecked-index, the caller keeps `span` inside `out`)
        let out = &mut out[span.clone()];
        for ((k, o), (&x, &n)) in span.zip(out.iter_mut()).zip(front.iter().zip(noise)) {
            let fade = prep.fading_block.and_then(|block| prep.fade(k / block));
            *o = received(x, n, gain, fade);
        }
        self.quantize_at_peak(out, peak);
    }

    /// A bound `ρ` per point on what stage 9 adds to a prepared pass:
    /// at the point's gain `g`, every sample of
    /// [`ImpairmentChain::apply_prepared_into`] lies within `ρ` of the
    /// capture the chain quantizes, `g·s + n` for the pass's faded
    /// signal `s` ([`PreparedPass::faded_signal`]) and noise `n`
    /// ([`PreparedPass::noise`]). Every `ρ` is 0 without ADC stage.
    ///
    /// The AGC maps the capture's peak rail `P` to [`AGC_TARGET`] of full
    /// scale, so nothing clips and each rail rounds by at most half an
    /// LSB, `P / (2·AGC_TARGET·max_code)` once scaled back; a sample's
    /// two rails give the `√2`. `P` is bounded without forming the
    /// capture, by `rail(g·s_k + n_k) ≤ g·max rail(s) + max rail(n)`.
    /// The factor `1 + 10⁻⁶` covers the rounding of the AGC, the
    /// quantizer and that bound: a few ε = 2⁻⁵³ of full scale each, at
    /// most `8ε·max_code ≤ 2⁻²⁷` of an LSB at 24 bits.
    ///
    /// `gains` holds each point's stage-6 gain
    /// ([`PreparedPass::rssi_gain`]); a point without one (a silent
    /// front half) is bounded at `g = 1`, since stage 6 leaves it
    /// unscaled.
    pub fn residual_bounds(
        &self,
        signal: &[Complex],
        noise: &[Complex],
        gains: &[Option<f64>],
    ) -> Vec<f64> {
        let Some(bits) = self.adc_bits else {
            return vec![0.0; gains.len()];
        };
        let max_rail = |x: &[Complex]| x.iter().map(|&z| rail(z)).fold(0.0f64, f64::max);
        let (signal_peak, noise_peak) = (max_rail(signal), max_rail(noise));
        // the residual's magnitude per unit of peak rail
        let per_peak =
            std::f64::consts::SQRT_2 / (2.0 * AGC_TARGET * Quantizer::new(bits).max_code() as f64);
        gains
            .iter()
            .map(|g| (g.unwrap_or(1.0) * signal_peak + noise_peak) * per_peak * (1.0 + 1e-6))
            .collect()
    }
}

/// Stages 6–8 of one sample: scale the front half's sample `x` by the
/// stage-6 gain, apply its block's fading coefficient (stage 7), add
/// its prepared noise draw `n` (stage 8).
#[inline]
fn received(x: Complex, n: Complex, gain: Option<f64>, fade: Option<Complex>) -> Complex {
    let mut z = x;
    if let Some(g) = gain {
        z = z.scale(g);
    }
    if let Some(h) = fade {
        z *= h;
    }
    z += n;
    z
}

/// The AGC's view of one sample: its larger rail magnitude.
#[inline]
fn rail(z: Complex) -> f64 {
    z.re.abs().max(z.im.abs())
}

/// Reusable scratch buffers for the chain's front half
/// ([`ImpairmentChain::prepare_front_into`]): the interpolation
/// window/kernel plus the timing stage's output, which the drift stage
/// then resamples. One per worker thread is enough.
#[derive(Debug, Clone, Default)]
pub struct ChainScratch {
    delay: DelayScratch,
    tmp: Vec<Complex>,
}

impl ChainScratch {
    /// Fresh scratch; buffers grow lazily to the working size.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The RSSI-independent precomputation of one impairment pass: front
/// half (stages 1–5), its mean power, fading coefficients and noise
/// vector. Built by [`ImpairmentChain::prepare_pass_into`], replayed per
/// RSSI point by [`ImpairmentChain::apply_prepared_into`].
#[derive(Debug, Clone, Default)]
pub struct PreparedPass {
    front: Vec<Complex>,
    front_power: f64,
    fading: Vec<Complex>,
    fading_block: Option<usize>,
    noise: Vec<Complex>,
}

impl PreparedPass {
    /// Fresh (empty) pass state; buffers grow lazily.
    pub fn new() -> Self {
        Self::default()
    }

    /// The stage-6 amplitude gain that scales the front half to
    /// `rssi_dbm`: `√(mW(rssi) / P_front)`, the arithmetic of
    /// `normalize_power` with the front half's mean power cached across
    /// points. `None` for a silent front half, which stage 6 leaves
    /// unscaled.
    // lint: allow(unit-suffix, a dimensionless amplitude ratio on digital-domain samples)
    pub fn rssi_gain(&self, rssi_dbm: f64) -> Option<f64> {
        let p = self.front_power;
        (p > 0.0).then(|| (dbm_to_mw(rssi_dbm) / p).sqrt())
    }

    /// The front half with its block-fading coefficients applied
    /// (`h∘F`): the front half itself when the chain does not fade,
    /// otherwise written into `buf`. A chain replays the pass at RSSI
    /// `r` as `g(r)·faded_signal + noise` up to rounding, plus the
    /// quantization residual that [`ImpairmentChain::residual_bounds`]
    /// bounds when it has an ADC stage.
    pub fn faded_signal<'a>(&'a self, buf: &'a mut Vec<Complex>) -> &'a [Complex] {
        let Some(block) = self.fading_block else {
            return &self.front;
        };
        buf.clear();
        for (front, &h) in self.front.chunks(block).zip(&self.fading) {
            buf.extend(front.iter().map(|&x| x * h));
        }
        buf
    }

    /// Samples per stage-7 block: the fading coherence length, or the
    /// whole pass as one block without fading. The prepared noise vector
    /// and fading blocks cover the front half exactly
    /// (`prepare_pass_into` sizes them from it).
    fn block_len(&self) -> usize {
        self.fading_block.unwrap_or(usize::MAX)
    }

    /// Block `b`'s fading coefficient; `None` without fading.
    fn fade(&self, b: usize) -> Option<Complex> {
        self.fading_block.and_then(|_| self.fading.get(b).copied())
    }

    /// The prepared AWGN vector (stage 8), one sample per front-half
    /// sample.
    pub fn noise(&self) -> &[Complex] {
        &self.noise
    }

    /// Length of the prepared waveform in samples.
    pub fn len(&self) -> usize {
        self.front.len()
    }

    /// `true` if nothing has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.front.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::measure_rssi_dbm;
    use crate::units::noise_floor_dbm;
    use tinysdr_dsp::complex::mean_power;
    use tinysdr_dsp::fft::{fft, peak_bin};
    use tinysdr_dsp::nco::ideal_tone;

    const FS: f64 = 1e6;

    /// Strong enough that the physical noise floor (−114 dBm at 1 MHz)
    /// is ~100 dB down and linear-stage assertions are clean.
    const LOUD: f64 = -10.0;

    #[test]
    fn awgn_only_chain_is_calibrated() {
        // signal power lands on the requested RSSI and the added noise
        // matches the physical floor for (fs, NF)
        let chain = ImpairmentChain::new(5.0);
        assert!(chain.is_awgn_only());
        let tx = ideal_tone(100e3, FS, 100_000);
        let rx = chain.apply(&tx, -60.0, FS, 42);
        let total = measure_rssi_dbm(&rx);
        // at −60 dBm the −109 dBm noise floor is invisible
        assert!((total + 60.0).abs() < 0.05, "RSSI {total}");
        // noise-only residual: subtract the scaled signal
        let sig_mw = crate::units::dbm_to_mw(-60.0);
        let scale = (sig_mw / mean_power(&tx)).sqrt();
        let resid: Vec<Complex> = rx
            .iter()
            .zip(&tx)
            .map(|(&r, &t)| r - t.scale(scale))
            .collect();
        let n_dbm = measure_rssi_dbm(&resid);
        let want = noise_floor_dbm(FS, 5.0);
        assert!((n_dbm - want).abs() < 0.2, "noise {n_dbm} vs {want}");
    }

    #[test]
    fn apply_is_deterministic_in_the_seed() {
        let chain = ImpairmentChain::new(4.5)
            .with_cfo_hz(1e3)
            .with_phase_noise(50.0)
            .with_block_fading(256);
        let tx = ideal_tone(50e3, FS, 4096);
        let a = chain.apply(&tx, -90.0, FS, 7);
        let b = chain.apply(&tx, -90.0, FS, 7);
        assert_eq!(a, b, "same seed must be bit-identical");
        let c = chain.apply(&tx, -90.0, FS, 8);
        assert_ne!(a, c, "different seed must differ");
    }

    #[test]
    fn cfo_stage_shifts_the_tone() {
        let n = 4096;
        let bin = FS / n as f64;
        let chain = ImpairmentChain::new(4.5).with_cfo_hz(32.0 * bin);
        let tx = ideal_tone(100.0 * bin, FS, n);
        let rx = chain.apply(&tx, LOUD, FS, 1);
        let (k, _) = peak_bin(&fft(&rx)).unwrap();
        assert_eq!(k, 132);
    }

    #[test]
    fn iq_imbalance_creates_the_predicted_image() {
        // a +f tone through an imbalanced front end grows an image at −f
        // with power |ν|²/|μ|²
        let n = 8192;
        let bin = FS / n as f64;
        let gain_db = 1.0;
        let phase_deg = 5.0;
        let chain = ImpairmentChain::new(4.5).with_iq_imbalance(gain_db, phase_deg);
        let tx = ideal_tone(200.0 * bin, FS, n);
        let rx = chain.apply(&tx, LOUD, FS, 3);
        let spec = fft(&rx);
        let direct = spec[200].norm_sqr();
        let image = spec[n - 200].norm_sqr();
        let g = db_to_lin(gain_db / 2.0);
        let phi = phase_deg.to_radians();
        let e = Complex::from_angle(phi);
        let mu = (Complex::ONE + e.scale(g)).scale(0.5);
        let nu = (Complex::ONE - e.conj().scale(g)).scale(0.5);
        let want_db = 10.0 * (nu.norm_sqr() / mu.norm_sqr()).log10();
        let got_db = 10.0 * (image / direct).log10();
        assert!(
            (got_db - want_db).abs() < 1.0,
            "image {got_db:.1} dB vs predicted {want_db:.1} dB"
        );
    }

    #[test]
    fn timing_offset_grows_the_buffer_and_keeps_power() {
        let chain = ImpairmentChain::new(4.5).with_timing_offset(17.5);
        let tx = ideal_tone(50e3, FS, 4096);
        let rx = chain.apply(&tx, LOUD, FS, 4);
        assert!(rx.len() > tx.len());
        assert!((measure_rssi_dbm(&rx[64..4000]) - LOUD).abs() < 0.3);
    }

    #[test]
    fn fading_keeps_unit_mean_power_across_blocks() {
        // many independent Rayleigh blocks average to the requested RSSI
        let chain = ImpairmentChain::new(0.0).with_block_fading(64);
        let tx = ideal_tone(50e3, FS, 128 * 64);
        let rx = chain.apply(&tx, LOUD, FS, 5);
        let got = measure_rssi_dbm(&rx);
        assert!((got - LOUD).abs() < 1.0, "mean faded power {got} dBm");
        // and individual blocks actually fade (non-constant envelope)
        let p0 = mean_power(&rx[..64]);
        let p1 = mean_power(&rx[64 * 7..64 * 8]);
        assert!(
            (10.0 * (p0 / p1).log10()).abs() > 0.1,
            "blocks should differ"
        );
    }

    #[test]
    fn phase_noise_preserves_envelope_and_decorrelates_phase() {
        let chain = ImpairmentChain::new(0.0).with_phase_noise(500.0);
        let tx = ideal_tone(50e3, FS, 50_000);
        let rx = chain.apply(&tx, LOUD, FS, 6);
        // envelope preserved (noise floor is ~100 dB down at −10 dBm)
        assert!((measure_rssi_dbm(&rx) - LOUD).abs() < 0.1);
        // accumulated phase error at the end of the buffer is visible
        let scale = (crate::units::dbm_to_mw(LOUD) / mean_power(&tx)).sqrt();
        let end_err = (rx[49_999] * tx[49_999].conj().scale(scale)).arg().abs();
        let start_err = (rx[10] * tx[10].conj().scale(scale)).arg().abs();
        assert!(
            end_err > start_err,
            "phase should wander: start {start_err} end {end_err}"
        );
    }

    #[test]
    fn coarse_quantization_sets_the_error_floor() {
        let tx = ideal_tone(50e3, FS, 8192);
        let clean = ImpairmentChain::new(0.0).apply(&tx, LOUD, FS, 9);
        let q4 = ImpairmentChain::new(0.0)
            .with_adc_quantization(4)
            .apply(&tx, LOUD, FS, 9);
        let q13 = ImpairmentChain::new(0.0)
            .with_adc_quantization(13)
            .apply(&tx, LOUD, FS, 9);
        let err = |a: &[Complex], b: &[Complex]| {
            let e: Vec<Complex> = a.iter().zip(b).map(|(&x, &y)| x - y).collect();
            mean_power(&e)
        };
        let e4 = err(&q4, &clean);
        let e13 = err(&q13, &clean);
        assert!(e4 > e13 * 1e3, "4-bit error {e4:e} vs 13-bit {e13:e}");
        // 13-bit quantization is ~80 dB below the signal: negligible
        let snr13 = 10.0 * (mean_power(&clean) / e13).log10();
        assert!(snr13 > 60.0, "13-bit SNR {snr13} dB");
    }

    #[test]
    fn chain_matches_plain_awgn_when_empty() {
        // the AWGN-only chain must reproduce the calibrated channel the
        // paper sweeps: same physics, deterministic in the seed
        let nf = 4.5;
        let tx = ideal_tone(30e3, 500e3, 65_536);
        let rx = ImpairmentChain::new(nf).apply(&tx, -110.0, 500e3, 77);
        let total_mw = mean_power(&rx);
        let want_mw =
            crate::units::dbm_to_mw(-110.0) + crate::units::dbm_to_mw(noise_floor_dbm(500e3, nf));
        assert!(
            (total_mw - want_mw).abs() / want_mw < 0.05,
            "total {total_mw:e} vs {want_mw:e}"
        );
    }

    /// A grid of chains that, together, exercise every one of the nine
    /// stages (including the stage-skipping `if`s on both sides).
    fn contract_grid() -> Vec<ImpairmentChain> {
        vec![
            ImpairmentChain::new(4.5),
            ImpairmentChain::new(4.5).with_timing_offset(0.35),
            ImpairmentChain::new(4.5).with_clock_drift_ppm(-30.0),
            ImpairmentChain::new(4.5).with_iq_imbalance(0.4, 2.5),
            ImpairmentChain::new(4.5).with_cfo_hz(750.0),
            ImpairmentChain::new(4.5).with_phase_noise(80.0),
            ImpairmentChain::new(4.5).with_block_fading(512),
            ImpairmentChain::new(4.5).with_adc_quantization(6),
            ImpairmentChain::new(6.0)
                .with_timing_offset(1.25)
                .with_clock_drift_ppm(40.0)
                .with_iq_imbalance(0.3, -1.5)
                .with_cfo_hz(-300.0)
                .with_phase_noise(25.0)
                .with_block_fading(256)
                .with_adc_quantization(10),
        ]
    }

    /// FNV-1a offset basis: the digest of no samples.
    const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

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

    /// `apply` over the contract grid at three RSSI points each,
    /// recorded with the sine-free (barycentric) windowed-sinc taps of
    /// `tinysdr_dsp::delay` in the timing and drift stages.
    const APPLY_GOLDEN: u64 = 0x5b7f_45df_3a60_57b7;

    #[test]
    fn apply_matches_the_golden_digest_across_the_grid() {
        let tx = ideal_tone(40e3, FS, 4096);
        let mut h = FNV_BASIS;
        for (i, chain) in contract_grid().into_iter().enumerate() {
            for &rssi in &[-60.0, -95.0, -120.0] {
                h = digest(h, &chain.apply(&tx, rssi, FS, 1000 + i as u64));
            }
        }
        assert_eq!(h, APPLY_GOLDEN, "apply digest {h:#018x}");
    }

    #[test]
    fn prepared_pass_is_bit_identical_to_apply() {
        let tx = ideal_tone(40e3, FS, 4096);
        let mut prep = PreparedPass::new();
        let mut scratch = ChainScratch::new();
        let mut front = Vec::new();
        let mut out = Vec::new();
        for (i, chain) in contract_grid().into_iter().enumerate() {
            // one unseeded front per chain, shared by every pass
            chain.prepare_front_into(&tx, FS, &mut front, &mut scratch);
            for pass in 0..2u64 {
                let seed = 2000 + 10 * i as u64 + pass;
                for from_front in [false, true] {
                    if from_front {
                        chain.prepare_pass_from(&front, FS, seed, &mut prep);
                    } else {
                        chain.prepare_pass_into(&tx, FS, seed, &mut prep, &mut scratch);
                    }
                    assert_eq!(prep.len(), chain.apply(&tx, -90.0, FS, seed).len());
                    assert!(!prep.is_empty());
                    // one prepare, many RSSI points — the sweep-curve shape
                    for &rssi in &[-50.0, -85.0, -105.0, -130.0] {
                        let reference = chain.apply(&tx, rssi, FS, seed);
                        chain.apply_prepared_into(&prep, rssi, &mut out);
                        assert_eq!(
                            out, reference,
                            "chain #{i}, pass {pass} (from front: {from_front}) at {rssi} dBm"
                        );
                        // any span of the capture, formed alone at the
                        // capture's peak, is the capture's
                        let peak = chain.capture_peak(&prep, rssi);
                        let mut part = vec![Complex::ZERO; out.len()];
                        for span in [0..7, 500..1037, out.len() - 9..out.len()] {
                            chain.apply_prepared_span(&prep, rssi, peak, span.clone(), &mut part);
                            assert_eq!(part[span.clone()], out[span], "chain #{i} at {rssi} dBm");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_quantization_residual_stays_within_its_bound() {
        // random passes, with and without fading, through a quantizing
        // chain and the same chain without ADC stage: the two captures
        // differ by at most ρ(g) at every sample of every point
        let mut rng = StdRng::seed_from_u64(0xADC);
        let rssis = [-135.0, -118.0, -100.0, -77.0, -40.0, -5.0];
        let (mut prep, mut scratch) = (PreparedPass::new(), ChainScratch::new());
        let (mut faded, mut quantized, mut linear) = (Vec::new(), Vec::new(), Vec::new());
        for bits in [4, 8, 13] {
            for pass in 0..6u64 {
                let len = 256 + 384 * pass as usize;
                let tx: Vec<Complex> = (0..len)
                    .map(|_| {
                        let (re, im) = gauss_pair(&mut rng);
                        Complex::new(re, im)
                    })
                    .collect();
                let mut chain = ImpairmentChain::new(4.5).with_cfo_hz(120.0 * pass as f64);
                if pass % 2 == 1 {
                    chain = chain.with_block_fading(64 + 50 * pass as usize);
                }
                let adc = chain.clone().with_adc_quantization(bits);
                adc.prepare_pass_into(&tx, FS, 77 + pass, &mut prep, &mut scratch);
                let gains: Vec<Option<f64>> = rssis.iter().map(|&r| prep.rssi_gain(r)).collect();
                let signal = prep.faded_signal(&mut faded).to_vec();
                let rhos = adc.residual_bounds(&signal, prep.noise(), &gains);
                assert_eq!(
                    chain.residual_bounds(&signal, prep.noise(), &gains),
                    [0.0; 6]
                );
                for (&rssi, &rho) in rssis.iter().zip(&rhos) {
                    adc.apply_prepared_into(&prep, rssi, &mut quantized);
                    chain.apply_prepared_into(&prep, rssi, &mut linear);
                    let worst = quantized
                        .iter()
                        .zip(&linear)
                        .map(|(&q, &x)| (q - x).abs())
                        .fold(0.0, f64::max);
                    let what = format!("{bits} bits, pass {pass}, {rssi} dBm");
                    assert!(
                        rho.is_finite() && worst <= rho,
                        "{what}: {worst:e} > ρ {rho:e}"
                    );
                    // and the bound is no looser than the rounding it covers
                    assert!(worst > rho / 8.0, "{what}: {worst:e} ≪ ρ {rho:e}");
                }
            }
        }
    }

    #[test]
    fn accessors_report_builder_state() {
        // regression: fields used to be `pub`, letting callers bypass the
        // builder asserts (e.g. a negative timing offset); they are now
        // private and the accessors are the only read path
        let chain = ImpairmentChain::new(3.0)
            .with_timing_offset(0.5)
            .with_clock_drift_ppm(-20.0)
            .with_iq_imbalance(0.4, 2.5)
            .with_cfo_hz(750.0)
            .with_phase_noise(80.0)
            .with_block_fading(512)
            .with_adc_quantization(6);
        assert_eq!(chain.noise_figure_db(), 3.0);
        assert_eq!(chain.timing_offset_samples(), 0.5);
        assert_eq!(chain.clock_drift_ppm(), -20.0);
        assert_eq!(chain.iq_gain_db(), 0.4);
        assert_eq!(chain.iq_phase_deg(), 2.5);
        assert_eq!(chain.cfo_hz(), 750.0);
        assert_eq!(chain.phase_noise_linewidth_hz(), 80.0);
        assert_eq!(chain.fading_block_samples(), Some(512));
        assert_eq!(chain.adc_bits(), Some(6));
    }

    #[test]
    #[should_panic(expected = "ADC word width")]
    fn adc_zero_bits_rejected_at_builder() {
        // regression: used to be accepted here and panic later inside
        // `apply`, deep in a sweep
        let _ = ImpairmentChain::new(4.5).with_adc_quantization(0);
    }

    #[test]
    #[should_panic(expected = "ADC word width")]
    fn adc_one_bit_rejected_at_builder() {
        let _ = ImpairmentChain::new(4.5).with_adc_quantization(1);
    }

    #[test]
    #[should_panic(expected = "ADC word width")]
    fn adc_25_bits_rejected_at_builder() {
        let _ = ImpairmentChain::new(4.5).with_adc_quantization(25);
    }
}
