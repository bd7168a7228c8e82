//! GFSK modulation and demodulation (paper §4.2).
//!
//! TX, exactly as the paper describes: "First, we upsample and apply a
//! Gaussian filter to the bitstream. This gives us the desired changes
//! in frequency which we integrate to get the phase. We then feed the
//! phase to sine and cosine functions to get the final I and Q samples."
//!
//! RX is a noncoherent matched-template detector: each bit is decided
//! by the strongest correlation against the eight 3-bit GFSK
//! trajectories spanning it, standing in for the TI CC2650 the paper
//! uses to measure the Fig. 12 BER curve. The FM discriminator
//! ([`GfskDemodulator::discriminate`]) serves only the access-address
//! search.

use std::ops::Range;

use tinysdr_dsp::complex::{l2_norm, Complex};
use tinysdr_dsp::correlate::TemplateBank;
use tinysdr_dsp::gaussian::GaussianFilter;
use tinysdr_rf::superpose::WindowProjection;

/// BLE 4.0 bit rate, bit/s.
pub const BIT_RATE: f64 = 1e6;
/// Effective noise figure of the CC2650-class receiver, dB — calibrated
/// so the matched-template detector reproduces the chip's datasheet
/// sensitivity (−97 dBm at BER 1e-3 for 1 Mbps BLE). The paper's
/// Fig. 12 measures TinySDR beacons 2–3 dB above that line (−94 dBm);
/// the TX impairments behind that gap (PA nonlinearity, LO phase noise)
/// are not modelled, so our curve sits near the CC2650 line itself —
/// recorded in EXPERIMENTS.md.
pub const CC2650_NOISE_FIGURE_DB: f64 = 6.7;
/// GFSK modulation index (spec: 0.45–0.55; we use the center).
pub const MODULATION_INDEX: f64 = 0.5;

/// GFSK modulator at `sps` samples per bit.
#[derive(Debug, Clone)]
pub struct GfskModulator {
    sps: usize,
    filter: GaussianFilter,
}

impl GfskModulator {
    /// Standard BLE modulator (BT = 0.5).
    pub fn new(sps: usize) -> Self {
        assert!(sps >= 2, "need at least 2 samples per bit");
        GfskModulator {
            sps,
            filter: GaussianFilter::ble(sps),
        }
    }

    /// Samples per bit.
    pub fn sps(&self) -> usize {
        self.sps
    }

    /// Sampling rate, Hz.
    pub fn fs(&self) -> f64 {
        BIT_RATE * self.sps as f64
    }

    /// Modulate a bit stream (0/1) into I/Q samples. Output length is
    /// `bits.len() * sps` (the Gaussian filter's tails are trimmed
    /// symmetrically).
    pub fn modulate(&self, bits: &[u8]) -> Vec<Complex> {
        let mut out = Vec::new();
        self.modulate_into(bits, &mut GfskScratch::default(), &mut out);
        out
    }

    /// [`GfskModulator::modulate`] into a caller-owned buffer, with the
    /// NRZ and frequency-trajectory intermediates held in `scratch` —
    /// zero steady-state allocation across a batch. Bit-identical to
    /// the allocating path.
    pub fn modulate_into(&self, bits: &[u8], scratch: &mut GfskScratch, out: &mut Vec<Complex>) {
        scratch.nrz.clear();
        scratch
            .nrz
            .extend(bits.iter().map(|&b| if b != 0 { 1i8 } else { -1 }));
        self.filter
            .shape_into(&scratch.nrz, self.sps, &mut scratch.freq);
        // peak deviation: h/2 · bit_rate = 250 kHz at h = 0.5
        let dev_per_sample = std::f64::consts::PI * MODULATION_INDEX / self.sps as f64;
        let delay = self.filter.delay();
        let mut phase = 0.0f64;
        out.clear();
        out.reserve(bits.len() * self.sps);
        for (i, &f) in scratch.freq.iter().enumerate() {
            if i >= delay && out.len() < bits.len() * self.sps {
                out.push(Complex::from_angle(phase));
            }
            phase += f * dev_per_sample;
        }
        while out.len() < bits.len() * self.sps {
            out.push(Complex::from_angle(phase));
        }
    }
}

/// Reusable intermediates for [`GfskModulator::modulate_into`]: the NRZ
/// bit mapping and the shaped frequency trajectory. One per worker
/// thread (or batch) is enough.
#[derive(Debug, Clone, Default)]
pub struct GfskScratch {
    nrz: Vec<i8>,
    freq: Vec<f64>,
}

impl GfskScratch {
    /// Fresh scratch; buffers grow lazily.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Noncoherent GFSK receiver (CC2650-class).
///
/// Detection is matched-template over a 3-bit window: the receiver
/// correlates against the eight possible GFSK phase trajectories
/// (generated by the same Gaussian shaper the transmitter uses, so the
/// templates carry the correct inter-symbol interference) and picks the
/// center bit of the strongest |correlation|. This is the standard
/// 1-symbol-memory noncoherent sequence detector — within ~1–2 dB of
/// coherent GFSK and what commercial BLE silicon implements.
#[derive(Debug, Clone)]
pub struct GfskDemodulator {
    sps: usize,
    /// The 8 three-bit GFSK waveforms, index = (b₋₁ << 2)|(b₀ << 1)|b₊₁,
    /// as a lock-step correlation bank.
    templates: TemplateBank<8>,
    /// The largest template norm `maxₚ ‖tₚ‖₂`: by Cauchy–Schwarz a
    /// window's correlations are bounded by it times the window norm.
    template_norm: f64,
}

impl GfskDemodulator {
    /// Receiver at `sps` samples per bit (must match the transmitter).
    pub fn new(sps: usize) -> Self {
        assert!(sps >= 2);
        let m = GfskModulator::new(sps);
        let templates: Vec<Vec<Complex>> = (0..8u8)
            .map(|p| {
                let bits = [(p >> 2) & 1, (p >> 1) & 1, p & 1];
                m.modulate(&bits)
            })
            .collect();
        let template_norm = templates.iter().map(|t| l2_norm(t)).fold(0.0, f64::max);
        GfskDemodulator {
            sps,
            templates: TemplateBank::new(&templates),
            template_norm,
        }
    }

    /// Instantaneous frequency estimate: arg(x\[n\]·conj(x\[n−1\])).
    pub fn discriminate(&self, x: &[Complex]) -> Vec<f64> {
        let mut out = Vec::with_capacity(x.len());
        let mut prev = Complex::ONE;
        for &s in x {
            out.push((s * prev.conj()).arg());
            prev = s;
        }
        out
    }

    /// Demodulate an *aligned* sample stream into bits: each bit is
    /// decided by the strongest |correlation| against the eight 3-bit
    /// GFSK templates spanning it (noncoherent — invariant to the
    /// window's starting phase).
    pub fn demodulate(&self, x: &[Complex]) -> Vec<u8> {
        let mut out = Vec::new();
        self.demodulate_into(x, &mut out);
        out
    }

    /// [`GfskDemodulator::demodulate`] into a caller-owned bit buffer
    /// (cleared first) — allocation-free in steady state, bit-identical
    /// to the allocating path.
    pub fn demodulate_into(&self, x: &[Complex], out: &mut Vec<u8>) {
        let n_bits = x.len() / self.sps;
        out.clear();
        out.reserve(n_bits);
        out.extend((0..n_bits).map(|i| self.decide_bit(x, i)));
    }

    /// Bit `i` of an aligned stream `x`: the center bit of the template
    /// that correlates strongest with its window.
    pub(crate) fn decide_bit(&self, x: &[Complex], i: usize) -> u8 {
        // the window never outruns the 3-bit templates
        // (`slice.len() <= 3*sps`), so every sample is correlated
        // lint: allow(unchecked-index, window() clamps to x.len())
        let (p, _) = self.templates.best(&x[self.window(i, x.len())]);
        center_bit(i, p)
    }

    /// Samples of bit `i`'s window in a capture of `len` samples: the
    /// 3-bit window centered on bit `i`, clamped at the edges (the first
    /// bit sits in the window's first position, and the last window may
    /// be short).
    pub(crate) fn window(&self, i: usize, len: usize) -> Range<usize> {
        let start = i.saturating_sub(1) * self.sps;
        start..(start + 3 * self.sps).min(len)
    }

    /// The windows of [`GfskDemodulator::demodulate_into`] over a signal
    /// and a noise vector of equal length in lock step, handing `each`
    /// the window's eight template correlations of each and their
    /// bounds, `maxₚ ‖tₚ‖₂·‖x‖₂` over the window (and
    /// `maxₚ ‖tₚ‖₂·√(window length)` on a residual). Correlation is linear,
    /// so the correlations of `g·signal + noise` are `g·S + N` up to
    /// rounding; window `i`'s template `p` reads as [`center_bit`]`(i, p)`.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub(crate) fn project_bits(
        &self,
        signal: &[Complex],
        noise: &[Complex],
        each: &mut dyn FnMut(WindowProjection<'_>),
    ) {
        assert_eq!(signal.len(), noise.len(), "signal and noise must align");
        for i in 0..signal.len() / self.sps {
            let w = self.window(i, signal.len());
            // lint: allow(unchecked-index, window() clamps to the equal lengths)
            let (s, n) = (&signal[w.clone()], &noise[w]);
            each(WindowProjection {
                signal: &self.templates.correlations(s),
                noise: &self.templates.correlations(n),
                signal_bound: self.template_norm * l2_norm(s),
                noise_bound: self.template_norm * l2_norm(n),
                residual_gain: self.template_norm * (s.len() as f64).sqrt(),
            });
        }
    }

    /// Locate the 8-bit preamble + 32-bit access address in a sample
    /// stream by correlating the discriminator output against the known
    /// bit pattern. Returns the sample offset of the preamble start (the
    /// first best one), or `None` when the stream is shorter than the
    /// pattern or no offset correlates to a finite value.
    pub fn find_access_address(&self, x: &[Complex], aa: u32) -> Option<usize> {
        let mut pattern = Vec::with_capacity(40);
        for i in 0..8 {
            pattern.push(((super::packet::PREAMBLE >> i) & 1) as i8 * 2 - 1);
        }
        for byte in aa.to_le_bytes() {
            for i in 0..8 {
                pattern.push(((byte >> i) & 1) as i8 * 2 - 1);
            }
        }
        let disc = self.discriminate(x);
        let n_pat = pattern.len() * self.sps;
        if disc.len() < n_pat {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        // a pattern that ends the stream starts at `len − n_pat`
        for off in 0..=disc.len() - n_pat {
            let mut corr = 0.0;
            for (b, &p) in pattern.iter().enumerate() {
                // the peak of bit b's frequency pulse: the modulator
                // centers it half a sample into the bit, and `disc[k]`
                // is the phase step into sample k
                corr += disc[off + b * self.sps + 1] * p as f64;
            }
            if corr.is_finite() && best.is_none_or(|(_, top)| corr > top) {
                best = Some((off, corr));
            }
        }
        best.map(|(off, _)| off)
    }
}

/// The bit window `i` decides when template `p`, index
/// `(b₋₁ << 2)|(b₀ << 1)|b₊₁`, wins: its center bit, except that the
/// clamped first window holds bit 0 in its first position.
pub(crate) fn center_bit(i: usize, p: usize) -> u8 {
    let shift = if i == 0 { 2 } else { 1 };
    ((p >> shift) & 1) as u8
}

/// Unpack bytes into bits, LSB of each byte first (the BLE air order).
/// The single bit-order authority for the crate: the packet builder and
/// the `PhyModem` implementor both use this pair.
pub fn bytes_to_bits(frame: &[u8]) -> Vec<u8> {
    frame
        .iter()
        .flat_map(|&b| (0..8).map(move |i| (b >> i) & 1))
        .collect()
}

/// Pack bits (0/1) into bytes, LSB-first; a trailing partial byte is
/// zero-padded.
pub fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        out[i / 8] |= (b & 1) << (i % 8);
    }
    out
}

/// Bit errors between transmitted and received bit vectors, as
/// `(errors, trials)` with `trials = tx.len()`.
///
/// Transmitted bits the receiver never produced (a truncated or
/// desynchronized capture, `rx` shorter than `tx`) count as errors:
/// the old behaviour dropped them from both the numerator and the
/// denominator, which understated the BER of exactly the captures that
/// lost data. Extra received bits beyond `tx.len()` are ignored — they
/// correspond to nothing that was sent.
pub fn count_bit_errors(tx: &[u8], rx: &[u8]) -> (u64, u64) {
    let n = tx.len().min(rx.len());
    let flipped = tx[..n].iter().zip(&rx[..n]).filter(|(a, b)| a != b).count() as u64;
    let lost = (tx.len() - n) as u64;
    (flipped + lost, tx.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinysdr_rf::impairments::ImpairmentChain;

    #[test]
    fn a_settled_bit_reads_its_window_alone() {
        // the kernel a refused window is settled by: each bit from a
        // capture that holds only its window (NaN elsewhere) equals the
        // whole-capture demodulation's, truncated captures included
        let (m, d) = (GfskModulator::new(4), GfskDemodulator::new(4));
        let tx = m.modulate(&prbs(40, 9));
        let rx = ImpairmentChain::new(6.0).apply(&tx, -95.0, 4e6, 9);
        for len in [rx.len(), rx.len() - 5, 13, 8] {
            let x = &rx[..len];
            for (i, &bit) in d.demodulate(x).iter().enumerate() {
                let reads = d.window(i, len);
                let masked: Vec<Complex> = (0..len)
                    .map(|k| match reads.contains(&k) {
                        true => x[k],
                        false => Complex::new(f64::NAN, f64::NAN),
                    })
                    .collect();
                assert_eq!(d.decide_bit(&masked, i), bit, "{len} samples, bit {i}");
            }
        }
    }

    fn prbs(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 60) & 1) as u8
            })
            .collect()
    }

    #[test]
    fn loopback_clean() {
        let sps = 8;
        let m = GfskModulator::new(sps);
        let d = GfskDemodulator::new(sps);
        let bits = prbs(256, 7);
        let sig = m.modulate(&bits);
        assert_eq!(sig.len(), 256 * sps);
        let rx = d.demodulate(&sig);
        let (errs, n) = count_bit_errors(&bits, &rx);
        assert_eq!(errs, 0, "clean loopback must be error-free over {n} bits");
    }

    #[test]
    fn count_bit_errors_counts_lost_bits_as_errors() {
        // regression: a short rx used to shrink both numerator and
        // denominator, hiding exactly the bits the receiver lost
        let tx = [1u8, 0, 1, 1, 0, 0, 1, 0];
        // identical prefix, truncated: 3 lost bits are 3 errors
        assert_eq!(count_bit_errors(&tx, &tx[..5]), (3, 8));
        // one flip in the overlap plus 2 lost
        let mut rx = tx[..6].to_vec();
        rx[2] ^= 1;
        assert_eq!(count_bit_errors(&tx, &rx), (3, 8));
        // equal lengths: plain Hamming distance
        assert_eq!(count_bit_errors(&tx, &tx), (0, 8));
        // longer rx: surplus bits are ignored
        let mut long = tx.to_vec();
        long.extend_from_slice(&[1, 1, 1]);
        assert_eq!(count_bit_errors(&tx, &long), (0, 8));
        // empty tx: nothing was sent, nothing can err
        assert_eq!(count_bit_errors(&[], &[1, 0]), (0, 0));
    }

    #[test]
    fn into_variants_are_bit_identical() {
        let sps = 4;
        let m = GfskModulator::new(sps);
        let d = GfskDemodulator::new(sps);
        let mut scratch = GfskScratch::new();
        let mut wave = Vec::new();
        let mut rx = Vec::new();
        // reuse scratch and buffers across frames of different lengths
        for (n, seed) in [(64usize, 3u64), (200, 5), (31, 8)] {
            let bits = prbs(n, seed);
            m.modulate_into(&bits, &mut scratch, &mut wave);
            assert_eq!(wave, m.modulate(&bits), "{n} bits");
            d.demodulate_into(&wave, &mut rx);
            assert_eq!(rx, d.demodulate(&wave), "{n} bits");
        }
    }

    /// Today's receiver loop, one serial accumulation per template: the
    /// reference the lock-step bank must reproduce.
    fn demodulate_per_template(sps: usize, x: &[Complex]) -> Vec<u8> {
        let m = GfskModulator::new(sps);
        let templates: Vec<Vec<Complex>> = (0..8u8)
            .map(|p| m.modulate(&[(p >> 2) & 1, (p >> 1) & 1, p & 1]))
            .collect();
        (0..x.len() / sps)
            .map(|i| {
                let start = i.saturating_sub(1) * sps;
                let slice = &x[start..(start + 3 * sps).min(x.len())];
                let center_shift = if i == 0 { 0 } else { 1 };
                let mut best = (0u8, f64::MIN);
                for (p, t) in templates.iter().enumerate() {
                    let mut c = Complex::ZERO;
                    for (&s, &tv) in slice.iter().zip(t) {
                        c += s * tv.conj();
                    }
                    let m = c.norm_sqr();
                    if m > best.1 {
                        best = (((p as u8) >> (2 - center_shift)) & 1, m);
                    }
                }
                best.0
            })
            .collect()
    }

    #[test]
    fn lock_step_correlator_matches_the_per_template_loop() {
        // noisy captures around the sensitivity knee, with lengths that
        // end on a bit boundary and mid-bit (the short final slice), down
        // to a single bit (only the left-edge window)
        for sps in [2usize, 4, 8] {
            let m = GfskModulator::new(sps);
            let d = GfskDemodulator::new(sps);
            let bits = prbs(300, sps as u64);
            let clean = m.modulate(&bits);
            for (k, rssi) in [-80.0, -94.0, -100.0, -110.0].into_iter().enumerate() {
                let chain = ImpairmentChain::new(CC2650_NOISE_FIGURE_DB);
                let sig = chain.apply(&clean, rssi, m.fs(), 40 + k as u64);
                for len in [0, 1, sps, sps + 1, 2 * sps - 1, 7 * sps + 3, sig.len()] {
                    let x = &sig[..len];
                    assert_eq!(
                        d.demodulate(x),
                        demodulate_per_template(sps, x),
                        "sps {sps}, {rssi} dBm, {len} samples"
                    );
                }
            }
        }
    }

    #[test]
    fn constant_envelope() {
        let m = GfskModulator::new(8);
        let sig = m.modulate(&prbs(64, 9));
        for z in &sig {
            assert!((z.abs() - 1.0).abs() < 1e-9, "GFSK is constant envelope");
        }
    }

    #[test]
    fn frequency_deviation_is_250khz() {
        // a long run of ones settles at +h/2·Rb = +250 kHz
        let sps = 8;
        let m = GfskModulator::new(sps);
        let d = GfskDemodulator::new(sps);
        let sig = m.modulate(&[1u8; 64]);
        let disc = d.discriminate(&sig);
        // steady state: phase step = 2π·f/fs → f = step·fs/2π
        let step = disc[sig.len() / 2];
        let f = step * m.fs() / std::f64::consts::TAU;
        assert!((f - 250e3).abs() < 10e3, "deviation {f} Hz");
    }

    #[test]
    fn loopback_with_noise_at_high_snr() {
        let sps = 8;
        let m = GfskModulator::new(sps);
        let d = GfskDemodulator::new(sps);
        let bits = prbs(512, 3);
        // very strong signal
        let sig = ImpairmentChain::new(4.5).apply(&m.modulate(&bits), -70.0, m.fs(), 13);
        let rx = d.demodulate(&sig);
        let (errs, _) = count_bit_errors(&bits, &rx);
        assert_eq!(errs, 0);
    }

    #[test]
    fn ber_transitions_with_rssi() {
        // coarse check of the Fig. 12 shape: BER near zero at −85 dBm,
        // meaningful at −100 dBm (sensitivity is ~−94)
        let sps = 4;
        let m = GfskModulator::new(sps);
        let d = GfskDemodulator::new(sps);
        let bits = prbs(4000, 17);
        let base = m.modulate(&bits);
        let ber = |rssi: f64, seed: u64| {
            let sig = ImpairmentChain::new(4.5).apply(&base, rssi, m.fs(), seed);
            let rx = d.demodulate(&sig);
            let (e, n) = count_bit_errors(&bits, &rx);
            e as f64 / n as f64
        };
        let good = ber(-85.0, 1);
        let bad = ber(-100.0, 2);
        assert!(good < 1e-3, "BER at -85 dBm: {good}");
        assert!(bad > 1e-3, "BER at -100 dBm: {bad}");
    }

    #[test]
    fn access_address_search_finds_offset() {
        let sps = 4;
        let m = GfskModulator::new(sps);
        let d = GfskDemodulator::new(sps);
        let pkt = crate::packet::AdvPacket::beacon([1, 2, 3, 4, 5, 6], b"find me").unwrap();
        let bits = pkt.to_bits(37);
        let mut sig = vec![Complex::ZERO; 137]; // arbitrary silence prefix
        sig.extend(m.modulate(&bits));
        let off = d
            .find_access_address(&sig, crate::packet::ACCESS_ADDRESS)
            .expect("AA found");
        assert!(
            (off as i64 - 137).unsigned_abs() <= sps as u64,
            "offset {off} vs expected ~137"
        );
    }

    #[test]
    fn access_address_that_ends_the_capture_is_found_at_its_offset() {
        // the preamble + access address alone, after 100 samples of
        // silence: the pattern's last bit is the capture's last
        let bits = crate::packet::AdvPacket::beacon([1, 2, 3, 4, 5, 6], b"x")
            .unwrap()
            .to_bits(37);
        for sps in [4, 8] {
            let m = GfskModulator::new(sps);
            let d = GfskDemodulator::new(sps);
            let mut sig = vec![Complex::ZERO; 100];
            sig.extend(m.modulate(&bits[..40]));
            assert_eq!(sig.len(), 100 + 40 * sps);
            let aa = crate::packet::ACCESS_ADDRESS;
            assert_eq!(d.find_access_address(&sig, aa), Some(100), "{sps} sps");
        }
    }

    #[test]
    fn access_address_search_without_a_finite_correlation_finds_nothing() {
        let d = GfskDemodulator::new(4);
        let aa = crate::packet::ACCESS_ADDRESS;
        let nan = vec![Complex::new(f64::NAN, 0.0); 400];
        assert_eq!(d.find_access_address(&nan, aa), None);
        // too short for the pattern
        assert_eq!(d.find_access_address(&nan[..159], aa), None);
    }

    #[test]
    fn end_to_end_packet_through_gfsk() {
        let sps = 4;
        let m = GfskModulator::new(sps);
        let d = GfskDemodulator::new(sps);
        let pkt = crate::packet::AdvPacket::beacon([9, 8, 7, 6, 5, 4], b"e2e").unwrap();
        let bits = pkt.to_bits(38);
        let sig = ImpairmentChain::new(4.5).apply(&m.modulate(&bits), -80.0, m.fs(), 4);
        let rx_bits = d.demodulate(&sig);
        let back = crate::packet::AdvPacket::from_bits(&rx_bits, 38).expect("packet");
        assert_eq!(back.adv_data, b"e2e");
    }
}
