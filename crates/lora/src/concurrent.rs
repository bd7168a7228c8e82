//! Concurrent LoRa reception (paper §6).
//!
//! "To allow multiple LoRa nodes to communicate at the same time, we
//! exploit LoRa's support for orthogonal transmissions which can occupy
//! the same frequency channel without interfering with each other. Two
//! chirp symbols are orthogonal when they have a different chirp slope
//! `BW²/2^SF`. […] To decode them concurrently, we implement decoders
//! similar to Fig. 6b for each chirp configuration in parallel on our
//! FPGA."
//!
//! [`ConcurrentReceiver`] runs N [`Demodulator`]s over one sample stream
//! captured at a common rate (each configuration's OSR bridges its chip
//! rate to the shared rate). Orthogonality is *approximate* in practice:
//! "the chirps are created in the digital domain with discrete frequency
//! steps which introduces some non-orthogonality" — which is why the
//! quantized chirp generator matters here.

use tinysdr_dsp::chirp::ChirpConfig;
use tinysdr_dsp::complex::Complex;

use crate::demodulator::Demodulator;
use crate::packet::FrameParams;
use crate::phy::CodeParams;

/// One decoder lane of the concurrent receiver.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Chirp configuration this lane decodes.
    pub cfg: ChirpConfig,
    demod: Demodulator,
}

/// The concurrent receiver.
#[derive(Debug, Clone)]
pub struct ConcurrentReceiver {
    /// Common sampling rate shared by all lanes, Hz.
    pub fs: f64,
    lanes: Vec<Lane>,
    /// Lane configurations, in lane order (kept alongside the lanes so
    /// [`Self::configs`] can lend a slice instead of allocating).
    configs: Vec<ChirpConfig>,
}

/// Errors building the receiver.
#[derive(Debug, Clone, PartialEq)]
pub enum ConcurrentError {
    /// A lane's `fs = osr · bw` differs from the shared rate.
    RateMismatch {
        /// The offending configuration.
        cfg: ChirpConfig,
        /// The shared rate.
        fs: f64,
    },
    /// Two lanes share a chirp slope — they are not orthogonal and
    /// cannot be separated (the §6 premise).
    NotOrthogonal {
        /// First configuration.
        a: ChirpConfig,
        /// Second configuration.
        b: ChirpConfig,
    },
}

impl std::fmt::Display for ConcurrentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConcurrentError::RateMismatch { cfg, fs } => write!(
                f,
                "lane (SF{}, {} Hz, osr {}) does not sample at the shared {fs} Hz",
                cfg.sf, cfg.bw, cfg.osr
            ),
            ConcurrentError::NotOrthogonal { a, b } => write!(
                f,
                "configs SF{}/BW{} and SF{}/BW{} share a chirp slope",
                a.sf, a.bw, b.sf, b.bw
            ),
        }
    }
}

impl std::error::Error for ConcurrentError {}

impl ConcurrentReceiver {
    /// Build a receiver from lane configurations. All lanes must sample
    /// at the same `fs = osr · bw` and be pairwise slope-orthogonal.
    pub fn new(configs: &[ChirpConfig]) -> Result<Self, ConcurrentError> {
        assert!(!configs.is_empty(), "need at least one lane");
        let fs = configs[0].fs();
        for c in configs {
            if (c.fs() - fs).abs() > 1e-6 {
                return Err(ConcurrentError::RateMismatch { cfg: *c, fs });
            }
        }
        for (i, a) in configs.iter().enumerate() {
            for b in &configs[i + 1..] {
                if !a.is_orthogonal_to(b) {
                    return Err(ConcurrentError::NotOrthogonal { a: *a, b: *b });
                }
            }
        }
        let lanes = configs
            .iter()
            .map(|&cfg| Lane {
                cfg,
                demod: Demodulator::new(cfg, FrameParams::new(CodeParams::new(cfg.sf, 1))),
            })
            .collect();
        Ok(ConcurrentReceiver {
            fs,
            lanes,
            configs: configs.to_vec(),
        })
    }

    /// The paper's §6 evaluation pair: SF8 at BW 125 kHz and 250 kHz,
    /// sharing a 500 kHz stream.
    pub fn paper_pair() -> Self {
        ConcurrentReceiver::new(&[ChirpConfig::new(8, 125e3, 4), ChirpConfig::new(8, 250e3, 2)])
            // lint: allow(unjustified-panic, static configs share one 500 kHz stream by construction)
            .expect("paper pair is valid")
    }

    /// Number of lanes.
    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Lane configurations, in lane order (borrowed — the receiver
    /// already owns them; cloning per call was pure allocation waste).
    pub fn configs(&self) -> &[ChirpConfig] {
        &self.configs
    }

    /// Per-lane aligned symbol-error rates against known transmitted
    /// streams (the §6 measurement). `sent[i]` is the symbol stream of
    /// lane `i`; the shared `rx` holds the superposed capture.
    pub fn symbol_error_rates(&self, rx: &[Complex], sent: &[Vec<u16>]) -> Vec<f64> {
        assert_eq!(sent.len(), self.lanes.len(), "one sent stream per lane");
        self.lanes
            .iter()
            .zip(sent)
            .map(|(lane, tx)| lane.demod.symbol_error_rate(rx, tx))
            .collect()
    }

    /// Demodulate full frames on every lane.
    pub fn demodulate(&self, rx: &[Complex]) -> Vec<Option<crate::demodulator::DemodFrame>> {
        self.lanes.iter().map(|l| l.demod.demodulate(rx)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulator::Modulator;
    use crate::packet::FrameParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tinysdr_rf::channel::{measure_rssi_dbm, set_rssi, superpose};
    use tinysdr_rf::impairments::ImpairmentChain;

    fn random_syms(n: usize, sf: u8, seed: u64) -> Vec<u16> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..(1 << sf))).collect()
    }

    /// Build the paper's two-transmitter scene: both SF8, BW 125/250 kHz,
    /// at given RSSIs, over a 500 kHz stream with AT86RF215 noise.
    fn scene(
        rssi_a_dbm: f64,
        rssi_b_dbm: f64,
        n_syms: usize,
        seed: u64,
    ) -> (Vec<tinysdr_dsp::complex::Complex>, Vec<u16>, Vec<u16>) {
        let cfg_a = ChirpConfig::new(8, 125e3, 4);
        let cfg_b = ChirpConfig::new(8, 250e3, 2);
        let ma = Modulator::new(cfg_a, FrameParams::new(CodeParams::new(8, 1)));
        let mb = Modulator::new(cfg_b, FrameParams::new(CodeParams::new(8, 1)));
        let sa = random_syms(n_syms, 8, seed);
        // BW250 symbols are half as long: send twice as many
        let sb = random_syms(n_syms * 2, 8, seed + 1);
        let mut siga = ma.modulate_symbols(&sa);
        let mut sigb = mb.modulate_symbols(&sb);
        set_rssi(&mut siga, rssi_a_dbm);
        set_rssi(&mut sigb, rssi_b_dbm);
        let sum = superpose(&siga, &sigb);
        let rx = ImpairmentChain::new(4.5).apply(&sum, measure_rssi_dbm(&sum), 500e3, seed + 2);
        (rx, sa, sb)
    }

    #[test]
    fn paper_pair_is_orthogonal_and_shared_rate() {
        let rx = ConcurrentReceiver::paper_pair();
        assert_eq!(rx.n_lanes(), 2);
        assert_eq!(rx.fs, 500e3);
        // configs() lends the lane configurations in lane order
        let cfgs = rx.configs();
        assert_eq!(cfgs.len(), 2);
        assert_eq!((cfgs[0].sf, cfgs[0].bw), (8, 125e3));
        assert_eq!((cfgs[1].sf, cfgs[1].bw), (8, 250e3));
    }

    #[test]
    fn same_slope_rejected() {
        // SF8/BW125 and SF10/BW250 share slope 61.035 Hz/µs
        let err = ConcurrentReceiver::new(&[
            ChirpConfig::new(8, 125e3, 4),
            ChirpConfig::new(10, 250e3, 2),
        ])
        .unwrap_err();
        assert!(matches!(err, ConcurrentError::NotOrthogonal { .. }));
    }

    #[test]
    fn rate_mismatch_rejected() {
        let err = ConcurrentReceiver::new(&[
            ChirpConfig::new(8, 125e3, 4),
            ChirpConfig::new(8, 250e3, 4), // 1 MHz ≠ 500 kHz
        ])
        .unwrap_err();
        assert!(matches!(err, ConcurrentError::RateMismatch { .. }));
    }

    #[test]
    fn both_streams_decode_at_strong_signal() {
        let (rx, sa, sb) = scene(-100.0, -100.0, 60, 42);
        let rcv = ConcurrentReceiver::paper_pair();
        let sers = rcv.symbol_error_rates(&rx, &[sa, sb]);
        assert!(sers[0] < 0.02, "BW125 lane SER {}", sers[0]);
        assert!(sers[1] < 0.02, "BW250 lane SER {}", sers[1]);
    }

    #[test]
    fn single_transmission_unaffected_by_absent_partner() {
        // only the BW125 node transmits: its lane sees a clean channel
        let cfg_a = ChirpConfig::new(8, 125e3, 4);
        let ma = Modulator::new(cfg_a, FrameParams::new(CodeParams::new(8, 1)));
        let sa = random_syms(50, 8, 7);
        let sig = ImpairmentChain::new(4.5).apply(&ma.modulate_symbols(&sa), -110.0, 500e3, 9);
        let rcv = ConcurrentReceiver::paper_pair();
        let sers = rcv.symbol_error_rates(&sig, &[sa, vec![]]);
        assert_eq!(sers[0], 0.0);
    }

    #[test]
    fn orthogonality_costs_a_couple_db() {
        // the §6 result: concurrent operation loses ~0.5-2 dB near
        // sensitivity. At -120 dBm (6 dB above BW125 sensitivity) the
        // BW125 lane should still decode well despite an equal-power
        // BW250 interferer.
        let (rx, sa, _sb) = scene(-118.0, -118.0, 80, 17);
        let rcv = ConcurrentReceiver::paper_pair();
        let ser = rcv.symbol_error_rates(&rx, &[sa, vec![]])[0];
        assert!(
            ser < 0.1,
            "BW125 SER with equal-power orthogonal interferer: {ser}"
        );
    }

    #[test]
    fn strong_interferer_degrades_weak_signal() {
        // Fig. 15b: fix the BW125 node near sensitivity, raise the BW250
        // interferer far above it — the error rate must climb
        let (rx_weak, sa, _) = scene(-123.0, -123.0, 60, 23);
        let (rx_loud, sa2, _) = scene(-123.0, -100.0, 60, 23);
        let rcv = ConcurrentReceiver::paper_pair();
        let ser_weak = rcv.symbol_error_rates(&rx_weak, &[sa, vec![]])[0];
        let ser_loud = rcv.symbol_error_rates(&rx_loud, &[sa2, vec![]])[0];
        assert!(
            ser_loud > ser_weak + 0.1,
            "interference must matter: {ser_weak} → {ser_loud}"
        );
    }
}
