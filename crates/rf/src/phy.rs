//! The PHY modem abstraction: one trait for every protocol TinySDR
//! hosts.
//!
//! The paper's core claim is *protocol programmability* — "tinySDR can
//! be programmed to support any IoT protocol" (§2) — yet a codebase
//! that hard-codes LoRa and BLE everywhere cannot demonstrate it. This
//! module is the seam that makes the claim structural: a [`PhyModem`]
//! trait capturing what every modem must provide (a modulator, a
//! demodulator with exact error accounting, and the metadata the
//! conformance harness and the device need — sample rate, occupied
//! bandwidth, receiver noise figure, a published sensitivity anchor),
//! plus a type-erased [`PhyRegistry`] so sweeps, testbeds and devices
//! can be written once, against `&dyn PhyModem`, and gain every new
//! protocol for free.
//!
//! Layering: this lives in `tinysdr-rf`, *below* the workload crates
//! (`lora`, `ble`, `zigbee`), which implement the trait; `bench`,
//! `core` and `ota` consume it. See DESIGN.md.

use tinysdr_dsp::complex::Complex;

use crate::superpose::LinearReceiver;

/// Exact error accounting in a PHY's native unit (chirp symbols, bits,
/// packets, DSSS symbols, …). Counts, not rates, so points can be
/// merged and Wilson intervals computed without precision loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ErrorCount {
    /// Units received in error (including units the receiver lost).
    pub errors: u64,
    /// Units transmitted.
    pub trials: u64,
}

impl ErrorCount {
    /// The zero count.
    pub const ZERO: ErrorCount = ErrorCount {
        errors: 0,
        trials: 0,
    };

    /// New count.
    pub fn new(errors: u64, trials: u64) -> Self {
        ErrorCount { errors, trials }
    }

    /// Error rate in `[0, 1]` (0 for an empty count).
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.errors as f64 / self.trials as f64
        }
    }

    /// `true` when every transmitted unit came back intact.
    pub fn is_clean(&self) -> bool {
        self.errors == 0
    }
}

impl std::ops::AddAssign for ErrorCount {
    fn add_assign(&mut self, rhs: ErrorCount) {
        self.errors += rhs.errors;
        self.trials += rhs.trials;
    }
}

impl std::ops::Add for ErrorCount {
    type Output = ErrorCount;
    fn add(mut self, rhs: ErrorCount) -> ErrorCount {
        self += rhs;
        self
    }
}

/// What a [`PhyModem`] recovered from a capture: the decoded bytes, the
/// raw pre-decoding units, and frame validity where the PHY frames.
///
/// The result deliberately carries *both* views so error accounting can
/// happen in the PHY's native unit (via [`PhyModem::count_errors`])
/// while callers that only want payload bytes read `bytes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemodResult {
    /// Recovered frame bytes (best effort; possibly truncated when the
    /// capture was).
    pub bytes: Vec<u8>,
    /// Raw demodulated units before byte packing — chirp symbols for
    /// LoRa, bits (0/1) for GFSK, 4-bit DSSS symbols for O-QPSK.
    pub units: Vec<u16>,
    /// `Some(valid)` for framed PHYs (CRC/header verdict), `None` for
    /// unframed symbol/bit streams.
    pub frame_ok: Option<bool>,
}

impl DemodResult {
    /// An unframed stream result; `bytes` are the repacked units.
    pub fn stream(bytes: Vec<u8>, units: Vec<u16>) -> Self {
        DemodResult {
            bytes,
            units,
            frame_ok: None,
        }
    }

    /// A framed result with an explicit validity verdict.
    pub fn framed(bytes: Vec<u8>, units: Vec<u16>, ok: bool) -> Self {
        DemodResult {
            bytes,
            units,
            frame_ok: Some(ok),
        }
    }

    /// An empty result (nothing recovered — e.g. no frame found).
    pub fn empty() -> Self {
        DemodResult {
            bytes: Vec::new(),
            units: Vec::new(),
            frame_ok: Some(false),
        }
    }
}

/// A full PHY modem: everything the conformance harness, the campus
/// testbed and the device need to host one protocol.
///
/// Implementors are *stateless in the data* — `modulate` and
/// `demodulate` take `&self` — so one boxed modem can be shared
/// read-only across sweep shards (the trait requires `Send + Sync`).
///
/// # Contract
///
/// * `demodulate(modulate(frame))` over a clean channel must recover the
///   frame losslessly: `count_errors(frame, …)` returns zero errors
///   (asserted per registered PHY by the registry round-trip property
///   in `tests/phy_registry.rs`).
/// * `count_errors` accounts in the PHY's **native unit** and counts
///   units the receiver lost (truncated captures) as errors.
/// * Metadata is constant for the lifetime of the modem.
pub trait PhyModem: std::fmt::Debug + Send + Sync {
    /// Human-readable label; the report key and registry key.
    fn label(&self) -> String;

    /// Baseband I/Q sample rate produced/consumed, Hz.
    fn sample_rate_hz(&self) -> f64;

    /// Occupied RF bandwidth, Hz.
    fn occupied_bw_hz(&self) -> f64;

    /// Receiver noise figure of the modeled front end, dB.
    fn noise_figure_db(&self) -> f64;

    /// Published sensitivity anchor, dBm — the paper/datasheet number
    /// the measured waterfall is compared against.
    fn sensitivity_anchor_dbm(&self) -> f64;

    /// Carrier frequency the protocol runs at, Hz (drives the device's
    /// radio setup).
    fn center_frequency_hz(&self) -> f64;

    /// Modulate a byte frame into baseband I/Q samples.
    fn modulate(&self, frame: &[u8]) -> Vec<Complex>;

    /// Demodulate a capture into recovered bytes plus raw units.
    fn demodulate(&self, iq: &[Complex]) -> DemodResult;

    /// Error accounting against the transmitted frame, in the PHY's
    /// native unit. The default compares the recovered bytes bit by
    /// bit; implementors with a coarser or finer unit (chirp symbols,
    /// whole packets) override it.
    fn count_errors(&self, tx_frame: &[u8], rx: &DemodResult) -> ErrorCount {
        bit_errors_between(tx_frame, &rx.bytes)
    }

    /// Time on air of a `frame_len`-byte frame, seconds. Air time is
    /// content-independent for every constant-envelope PHY here, so
    /// the default modulates a zero frame and divides its length by the
    /// sample rate — exact for any implementor. A PHY with an
    /// authoritative closed form (LoRa's AN1200.13 airtime formula)
    /// overrides it allocation-free.
    fn airtime_len_s(&self, frame_len: usize) -> f64 {
        self.modulate(&vec![0u8; frame_len]).len() as f64 / self.sample_rate_hz()
    }

    /// Demodulate a batch of captures by looping
    /// [`demodulate`](PhyModem::demodulate). No engine calls it and no
    /// modem overrides it: it stays only for perfbench's traced replay
    /// and probes, and goes once perfbench traces the real engines
    /// (ROADMAP item 14).
    fn demodulate_batch(&self, waveforms: &[&[Complex]]) -> Vec<DemodResult> {
        waveforms.iter().map(|iq| self.demodulate(iq)).collect()
    }

    /// The modem's receiver as a [`LinearReceiver`], when it is linear
    /// in the capture up to the decisions it takes per window. A sweep
    /// then decides every RSSI point of a pass from projections of its
    /// signal and noise, settling the windows it cannot certify on the
    /// point's capture ([`crate::superpose::demodulate_pass`]). The
    /// default, `None`, keeps every point on `demodulate`.
    fn linear_receiver(&self) -> Option<&dyn LinearReceiver> {
        None
    }

    /// Clone into a new box (object-safe `Clone`; lets registries and
    /// sweep configs be cloned).
    fn clone_box(&self) -> Box<dyn PhyModem>;
}

impl Clone for Box<dyn PhyModem> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Bitwise error count between a transmitted and a recovered byte
/// string: flipped bits in the overlap plus 8 errors per transmitted
/// byte the receiver never produced (a truncated capture lost them).
/// Surplus received bytes are ignored — they correspond to nothing
/// that was sent.
pub fn bit_errors_between(tx: &[u8], rx: &[u8]) -> ErrorCount {
    let n = tx.len().min(rx.len());
    let flipped: u64 = tx[..n]
        .iter()
        .zip(&rx[..n])
        .map(|(a, b)| (a ^ b).count_ones() as u64)
        .sum();
    let lost = 8 * (tx.len() - n) as u64;
    ErrorCount::new(flipped + lost, 8 * tx.len() as u64)
}

/// Unit-wise error count between transmitted and received unit streams
/// (symbols, bits): mismatches in the overlap plus one error per lost
/// unit; `trials = tx.len()`.
pub fn unit_errors_between(tx: &[u16], rx: &[u16]) -> ErrorCount {
    let n = tx.len().min(rx.len());
    let wrong = tx[..n].iter().zip(&rx[..n]).filter(|(a, b)| a != b).count() as u64;
    let lost = (tx.len() - n) as u64;
    ErrorCount::new(wrong + lost, tx.len() as u64)
}

/// A type-erased registry of PHY modems.
///
/// Iteration order **is** registration order — the determinism contract
/// of the sweep and campaign engines keys randomness by index, so the
/// registry must never reorder behind a caller's back. Lookup is by
/// [`PhyModem::label`]; registering a duplicate label panics (two
/// modems answering to one key would make keyed reports ambiguous).
#[derive(Debug, Clone, Default)]
pub struct PhyRegistry {
    entries: Vec<Box<dyn PhyModem>>,
}

impl PhyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        PhyRegistry {
            entries: Vec::new(),
        }
    }

    /// Register a modem at the end of the iteration order.
    ///
    /// # Panics
    /// Panics if a modem with the same label is already registered.
    pub fn register(&mut self, phy: Box<dyn PhyModem>) -> &mut Self {
        let label = phy.label();
        assert!(
            self.get(&label).is_none(),
            "PHY label {label:?} already registered"
        );
        self.entries.push(phy);
        self
    }

    /// Keyed lookup by label.
    pub fn get(&self, label: &str) -> Option<&dyn PhyModem> {
        self.entries
            .iter()
            .find(|p| p.label() == label)
            .map(|p| p.as_ref())
    }

    /// All labels, in registration order.
    pub fn labels(&self) -> Vec<String> {
        self.entries.iter().map(|p| p.label()).collect()
    }

    /// Iterate the modems in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn PhyModem> {
        self.entries.iter().map(|p| p.as_ref())
    }

    /// Number of registered modems.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loopback "modem" for registry/trait plumbing tests: BPSK at one
    /// sample per bit.
    #[derive(Debug, Clone)]
    struct TestPhy {
        name: &'static str,
    }

    impl PhyModem for TestPhy {
        fn label(&self) -> String {
            self.name.to_string()
        }
        fn sample_rate_hz(&self) -> f64 {
            8.0
        }
        fn occupied_bw_hz(&self) -> f64 {
            8.0
        }
        fn noise_figure_db(&self) -> f64 {
            0.0
        }
        fn sensitivity_anchor_dbm(&self) -> f64 {
            -100.0
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
        fn clone_box(&self) -> Box<dyn PhyModem> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn default_count_errors_is_bitwise() {
        let phy = TestPhy { name: "bpsk" };
        let tx = [0xA5u8, 0x3C];
        let rx = phy.demodulate(&phy.modulate(&tx));
        let c = phy.count_errors(&tx, &rx);
        assert_eq!(c, ErrorCount::new(0, 16));
        assert!(c.is_clean());
        // a truncated capture loses whole bytes as bit errors
        let short = phy.demodulate(&phy.modulate(&tx)[..8]);
        assert_eq!(phy.count_errors(&tx, &short), ErrorCount::new(8, 16));
    }

    #[test]
    fn default_airtime_is_waveform_length_over_fs() {
        let phy = TestPhy { name: "bpsk" };
        // 2 bytes = 16 samples at 8 S/s
        assert!((phy.airtime_len_s(2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bit_errors_between_counts_flips_and_losses() {
        assert_eq!(bit_errors_between(&[0xFF], &[0x0F]), ErrorCount::new(4, 8));
        assert_eq!(
            bit_errors_between(&[0xFF, 0x00], &[0xFF]),
            ErrorCount::new(8, 16)
        );
        assert_eq!(bit_errors_between(&[], &[1, 2]), ErrorCount::ZERO);
        // surplus rx bytes are ignored
        assert_eq!(
            bit_errors_between(&[0x55], &[0x55, 0xFF]),
            ErrorCount::new(0, 8)
        );
    }

    #[test]
    fn unit_errors_between_counts_mismatches_and_losses() {
        assert_eq!(
            unit_errors_between(&[1, 2, 3], &[1, 9, 3]),
            ErrorCount::new(1, 3)
        );
        assert_eq!(unit_errors_between(&[1, 2, 3], &[1]), ErrorCount::new(2, 3));
        assert_eq!(unit_errors_between(&[], &[]), ErrorCount::ZERO);
    }

    #[test]
    fn error_count_arithmetic() {
        let mut a = ErrorCount::new(1, 10);
        a += ErrorCount::new(2, 10);
        assert_eq!(a, ErrorCount::new(3, 20));
        assert!((a.rate() - 0.15).abs() < 1e-12);
        assert_eq!(ErrorCount::ZERO.rate(), 0.0);
        assert_eq!(
            ErrorCount::new(1, 2) + ErrorCount::new(1, 2),
            ErrorCount::new(2, 4)
        );
    }

    #[test]
    fn registry_keeps_registration_order_and_keyed_lookup() {
        let mut reg = PhyRegistry::new();
        assert!(reg.is_empty());
        reg.register(Box::new(TestPhy { name: "a" }));
        reg.register(Box::new(TestPhy { name: "b" }));
        reg.register(Box::new(TestPhy { name: "c" }));
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.labels(), vec!["a", "b", "c"]);
        assert!(reg.get("b").is_some());
        assert!(reg.get("z").is_none());
        // clones preserve order
        let cloned = reg.clone();
        assert_eq!(cloned.labels(), reg.labels());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_duplicate_labels() {
        let mut reg = PhyRegistry::new();
        reg.register(Box::new(TestPhy { name: "a" }));
        reg.register(Box::new(TestPhy { name: "a" }));
    }

    #[test]
    fn batch_defaults_match_scalar_paths() {
        let phy = TestPhy { name: "bpsk" };
        let waves: Vec<Vec<Complex>> = [&[0xA5u8, 0x3C][..], &[0x00], &[0xFF, 0x01, 0x80]]
            .iter()
            .map(|frame| phy.modulate(frame))
            .collect();
        let slices: Vec<&[Complex]> = waves.iter().map(|w| w.as_slice()).collect();
        let batch = phy.demodulate_batch(&slices);
        assert_eq!(batch.len(), slices.len());
        for (iq, rx) in slices.iter().zip(&batch) {
            assert_eq!(*rx, phy.demodulate(iq));
        }
    }

    #[test]
    fn trait_objects_round_trip_through_the_registry() {
        let mut reg = PhyRegistry::new();
        reg.register(Box::new(TestPhy { name: "bpsk" }));
        let phy = reg.get("bpsk").unwrap();
        let frame = [0xDEu8, 0xAD, 0xBE, 0xEF];
        let rx = phy.demodulate(&phy.modulate(&frame));
        assert_eq!(rx.bytes, frame);
        assert!(phy.count_errors(&frame, &rx).is_clean());
    }
}
