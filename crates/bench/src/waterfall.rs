//! PHY conformance waterfalls: BER/SER/PER vs RSSI under composable
//! channel impairments, sharded with a determinism contract.
//!
//! The paper characterizes TinySDR's PHYs by sweeping received signal
//! strength and counting errors (Figs. 10–12, 15). This module turns
//! that one-off measurement into a conformance harness: a grid of
//! `scenario × impairment × RSSI` points, each running a real modem
//! end-to-end (TX → [`ImpairmentChain`] → RX) and reporting exact
//! `(errors, trials)` counts, plus the derived sensitivity (the RSSI at
//! which the curve crosses a target error rate). The paper's Figs.
//! 10–12 are sweeps of this engine over its `clean` chain
//! ([`crate::phy_experiments`]).
//!
//! The sweep engine is **protocol-agnostic**: every modem enters as a
//! [`PhyModem`] trait object, and its label, sample rate, noise figure
//! and default RSSI grid (derived from the published sensitivity
//! anchor) all come from the trait — there is no per-protocol branch
//! anywhere in the measurement path. [`Scenario`] is a thin constructor
//! layer that builds [`SweepScenario`]s for the protocols the workspace
//! ships (LoRa, BLE GFSK, 802.15.4 O-QPSK); anything implementing
//! [`PhyModem`] sweeps identically via [`SweepScenario::new`].
//!
//! Two properties make the harness usable as a regression gate:
//!
//! * **Determinism contract.** Every point derives its randomness from
//!   splitmix64 streams keyed by `(sweep seed, scenario, impairment)` —
//!   never by execution order — so a sweep sharded across N workers of
//!   the workspace executor ([`tinysdr_dsp::executor`]) is
//!   **bit-identical** to the sequential run, exactly like
//!   `Testbed::run_campaign`.
//! * **Common random numbers.** A scenario's reference frame and
//!   transmit waveform are generated once and shared by all of its
//!   impairments and RSSI levels (only the channel draws differ per
//!   impairment), so curves are monotone, smooth, and directly
//!   comparable at far lower trial counts than independent sampling
//!   would need.

use std::ops::ControlFlow;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tinysdr_ble::modem::BleBerPhy;
use tinysdr_dsp::cancel::CancelToken;
use tinysdr_dsp::complex::Complex;
use tinysdr_dsp::executor::fold_in_order;
use tinysdr_dsp::stats::threshold_crossing;
use tinysdr_lora::modem::{LoraPerPhy, LoraSerPhy};
use tinysdr_ota::json::Value;
use tinysdr_ota::seed::stream_seed;
use tinysdr_rf::impairments::{ChainScratch, ImpairmentChain, PreparedPass};
use tinysdr_rf::phy::{ErrorCount, PhyModem, PhyRegistry};
use tinysdr_rf::superpose::{demodulate_pass, PathCensus, ReceiverScratch};
use tinysdr_zigbee::modem::ZigbeePhy;

use crate::Series;

/// Stream tag for a scenario's reference-frame draw.
const TAG_DATA: u64 = 0xDA7A_0001;
/// Stream tag for a curve's channel (impairment + noise) draws.
const TAG_CHAIN: u64 = 0xC4A1_0002;

/// An inclusive RSSI grid in whole dB (integer endpoints keep the grid
/// exactly representable and the report keys exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssiGrid {
    /// Lowest RSSI in dBm.
    pub start_dbm: i32,
    /// Highest RSSI in dBm (inclusive).
    pub stop_dbm: i32,
    /// Step in dB.
    pub step_db: u32,
}

impl RssiGrid {
    /// New grid; panics if empty or the step is zero.
    pub fn new(start_dbm: i32, stop_dbm: i32, step_db: u32) -> Self {
        assert!(step_db > 0, "RSSI step must be positive");
        assert!(start_dbm <= stop_dbm, "RSSI grid must ascend");
        RssiGrid {
            start_dbm,
            stop_dbm,
            step_db,
        }
    }

    /// A grid bracketing a sensitivity anchor: `below` dB under it to
    /// `above` dB over it — how every scenario derives its default
    /// window from [`PhyModem::sensitivity_anchor_dbm`].
    pub fn around(anchor_dbm: f64, below: u32, above: u32, step_db: u32) -> Self {
        let a = anchor_dbm.round() as i32;
        RssiGrid::new(a - below as i32, a + above as i32, step_db)
    }

    /// The grid points in ascending order.
    pub fn points(&self) -> Vec<f64> {
        (self.start_dbm..=self.stop_dbm)
            .step_by(self.step_db as usize)
            .map(|x| x as f64)
            .collect()
    }
}

/// One scenario of the conformance grid: a boxed modem plus the sweep
/// knobs the engine needs — nothing protocol-specific.
#[derive(Debug, Clone)]
pub struct SweepScenario {
    /// The modem under test.
    pub phy: Box<dyn PhyModem>,
    /// RSSI window (defaults to a bracket around the modem's published
    /// sensitivity anchor).
    pub rssi: RssiGrid,
    /// Reference-frame length in bytes, drawn once per scenario.
    pub frame_len: usize,
    /// Independent channel realizations per grid point (packet
    /// scenarios count one trial per pass; stream scenarios usually
    /// need just one pass over a long frame).
    pub passes: u32,
}

impl SweepScenario {
    /// New scenario with the modem's default RSSI window (anchor −16 dB
    /// … anchor +26 dB in 2 dB steps) and a single pass.
    pub fn new(phy: Box<dyn PhyModem>, frame_len: usize) -> Self {
        assert!(frame_len > 0, "need a non-empty reference frame");
        let rssi = RssiGrid::around(phy.sensitivity_anchor_dbm(), 16, 26, 2);
        SweepScenario {
            phy,
            rssi,
            frame_len,
            passes: 1,
        }
    }

    /// Builder: sweep a custom RSSI window.
    pub fn with_rssi(mut self, grid: RssiGrid) -> Self {
        self.rssi = grid;
        self
    }

    /// Builder: run `n ≥ 1` channel realizations per point.
    pub fn with_passes(mut self, n: u32) -> Self {
        assert!(n >= 1, "need at least one pass");
        self.passes = n;
        self
    }

    /// The report key (the modem's label).
    pub fn label(&self) -> String {
        self.phy.label()
    }
}

/// Thin constructor layer: the workspace's stock protocols as
/// [`SweepScenario`]s. This is the **only** place the waterfall names
/// concrete modems — the engine below never branches on protocol.
#[derive(Debug, Clone, Copy)]
pub struct Scenario;

impl Scenario {
    /// LoRa chirp-symbol error rate (Fig. 11 shape): `symbols` random
    /// chirps per point at `(sf, bw)`.
    pub fn lora_ser(sf: u8, bw_hz: f64, symbols: usize) -> SweepScenario {
        let frame_len = (symbols * sf as usize).div_ceil(8);
        SweepScenario::new(Box::new(LoraSerPhy::new(sf, bw_hz)), frame_len)
    }

    /// LoRa packet error rate with CR 4/8 framing (Fig. 10 shape):
    /// `packets` transmissions of one random `payload_len`-byte frame
    /// per point.
    pub fn lora_per(sf: u8, bw_hz: f64, payload_len: usize, packets: u32) -> SweepScenario {
        SweepScenario::new(Box::new(LoraPerPhy::new(sf, bw_hz, 4)), payload_len)
            .with_passes(packets)
    }

    /// BLE GFSK bit error rate (Fig. 12 shape): `bits` random bits per
    /// point at `sps` samples per bit.
    pub fn ble_ber(sps: usize, bits: usize) -> SweepScenario {
        SweepScenario::new(Box::new(BleBerPhy::new(sps)), bits.div_ceil(8))
    }

    /// 802.15.4 O-QPSK DSSS symbol error rate: `symbols` random 4-bit
    /// symbols per point at `spc` samples per chip.
    pub fn zigbee_oqpsk(spc: usize, symbols: usize) -> SweepScenario {
        SweepScenario::new(Box::new(ZigbeePhy::new(spc)), symbols.div_ceil(2))
    }
}

/// The workspace's stock modems as a [`PhyRegistry`], in the canonical
/// sweep order: the LoRa SF×BW grid, the framed OTA-class LoRa modem,
/// BLE GFSK, and 802.15.4 O-QPSK. Registration order is iteration
/// order, which the determinism contract relies on.
pub fn standard_registry() -> PhyRegistry {
    let mut reg = PhyRegistry::new();
    for sf in 7..=10u8 {
        for bw_hz in [125e3, 500e3] {
            reg.register(Box::new(LoraSerPhy::new(sf, bw_hz)));
        }
    }
    reg.register(Box::new(LoraPerPhy::new(8, 125e3, 4)));
    reg.register(Box::new(BleBerPhy::new(4)));
    reg.register(Box::new(ZigbeePhy::new(2)));
    reg
}

/// A labelled impairment recipe of the grid (the chain's noise figure
/// is overridden per scenario from the modem's metadata).
#[derive(Debug, Clone, PartialEq)]
pub struct NamedImpairment {
    /// Label used as the report key (e.g. `"cfo30"`).
    pub label: String,
    /// The impairment stack.
    pub chain: ImpairmentChain,
}

impl NamedImpairment {
    /// New named impairment.
    pub fn new(label: impl Into<String>, chain: ImpairmentChain) -> Self {
        NamedImpairment {
            label: label.into(),
            chain,
        }
    }
}

/// Configuration of one conformance sweep.
#[derive(Debug, Clone)]
pub struct WaterfallConfig {
    /// Sweep seed; all randomness derives from it order-independently.
    pub seed: u64,
    /// Worker threads (1 = sequential reference).
    pub shards: usize,
    /// Modem scenarios.
    pub scenarios: Vec<SweepScenario>,
    /// Impairment grid applied to every scenario.
    pub impairments: Vec<NamedImpairment>,
}

impl WaterfallConfig {
    /// The full conformance grid: LoRa SER across SF 7–10 at BW 125 and
    /// 500 kHz, the SF8/BW125 packet waterfall, BLE GFSK, and 802.15.4
    /// O-QPSK — each under the default impairment set.
    pub fn full(seed: u64) -> Self {
        let mut scenarios = Vec::new();
        for sf in 7..=10u8 {
            for bw_hz in [125e3, 500e3] {
                scenarios.push(Scenario::lora_ser(sf, bw_hz, 240));
            }
        }
        scenarios.push(Scenario::lora_per(8, 125e3, 3, 50));
        scenarios.push(Scenario::ble_ber(4, 40_000));
        scenarios.push(Scenario::zigbee_oqpsk(2, 4_000));
        WaterfallConfig {
            seed,
            shards: 1,
            scenarios,
            impairments: default_impairments(),
        }
    }

    /// A coarse smoke grid (CI and tests): SF8/BW125 SER, BLE BER and
    /// 802.15.4 SER, three impairments, wide RSSI steps, small trial
    /// counts.
    pub fn quick(seed: u64) -> Self {
        WaterfallConfig {
            seed,
            shards: 1,
            scenarios: vec![
                Scenario::lora_ser(8, 125e3, 64).with_rssi(RssiGrid::new(-136, -112, 4)),
                Scenario::ble_ber(4, 4_000).with_rssi(RssiGrid::new(-102, -82, 4)),
                Scenario::zigbee_oqpsk(2, 1_000).with_rssi(RssiGrid::new(-108, -88, 4)),
            ],
            impairments: vec![
                NamedImpairment::new("clean", ImpairmentChain::new(0.0)),
                NamedImpairment::new("cfo30", ImpairmentChain::new(0.0).with_cfo_hz(30.0)),
                NamedImpairment::new(
                    "timing0.25",
                    ImpairmentChain::new(0.0).with_timing_offset(0.25),
                ),
            ],
        }
    }

    /// A sweep covering every modem in a [`PhyRegistry`], one scenario
    /// per registered PHY in registration order, each on its default
    /// anchor-derived RSSI window with a `frame_len`-byte reference
    /// frame.
    pub fn from_registry(registry: &PhyRegistry, frame_len: usize, seed: u64) -> Self {
        WaterfallConfig {
            seed,
            shards: 1,
            scenarios: registry
                .iter()
                .map(|phy| SweepScenario::new(phy.clone_box(), frame_len))
                .collect(),
            impairments: default_impairments(),
        }
    }

    /// Builder: run the sweep on `n` worker threads.
    pub fn sharded(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one shard");
        self.shards = n;
        self
    }
}

/// The default impairment grid: each entry isolates one effect at a
/// magnitude inside the documented tolerance of the modems, plus a
/// Rayleigh entry that visibly shallows the waterfall.
pub fn default_impairments() -> Vec<NamedImpairment> {
    vec![
        NamedImpairment::new("clean", ImpairmentChain::new(0.0)),
        NamedImpairment::new("cfo30", ImpairmentChain::new(0.0).with_cfo_hz(30.0)),
        // a *quarter*-sample offset: a half-sample residual is ambiguous
        // by construction for the fixed-grid OSR-1 SER measurement (the
        // dechirped peak lands exactly between FFT bins); the packet
        // scenarios re-sync from the preamble and tolerate more
        NamedImpairment::new(
            "timing0.25",
            ImpairmentChain::new(0.0).with_timing_offset(0.25),
        ),
        NamedImpairment::new(
            "drift2ppm",
            ImpairmentChain::new(0.0).with_clock_drift_ppm(2.0),
        ),
        NamedImpairment::new(
            "iq1dB5deg",
            ImpairmentChain::new(0.0).with_iq_imbalance(1.0, 5.0),
        ),
        NamedImpairment::new("pn100", ImpairmentChain::new(0.0).with_phase_noise(100.0)),
        NamedImpairment::new(
            "rayleigh8k",
            ImpairmentChain::new(0.0).with_block_fading(8192),
        ),
        NamedImpairment::new("adc13", ImpairmentChain::new(0.0).with_adc_quantization(13)),
    ]
}

/// One measured point of the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Scenario label.
    pub scenario: String,
    /// Impairment label.
    pub impairment: String,
    /// Received signal strength in dBm.
    pub rssi_dbm: f64,
    /// Errors observed (symbols, packets or bits per the scenario).
    pub errors: u64,
    /// Trials observed.
    pub trials: u64,
}

impl SweepPoint {
    /// Error rate in `[0, 1]` (0 for an empty point).
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.errors as f64 / self.trials as f64
        }
    }
}

/// The result of one sweep: every grid point, in deterministic
/// (scenario, impairment, ascending RSSI) order.
#[derive(Debug, Clone, PartialEq)]
pub struct WaterfallReport {
    /// All measured points.
    pub points: Vec<SweepPoint>,
}

impl WaterfallReport {
    /// The `(rssi, error rate)` curve for one scenario × impairment,
    /// ascending in RSSI.
    pub fn curve(&self, scenario: &str, impairment: &str) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .filter(|p| p.scenario == scenario && p.impairment == impairment)
            .map(|p| (p.rssi_dbm, p.rate()))
            .collect()
    }

    /// Sensitivity: the RSSI at which the curve crosses below
    /// `threshold` error rate (linear interpolation), `None` if it
    /// never does.
    pub fn sensitivity_dbm(&self, scenario: &str, impairment: &str, threshold: f64) -> Option<f64> {
        threshold_crossing(&self.curve(scenario, impairment), threshold)
    }

    /// `true` if the curve's error rate never *increases* with RSSI by
    /// more than `tol` (absolute rate) — the waterfall shape check.
    pub fn is_monotone_non_increasing(&self, scenario: &str, impairment: &str, tol: f64) -> bool {
        self.curve(scenario, impairment)
            .windows(2)
            .all(|w| w[1].1 <= w[0].1 + tol)
    }

    /// Distinct scenario labels, in grid order.
    pub fn scenario_labels(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for p in &self.points {
            if !out.contains(&p.scenario) {
                out.push(p.scenario.clone());
            }
        }
        out
    }

    /// Distinct impairment labels, in grid order.
    pub fn impairment_labels(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for p in &self.points {
            if !out.contains(&p.impairment) {
                out.push(p.impairment.clone());
            }
        }
        out
    }

    /// Render one scenario's curves (error rate in %) as printable
    /// series, one per impairment.
    pub fn to_series(&self, scenario: &str) -> Vec<Series> {
        self.impairment_labels()
            .into_iter()
            .map(|imp| {
                let mut s = Series::new(imp.clone());
                for (x, y) in self.curve(scenario, &imp) {
                    s.push(x, y * 100.0);
                }
                s
            })
            .filter(|s| !s.points.is_empty())
            .collect()
    }

    /// The sensitivity table: `(scenario, impairment, RSSI at
    /// `threshold`)` for every curve that crosses it.
    pub fn sensitivity_table(&self, threshold: f64) -> Vec<(String, String, Option<f64>)> {
        let mut out = Vec::new();
        for sc in self.scenario_labels() {
            for imp in self.impairment_labels() {
                if self.curve(&sc, &imp).is_empty() {
                    continue;
                }
                out.push((
                    sc.clone(),
                    imp.clone(),
                    self.sensitivity_dbm(&sc, &imp, threshold),
                ));
            }
        }
        out
    }

    /// As a JSON object (`kind: "waterfall"`): every grid point with
    /// its exact integer counts, in the report's deterministic order —
    /// the document the testbed daemon writes as `report.json` and
    /// `repro --json waterfall` prints.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("kind".into(), Value::str("waterfall")),
            ("schema".into(), Value::num(1.0)),
            (
                "points".into(),
                Value::Arr(
                    self.points
                        .iter()
                        .map(|p| {
                            Value::Obj(vec![
                                ("scenario".into(), Value::str(&p.scenario)),
                                ("impairment".into(), Value::str(&p.impairment)),
                                ("rssi_dbm".into(), Value::num(p.rssi_dbm)),
                                ("errors".into(), Value::num(p.errors as f64)),
                                ("trials".into(), Value::num(p.trials as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Inverse of [`Self::to_json`].
    pub fn from_json(v: &Value) -> Option<WaterfallReport> {
        if v.get("kind")?.as_str()? != "waterfall" {
            return None;
        }
        let mut points = Vec::new();
        for p in v.get("points")?.as_arr()? {
            points.push(SweepPoint {
                scenario: p.get("scenario")?.as_str()?.to_string(),
                impairment: p.get("impairment")?.as_str()?.to_string(),
                rssi_dbm: p.get("rssi_dbm")?.as_f64()?,
                errors: p.get("errors")?.as_u64()?,
                trials: p.get("trials")?.as_u64()?,
            });
        }
        Some(WaterfallReport { points })
    }
}

/// Receiver energy per **delivered** bit, nJ, priced through the
/// modem's own [`PhyModem`] metadata: the receiver listens for the
/// frame's air time ([`PhyModem::airtime_len_s`]) at `rx_platform_mw`,
/// and `frame_len × 8 × (1 − error_rate)` payload bits survive. `None`
/// when nothing survives (`error_rate ≥ 1`).
///
/// This is the conformance harness's energy axis: a slow, robust PHY
/// (LoRa SF8) buys its sensitivity with orders of magnitude more
/// energy per bit than a fast one (BLE at 1 Mb/s) at the *same*
/// receive power — air time, not wattage, is what separates protocols.
pub fn energy_per_delivered_bit_nj(
    phy: &dyn PhyModem,
    frame_len: usize,
    rx_platform_mw: f64,
    error_rate: f64,
) -> Option<f64> {
    assert!(frame_len > 0, "need a frame to deliver");
    assert!(rx_platform_mw >= 0.0 && rx_platform_mw.is_finite());
    if !(0.0..1.0).contains(&error_rate) {
        return None;
    }
    let airtime_s = phy.airtime_len_s(frame_len);
    let energy_mj = rx_platform_mw * airtime_s;
    let delivered_bits = frame_len as f64 * 8.0 * (1.0 - error_rate);
    Some(energy_mj * 1e6 / delivered_bits)
}

/// Per-curve energy pricing of a finished sweep: for every
/// `scenario × impairment` curve, the receiver energy per delivered
/// bit (nJ) at the curve's `threshold`-crossing sensitivity — the cost
/// of the last usable dB. `None` where the curve never crosses (the
/// impairment denies the target error rate everywhere in the window).
pub fn energy_per_bit_table(
    cfg: &WaterfallConfig,
    rep: &WaterfallReport,
    rx_platform_mw: f64,
    threshold: f64,
) -> Vec<(String, String, Option<f64>)> {
    let mut out = Vec::new();
    for sc in &cfg.scenarios {
        let label = sc.label();
        for imp in rep.impairment_labels() {
            if rep.curve(&label, &imp).is_empty() {
                continue;
            }
            let nj = rep.sensitivity_dbm(&label, &imp, threshold).and_then(|_| {
                energy_per_delivered_bit_nj(
                    sc.phy.as_ref(),
                    sc.frame_len,
                    rx_platform_mw,
                    threshold,
                )
            });
            out.push((label.clone(), imp, nj));
        }
    }
    out
}

/// Derived seed roots: one per scenario (reference frame), one per
/// scenario × impairment curve (channel draws).
#[inline]
fn scenario_seed(sweep_seed: u64, s_idx: usize) -> u64 {
    stream_seed(sweep_seed, s_idx as u64 ^ 0x5CE0)
}

#[inline]
fn curve_seed(sweep_seed: u64, s_idx: usize, i_idx: usize) -> u64 {
    stream_seed(scenario_seed(sweep_seed, s_idx), i_idx as u64 ^ 0x13B0)
}

/// Pre-built state for one scenario — the reference frame and its
/// modulated waveform, generated **once** per scenario and shared
/// read-only across every impairment, RSSI point and shard (the
/// transmit side is identical for a whole scenario by the
/// common-random-numbers design, so re-modulating per point would be
/// pure waste). Protocol-agnostic: the modem built it, the engine just
/// carries it.
struct Ctx {
    frame: Vec<u8>,
    tx: Vec<Complex>,
}

impl Ctx {
    fn build(cfg: &WaterfallConfig, s_idx: usize) -> Ctx {
        let sc = &cfg.scenarios[s_idx];
        let data_seed = stream_seed(scenario_seed(cfg.seed, s_idx), TAG_DATA);
        let mut rng = StdRng::seed_from_u64(data_seed);
        let frame: Vec<u8> = (0..sc.frame_len).map(|_| rng.gen::<u8>()).collect();
        let tx = sc.phy.modulate(&frame);
        Ctx { frame, tx }
    }
}

/// Per-worker scratch arena: one set per thread (or one total in the
/// sequential run), reused across every curve the worker measures.
/// Buffer reuse here is purely a performance seam — every path through
/// it is bit-identical to the allocating reference, which
/// `engine_is_bit_identical_to_naive_reference` asserts.
#[derive(Debug, Default)]
struct WorkerScratch {
    chain: ChainScratch,
    /// The curve's unseeded front (stages 1–4), shared by its passes.
    front: Vec<Complex>,
    prep: PreparedPass,
    /// The one capture in flight on the exact path: each RSSI point is
    /// applied into it, demodulated and scored before the next point
    /// overwrites it. A superposed fading pass borrows it for the faded
    /// signal.
    rx: Vec<Complex>,
    /// How the worker's points were decided (read by the tests).
    census: PathCensus,
}

/// Measure curve `curve` — the `scenario × impairment` pair at that
/// index in scenario-major order — as its points in ascending-RSSI
/// order, measured together so each pass's RSSI-independent channel
/// state is prepared once and used across the whole RSSI axis.
///
/// The unseeded stages — timing/drift interpolation, IQ imbalance, CFO
/// — run **once per curve** ([`ImpairmentChain::prepare_front_into`]):
/// every pass of a curve shares the scenario's waveform. Per pass,
/// [`ImpairmentChain::prepare_pass_from`] runs the seeded,
/// RSSI-independent ones — phase noise, the fading draws and the full
/// AWGN vector — once, and [`demodulate_pass`] decides every RSSI point
/// from it. Every receiver of the grid is linear: it decides each point
/// from its projections of the faded signal and the noise (on the
/// `adc13` column, against the quantization residual's bound too),
/// falling back to the exact path for any point it cannot certify,
/// which replays the pass at that point with
/// [`ImpairmentChain::apply_prepared_into`] into the worker's single
/// capture buffer and demodulates it. Both give the exact path's
/// results. Error counts accumulate per point over passes in exact
/// integer arithmetic, so the pass-major loop order leaves the totals
/// bit-identical to the point-major reference.
fn run_curve(
    cfg: &WaterfallConfig,
    ctxs: &[Ctx],
    curve: usize,
    ws: &mut WorkerScratch,
) -> Vec<SweepPoint> {
    let (s_idx, i_idx) = (curve / cfg.impairments.len(), curve % cfg.impairments.len());
    let sc = &cfg.scenarios[s_idx];
    let phy = sc.phy.as_ref();
    let named = &cfg.impairments[i_idx];
    let chain = named.chain.clone().with_noise_figure(phy.noise_figure_db());
    let fs = phy.sample_rate_hz();
    let ctx = &ctxs[s_idx];
    let rssis = sc.rssi.points();
    // common random numbers: the channel seed deliberately excludes
    // RSSI, so every point of a curve reuses the same channel draws
    // (and all curves of a scenario share one TX waveform, see Ctx) —
    // the waterfall is monotone at modest trial counts
    let curve_seed = curve_seed(cfg.seed, s_idx, i_idx);
    let mut counts = vec![ErrorCount::ZERO; rssis.len()];
    // the linear receiver's buffers live for one curve: sized by its
    // scenario, they need not outlast it
    let mut receiver = ReceiverScratch::default();
    // a single-pass curve prepares straight from the waveform, without
    // holding a second copy of its front
    let shared_front = sc.passes > 1;
    if shared_front {
        chain.prepare_front_into(&ctx.tx, fs, &mut ws.front, &mut ws.chain);
    }
    for k in 0..sc.passes {
        let pass_seed = stream_seed(curve_seed, TAG_CHAIN ^ ((k as u64) << 20));
        if shared_front {
            chain.prepare_pass_from(&ws.front, fs, pass_seed, &mut ws.prep);
        } else {
            chain.prepare_pass_into(&ctx.tx, fs, pass_seed, &mut ws.prep, &mut ws.chain);
        }
        let each = |i: usize, res| counts[i] += phy.count_errors(&ctx.frame, &res);
        ws.census += demodulate_pass(
            phy,
            &chain,
            &ws.prep,
            &rssis,
            &mut ws.rx,
            &mut receiver,
            each,
        );
    }
    rssis
        .iter()
        .zip(&counts)
        .map(|(&rssi_dbm, count)| SweepPoint {
            scenario: phy.label(),
            impairment: named.label.clone(),
            rssi_dbm,
            errors: count.errors,
            trials: count.trials,
        })
        .collect()
}

/// Run a conformance sweep.
///
/// With `cfg.shards == 1` the grid is measured sequentially; with more,
/// executor workers claim curves (one per `scenario × impairment`
/// pair) from a shared atomic cursor — a worker that drew cheap curves
/// simply claims more, so one expensive scenario no longer strands the
/// others idle — each holding one `WorkerScratch` arena for everything
/// it measures. Curves are folded into the report in curve-index order.
/// Either way the result is **bit-identical** for the same config and
/// seed — every point's randomness is derived from content, not from
/// execution order (asserted by `tests/waterfall.rs` and the CI smoke
/// step).
///
/// # Panics
/// Panics if two scenarios or two impairments share a label: the
/// report keys its curves by label, so their points would merge into
/// one curve. Propagates a panic from any sweep shard: a dead shard
/// must abort the sweep, or the determinism contract would hide
/// missing points.
pub fn run_waterfall(cfg: &WaterfallConfig) -> WaterfallReport {
    // nobody else holds the token, so nothing can cancel the sweep
    run_waterfall_cancellable(cfg, &CancelToken::new()).expect_complete()
}

/// Outcome of a cancellable sweep.
#[derive(Debug)]
pub enum SweepRun {
    /// Every curve of the grid was measured.
    Complete(WaterfallReport),
    /// A cancel token was observed at a curve boundary; partial points
    /// are discarded (curves are cheap enough to re-measure, and a
    /// partial grid would silently skew sensitivity tables).
    Cancelled {
        /// Curves measured before the token was observed — always the
        /// grid's leading curves, each one whole.
        curves_done: usize,
        /// Total curves in the grid (`scenarios × impairments`).
        total_curves: usize,
    },
}

impl SweepRun {
    /// The completed report.
    ///
    /// # Panics
    /// Panics if the sweep was cancelled — callers holding a live
    /// token must match on [`SweepRun`] instead.
    pub fn expect_complete(self) -> WaterfallReport {
        match self {
            SweepRun::Complete(rep) => rep,
            SweepRun::Cancelled {
                curves_done,
                total_curves,
            } => panic!("sweep cancelled at curve {curves_done}/{total_curves}"),
        }
    }
}

/// [`run_waterfall`] with cooperative cancellation: `cancel` is
/// checked before each `scenario × impairment` curve (the sweep's
/// natural unit of loss-free interruption). A token that is never
/// cancelled changes nothing — the result is bit-identical to
/// [`run_waterfall`].
///
/// # Panics
/// On a repeated scenario or impairment label, and propagates a panic
/// from any sweep shard, like [`run_waterfall`].
pub fn run_waterfall_cancellable(cfg: &WaterfallConfig, cancel: &CancelToken) -> SweepRun {
    assert_unique("scenario", cfg.scenarios.iter().map(SweepScenario::label));
    assert_unique(
        "impairment",
        cfg.impairments.iter().map(|imp| imp.label.clone()),
    );
    let ctxs: Vec<Ctx> = (0..cfg.scenarios.len())
        .map(|s_idx| Ctx::build(cfg, s_idx))
        .collect();
    let total_curves = cfg.scenarios.len() * cfg.impairments.len();
    // curve index order is (scenario, impairment) order, and each
    // curve's points ascend in RSSI
    let mut points = Vec::new();
    let curves_done = fold_in_order(
        0..total_curves,
        cfg.shards,
        cancel,
        WorkerScratch::default,
        |curve, ws| run_curve(cfg, &ctxs, curve, ws),
        |_, curve| {
            points.extend(curve);
            ControlFlow::Continue(())
        },
    );
    if curves_done < total_curves {
        return SweepRun::Cancelled {
            curves_done,
            total_curves,
        };
    }
    SweepRun::Complete(WaterfallReport { points })
}

/// Panic if `labels` repeats one: each label keys one curve set of
/// the report.
fn assert_unique(kind: &str, labels: impl Iterator<Item = String>) {
    let mut seen: Vec<String> = Vec::new();
    for label in labels {
        assert!(
            !seen.contains(&label),
            "duplicate {kind} label {label:?}: its curves would merge in the report"
        );
        seen.push(label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A micro grid that keeps debug-mode runtime negligible.
    fn tiny() -> WaterfallConfig {
        let mut cfg = WaterfallConfig::quick(11);
        cfg.scenarios =
            vec![Scenario::lora_ser(7, 125e3, 24).with_rssi(RssiGrid::new(-136, -120, 8))];
        cfg.impairments = vec![
            NamedImpairment::new("clean", ImpairmentChain::new(0.0)),
            NamedImpairment::new("cfo30", ImpairmentChain::new(0.0).with_cfo_hz(30.0)),
        ];
        cfg
    }

    /// The allocating point-major reference the curve-major engine
    /// replaced: fresh `apply` + `demodulate` per (point, pass). The
    /// engine must reproduce it bit for bit.
    fn naive_reference(cfg: &WaterfallConfig) -> WaterfallReport {
        let ctxs: Vec<Ctx> = (0..cfg.scenarios.len())
            .map(|s_idx| Ctx::build(cfg, s_idx))
            .collect();
        let mut points = Vec::new();
        for (s_idx, sc) in cfg.scenarios.iter().enumerate() {
            let phy = sc.phy.as_ref();
            let fs = phy.sample_rate_hz();
            for (i_idx, named) in cfg.impairments.iter().enumerate() {
                let chain = named.chain.clone().with_noise_figure(phy.noise_figure_db());
                let curve_seed = curve_seed(cfg.seed, s_idx, i_idx);
                for rssi_dbm in sc.rssi.points() {
                    let mut count = ErrorCount::ZERO;
                    for k in 0..sc.passes {
                        let rx = chain.apply(
                            &ctxs[s_idx].tx,
                            rssi_dbm,
                            fs,
                            stream_seed(curve_seed, TAG_CHAIN ^ ((k as u64) << 20)),
                        );
                        count += phy.count_errors(&ctxs[s_idx].frame, &phy.demodulate(&rx));
                    }
                    points.push(SweepPoint {
                        scenario: phy.label(),
                        impairment: named.label.clone(),
                        rssi_dbm,
                        errors: count.errors,
                        trials: count.trials,
                    });
                }
            }
        }
        WaterfallReport { points }
    }

    #[test]
    fn engine_is_bit_identical_to_naive_reference() {
        // stream scenario (single pass) …
        let mut cfg = tiny();
        assert_eq!(run_waterfall(&cfg), naive_reference(&cfg));
        // … and a multi-pass packet scenario (pass-major accumulation),
        // under an impairment that exercises fading + prepared noise
        cfg.scenarios =
            vec![Scenario::lora_per(7, 125e3, 2, 3).with_rssi(RssiGrid::new(-126, -118, 8))];
        cfg.impairments = vec![
            NamedImpairment::new("cfo30", ImpairmentChain::new(0.0).with_cfo_hz(30.0)),
            NamedImpairment::new(
                "rayleigh1k",
                ImpairmentChain::new(0.0)
                    .with_block_fading(1024)
                    .with_adc_quantization(12),
            ),
        ];
        assert_eq!(run_waterfall(&cfg), naive_reference(&cfg));
    }

    /// Every curve of `cfg` through the engine's own `run_curve` on one
    /// worker scratch, held against the point-major exact reference.
    /// Returns the census of the engine's decisions per impairment
    /// column.
    fn census_against_exact(cfg: &WaterfallConfig) -> Vec<PathCensus> {
        let ctxs: Vec<Ctx> = (0..cfg.scenarios.len())
            .map(|s_idx| Ctx::build(cfg, s_idx))
            .collect();
        let mut ws = WorkerScratch::default();
        let mut columns = vec![PathCensus::default(); cfg.impairments.len()];
        let mut points = Vec::new();
        for curve in 0..cfg.scenarios.len() * cfg.impairments.len() {
            ws.census = PathCensus::default();
            points.extend(run_curve(cfg, &ctxs, curve, &mut ws));
            columns[curve % cfg.impairments.len()] += ws.census;
        }
        assert_eq!(WaterfallReport { points }, naive_reference(cfg));
        columns
    }

    /// The census of every column together.
    fn total(columns: &[PathCensus]) -> PathCensus {
        columns.iter().fold(PathCensus::default(), |mut sum, &c| {
            sum += c;
            sum
        })
    }

    #[test]
    fn every_receiver_superposes_on_every_column() {
        // one short curve per receiver family, on a linear chain, a
        // fading one and the quantizing one: every receiver decides
        // some points of every curve by superposition
        let cfg = WaterfallConfig {
            seed: 5,
            shards: 1,
            scenarios: vec![
                Scenario::lora_ser(7, 125e3, 12).with_rssi(RssiGrid::new(-130, -118, 6)),
                Scenario::zigbee_oqpsk(2, 24).with_rssi(RssiGrid::new(-106, -94, 6)),
                Scenario::ble_ber(4, 96).with_rssi(RssiGrid::new(-100, -88, 6)),
                Scenario::lora_per(7, 125e3, 2, 2).with_rssi(RssiGrid::new(-128, -116, 6)),
            ],
            impairments: vec![
                NamedImpairment::new("cfo30", ImpairmentChain::new(0.0).with_cfo_hz(30.0)),
                NamedImpairment::new(
                    "rayleigh1k",
                    ImpairmentChain::new(0.0).with_block_fading(1024),
                ),
                NamedImpairment::new("adc13", ImpairmentChain::new(0.0).with_adc_quantization(13)),
            ],
        };
        let ctxs: Vec<Ctx> = (0..cfg.scenarios.len())
            .map(|s_idx| Ctx::build(&cfg, s_idx))
            .collect();
        for curve in 0..cfg.scenarios.len() * cfg.impairments.len() {
            let mut ws = WorkerScratch::default();
            let points = run_curve(&cfg, &ctxs, curve, &mut ws);
            let decided = (points.len() as u64) * u64::from(cfg.scenarios[curve / 3].passes);
            let what = format!("{} / {}", points[0].scenario, points[0].impairment);
            assert_eq!(ws.census.exact, 0, "{what}");
            assert_eq!(ws.census.superposed + ws.census.fallback, decided, "{what}");
            assert!(ws.census.superposed > 0, "{what}: {:?}", ws.census);
        }
        // and every count is the exact path's
        let census = total(&census_against_exact(&cfg));
        let points_per_column: u64 = cfg
            .scenarios
            .iter()
            .map(|sc| sc.rssi.points().len() as u64 * u64::from(sc.passes))
            .sum();
        assert_eq!(census.superposed + census.fallback, 3 * points_per_column);
        assert_eq!(census.exact, 0);
    }

    /// The full conformance grid at two seeds, every curve both ways:
    /// the release-mode gate on the superposed path (prints the census
    /// of every column, `adc13`'s among them, and of the grid).
    #[test]
    #[ignore = "full grid, run in release: cargo test --release -p tinysdr-bench -- --ignored"]
    fn full_grid_superposition_matches_the_exact_path() {
        for seed in [1u64, 7331] {
            let cfg = WaterfallConfig::full(seed);
            let columns = census_against_exact(&cfg);
            let census = total(&columns);
            let adc = cfg
                .impairments
                .iter()
                .position(|named| named.label == "adc13")
                .map(|i| columns[i])
                .expect("the full grid has an adc13 column");
            let labels = cfg.impairments.iter().map(|named| named.label.as_str());
            for (what, c) in labels
                .zip(columns.iter().copied())
                .chain([("grid", census)])
            {
                println!(
                    "seed {seed}, {what}: {} superposed, {} fell back, {} exact",
                    c.superposed, c.fallback, c.exact
                );
            }
            // every receiver of the grid is linear, so every point tries
            // the superposition first
            assert_eq!(census.exact, 0, "seed {seed}");
            assert_eq!(census.superposed + census.fallback, 10_560, "seed {seed}");
            assert_eq!(adc.superposed + adc.fallback, 1_320, "seed {seed}");
            // the seven linear columns superpose every point, and the
            // residual bound leaves a share of the quantizing one
            assert_eq!(census.superposed - adc.superposed, 9_240, "seed {seed}");
            assert!(adc.superposed >= 500, "seed {seed}: {adc:?}");
        }
    }

    #[test]
    fn sharded_sweep_is_bit_identical_to_sequential() {
        for cfg in [tiny(), uneven()] {
            let curves = cfg.scenarios.len() * cfg.impairments.len();
            let seq = run_waterfall(&cfg);
            for shards in [2usize, 3, 5, 7, curves + 5] {
                let par = run_waterfall(&cfg.clone().sharded(shards));
                assert_eq!(seq, par, "{shards} shards diverged from sequential");
            }
        }
    }

    /// A deliberately unbalanced grid: two cheap single-point scenarios
    /// first, one expensive multi-point scenario last — the worst case
    /// for any static split of the curve list.
    fn uneven() -> WaterfallConfig {
        let mut cfg = tiny();
        cfg.scenarios = vec![
            Scenario::lora_ser(7, 125e3, 8).with_rssi(RssiGrid::new(-130, -130, 1)),
            Scenario::zigbee_oqpsk(2, 16).with_rssi(RssiGrid::new(-96, -96, 1)),
            Scenario::lora_ser(9, 125e3, 48).with_rssi(RssiGrid::new(-136, -124, 4)),
        ];
        cfg
    }

    #[test]
    fn cursor_schedule_cancels_on_finished_curves_only() {
        let cfg = uneven();
        let total = cfg.scenarios.len() * cfg.impairments.len();
        for shards in [1usize, 2, 3] {
            // every poll before the fuse's third lets exactly one claimed
            // curve run to completion, whichever worker made it
            match run_waterfall_cancellable(
                &cfg.clone().sharded(shards),
                &CancelToken::cancelled_after(3),
            ) {
                SweepRun::Cancelled {
                    curves_done,
                    total_curves,
                } => {
                    assert_eq!(curves_done, 2, "{shards} shards");
                    assert_eq!(total_curves, total);
                }
                SweepRun::Complete(_) => panic!("{shards} shards: fuse token completed"),
            }
        }
        // a fuse that outlasts the grid never trips: one poll per curve
        match run_waterfall_cancellable(
            &cfg.clone().sharded(2),
            &CancelToken::cancelled_after(total + 1),
        ) {
            SweepRun::Complete(rep) => assert_eq!(rep, run_waterfall(&cfg)),
            SweepRun::Cancelled { curves_done, .. } => {
                panic!("cancelled after {curves_done} curves with a long fuse")
            }
        }
    }

    #[test]
    fn cancellable_sweep_matches_plain_and_cancels_at_curves() {
        let cfg = tiny();
        let plain = run_waterfall(&cfg);
        // a live-but-never-cancelled token changes nothing
        match run_waterfall_cancellable(&cfg, &CancelToken::new()) {
            SweepRun::Complete(rep) => assert_eq!(rep, plain),
            SweepRun::Cancelled { .. } => panic!("uncancelled token aborted the sweep"),
        }
        // a pre-cancelled token stops before the first curve
        let tok = CancelToken::new();
        tok.cancel();
        match run_waterfall_cancellable(&cfg, &tok) {
            SweepRun::Cancelled {
                curves_done,
                total_curves,
            } => {
                assert_eq!(curves_done, 0);
                assert_eq!(total_curves, 2);
            }
            SweepRun::Complete(_) => panic!("cancelled token completed"),
        }
        // a fuse token trips between the two curves — one curve done
        match run_waterfall_cancellable(&cfg, &CancelToken::cancelled_after(2)) {
            SweepRun::Cancelled {
                curves_done,
                total_curves,
            } => {
                assert_eq!(curves_done, 1);
                assert_eq!(total_curves, 2);
            }
            SweepRun::Complete(_) => panic!("fuse token completed"),
        }
        // sharded path: pre-cancelled token aborts every worker
        match run_waterfall_cancellable(&cfg.clone().sharded(2), &tok) {
            SweepRun::Cancelled { curves_done, .. } => assert_eq!(curves_done, 0),
            SweepRun::Complete(_) => panic!("cancelled token completed sharded sweep"),
        }
    }

    #[test]
    #[should_panic(expected = "duplicate scenario label \"LoRa SER SF7 BW125\"")]
    fn repeated_scenario_label_panics() {
        // two scenarios answering to one label would interleave into one
        // non-ascending curve, and its sensitivity would read that
        let mut cfg = tiny();
        cfg.scenarios.push(cfg.scenarios[0].clone().with_passes(2));
        run_waterfall(&cfg);
    }

    #[test]
    #[should_panic(expected = "duplicate impairment label \"cfo30\"")]
    fn repeated_impairment_label_panics() {
        let mut cfg = tiny();
        cfg.impairments.push(NamedImpairment::new(
            "cfo30",
            ImpairmentChain::new(0.0).with_cfo_hz(60.0),
        ));
        run_waterfall(&cfg);
    }

    #[test]
    fn report_json_round_trips() {
        let rep = run_waterfall(&tiny());
        let doc = rep.to_json().write_pretty();
        let parsed = WaterfallReport::from_json(&Value::parse(&doc).expect("parses"))
            .expect("valid waterfall json");
        assert_eq!(parsed, rep);
        // serialization is deterministic: same report, same bytes
        assert_eq!(rep.to_json().write_pretty(), doc);
        // wrong kind is rejected
        assert!(
            WaterfallReport::from_json(&Value::parse("{\"kind\":\"perf\"}").unwrap()).is_none()
        );
    }

    #[test]
    fn report_is_keyed_and_curves_ascend() {
        let rep = run_waterfall(&tiny());
        assert_eq!(rep.scenario_labels(), vec!["LoRa SER SF7 BW125"]);
        assert_eq!(rep.impairment_labels(), vec!["clean", "cfo30"]);
        let curve = rep.curve("LoRa SER SF7 BW125", "clean");
        assert_eq!(curve.len(), 3);
        assert!(curve.windows(2).all(|w| w[1].0 > w[0].0));
        // deep below sensitivity the SER is near chance, far above ~0
        assert!(curve[0].1 > 0.5, "SER at -136 dBm: {}", curve[0].1);
        assert!(curve[2].1 < 0.2, "SER at -120 dBm: {}", curve[2].1);
    }

    #[test]
    fn grid_points_are_inclusive_and_stepped() {
        assert_eq!(
            RssiGrid::new(-10, -4, 2).points(),
            vec![-10.0, -8.0, -6.0, -4.0]
        );
        assert_eq!(RssiGrid::new(-5, -5, 3).points(), vec![-5.0]);
    }

    #[test]
    fn default_grid_brackets_the_anchor() {
        // the engine derives every scenario's default window from the
        // modem's published sensitivity anchor — no per-protocol tables
        let sc = Scenario::ble_ber(4, 800);
        let anchor = sc.phy.sensitivity_anchor_dbm().round() as i32;
        assert_eq!(sc.rssi.start_dbm, anchor - 16);
        assert_eq!(sc.rssi.stop_dbm, anchor + 26);
        assert_eq!(
            RssiGrid::around(-96.4, 10, 10, 2),
            RssiGrid::new(-106, -86, 2)
        );
    }

    #[test]
    fn seeds_differ_between_curves_but_not_along_rssi() {
        // two curves of the same scenario must not share channel draws,
        // while a curve's own points share them (common random numbers)
        // — both fall out of the curve-seed derivation, which takes no
        // RSSI input at all
        assert_ne!(curve_seed(9, 0, 0), curve_seed(9, 0, 1));
        assert_ne!(curve_seed(9, 0, 0), curve_seed(9, 1, 0));
        assert_eq!(curve_seed(9, 3, 2), curve_seed(9, 3, 2));
    }

    #[test]
    fn empty_point_rate_is_zero() {
        let p = SweepPoint {
            scenario: "s".into(),
            impairment: "i".into(),
            rssi_dbm: -100.0,
            errors: 0,
            trials: 0,
        };
        assert_eq!(p.rate(), 0.0);
    }

    #[test]
    fn packet_scenarios_accumulate_one_trial_per_pass() {
        let mut cfg = tiny();
        cfg.scenarios =
            vec![Scenario::lora_per(8, 125e3, 3, 4).with_rssi(RssiGrid::new(-100, -100, 2))];
        cfg.impairments = vec![NamedImpairment::new("clean", ImpairmentChain::new(0.0))];
        let rep = run_waterfall(&cfg);
        assert_eq!(rep.points.len(), 1);
        assert_eq!(rep.points[0].trials, 4);
        assert_eq!(rep.points[0].errors, 0, "clean PER at -100 dBm");
    }

    #[test]
    fn registry_sweep_covers_every_phy_in_order() {
        let mut reg = PhyRegistry::new();
        reg.register(Box::new(ZigbeePhy::new(2)));
        reg.register(Box::new(BleBerPhy::new(4)));
        let mut cfg = WaterfallConfig::from_registry(&reg, 8, 3);
        for sc in cfg.scenarios.iter_mut() {
            // one high-SNR point each: a smoke pass, not a measurement
            sc.rssi = RssiGrid::new(-70, -70, 1);
        }
        cfg.impairments = vec![NamedImpairment::new("clean", ImpairmentChain::new(0.0))];
        let rep = run_waterfall(&cfg);
        assert_eq!(
            rep.scenario_labels(),
            vec!["802.15.4 OQPSK", "BLE BER 4Msps"],
            "registration order must be sweep order"
        );
        for p in &rep.points {
            assert_eq!(p.errors, 0, "{} errs at -70 dBm", p.scenario);
        }
    }

    #[test]
    fn energy_per_bit_orders_protocols_by_air_time() {
        // at the same receive power, LoRa's long symbols cost orders of
        // magnitude more energy per delivered bit than BLE's 1 µs bits
        let rx_mw = 186.0;
        let lora = Scenario::lora_ser(8, 125e3, 64);
        let ble = Scenario::ble_ber(4, 4_000);
        let e_lora =
            energy_per_delivered_bit_nj(lora.phy.as_ref(), lora.frame_len, rx_mw, 0.01).unwrap();
        let e_ble =
            energy_per_delivered_bit_nj(ble.phy.as_ref(), ble.frame_len, rx_mw, 0.01).unwrap();
        assert!(
            e_lora > 50.0 * e_ble,
            "LoRa {e_lora:.1} nJ/bit vs BLE {e_ble:.2} nJ/bit"
        );
        // worse error rates make every surviving bit dearer
        let clean = energy_per_delivered_bit_nj(ble.phy.as_ref(), ble.frame_len, rx_mw, 0.0);
        let lossy = energy_per_delivered_bit_nj(ble.phy.as_ref(), ble.frame_len, rx_mw, 0.5);
        assert!(lossy.unwrap() > clean.unwrap());
        // total loss delivers nothing
        assert_eq!(
            energy_per_delivered_bit_nj(ble.phy.as_ref(), ble.frame_len, rx_mw, 1.0),
            None
        );
    }

    #[test]
    fn energy_table_follows_the_sensitivity_table() {
        let cfg = tiny();
        let rep = run_waterfall(&cfg);
        let energy = energy_per_bit_table(&cfg, &rep, 186.0, 0.10);
        let sens = rep.sensitivity_table(0.10);
        assert_eq!(energy.len(), sens.len());
        for ((sc_e, imp_e, nj), (sc_s, imp_s, dbm)) in energy.iter().zip(&sens) {
            assert_eq!(sc_e, sc_s);
            assert_eq!(imp_e, imp_s);
            // priced exactly when the curve crosses, absent when not
            assert_eq!(nj.is_some(), dbm.is_some(), "{sc_e}/{imp_e}");
            if let Some(v) = nj {
                assert!(*v > 0.0 && v.is_finite());
            }
        }
    }

    #[test]
    fn standard_registry_lists_the_three_protocols() {
        let reg = standard_registry();
        let labels = reg.labels();
        assert!(labels.contains(&"LoRa SER SF8 BW125".to_string()));
        assert!(labels.contains(&"LoRa PER SF8 BW125".to_string()));
        assert!(labels.contains(&"BLE BER 4Msps".to_string()));
        assert!(labels.contains(&"802.15.4 OQPSK".to_string()));
        assert_eq!(reg.len(), 11);
    }
}
