//! The device power-state machine: the paper's operating points as an
//! explicit, checked state graph with per-state power and priced
//! transitions.
//!
//! TinySDR's headline is not throughput but *power*: the platform
//! sleeps at 30 µW (§5.1), works in the 100–300 mW range (§5.2,
//! Fig. 9), and prices every OTA firmware update in node-side
//! millijoules (§5.3, Tables 3–4). This module is the shared vocabulary
//! for all of that:
//!
//! * [`PowerState`] — the seven operating points a node moves through,
//!   from the [`DeepSleep`](PowerState::DeepSleep) floor to
//!   [`TxActive`](PowerState::TxActive), including the transient
//!   [`FpgaProgram`](PowerState::FpgaProgram) /
//!   [`FlashWrite`](PowerState::FlashWrite) states behind Table 4's
//!   22 ms wakeup and §5.3's flash accounting.
//! * [`StatePower`] — a calibrated per-state mW table plus per-edge
//!   [`TransitionCost`]s. [`StatePower::baseline`] computes the two
//!   sleep states from the [`crate::pmu`] / [`crate::regulator`] /
//!   [`crate::domains`] models; the active states are filled in by the
//!   platform layer (`tinysdr-core`), which owns the radio and fabric
//!   calibrations.
//! * [`PowerStateMachine`] — current state + simulation clock + an
//!   [`EnergyLedger`], rejecting *teleporting* transitions (you cannot
//!   go from `DeepSleep` straight to `RxActive`: the hardware must boot
//!   the FPGA and re-enable domains, which is exactly the 22 ms / boot
//!   energy the paper measures).
//! * [`OtaEnergyModel`] — the node-side component powers of a §5.3 OTA
//!   programming session (backbone SX1276 + MSP432 + programming
//!   flash). This is the model `tinysdr-ota` prices sessions with; the
//!   6144 mJ (LoRa) / 2342 mJ (BLE) per-update figures come out of it.
//!
//! # The state graph
//!
//! ```text
//!        ┌────────────┐       ┌────────────┐
//!        │ DeepSleep  │ ⇄     │   Sleep    │     30 µW / ~4.5 mW
//!        └─────┬──────┘       └─────┬──────┘
//!              ▲ ▼ (22 ms FPGA boot)▲ ▼
//!        ┌─────┴─────────────────────┴─────┐
//!   ┌───►│              Idle               │◄───┐
//!   │    └──┬─────────┬─────────┬──────────┘    │
//!   │       ▼         ▼         ▼          ▼    │
//! FpgaProgram   FlashWrite   RxActive ⇄ TxActive│
//!   └────────────┴──────────────┴───────────────┘
//! ```
//!
//! Every edge in the diagram is legal; everything else (e.g.
//! `Sleep → TxActive`, `RxActive → FlashWrite`) is rejected by
//! [`PowerStateMachine::transition`] — a node must surface through
//! `Idle`, paying that path's cost, exactly as the hardware does.

use crate::domains::ALL_DOMAINS;
use crate::energy::EnergyLedger;
use crate::pmu::Pmu;
use tinysdr_hw::mcu::McuMode;

/// The device operating points (see the module docs for the graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerState {
    /// The §5.1 floor: all gateable domains off, MCU in LPM3 with only
    /// the wakeup timer — the measured 30 µW.
    DeepSleep,
    /// Light sleep: domains still gated but the MCU in LPM0 for
    /// microsecond-class wake (no RTC-only restriction). A few mW —
    /// the price of fast reaction.
    Sleep,
    /// Awake and configured: FPGA holds its design, radio in TRXOFF.
    Idle,
    /// Receiving on a radio (I/Q path: ≈186 mW platform; backbone OTA
    /// listen: ≈42 mW — the profile decides).
    RxActive,
    /// Transmitting (≈287 mW platform at 14 dBm).
    TxActive,
    /// Booting a bitstream into the FPGA configuration SRAM — the
    /// 22 ms of Table 4, at QSPI-burst power.
    FpgaProgram,
    /// Page-programming the external flash (OTA block storage, §5.3).
    FlashWrite,
}

/// All states, in the canonical order used by [`StatePower`]'s table.
pub const ALL_STATES: [PowerState; 7] = [
    PowerState::DeepSleep,
    PowerState::Sleep,
    PowerState::Idle,
    PowerState::RxActive,
    PowerState::TxActive,
    PowerState::FpgaProgram,
    PowerState::FlashWrite,
];

impl PowerState {
    /// Index into the per-state tables.
    fn idx(self) -> usize {
        match self {
            PowerState::DeepSleep => 0,
            PowerState::Sleep => 1,
            PowerState::Idle => 2,
            PowerState::RxActive => 3,
            PowerState::TxActive => 4,
            PowerState::FpgaProgram => 5,
            PowerState::FlashWrite => 6,
        }
    }

    /// Ledger tag for dwell records in this state. The active-state
    /// tags match the ones `tinysdr-core`'s device has always written
    /// (`"sleep"`, `"idle"`, `"rx"`, `"tx"`, `"fpga_config"`), so
    /// ledgers stay comparable across the refactor.
    pub fn tag(self) -> &'static str {
        match self {
            PowerState::DeepSleep => "sleep",
            PowerState::Sleep => "light_sleep",
            PowerState::Idle => "idle",
            PowerState::RxActive => "rx",
            PowerState::TxActive => "tx",
            PowerState::FpgaProgram => "fpga_config",
            PowerState::FlashWrite => "flash",
        }
    }

    /// `true` if the edge `self → to` exists in the hardware (see the
    /// module-level diagram). Self-transitions are *not* edges: staying
    /// in a state is a dwell, not a transition.
    pub fn can_transition_to(self, to: PowerState) -> bool {
        use PowerState::*;
        matches!(
            (self, to),
            (DeepSleep, Sleep)
                | (DeepSleep, Idle)
                | (Sleep, DeepSleep)
                | (Sleep, Idle)
                | (Idle, DeepSleep)
                | (Idle, Sleep)
                | (Idle, RxActive)
                | (Idle, TxActive)
                | (Idle, FpgaProgram)
                | (Idle, FlashWrite)
                | (RxActive, Idle)
                | (RxActive, TxActive)
                | (TxActive, Idle)
                | (TxActive, RxActive)
                | (FpgaProgram, Idle)
                | (FlashWrite, Idle)
        )
    }
}

/// The price of taking one edge of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TransitionCost {
    /// Latency of the transition, nanoseconds (Table 4's column).
    pub latency_ns: u64,
    /// Energy spent during the transition, mJ (e.g. the FPGA boot at
    /// configuration power).
    pub energy_mj: f64,
}

impl TransitionCost {
    /// A free, instantaneous transition.
    pub const ZERO: TransitionCost = TransitionCost {
        latency_ns: 0,
        energy_mj: 0.0,
    };
}

/// Calibrated per-state power table plus per-edge transition costs.
///
/// [`baseline`](StatePower::baseline) computes the sleep states from
/// the PMU model; the platform layer fills the active states from its
/// radio/fabric/MCU calibrations (`tinysdr_core::profile`). Unset
/// states draw 0 mW and unset edges cost [`TransitionCost::ZERO`] —
/// legality is a property of the *graph* ([`PowerState::can_transition_to`]),
/// cost a property of the *profile*.
#[derive(Debug, Clone, PartialEq)]
pub struct StatePower {
    mw: [f64; 7],
    costs: Vec<(PowerState, PowerState, TransitionCost)>,
}

impl StatePower {
    /// All-zero profile (every state 0 mW, every edge free).
    pub fn new() -> Self {
        StatePower {
            mw: [0.0; 7],
            costs: Vec::new(),
        }
    }

    /// A profile whose two sleep states are **computed** from the
    /// [`crate::pmu`] / [`crate::regulator`] / [`crate::domains`]
    /// models: [`DeepSleep`](PowerState::DeepSleep) =
    /// [`deep_sleep_mw`] (the 30 µW floor), [`Sleep`](PowerState::Sleep)
    /// = [`light_sleep_mw`]. Active states stay 0 until the caller
    /// fills them.
    pub fn baseline() -> Self {
        Self::new()
            .with_state_mw(PowerState::DeepSleep, deep_sleep_mw())
            .with_state_mw(PowerState::Sleep, light_sleep_mw())
    }

    /// Builder: set a state's power draw, mW.
    ///
    /// # Panics
    /// Panics on negative or non-finite power.
    pub fn with_state_mw(mut self, s: PowerState, mw: f64) -> Self {
        assert!(mw >= 0.0 && mw.is_finite(), "state power must be >= 0");
        self.mw[s.idx()] = mw;
        self
    }

    /// Builder: price one edge of the graph.
    ///
    /// # Panics
    /// Panics if the edge does not exist ([`PowerState::can_transition_to`])
    /// or the energy is negative/non-finite.
    pub fn with_transition_cost(
        mut self,
        from: PowerState,
        to: PowerState,
        cost: TransitionCost,
    ) -> Self {
        assert!(
            from.can_transition_to(to),
            "no {from:?} -> {to:?} edge to price"
        );
        assert!(
            cost.energy_mj >= 0.0 && cost.energy_mj.is_finite(),
            "transition energy must be >= 0"
        );
        self.costs.retain(|(f, t, _)| !(*f == from && *t == to));
        self.costs.push((from, to, cost));
        self
    }

    /// Power drawn in a state, mW.
    pub fn state_mw(&self, s: PowerState) -> f64 {
        self.mw[s.idx()]
    }

    /// Cost of one edge: `None` if the edge does not exist, the priced
    /// (or [`TransitionCost::ZERO`] default) cost otherwise.
    pub fn transition_cost(&self, from: PowerState, to: PowerState) -> Option<TransitionCost> {
        if !from.can_transition_to(to) {
            return None;
        }
        Some(
            self.costs
                .iter()
                .find(|(f, t, _)| *f == from && *t == to)
                .map(|(_, _, c)| *c)
                .unwrap_or(TransitionCost::ZERO),
        )
    }
}

impl Default for StatePower {
    fn default() -> Self {
        Self::new()
    }
}

/// The §5.1 deep-sleep floor, mW, **summed from the regulator models**:
/// LDO quiescent + buck shutdown currents + MCU LPM3 + board leakage
/// (see [`crate::pmu::Pmu::enter_sleep`]). ≈ 0.030 mW — the paper's
/// 30 µW headline.
pub fn deep_sleep_mw() -> f64 {
    Pmu::new().enter_sleep()
}

/// Light sleep, mW: every gateable domain off but the MCU held in LPM0
/// (peripherals clocked, microsecond wake) instead of LPM3. A few mW —
/// what a node pays to react immediately instead of in 22 ms.
pub fn light_sleep_mw() -> f64 {
    let mut pmu = Pmu::new();
    for d in ALL_DOMAINS {
        if d.gateable() {
            pmu.set_domain(d, false);
        }
    }
    pmu.set_load(
        crate::domains::Component::Mcu,
        McuMode::Lpm0.supply_power_mw(),
    );
    pmu.battery_power_mw()
}

/// Errors from the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerStateError {
    /// The requested edge does not exist in the hardware — entering
    /// `to` from `from` requires passing through intermediate states.
    IllegalTransition {
        /// State the machine was in.
        from: PowerState,
        /// State that was requested.
        to: PowerState,
    },
}

impl std::fmt::Display for PowerStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PowerStateError::IllegalTransition { from, to } => {
                write!(f, "no power-state edge {from:?} -> {to:?}")
            }
        }
    }
}

impl std::error::Error for PowerStateError {}

/// One taken transition, as reported by [`PowerStateMachine::transition`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// State left.
    pub from: PowerState,
    /// State entered.
    pub to: PowerState,
    /// Latency paid, nanoseconds.
    pub latency_ns: u64,
    /// Energy paid, mJ.
    pub energy_mj: f64,
}

/// Ledger tag under which transition energies are recorded.
pub const TRANSITION_TAG: &str = "transition";

/// The machine: current [`PowerState`] + simulation clock + an
/// [`EnergyLedger`] that every dwell and transition records into.
///
/// Dwells come in three flavours:
/// [`dwell`](PowerStateMachine::dwell) charges the profile's per-state
/// power; [`dwell_at`](PowerStateMachine::dwell_at) charges a
/// caller-measured power (a device whose fabric power depends on the
/// loaded design); [`dwell_tagged`](PowerStateMachine::dwell_tagged)
/// additionally overrides the ledger tag (e.g. `"ota"` for
/// backbone-radio listening that is `RxActive` at the power level but a
/// distinct activity at the device level).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerStateMachine {
    profile: StatePower,
    state: PowerState,
    clock_ns: u64,
    ledger: EnergyLedger,
}

impl PowerStateMachine {
    /// New machine in [`PowerState::Idle`] (a freshly powered board is
    /// awake and unconfigured).
    pub fn new(profile: StatePower) -> Self {
        Self::starting_in(profile, PowerState::Idle)
    }

    /// New machine in an explicit starting state.
    pub fn starting_in(profile: StatePower, state: PowerState) -> Self {
        PowerStateMachine {
            profile,
            state,
            clock_ns: 0,
            ledger: EnergyLedger::new(),
        }
    }

    /// Current state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// Simulation clock, nanoseconds since construction.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// The profile the machine prices states with.
    pub fn profile(&self) -> &StatePower {
        &self.profile
    }

    /// Swap in a recalibrated profile (e.g. after the platform loads a
    /// design with a different LUT count). State, clock and ledger are
    /// untouched; only future pricing changes.
    pub fn set_profile(&mut self, profile: StatePower) {
        self.profile = profile;
    }

    /// The accumulated ledger.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Total energy recorded so far, mJ.
    pub fn total_mj(&self) -> f64 {
        self.ledger.total_mj()
    }

    /// Take one edge of the graph at the profile's price, recording the
    /// transition energy (tag [`TRANSITION_TAG`]) and advancing the
    /// clock by its latency.
    ///
    /// # Errors
    /// [`PowerStateError::IllegalTransition`] when the edge does not
    /// exist — including self-transitions (staying put is a dwell, not
    /// a transition).
    pub fn transition(&mut self, to: PowerState) -> Result<Transition, PowerStateError> {
        let cost = self.profile.transition_cost(self.state, to).ok_or(
            PowerStateError::IllegalTransition {
                from: self.state,
                to,
            },
        )?;
        self.transition_with(to, cost.latency_ns, cost.energy_mj)
    }

    /// Take one edge at a caller-measured price (a device that just
    /// timed its own FPGA boot). Legality is still enforced.
    ///
    /// # Errors
    /// [`PowerStateError::IllegalTransition`] when the edge does not
    /// exist.
    ///
    /// # Panics
    /// Panics on negative or non-finite energy.
    pub fn transition_with(
        &mut self,
        to: PowerState,
        latency_ns: u64,
        energy_mj: f64,
    ) -> Result<Transition, PowerStateError> {
        assert!(
            energy_mj >= 0.0 && energy_mj.is_finite(),
            "negative or non-finite transition energy"
        );
        if !self.state.can_transition_to(to) {
            return Err(PowerStateError::IllegalTransition {
                from: self.state,
                to,
            });
        }
        if energy_mj > 0.0 || latency_ns > 0 {
            self.ledger
                .record_energy(TRANSITION_TAG, energy_mj, latency_ns);
        }
        let t = Transition {
            from: self.state,
            to,
            latency_ns,
            energy_mj,
        };
        self.state = to;
        self.clock_ns += latency_ns;
        Ok(t)
    }

    /// Dwell `ns` in the current state at the profile's power.
    pub fn dwell(&mut self, ns: u64) {
        let mw = self.profile.state_mw(self.state);
        self.dwell_at(mw, ns);
    }

    /// Dwell `ns` at a caller-measured power (tag = the state's tag).
    pub fn dwell_at(&mut self, power_mw: f64, ns: u64) {
        self.ledger.record(self.state.tag(), power_mw, ns);
        self.clock_ns += ns;
    }

    /// Dwell `ns` at a caller-measured power under an explicit tag.
    pub fn dwell_tagged(&mut self, tag: &str, power_mw: f64, ns: u64) {
        self.ledger.record(tag, power_mw, ns);
        self.clock_ns += ns;
    }
}

/// Node-side component powers of a §5.3 OTA programming session: the
/// backbone SX1276 listening/ACKing, the MSP432 orchestrating, and the
/// programming flash absorbing blocks. Shared by `tinysdr-ota`'s
/// unicast session and broadcast engines — the per-update 6144 mJ
/// (LoRa) / 2342 mJ (BLE) figures, and with them the "2100 / 5600
/// updates per 1000 mAh battery" and "71 / 27 µW at one update per
/// day" claims, are priced through this struct.
///
/// A session is *component-parallel*: the radio terms apply during
/// packet air time, the MCU term over the whole session, and the flash
/// term per stored packet — so this is a component model, not a serial
/// [`StatePower`] profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OtaEnergyModel {
    /// Backbone radio receive, mW (SX1276 RX: 12 mA at 3.3 V).
    pub rx_mw: f64,
    /// Backbone radio transmitting an ACK, mW (SX1276 at the reduced
    /// +6 dBm ACK power: 33 mW base + ~4 mW RF out at 25 % PA
    /// efficiency).
    pub ack_tx_mw: f64,
    /// MCU average over the session, mW — mostly LPM0 with brief active
    /// bursts for packet handling and decompression.
    pub mcu_mw: f64,
    /// Flash page-program burst per stored packet, mJ (68-byte packets
    /// land in one 256 B page write at ~10 mW for ~0.8 ms, plus the
    /// amortized sector-erase share).
    pub flash_mj_per_packet: f64,
}

impl OtaEnergyModel {
    /// The paper-calibrated model (§5.3, Table 4). These are the exact
    /// values the OTA session engine has always used — the regression
    /// suite pins the resulting per-update mJ bit-for-bit.
    pub const fn paper() -> Self {
        OtaEnergyModel {
            rx_mw: 39.6,
            ack_tx_mw: 33.0 + 4.0 / 0.25,
            mcu_mw: 2.4,
            flash_mj_per_packet: 0.15,
        }
    }
}

impl Default for OtaEnergyModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_profile() -> StatePower {
        StatePower::baseline()
            .with_state_mw(PowerState::Idle, 107.0)
            .with_state_mw(PowerState::RxActive, 186.0)
            .with_state_mw(PowerState::TxActive, 287.0)
            .with_state_mw(PowerState::FpgaProgram, 55.0)
            .with_state_mw(PowerState::FlashWrite, 25.0)
            .with_transition_cost(
                PowerState::DeepSleep,
                PowerState::Idle,
                TransitionCost {
                    latency_ns: 22_000_000,
                    energy_mj: 55.0 * 0.022,
                },
            )
            .with_transition_cost(
                PowerState::RxActive,
                PowerState::TxActive,
                TransitionCost {
                    latency_ns: 11_000,
                    energy_mj: 0.0,
                },
            )
    }

    #[test]
    fn baseline_sleep_states_come_from_the_pmu() {
        let p = StatePower::baseline();
        let deep = p.state_mw(PowerState::DeepSleep);
        assert!((deep * 1000.0 - 30.0).abs() < 3.0, "floor {deep} mW");
        let light = p.state_mw(PowerState::Sleep);
        assert!(light > deep, "light sleep must cost more than LPM3");
        assert!(light < 10.0, "light sleep is still milliwatt-class");
    }

    #[test]
    fn exhaustive_edge_table_matches_the_diagram() {
        use PowerState::*;
        // the complete legal-edge set, spelled out; everything else —
        // including every self-edge — must be rejected
        let legal = [
            (DeepSleep, Sleep),
            (DeepSleep, Idle),
            (Sleep, DeepSleep),
            (Sleep, Idle),
            (Idle, DeepSleep),
            (Idle, Sleep),
            (Idle, RxActive),
            (Idle, TxActive),
            (Idle, FpgaProgram),
            (Idle, FlashWrite),
            (RxActive, Idle),
            (RxActive, TxActive),
            (TxActive, Idle),
            (TxActive, RxActive),
            (FpgaProgram, Idle),
            (FlashWrite, Idle),
        ];
        let mut n_legal = 0;
        for from in ALL_STATES {
            for to in ALL_STATES {
                let expect = legal.contains(&(from, to));
                assert_eq!(
                    from.can_transition_to(to),
                    expect,
                    "{from:?} -> {to:?} legality"
                );
                if expect {
                    n_legal += 1;
                }
            }
        }
        assert_eq!(n_legal, legal.len());
    }

    #[test]
    fn teleporting_is_rejected() {
        let mut m = PowerStateMachine::starting_in(demo_profile(), PowerState::DeepSleep);
        // a sleeping node cannot start receiving without waking
        let err = m.transition(PowerState::RxActive).unwrap_err();
        assert_eq!(
            err,
            PowerStateError::IllegalTransition {
                from: PowerState::DeepSleep,
                to: PowerState::RxActive
            }
        );
        // and the failed attempt changed nothing
        assert_eq!(m.state(), PowerState::DeepSleep);
        assert_eq!(m.clock_ns(), 0);
        assert!(m.ledger().is_empty());
    }

    #[test]
    fn wake_path_prices_the_fpga_boot() {
        let mut m = PowerStateMachine::starting_in(demo_profile(), PowerState::DeepSleep);
        let t = m.transition(PowerState::Idle).unwrap();
        assert_eq!(t.latency_ns, 22_000_000);
        assert!((t.energy_mj - 1.21).abs() < 1e-9, "boot {} mJ", t.energy_mj);
        assert_eq!(m.clock_ns(), 22_000_000);
        assert!((m.ledger().by_tag()[TRANSITION_TAG] - 1.21).abs() < 1e-9);
        // continue into RX and dwell 1 s
        m.transition(PowerState::RxActive).unwrap();
        m.dwell(1_000_000_000);
        let tags = m.ledger().by_tag();
        assert!((tags["rx"] - 186.0).abs() < 1e-9);
    }

    #[test]
    fn dwell_uses_profile_power_and_tags() {
        let mut m = PowerStateMachine::new(demo_profile());
        m.dwell(500_000_000); // 0.5 s idle at 107 mW
        assert!((m.total_mj() - 53.5).abs() < 1e-9);
        m.transition(PowerState::Sleep).unwrap();
        m.dwell(1_000_000_000);
        assert!(m.ledger().by_tag().contains_key("light_sleep"));
        // measured-power dwell overrides the profile
        m.transition(PowerState::Idle).unwrap();
        m.dwell_at(42.0, 1_000_000_000);
        assert!((m.ledger().by_tag()["idle"] - 53.5 - 42.0).abs() < 1e-9);
    }

    #[test]
    fn dwell_tagged_overrides_the_tag() {
        let mut m = PowerStateMachine::new(demo_profile());
        m.transition(PowerState::RxActive).unwrap();
        m.dwell_tagged("ota", 44.0, 2_000_000_000);
        let tags = m.ledger().by_tag();
        assert!((tags["ota"] - 88.0).abs() < 1e-9);
        assert!(!tags.contains_key("rx"));
    }

    #[test]
    fn round_trip_through_every_state_accumulates_nonnegative_energy() {
        let mut m = PowerStateMachine::starting_in(demo_profile(), PowerState::DeepSleep);
        let tour = [
            PowerState::Idle,
            PowerState::FpgaProgram,
            PowerState::Idle,
            PowerState::FlashWrite,
            PowerState::Idle,
            PowerState::RxActive,
            PowerState::TxActive,
            PowerState::RxActive,
            PowerState::Idle,
            PowerState::Sleep,
            PowerState::DeepSleep,
        ];
        let mut last = 0.0;
        for to in tour {
            m.transition(to).unwrap();
            m.dwell(10_000_000);
            let now = m.total_mj();
            assert!(now >= last, "energy must be monotone: {now} < {last}");
            last = now;
        }
        assert_eq!(m.state(), PowerState::DeepSleep);
        // a full tour touched every dwell tag
        let tags = m.ledger().by_tag();
        for s in ALL_STATES {
            assert!(
                tags.contains_key(s.tag()),
                "missing dwell tag {:?}",
                s.tag()
            );
        }
    }

    #[test]
    fn unpriced_legal_edges_are_free() {
        let p = demo_profile();
        assert_eq!(
            p.transition_cost(PowerState::Idle, PowerState::FlashWrite),
            Some(TransitionCost::ZERO)
        );
        assert_eq!(
            p.transition_cost(PowerState::FlashWrite, PowerState::RxActive),
            None
        );
    }

    #[test]
    #[should_panic(expected = "no")]
    fn pricing_a_nonexistent_edge_panics() {
        StatePower::new().with_transition_cost(
            PowerState::DeepSleep,
            PowerState::TxActive,
            TransitionCost::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "negative or non-finite transition energy")]
    fn negative_transition_energy_rejected_even_at_zero_latency() {
        // regression: the record guard used to skip validation when
        // latency was 0, letting -5 mJ through silently
        let mut m = PowerStateMachine::new(demo_profile());
        let _ = m.transition_with(PowerState::Sleep, 0, -5.0);
    }

    #[test]
    fn ota_model_is_the_sessions_historical_calibration() {
        let m = OtaEnergyModel::paper();
        assert_eq!(m.rx_mw, 39.6);
        assert_eq!(m.ack_tx_mw, 49.0, "33 + 4/0.25 must be exactly 49 mW");
        assert_eq!(m.mcu_mw, 2.4);
        assert_eq!(m.flash_mj_per_packet, 0.15);
    }
}
