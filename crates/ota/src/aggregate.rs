//! Streaming campaign aggregation: bounded-memory accumulation of
//! per-node session outcomes.
//!
//! The paper's 20-node campus keeps every [`SessionReport`] and builds
//! exact ECDFs — fine at paper scale, fatal at the ROADMAP's million-
//! node north star (a 1M-node campaign would retain ~4M ledger records
//! and four raw-sample ECDFs). [`NodeAggregate`] replaces the
//! per-node vector in the hot path: counters, per-tag energy totals,
//! and one [`NodeMetric`] per observable (programming time, node
//! energy, bytes over the air, projected battery life), each either an
//! exact [`Ecdf`] or a bounded-memory
//! [`QuantileSketch`] depending on [`RetainMode`].
//!
//! Determinism: the aggregate is built per *block* of node ids and
//! merged in block-index order (see `tinysdr-core`'s scheduler), so
//! every floating-point sum has a fixed association regardless of how
//! worker threads interleave. `merge` itself is pure state-on-state:
//! counters add, sketches add bucket-wise, ECDFs merge sorted runs,
//! and per-tag totals add in `BTreeMap` key order.

use std::collections::BTreeMap;

use tinysdr_dsp::sketch::QuantileSketch;
use tinysdr_dsp::stats::{Distribution, Ecdf};
use tinysdr_power::battery::Battery;
use tinysdr_power::duty::projected_life_years;

use crate::session::SessionReport;

/// What a campaign retains per node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetainMode {
    /// Keep every session report and exact ECDFs — the paper-scale
    /// default; figures are bit-identical to the pre-streaming engine.
    Exact,
    /// Keep only counters and quantile sketches at relative accuracy
    /// `alpha` — flat memory, million-node scale.
    Sketch {
        /// Sketch relative accuracy in `(0, 1)`.
        alpha: f64,
    },
}

impl RetainMode {
    /// Sketch retention at the default accuracy
    /// ([`QuantileSketch::DEFAULT_ALPHA`]).
    pub fn sketch() -> Self {
        RetainMode::Sketch {
            alpha: QuantileSketch::DEFAULT_ALPHA,
        }
    }

    /// `true` when per-node session reports are retained.
    pub fn is_exact(&self) -> bool {
        matches!(self, RetainMode::Exact)
    }

    fn metric(&self) -> NodeMetric {
        match *self {
            RetainMode::Exact => NodeMetric::Exact(Ecdf::new()),
            RetainMode::Sketch { alpha } => NodeMetric::Sketch(QuantileSketch::with_alpha(alpha)),
        }
    }
}

/// Battery-life projection parameters carried by a campaign: each node
/// repeats its session every `period_s` seconds and spends the rest at
/// the `sleep_mw` floor. The streaming counterpart of the exact-mode
/// `battery_life_years_ecdf` — both call
/// [`tinysdr_power::duty::projected_life_years`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifeProjection {
    /// Seconds between updates.
    pub period_s: f64,
    /// Sleep-floor power between sessions, mW.
    pub sleep_mw: f64,
    /// The battery the projection drains.
    pub battery: Battery,
}

/// One observable's distribution, in whichever retention mode the
/// campaign runs. Inherent accessors mirror the
/// [`Distribution`] trait so callers need no trait import.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeMetric {
    /// Exact: every observation retained, sorted.
    Exact(Ecdf),
    /// Bounded-memory logarithmic-bucket sketch.
    Sketch(QuantileSketch),
}

impl NodeMetric {
    fn dist(&self) -> &dyn Distribution {
        match self {
            NodeMetric::Exact(e) => e,
            NodeMetric::Sketch(s) => s,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        match self {
            NodeMetric::Exact(e) => e.push(x),
            NodeMetric::Sketch(s) => s.push(x),
        }
    }

    /// Fold another metric of the same retention mode into this one.
    ///
    /// # Panics
    /// Panics on a retention-mode mismatch — merging an exact metric
    /// into a sketch would silently change what the numbers mean.
    pub fn merge(&mut self, other: &NodeMetric) {
        match (self, other) {
            (NodeMetric::Exact(a), NodeMetric::Exact(b)) => a.merge(b),
            (NodeMetric::Sketch(a), NodeMetric::Sketch(b)) => a.merge(b),
            _ => panic!("NodeMetric::merge: retention-mode mismatch"),
        }
    }

    /// Number of observations recorded.
    pub fn len(&self) -> usize {
        self.dist().len()
    }

    /// `true` if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.dist().is_empty()
    }

    /// `P[X <= x]`; 0 when empty.
    pub fn cdf(&self, x: f64) -> f64 {
        self.dist().cdf(x)
    }

    /// Quantile `q` in `[0,1]` (nearest-rank), `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.dist().quantile(q)
    }

    /// Median, `None` when empty.
    pub fn median(&self) -> Option<f64> {
        self.dist().median()
    }

    /// Mean (exact, or over bucket representatives), `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        self.dist().mean()
    }

    /// Minimum observation (exact in both modes), `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.dist().min()
    }

    /// Maximum observation (exact in both modes), `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.dist().max()
    }

    /// Bytes of state currently held.
    pub fn memory_bytes(&self) -> usize {
        self.dist().memory_bytes()
    }

    /// `(x, P[X<=x])` series for plotting.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        match self {
            NodeMetric::Exact(e) => e.curve(),
            NodeMetric::Sketch(s) => s.curve(),
        }
    }

    /// The exact ECDF behind this metric, when in exact mode.
    pub fn as_ecdf(&self) -> Option<&Ecdf> {
        match self {
            NodeMetric::Exact(e) => Some(e),
            NodeMetric::Sketch(_) => None,
        }
    }
}

/// Per-tag energy totals (the streaming replacement for carrying every
/// node's full [`tinysdr_power::energy::EnergyLedger`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TagTotal {
    /// Summed energy under this tag, mJ.
    pub energy_mj: f64,
    /// Summed dwell time under this tag, ns.
    pub duration_ns: u64,
}

/// Streaming accumulator over per-node session outcomes — counters,
/// per-tag energy totals, and four [`NodeMetric`] distributions.
/// Memory is `O(occupied sketch buckets)` in sketch mode, independent
/// of node count.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAggregate {
    pub(crate) retain: RetainMode,
    pub(crate) projection: Option<LifeProjection>,
    pub(crate) nodes: u64,
    pub(crate) completed: u64,
    pub(crate) total_duration_s: f64,
    pub(crate) total_energy_mj: f64,
    pub(crate) total_bytes: u64,
    /// Programming time of completed sessions, minutes (Fig. 14 axis).
    pub(crate) time_min: NodeMetric,
    /// Per-node session energy, mJ — all nodes, completed or not.
    pub(crate) energy_mj: NodeMetric,
    /// Per-node bytes over the air — all nodes.
    pub(crate) bytes: NodeMetric,
    /// Projected battery life, years — only when a projection is set.
    pub(crate) life_years: Option<NodeMetric>,
    /// Per-component energy totals, keyed by ledger tag.
    pub(crate) by_tag: BTreeMap<String, TagTotal>,
}

impl NodeAggregate {
    /// Fresh accumulator in the given retention mode, optionally
    /// streaming a battery-life projection per node.
    pub fn new(retain: RetainMode, projection: Option<LifeProjection>) -> Self {
        if let Some(p) = &projection {
            assert!(
                p.period_s > 0.0 && p.period_s.is_finite(),
                "update period must be positive"
            );
            assert!(
                p.sleep_mw >= 0.0 && p.sleep_mw.is_finite(),
                "sleep floor must be >= 0"
            );
        }
        NodeAggregate {
            retain,
            projection,
            nodes: 0,
            completed: 0,
            total_duration_s: 0.0,
            total_energy_mj: 0.0,
            total_bytes: 0,
            time_min: retain.metric(),
            energy_mj: retain.metric(),
            bytes: retain.metric(),
            life_years: projection.is_some().then(|| retain.metric()),
            by_tag: BTreeMap::new(),
        }
    }

    /// Fold one node's session into the aggregate.
    pub fn push_session(&mut self, rep: &SessionReport) {
        self.nodes += 1;
        if rep.completed {
            self.completed += 1;
            self.time_min.push(rep.duration_s / 60.0);
        }
        self.total_duration_s += rep.duration_s;
        self.total_energy_mj += rep.node_energy_mj;
        self.total_bytes += rep.bytes_over_air;
        self.energy_mj.push(rep.node_energy_mj);
        self.bytes.push(rep.bytes_over_air as f64);
        if let (Some(p), Some(life)) = (&self.projection, &mut self.life_years) {
            if let Some(years) = projected_life_years(
                rep.node_energy_mj,
                rep.duration_s,
                p.period_s,
                p.sleep_mw,
                &p.battery,
            ) {
                life.push(years);
            }
        }
        for rec in rep.ledger.records() {
            let t = self.by_tag.entry(rec.tag.clone()).or_default();
            t.energy_mj += rec.energy_mj;
            t.duration_ns += rec.duration_ns;
        }
    }

    /// Fold another aggregate into this one. Deterministic given the
    /// two states: counters add, metrics merge mode-wise, per-tag
    /// totals add in key order.
    ///
    /// # Panics
    /// Panics when the retention modes or life projections differ —
    /// the two aggregates measure different things.
    pub fn merge(&mut self, other: &NodeAggregate) {
        assert!(
            self.retain == other.retain,
            "NodeAggregate::merge: retention-mode mismatch"
        );
        assert!(
            self.projection == other.projection,
            "NodeAggregate::merge: life-projection mismatch"
        );
        self.nodes += other.nodes;
        self.completed += other.completed;
        self.total_duration_s += other.total_duration_s;
        self.total_energy_mj += other.total_energy_mj;
        self.total_bytes += other.total_bytes;
        self.time_min.merge(&other.time_min);
        self.energy_mj.merge(&other.energy_mj);
        self.bytes.merge(&other.bytes);
        match (&mut self.life_years, &other.life_years) {
            (Some(a), Some(b)) => a.merge(b),
            (None, None) => {}
            // unreachable: projection equality is asserted above
            _ => panic!("NodeAggregate::merge: life metric mismatch"),
        }
        for (tag, t) in &other.by_tag {
            let e = self.by_tag.entry(tag.clone()).or_default();
            e.energy_mj += t.energy_mj;
            e.duration_ns += t.duration_ns;
        }
    }

    /// The retention mode this aggregate runs in.
    pub fn retain(&self) -> RetainMode {
        self.retain
    }

    /// The battery-life projection streamed per node, if any.
    pub fn projection(&self) -> Option<LifeProjection> {
        self.projection
    }

    /// Number of nodes folded in.
    pub fn len(&self) -> usize {
        self.nodes as usize
    }

    /// `true` when no node has been folded in.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// Number of nodes whose session completed.
    pub fn completed(&self) -> usize {
        self.completed as usize
    }

    /// Sum of session durations, seconds.
    pub fn total_duration_s(&self) -> f64 {
        self.total_duration_s
    }

    /// Total node-side energy, mJ.
    pub fn total_energy_mj(&self) -> f64 {
        self.total_energy_mj
    }

    /// Total bytes over the air across all sessions.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Programming time of completed sessions, minutes.
    pub fn time_dist(&self) -> &NodeMetric {
        &self.time_min
    }

    /// Per-node session energy, mJ — all nodes, completed or not.
    pub fn energy_dist(&self) -> &NodeMetric {
        &self.energy_mj
    }

    /// Per-node bytes over the air.
    pub fn bytes_dist(&self) -> &NodeMetric {
        &self.bytes
    }

    /// Projected battery life, years — present iff a
    /// [`LifeProjection`] was configured.
    pub fn life_dist(&self) -> Option<&NodeMetric> {
        self.life_years.as_ref()
    }

    /// Campaign energy per ledger tag, mJ.
    pub fn energy_by_tag(&self) -> BTreeMap<String, f64> {
        self.by_tag
            .iter()
            .map(|(k, t)| (k.clone(), t.energy_mj))
            .collect()
    }

    /// Bytes of state currently held — the quantity `repro campaign`
    /// proves independent of node count in sketch mode.
    pub fn memory_bytes(&self) -> usize {
        let tags: usize = self
            .by_tag
            .keys()
            .map(|k| k.len() + std::mem::size_of::<TagTotal>())
            .sum();
        std::mem::size_of::<Self>()
            + tags
            + self.time_min.memory_bytes()
            + self.energy_mj.memory_bytes()
            + self.bytes.memory_bytes()
            + self.life_years.as_ref().map_or(0, |l| l.memory_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::BlockedUpdate;
    use crate::image::FirmwareImage;
    use crate::session::{run_session, LinkModel, SessionConfig};

    fn session(seed: u64, rssi: f64) -> SessionReport {
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("agg", 6_000, 1));
        run_session(
            &upd,
            &LinkModel::from_downlink(rssi),
            &SessionConfig {
                max_attempts: 40,
                seed,
            },
        )
    }

    fn projection() -> LifeProjection {
        LifeProjection {
            period_s: 86_400.0,
            sleep_mw: 0.030,
            battery: Battery::lipo_1000mah(),
        }
    }

    #[test]
    fn aggregate_counters_match_reports() {
        let reps: Vec<SessionReport> = (0..6).map(|i| session(i, -95.0)).collect();
        let mut agg = NodeAggregate::new(RetainMode::Exact, Some(projection()));
        for r in &reps {
            agg.push_session(r);
        }
        assert_eq!(agg.len(), 6);
        assert_eq!(agg.completed(), reps.iter().filter(|r| r.completed).count());
        let sum: f64 = reps.iter().map(|r| r.node_energy_mj).sum();
        assert_eq!(agg.total_energy_mj(), sum);
        assert_eq!(
            agg.total_bytes(),
            reps.iter().map(|r| r.bytes_over_air).sum::<u64>()
        );
        assert_eq!(agg.energy_dist().len(), 6);
        assert_eq!(agg.bytes_dist().len(), 6);
        assert_eq!(agg.time_dist().len(), agg.completed());
        assert_eq!(agg.life_dist().unwrap().len(), 6);
        // per-tag totals cover the whole energy
        let tag_sum: f64 = agg.energy_by_tag().values().sum();
        assert!((tag_sum - sum).abs() < 1e-6 * sum);
    }

    #[test]
    fn block_order_merge_is_canonical() {
        // the scheduler's contract: per-block aggregates merged in
        // block-index order give one well-defined result, no matter
        // which worker computed which block or in what order the
        // blocks *finished*. (One-pass push order is NOT bit-identical
        // to blockwise sums — float addition is not associative —
        // which is exactly why the engine always aggregates blockwise,
        // with the sequential path using the same block structure.)
        let reps: Vec<SessionReport> = (0..9).map(|i| session(i * 3 + 1, -100.0)).collect();
        for retain in [RetainMode::Exact, RetainMode::sketch()] {
            let block_of = |chunk: &[SessionReport]| {
                let mut b = NodeAggregate::new(retain, Some(projection()));
                for r in chunk {
                    b.push_session(r);
                }
                b
            };
            // worker A computes blocks 0..3 in order
            let in_order: Vec<NodeAggregate> = reps.chunks(3).map(block_of).collect();
            // worker B "stole" them and computed the same blocks
            // backwards — the per-block states must be identical
            let mut stolen: Vec<NodeAggregate> = reps.chunks(3).rev().map(block_of).collect();
            stolen.reverse();
            let fold = |blocks: &[NodeAggregate]| {
                let mut acc = NodeAggregate::new(retain, Some(projection()));
                for b in blocks {
                    acc.merge(b);
                }
                acc
            };
            assert_eq!(
                fold(&in_order),
                fold(&stolen),
                "{retain:?}: steal order leaked into the merged state"
            );
            // a single block IS the one-pass accumulation
            let mut whole = NodeAggregate::new(retain, Some(projection()));
            for r in &reps {
                whole.push_session(r);
            }
            assert_eq!(whole, block_of(&reps), "{retain:?}: single block");
        }
    }

    #[test]
    fn sketch_mode_memory_is_flat() {
        let rep = session(1, -95.0);
        let mut small = NodeAggregate::new(RetainMode::sketch(), Some(projection()));
        let mut big = NodeAggregate::new(RetainMode::sketch(), Some(projection()));
        for _ in 0..10 {
            small.push_session(&rep);
        }
        for _ in 0..10_000 {
            big.push_session(&rep);
        }
        assert_eq!(big.len(), 10_000);
        assert!(
            big.memory_bytes() <= small.memory_bytes(),
            "identical sessions occupy identical buckets: {} vs {}",
            big.memory_bytes(),
            small.memory_bytes()
        );
        // exact mode grows linearly instead
        let mut exact = NodeAggregate::new(RetainMode::Exact, None);
        for _ in 0..10_000 {
            exact.push_session(&rep);
        }
        assert!(exact.memory_bytes() > 20 * big.memory_bytes());
    }

    #[test]
    fn sketch_quantiles_track_exact() {
        let reps: Vec<SessionReport> = (0..40).map(|i| session(i, -104.0)).collect();
        let mut exact = NodeAggregate::new(RetainMode::Exact, None);
        let mut sk = NodeAggregate::new(RetainMode::sketch(), None);
        for r in &reps {
            exact.push_session(r);
            sk.push_session(r);
        }
        for q in [0.1, 0.5, 0.9] {
            let e = exact.energy_dist().quantile(q).unwrap();
            let s = sk.energy_dist().quantile(q).unwrap();
            assert!(
                (s - e).abs() <= 0.011 * e.abs(),
                "q={q}: sketch {s} vs exact {e}"
            );
        }
        assert_eq!(exact.energy_dist().min(), sk.energy_dist().min());
        assert_eq!(exact.energy_dist().max(), sk.energy_dist().max());
    }

    #[test]
    #[should_panic(expected = "retention-mode mismatch")]
    fn merge_rejects_mode_mismatch() {
        let mut a = NodeAggregate::new(RetainMode::Exact, None);
        let b = NodeAggregate::new(RetainMode::sketch(), None);
        a.merge(&b);
    }
}
