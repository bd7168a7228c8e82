//! The statistical-equivalence gate against the stored parent reports.
//!
//! `data/waterfall_beef.json` and `data/link_beef.json` are `repro --json
//! waterfall` and `repro --json link` as the commit before the
//! ziggurat noise source printed them (seed 0xBEEF, full effort). A
//! change that moves draws on purpose must keep every point of both
//! inside the gate; a bit-identical change passes with every p-value 1.
//! Both tests are release-sized: `cargo test --release -p tinysdr-bench
//! -- --ignored`.

use tinysdr_bench::bench_shards;
use tinysdr_bench::equivalence::{compare, link_counts, waterfall_counts, Verdict};
use tinysdr_bench::link::link_json;
use tinysdr_bench::waterfall::{run_waterfall, WaterfallConfig, WaterfallReport};
use tinysdr_ota::json::Value;

fn baseline(text: &str) -> Value {
    Value::parse(text).expect("the stored report parses")
}

fn assert_passes(verdict: &Verdict) {
    assert!(
        verdict.rejected.is_empty(),
        "{} of {} points rejected: {:#?}",
        verdict.rejected.len(),
        verdict.points,
        verdict.rejected
    );
}

#[test]
#[ignore = "full grid, run in release: cargo test --release -p tinysdr-bench -- --ignored"]
fn the_full_grid_is_equivalent_to_the_parent_report() {
    let base = WaterfallReport::from_json(&baseline(include_str!("data/waterfall_beef.json")))
        .expect("a waterfall report");
    let run = run_waterfall(&WaterfallConfig::full(0xBEEF).sharded(bench_shards()));
    let verdict = compare(&waterfall_counts(&base), &waterfall_counts(&run))
        .expect("the baseline describes the full grid");
    assert_eq!(verdict.points, 1936);
    assert_passes(&verdict);
}

#[test]
#[ignore = "full effort, run in release: cargo test --release -p tinysdr-bench -- --ignored"]
fn the_full_link_curve_is_equivalent_to_the_parent_report() {
    let base = link_counts(&baseline(include_str!("data/link_beef.json"))).expect("a link report");
    let run = link_counts(&link_json(0xBEEF, false)).expect("a link report");
    let verdict = compare(&base, &run).expect("the baseline describes the full curve");
    assert_eq!(verdict.points, 16);
    assert_passes(&verdict);
}
