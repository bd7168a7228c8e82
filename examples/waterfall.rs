//! PHY conformance waterfalls: BER/SER vs RSSI under composable channel
//! impairments, swept in parallel under the determinism contract.
//!
//! The paper validates TinySDR's modems with RSSI sweeps (Figs. 10–12);
//! this example runs the same measurement as a *service*: a grid of
//! `scenario × impairment × RSSI` points through the real TX → channel →
//! RX chain, sharded across cores, with the sharded run asserted
//! bit-identical to the sequential one. It then uses a custom impairment
//! chain to hunt a tolerance: how much sample-clock drift the SF8 LoRa
//! demodulator absorbs before its waterfall moves.
//!
//! ```text
//! cargo run --release --example waterfall
//! ```

// Examples are demo harnesses: measuring wall time here is the point,
// and nothing downstream consumes it.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use tinysdr_bench::waterfall::{
    run_waterfall, NamedImpairment, RssiGrid, Scenario, WaterfallConfig,
};
use tinysdr_rf::impairments::ImpairmentChain;

fn main() {
    println!("=== PHY conformance waterfalls ===\n");
    println!("(every scenario sweeps through the same &dyn PhyModem engine)\n");

    let shards = tinysdr_bench::bench_shards();

    // --- the quick conformance grid, sequential vs sharded ---
    let cfg = WaterfallConfig::quick(42);
    let t0 = Instant::now();
    let seq = run_waterfall(&cfg);
    let t_seq = t0.elapsed();
    let t0 = Instant::now();
    let par = run_waterfall(&cfg.clone().sharded(shards));
    let t_par = t0.elapsed();
    assert_eq!(seq, par, "sharded sweep diverged from sequential");
    println!(
        "determinism contract: {shards} shards == sequential, bit-identical on {} points",
        par.points.len()
    );
    println!(
        "wall clock: sequential {:.2} s | {shards} shards {:.2} s ({:.2}x)\n",
        t_seq.as_secs_f64(),
        t_par.as_secs_f64(),
        t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9)
    );

    for sc in par.scenario_labels() {
        println!("{sc}: 1%-error sensitivity");
        for imp in par.impairment_labels() {
            match par.sensitivity_dbm(&sc, &imp, 0.01) {
                Some(s) => println!("  {imp:<12} {s:>8.1} dBm"),
                None => println!("  {imp:<12} {:>8}", "no cross"),
            }
        }
    }
    println!(
        "anchors: LoRa -126 dBm @ SF8/BW125; BLE -94 dBm; 802.15.4 spec -85 / silicon ~-97 dBm\n"
    );

    // --- tolerance hunt: sample-clock drift on the SF8 LoRa lane ---
    // Each drift value is one custom chain in the impairment grid; the
    // sweep stays deterministic and sharded exactly as before.
    let mut hunt = WaterfallConfig::quick(42).sharded(shards);
    hunt.scenarios = vec![Scenario::lora_ser(8, 125e3, 96).with_rssi(RssiGrid::new(-132, -116, 4))];
    hunt.impairments = [0.0, 2.0, 8.0, 32.0]
        .into_iter()
        .map(|ppm| {
            NamedImpairment::new(
                format!("drift{ppm}ppm"),
                ImpairmentChain::new(0.0).with_clock_drift_ppm(ppm),
            )
        })
        .collect();
    let rep = run_waterfall(&hunt);
    println!("SF8/BW125 SER vs sample-clock drift (96 chirp symbols/point):");
    for imp in rep.impairment_labels() {
        let s = rep
            .sensitivity_dbm("LoRa SER SF8 BW125", &imp, 0.01)
            .map(|s| format!("{s:.1} dBm"))
            .unwrap_or_else(|| "no cross".into());
        println!("  {imp:<12} 1%-SER sensitivity {s}");
    }
    println!(
        "\nthe fixed symbol grid slips one full sample every {:.0} symbols at 32 ppm —",
        1.0 / (32e-6 * 256.0)
    );
    println!("drift is the first impairment whose damage grows with frame length.");
}
