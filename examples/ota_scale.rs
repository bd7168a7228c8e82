//! Scale-out OTA campaign: 2,000 nodes through the sharded engine.
//!
//! The paper programs its 20-node campus testbed sequentially (§3.4).
//! The campaign engine keeps that semantics but shards the simulation
//! across cores under a determinism contract: every node draws its
//! randomness from an order-independent splitmix64 stream keyed by
//! `(campaign seed, node id, stream)`, so the sharded run is
//! **bit-identical** to the sequential one — this example asserts it on
//! all 2,000 `SessionReport`s. It then compares the two programming
//! strategies (sequential unicast vs broadcast + targeted repair) on
//! total air time.
//!
//! ```text
//! cargo run --release --example ota_scale
//! ```

// Examples are demo harnesses: measuring wall time here is the point,
// and nothing downstream consumes it.
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use tinysdr::ota::aggregate::RetainMode;
use tinysdr::ota::blocks::BlockedUpdate;
use tinysdr::ota::image::FirmwareImage;
use tinysdr::platform::testbed::{BroadcastCampaignConfig, CampaignConfig, Testbed};

fn main() {
    println!("=== 2,000-node OTA campaign through the sharded engine ===\n");

    let tb = Testbed::with_nodes(2_000, 42);
    let (rssi_min, rssi_max) = tb.rssi_spread();
    println!(
        "testbed: {} nodes, RSSI {rssi_min:.0}..{rssi_max:.0} dBm",
        tb.nodes.len()
    );

    let image = FirmwareImage::mcu("sensor_fw_v2", 24_000, 9);
    let update = BlockedUpdate::build(&image);
    println!(
        "update: {} KB -> {} KB compressed in {} blocks\n",
        image.len() / 1024,
        update.compressed_len() / 1024,
        update.blocks.len()
    );

    // --- sequential reference ---
    let t0 = Instant::now();
    let seq = tb.run_campaign(&update, &CampaignConfig::sequential(7));
    let t_seq = t0.elapsed();

    // --- sharded engine, same seed ---
    let shards = tinysdr_bench::bench_shards();
    let t0 = Instant::now();
    let par = tb.run_campaign(&update, &CampaignConfig::sharded(7, shards));
    let t_par = t0.elapsed();

    // the determinism contract, checked on all 2,000 reports
    assert_eq!(
        seq.reports(),
        par.reports(),
        "sharded campaign diverged from sequential — contract violated"
    );
    println!(
        "determinism contract: {} shards == sequential, bit-identical on all {} reports",
        shards,
        seq.len()
    );
    println!(
        "simulation wall clock: sequential {:.2} s | {} shards {:.2} s ({:.2}x)",
        t_seq.as_secs_f64(),
        shards,
        t_par.as_secs_f64(),
        t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9)
    );

    let ecdf = par.time_ecdf().expect("exact retention");
    println!(
        "\ncompleted {}/{} nodes | programming time p50 {:.1} min, p90 {:.1} min, p99 {:.1} min",
        par.completed(),
        par.len(),
        ecdf.median().expect("completed sessions"),
        ecdf.quantile(0.90).expect("completed sessions"),
        ecdf.quantile(0.99).expect("completed sessions"),
    );
    println!(
        "unicast air time (one AP, back-to-back): {:.0} s total",
        par.total_air_time_s()
    );

    // --- streaming retention: same campaign, bounded report memory ---
    let sk = tb.run_campaign(
        &update,
        &CampaignConfig::sharded(7, shards).with_retain(RetainMode::sketch()),
    );
    println!(
        "\nstreaming retention: report {} KB vs exact {} KB; sketch p90 {:.1} min (exact {:.1})",
        sk.memory_bytes() / 1024,
        par.memory_bytes() / 1024,
        sk.time_dist().quantile(0.90).expect("completed sessions"),
        ecdf.quantile(0.90).expect("completed sessions"),
    );

    // --- strategy 2: broadcast + targeted unicast repair (§7) ---
    let bc_cfg = BroadcastCampaignConfig {
        max_rounds: 12,
        repair: CampaignConfig::sharded(7, shards),
    };
    let t0 = Instant::now();
    let bc = tb.broadcast_campaign(&update, &bc_cfg);
    let t_bc = t0.elapsed();
    println!(
        "\nbroadcast strategy: {} repair rounds, {} re-broadcast packets, {} stragglers repaired by unicast",
        bc.broadcast.rounds,
        bc.broadcast.repairs,
        bc.repaired.len()
    );
    println!(
        "broadcast air time {:.0} s vs unicast {:.0} s ({:.0}x faster on air; simulated in {:.2} s)",
        bc.total_time_s,
        par.total_air_time_s(),
        par.total_air_time_s() / bc.total_time_s.max(1e-9),
        t_bc.as_secs_f64()
    );
    // consistency: any node the broadcast strategy failed to reach must
    // be one the unicast strategy couldn't reach either (a dead link,
    // not an engine artifact)
    for (node, &done) in tb.nodes.iter().zip(&bc.broadcast.node_complete) {
        let repaired = bc
            .repaired
            .get(node.id)
            .map(|r| r.completed)
            .unwrap_or(false);
        if !done && !repaired {
            assert!(
                !par.get(node.id).expect("node in campaign").completed,
                "node {} reachable by unicast but lost by broadcast+repair",
                node.id
            );
        }
    }
}
