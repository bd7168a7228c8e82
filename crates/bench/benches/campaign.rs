//! OTA campaign engine benches: the paper's sequential unicast flow vs
//! the sharded scale-out engine vs broadcast + targeted repair, over the
//! same testbed and update. On a multi-core box the sharded engine's
//! wall clock drops roughly with the shard count (the per-node sessions
//! are embarrassingly parallel and bit-identical to sequential by the
//! determinism contract); broadcast wins on *air* time instead.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use tinysdr_core::testbed::{BroadcastCampaignConfig, CampaignConfig, Testbed};
use tinysdr_ota::aggregate::RetainMode;
use tinysdr_ota::blocks::BlockedUpdate;
use tinysdr_ota::image::FirmwareImage;

const NODES: usize = 96;
const SEED: u64 = 7;

fn bench_campaign(c: &mut Criterion) {
    let tb = Testbed::with_nodes(NODES, 42);
    let upd = BlockedUpdate::build(&FirmwareImage::mcu("campaign_fw", 16_000, 1));
    let threads = tinysdr_bench::bench_shards();

    let mut g = c.benchmark_group("ota_campaign");
    g.sample_size(10);
    g.throughput(Throughput::Elements(NODES as u64));

    g.bench_function(format!("sequential_{NODES}"), |b| {
        b.iter(|| tb.run_campaign(&upd, &CampaignConfig::sequential(SEED)))
    });
    g.bench_function(format!("sharded_{NODES}_x{threads}"), |b| {
        b.iter(|| tb.run_campaign(&upd, &CampaignConfig::sharded(SEED, threads)))
    });
    g.bench_function(format!("sharded_sketch_{NODES}_x{threads}"), |b| {
        b.iter(|| {
            tb.run_campaign(
                &upd,
                &CampaignConfig::sharded(SEED, threads).with_retain(RetainMode::sketch()),
            )
        })
    });
    g.bench_function(format!("broadcast_{NODES}"), |b| {
        b.iter(|| tb.broadcast_campaign(&upd, &BroadcastCampaignConfig::new(SEED)))
    });
    g.finish();
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
