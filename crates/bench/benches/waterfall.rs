//! Conformance-sweep benches: the quick waterfall grid run sequentially
//! vs sharded across the machine's cores. The two produce bit-identical
//! reports (the determinism contract), so the only difference worth
//! measuring is wall clock.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use tinysdr_bench::waterfall::{run_waterfall, WaterfallConfig};

fn bench_waterfall(c: &mut Criterion) {
    let cfg = WaterfallConfig::quick(7);
    let points = run_waterfall(&cfg).points.len() as u64;
    let threads = tinysdr_bench::bench_shards();

    let mut g = c.benchmark_group("waterfall");
    g.sample_size(10);
    g.throughput(Throughput::Elements(points));

    g.bench_function("quick_sequential", |b| b.iter(|| run_waterfall(&cfg)));
    g.bench_function(format!("quick_sharded_x{threads}"), |b| {
        b.iter(|| run_waterfall(&cfg.clone().sharded(threads)))
    });
    g.finish();
}

criterion_group!(benches, bench_waterfall);
criterion_main!(benches);
