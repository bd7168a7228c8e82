//! Platform-side benches: compression (the §5.3 OTA path), the AES-CMAC
//! MIC (LoRaWAN MAC viability on a small MCU), the statistical PER model
//! and the spectrum estimator.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use tinysdr_lora::lorawan::{cmac_aes128, Aes128};
use tinysdr_ota::image::FirmwareImage;
use tinysdr_ota::lzo;

fn bench_lzo(c: &mut Criterion) {
    let mut g = c.benchmark_group("lzo");
    g.sample_size(10);
    // a 30 KB block of BLE bitstream — the exact OTA unit
    let img = FirmwareImage::ble_fpga(1);
    let block = &img.data[..30 * 1024];
    g.throughput(Throughput::Bytes(block.len() as u64));
    g.bench_function("compress_30kb_block", |b| b.iter(|| lzo::compress(block)));
    let compressed = lzo::compress(block);
    g.bench_function("decompress_30kb_block", |b| {
        b.iter(|| lzo::decompress(&compressed, block.len()).unwrap())
    });
    g.finish();
}

fn bench_aes(c: &mut Criterion) {
    let mut g = c.benchmark_group("lorawan_crypto");
    g.sample_size(30);
    let key = [0x2Bu8; 16];
    let aes = Aes128::new(&key);
    let block = [0x42u8; 16];
    g.throughput(Throughput::Bytes(16));
    g.bench_function("aes128_block", |b| b.iter(|| aes.encrypt_block(&block)));
    let frame = [0x5Au8; 64];
    g.throughput(Throughput::Bytes(64));
    g.bench_function("cmac_64B_frame", |b| b.iter(|| cmac_aes128(&key, &frame)));
    g.finish();
}

fn bench_per_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("sx1276_model");
    g.sample_size(10);
    g.bench_function("ser_20k_trials", |b| {
        b.iter(|| tinysdr_rf::sx1276::symbol_error_rate(-10.0, 8, 20_000, 1))
    });
    g.bench_function("ser_quadrature", |b| {
        b.iter(|| tinysdr_rf::sx1276::symbol_error_prob(-10.0, 8))
    });
    g.finish();
}

fn bench_spectrum(c: &mut Criterion) {
    let mut g = c.benchmark_group("spectrum");
    g.sample_size(10);
    let tone = tinysdr_dsp::nco::ideal_tone(250e3, 4e6, 1 << 16);
    g.throughput(Throughput::Elements(tone.len() as u64));
    g.bench_function("welch_64k", |b| {
        b.iter(|| {
            tinysdr_dsp::spectrum::welch(&tone, 4e6, &tinysdr_dsp::spectrum::WelchConfig::default())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_lzo,
    bench_aes,
    bench_per_model,
    bench_spectrum
);
criterion_main!(benches);
