//! Modem throughput benches: can the software models sustain the
//! hardware's real-time rates? The paper claims "Both the LoRa modulator
//! and demodulator run in real-time" on a 64 MHz fabric at 4 MS/s; here
//! we measure the Rust models' sample rates for reference (and the
//! `repro`-level experiments' building blocks).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use tinysdr_dsp::chirp::{ChirpConfig, ChirpGenerator};
use tinysdr_dsp::complex::Complex;
use tinysdr_dsp::fft::FftPlan;
use tinysdr_lora::concurrent::ConcurrentReceiver;
use tinysdr_lora::demodulator::Demodulator;
use tinysdr_lora::modulator::Modulator;
use tinysdr_rf::lvds::{Deserializer, Serializer};

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft");
    g.sample_size(20);
    for sf in [6u8, 8, 10, 12] {
        let n = 1usize << sf;
        let plan = FftPlan::new(n);
        let buf: Vec<Complex> = (0..n)
            .map(|i| Complex::from_angle(i as f64 * 0.1))
            .collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            b.iter(|| {
                let mut x = buf.clone();
                plan.forward(&mut x);
                x
            })
        });
    }
    g.finish();
}

fn bench_lora_mod(c: &mut Criterion) {
    let mut g = c.benchmark_group("lora_modulator");
    g.sample_size(20);
    for (sf, bw) in [(8u8, 125e3), (12u8, 125e3)] {
        let m = Modulator::standard(sf, bw, 1, 1);
        let payload = [0u8; 16];
        let samples = m.modulate(&payload).len() as u64;
        g.throughput(Throughput::Elements(samples));
        g.bench_with_input(BenchmarkId::new("frame", format!("sf{sf}")), &sf, |b, _| {
            b.iter(|| m.modulate(&payload))
        });
    }
    g.finish();
}

fn bench_lora_demod(c: &mut Criterion) {
    let mut g = c.benchmark_group("lora_demodulator");
    g.sample_size(10);
    let m = Modulator::standard(8, 125e3, 1, 1);
    let d = Demodulator::standard(8, 125e3, 1, 1);
    let sig = m.modulate(&[0u8; 16]);
    g.throughput(Throughput::Elements(sig.len() as u64));
    g.bench_function("frame_sf8", |b| b.iter(|| d.demodulate(&sig)));
    // symbol-level path (the per-symbol dechirp+FFT the FPGA streams)
    let gen = ChirpGenerator::new(ChirpConfig::new(8, 125e3, 1));
    let sym = gen.upchirp(123);
    g.throughput(Throughput::Elements(sym.len() as u64));
    g.bench_function("symbol_sf8", |b| b.iter(|| d.detect_symbol(&sym)));
    g.finish();
}

fn bench_concurrent(c: &mut Criterion) {
    let mut g = c.benchmark_group("concurrent_rx");
    g.sample_size(10);
    let rcv = ConcurrentReceiver::paper_pair();
    let ma = Modulator::new(
        ChirpConfig::new(8, 125e3, 4),
        tinysdr_lora::packet::FrameParams::new(tinysdr_lora::phy::CodeParams::new(8, 1)),
    );
    let syms: Vec<u16> = (0..32).collect();
    let sig = ma.modulate_symbols(&syms);
    g.throughput(Throughput::Elements(sig.len() as u64));
    g.bench_function("two_lane_ser", |b| {
        b.iter(|| rcv.symbol_error_rates(&sig, &[syms.clone(), vec![]]))
    });
    g.finish();
}

fn bench_ble_mod(c: &mut Criterion) {
    let mut g = c.benchmark_group("ble");
    g.sample_size(20);
    let m = tinysdr_ble::gfsk::GfskModulator::new(4);
    let pkt = tinysdr_ble::packet::AdvPacket::beacon([1, 2, 3, 4, 5, 6], &[0u8; 24]).unwrap();
    let bits = pkt.to_bits(37);
    g.throughput(Throughput::Elements((bits.len() * 4) as u64));
    g.bench_function("gfsk_modulate_beacon", |b| b.iter(|| m.modulate(&bits)));
    let d = tinysdr_ble::gfsk::GfskDemodulator::new(4);
    let sig = m.modulate(&bits);
    g.bench_function("gfsk_demodulate_beacon", |b| b.iter(|| d.demodulate(&sig)));
    g.finish();
}

fn bench_lvds(c: &mut Criterion) {
    let mut g = c.benchmark_group("lvds");
    g.sample_size(20);
    let tone = tinysdr_dsp::nco::ideal_tone(100e3, 4e6, 1024);
    let ser = Serializer::new();
    g.throughput(Throughput::Elements(1024));
    g.bench_function("serialize_1k_samples", |b| b.iter(|| ser.serialize(&tone)));
    let bits = ser.serialize(&tone);
    g.bench_function("deserialize_1k_samples", |b| {
        b.iter(|| {
            let mut d = Deserializer::new();
            d.push_bits(&bits);
            d.finish()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fft,
    bench_lora_mod,
    bench_lora_demod,
    bench_concurrent,
    bench_ble_mod,
    bench_lvds
);
criterion_main!(benches);
