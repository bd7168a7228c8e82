//! The third protocol, end to end: IEEE 802.15.4 O-QPSK through the
//! `PhyModem` seam.
//!
//! The paper's §2 claim is that TinySDR hosts *any* IoT PHY up to a
//! 2 MHz bandwidth. LoRa and BLE shipped with the platform; this
//! example walks the protocol that proves the abstraction — Zigbee's
//! 2.4 GHz O-QPSK PHY with 32-chip DSSS spreading — through every
//! consumer of the trait: the registry, the device's radio setup, and
//! the conformance waterfall.
//!
//! ```text
//! cargo run --release --example zigbee_oqpsk
//! ```

use tinysdr::hw::flash::ImageSlot;
use tinysdr::phy::PhyModem;
use tinysdr::platform::device::TinySdr;
use tinysdr::zigbee::chips::chip_sequence;
use tinysdr::zigbee::modem::{ZigbeePhy, SILICON_SENSITIVITY_DBM, SPEC_SENSITIVITY_DBM};
use tinysdr_bench::waterfall::{run_waterfall, RssiGrid, Scenario, WaterfallConfig};

fn main() {
    println!("=== 802.15.4 O-QPSK through the PhyModem seam ===\n");

    // --- the modem and its metadata (everything the engine needs) ---
    let phy = ZigbeePhy::new(2);
    println!("label            : {}", phy.label());
    println!("sample rate      : {} MS/s", phy.sample_rate_hz() / 1e6);
    println!("occupied BW      : {} MHz", phy.occupied_bw_hz() / 1e6);
    println!(
        "carrier          : {} GHz (channel 19)",
        phy.center_frequency_hz() / 1e9
    );
    println!("sensitivity      : spec ≤ {SPEC_SENSITIVITY_DBM} dBm, silicon ≈ {SILICON_SENSITIVITY_DBM} dBm\n");

    // --- DSSS spreading: 4 bits → 32 chips ---
    let seq = chip_sequence(0xA);
    let printable: String = seq.iter().map(|&c| char::from(b'0' + c)).collect();
    println!("symbol 0xA spreads to {printable}");
    let frame = b"tinySDR does Zigbee too";
    println!(
        "{} bytes → {} symbols → {} chips → {:.1} ms on air\n",
        frame.len(),
        frame.len() * 2,
        frame.len() * 2 * 32,
        phy.airtime_len_s(frame.len()) * 1e3
    );

    // --- clean loopback through the trait object ---
    let boxed: Box<dyn PhyModem> = Box::new(phy.clone());
    let rx = boxed.demodulate(&boxed.modulate(frame));
    let count = boxed.count_errors(frame, &rx);
    assert!(count.is_clean());
    println!(
        "clean loopback: {} DSSS symbols, {} errors, payload {:?}\n",
        count.trials,
        count.errors,
        String::from_utf8_lossy(&rx.bytes)
    );

    // --- the device tunes its radio from the same metadata ---
    let mut dev = TinySdr::new();
    let img = tinysdr::fpga::bitstream::Bitstream::synthesize("oqpsk_phy", 0.11, 7);
    dev.store_image(ImageSlot::Fpga(0), "oqpsk_phy", img.data())
        .unwrap();
    let t = dev
        .configure_phy(ImageSlot::Fpga(0), 2100, &phy)
        .expect("2 MHz O-QPSK fits the 4 MS/s I/Q path");
    println!(
        "device: FPGA boot ∥ radio setup = {:.1} ms, radio at {:.3} GHz, active PHY {:?}\n",
        t as f64 / 1e6,
        dev.radio.frequency_hz() / 1e9,
        dev.active_phy().unwrap()
    );

    // --- the conformance waterfall measures it like any other PHY ---
    let shards = tinysdr_bench::bench_shards();
    let mut cfg = WaterfallConfig::quick(42).sharded(shards);
    cfg.scenarios = vec![Scenario::zigbee_oqpsk(2, 2_000).with_rssi(RssiGrid::new(-106, -88, 2))];
    let rep = run_waterfall(&cfg);
    println!("SER waterfall (2000 DSSS symbols/point, {shards} shards):");
    for imp in rep.impairment_labels() {
        let s = rep
            .sensitivity_dbm("802.15.4 OQPSK", &imp, 0.01)
            .map(|s| format!("{s:.1} dBm"))
            .unwrap_or_else(|| "no cross".into());
        println!("  {imp:<12} 1%-SER sensitivity {s}");
    }
    let clean = rep
        .sensitivity_dbm("802.15.4 OQPSK", "clean", 0.01)
        .expect("clean curve crosses 1%");
    assert!(clean <= SPEC_SENSITIVITY_DBM);
    println!(
        "\nmeasured {clean:.1} dBm clears the spec's {SPEC_SENSITIVITY_DBM} dBm floor by {:.0} dB",
        SPEC_SENSITIVITY_DBM - clean
    );
    println!("and sits within a few dB of the {SILICON_SENSITIVITY_DBM} dBm silicon anchor.");
}
