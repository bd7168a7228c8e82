//! BLE beacon transmitter — the paper's second case study (§4.2):
//! build an iBeacon, hop it across the three advertising channels with
//! the 220 µs retune gap, and receive it through noise on a CC2650-class
//! receiver.
//!
//! ```text
//! cargo run --release --example ble_beacon
//! ```

use tinysdr::ble::advertiser::Advertiser;
use tinysdr::ble::beacon;
use tinysdr::ble::gfsk::{count_bit_errors, GfskDemodulator, GfskModulator};
use tinysdr::ble::packet::AdvPacket;
use tinysdr::platform::profile::{ble_beacon_battery_years, platform_power_mw, OperatingPoint};
use tinysdr::rf::impairments::ImpairmentChain;

fn main() {
    println!("=== BLE beacon case study ===\n");

    // --- build an iBeacon advertisement ---
    let uuid: [u8; 16] = *b"TINYSDR-NSDI2020";
    let pkt = beacon::ibeacon([0xC0, 0xFF, 0xEE, 0x00, 0x00, 0x01], &uuid, 7, 42, -59)
        .expect("payload fits");
    println!(
        "iBeacon PDU: {} bytes, airtime {:.0} µs at 1 Mbps",
        pkt.pdu().len(),
        pkt.airtime_1mbps_s() * 1e6
    );

    // --- the advertising event: 37 -> 38 -> 39 with 220 µs hops ---
    let adv = Advertiser::tinysdr(pkt.clone());
    for b in adv.event() {
        println!(
            "  ch {} @ {:.0} MHz: {:.0}..{:.0} µs",
            b.channel,
            b.freq_hz / 1e6,
            b.start_s * 1e6,
            (b.start_s + b.duration_s) * 1e6
        );
    }
    println!(
        "hop gaps: {:?} µs (iPhone 8: 350 µs)",
        adv.gaps_s()
            .iter()
            .map(|g| (g * 1e6).round())
            .collect::<Vec<_>>()
    );

    // --- over the air at -80 dBm on channel 38 ---
    let sps = 4; // 4 MS/s radio rate at 1 Mbps
    let modulator = GfskModulator::new(sps);
    let demodulator = GfskDemodulator::new(sps);
    let bits = pkt.to_bits(38);
    let sig = ImpairmentChain::new(6.7).apply(&modulator.modulate(&bits), -80.0, modulator.fs(), 7);
    let rx_bits = demodulator.demodulate(&sig);
    let (errs, n) = count_bit_errors(&bits, &rx_bits);
    println!("\nreceived at -80 dBm: {errs} bit errors over {n} bits");
    let back = AdvPacket::from_bits(&rx_bits, 38).expect("CRC-clean packet");
    assert_eq!(back.adv_data, pkt.adv_data);
    println!(
        "decoded AdvData intact ({} bytes, CRC-24 verified)",
        back.adv_data.len()
    );

    // --- power story ---
    println!(
        "\nTX platform power: {:.0} mW | sleep floor: {:.0} µW",
        platform_power_mw(OperatingPoint::BleTx),
        platform_power_mw(OperatingPoint::Sleep) * 1000.0
    );
    println!(
        "beaconing once per second: {:.1} years (single channel) / {:.1} years (3 channels) on 1000 mAh",
        ble_beacon_battery_years(1.0, 1),
        ble_beacon_battery_years(1.0, 3)
    );
}
