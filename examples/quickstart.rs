//! Quickstart: bring up a TinySDR node, send a LoRa packet through the
//! air to another node, and put both to sleep.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This walks the same path the paper's Fig. 3 block diagram describes:
//! store a bitstream in flash → wake (22 ms: FPGA boots from flash while
//! the radio sets up) → modulate on the "FPGA" → cross an AWGN channel →
//! demodulate on the receiver → sleep at 30 µW.

use tinysdr::lora::ChirpConfig;
use tinysdr::platform::device::{DeviceState, TinySdr};
use tinysdr::rf::at86rf215::RadioState;
use tinysdr::rf::impairments::ImpairmentChain;
use tinysdr_fpga::bitstream::Bitstream;
use tinysdr_hw::flash::ImageSlot;
use tinysdr_lora::demodulator::Demodulator;
use tinysdr_lora::modulator::Modulator;
use tinysdr_lora::packet::FrameParams;
use tinysdr_lora::phy::CodeParams;

fn main() {
    println!("=== TinySDR quickstart ===\n");

    // --- build two boards and store the LoRa PHY bitstream on both ---
    let lora_image = Bitstream::synthesize("lora_phy", 0.15, 1);
    let mut tx_node = TinySdr::new();
    let mut rx_node = TinySdr::new();
    for node in [&mut tx_node, &mut rx_node] {
        node.store_image(ImageSlot::Fpga(0), "lora_phy", lora_image.data())
            .unwrap();
        node.sleep();
    }
    println!(
        "both nodes asleep at {:.0} µW",
        tx_node.platform_power_mw() * 1000.0
    );

    // --- wake them (Table 4: 22 ms, FPGA boot || radio setup) ---
    let t_tx = tx_node.wake(RadioState::Tx, 976).unwrap();
    let t_rx = rx_node.wake(RadioState::Rx, 2700).unwrap();
    println!(
        "wakeup: TX node {:.1} ms, RX node {:.1} ms (paper: 22 ms)",
        t_tx as f64 / 1e6,
        t_rx as f64 / 1e6
    );
    assert_eq!(tx_node.state(), DeviceState::Transmitting);
    assert_eq!(rx_node.state(), DeviceState::Receiving);

    // --- modulate a packet (SF8, BW 125 kHz, CR 4/8) ---
    let chirp = ChirpConfig::new(8, 125e3, 1);
    let frame = FrameParams::new(CodeParams::new(8, 4));
    let modulator = Modulator::new(chirp, frame);
    let payload = b"hello from tinySDR";
    let signal = modulator.modulate(payload);
    println!(
        "\nmodulated {} bytes -> {} I/Q samples ({:.1} ms of air time)",
        payload.len(),
        signal.len(),
        signal.len() as f64 / chirp.fs() * 1e3
    );
    println!("TX platform power: {:.0} mW", tx_node.platform_power_mw());

    // --- the channel: -120 dBm at the receiver, AT86RF215 noise figure ---
    let signal = ImpairmentChain::new(4.5).apply(&signal, -120.0, chirp.fs(), 42);

    // --- demodulate on the receiving node ---
    let demodulator = Demodulator::new(chirp, frame);
    let decoded = demodulator
        .demodulate(&signal)
        .expect("frame decodes at -120 dBm");
    println!(
        "\nreceived: {:?} (CRC ok: {}, FEC corrections: {})",
        String::from_utf8_lossy(&decoded.payload),
        decoded.crc_ok,
        decoded.corrections
    );
    assert_eq!(decoded.payload, payload);

    // --- account one second of each state, then back to sleep ---
    tx_node.advance(1_000_000_000);
    tx_node.sleep();
    tx_node.advance(1_000_000_000);
    println!("\nTX node energy ledger (mJ):");
    for (tag, mj) in tx_node.ledger().by_tag() {
        println!("  {tag:<12} {mj:.3}");
    }
    println!("\nquickstart complete.");
}
