//! Over-the-air reprogramming of the 20-node campus testbed — the
//! paper's §3.4/§5.3 flow end to end: compress a new FPGA image into
//! 30 KB blocks, push it to every node over the LoRa backbone, then
//! reassemble/verify under the MCU's 64 KB SRAM budget on one node.
//!
//! ```text
//! cargo run --release --example ota_campus
//! ```

use tinysdr::ota::blocks::{reassemble, BlockedUpdate};
use tinysdr::ota::image::FirmwareImage;
use tinysdr::platform::testbed::{CampaignConfig, Testbed};
use tinysdr::power::battery::Battery;
use tinysdr_hw::flash::{Flash, ImageSlot};
use tinysdr_hw::mcu::Mcu;

fn main() {
    println!("=== OTA campaign over the campus testbed ===\n");

    // --- the update: a new BLE PHY for every node ---
    let image = FirmwareImage::ble_fpga(7);
    let update = BlockedUpdate::build(&image);
    println!(
        "image '{}': {} KB raw -> {} KB compressed ({:.0}%) in {} blocks of <=30 KB",
        image.name,
        image.len() / 1024,
        update.compressed_len() / 1024,
        update.ratio() * 100.0,
        update.blocks.len()
    );

    // --- the testbed of Fig. 7 ---
    let tb = Testbed::campus(42);
    let (rssi_min, rssi_max) = tb.rssi_spread();
    println!(
        "testbed: {} nodes, RSSI {rssi_min:.0}..{rssi_max:.0} dBm from the AP\n",
        tb.nodes.len()
    );

    // --- program everyone, sequentially like the paper's AP ---
    let reports = tb.run_campaign(&update, &CampaignConfig::sequential(99));
    let mut total_energy = 0.0;
    for (id, r) in reports.iter() {
        let node = &tb.nodes[*id as usize];
        println!(
            "node {id:>2}: {:>6.0} m, {:>6.1} dBm | {:>5.1} s | {:>4} retx | {:>5.0} mJ | {}",
            node.distance_m,
            node.rssi_dbm,
            r.duration_s,
            r.retransmissions,
            r.node_energy_mj,
            if r.completed { "done" } else { "OUT OF RANGE" }
        );
        total_energy += r.node_energy_mj;
    }
    let done: Vec<_> = reports.iter().filter(|(_, r)| r.completed).collect();
    let mean = done.iter().map(|(_, r)| r.duration_s).sum::<f64>() / done.len() as f64;
    println!(
        "\ncompleted {}/{} nodes | mean programming time {mean:.0} s (paper: 59 s for BLE)",
        reports.completed(),
        reports.len()
    );
    let battery = Battery::lipo_1000mah();
    let per_node = total_energy / reports.len() as f64;
    println!(
        "mean node energy {per_node:.0} mJ -> {} updates per 1000 mAh (paper: 5600)",
        battery
            .operations(per_node)
            .expect("campaign spent positive energy")
    );

    // --- node-side reassembly under the 64 KB SRAM budget ---
    let mut mcu = Mcu::new();
    let mut flash = Flash::new();
    let report = reassemble(
        &update,
        &mut mcu,
        &mut flash,
        4 << 20, // staging area in the upper half of the 8 MB flash
        ImageSlot::Fpga(1).base_addr(),
    )
    .expect("reassembly verifies");
    println!(
        "\nnode reassembly: {} KB image decompressed in {:.0} ms (budget 450 ms), peak SRAM {} KB",
        report.image_len / 1024,
        report.decompress_time_s * 1e3,
        report.peak_sram / 1024
    );
    println!("stored to flash slot 1; a 22 ms reconfiguration switches protocols.");
}
