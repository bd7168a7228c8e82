//! Concurrent LoRa reception (the paper's §6 research study): two
//! transmitters with orthogonal chirp slopes share one channel; a single
//! TinySDR decodes both streams at once within its FPGA budget.
//!
//! ```text
//! cargo run --release --example concurrent_rx
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tinysdr::lora::ChirpConfig;
use tinysdr::platform::profile::{platform_power_mw, OperatingPoint};
use tinysdr::rf::channel::{measure_rssi_dbm, set_rssi, superpose};
use tinysdr::rf::impairments::ImpairmentChain;
use tinysdr_fpga::resources::paper_percent;
use tinysdr_lora::concurrent::ConcurrentReceiver;
use tinysdr_lora::fpga_map;
use tinysdr_lora::modulator::Modulator;
use tinysdr_lora::packet::FrameParams;
use tinysdr_lora::phy::CodeParams;

fn main() {
    println!("=== concurrent orthogonal LoRa reception (paper sec. 6) ===\n");

    // two orthogonal configurations: same SF, different bandwidth
    let cfg_a = ChirpConfig::new(8, 125e3, 4); // 500 kHz stream
    let cfg_b = ChirpConfig::new(8, 250e3, 2);
    println!(
        "slopes: BW125 {:.1} Hz/us vs BW250 {:.1} Hz/us -> orthogonal: {}",
        cfg_a.chirp_slope() / 1e6,
        cfg_b.chirp_slope() / 1e6,
        cfg_a.is_orthogonal_to(&cfg_b)
    );

    // the receiver: two Fig. 6b decoders sharing the front end
    let receiver = ConcurrentReceiver::paper_pair();
    let design = fpga_map::concurrent_rx_design();
    println!(
        "FPGA budget: {} LUTs ({}%) | platform power {:.0} mW (paper: 17%, 207 mW)\n",
        design.total_luts(),
        paper_percent(design.total_luts()),
        platform_power_mw(OperatingPoint::ConcurrentRx)
    );

    // two transmitters sending random symbols simultaneously
    let code = CodeParams::new(8, 1);
    let tx_a = Modulator::new(cfg_a, FrameParams::new(code));
    let tx_b = Modulator::new(cfg_b, FrameParams::new(code));
    let mut rng = StdRng::seed_from_u64(2020);
    let syms_a: Vec<u16> = (0..120).map(|_| rng.gen_range(0..256)).collect();
    let syms_b: Vec<u16> = (0..240).map(|_| rng.gen_range(0..256)).collect();

    for (rssi_a, rssi_b, label) in [
        (-100.0, -100.0, "both strong"),
        (-120.0, -120.0, "both near sensitivity"),
        (-123.0, -110.0, "weak BW125 vs loud BW250 interferer"),
    ] {
        let mut sig_a = tx_a.modulate_symbols(&syms_a);
        let mut sig_b = tx_b.modulate_symbols(&syms_b);
        set_rssi(&mut sig_a, rssi_a);
        set_rssi(&mut sig_b, rssi_b);
        let sum = superpose(&sig_a, &sig_b);
        let rx = ImpairmentChain::new(4.5).apply(&sum, measure_rssi_dbm(&sum), 500e3, 7);

        let sers = receiver.symbol_error_rates(&rx, &[syms_a.clone(), syms_b.clone()]);
        println!(
            "{label:<40} BW125 @ {rssi_a:>6.1} dBm: SER {:>5.1}% | BW250 @ {rssi_b:>6.1} dBm: SER {:>5.1}%",
            sers[0] * 100.0,
            sers[1] * 100.0
        );
    }

    println!(
        "\nboth transmissions decode simultaneously — on an IoT endpoint's \
         power budget, not a USRP gateway's."
    );
}
