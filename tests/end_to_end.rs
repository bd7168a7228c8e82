//! Cross-crate integration tests: full-system scenarios that span the
//! whole workspace, the way a TinySDR deployment would.

use tinysdr::lora::ChirpConfig;
use tinysdr::platform::device::{DeviceState, TinySdr};
use tinysdr::rf::at86rf215::RadioState;
use tinysdr::rf::impairments::ImpairmentChain;
use tinysdr_fpga::bitstream::Bitstream;
use tinysdr_hw::flash::ImageSlot;
use tinysdr_lora::demodulator::Demodulator;
use tinysdr_lora::lorawan::mac::TestNetworkServer;
use tinysdr_lora::lorawan::{Activation, ClassAMac, MacConfig};
use tinysdr_lora::modulator::Modulator;
use tinysdr_lora::packet::FrameParams;
use tinysdr_lora::phy::CodeParams;

/// Device lifecycle: store → sleep → wake (22 ms) → TX a LoRa frame that
/// a second device decodes → back to the 30 µW floor.
#[test]
fn full_link_between_two_devices() {
    let image = Bitstream::synthesize("lora_phy", 0.15, 1);
    let mut tx = TinySdr::new();
    let mut rx = TinySdr::new();
    for d in [&mut tx, &mut rx] {
        d.store_image(ImageSlot::Fpga(0), "lora_phy", image.data())
            .unwrap();
        d.sleep();
    }
    assert!(tx.platform_power_mw() * 1000.0 < 35.0);

    let wake_ns = tx.wake(RadioState::Tx, 976).unwrap();
    assert!((wake_ns as f64 / 1e6 - 22.0).abs() < 0.5);
    rx.wake(RadioState::Rx, 2700).unwrap();

    let chirp = ChirpConfig::new(8, 125e3, 1);
    let fp = FrameParams::new(CodeParams::new(8, 4));
    let payload = b"integration";
    let sig = Modulator::new(chirp, fp).modulate(payload);
    let sig = ImpairmentChain::new(4.5).apply(&sig, -118.0, chirp.fs(), 77);
    let frame = Demodulator::new(chirp, fp)
        .demodulate(&sig)
        .expect("decodes");
    assert_eq!(frame.payload, payload);
    assert!(frame.crc_ok);

    tx.sleep();
    assert_eq!(tx.state(), DeviceState::Sleep);
}

/// LoRaWAN over the real PHY: build an encrypted, MIC'd uplink, carry
/// the bytes over the CSS modem through noise, verify on the server.
#[test]
fn lorawan_frame_over_the_air() {
    let app_key = [0xA1u8; 16];
    let mut server = TestNetworkServer::new(app_key);
    let mut mac = ClassAMac::new(MacConfig {
        activation: Activation::Otaa {
            app_eui: *b"INTEGRAT",
            dev_eui: *b"E2E_TEST",
            app_key,
        },
    });
    // join over the air too
    let chirp = ChirpConfig::new(8, 125e3, 1);
    let fp = FrameParams::new(CodeParams::new(8, 4));
    let modem_tx = Modulator::new(chirp, fp);
    let modem_rx = Demodulator::new(chirp, fp);
    let fly = |bytes: &[u8], seed: u64| -> Vec<u8> {
        let sig =
            ImpairmentChain::new(4.5).apply(&modem_tx.modulate(bytes), -115.0, chirp.fs(), seed);
        let f = modem_rx.demodulate(&sig).expect("PHY decodes");
        assert!(f.crc_ok);
        f.payload
    };

    let jr = mac.build_join_request(0x0BEE).unwrap();
    let jr_rx = fly(&jr, 1);
    let ja = server
        .handle_join(&jr_rx)
        .expect("join verifies after the air");
    let ja_rx = fly(&ja, 2);
    let addr = mac.process_join_accept(&ja_rx).unwrap();

    let up = mac.build_uplink(1, b"e2e sensor data", false).unwrap();
    let up_rx = fly(&up, 3);
    let decoded = server
        .handle_uplink(&up_rx)
        .expect("MIC verifies after the air");
    assert_eq!(decoded.payload, b"e2e sensor data");
    assert_eq!(decoded.dev_addr, addr);
}

/// OTA protocol-switch scenario: a node running LoRa receives a BLE
/// image over the backbone, reassembles it under MCU constraints,
/// stores it beside the LoRa image and hot-switches in 22 ms.
#[test]
fn ota_update_then_protocol_switch() {
    use tinysdr::ota::blocks::{reassemble, BlockedUpdate};
    use tinysdr::ota::image::FirmwareImage;
    use tinysdr::ota::session::{run_session, LinkModel, SessionConfig};

    let mut dev = TinySdr::new();
    let lora_img = Bitstream::synthesize("lora_phy", 0.15, 1);
    dev.store_image(ImageSlot::Fpga(0), "lora_phy", lora_img.data())
        .unwrap();
    dev.configure_from_slot(ImageSlot::Fpga(0), 2700).unwrap();
    assert_eq!(dev.fpga.loaded_design(), Some("lora_phy"));

    // receive the BLE image over a realistic link
    let ble = FirmwareImage::ble_fpga(9);
    let update = BlockedUpdate::build(&ble);
    let report = run_session(
        &update,
        &LinkModel::from_downlink(-95.0),
        &SessionConfig {
            max_attempts: 30,
            seed: 4,
        },
    );
    assert!(report.completed);
    assert!(report.duration_s < 120.0);

    // node-side reassembly into flash slot 1
    let pipeline = reassemble(
        &update,
        &mut dev.mcu,
        &mut dev.flash,
        4 << 20,
        ImageSlot::Fpga(1).base_addr(),
    )
    .expect("image verifies");
    assert!(pipeline.decompress_time_s < 0.45);
    dev.stored_images(); // directory unaware of raw writes — register:
    dev.store_image(ImageSlot::Fpga(1), "ble_beacon", &ble.data)
        .unwrap();

    // hot-switch protocols from flash: one 22 ms reconfiguration
    let t = dev.configure_from_slot(ImageSlot::Fpga(1), 820).unwrap();
    assert!((t as f64 / 1e6 - 22.0).abs() < 0.5);
    assert_eq!(dev.fpga.loaded_design(), Some("ble_beacon"));
}

/// Cross-validation: the exact SX1276 symbol-error model (quadrature)
/// and the sample-level demodulator agree through the SNR transition.
#[test]
fn statistical_model_matches_sample_level_demod() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tinysdr::rf::sx1276;
    use tinysdr::rf::units::noise_floor_dbm;

    let chirp = ChirpConfig::new(8, 125e3, 1);
    let demod = Demodulator::new(chirp, FrameParams::new(CodeParams::new(8, 1)));
    let modem = Modulator::new(chirp, FrameParams::new(CodeParams::new(8, 1)));
    let mut rng = StdRng::seed_from_u64(5);
    let syms: Vec<u16> = (0..400).map(|_| rng.gen_range(0..256)).collect();

    for snr_db in [-14.0, -11.0, -8.0] {
        let rssi = noise_floor_dbm(125e3, 4.5) + snr_db;
        let sig = modem.modulate_symbols(&syms);
        let seed = (1000 + snr_db as i64) as u64;
        let sig = ImpairmentChain::new(4.5).apply(&sig, rssi, chirp.fs(), seed);
        let measured = demod.symbol_error_rate(&sig, &syms);
        let model = sx1276::symbol_error_prob(snr_db, 8);
        assert!(
            (measured - model).abs() < 0.12,
            "SNR {snr_db}: sample-level {measured:.3} vs model {model:.3}"
        );
    }
}

/// The umbrella crate exposes the documented public API surface.
#[test]
fn umbrella_api_surface() {
    // one item from each façade module compiles and works
    let cfg = tinysdr::lora::ChirpConfig::new(8, 125e3, 1);
    assert_eq!(cfg.n_chips(), 256);
    let _ = tinysdr::ble::channels::channel_freq_hz(37);
    let _ = tinysdr::ota::lzo::compress(b"x");
    let _ = tinysdr::platform::cost::total_cost_usd();
    let _ = tinysdr::rf::units::dbm_to_mw(0.0);
    let _ = tinysdr::dsp::fft::fft(&[tinysdr::dsp::complex::Complex::ONE; 8]);
}
