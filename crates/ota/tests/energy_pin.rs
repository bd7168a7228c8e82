//! Regression gate for the power-model refactor: moving `ota::session`'s
//! private power constants into the shared
//! `tinysdr_power::state::OtaEnergyModel` must not move a single
//! reported number.
//!
//! The pins below were captured from the pre-refactor engine (private
//! `mod power` constants) with `{:?}` formatting — shortest
//! round-trippable f64 literals — and are compared **bit-identically**
//! (`==`, no tolerance). If a change to the shared model shifts any of
//! these, the test names exactly which paper-anchored figure moved.

use tinysdr_ota::blocks::BlockedUpdate;
use tinysdr_ota::image::FirmwareImage;
use tinysdr_ota::session::{run_session, LinkModel, SessionConfig};

struct Pin {
    name: &'static str,
    node_mj: f64,
    rx_mj: f64,
    tx_mj: f64,
    duration_s: f64,
}

#[test]
fn session_energies_are_bit_identical_to_pre_refactor_values() {
    let link = LinkModel::from_downlink(-90.0);
    let cfg = SessionConfig::default();
    let pins = [
        (
            FirmwareImage::lora_fpga(1),
            Pin {
                name: "LoRa FPGA update",
                node_mj: 6752.873443200199,
                rx_mj: 4477.706956800141,
                tx_mj: 1652.4587520000505,
                duration_s: 151.9615560000034,
            },
        ),
        (
            FirmwareImage::ble_fpga(2),
            Pin {
                name: "BLE FPGA update",
                node_mj: 2713.5166751999855,
                rx_mj: 1799.4037247999913,
                tx_mj: 664.0542719999938,
                duration_s: 61.06611600000007,
            },
        ),
        (
            FirmwareImage::paper_mcu("mac", 3),
            Pin {
                name: "MCU update",
                node_mj: 1913.4887328000016,
                rx_mj: 1268.9436672000038,
                tx_mj: 468.29260799999736,
                duration_s: 43.06352400000005,
            },
        ),
    ];
    for (img, pin) in pins {
        let upd = BlockedUpdate::build(&img);
        let rep = run_session(&upd, &link, &cfg);
        assert!(
            rep.completed,
            "{} must complete on a -90 dBm link",
            pin.name
        );
        assert_eq!(
            rep.node_energy_mj, pin.node_mj,
            "{}: node energy drifted from the pre-refactor value",
            pin.name
        );
        assert_eq!(
            rep.rx_energy_mj, pin.rx_mj,
            "{}: RX share drifted",
            pin.name
        );
        assert_eq!(
            rep.tx_energy_mj, pin.tx_mj,
            "{}: TX share drifted",
            pin.name
        );
        assert_eq!(rep.duration_s, pin.duration_s, "{}: time drifted", pin.name);
    }
}

#[test]
fn lossy_link_energies_are_bit_identical_to_pre_refactor_values() {
    // the retransmission/timeout path multiplies the RX constant through
    // different code — pin it separately on a marginal link. Its PER
    // comes from the exact SX1276 quadrature (re-pinned once when that
    // replaced the Monte-Carlo estimate; EXPERIMENTS.md has both values)
    let weak = LinkModel::from_downlink(-114.0);
    let upd = BlockedUpdate::build(&FirmwareImage::ble_fpga(4));
    let rep = run_session(&upd, &weak, &SessionConfig::default());
    assert_eq!(rep.node_energy_mj, 7024.276857600115);
    assert_eq!(rep.rx_energy_mj, 5286.621542400099);
    assert_eq!(rep.tx_energy_mj, 1243.6623360000094);
    assert_eq!(rep.duration_s, 162.76790800000254);
}

#[test]
fn paper_anchor_ranges_still_hold() {
    // belt and braces on top of the bit pins: the pinned values are the
    // ones that satisfy the paper's §5.3 anchors
    let link = LinkModel::from_downlink(-90.0);
    let cfg = SessionConfig::default();
    let lora = run_session(
        &BlockedUpdate::build(&FirmwareImage::lora_fpga(1)),
        &link,
        &cfg,
    );
    let ble = run_session(
        &BlockedUpdate::build(&FirmwareImage::ble_fpga(2)),
        &link,
        &cfg,
    );
    assert!((lora.node_energy_mj - 6144.0).abs() < 1200.0);
    assert!((ble.node_energy_mj - 2342.0).abs() < 600.0);
}
