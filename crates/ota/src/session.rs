//! OTA session simulation: one AP programming one node over a lossy
//! LoRa link, with full time and energy accounting (paper §5.3).
//!
//! The numbers this module reproduces:
//!
//! * average programming time — LoRa FPGA ≈ 150 s, BLE FPGA ≈ 59 s,
//!   MCU ≈ 39 s (Fig. 14's CDF comes from running this per testbed
//!   node),
//! * node-side energy — ≈ 6144 mJ per LoRa FPGA update, ≈ 2342 mJ per
//!   BLE update, hence 2100 / 5600 updates per 1000 mAh battery and
//!   71 / 27 µW at one update per day.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tinysdr_lora::modem::LoraPerPhy;
use tinysdr_power::energy::EnergyLedger;
use tinysdr_power::state::OtaEnergyModel;
use tinysdr_rf::phy::PhyModem;
use tinysdr_rf::sx1276::{self, LoRaParams};

use crate::blocks::BlockedUpdate;
use crate::protocol::{ACK_WIRE_LEN, DATA_WIRE_LEN};

/// Node ACK transmit power, dBm. The AP uses a patch antenna ("connected
/// to a patch antenna transmitting at 14 dBm"), whose gain benefits the
/// uplink equally, so nodes close the reverse link at reduced power.
pub const ACK_TX_POWER_DBM: f64 = 6.0;

/// MCU/radio turnaround between packets (processing + TRX switching),
/// seconds. Table 4's 45 µs TX↔RX switches are negligible next to the
/// MCU's packet handling.
pub const TURNAROUND_S: f64 = 0.0015;

/// ACK wait timeout before the AP retransmits, seconds.
pub const ACK_TIMEOUT_S: f64 = 0.08;

/// The radio link between AP and one node.
#[derive(Debug, Clone)]
pub struct LinkModel {
    /// LoRa modem parameters (the paper's OTA config: SF8, BW 500 kHz,
    /// CR 4/6, 8-symbol preamble).
    pub params: LoRaParams,
    /// Downlink RSSI at the node, dBm.
    pub downlink_rssi_dbm: f64,
    /// Uplink RSSI at the AP (reduced ACK power + same path), dBm.
    pub uplink_rssi_dbm: f64,
    /// Per-packet log-normal fading standard deviation, dB. Real campus
    /// links flutter packet-to-packet (people, vehicles, multipath);
    /// this is what spreads Fig. 14's CDF for marginal nodes instead of
    /// a binary works/doesn't cliff.
    pub fading_sigma_db: f64,
    /// SNR-independent packet loss from co-channel 900 MHz ISM
    /// interference at the node's location (campus deployments commonly
    /// see several percent). Differentiates programming times even
    /// between strong-signal nodes, as in the paper's Fig. 14.
    pub base_loss_prob: f64,
}

impl LinkModel {
    /// Build a link from the downlink RSSI, assuming a reciprocal path:
    /// uplink RSSI = downlink − (14 − ACK power).
    pub fn from_downlink(downlink_rssi_dbm: f64) -> Self {
        LinkModel {
            params: LoRaParams::ota_link(),
            downlink_rssi_dbm,
            uplink_rssi_dbm: downlink_rssi_dbm - (14.0 - ACK_TX_POWER_DBM),
            fading_sigma_db: 2.0,
            base_loss_prob: 0.0,
        }
    }

    /// The link's modem as a [`PhyModem`] trait object — the framed
    /// LoRa PHY carrying exactly this link's `params` (every flag,
    /// including `explicit_header`/`crc_on`/`low_dr_opt`). Campaign
    /// payload air time is charged through this route
    /// ([`PhyModem::airtime_len_s`]), so every session prices packets
    /// the way the registry's modem does, not via a parallel formula.
    pub fn phy(&self) -> Box<dyn PhyModem> {
        Box::new(LoraPerPhy::from_lora_params(self.params))
    }

    /// Downlink PER for a `len`-byte packet at the median RSSI.
    pub fn downlink_per(&self, len: usize) -> f64 {
        sx1276::packet_error_prob(self.downlink_rssi_dbm, &self.params, len)
    }

    /// PER lookup table over integer-dB fading offsets −6..=+6 around
    /// the median, for fast per-packet draws.
    fn per_table(&self, rssi_dbm: f64, len: usize) -> [f64; 13] {
        std::array::from_fn(|i| {
            sx1276::packet_error_prob(rssi_dbm + (i as f64 - 6.0), &self.params, len)
        })
    }
}

/// Draw a fading offset index into a −6..=+6 dB table.
fn fading_index(rng: &mut StdRng, sigma_db: f64) -> usize {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let g = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    ((g * sigma_db).round().clamp(-6.0, 6.0) + 6.0) as usize
}

/// Outcome of one programming session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Wall-clock programming time, seconds (network downtime).
    pub duration_s: f64,
    /// Distinct data packets actually put on the air. Equals the
    /// update's packet count when the session completes; smaller when
    /// the session aborts partway.
    pub data_packets: u32,
    /// Retransmissions needed.
    pub retransmissions: u32,
    /// Total bytes sent over the air (both directions).
    pub bytes_over_air: u64,
    /// Node energy, mJ — backbone radio + MCU + flash, as the paper
    /// accounts it.
    pub node_energy_mj: f64,
    /// Radio-RX share of the energy, mJ.
    pub rx_energy_mj: f64,
    /// ACK-TX share, mJ.
    pub tx_energy_mj: f64,
    /// Per-component ledger of the same energy: tags `radio_rx`,
    /// `radio_tx`, `mcu`, `flash` — what campaign reports merge across
    /// nodes. Its total equals [`Self::node_energy_mj`] (up to float
    /// association).
    pub ledger: EnergyLedger,
    /// Whether the session completed (false = retry limit exceeded).
    pub completed: bool,
}

/// Session knobs.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Give up after this many attempts per packet.
    pub max_attempts: u32,
    /// RNG seed for loss realizations.
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_attempts: 20,
            seed: 1,
        }
    }
}

/// Simulate programming one node with a blocked update over a link.
///
/// Node-side energy is priced through the workspace-wide
/// [`OtaEnergyModel::paper`] calibration (backbone SX1276 RX/ACK-TX,
/// MCU session average, flash page-program bursts) — the same model
/// the broadcast engine and `repro energy` use.
pub fn run_session(update: &BlockedUpdate, link: &LinkModel, cfg: &SessionConfig) -> SessionReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let pw = OtaEnergyModel::paper();

    let n_packets = update.packet_count();
    let (data_wire, ack_wire) = (DATA_WIRE_LEN, ACK_WIRE_LEN);
    // packet air time is charged through the PhyModem trait (the same
    // seam the conformance sweeps and the device use); for LoRa the
    // modem's closed form is the Semtech formula, so this is exact
    let phy = link.phy();
    let t_data = phy.airtime_len_s(data_wire);
    let t_ack = phy.airtime_len_s(ack_wire);

    let per_down = link.per_table(link.downlink_rssi_dbm, data_wire);
    let per_up = link.per_table(link.uplink_rssi_dbm, ack_wire);

    let mut t = 0.0f64;
    let mut rx_mj = 0.0f64;
    let mut tx_mj = 0.0f64;
    // wall-clock the radio spends in each role, for the ledger records
    let mut rx_s = 0.0f64;
    let mut tx_s = 0.0f64;
    let mut retx = 0u32;
    let mut completed = true;
    // transmissions actually on the air, for byte accounting; an aborted
    // session must not be credited with packets that were never sent
    let mut sent_packets = 0u32; // distinct data packets aired
    let mut data_tx = 1u64; // data-frame transmissions (handshake request)
    let mut ack_tx = 1u64; // uplink transmissions (handshake Ready)
    let mut flash_packets = 0u64; // packets the node received and stored

    // handshake: ProgramRequest + Ready (one exchange, retried like data)
    t += t_data + TURNAROUND_S + t_ack + TURNAROUND_S;
    rx_mj += t_data * pw.rx_mw;
    tx_mj += t_ack * pw.ack_tx_mw;
    rx_s += t_data;
    tx_s += t_ack;

    'outer: for _ in 0..n_packets {
        let mut attempts = 0;
        let mut received = false;
        loop {
            attempts += 1;
            if attempts > cfg.max_attempts {
                completed = false;
                if received {
                    flash_packets += 1;
                }
                break 'outer;
            }
            if attempts == 1 {
                sent_packets += 1;
            }
            // downlink data packet: node listens for its full airtime
            t += t_data + TURNAROUND_S;
            rx_mj += t_data * pw.rx_mw;
            rx_s += t_data;
            data_tx += 1;
            let data_ok = rng.gen::<f64>()
                >= per_down[fading_index(&mut rng, link.fading_sigma_db)]
                && rng.gen::<f64>() >= link.base_loss_prob;
            if !data_ok {
                // node misses it; AP times out waiting for the ACK
                t += ACK_TIMEOUT_S;
                rx_mj += ACK_TIMEOUT_S * pw.rx_mw;
                rx_s += ACK_TIMEOUT_S;
                retx += 1;
                continue;
            }
            received = true;
            // node ACKs
            t += t_ack + TURNAROUND_S;
            tx_mj += t_ack * pw.ack_tx_mw;
            tx_s += t_ack;
            ack_tx += 1;
            let ack_ok = rng.gen::<f64>() >= per_up[fading_index(&mut rng, link.fading_sigma_db)]
                && rng.gen::<f64>() >= link.base_loss_prob / 3.0; // ACKs are short
            if ack_ok {
                break;
            }
            // AP missed the ACK → timeout → retransmit (node will see a
            // duplicate sequence number and re-ACK)
            t += ACK_TIMEOUT_S;
            rx_mj += ACK_TIMEOUT_S * pw.rx_mw;
            rx_s += ACK_TIMEOUT_S;
            retx += 1;
        }
        flash_packets += 1;
    }

    if completed {
        // end-of-update exchange (an aborted session just times out)
        t += t_data + TURNAROUND_S + t_ack;
        rx_mj += t_data * pw.rx_mw;
        tx_mj += t_ack * pw.ack_tx_mw;
        rx_s += t_data;
        tx_s += t_ack;
        data_tx += 1;
        ack_tx += 1;
    }

    let mcu_mj = t * pw.mcu_mw;
    let flash_mj = flash_packets as f64 * pw.flash_mj_per_packet;
    let node_energy = rx_mj + tx_mj + mcu_mj + flash_mj;

    // the same energy as a per-component ledger (burst records carry
    // the exact mJ; durations attribute wall clock per component)
    let mut ledger = EnergyLedger::new();
    ledger.record_energy("radio_rx", rx_mj, (rx_s * 1e9) as u64);
    ledger.record_energy("radio_tx", tx_mj, (tx_s * 1e9) as u64);
    ledger.record_energy("mcu", mcu_mj, (t * 1e9) as u64);
    ledger.record_energy(
        "flash",
        flash_mj,
        flash_packets * tinysdr_hw::flash::timing::PAGE_PROGRAM_NS,
    );

    SessionReport {
        duration_s: t,
        data_packets: sent_packets,
        retransmissions: retx,
        bytes_over_air: data_tx * data_wire as u64 + ack_tx * ack_wire as u64,
        node_energy_mj: node_energy,
        rx_energy_mj: rx_mj,
        tx_energy_mj: tx_mj,
        ledger,
        completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::FirmwareImage;

    fn strong_link() -> LinkModel {
        LinkModel::from_downlink(-90.0)
    }

    #[test]
    fn lora_fpga_update_time_and_energy_match_paper() {
        // §5.3: ≈150 s average (that includes far nodes; a strong link
        // is the fast edge of the CDF, ≈135-145 s), ≈6144 mJ
        let img = FirmwareImage::lora_fpga(1);
        let upd = BlockedUpdate::build(&img);
        let rep = run_session(&upd, &strong_link(), &SessionConfig::default());
        assert!(rep.completed);
        assert!(
            rep.duration_s > 110.0 && rep.duration_s < 165.0,
            "LoRa FPGA session {} s",
            rep.duration_s
        );
        assert!(
            (rep.node_energy_mj - 6144.0).abs() < 1200.0,
            "LoRa update energy {} mJ",
            rep.node_energy_mj
        );
    }

    #[test]
    fn ble_fpga_update_time_and_energy_match_paper() {
        // §5.3: ≈59 s, ≈2342 mJ
        let img = FirmwareImage::ble_fpga(2);
        let upd = BlockedUpdate::build(&img);
        let rep = run_session(&upd, &strong_link(), &SessionConfig::default());
        assert!(
            rep.duration_s > 40.0 && rep.duration_s < 70.0,
            "BLE FPGA session {} s",
            rep.duration_s
        );
        assert!(
            (rep.node_energy_mj - 2342.0).abs() < 600.0,
            "BLE update energy {} mJ",
            rep.node_energy_mj
        );
    }

    #[test]
    fn mcu_update_is_fastest() {
        // §5.3: MCU images ≈39 s
        let img = FirmwareImage::paper_mcu("mac", 3);
        let upd = BlockedUpdate::build(&img);
        let rep = run_session(&upd, &strong_link(), &SessionConfig::default());
        assert!(
            rep.duration_s > 20.0 && rep.duration_s < 50.0,
            "MCU session {} s",
            rep.duration_s
        );
    }

    #[test]
    fn battery_update_counts_match_paper() {
        use tinysdr_power::battery::Battery;
        let b = Battery::lipo_1000mah();
        let lora = BlockedUpdate::build(&FirmwareImage::lora_fpga(1));
        let ble = BlockedUpdate::build(&FirmwareImage::ble_fpga(2));
        let e_lora = run_session(&lora, &strong_link(), &SessionConfig::default()).node_energy_mj;
        let e_ble = run_session(&ble, &strong_link(), &SessionConfig::default()).node_energy_mj;
        let n_lora = b.operations(e_lora).expect("positive update energy");
        let n_ble = b.operations(e_ble).expect("positive update energy");
        // §5.3: "we could OTA program each tinySDR node with LoRa 2100
        // times and BLE 5600 times"
        assert!(
            (n_lora as f64 - 2100.0).abs() < 500.0,
            "LoRa updates {n_lora}"
        );
        assert!(
            (n_ble as f64 - 5600.0).abs() < 1400.0,
            "BLE updates {n_ble}"
        );
        // daily updates → µW-scale average power (71 / 27 µW)
        let avg_lora_uw = e_lora / 86_400.0 * 1000.0;
        let avg_ble_uw = e_ble / 86_400.0 * 1000.0;
        assert!((avg_lora_uw - 71.0).abs() < 18.0, "avg {avg_lora_uw} µW");
        assert!((avg_ble_uw - 27.0).abs() < 8.0, "avg {avg_ble_uw} µW");
    }

    #[test]
    fn weak_links_take_longer() {
        let img = FirmwareImage::ble_fpga(4);
        let upd = BlockedUpdate::build(&img);
        let fast = run_session(
            &upd,
            &LinkModel::from_downlink(-90.0),
            &SessionConfig::default(),
        );
        // −114 dBm is ~7 dB above SF8/BW500 sensitivity (−121): lossy
        let slow = run_session(
            &upd,
            &LinkModel::from_downlink(-114.0),
            &SessionConfig::default(),
        );
        assert!(slow.retransmissions > fast.retransmissions);
        assert!(slow.duration_s > fast.duration_s);
    }

    #[test]
    fn dead_link_gives_up() {
        let img = FirmwareImage::mcu("x", 30_000, 5);
        let upd = BlockedUpdate::build(&img);
        let rep = run_session(
            &upd,
            &LinkModel::from_downlink(-135.0),
            &SessionConfig {
                max_attempts: 5,
                seed: 2,
            },
        );
        assert!(!rep.completed);
    }

    #[test]
    fn aborted_session_counts_only_transmitted_packets() {
        // regression: an aborted session used to report every packet of
        // the update as sent, even ones that never went on the air
        let img = FirmwareImage::mcu("x", 30_000, 5);
        let upd = BlockedUpdate::build(&img);
        let rep = run_session(
            &upd,
            &LinkModel::from_downlink(-140.0), // dead: PER = 1 at every fading offset
            &SessionConfig {
                max_attempts: 1,
                seed: 2,
            },
        );
        assert!(!rep.completed);
        assert_eq!(rep.data_packets, 1, "only the first packet was ever aired");
        assert_eq!(rep.retransmissions, 1);
        let (data_wire, ack_wire) = (DATA_WIRE_LEN as u64, ACK_WIRE_LEN as u64);
        // handshake (request + Ready) plus the single failed data
        // attempt; no end-of-update exchange on an aborted session
        assert_eq!(rep.bytes_over_air, 2 * data_wire + ack_wire);
        // a completed session still reports the full update
        let full = run_session(&upd, &strong_link(), &SessionConfig::default());
        assert!(full.completed);
        assert!(full.data_packets > 100, "MCU update spans many packets");
        assert!(rep.bytes_over_air < full.bytes_over_air / 50);
    }

    #[test]
    fn link_phy_airtime_is_the_semtech_closed_form() {
        // routing air time through the PhyModem trait must not move a
        // single session number: the LoRa modem's airtime override IS
        // the AN1200.13 formula the session engine always used
        let link = strong_link();
        let phy = link.phy();
        for len in [1usize, ACK_WIRE_LEN, 69, 120] {
            let via_phy = phy.airtime_len_s(len);
            let via_params = link.params.airtime_s(len);
            assert!(
                (via_phy - via_params).abs() < 1e-12,
                "{len} bytes: {via_phy} vs {via_params}"
            );
        }
        assert_eq!(phy.label(), "LoRa PER SF8 BW500");
    }

    #[test]
    fn link_phy_airtime_honors_customized_link_flags() {
        // LinkModel.params is public: a caller flipping crc_on or
        // explicit_header must see the trait-routed air time follow
        // (regression: phy() used to rebuild params from defaults)
        let mut link = strong_link();
        link.params.crc_on = false;
        link.params.explicit_header = false;
        link.params.preamble_symbols = 12;
        let phy = link.phy();
        for len in [10usize, 69] {
            assert!(
                (phy.airtime_len_s(len) - link.params.airtime_s(len)).abs() < 1e-12,
                "customized flags must flow through the modem"
            );
        }
        // and the customization genuinely changes the number
        assert!(phy.airtime_len_s(69) < strong_link().phy().airtime_len_s(69));
    }

    #[test]
    fn ledger_accounts_for_the_whole_session() {
        // the per-component ledger must agree with the scalar report:
        // same total (up to float association), all four tags present,
        // shares matching the rx/tx fields exactly
        let img = FirmwareImage::ble_fpga(2);
        let upd = BlockedUpdate::build(&img);
        let rep = run_session(&upd, &strong_link(), &SessionConfig::default());
        let tags = rep.ledger.by_tag();
        assert_eq!(tags["radio_rx"], rep.rx_energy_mj);
        assert_eq!(tags["radio_tx"], rep.tx_energy_mj);
        assert!(tags.contains_key("mcu") && tags.contains_key("flash"));
        assert!(
            (rep.ledger.total_mj() - rep.node_energy_mj).abs() < 1e-9,
            "ledger {} vs report {}",
            rep.ledger.total_mj(),
            rep.node_energy_mj
        );
        // the radio cannot listen longer than the session lasted
        let rx_s = rep.ledger.records()[0].duration_ns as f64 / 1e9;
        assert!(rx_s > 0.0 && rx_s < rep.duration_s);
    }

    #[test]
    fn deterministic_per_seed() {
        let img = FirmwareImage::mcu("d", 20_000, 6);
        let upd = BlockedUpdate::build(&img);
        let a = run_session(
            &upd,
            &strong_link(),
            &SessionConfig {
                max_attempts: 10,
                seed: 9,
            },
        );
        let b = run_session(
            &upd,
            &strong_link(),
            &SessionConfig {
                max_attempts: 10,
                seed: 9,
            },
        );
        assert_eq!(a, b);
    }
}
