//! Broadcast OTA — the paper's §7 extension, implemented.
//!
//! "we could explore modified MAC protocols that simultaneously
//! broadcast the updates across the network to reduce programming time."
//!
//! Protocol: the AP broadcasts every data packet once; nodes record the
//! sequence numbers they missed; in each repair round the AP polls the
//! nodes for NACK bitmaps (one short uplink per incomplete node) and
//! re-broadcasts the union of missing packets. Compared with the paper's
//! sequential unicast (§3.4), total campaign airtime drops from
//! `O(nodes × packets)` to `O(packets + losses)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tinysdr_power::state::OtaEnergyModel;

use crate::blocks::BlockedUpdate;
use crate::protocol::{ACK_WIRE_LEN, DATA_WIRE_LEN};
use crate::seed::{node_stream_seed, STREAM_SESSION};
use crate::session::{LinkModel, ACK_TIMEOUT_S, TURNAROUND_S};

/// Result of one broadcast campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastReport {
    /// Total campaign wall-clock time (network downtime for everyone).
    pub total_time_s: f64,
    /// Repair rounds used.
    pub rounds: u32,
    /// Packets re-broadcast across all repair rounds.
    pub repairs: u64,
    /// Per-node received-everything flags.
    pub node_complete: Vec<bool>,
    /// Per-node energy, mJ.
    pub node_energy_mj: Vec<f64>,
}

impl BroadcastReport {
    /// `true` if every node holds the full image.
    pub fn all_complete(&self) -> bool {
        self.node_complete.iter().all(|&c| c)
    }
}

/// Campaign knobs.
#[derive(Debug, Clone, Copy)]
pub struct BroadcastConfig {
    /// Give up after this many repair rounds.
    pub max_rounds: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BroadcastConfig {
    fn default() -> Self {
        BroadcastConfig {
            max_rounds: 12,
            seed: 1,
        }
    }
}

/// Run a broadcast campaign over per-node links. Each node's PER is the
/// exact [`LinkModel::downlink_per`] of its link; the shared-medium RNG
/// hands out per-packet loss draws in slice order (one ether, one
/// sequence of fades), so the engine is deterministic per
/// `(seed, link order)`.
///
/// An empty `links` slice yields an empty, complete report.
pub fn run_broadcast(
    update: &BlockedUpdate,
    links: &[LinkModel],
    cfg: &BroadcastConfig,
) -> BroadcastReport {
    // node-side powers: the same shared calibration the unicast session
    // prices with (broadcast nodes do the identical station-keeping)
    let pw = OtaEnergyModel::paper();
    if links.is_empty() {
        return BroadcastReport {
            total_time_s: 0.0,
            rounds: 0,
            repairs: 0,
            node_complete: Vec::new(),
            node_energy_mj: Vec::new(),
        };
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let n_packets = update.packet_count();
    let data_wire = DATA_WIRE_LEN;
    let nack_wire = ACK_WIRE_LEN + 8; // bitmap summary
    let params = &links[0].params;
    let t_data = params.airtime_s(data_wire);
    let t_nack = params.airtime_s(nack_wire);

    // per-node PER at the median RSSI
    let pers: Vec<f64> = links.iter().map(|l| l.downlink_per(data_wire)).collect();

    let mut missing: Vec<Vec<bool>> = links.iter().map(|_| vec![true; n_packets]).collect();
    let mut time = 0.0f64;
    let mut node_energy = vec![0.0f64; links.len()];
    let mut repairs = 0u64;
    let mut rounds = 0u32;

    // initial full broadcast
    let mut to_send: Vec<usize> = (0..n_packets).collect();
    loop {
        for &seq in &to_send {
            time += t_data + TURNAROUND_S;
            for (n, per) in pers.iter().enumerate() {
                node_energy[n] += t_data * pw.rx_mw;
                if missing[n][seq]
                    && rng.gen::<f64>() >= *per
                    && rng.gen::<f64>() >= links[n].base_loss_prob
                {
                    missing[n][seq] = false;
                }
            }
        }
        repairs += to_send.len() as u64;

        // who still needs what?
        let mut union: Vec<usize> = Vec::new();
        let mut any_incomplete = false;
        for (n, miss) in missing.iter().enumerate() {
            let missing_now: Vec<usize> = miss
                .iter()
                .enumerate()
                .filter(|(_, &m)| m)
                .map(|(i, _)| i)
                .collect();
            if !missing_now.is_empty() {
                any_incomplete = true;
                // NACK poll: one short uplink per incomplete node
                time += t_nack + TURNAROUND_S + ACK_TIMEOUT_S / 4.0;
                node_energy[n] += t_nack * pw.ack_tx_mw;
                for m in missing_now {
                    if !union.contains(&m) {
                        union.push(m);
                    }
                }
            }
        }
        if !any_incomplete || rounds >= cfg.max_rounds {
            break;
        }
        rounds += 1;
        union.sort_unstable();
        to_send = union;
    }
    repairs = repairs.saturating_sub(n_packets as u64);

    for e in node_energy.iter_mut() {
        *e += time * pw.mcu_mw;
    }
    BroadcastReport {
        total_time_s: time,
        rounds,
        repairs,
        node_complete: missing.iter().map(|m| m.iter().all(|&x| !x)).collect(),
        node_energy_mj: node_energy,
    }
}

/// The ablation the §7 text asks for: total campaign time, broadcast vs
/// the paper's sequential unicast, over the same links. Returns
/// `(sequential_s, broadcast_s)`.
pub fn sequential_vs_broadcast(
    update: &BlockedUpdate,
    links: &[LinkModel],
    seed: u64,
) -> (f64, f64) {
    let seq_total: f64 = links
        .iter()
        .enumerate()
        .map(|(i, l)| {
            crate::session::run_session(
                update,
                l,
                &crate::session::SessionConfig {
                    max_attempts: 40,
                    seed: node_stream_seed(seed, i as u64, STREAM_SESSION),
                },
            )
            .duration_s
        })
        .sum();
    let bc = run_broadcast(
        update,
        links,
        &BroadcastConfig {
            max_rounds: 12,
            seed,
        },
    );
    (seq_total, bc.total_time_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::FirmwareImage;

    fn links(n: usize, rssi: f64) -> Vec<LinkModel> {
        (0..n)
            .map(|i| LinkModel::from_downlink(rssi - i as f64 * 0.5))
            .collect()
    }

    #[test]
    fn broadcast_completes_on_good_links() {
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("m", 30_000, 1));
        let rep = run_broadcast(&upd, &links(10, -90.0), &BroadcastConfig::default());
        assert!(rep.all_complete());
        assert_eq!(rep.rounds, 0, "clean links need no repair");
    }

    #[test]
    fn broadcast_beats_sequential_by_an_order_of_magnitude() {
        // the §7 motivation: 20 nodes, one shared broadcast instead of
        // 20 unicast sessions
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("m", 40_000, 2));
        let ls = links(20, -92.0);
        let (seq, bc) = sequential_vs_broadcast(&upd, &ls, 7);
        assert!(
            bc < seq / 10.0,
            "broadcast {bc:.0}s must crush sequential {seq:.0}s on 20 nodes"
        );
    }

    #[test]
    fn lossy_nodes_drive_repair_rounds() {
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("m", 25_000, 3));
        // one marginal node among good ones (−121 ≈ 1 dB below the
        // BW500 demodulation threshold → high PER on 68-byte packets)
        let mut ls = links(5, -90.0);
        ls.push(LinkModel::from_downlink(-121.0));
        let rep = run_broadcast(
            &upd,
            &ls,
            &BroadcastConfig {
                max_rounds: 30,
                seed: 5,
            },
        );
        assert!(rep.rounds > 0, "marginal node must trigger repairs");
        assert!(rep.repairs > 0);
        // the good nodes were done after round 0 regardless
        for c in &rep.node_complete[..5] {
            assert!(c);
        }
    }

    #[test]
    fn unreachable_node_does_not_hang_campaign() {
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("m", 20_000, 4));
        let mut ls = links(3, -90.0);
        ls.push(LinkModel::from_downlink(-135.0)); // dead
        let rep = run_broadcast(
            &upd,
            &ls,
            &BroadcastConfig {
                max_rounds: 5,
                seed: 6,
            },
        );
        assert!(!rep.node_complete[3]);
        assert!(rep.node_complete[..3].iter().all(|&c| c));
        assert_eq!(rep.rounds, 5, "bounded by max_rounds");
    }

    #[test]
    fn per_node_energy_is_comparable_to_unicast_rx() {
        // broadcast nodes listen to the whole stream once (plus repairs)
        // — energy per node should be within ~2x of a unicast session
        let upd = BlockedUpdate::build(&FirmwareImage::ble_fpga(5));
        let ls = links(10, -90.0);
        let bc = run_broadcast(&upd, &ls, &BroadcastConfig::default());
        let uni =
            crate::session::run_session(&upd, &ls[0], &crate::session::SessionConfig::default());
        let e = bc.node_energy_mj[0];
        assert!(
            e < uni.node_energy_mj * 2.0 && e > uni.node_energy_mj * 0.3,
            "broadcast node energy {e:.0} vs unicast {:.0}",
            uni.node_energy_mj
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let upd = BlockedUpdate::build(&FirmwareImage::mcu("m", 15_000, 7));
        let ls = links(4, -100.0);
        let a = run_broadcast(
            &upd,
            &ls,
            &BroadcastConfig {
                max_rounds: 8,
                seed: 9,
            },
        );
        let b = run_broadcast(
            &upd,
            &ls,
            &BroadcastConfig {
                max_rounds: 8,
                seed: 9,
            },
        );
        assert_eq!(a, b);
    }
}
