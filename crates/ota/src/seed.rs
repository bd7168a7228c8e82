//! Deterministic, order-independent seed derivation for campaign RNGs.
//!
//! A testbed campaign runs one randomized session per node. For the
//! results to be reproducible *and* parallelizable, every node must draw
//! its randomness from a seed that depends only on `(campaign seed,
//! node id, stream)` — never on the order nodes happen to be programmed
//! in, and never colliding with the campaign-level RNG or with another
//! node. The previous scheme (`seed ^ (node_id << 8)`) failed both ways:
//! node 0's seed *was* the campaign seed, and nearby ids differed in a
//! handful of bits, which a small RNG state does not hide.
//!
//! This module provides a [`splitmix64`]-style finalizer (Steele,
//! Lea & Flood, "Fast splittable pseudorandom number generators",
//! OOPSLA 2014 — the same avalanche used to seed xoshiro generators)
//! and two derivation helpers built from it. Each input word passes
//! through the full mixer before being combined, so structured inputs
//! (small consecutive ids, round stream tags) land in uncorrelated
//! regions of the seed space.

/// One splitmix64 output step: add the Weyl constant, then finalize with
/// the two multiply-xorshift rounds. Full avalanche: every input bit
/// flips every output bit with probability ~1/2.
#[inline]
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream tag for a node's unicast programming-session RNG.
pub const STREAM_SESSION: u64 = 0x5E55_0001;
/// Stream tag for a node's location-dependent interference draw.
pub const STREAM_INTERFERENCE: u64 = 0x1F7E_0002;
/// Stream tag for the shared broadcast-medium RNG.
pub const STREAM_BROADCAST: u64 = 0xB0AD_0003;

/// Campaign-level sub-stream seed: one derived RNG stream per `stream`
/// tag (e.g. the shared broadcast medium). Independent of node count and
/// iteration order.
#[must_use]
pub fn stream_seed(campaign_seed: u64, stream: u64) -> u64 {
    splitmix64(campaign_seed ^ splitmix64(stream))
}

/// Per-node sub-stream seed. Order-independent: depends only on the
/// three inputs, so a node programmed by shard 7 of 8 draws exactly the
/// sequence it would draw in a single-threaded campaign.
#[must_use]
pub fn node_stream_seed(campaign_seed: u64, node_id: u64, stream: u64) -> u64 {
    // The node id passes through its own mixer round (offset by an
    // arbitrary odd constant) before entering the stream state, so the
    // node axis and the stream axis cannot cancel each other.
    splitmix64(stream_seed(campaign_seed, stream) ^ splitmix64(node_id ^ 0xA076_1D64_78BD_642F))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const STREAMS: [u64; 3] = [STREAM_SESSION, STREAM_INTERFERENCE, STREAM_BROADCAST];

    #[test]
    fn splitmix_avalanche_changes_roughly_half_the_bits() {
        for x in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            let a = splitmix64(x);
            let b = splitmix64(x ^ 1);
            let flipped = (a ^ b).count_ones();
            assert!(
                (16..=48).contains(&flipped),
                "weak avalanche: {flipped} bits for x={x}"
            );
        }
    }

    #[test]
    fn node_seeds_are_unique_across_nodes_and_streams() {
        // the regression the campaign engine depends on: for realistic
        // campaign sizes, no node/stream pair shares a seed with any
        // other, nor with the campaign seed or a campaign-level stream
        for campaign_seed in [0u64, 1, 42, 0xBEEF] {
            let mut seen = HashSet::new();
            assert!(seen.insert(campaign_seed));
            for stream in STREAMS {
                assert!(seen.insert(stream_seed(campaign_seed, stream)));
            }
            for node in 0..4096u64 {
                for stream in STREAMS {
                    let s = node_stream_seed(campaign_seed, node, stream);
                    assert!(
                        seen.insert(s),
                        "collision at node {node} stream {stream:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn node_zero_does_not_degenerate_to_the_campaign_seed() {
        // the old expression `seed ^ (id << 8)` returned the bare
        // campaign seed for node 0
        for seed in [0u64, 7, 99, u64::MAX] {
            assert_ne!(node_stream_seed(seed, 0, STREAM_SESSION), seed);
            assert_ne!(node_stream_seed(seed, 0, STREAM_INTERFERENCE), seed);
        }
    }

    #[test]
    fn derivation_is_pure() {
        assert_eq!(
            node_stream_seed(9, 17, STREAM_SESSION),
            node_stream_seed(9, 17, STREAM_SESSION)
        );
        assert_ne!(
            node_stream_seed(9, 17, STREAM_SESSION),
            node_stream_seed(10, 17, STREAM_SESSION)
        );
        assert_ne!(
            node_stream_seed(9, 17, STREAM_SESSION),
            node_stream_seed(9, 18, STREAM_SESSION)
        );
    }
}
