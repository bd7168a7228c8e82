//! Golden digests of the quick conformance grid.
//!
//! The receiver kernels (FIR, FFT, SFD search, peak scan) and the sweep
//! scheduler are free to change how they compute, never what: every
//! report must stay byte-identical. This pins the checksum of the
//! canonical `to_json().write()` document for two seeds, sequential and
//! on 3 shards, so a kernel change that flips a single argmax anywhere
//! in the grid fails here. The quick grid has no framed scenario, so a
//! second small grid pins the framed LoRa receiver (preamble, SFD and
//! refine searches) the same way.

use tinysdr_bench::waterfall::{
    run_waterfall, NamedImpairment, RssiGrid, Scenario, WaterfallConfig,
};
use tinysdr_ota::checkpoint::checksum;
use tinysdr_rf::impairments::ImpairmentChain;

/// `(seed, checksum of the quick-grid report)`, recorded from the
/// strided-twiddle FFT, push-loop FIR, uncached SFD search and `abs()`
/// peak scan the optimized kernels replaced, and re-pinned when stage 8
/// of the impairment chain moved to ziggurat noise (held to the parent
/// by `tests/equivalence.rs`).
const GOLDEN: [(u64, u64); 2] = [(1, 0x0506_4403_138e_5d21), (7331, 0x3fd3_a0e7_c69d_cc69)];

#[test]
fn quick_grid_reports_match_the_golden_digests() {
    for (seed, want) in GOLDEN {
        for shards in [1usize, 3] {
            let rep = run_waterfall(&WaterfallConfig::quick(seed).sharded(shards));
            let got = checksum(rep.to_json().write().as_bytes());
            assert_eq!(
                got, want,
                "seed {seed}, {shards} shards: report digest {got:#018x}, golden {want:#018x}"
            );
        }
    }
}

/// `(seed, checksum of the framed grid report)`, recorded from the
/// per-bin `hypot` preamble, SFD and refine searches, and re-pinned with
/// [`GOLDEN`] for stage 8's ziggurat noise.
const FRAMED_GOLDEN: [(u64, u64); 2] = [(1, 0x2b79_0a95_683f_87fa), (7331, 0xadf7_f322_7675_3db4)];

/// A small framed-LoRa grid: SF8/BW125 CR 4/8 packets through the
/// preamble, SFD and refine searches, with the RSSI window straddling
/// the −126 dBm sensitivity anchor so both decoded and lost frames
/// (and noise-locked searches) contribute to the digest.
fn framed_grid(seed: u64) -> WaterfallConfig {
    WaterfallConfig {
        seed,
        shards: 1,
        scenarios: vec![Scenario::lora_per(8, 125e3, 3, 8).with_rssi(RssiGrid::new(-131, -123, 2))],
        impairments: vec![
            NamedImpairment::new("clean", ImpairmentChain::new(0.0)),
            NamedImpairment::new("cfo30", ImpairmentChain::new(0.0).with_cfo_hz(30.0)),
            NamedImpairment::new(
                "timing0.25",
                ImpairmentChain::new(0.0).with_timing_offset(0.25),
            ),
            NamedImpairment::new("pn100", ImpairmentChain::new(0.0).with_phase_noise(100.0)),
        ],
    }
}

#[test]
fn framed_lora_grid_reports_match_the_golden_digests() {
    for (seed, want) in FRAMED_GOLDEN {
        for shards in [1usize, 3] {
            let rep = run_waterfall(&framed_grid(seed).sharded(shards));
            let got = checksum(rep.to_json().write().as_bytes());
            assert_eq!(
                got, want,
                "seed {seed}, {shards} shards: framed digest {got:#018x}, golden {want:#018x}"
            );
        }
    }
}
