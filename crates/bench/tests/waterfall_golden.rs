//! Golden digests of the quick conformance grid.
//!
//! The receiver kernels (FIR, FFT, SFD search, peak scan) and the sweep
//! scheduler are free to change how they compute, never what: every
//! report must stay byte-identical. This pins the checksum of the
//! canonical `to_json().write()` document for two seeds, sequential and
//! on 3 shards, so a kernel change that flips a single argmax anywhere
//! in the grid fails here.

use tinysdr_bench::waterfall::{run_waterfall, WaterfallConfig};
use tinysdr_ota::checkpoint::checksum;

/// `(seed, checksum of the quick-grid report)`, recorded from the
/// strided-twiddle FFT, push-loop FIR, uncached SFD search and `abs()`
/// peak scan the optimized kernels replaced.
const GOLDEN: [(u64, u64); 2] = [(1, 0xac18_ba79_beed_c293), (7331, 0x0ae8_7a68_5ad6_d6b7)];

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
