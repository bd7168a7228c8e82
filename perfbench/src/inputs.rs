//! Seeded input generation. Every input of every workload is a pure
//! function of the run's `--seed`, so the same seed always replays the
//! same inputs.

use tinysdr_ota::seed::splitmix64;
use tinysdr_testbedd::spec::JobSpec;

/// An independent 64-bit stream `stream` of the run seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream.wrapping_add(0xBE7C_4000_0000)))
}

/// The `i`-th of a run's consecutive link-experiment seeds.
pub fn link_seed(seed: u64, i: u64) -> u64 {
    derive(seed, 0x11_4C).wrapping_add(i)
}

/// Fleet size of a daemon campaign job (the size its report check
/// recomputes with `campaign_json`).
pub const DAEMON_CAMPAIGN_NODES: u64 = 64;

/// One daemon job as submitted: spec and priority.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobInput {
    /// What to run.
    pub spec: JobSpec,
    /// Scheduling priority 0..=9.
    pub priority: u8,
}

/// `n` daemon jobs for stream `stream` of the run seed: equal thirds of
/// `link` quick, `campaign` 64-node and `waterfall` quick (the mix is
/// fixed so the offered work does not depend on the seed), in a seeded
/// order with seeded experiment seeds and priorities.
pub fn job_mix(seed: u64, stream: u64, n: usize) -> Vec<JobInput> {
    let base = derive(seed, stream);
    let mut jobs: Vec<JobInput> = (0..n)
        .map(|i| {
            let s = splitmix64(base ^ (i as u64).wrapping_mul(0x9E37));
            let spec = match i % 3 {
                0 => JobSpec::Link {
                    seed: s,
                    quick: true,
                },
                1 => JobSpec::Campaign {
                    nodes: DAEMON_CAMPAIGN_NODES,
                    seed: s,
                    stop_after_blocks: None,
                },
                _ => JobSpec::Waterfall {
                    seed: s,
                    quick: true,
                },
            };
            JobInput {
                spec,
                priority: (splitmix64(s) % 10) as u8,
            }
        })
        .collect();
    // seeded Fisher–Yates
    let mut state = base;
    for i in (1..jobs.len()).rev() {
        state = splitmix64(state);
        jobs.swap(i, (state % (i as u64 + 1)) as usize);
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(jobs: &[JobInput]) -> [usize; 3] {
        let mut k = [0; 3];
        for j in jobs {
            match j.spec {
                JobSpec::Link { .. } => k[0] += 1,
                JobSpec::Campaign { .. } => k[1] += 1,
                _ => k[2] += 1,
            }
        }
        k
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(job_mix(5, 1, 30), job_mix(5, 1, 30));
        assert_eq!(derive(5, 9), derive(5, 9));
        assert_eq!(link_seed(5, 3), link_seed(5, 3));
    }

    #[test]
    fn seeds_and_streams_change_the_inputs() {
        assert_ne!(job_mix(5, 1, 30), job_mix(6, 1, 30));
        assert_ne!(job_mix(5, 1, 30), job_mix(5, 2, 30));
        assert_ne!(derive(5, 1), derive(5, 2));
        assert_eq!(link_seed(5, 4), link_seed(5, 3) + 1);
    }

    #[test]
    fn job_mix_keeps_equal_thirds_and_valid_priorities() {
        for seed in 0..20 {
            let jobs = job_mix(seed, 7, 30);
            assert_eq!(kinds(&jobs), [10, 10, 10]);
            assert!(jobs.iter().all(|j| j.priority <= 9));
        }
    }
}
