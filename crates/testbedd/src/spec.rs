//! Job specifications and lifecycle records — the daemon's wire and
//! disk format, built entirely on [`tinysdr_ota::json`].
//!
//! A [`JobSpec`] names an experiment plus its parameters; its
//! canonical JSON form is the *identity* of the work (the job-id
//! fingerprint hashes it). A [`JobRecord`] wraps a spec with scheduling
//! state and timestamps; it is what `/v1/jobs` returns and what
//! `state.json` persists, so a restarted daemon reconstructs its queue
//! from the records alone.

use tinysdr_ota::checkpoint::{chain_mix, checksum};
use tinysdr_ota::json::Value;

/// One experiment the daemon knows how to run. Seeds are full `u64`
/// and travel as 16-digit hex strings (the codec's exactness rule for
/// values beyond 2^53).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// The `repro campaign --json` fleet campaign: `nodes` nodes under
    /// the benchmark workload, sharded scheduler, sketch retention.
    /// Runs checkpointed, so cancellation/shutdown loses at most a
    /// block of merging.
    Campaign {
        /// Fleet size.
        nodes: u64,
        /// Campaign seed (testbed layout + session RNG streams).
        seed: u64,
        /// Test knob: interrupt the *first* attempt after this many
        /// merged blocks (the deterministic "kill" of the
        /// checkpoint-resume e2e gate). Later attempts run to
        /// completion. `None` in production.
        stop_after_blocks: Option<u64>,
    },
    /// The PHY conformance waterfall sweep (`repro waterfall --json`).
    Waterfall {
        /// Sweep seed.
        seed: u64,
        /// Coarse grid (`true`, the CI-sized sweep) or the full grid.
        quick: bool,
    },
    /// The energy-reproduction fleet campaign (`repro energy --json`):
    /// paper MCU image, auto scheduler, daily-update life projection.
    /// Runs checkpointed like [`JobSpec::Campaign`].
    EnergyRepro {
        /// Fleet size.
        nodes: u64,
        /// Campaign seed.
        seed: u64,
    },
    /// The hot-path perf gates + timed workloads (`repro perf --json`).
    /// Reports are *not* deterministic (wall time is the measurement);
    /// the gates inside still are.
    Perf {
        /// CI-sized repetition counts.
        quick: bool,
    },
    /// The packet-data-plane experiment (`repro link --json`):
    /// goodput-vs-RSSI over measured PER plus the multi-hop OTA
    /// dissemination table with per-node energy.
    Link {
        /// Experiment seed (PER trials, channel schedules, backoff).
        seed: u64,
        /// Coarse grid and trial counts (`true`, the CI-sized run).
        quick: bool,
    },
}

impl JobSpec {
    /// The spec kind tag used in JSON and artifact naming.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Campaign { .. } => "campaign",
            JobSpec::Waterfall { .. } => "waterfall",
            JobSpec::EnergyRepro { .. } => "energy-repro",
            JobSpec::Perf { .. } => "perf",
            JobSpec::Link { .. } => "link",
        }
    }

    /// Canonical JSON object (field order fixed per kind — the
    /// fingerprint hashes these bytes).
    pub fn to_json(&self) -> Value {
        match self {
            JobSpec::Campaign {
                nodes,
                seed,
                stop_after_blocks,
            } => {
                let mut fields = vec![
                    ("kind".into(), Value::str("campaign")),
                    ("nodes".into(), Value::num(*nodes as f64)),
                    ("seed".into(), Value::hex_u64(*seed)),
                ];
                if let Some(n) = stop_after_blocks {
                    fields.push(("stop_after_blocks".into(), Value::num(*n as f64)));
                }
                Value::Obj(fields)
            }
            JobSpec::Waterfall { seed, quick } => Value::Obj(vec![
                ("kind".into(), Value::str("waterfall")),
                ("seed".into(), Value::hex_u64(*seed)),
                ("quick".into(), Value::Bool(*quick)),
            ]),
            JobSpec::EnergyRepro { nodes, seed } => Value::Obj(vec![
                ("kind".into(), Value::str("energy-repro")),
                ("nodes".into(), Value::num(*nodes as f64)),
                ("seed".into(), Value::hex_u64(*seed)),
            ]),
            JobSpec::Perf { quick } => Value::Obj(vec![
                ("kind".into(), Value::str("perf")),
                ("quick".into(), Value::Bool(*quick)),
            ]),
            JobSpec::Link { seed, quick } => Value::Obj(vec![
                ("kind".into(), Value::str("link")),
                ("seed".into(), Value::hex_u64(*seed)),
                ("quick".into(), Value::Bool(*quick)),
            ]),
        }
    }

    /// Rebuild a spec from [`JobSpec::to_json`] output; `None` on any
    /// shape violation (unknown kind, missing field, wrong type).
    pub fn from_json(v: &Value) -> Option<JobSpec> {
        let seed = |v: &Value| v.get("seed").and_then(Value::as_hex_u64);
        match v.get("kind")?.as_str()? {
            "campaign" => Some(JobSpec::Campaign {
                nodes: v.get("nodes")?.as_u64()?,
                seed: seed(v)?,
                stop_after_blocks: match v.get("stop_after_blocks") {
                    None => None,
                    Some(n) => Some(n.as_u64()?),
                },
            }),
            "waterfall" => Some(JobSpec::Waterfall {
                seed: seed(v)?,
                quick: v.get("quick")?.as_bool()?,
            }),
            "energy-repro" => Some(JobSpec::EnergyRepro {
                nodes: v.get("nodes")?.as_u64()?,
                seed: seed(v)?,
            }),
            "perf" => Some(JobSpec::Perf {
                quick: v.get("quick")?.as_bool()?,
            }),
            "link" => Some(JobSpec::Link {
                seed: seed(v)?,
                quick: v.get("quick")?.as_bool()?,
            }),
            _ => None,
        }
    }

    /// A 64-bit fingerprint of the canonical spec JSON — the content
    /// half of a job id. Two submissions of the same experiment get
    /// the same fingerprint (and distinct sequence numbers).
    pub fn fingerprint(&self) -> u64 {
        chain_mix(checksum(self.to_json().write().as_bytes()), 0xB_EDD)
    }
}

/// Scheduling lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the priority queue (also the re-queued state of a
    /// checkpointed job awaiting resume).
    Queued,
    /// Claimed by a worker.
    Running,
    /// Finished; `report.json` (and tables, where applicable) are in
    /// the artifact store.
    Done,
    /// The runner hit an error (checkpoint I/O, engine panic).
    Failed,
    /// Cancelled by request before or during execution.
    Cancelled,
}

impl JobState {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }

    /// Terminal states never run again (and are what retention prunes).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// A job's full scheduling record: the `/v1/jobs/{id}` response body
/// and the content of the job directory's `state.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// `job-{seq:06}-{fingerprint:08x}` — sequence number plus spec
    /// fingerprint, unique per daemon root and stable across restarts.
    pub id: String,
    /// What to run.
    pub spec: JobSpec,
    /// Scheduling priority, 0 (lowest) ..= 9 (highest); FIFO within a
    /// level.
    pub priority: u8,
    /// Lifecycle state.
    pub state: JobState,
    /// Execution attempts so far (an interrupted-and-resumed campaign
    /// counts one attempt per leg).
    pub attempts: u64,
    /// `true` once a cancel request has been accepted — distinguishes
    /// a user cancellation from a graceful-shutdown interruption when
    /// a running job's token trips.
    pub cancel_requested: bool,
    /// Clock reading at submission, ms.
    pub submitted_ms: u64,
    /// Clock reading when a worker first claimed the job, ms (0 =
    /// never started).
    pub started_ms: u64,
    /// Clock reading at the terminal transition, ms (0 = not yet).
    pub finished_ms: u64,
    /// Failure description (empty unless `state == Failed`).
    pub error: String,
}

impl JobRecord {
    /// A fresh queued record.
    pub fn new(id: String, spec: JobSpec, priority: u8, submitted_ms: u64) -> JobRecord {
        JobRecord {
            id,
            spec,
            priority,
            state: JobState::Queued,
            attempts: 0,
            cancel_requested: false,
            submitted_ms,
            started_ms: 0,
            finished_ms: 0,
            error: String::new(),
        }
    }

    /// As a JSON object (`state.json` / API body).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), Value::str(self.id.clone())),
            ("spec".into(), self.spec.to_json()),
            ("priority".into(), Value::num(f64::from(self.priority))),
            ("state".into(), Value::str(self.state.as_str())),
            ("attempts".into(), Value::num(self.attempts as f64)),
            (
                "cancel_requested".into(),
                Value::Bool(self.cancel_requested),
            ),
            ("submitted_ms".into(), Value::num(self.submitted_ms as f64)),
            ("started_ms".into(), Value::num(self.started_ms as f64)),
            ("finished_ms".into(), Value::num(self.finished_ms as f64)),
            ("error".into(), Value::str(self.error.clone())),
        ])
    }

    /// Rebuild from [`JobRecord::to_json`] output.
    pub fn from_json(v: &Value) -> Option<JobRecord> {
        Some(JobRecord {
            id: v.get("id")?.as_str()?.to_string(),
            spec: JobSpec::from_json(v.get("spec")?)?,
            priority: u8::try_from(v.get("priority")?.as_u64()?).ok()?,
            state: JobState::parse(v.get("state")?.as_str()?)?,
            attempts: v.get("attempts")?.as_u64()?,
            cancel_requested: v.get("cancel_requested")?.as_bool()?,
            submitted_ms: v.get("submitted_ms")?.as_u64()?,
            started_ms: v.get("started_ms")?.as_u64()?,
            finished_ms: v.get("finished_ms")?.as_u64()?,
            error: v.get("error")?.as_str()?.to_string(),
        })
    }
}

/// Compose a job id from its two halves.
pub fn job_id(seq: u64, fingerprint: u64) -> String {
    format!("job-{seq:06}-{:08x}", fingerprint & 0xFFFF_FFFF)
}

/// Recover the sequence number from a [`job_id`]-shaped string (used
/// by the restart scan to continue the sequence).
pub fn job_seq(id: &str) -> Option<u64> {
    let rest = id.strip_prefix("job-")?;
    let (seq, _) = rest.split_once('-')?;
    seq.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<JobSpec> {
        vec![
            JobSpec::Campaign {
                nodes: 20_000,
                seed: 42,
                stop_after_blocks: None,
            },
            JobSpec::Campaign {
                nodes: 256,
                seed: u64::MAX,
                stop_after_blocks: Some(3),
            },
            JobSpec::Waterfall {
                seed: 0xBEEF,
                quick: true,
            },
            JobSpec::EnergyRepro {
                nodes: 64,
                seed: 42,
            },
            JobSpec::Perf { quick: false },
            JobSpec::Link {
                seed: 0xBEEF,
                quick: true,
            },
        ]
    }

    #[test]
    fn spec_json_round_trips_exactly() {
        for spec in specs() {
            let doc = spec.to_json().write();
            let parsed = JobSpec::from_json(&Value::parse(&doc).expect("parses")).expect("valid");
            assert_eq!(parsed, spec, "{doc}");
            // canonical form is stable through a round trip
            assert_eq!(parsed.to_json().write(), doc);
        }
    }

    #[test]
    fn full_u64_seeds_survive_the_codec() {
        let spec = JobSpec::Waterfall {
            seed: 0xDEAD_BEEF_CAFE_F00D,
            quick: false,
        };
        let doc = spec.to_json().write();
        assert!(doc.contains("deadbeefcafef00d"), "{doc}");
        assert_eq!(JobSpec::from_json(&Value::parse(&doc).unwrap()), Some(spec));
    }

    #[test]
    fn fingerprints_separate_specs_and_are_stable() {
        let fps: Vec<u64> = specs().iter().map(JobSpec::fingerprint).collect();
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b, "distinct specs must not collide");
            }
        }
        // same spec, same fingerprint — always
        assert_eq!(specs()[0].fingerprint(), specs()[0].fingerprint());
    }

    #[test]
    fn record_round_trips_and_ids_parse() {
        let spec = JobSpec::Perf { quick: true };
        let id = job_id(7, spec.fingerprint());
        assert_eq!(job_seq(&id), Some(7));
        let mut rec = JobRecord::new(id, spec, 5, 1000);
        rec.state = JobState::Failed;
        rec.attempts = 2;
        rec.error = "boom".into();
        rec.started_ms = 1100;
        rec.finished_ms = 1200;
        let doc = rec.to_json().write_pretty();
        assert_eq!(
            JobRecord::from_json(&Value::parse(&doc).expect("parses")),
            Some(rec)
        );
    }

    #[test]
    fn malformed_specs_are_rejected_not_defaulted() {
        for doc in [
            "{}",
            "{\"kind\":\"campaign\",\"nodes\":64}", // missing seed
            "{\"kind\":\"campaign\",\"nodes\":-1,\"seed\":\"000000000000002a\"}", // negative
            "{\"kind\":\"waterfall\",\"seed\":\"2a\",\"quick\":true}", // short hex
            "{\"kind\":\"mystery\",\"seed\":\"000000000000002a\"}", // unknown kind
            "{\"kind\":\"perf\",\"quick\":1}",      // wrong type
        ] {
            assert_eq!(
                JobSpec::from_json(&Value::parse(doc).expect("parses")),
                None,
                "{doc}"
            );
        }
    }

    #[test]
    fn terminal_states_are_exactly_the_non_schedulable_ones() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        for s in [JobState::Done, JobState::Failed, JobState::Cancelled] {
            assert!(s.is_terminal());
            assert_eq!(JobState::parse(s.as_str()), Some(s));
        }
    }
}
