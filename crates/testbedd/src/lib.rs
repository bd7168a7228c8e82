//! # tinysdr-testbedd
//!
//! The testbed **control plane**: a long-running scheduler service that
//! turns the workspace's one-shot experiment engines (campaigns,
//! conformance sweeps, energy reproduction, perf gates) into queued,
//! cancellable, artifact-producing *jobs* behind an HTTP/JSON API —
//! the software counterpart of the paper's remotely managed,
//! always-on testbed deployment (§3.4, §7).
//!
//! * [`spec`] — serializable job specifications and lifecycle records:
//!   every request, state and report travels through the hand-rolled
//!   [`tinysdr_ota::json`] codec (the workspace takes no network or
//!   serde dependency, by design).
//! * [`clock`] — the injected [`clock::Clock`] trait; all daemon
//!   timestamps flow through it so tests run on a [`clock::FakeClock`]
//!   and the ambient-time lint stays enforceable.
//! * [`store`] — the on-disk artifact store: one directory per job
//!   holding `state.json`, `report.json`, ECDF tables and campaign
//!   checkpoints, all written atomically (temp + rename), with
//!   count/age retention over terminal jobs.
//! * [`queue`] — the priority job queue the worker pool drains:
//!   deterministic job ids, FIFO within a priority level, cooperative
//!   cancellation via [`tinysdr_dsp::cancel::CancelToken`].
//! * [`runner`] — the worker pool: claims jobs, dispatches to the
//!   experiment engines, persists reports. A graceful shutdown cancels
//!   the shared parent token; running campaign and energy-repro jobs
//!   checkpoint at the next block boundary and are re-queued, so a restarted daemon
//!   resumes them **bit-identically** to an uninterrupted run.
//! * [`http`] — a minimal HTTP/1.1 server over `std::net::TcpListener`
//!   (request parsing, routing-free: the daemon matches paths itself).
//! * [`daemon`] — ties the above together and serves the API:
//!   `/v1/health`, `/v1/jobs` (submit/list), `/v1/jobs/{id}`
//!   (status/cancel), `/v1/jobs/{id}/artifacts`, `/v1/shutdown`.
//!
//! The load-bearing contract: a report stored by a daemon job is
//! **byte-identical** to the one the corresponding library call (or
//! `repro <cmd> --json`) produces for the same parameters, because
//! both sides call the *same* `to_json` builder on the *same* engine
//! output. The daemon adds scheduling, persistence and transport —
//! never its own serialization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod daemon;
pub mod http;
pub mod queue;
pub mod runner;
pub mod spec;
pub mod store;
