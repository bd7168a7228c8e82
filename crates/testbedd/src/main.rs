//! `tinysdr-testbedd` — the testbed control-plane daemon.
//!
//! ```text
//! tinysdr-testbedd [--root DIR] [--addr HOST:PORT] [--workers N]   serve until POST /v1/shutdown
//! tinysdr-testbedd --smoke [--root DIR]                            end-to-end self-test (CI gate)
//! tinysdr-testbedd --bench [--root DIR]                            queue throughput -> BENCH_testbedd.json
//! ```
//!
//! An unknown flag, a flag missing its value, or a non-numeric
//! `--workers` prints the usage to stderr and exits 2 before anything
//! binds a port.
//!
//! `--smoke` boots the daemon on an ephemeral loopback port, submits a
//! small campaign over real HTTP, waits for completion, verifies the
//! stored report is byte-identical to a direct
//! `tinysdr_bench::campaign::campaign_json` call, and shuts the daemon
//! down over the API. Exit status is the verdict.

#![forbid(unsafe_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use tinysdr_bench::trajectory::record;
use tinysdr_dsp::cancel::CancelToken;
use tinysdr_ota::json::Value;
use tinysdr_testbedd::clock::{Clock, SystemClock};
use tinysdr_testbedd::daemon::{serve, DaemonConfig};
use tinysdr_testbedd::queue::JobQueue;
use tinysdr_testbedd::runner::worker_loop;
use tinysdr_testbedd::spec::{JobSpec, JobState};
use tinysdr_testbedd::store::ArtifactStore;

const USAGE: &str = "usage:\n\
\x20 tinysdr-testbedd [--root DIR] [--addr HOST:PORT] [--workers N]\n\
\x20 tinysdr-testbedd --smoke [--root DIR]\n\
\x20 tinysdr-testbedd --bench [--root DIR]\n";

/// What the command line asks for.
enum Mode {
    Serve,
    Smoke,
    Bench,
}

/// The parsed command line.
struct Cli {
    mode: Mode,
    root: Option<String>,
    addr: Option<String>,
    workers: Option<usize>,
}

/// Parse the arguments after the program name. `Ok(None)` is
/// `--help`; `Err` names the first argument that is not understood.
fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        mode: Mode::Serve,
        root: None,
        addr: None,
        workers: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--smoke" => cli.mode = Mode::Smoke,
            "--bench" => cli.mode = Mode::Bench,
            "--root" => cli.root = Some(value()?),
            "--addr" => cli.addr = Some(value()?),
            "--workers" => {
                let n = value()?;
                cli.workers = Some(
                    n.parse()
                        .map_err(|_| format!("--workers {n}: not a count"))?,
                );
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Some(cli))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            print!("tinysdr-testbedd: testbed campaign scheduler daemon\n\n{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprint!("tinysdr-testbedd: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = cli
        .root
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("tinysdr-testbedd"));
    match cli.mode {
        Mode::Smoke => return smoke(&root),
        Mode::Bench => return bench(&root),
        Mode::Serve => {}
    }
    let addr = cli.addr.unwrap_or_else(|| "127.0.0.1:8070".to_string());
    let mut cfg = DaemonConfig::new(root);
    if let Some(n) = cli.workers {
        cfg.workers = n;
    }
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("tinysdr-testbedd: cannot bind {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "tinysdr-testbedd: serving on {addr}, root {}",
        cfg.root.display()
    );
    match serve(&cfg, &listener, &SystemClock) {
        Ok(()) => {
            println!("tinysdr-testbedd: shutdown complete");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tinysdr-testbedd: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One request/response exchange against the daemon (the API is
/// one-shot per connection). Returns `(status, body)`.
fn http_call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let attempt = || -> std::io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(addr)?;
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: testbedd\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes())?;
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        let status = raw
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let payload = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        Ok((status, payload))
    };
    attempt().unwrap_or((0, String::new()))
}

/// The CI smoke gate: full client-visible lifecycle over real TCP plus
/// the byte-identity contract.
fn smoke(root: &Path) -> ExitCode {
    std::fs::remove_dir_all(root).ok();
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("smoke: bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Ok(addr) = listener.local_addr() else {
        eprintln!("smoke: no local addr");
        return ExitCode::FAILURE;
    };
    let cfg = DaemonConfig::new(root.to_path_buf());
    let server = std::thread::spawn(move || serve(&cfg, &listener, &SystemClock));

    let (status, health) = http_call(addr, "GET", "/v1/health", "");
    println!("smoke: health {status}: {}", health.trim_end());
    let mut ok = status == 200;

    let spec = r#"{"spec":{"kind":"campaign","nodes":256,"seed":"000000000000002a"},"priority":7}"#;
    let (status, submitted) = http_call(addr, "POST", "/v1/jobs", spec);
    ok &= status == 202;
    let id = Value::parse(&submitted)
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_str).map(String::from))
        .unwrap_or_default();
    println!("smoke: submitted {id} ({status})");
    ok &= !id.is_empty();

    // poll by iteration count (bounded), not wall-clock arithmetic
    let mut state = String::new();
    for _ in 0..600 {
        let (_, got) = http_call(addr, "GET", &format!("/v1/jobs/{id}"), "");
        state = Value::parse(&got)
            .ok()
            .and_then(|v| v.get("state").and_then(Value::as_str).map(String::from))
            .unwrap_or_default();
        if JobState::parse(&state).is_some_and(JobState::is_terminal) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    println!("smoke: job state {state}");
    ok &= state == "done";

    let (status, stored) = http_call(
        addr,
        "GET",
        &format!("/v1/jobs/{id}/artifacts/report.json"),
        "",
    );
    ok &= status == 200;
    let direct = tinysdr_bench::campaign::campaign_json(256, 42).write_pretty();
    let identical = stored == direct;
    println!(
        "smoke: report bytes {} direct library run",
        if identical { "==" } else { "!=" }
    );
    ok &= identical;

    let (status, _) = http_call(addr, "POST", "/v1/shutdown", "");
    ok &= status == 202;
    ok &= matches!(server.join(), Ok(Ok(())));
    println!("smoke: {}", if ok { "PASS" } else { "FAIL" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Queue throughput across worker counts; appends one full point per
/// worker count to `BENCH_testbedd.json` in the current directory.
#[allow(clippy::disallowed_methods)] // bench harness: wall time is the measurement
fn bench(root: &Path) -> ExitCode {
    const JOBS: usize = 48;
    for workers in [1usize, 2, 4] {
        let run_root = root.join(format!("bench-w{workers}"));
        std::fs::remove_dir_all(&run_root).ok();
        let store = match ArtifactStore::open(&run_root) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bench: store: {e}");
                return ExitCode::FAILURE;
            }
        };
        let queue = Arc::new(JobQueue::new());
        let clock = SystemClock;
        let shutdown = CancelToken::new();
        let t0 = std::time::Instant::now(); // lint: allow(ambient-time, bench harness measures wall time)
        for i in 0..JOBS {
            queue.submit(
                JobSpec::EnergyRepro {
                    nodes: 16,
                    seed: i as u64,
                },
                5,
                clock.now_ms(),
            );
        }
        queue.close_after_drain();
        crossbeam::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|_| worker_loop(&queue, &store, &clock, &shutdown));
            }
        })
        .expect("bench worker pool"); // lint: allow(unjustified-panic, bench must abort loudly on a worker panic)
        let wall_s = t0.elapsed().as_secs_f64();
        let records = queue.list();
        let done = records.iter().filter(|r| r.state == JobState::Done).count();
        if done != JOBS {
            eprintln!("bench: only {done}/{JOBS} jobs finished");
            return ExitCode::FAILURE;
        }
        let wait_ms_sum: u64 = records
            .iter()
            .map(|r| r.started_ms.saturating_sub(r.submitted_ms))
            .sum();
        let queue_wait_ms_mean = wait_ms_sum as f64 / JOBS as f64;
        println!(
            "bench: workers={workers} jobs={JOBS} wall={wall_s:.3}s rate={:.1} jobs/s wait={queue_wait_ms_mean:.1}ms",
            JOBS as f64 / wall_s
        );
        let point = vec![
            ("workers".into(), Value::num(workers as f64)),
            ("jobs".into(), Value::num(JOBS as f64)),
            ("wall_s".into(), Value::num(wall_s)),
            ("jobs_per_s".into(), Value::num(JOBS as f64 / wall_s)),
            ("queue_wait_ms_mean".into(), Value::num(queue_wait_ms_mean)),
        ];
        if let Err(e) = record("BENCH_testbedd.json", "testbedd_queue", false, point) {
            eprintln!("bench: write: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("bench: appended to BENCH_testbedd.json");
    ExitCode::SUCCESS
}
