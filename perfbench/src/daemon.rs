//! `daemon`: the testbed daemon (`testbedd::daemon::serve`) in process
//! on a loopback ephemeral port, with one worker per core and a clock
//! sharing the client's epoch. It is the only workload that exercises
//! the daemon's HTTP front end, queue, artifact store and runner.
//!
//! Set-up boots the daemon on a store already holding its 256-job
//! retention cap of finished jobs, so every timed submit pays the
//! steady-state retention scan. Then, from one client thread:
//!
//! 1. an open loop submits a seeded mix of `link` quick, `campaign`
//!    64-node and `waterfall` quick jobs at a fixed rate (about half the
//!    capacity phase 2 measures on a 2-core machine), with status GETs
//!    and health probes on fixed schedules and a `report.json` fetch
//!    after each job finishes. Requests are timed from when they were
//!    due; how late the generator ran is reported too;
//! 2. bursts of jobs measure the drain rate, repeated while time allows.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tinysdr_bench::campaign::campaign_json;
use tinysdr_ota::json::Value;
use tinysdr_testbedd::clock::Clock;
use tinysdr_testbedd::daemon::{serve, DaemonConfig};
use tinysdr_testbedd::spec::{job_id, JobRecord, JobSpec, JobState};
use tinysdr_testbedd::store::ArtifactStore;

use crate::inputs::{job_mix, JobInput, DAEMON_CAMPAIGN_NODES};
use crate::report::Report;
use crate::trace::{Trace, Tracer};
use crate::{report_trace, stats, timed, Ctx, SETUP_REPS};

/// Finished jobs already in the store at boot: the daemon's default
/// retention cap.
pub const STORE_CAP: usize = 256;
/// Phase 1: jobs submitted by the open loop.
const OPEN_JOBS: usize = 36;
/// Phase 1: offered load, jobs per second (a burst drains at about 16
/// jobs/s on a 2-core machine).
const OPEN_RATE_PER_S: f64 = 8.0;
/// Phase 1: one status GET every this many seconds.
const STATUS_EVERY_S: f64 = 0.05;
/// Phase 1: one health probe every this many seconds.
const HEALTH_EVERY_S: f64 = 0.25;
/// Phase 2: jobs per burst.
const BURST_JOBS: usize = 30;
/// Phase 2: health poll period while a burst drains, seconds.
const DRAIN_POLL_S: f64 = 0.02;
/// Give up on a phase after this long, seconds.
const PHASE_DEADLINE_S: f64 = 60.0;

/// The daemon's clock: milliseconds since the benchmark's epoch, the
/// same origin the client's due times use.
struct BenchClock {
    epoch: Instant,
}

impl Clock for BenchClock {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

/// A running daemon.
struct Daemon {
    addr: SocketAddr,
    handle: JoinHandle<io::Result<()>>,
}

/// One HTTP exchange: status and body.
fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    msg.extend_from_slice(body);
    s.write_all(&msg)?;
    let mut resp = Vec::new();
    s.read_to_end(&mut resp)?;
    let split = resp
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header end"))?;
    let status = std::str::from_utf8(&resp[..split])
        .ok()
        .and_then(|h| h.split(' ').nth(1))
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, resp[split + 4..].to_vec()))
}

/// Fill a fresh store at `root` with `n` finished jobs.
fn prefill(root: &Path, n: usize) -> io::Result<()> {
    std::fs::remove_dir_all(root).ok();
    let store = ArtifactStore::open(root)?;
    for i in 0..n {
        let spec = JobSpec::Link {
            seed: i as u64,
            quick: true,
        };
        let mut rec = JobRecord::new(job_id(i as u64 + 1, spec.fingerprint()), spec, 5, 0);
        rec.state = JobState::Done;
        rec.attempts = 1;
        store.save_record(&rec)?;
    }
    Ok(())
}

impl Daemon {
    /// Boot a daemon on the store at `root`; returns once it answers
    /// `/v1/health`. Booting on a store of finished jobs leaves the
    /// store unchanged, so boots can repeat on one store.
    fn boot(ctx: &Ctx, root: &Path) -> Daemon {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("listener address");
        let cfg = DaemonConfig {
            workers: ctx.nproc,
            ..DaemonConfig::new(root.to_path_buf())
        };
        let clock = BenchClock { epoch: ctx.epoch };
        let handle = std::thread::spawn(move || serve(&cfg, &listener, &clock));
        let d = Daemon { addr, handle };
        let t0 = Instant::now();
        while !matches!(request(d.addr, "GET", "/v1/health", b""), Ok((200, _))) {
            assert!(
                t0.elapsed().as_secs_f64() < PHASE_DEADLINE_S,
                "daemon did not come up"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        d
    }

    /// Shut the daemon down and wait for it.
    fn stop(self) {
        request(self.addr, "POST", "/v1/shutdown", b"").ok();
        match self.handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => eprintln!("perfbench: daemon exited with {e}"),
            Err(_) => eprintln!("perfbench: daemon thread panicked"),
        }
    }
}

/// What the client saw.
#[derive(Default)]
struct Client {
    submit_ms: Vec<f64>,
    read_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    requests: u64,
    failures: u64,
}

/// A submitted job as the client tracks it.
struct Submitted {
    input: JobInput,
    id: String,
    due_s: f64,
    record: Option<JobRecord>,
    report: Option<Vec<u8>>,
}

impl Client {
    /// Send one request due at `due_s` (seconds since the epoch) inside
    /// span `name`; records latency from the due time and generator lag.
    fn send(
        &mut self,
        ctx: &Ctx,
        d: &Daemon,
        t: &mut Tracer,
        name: &'static str,
        (method, path, body): (&str, &str, &[u8]),
        due_s: f64,
    ) -> Option<Vec<u8>> {
        let start_s = ctx.epoch.elapsed().as_secs_f64();
        self.lag_ms.push(((start_s - due_s) * 1e3).max(0.0));
        let r = t.span(name, |_| request(d.addr, method, path, body));
        let lat_ms = (ctx.epoch.elapsed().as_secs_f64() - due_s) * 1e3;
        self.requests += 1;
        if method == "POST" {
            self.submit_ms.push(lat_ms);
        } else {
            self.read_ms.push(lat_ms);
        }
        match r {
            Ok((200..=299, body)) => Some(body),
            _ => {
                self.failures += 1;
                None
            }
        }
    }

    /// Submit one job; returns its id.
    fn submit(
        &mut self,
        ctx: &Ctx,
        d: &Daemon,
        t: &mut Tracer,
        job: &JobInput,
        due_s: f64,
    ) -> Option<String> {
        let body = Value::Obj(vec![
            ("spec".into(), job.spec.to_json()),
            ("priority".into(), Value::num(f64::from(job.priority))),
        ])
        .write();
        let resp = self.send(
            ctx,
            d,
            t,
            "testbedd.http.submit",
            ("POST", "/v1/jobs", body.as_bytes()),
            due_s,
        )?;
        parse_record(&resp).map(|r| r.id)
    }
}

fn parse_record(body: &[u8]) -> Option<JobRecord> {
    let v = Value::parse(std::str::from_utf8(body).ok()?).ok()?;
    JobRecord::from_json(&v)
}

/// `(queued, running)` from a health body.
fn parse_health(body: &[u8]) -> Option<(u64, u64)> {
    let v = Value::parse(std::str::from_utf8(body).ok()?).ok()?;
    Some((v.get("queued")?.as_u64()?, v.get("running")?.as_u64()?))
}

fn sleep_until(ctx: &Ctx, due_s: f64) {
    let now = ctx.epoch.elapsed().as_secs_f64();
    if due_s > now {
        std::thread::sleep(Duration::from_secs_f64(due_s - now));
    }
}

/// Phase 1: the open loop. Returns the jobs with their final records
/// and reports, and the backlog the last health probe of the submit
/// schedule saw.
fn open_loop(ctx: &Ctx, d: &Daemon, c: &mut Client, t: &mut Tracer) -> (Vec<Submitted>, u64) {
    let inputs = job_mix(ctx.seed, 1, OPEN_JOBS);
    let start = ctx.epoch.elapsed().as_secs_f64() + 0.05;
    let deadline = start + PHASE_DEADLINE_S;
    let mut jobs: Vec<Submitted> = Vec::new();
    let mut next_status = start;
    let mut next_health = start;
    let mut rr = 0usize;
    let mut fetch: Vec<(usize, f64)> = Vec::new();
    let mut backlog_end = 0;
    let submit_end = start + (OPEN_JOBS as f64 - 1.0) / OPEN_RATE_PER_S;
    loop {
        let settled = jobs.len() == OPEN_JOBS
            && jobs.iter().all(|j| {
                j.report.is_some()
                    || j.record
                        .as_ref()
                        .is_some_and(|r| r.state != JobState::Done && r.state.is_terminal())
            })
            && fetch.is_empty();
        if settled || ctx.epoch.elapsed().as_secs_f64() > deadline {
            break;
        }
        let submit_due =
            (jobs.len() < OPEN_JOBS).then(|| start + jobs.len() as f64 / OPEN_RATE_PER_S);
        let fetch_due = fetch.first().map(|f| f.1);
        let due = [submit_due, fetch_due, Some(next_status), Some(next_health)]
            .into_iter()
            .flatten()
            .fold(f64::INFINITY, f64::min);
        sleep_until(ctx, due);
        if submit_due == Some(due) {
            let input = inputs[jobs.len()].clone();
            t.set_op(jobs.len() as u64);
            let id = c.submit(ctx, d, t, &input, due).unwrap_or_default();
            jobs.push(Submitted {
                input,
                id,
                due_s: due,
                record: None,
                report: None,
            });
        } else if fetch_due == Some(due) {
            let (k, _) = fetch.remove(0);
            t.set_op(k as u64);
            let path = format!("/v1/jobs/{}/artifacts/report.json", jobs[k].id);
            jobs[k].report = c.send(
                ctx,
                d,
                t,
                "testbedd.http.artifact",
                ("GET", &path, b""),
                due,
            );
        } else if next_health == due {
            next_health += HEALTH_EVERY_S;
            let body = c.send(
                ctx,
                d,
                t,
                "testbedd.http.health",
                ("GET", "/v1/health", b""),
                due,
            );
            if due <= submit_end + HEALTH_EVERY_S {
                if let Some((queued, running)) = body.as_deref().and_then(parse_health) {
                    backlog_end = queued + running;
                }
            }
        } else {
            next_status += STATUS_EVERY_S;
            // round-robin over jobs not yet seen finished
            let open: Vec<usize> = (0..jobs.len())
                .filter(|&k| {
                    jobs[k]
                        .record
                        .as_ref()
                        .is_none_or(|r| !r.state.is_terminal())
                })
                .collect();
            let Some(&k) = open.get(rr % open.len().max(1)) else {
                continue;
            };
            rr += 1;
            t.set_op(k as u64);
            let path = format!("/v1/jobs/{}", jobs[k].id);
            if let Some(rec) = c
                .send(ctx, d, t, "testbedd.http.status", ("GET", &path, b""), due)
                .as_deref()
                .and_then(parse_record)
            {
                if rec.state == JobState::Done {
                    fetch.push((k, ctx.epoch.elapsed().as_secs_f64()));
                }
                jobs[k].record = Some(rec);
            }
        }
    }
    (jobs, backlog_end)
}

/// Phase 2: submit a burst back to back and wait for the queue to
/// drain. Returns the burst's records and drain wall seconds (first
/// submit due → last job finished).
fn burst(
    ctx: &Ctx,
    d: &Daemon,
    c: &mut Client,
    t: &mut Tracer,
    inputs: &[JobInput],
) -> (Vec<JobRecord>, f64) {
    let start = ctx.epoch.elapsed().as_secs_f64();
    let mut ids = Vec::new();
    for (k, job) in inputs.iter().enumerate() {
        t.set_op(1_000 + k as u64);
        let now = ctx.epoch.elapsed().as_secs_f64();
        ids.push(c.submit(ctx, d, t, job, now).unwrap_or_default());
    }
    loop {
        let now = ctx.epoch.elapsed().as_secs_f64();
        let body = c.send(
            ctx,
            d,
            t,
            "testbedd.http.health",
            ("GET", "/v1/health", b""),
            now,
        );
        if body.as_deref().and_then(parse_health) == Some((0, 0)) || now - start > PHASE_DEADLINE_S
        {
            break;
        }
        sleep_until(ctx, now + DRAIN_POLL_S);
    }
    let now = ctx.epoch.elapsed().as_secs_f64();
    let all = c
        .send(
            ctx,
            d,
            t,
            "testbedd.http.list",
            ("GET", "/v1/jobs", b""),
            now,
        )
        .and_then(|b| Value::parse(std::str::from_utf8(&b).ok()?).ok());
    let records: Vec<JobRecord> = all
        .as_ref()
        .and_then(|v| {
            v.get("jobs")?
                .as_arr()
                .map(|a| a.iter().filter_map(JobRecord::from_json).collect())
        })
        .unwrap_or_default();
    let burst: Vec<JobRecord> = records
        .into_iter()
        .filter(|r| ids.contains(&r.id))
        .collect();
    let last_ms = burst.iter().map(|r| r.finished_ms).max().unwrap_or(0);
    (burst, last_ms as f64 / 1e3 - start)
}

/// Account a finished phase-1 or burst job set: jobs not `Done` fail.
fn count_jobs(rep: &mut Report, states: impl Iterator<Item = Option<JobState>>) -> bool {
    let mut all_done = true;
    for s in states {
        rep.attempted += 1;
        if s != Some(JobState::Done) {
            rep.failed += 1;
            all_done = false;
        }
    }
    all_done
}

/// Checks on phase 1's jobs: one campaign report is byte-equal to a
/// direct `campaign_json` run, and the digest of every report in
/// submission order.
fn check_reports(rep: &mut Report, jobs: &[Submitted]) {
    let campaign = jobs.iter().find_map(|j| match j.input.spec {
        JobSpec::Campaign { nodes, seed, .. } => Some((nodes, seed, j.report.as_deref())),
        _ => None,
    });
    let equal = campaign.is_some_and(|(nodes, seed, stored)| {
        nodes == DAEMON_CAMPAIGN_NODES
            && stored
                == Some(
                    campaign_json(nodes as usize, seed)
                        .write_pretty()
                        .as_bytes(),
                )
    });
    rep.check(
        "stored campaign report.json is byte-equal to campaign_json(64, seed)",
        equal,
    );
    let mut doc = Vec::new();
    for j in jobs {
        doc.extend_from_slice(j.input.spec.to_json().write().as_bytes());
        doc.push(b'\n');
        doc.extend_from_slice(j.report.as_deref().unwrap_or(b"<missing>"));
    }
    rep.digest("daemon.reports", &doc);
}

/// Job latency from its due time to its terminal state, ms.
fn job_ms(jobs: &[Submitted]) -> Vec<f64> {
    jobs.iter()
        .filter_map(|j| {
            j.record
                .as_ref()
                .map(|r| r.finished_ms as f64 - j.due_s * 1e3)
        })
        .collect()
}

/// Boot a daemon on `root` and drain one warm-up job of each kind
/// through it, so the timed phases find every job path warm.
fn boot_warm(ctx: &Ctx, root: &Path) -> Daemon {
    let d = Daemon::boot(ctx, root);
    let mut off = Tracer::new(ctx.epoch, 0, false);
    let (records, _) = burst(
        ctx,
        &d,
        &mut Client::default(),
        &mut off,
        &job_mix(ctx.seed, 3, 3),
    );
    assert!(
        records.len() == 3 && records.iter().all(|r| r.state == JobState::Done),
        "warm-up jobs failed: {records:?}"
    );
    d
}

/// A store at its retention cap, under `ctx.out`.
fn full_store(ctx: &Ctx, name: &str) -> PathBuf {
    let root = ctx.out.join(format!("{name}-seed{}", ctx.seed));
    prefill(&root, STORE_CAP).expect("prefill the artifact store");
    root
}

/// Time `n` `/v1/health` round trips against a freshly booted daemon on
/// a store at its retention cap; ns per request.
pub fn health_probe(ctx: &Ctx, t: &mut Tracer, n: usize) -> Vec<f64> {
    let root = full_store(ctx, "probe-daemon");
    let d = Daemon::boot(ctx, &root);
    let v = (0..n)
        .map(|_| {
            let ok = t.span("testbedd.http.health", |_| {
                request(d.addr, "GET", "/v1/health", b"")
            });
            assert!(matches!(ok, Ok((200, _))), "health probe failed: {ok:?}");
            t.last_ns() as f64
        })
        .collect();
    d.stop();
    std::fs::remove_dir_all(root).ok();
    v
}

/// Run the workload.
pub fn run(ctx: &Ctx, rep: &mut Report) {
    let burst_inputs = job_mix(ctx.seed, 2, BURST_JOBS);
    let mut c = Client::default();
    if !ctx.trace {
        // the store is the input: filled once (its time is an extra,
        // being mostly the file system's), then the daemon boots on it
        // repeatedly — restore, retention scan, worker pool, first
        // health — and runs one warm-up job of each kind
        let (root, prefill_s) = timed(|| full_store(ctx, "daemon"));
        rep.extra("daemon.prefill_s", prefill_s, "s");
        let mut boots = Vec::new();
        let mut daemon = None;
        for _ in 0..SETUP_REPS {
            if let Some(prev) = daemon.take() {
                Daemon::stop(prev);
            }
            let (d, wall) = timed(|| boot_warm(ctx, &root));
            boots.push(wall);
            daemon = Some(d);
        }
        rep.e2e("setup_s", stats::median(&boots).unwrap_or(f64::NAN), "s");
        let d = daemon.expect("a daemon is up");
        let t0 = Instant::now();
        let mut t = ctx.tracer(0);
        let (jobs, _) = open_loop(ctx, &d, &mut c, &mut t);
        let mut drains = Vec::new();
        let mut ok = count_jobs(rep, jobs.iter().map(|j| j.record.as_ref().map(|r| r.state)));
        loop {
            let (records, wall) = burst(ctx, &d, &mut c, &mut t, &burst_inputs);
            ok &= records.len() == BURST_JOBS
                && count_jobs(rep, records.iter().map(|r| Some(r.state)));
            drains.push(wall);
            let med = stats::median(&drains).unwrap_or(wall);
            if t0.elapsed().as_secs_f64() + med > ctx.seconds {
                break;
            }
        }
        d.stop();
        std::fs::remove_dir_all(root).ok();
        rep.check("every job finished done", ok);
        check_reports(rep, &jobs);
        rep.attempted += c.requests;
        rep.failed += c.failures;
        rep.walls(&drains);
        let wall_s = stats::median(&drains).unwrap_or(f64::NAN);
        rep.extra("jobs_per_s", BURST_JOBS as f64 / wall_s, "1/s");
        rep.extra_dist("submit_ms", &c.submit_ms, "ms");
        rep.extra_dist("read_ms", &c.read_ms, "ms");
        rep.extra_dist("job_ms", &job_ms(&jobs), "ms");
        rep.extra_dist("bench.gen_lag_ms", &c.lag_ms, "ms");
        return;
    }
    let root = full_store(ctx, "daemon");
    let d = boot_warm(ctx, &root);
    let mut off = Tracer::new(ctx.epoch, 0, false);
    let (base, base_wall) = burst(ctx, &d, &mut c, &mut off, &burst_inputs);
    let mut t = ctx.tracer(0);
    let (jobs, backlog_end) = open_loop(ctx, &d, &mut c, &mut t);
    let (traced, traced_wall) = burst(ctx, &d, &mut c, &mut t, &burst_inputs);
    d.stop();
    std::fs::remove_dir_all(root).ok();
    let mut ok = count_jobs(rep, jobs.iter().map(|j| j.record.as_ref().map(|r| r.state)));
    for b in [&base, &traced] {
        ok &= b.len() == BURST_JOBS && count_jobs(rep, b.iter().map(|r| Some(r.state)));
    }
    rep.check("every job finished done", ok);
    check_reports(rep, &jobs);
    rep.attempted += c.requests;
    rep.failed += c.failures;
    let mut tr = Trace::default();
    tr.absorb(t.into_spans());
    let runs_ns: Vec<f64> = traced
        .iter()
        .map(|r| r.finished_ms.saturating_sub(r.started_ms) as f64 * 1e6)
        .collect();
    // the parallel parts are the burst's job runs on the worker pool
    report_trace(ctx, rep, "daemon", &tr, (base_wall, traced_wall), &runs_ns);
    let mut records: Vec<&JobRecord> = jobs.iter().filter_map(|j| j.record.as_ref()).collect();
    records.extend(traced.iter());
    let wait: Vec<f64> = records
        .iter()
        .map(|r| r.started_ms.saturating_sub(r.submitted_ms) as f64)
        .collect();
    rep.extra_dist("testbedd.queue.wait_ms", &wait, "ms");
    for kind in ["campaign", "waterfall", "link"] {
        let run: Vec<f64> = records
            .iter()
            .filter(|r| r.spec.kind() == kind)
            .map(|r| r.finished_ms.saturating_sub(r.started_ms) as f64)
            .collect();
        rep.extra(
            &format!("testbedd.runner.{kind}_ms"),
            stats::median(&run).unwrap_or(f64::NAN),
            "ms",
        );
    }
    rep.extra("testbedd.queue.backlog_end", backlog_end as f64, "count");
    let by_name = tr.by_name();
    for (name, metric) in [
        ("testbedd.http.health", "testbedd.http.health_us"),
        ("testbedd.http.status", "testbedd.http.status_us"),
        ("testbedd.http.artifact", "testbedd.http.artifact_us"),
        ("testbedd.http.submit", "testbedd.http.submit_us"),
    ] {
        let v = by_name
            .get(name)
            .map_or(f64::NAN, |s| s.total_ns as f64 / s.count as f64 / 1e3);
        rep.extra(metric, v, "us");
    }
    rep.extra_dist("bench.gen_lag_ms", &c.lag_ms, "ms");
    rep.extra("jobs_per_s", BURST_JOBS as f64 / base_wall, "1/s");
}
