//! End-to-end daemon tests over real TCP: a live `serve()` on an
//! ephemeral loopback port, driven purely through the HTTP/JSON API,
//! verifying the full contract chain — submit → schedule → artifacts
//! on disk → byte-identical reports — plus cancellation and
//! shutdown/restart resume.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Duration;

use tinysdr_ota::json::Value;
use tinysdr_testbedd::clock::SystemClock;
use tinysdr_testbedd::daemon::{serve, DaemonConfig};

/// One request/response exchange (the API closes per request).
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response");
    let status = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Parse a JSON response body.
fn json(body: &str) -> Value {
    Value::parse(body).expect("json body")
}

fn field<'a>(doc: &'a Value, key: &str) -> &'a Value {
    doc.get(key).expect("field present")
}

/// Boot a daemon over `root` on an ephemeral port.
fn start_daemon(root: &Path, workers: usize) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("addr");
    let mut cfg = DaemonConfig::new(root.to_path_buf());
    cfg.workers = workers;
    let handle = std::thread::spawn(move || serve(&cfg, &listener, &SystemClock));
    (addr, handle)
}

/// Submit a spec, returning the assigned job id.
fn submit(addr: SocketAddr, spec_json: &str, priority: u8) -> String {
    let body = format!("{{\"spec\":{spec_json},\"priority\":{priority}}}");
    let (status, resp) = call(addr, "POST", "/v1/jobs", &body);
    assert_eq!(status, 202, "{resp}");
    field(&json(&resp), "id").as_str().expect("id").to_string()
}

/// Poll a job until it reaches a terminal state (bounded iterations).
fn await_terminal(addr: SocketAddr, id: &str) -> String {
    for _ in 0..600 {
        let (status, resp) = call(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "{resp}");
        let state = field(&json(&resp), "state")
            .as_str()
            .expect("state")
            .to_string();
        if matches!(state.as_str(), "done" | "failed" | "cancelled") {
            return state;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("job {id} never reached a terminal state");
}

fn tmp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("tinysdr_testbedd_e2e_{tag}"));
    std::fs::remove_dir_all(&root).ok();
    root
}

#[test]
fn submit_run_cancel_and_artifact_lifecycle_over_tcp() {
    let root = tmp_root("lifecycle");
    let (addr, server) = start_daemon(&root, 1);

    let (status, health) = call(addr, "GET", "/v1/health", "");
    assert_eq!(status, 200);
    assert_eq!(field(&json(&health), "ok"), &Value::Bool(true));

    // a campaign and a sweep share the single worker; the campaign's
    // higher priority makes the schedule deterministic
    let campaign = submit(
        addr,
        r#"{"kind":"campaign","nodes":256,"seed":"000000000000002a"}"#,
        9,
    );
    let waterfall = submit(
        addr,
        r#"{"kind":"waterfall","seed":"000000000000beef","quick":true}"#,
        5,
    );
    // a third job, parked at the lowest priority, is cancelled before
    // the worker can reach it
    let parked = submit(addr, r#"{"kind":"perf","quick":true}"#, 0);
    let (status, resp) = call(addr, "POST", &format!("/v1/jobs/{parked}/cancel"), "");
    assert_eq!(status, 200, "{resp}");

    assert_eq!(await_terminal(addr, &campaign), "done");
    assert_eq!(await_terminal(addr, &waterfall), "done");
    assert_eq!(await_terminal(addr, &parked), "cancelled");

    // the cancelled job produced no report, and says so over the API
    let (status, _) = call(
        addr,
        "GET",
        &format!("/v1/jobs/{parked}/artifacts/report.json"),
        "",
    );
    assert_eq!(status, 404);

    // byte-identity: the artifact served over HTTP equals a direct
    // library run of the same experiment, byte for byte
    let (status, stored) = call(
        addr,
        "GET",
        &format!("/v1/jobs/{campaign}/artifacts/report.json"),
        "",
    );
    assert_eq!(status, 200);
    assert_eq!(
        stored,
        tinysdr_bench::campaign::campaign_json(256, 42).write_pretty()
    );

    // and the same artifact is on disk in the job directory
    let on_disk = std::fs::read_to_string(root.join("jobs").join(&campaign).join("report.json"))
        .expect("report on disk");
    assert_eq!(on_disk, stored);
    assert!(root
        .join("jobs")
        .join(&campaign)
        .join("ecdf.json")
        .is_file());

    // the waterfall report also matches its direct-run serialization
    let (_, sweep_stored) = call(
        addr,
        "GET",
        &format!("/v1/jobs/{waterfall}/artifacts/report.json"),
        "",
    );
    let shards = tinysdr_bench::bench_shards();
    let direct = tinysdr_bench::waterfall::run_waterfall(
        &tinysdr_bench::waterfall::WaterfallConfig::quick(0xBEEF).sharded(shards),
    );
    assert_eq!(sweep_stored, direct.to_json().write_pretty());

    let (status, _) = call(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 202);
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn interrupted_campaign_resumes_to_bit_identical_report() {
    let root = tmp_root("interrupt");
    let (addr, server) = start_daemon(&root, 1);

    // the stop_after_blocks knob deterministically kills the first leg
    // after two merged blocks; the daemon requeues and the resume leg
    // picks up from the checkpoint
    let id = submit(
        addr,
        r#"{"kind":"campaign","nodes":256,"seed":"000000000000000b","stop_after_blocks":2}"#,
        5,
    );
    assert_eq!(await_terminal(addr, &id), "done");

    let (_, resp) = call(addr, "GET", &format!("/v1/jobs/{id}"), "");
    let attempts = field(&json(&resp), "attempts").as_u64().expect("attempts");
    assert_eq!(attempts, 2, "interrupt leg + resume leg");

    // interrupted-and-resumed == one uninterrupted run, byte for byte
    let (_, stored) = call(
        addr,
        "GET",
        &format!("/v1/jobs/{id}/artifacts/report.json"),
        "",
    );
    assert_eq!(
        stored,
        tinysdr_bench::campaign::campaign_json(256, 11).write_pretty()
    );
    // the checkpoint was consumed and removed on completion
    assert!(!root.join("jobs").join(&id).join("campaign.ckpt").exists());

    let (status, _) = call(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 202);
    server.join().expect("server thread").expect("clean exit");
}

#[test]
fn shutdown_preserves_work_and_restart_resumes_it() {
    let root = tmp_root("restart");
    let (addr, server) = start_daemon(&root, 1);

    // two campaigns on one worker, then an immediate shutdown: whatever
    // the interleaving (first job running-and-checkpointed, queued, or
    // already done), the restarted daemon must finish both with reports
    // byte-identical to direct runs
    let a = submit(
        addr,
        r#"{"kind":"campaign","nodes":256,"seed":"0000000000000009"}"#,
        5,
    );
    let b = submit(
        addr,
        r#"{"kind":"campaign","nodes":256,"seed":"000000000000000a"}"#,
        5,
    );
    let (status, _) = call(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 202);
    server.join().expect("server thread").expect("clean exit");

    let (addr, server) = start_daemon(&root, 1);
    assert_eq!(await_terminal(addr, &a), "done");
    assert_eq!(await_terminal(addr, &b), "done");
    let (_, got_a) = call(
        addr,
        "GET",
        &format!("/v1/jobs/{a}/artifacts/report.json"),
        "",
    );
    let (_, got_b) = call(
        addr,
        "GET",
        &format!("/v1/jobs/{b}/artifacts/report.json"),
        "",
    );
    assert_eq!(
        got_a,
        tinysdr_bench::campaign::campaign_json(256, 9).write_pretty()
    );
    assert_eq!(
        got_b,
        tinysdr_bench::campaign::campaign_json(256, 10).write_pretty()
    );

    let (status, _) = call(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 202);
    server.join().expect("server thread").expect("clean exit");
}
