//! The `repro` command line: known experiments run, typos fail loudly.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Output, Stdio};

use tinysdr_ota::json::Value;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn known_experiment_runs_and_exits_zero() {
    let out = repro(&["--quick", "table1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 1"));
}

#[test]
fn misspelled_experiment_prints_usage_and_exits_two() {
    for args in [
        &["--quick", "tabel1"][..],
        &["table1", "fig99"],
        &["--quik", "table1"],
        &[],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: repro"),
            "{args:?}"
        );
    }
}

#[test]
fn a_label_needs_a_value_and_perf() {
    for args in [
        &["perf", "--label"][..],
        &["--label", "--quick", "perf"],
        &["--label", "a", "--label", "b", "perf"],
        &["--quick", "--label", "x", "table1"],
        &["--json", "--label", "x", "link"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: repro"),
            "{args:?}"
        );
    }
}

#[test]
fn columns_time_the_waterfall_alone() {
    for args in [
        &["--columns", "table1"][..],
        &["--columns", "waterfall", "fig15a"],
        &["--json", "--columns", "waterfall"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: repro"),
            "{args:?}"
        );
    }
    // one row per quick-grid column, then the total
    let out = repro(&["--quick", "--columns", "waterfall"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for column in ["clean", "cfo30", "timing0.25", "total"] {
        assert!(stdout.contains(column), "{column} missing from {stdout}");
    }
}

#[test]
fn an_equivalence_gate_needs_one_full_run_and_a_report() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let (waterfall, link) = (
        data.join("waterfall_beef.json"),
        data.join("link_beef.json"),
    );
    let (waterfall, link) = (waterfall.to_str().unwrap(), link.to_str().unwrap());
    // misuse of the flag prints the usage line
    for args in [
        &["waterfall", "--equivalence"][..],
        &["--equivalence", "--quick", "waterfall"],
        &["--equivalence", link, "--equivalence", link, "link"],
        &["--json", "--equivalence", waterfall, "waterfall"],
        &["--quick", "--equivalence", link, "link"],
        &["--columns", "--equivalence", waterfall, "waterfall"],
        &["--label", "x", "--equivalence", link, "link"],
        &["--equivalence", waterfall, "table1"],
        &["--equivalence", waterfall, "waterfall", "link"],
        &["--equivalence", waterfall],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: repro"),
            "{args:?}"
        );
    }
    // a baseline that cannot be read, or is not a report of the gated
    // experiment, stops the gate before it runs anything
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let manifest = manifest.to_str().unwrap();
    for args in [
        &["waterfall", "--equivalence", "/nonexistent/baseline.json"][..],
        &["link", "--equivalence", manifest],
        &["waterfall", "--equivalence", link],
        &["link", "--equivalence", waterfall],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert!(!out.stderr.is_empty(), "{args:?}");
    }
}

/// The points of the trajectory file at `path`.
fn points(path: &Path) -> Vec<Value> {
    let doc = Value::parse(&std::fs::read_to_string(path).expect("trajectory exists"))
        .expect("trajectory parses");
    doc.get("points")
        .and_then(Value::as_arr)
        .expect("trajectory has points")
        .to_vec()
}

fn full_points(points: &[Value]) -> Vec<&Value> {
    points
        .iter()
        .filter(|p| p.get("mode").and_then(Value::as_str) != Some("quick"))
        .collect()
}

#[test]
fn a_label_names_the_campaign_and_link_points() {
    for (experiment, file) in [
        ("campaign", "BENCH_campaign.json"),
        ("link", "BENCH_link.json"),
    ] {
        // run on a copy of the committed trajectory in a directory of
        // its own, so the committed file is never written
        let dir = std::env::temp_dir().join(format!("tinysdr_repro_label_{experiment}"));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let committed = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(file);
        let copy = dir.join(file);
        std::fs::copy(&committed, &copy).expect("copies the trajectory");
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--quick", "--label", "rev a", experiment])
            .current_dir(&dir)
            .output()
            .expect("repro binary runs");
        assert_eq!(out.status.code(), Some(0), "{experiment}: {out:?}");
        let (before, after) = (points(&committed), points(&copy));
        let last = after.last().expect("a point was appended");
        assert_eq!(last.get("mode").and_then(Value::as_str), Some("quick"));
        assert_eq!(
            last.get("label").and_then(Value::as_str),
            Some("rev a"),
            "{experiment}"
        );
        // the recorded points stay as they were
        assert_eq!(full_points(&after), full_points(&before), "{experiment}");
    }
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // table1 prints at once, then fig15a computes before it prints: the
    // reader is gone by then, so fig15a's output meets a closed pipe
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "table1", "fig15a"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro binary runs");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut first = String::new();
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("reads the first line");
    // the reader (and with it the pipe's only read end) is dropped here
    let out = child.wait_with_output().expect("repro exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
