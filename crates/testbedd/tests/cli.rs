//! The `tinysdr-testbedd` command line: `--help` prints the usage,
//! anything it does not understand fails loudly instead of serving, and
//! `--bench --label` names the trajectory points it appends. No case
//! here binds a port.

use std::path::Path;
use std::process::{Command, Output};

use tinysdr_ota::json::Value;

fn testbedd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tinysdr-testbedd"))
        .args(args)
        .output()
        .expect("tinysdr-testbedd binary runs")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = testbedd(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage:"), "{stdout}");
    assert!(stdout.contains("--workers N"), "{stdout}");
}

#[test]
fn bad_arguments_print_usage_and_exit_two() {
    for args in [
        &["--benhc"][..],
        &["--workers", "x"],
        &["--workers"],
        &["serve"],
    ] {
        let out = testbedd(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} started something");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
    }
}

#[test]
fn a_label_needs_a_value_and_bench() {
    for args in [
        &["--bench", "--label"][..],
        &["--label", "--bench"],
        &["--bench", "--label", "a", "--label", "b"],
        &["--label", "x"],
        &["--smoke", "--label", "x"],
    ] {
        let out = testbedd(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} started something");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
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

#[test]
fn a_label_names_the_bench_points() {
    // run on a copy of the committed trajectory in a directory of its
    // own, so the committed file is never written
    let dir = std::env::temp_dir().join("tinysdr_testbedd_label");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_testbedd.json");
    let copy = dir.join("BENCH_testbedd.json");
    std::fs::copy(&committed, &copy).expect("copies the trajectory");
    let out = Command::new(env!("CARGO_BIN_EXE_tinysdr-testbedd"))
        .args(["--bench", "--label", "rev a", "--root"])
        .arg(dir.join("root"))
        .current_dir(&dir)
        .output()
        .expect("tinysdr-testbedd binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let (before, after) = (points(&committed), points(&copy));
    // one point per worker count, each named by the label
    assert_eq!(after.len(), before.len() + 3);
    for point in &after[before.len()..] {
        assert_eq!(point.get("label").and_then(Value::as_str), Some("rev a"));
    }
    // the recorded points stay as they were
    assert_eq!(after[..before.len()], before[..]);
    std::fs::remove_dir_all(&dir).ok();
}
