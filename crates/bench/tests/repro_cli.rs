//! The `repro` command line: known experiments run, typos fail loudly.

use std::process::{Command, Output};

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
