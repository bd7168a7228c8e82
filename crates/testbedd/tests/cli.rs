//! The `tinysdr-testbedd` command line: `--help` prints the usage, and
//! anything it does not understand fails loudly instead of serving.
//! Every case here exits before the daemon binds a port.

use std::process::{Command, Output};

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
