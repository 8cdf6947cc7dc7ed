//! Argument handling of the `repro` binary: a flag that would do nothing, an
//! unknown experiment and a bad `--jobs` value each exit 1 with a message on
//! stderr, before any experiment prints to stdout or `--save` creates its
//! directory.

use std::process::Command;

fn assert_rejected(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env_remove("PACSTACK_TELEMETRY")
        .output()
        .unwrap_or_else(|e| panic!("cannot start repro {args:?}: {e}"));
    assert_eq!(out.status.code(), Some(1), "repro {args:?}");
    assert!(
        out.stdout.is_empty(),
        "repro {args:?} printed to stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(!out.stderr.is_empty(), "repro {args:?} gave no message");
}

#[test]
fn quick_outside_trace_is_rejected() {
    assert_rejected(&["figure5", "--quick"]);
}

#[test]
fn rejected_flags_leave_no_save_directory() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-cli-rejected-save");
    let _ = std::fs::remove_dir_all(&dir);
    let save = dir.to_str().expect("temporary path is UTF-8");
    assert_rejected(&["figure5", "--save", save, "--quick"]);
    assert!(!dir.exists(), "{} was created", dir.display());
}

#[test]
fn out_outside_trace_is_rejected() {
    assert_rejected(&["table1", "--out", "x"]);
}

#[test]
fn perf_is_an_unknown_experiment() {
    assert_rejected(&["perf"]);
}

#[test]
fn bad_jobs_value_is_rejected() {
    assert_rejected(&["birthday", "--jobs", "-2"]);
}
