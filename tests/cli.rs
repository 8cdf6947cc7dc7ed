//! The command line of the `pacstack-run` binary.
//!
//! A program that exits prints its emitted values and its exit line and
//! exits 0; an unknown flag or an unreadable file exits 1 with a message on
//! stderr and nothing on stdout.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn pacstack_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pacstack-run"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot start pacstack-run {args:?}: {e}"))
}

/// Asserts that `pacstack-run args` exits 1 with nothing on stdout and a
/// message on stderr.
fn assert_rejected(args: &[&str]) {
    let out = pacstack_run(args);
    assert_eq!(out.status.code(), Some(1), "pacstack-run {args:?}");
    assert!(
        out.stdout.is_empty(),
        "pacstack-run {args:?} printed to stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        !out.stderr.is_empty(),
        "pacstack-run {args:?} gave no message"
    );
}

#[test]
fn demo_program_runs_to_its_exit() {
    let demo = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/demo.s");
    let out = pacstack_run(&[demo.to_str().expect("UTF-8 path")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "emit: 0x24\nexit: 0x24 (24 instructions, 440 cycles)\n"
    );
}

#[test]
fn unknown_flag_is_rejected() {
    assert_rejected(&["--bogus"]);
}

#[test]
fn missing_file_is_rejected() {
    let missing = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no-such-program.s");
    let _ = std::fs::remove_file(&missing);
    assert_rejected(&[missing.to_str().expect("UTF-8 path")]);
}
