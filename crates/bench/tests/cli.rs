//! The command line of the `repro` binary.
//!
//! A flag that would do nothing, an unknown experiment and a bad `--jobs`
//! value each exit 1 with a message on stderr, before any experiment prints
//! to stdout or `--save` creates its directory. `--out` captures telemetry
//! for any experiment without changing its stdout, and `--save` names each
//! file after its experiment's row.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot start repro {args:?}: {e}"))
}

/// A fresh, absent directory under the test target's scratch space.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts that `repro args` exits 1 with nothing on stdout and returns its
/// stderr.
fn assert_rejected(args: &[&str]) -> String {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(1), "repro {args:?}");
    assert!(
        out.stdout.is_empty(),
        "repro {args:?} printed to stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(!out.stderr.is_empty(), "repro {args:?} gave no message");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn quick_outside_trace_is_rejected() {
    assert_rejected(&["figure5", "--quick"]);
}

#[test]
fn rejected_flags_leave_no_save_directory() {
    let dir = scratch("repro-cli-rejected-save");
    let save = dir.to_str().expect("temporary path is UTF-8");
    assert_rejected(&["figure5", "--save", save, "--quick"]);
    assert!(!dir.exists(), "{} was created", dir.display());
}

#[test]
fn unknown_experiment_lists_the_valid_names() {
    for unknown in ["table9", "perf"] {
        let stderr = assert_rejected(&[unknown]);
        for name in ["table1", "faults"] {
            assert!(stderr.contains(name), "{name} missing from: {stderr}");
        }
    }
}

#[test]
fn bad_jobs_value_is_rejected() {
    assert_rejected(&["birthday", "--jobs", "-2"]);
}

#[test]
fn out_captures_any_experiment_without_changing_stdout() {
    let dir = scratch("repro-cli-games-out");
    let plain = repro(&["games"]);
    let captured = repro(&["games", "--out", dir.to_str().expect("UTF-8 path")]);
    assert!(plain.status.success() && captured.status.success());
    assert_eq!(
        String::from_utf8_lossy(&captured.stdout),
        String::from_utf8_lossy(&plain.stdout)
    );
    for file in ["metrics.prom", "trace.json", "flamegraph.txt"] {
        assert!(dir.join(file).is_file(), "{file} not written");
    }
    let metrics = std::fs::read_to_string(dir.join("metrics.prom")).expect("readable");
    assert!(metrics.contains("pauth_keygens_total"), "{metrics}");
}

#[test]
fn save_uses_the_row_file_name() {
    let dir = scratch("repro-cli-gadget-save");
    let out = repro(&["gadget", "--save", dir.to_str().expect("UTF-8 path")]);
    assert!(out.status.success());
    let saved = std::fs::read_to_string(dir.join("attack_matrix.txt"))
        .expect("gadget saves attack_matrix.txt");
    assert_eq!(format!("{saved}\n"), String::from_utf8_lossy(&out.stdout));
}
