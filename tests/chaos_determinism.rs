//! Determinism guarantees for the fault-injection engine.
//!
//! Chaos campaigns fan trials out over the `pacstack-exec` worker pool;
//! like every other experiment, their results — down to the rendered
//! `repro faults` section — must be **byte-identical at any `--jobs`
//! count** and stable across repeated same-seed invocations.

use pacstack::chaos::campaign::{self, chaos_module, CellCounts};
use pacstack::chaos::FaultClass;
use pacstack_bench::{exec, experiments, render};
use std::sync::Mutex;

/// `exec::set_jobs` is process-global, so runs at different job counts must
/// not interleave across test threads.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` at jobs = 1, then twice at each parallel job count, asserting
/// every run produces the same value.
fn assert_deterministic<T, F>(label: &str, parallel_jobs: &[usize], f: F) -> T
where
    T: PartialEq + std::fmt::Debug,
    F: Fn() -> T,
{
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    exec::set_jobs(1);
    let sequential = f();
    for &jobs in parallel_jobs {
        exec::set_jobs(jobs);
        let first = f();
        let second = f();
        exec::set_jobs(0);
        assert_eq!(
            sequential, first,
            "{label}: jobs={jobs} diverged from jobs=1"
        );
        assert_eq!(
            first, second,
            "{label}: two same-seed invocations diverged at jobs={jobs}"
        );
    }
    exec::set_jobs(0);
    sequential
}

/// The rendered `repro faults` section — exactly what `repro faults
/// --jobs N` writes to stdout — is byte-identical at jobs 1 and 4.
#[test]
fn rendered_faults_section_is_identical_across_job_counts() {
    let section = || {
        let report = experiments::faults(4, 0xFA17).expect("campaign prepares");
        render::faults(&report)
    };
    let rendered = assert_deterministic("repro faults", &[4], section);
    assert!(rendered.contains("fault-injection detection coverage"));
    assert!(rendered.contains("crash-restart supervisor"));
}

/// The raw coverage matrix underneath the rendering, compared cell by
/// cell (including host-panic counts) at an uneven worker count.
#[test]
fn coverage_cells_are_identical_across_job_counts() {
    let matrix = || {
        let report = campaign::coverage(&chaos_module(), 3, 0xC0DE).expect("campaign prepares");
        report
            .iter()
            .map(|t| {
                let cells: Vec<CellCounts> = FaultClass::ALL.iter().map(|c| *t.cell(*c)).collect();
                (t.label, cells, t.host_panics)
            })
            .collect::<Vec<_>>()
    };
    let report = assert_deterministic("coverage matrix", &[3, 4], matrix);
    for (label, cells, host_panics) in &report {
        assert_eq!(*host_panics, 0, "{label} panicked");
        let total: u64 = cells.iter().map(CellCounts::total).sum();
        assert_eq!(total, 3 * FaultClass::ALL.len() as u64, "{label}");
    }
}
