//! Parallel-equals-sequential guarantees for the experiment engine.
//!
//! Every Monte Carlo trial and sweep item draws from its own RNG stream
//! derived purely from `(experiment, trial-index)`, and the engine merges
//! worker results in index order — so the numbers (and therefore the
//! rendered tables) must be **byte-identical at any `--jobs` count**, and
//! stable across repeated same-seed invocations. These tests pin exactly
//! that, over every experiment the `repro` binary exposes plus the raw
//! Monte Carlo entry points underneath them.

use pacstack::acs::Masking;
use pacstack::compiler::Scheme;
use pacstack_bench::{exec, experiments, render};
use std::sync::Mutex;

/// `exec::set_jobs` is process-global, so runs at different job counts must
/// not interleave across test threads.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` at jobs = 1, then twice at each of the given parallel job
/// counts, asserting every run produces the same value. Returns the
/// sequential result for any further shape checks.
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

/// Every table the `repro` binary prints, rendered to its final string form
/// with moderate parameters — the strongest form of the guarantee, since it
/// is exactly what `repro --jobs N` writes to stdout.
#[test]
fn every_repro_table_is_identical_across_job_counts() {
    let all_tables = || {
        let mut out = String::new();
        for b in [4u32, 6] {
            out.push_str(&render::table1(&experiments::table1(b, 400, 0x71), b));
        }
        let fig5 = experiments::figure5();
        out.push_str(&render::figure5(&fig5));
        out.push_str(&render::table2(
            &experiments::table2(&fig5),
            experiments::cpp_aggregate(),
        ));
        out.push_str(&render::table3(&experiments::table3(2, 42)));
        out.push_str(&render::birthday(&experiments::birthday(&[6, 8], 15, 7)));
        out.push_str(&render::guessing(&experiments::guessing_costs(&[6], 60)));
        out.push_str(&render::attack_matrix(&experiments::attack_matrix()));
        out.push_str(&render::ablations(&experiments::ablations()));
        out.push_str(&render::games(&experiments::collision_games(
            &[4, 6],
            10,
            5,
        )));
        out.push_str(&render::pac_width(&experiments::pac_width_sweep()));
        out.push_str(&render::confirm(&experiments::confirm_table()));
        out.push_str(&render::instruction_mix(&experiments::instruction_mix()));
        out.push_str(&render::reuse(&experiments::reuse_opportunities()));
        out
    };
    let rendered = assert_deterministic("repro tables", &[4], all_tables);
    assert!(!rendered.is_empty());
}

/// The raw Monte Carlo attack entry points underneath the tables, compared
/// as structured results (success counts, means) rather than rendered text,
/// at several worker counts including one that does not divide the trial
/// count evenly.
#[test]
fn raw_attack_monte_carlos_are_identical_across_job_counts() {
    let sweep = || {
        let mut mc = Vec::new();
        for masking in [Masking::Masked, Masking::Unmasked] {
            mc.push(pacstack::attacks::collision::on_graph_attack(
                6, masking, 1_000, 0xA5,
            ));
            mc.push(pacstack::attacks::offgraph::to_call_site(
                6, masking, 1_000, 0xA5,
            ));
            mc.push(pacstack::attacks::offgraph::to_arbitrary_address(
                6, masking, 1_000, 0xA5,
            ));
        }
        mc
    };
    assert_deterministic("attack monte carlos", &[3, 4], sweep);
}

/// Guessing-cost and online-attack means, whose trial bodies ignore the
/// engine RNG but still rely on index-ordered merging.
#[test]
fn guessing_and_online_means_are_identical_across_job_counts() {
    let means = || {
        let dac = pacstack::attacks::guessing::mean_cost("determinism", 40, |i| {
            pacstack::attacks::guessing::divide_and_conquer(6, 0xBEEF ^ i).total()
        });
        let online = pacstack::attacks::online::mean_attempts(Scheme::PacStack, 3, 8, 0xC0FFEE);
        (dac.to_bits(), online.to_bits())
    };
    assert_deterministic("guessing/online means", &[4], means);
}

/// The NGINX SSL-TPS workload: per-run handshake jitter comes from the
/// engine's per-trial streams, so mean and sigma must not move with the
/// worker count.
#[test]
fn ssl_tps_is_identical_across_job_counts() {
    let tps =
        || pacstack::workloads::nginx::ssl_tps(&[Scheme::Baseline, Scheme::PacStack], &[4], 6, 42);
    assert_deterministic("ssl_tps", &[2, 4], tps);
}
