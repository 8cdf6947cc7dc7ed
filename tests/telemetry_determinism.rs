//! Determinism and zero-overhead guarantees of the telemetry subsystem.
//!
//! Two claims are pinned here:
//!
//! 1. **Deterministic capture** — every `repro trace` artifact (summary,
//!    Prometheus dump, Chrome JSON, flamegraph) is byte-identical at any
//!    `--jobs` count and across repeated runs, because all records live in
//!    the simulated-cycle domain and merge in task order through the exec
//!    engine.
//! 2. **Architectural invisibility** — enabling the sink (and the
//!    per-function profiler) never changes what the simulated CPU retires:
//!    cycle counts, instruction counts and exit codes are identical with
//!    telemetry on, off, and with profiling attached.
//!
//! The telemetry store is process-global, so every test that enables the
//! sink or changes the job count serialises on one lock.

use pacstack::aarch64::{Cpu, Instruction, Profiler, Reg};
use pacstack::compiler::{lower, FuncDef, Module, Scheme, Stmt};
use pacstack::telemetry;
use pacstack::workloads::measure;
use pacstack_bench::{exec, tracecmd};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serialises tests touching the global telemetry store / job count.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the sink disabled, the store clean, and `jobs` workers,
/// restoring both afterwards.
fn with_clean_telemetry<T>(jobs: usize, f: impl FnOnce() -> T) -> T {
    let _guard = TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::disable();
    telemetry::reset();
    exec::set_jobs(jobs);
    let out = f();
    exec::set_jobs(0);
    telemetry::disable();
    telemetry::reset();
    out
}

#[test]
fn repro_trace_artifacts_are_identical_across_job_counts() {
    let sequential =
        with_clean_telemetry(1, || tracecmd::capture(true)).expect("capture at jobs=1");
    for jobs in [4, 4, 2] {
        let parallel =
            with_clean_telemetry(jobs, || tracecmd::capture(true)).expect("parallel capture");
        assert_eq!(
            sequential.stdout(),
            parallel.stdout(),
            "trace stdout diverged at jobs={jobs}"
        );
        assert_eq!(
            sequential.chrome_json, parallel.chrome_json,
            "trace.json diverged at jobs={jobs}"
        );
        assert_eq!(
            sequential.flame, parallel.flame,
            "flamegraph diverged at jobs={jobs}"
        );
    }
}

#[test]
fn repro_trace_quick_stdout_matches_the_golden_file() {
    let artifacts = with_clean_telemetry(1, || tracecmd::capture(true)).expect("quick capture");
    let golden = include_str!("golden/repro_trace_quick.txt");
    assert_eq!(
        artifacts.stdout(),
        golden,
        "`repro trace --quick` stdout drifted from tests/golden/repro_trace_quick.txt — \
         regenerate it with `repro trace --quick > tests/golden/repro_trace_quick.txt` \
         if the change is intentional"
    );
}

#[test]
fn enabled_sink_changes_no_architectural_state() {
    // The same workload, profiled and instrumented vs dark, must retire
    // identically — the zero-overhead claim is about *results* first.
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![
            Stmt::Loop(6, vec![Stmt::Call("f".into()), Stmt::MemAccess(2)]),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "f",
        vec![Stmt::Compute(3), Stmt::Call("g".into()), Stmt::Return],
    ));
    m.push(FuncDef::new("g", vec![Stmt::Compute(1), Stmt::Return]));
    for scheme in [Scheme::Baseline, Scheme::PacStack, Scheme::ShadowCallStack] {
        let dark = with_clean_telemetry(1, || measure::run_module(&m, scheme, 1_000_000));
        let lit = with_clean_telemetry(1, || {
            telemetry::enable();
            measure::run_module_profiled(&m, scheme, 1_000_000, "t")
        });
        assert_eq!(dark, lit, "telemetry changed a {scheme} run");
    }
}

#[test]
fn shadow_access_counter_equals_scs_pushes_plus_pops() {
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![Stmt::Loop(5, vec![Stmt::Call("f".into())]), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "f",
        vec![Stmt::Call("g".into()), Stmt::MemAccess(2), Stmt::Return],
    ));
    m.push(FuncDef::new("g", vec![Stmt::Compute(1), Stmt::Return]));
    let program = lower(&m, Scheme::ShadowCallStack);

    // Count the lowering's push and pop idioms by single-stepping.
    let (mut pushes, mut pops) = (0u64, 0u64);
    let mut cpu = Cpu::with_seed(program.clone(), 7);
    loop {
        match cpu.instruction_at(cpu.pc()) {
            Some(Instruction::StrPost(Reg::X30, Reg::SCS, 8)) => pushes += 1,
            Some(Instruction::LdrPre(Reg::X30, Reg::SCS, -8)) => pops += 1,
            _ => {}
        }
        if cpu.step().expect("clean run").is_some() {
            break;
        }
    }
    assert_eq!(pushes, pops);
    assert!(pushes >= 5, "main and f push LR: {pushes}");
    assert_eq!(cpu.shadow_accesses(), pushes + pops);

    let published = with_clean_telemetry(1, || {
        telemetry::enable();
        let mut cpu = Cpu::with_seed(program, 7);
        cpu.run(100_000).expect("clean run");
        (cpu.shadow_accesses(), telemetry::snapshot().counters)
    });
    assert_eq!(published.0, pushes + pops);
    assert_eq!(
        published.1.get("cpu_shadow_accesses_total"),
        Some(&(pushes + pops))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Disabled-sink runs and instrumented runs retire identical
    /// instruction and cycle counts over arbitrary generated programs.
    #[test]
    fn instrumented_runs_retire_identical_counts(seed in 0u64..1_000_000) {
        let module = pacstack::workloads::synth::generate(&Default::default(), seed);
        let program = lower(&module, Scheme::PacStack);
        let run_dark = with_clean_telemetry(1, || {
            let mut cpu = Cpu::with_seed(program.clone(), 7);
            cpu.run(2_000_000)
        });
        let run_lit = with_clean_telemetry(1, || {
            telemetry::enable();
            let mut cpu = Cpu::with_seed(program.clone(), 7);
            let mut profiler = Profiler::new(&cpu, 1 << 12);
            cpu.run_observed(2_000_000, |cpu, insn| profiler.observe(cpu, insn))
        });
        match (run_dark, run_lit) {
            (Ok(dark), Ok(lit)) => {
                prop_assert_eq!(dark.cycles, lit.cycles);
                prop_assert_eq!(dark.instructions, lit.instructions);
                prop_assert_eq!(dark.status, lit.status);
            }
            (dark, lit) => prop_assert_eq!(dark, lit),
        }
    }
}
