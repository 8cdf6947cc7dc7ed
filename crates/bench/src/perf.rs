//! The `repro perf` harness: one measurement per row of the current code,
//! compared with the previous committed bench file.
//!
//! Each row is measured once, printed as a human-readable table on stdout
//! and written as machine-readable JSON (default `BENCH_pr17.json`). Every
//! row's *before* is that row's *after* in one file: the highest-numbered
//! `BENCH_pr<N>.json` of the working directory other than the `--out`
//! file. A row that file lacks has no *before*. The committed files thus
//! form a performance trajectory:
//!
//! * **`qarma64_encrypt`** — QARMA-64 encryptions per second through a
//!   prebuilt instance on the dispatched fast path (SSSE3 where the CPU has
//!   it, the packed-nibble SWAR path elsewhere).
//! * **`pac_compute`** — [`PointerAuth::compute_pac`] throughput through the
//!   per-key cached cipher inside [`PaKeys`].
//! * **`pakeys_first_pac`** — what each Table 1 trial pays to start a
//!   process: [`PaKeys::from_seed`] plus the first IA MAC, which schedules
//!   the IA cipher.
//! * **`acs_call_ret`** — chained call+return pairs per second through
//!   [`AuthenticatedCallStack`] under the default (masked) [`AcsConfig`],
//!   on a chain four frames deep. Each return authenticates the link its
//!   call just made, so the row sees the latency of one link's MACs, which
//!   the independent inputs of `pac_compute` hide. Every return is checked.
//! * **`pac_insns`** — retired PAC instructions per second on the full CPU
//!   model running a sign/authenticate loop with the PAC memo cache on,
//!   each run on a clone of one prebuilt CPU, like `retire_alu`.
//! * **`retire_alu`**, **`retire_pac`** — retired instructions per second
//!   of [`Cpu::run`] alone, each run on a clone of one prebuilt CPU:
//!   `retire_alu` on an ALU/memory loop with no PA instruction,
//!   `retire_pac` on PACStack-lowered `perlbench` (Rate suite). The retire
//!   loop's rate without and with the PA instructions.
//! * **`chaos_trials`** — fault-injection trials per second with the empty
//!   plan on one target prepared by [`engine::prepare`] (PACStack, the
//!   chaos module): the per-trial copy of the base CPU plus one clean
//!   run through [`Cpu::run_observed`].
//! * **`repro_all_wall_jobs1`**, **`repro_all_wall_jobsauto`** — end-to-end
//!   wall time of `repro all`, re-executed as a child process with the
//!   telemetry sink off. The two runs' stdout is byte-compared.
//! * **`repro_all_wall_telemetry_on`** — the same `--jobs 1` run with the
//!   sink enabled (`PACSTACK_TELEMETRY=1`); its stdout must equal the
//!   sink-off run's byte for byte.
//! * **`repro_<exp>_wall_jobs1`** for each of `EXPERIMENTS` (`table1`, `figure5`,
//!   `table3`, `faults`) — one experiment alone at `--jobs 1`, telemetry off.
//!
//! The `repro_all_wall_jobs1` row is also gated against its baseline: more
//! than `CROSS_RUN_NOISE` (1.25) times slower is an error.
//!
//! All timings use a monotonic clock on the current machine.

use pacstack_aarch64::program::Op;
use pacstack_aarch64::{Cpu, Instruction, Program, Reg};
use pacstack_acs::{AcsConfig, AuthenticatedCallStack};
use pacstack_chaos::campaign::chaos_module;
use pacstack_chaos::{engine, InjectionPlan, TrialOutcome, TARGETS};
use pacstack_compiler::{lower, Scheme};
use pacstack_pauth::{PaKey, PaKeys, PointerAuth, VaLayout};
use pacstack_qarma::{Key128, Qarma64};
use pacstack_workloads::spec::{c_benchmark, Suite};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One row of the bench JSON, serialised verbatim.
#[derive(Debug, Clone)]
pub struct PerfRecord {
    /// Benchmark name (stable across PRs, so trajectories can be compared).
    pub bench: String,
    /// The row's `after` in the baseline bench file, if that file has it.
    pub before: Option<f64>,
    /// The current path's score.
    pub after: f64,
    /// Unit of both scores: `ops_per_s` (higher is better) or `ms` (lower
    /// is better).
    pub unit: &'static str,
    /// Worker-thread count the measurement ran under (0 = auto).
    pub jobs: usize,
}

impl PerfRecord {
    /// A row of the current code with no baseline yet.
    fn new(bench: impl Into<String>, after: f64, unit: &'static str, jobs: usize) -> Self {
        Self {
            bench: bench.into(),
            before: None,
            after,
            unit,
            jobs,
        }
    }

    /// The improvement factor, oriented so that > 1 always means "faster".
    fn speedup(&self) -> Option<f64> {
        let before = self.before?;
        Some(match self.unit {
            "ms" => before / self.after,
            _ => self.after / before,
        })
    }
}

/// Milliseconds of sustained measurement per rate row.
const TARGET_MS: u128 = 400;

/// Measures the sustained rate of `f` in operations per second: batches of
/// `batch` calls are timed until `target_ms` of wall time has accumulated.
fn measure_rate<F: FnMut(u64) -> u64>(batch: u64, target_ms: u128, mut f: F) -> f64 {
    // Warm-up batch, unmeasured (first-touch of tables, branch training).
    let mut sink = 0u64;
    for i in 0..batch {
        sink ^= f(i);
    }
    black_box(sink);
    let start = Instant::now();
    let mut ops = 0u64;
    let mut round = 1u64;
    while start.elapsed().as_millis() < target_ms {
        let base = round * batch;
        let mut sink = 0u64;
        for i in 0..batch {
            sink ^= f(base + i);
        }
        black_box(sink);
        ops += batch;
        round += 1;
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

/// QARMA-64 throughput through a prebuilt schedule on the path `encrypt`
/// dispatches to (SSSE3 on x86-64 CPUs that have it, packed SWAR otherwise).
fn bench_qarma() -> PerfRecord {
    let cipher = Qarma64::recommended(Key128::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9));
    let after = measure_rate(4096, TARGET_MS, |i| {
        cipher.encrypt(0xfb623599da6e8127 ^ i, 0x477d469dec0b8762)
    });
    PerfRecord::new("qarma64_encrypt", after, "ops_per_s", 1)
}

/// PAC computation throughput through the per-key cached cipher.
fn bench_pac_compute() -> PerfRecord {
    let pa = PointerAuth::new(VaLayout::default());
    let keys = PaKeys::from_seed(1);
    let after = measure_rate(4096, TARGET_MS, |i| {
        pa.compute_pac(&keys, PaKey::Ia, 0x40_1000 ^ (i << 4), i)
    });
    PerfRecord::new("pac_compute", after, "ops_per_s", 1)
}

/// Fresh keys plus their first IA MAC per operation — key generation and
/// the lazy IA cipher schedule, the set-up cost of one Table 1 trial.
fn bench_pakeys_first_pac() -> PerfRecord {
    let pa = PointerAuth::new(VaLayout::default());
    let after = measure_rate(512, TARGET_MS, |i| {
        let keys = PaKeys::from_seed(i);
        pa.compute_pac(&keys, PaKey::Ia, 0x40_1000, i)
    });
    PerfRecord::new("pakeys_first_pac", after, "ops_per_s", 1)
}

/// Chained call+return pairs per second on a masked chain four frames
/// deep; the first return that does not hand back its call's address is an
/// error.
fn bench_acs_call_ret() -> Result<PerfRecord, String> {
    let pa = PointerAuth::new(VaLayout::default());
    let mut acs = AuthenticatedCallStack::new(pa, PaKeys::from_seed(1), AcsConfig::default());
    for depth in 0..4u64 {
        acs.call(0x40_0000 + depth * 0x40);
    }
    let mut failed = None;
    let after = measure_rate(1024, TARGET_MS, |i| {
        let ret = 0x41_0000 + ((i & 0xFFFF) << 2);
        acs.call(ret);
        let got = acs.ret();
        if got != Ok(ret) && failed.is_none() {
            failed = Some((ret, got));
        }
        ret
    });
    if let Some((ret, got)) = failed {
        return Err(format!("acs_call_ret: return to {ret:#x} gave {got:?}"));
    }
    Ok(PerfRecord::new("acs_call_ret", after, "ops_per_s", 1))
}

/// A program that signs, authenticates and MACs in a counted loop — the
/// return-address churn of a deep call tree, distilled.
fn pac_loop_program(iterations: u64) -> Program {
    let mut p = Program::new();
    p.function_ops(
        "main",
        vec![
            Op::I(Instruction::MovImm(Reg::X1, iterations)),
            Op::Label("loop".into()),
            Op::I(Instruction::Paciasp),
            Op::I(Instruction::Autiasp),
            Op::I(Instruction::Pacga(Reg::X0, Reg::X30, Reg::Sp)),
            Op::I(Instruction::AddImm(Reg::X1, Reg::X1, -1)),
            Op::JumpNonZero(Reg::X1, "loop".into()),
            Op::I(Instruction::MovImm(Reg::X0, 0)),
            Op::I(Instruction::Ret),
        ],
    );
    p
}

/// Retired PAC instructions per second on the CPU model, memo on.
fn bench_pac_insns() -> Result<PerfRecord, String> {
    let iterations: u64 = 200_000;
    run_rate("pac_insns", pac_loop_program(iterations), |insns| {
        // 5 insns per pass + entry/exit glue; pinned by the unit test below.
        if insns != iterations * 5 + 5 {
            return Err(format!(
                "pac_insns loop retired {insns} instructions, expected {}",
                iterations * 5 + 5
            ));
        }
        // paciasp + autiasp + pacga per pass
        Ok(iterations * 3)
    })
}

/// An ALU/memory loop with no PA instruction: the straight-line work the
/// retire loop spends most of Figure 5 and Table 3 on, distilled.
fn alu_loop_program(iterations: u64) -> Program {
    let mut p = Program::new();
    p.function_ops(
        "main",
        vec![
            Op::I(Instruction::MovImm(Reg::X1, iterations)),
            Op::Label("loop".into()),
            Op::I(Instruction::Add(Reg::X0, Reg::X0, Reg::X1)),
            Op::I(Instruction::EorImm(Reg::X2, Reg::X0, 0x55)),
            Op::I(Instruction::Str(Reg::X2, Reg::Sp, -16)),
            Op::I(Instruction::Ldr(Reg::X3, Reg::Sp, -16)),
            Op::I(Instruction::Sub(Reg::X0, Reg::X0, Reg::X3)),
            Op::I(Instruction::AddImm(Reg::X1, Reg::X1, -1)),
            Op::JumpNonZero(Reg::X1, "loop".into()),
            Op::I(Instruction::MovImm(Reg::X0, 0)),
            Op::I(Instruction::Ret),
        ],
    );
    p
}

/// Operations per second over clean runs of `program`, each on a clone of
/// one CPU built up front, sampled until [`TARGET_MS`] of runs. Only
/// [`Cpu::run`] is timed. `count` turns one run's retired-instruction
/// count into the operations it stands for, or rejects the run.
fn run_rate(
    bench: &str,
    program: Program,
    count: impl Fn(u64) -> Result<u64, String>,
) -> Result<PerfRecord, String> {
    let base = Cpu::with_seed(program, 3);
    let run = || {
        let mut cpu = base.clone();
        let start = Instant::now();
        let outcome = cpu
            .run(u64::MAX)
            .map_err(|fault| format!("{bench} program faulted: {fault}"))?;
        let elapsed = start.elapsed();
        Ok::<_, String>((count(outcome.instructions)?, elapsed))
    };
    run()?; // warm-up, unmeasured
    let (mut ops, mut busy) = (0, Duration::ZERO);
    while busy.as_millis() < TARGET_MS {
        let (n, elapsed) = run()?;
        ops += n;
        busy += elapsed;
    }
    let rate = ops as f64 / busy.as_secs_f64();
    Ok(PerfRecord::new(bench, rate, "ops_per_s", 1))
}

/// Clean-plan trials per second on the prepared PACStack chaos target.
fn bench_chaos_trials() -> Result<PerfRecord, String> {
    let prepared = engine::prepare(TARGETS[1], &chaos_module(), 0xFEED)
        .map_err(|e| format!("chaos_trials target: {e}"))?;
    let plan = InjectionPlan::default();
    let after = measure_rate(64, TARGET_MS, |_| {
        u64::from(prepared.run_plan(&plan) == TrialOutcome::Masked)
    });
    Ok(PerfRecord::new("chaos_trials", after, "ops_per_s", 1))
}

/// Runs `repro <target>` as a child process and returns its stdout and
/// wall-time row. `telemetry` enables the telemetry sink in the child via
/// `PACSTACK_TELEMETRY=1` (capture only, no export I/O).
fn bench_e2e(target: &str, jobs: usize, telemetry: bool) -> Result<(Vec<u8>, PerfRecord), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate repro binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(target).stderr(Stdio::null());
    if jobs > 0 {
        cmd.arg("--jobs").arg(jobs.to_string());
    }
    if telemetry {
        cmd.env("PACSTACK_TELEMETRY", "1");
    } else {
        cmd.env_remove("PACSTACK_TELEMETRY");
    }
    let start = Instant::now();
    let out = cmd
        .output()
        .map_err(|e| format!("failed to run repro {target}: {e}"))?;
    let wall = start.elapsed().as_secs_f64() * 1e3;
    if !out.status.success() {
        return Err(format!("repro {target} exited with {}", out.status));
    }
    let bench = if telemetry {
        format!("repro_{target}_wall_telemetry_on")
    } else if jobs == 0 {
        format!("repro_{target}_wall_jobsauto")
    } else {
        format!("repro_{target}_wall_jobs{jobs}")
    };
    Ok((out.stdout, PerfRecord::new(bench, wall, "ms", jobs)))
}

/// Noise band for the wall-clock gate against the baseline file: timings
/// from another run (and possibly another machine state) jitter far beyond
/// the per-call cost being guarded, so this gate only catches gross
/// regressions. The same-run byte comparisons are the precise checks.
const CROSS_RUN_NOISE: f64 = 1.25;

/// Extracts the `after` score of one bench entry from a committed
/// `BENCH_*.json` file (the schema is our own `to_json` output).
fn baseline_after(json: &str, bench: &str) -> Option<f64> {
    let entry = json.find(&format!("\"bench\": \"{bench}\""))?;
    let rest = &json[entry..];
    let field = rest.find("\"after\": ")?;
    let tail = &rest[field + "\"after\": ".len()..];
    let end = tail.find([',', '\n', '}'])?;
    tail[..end].trim().parse().ok()
}

/// Picks the baseline among the working directory's file names: the
/// `BENCH_pr<N>.json` with the highest `N` (compared as numbers), skipping
/// `out` (the file this run is about to write).
fn baseline_file<'a>(names: impl IntoIterator<Item = &'a str>, out: &Path) -> Option<&'a str> {
    let out = out.strip_prefix(".").unwrap_or(out);
    names
        .into_iter()
        .filter(|name| Path::new(name) != out)
        .filter_map(|name| {
            let n = name.strip_prefix("BENCH_pr")?.strip_suffix(".json")?;
            Some((n.parse::<u64>().ok()?, name))
        })
        .max_by_key(|&(n, _)| n)
        .map(|(_, name)| name)
}

/// Reads the baseline bench file of the working directory as
/// `(file name, contents)`.
fn read_baseline(out: &Path) -> Option<(String, String)> {
    let names: Vec<String> = std::fs::read_dir(".")
        .ok()?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .collect();
    let name = baseline_file(names.iter().map(String::as_str), out)?;
    Some((name.to_owned(), std::fs::read_to_string(name).ok()?))
}

/// Serialises the records as a JSON array matching the committed
/// `BENCH_*.json` schema: `{bench, before?, after, unit, jobs}`.
fn to_json(records: &[PerfRecord]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str("  {\n");
        let _ = writeln!(s, "    \"bench\": \"{}\",", r.bench);
        if let Some(b) = r.before {
            let _ = writeln!(s, "    \"before\": {b:.1},");
        }
        let _ = writeln!(s, "    \"after\": {:.1},", r.after);
        let _ = writeln!(s, "    \"unit\": \"{}\",", r.unit);
        let _ = writeln!(s, "    \"jobs\": {}", r.jobs);
        s.push_str(if i + 1 == records.len() {
            "  }\n"
        } else {
            "  },\n"
        });
    }
    s.push_str("]\n");
    s
}

/// Formats the human-readable results table; the header names the bench
/// file every `before` came from.
fn render_table(records: &[PerfRecord], baseline: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Performance, before = {baseline}");
    let _ = writeln!(
        s,
        "{:<32} {:>14} {:>14} {:>9}  unit",
        "bench", "before", "after", "speedup"
    );
    for r in records {
        let before = r
            .before
            .map_or_else(|| "-".to_owned(), |b| format!("{b:.0}"));
        let speedup = r
            .speedup()
            .map_or_else(|| "-".to_owned(), |f| format!("{f:.2}x"));
        let _ = writeln!(
            s,
            "{:<32} {:>14} {:>14.0} {:>9}  {}",
            r.bench, before, r.after, speedup, r.unit
        );
    }
    s
}

/// The experiments timed alone, one `repro <exp> --jobs 1` child each:
/// the ones the benchmark's workloads run.
const EXPERIMENTS: [&str; 4] = ["table1", "figure5", "table3", "faults"];

/// Runs the perf suite, prints the table to stdout and writes the JSON
/// trajectory file to `out`.
///
/// # Errors
///
/// Returns a message when the child `repro` processes cannot be spawned,
/// when their stdout differs between job counts or telemetry settings, or
/// when the `repro all --jobs 1` wall time exceeds the baseline's by more
/// than `CROSS_RUN_NOISE` (1.25).
pub fn run(out: &Path) -> Result<(), String> {
    let perlbench = c_benchmark("perlbench")
        .ok_or("no perlbench profile")?
        .module(Suite::Rate);
    let mut records = vec![
        bench_qarma(),
        bench_pac_compute(),
        bench_pakeys_first_pac(),
        bench_acs_call_ret()?,
        bench_pac_insns()?,
        // Retired instructions per second: each run counts as its own.
        run_rate("retire_alu", alu_loop_program(100_000), Ok)?,
        run_rate("retire_pac", lower(&perlbench, Scheme::PacStack), Ok)?,
        bench_chaos_trials()?,
    ];
    let (off_out, off) = bench_e2e("all", 1, false)?;
    records.push(off);
    let (auto_out, auto) = bench_e2e("all", 0, false)?;
    if auto_out != off_out {
        return Err(format!(
            "determinism gate FAILED: `repro all` stdout differs between \
             --jobs 1 and auto jobs ({} vs {} bytes)",
            off_out.len(),
            auto_out.len()
        ));
    }
    records.push(auto);
    let (on_out, on) = bench_e2e("all", 1, true)?;
    if on_out != off_out {
        return Err(format!(
            "telemetry gate FAILED: `repro all` stdout differs with the sink \
             enabled vs disabled ({} vs {} bytes) — instrumentation changed results",
            on_out.len(),
            off_out.len()
        ));
    }
    records.push(on);
    for experiment in EXPERIMENTS {
        records.push(bench_e2e(experiment, 1, false)?.1);
    }

    let baseline = read_baseline(out);
    for r in &mut records {
        r.before = baseline
            .as_ref()
            .and_then(|(_, json)| baseline_after(json, &r.bench));
    }
    let name = baseline
        .as_ref()
        .map_or("no BENCH_pr<N>.json", |(name, _)| name.as_str());
    let gated = "repro_all_wall_jobs1";
    let row = records.iter().find(|r| r.bench == gated);
    match row.and_then(|r| Some((r.before?, r.after))) {
        Some((before, after)) if after > before * CROSS_RUN_NOISE => {
            return Err(format!(
                "cross-run gate FAILED: `repro all --jobs 1` took {after:.0} ms, \
                 more than {CROSS_RUN_NOISE}x the {before:.0} ms in {name}"
            ));
        }
        Some((before, after)) => eprintln!(
            "cross-run gate: {gated} {after:.0} ms within {CROSS_RUN_NOISE}x of \
             {before:.0} ms in {name}"
        ),
        None => eprintln!("{name} has no {gated} entry; skipping cross-run gate"),
    }

    print!("{}", render_table(&records, name));
    println!("telemetry gate: enabled and disabled sinks produced byte-identical stdout");
    std::fs::write(out, to_json(&records))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    /// A row that already carries a `before`.
    fn with_before(bench: &str, before: f64, after: f64, unit: &'static str) -> PerfRecord {
        PerfRecord {
            before: Some(before),
            ..PerfRecord::new(bench, after, unit, 1)
        }
    }

    #[test]
    fn json_matches_the_documented_schema() {
        let records = vec![
            with_before("qarma64_encrypt", 1000.0, 5000.0, "ops_per_s"),
            PerfRecord::new("repro_all_wall_jobsauto", 1234.5, "ms", 0),
        ];
        let json = to_json(&records);
        assert!(json.contains("\"bench\": \"qarma64_encrypt\""));
        assert!(json.contains("\"before\": 1000.0"));
        assert!(json.contains("\"after\": 5000.0"));
        assert!(json.contains("\"unit\": \"ops_per_s\""));
        assert!(json.contains("\"jobs\": 0"));
        // The optional field really is omitted when absent.
        let tail = json.split("repro_all_wall_jobsauto").nth(1).unwrap();
        assert!(!tail.contains("before"));
    }

    #[test]
    fn speedup_orients_both_units_as_faster_is_greater() {
        let rate = with_before("r", 100.0, 500.0, "ops_per_s");
        let wall = with_before("w", 500.0, 100.0, "ms");
        assert_eq!(rate.speedup(), Some(5.0));
        assert_eq!(wall.speedup(), Some(5.0));
    }

    #[test]
    fn baseline_after_reads_the_committed_schema() {
        let json = to_json(&[
            with_before("repro_all_wall_jobs1", 900.0, 850.5, "ms"),
            PerfRecord::new("repro_all_wall_jobsauto", 300.0, "ms", 0),
        ]);
        assert_eq!(baseline_after(&json, "repro_all_wall_jobs1"), Some(850.5));
        assert_eq!(
            baseline_after(&json, "repro_all_wall_jobsauto"),
            Some(300.0)
        );
        assert_eq!(baseline_after(&json, "no_such_bench"), None);
    }

    #[test]
    fn baseline_is_the_highest_numbered_bench_file() {
        let out = Path::new("bench-ci.json");
        let names = ["BENCH_pr7.json", "BENCH_pr10.json", "BENCH_pr3.json"];
        // A lexicographic comparison would pick pr7.
        assert_eq!(baseline_file(names, out), Some("BENCH_pr10.json"));
        assert_eq!(baseline_file(["README.md"], out), None);
    }

    #[test]
    fn baseline_skips_the_out_file() {
        let names = ["BENCH_pr7.json", "BENCH_pr8.json"];
        assert_eq!(
            baseline_file(names, Path::new("BENCH_pr8.json")),
            Some("BENCH_pr7.json")
        );
        assert_eq!(
            baseline_file(names, Path::new("./BENCH_pr8.json")),
            Some("BENCH_pr7.json")
        );
    }

    #[test]
    fn baseline_ignores_other_file_names() {
        let names = [
            "BENCH_pr3.json.bak",
            "bench-ci.json",
            "BENCH_prX.json",
            "BENCH_pr4.json",
        ];
        assert_eq!(
            baseline_file(names, Path::new("BENCH_pr8.json")),
            Some("BENCH_pr4.json")
        );
    }

    #[test]
    fn alu_loop_program_retires_no_pa_instruction() {
        let mut cpu = Cpu::with_seed(alu_loop_program(10), 3);
        let outcome = cpu.run(1_000).unwrap();
        assert_eq!(outcome.instructions, 10 * 7 + 5);
        assert_eq!(cpu.counters().pointer_auth, 0);
    }

    #[test]
    fn pac_loop_program_retires_the_expected_instruction_count() {
        let mut cpu = Cpu::with_seed(pac_loop_program(10), 3);
        let outcome = cpu.run(1_000).unwrap();
        assert_eq!(outcome.instructions, 10 * 5 + 5);
    }
}
