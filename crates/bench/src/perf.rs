//! The `repro perf` harness: before/after measurements of the PAC fast path.
//!
//! Three layers of the pipeline are measured, each against the path it
//! replaced, and the results are written both as a human-readable table on
//! stdout and as machine-readable JSON (default `BENCH_pr7.json`) so the
//! repository accumulates a performance trajectory over time:
//!
//! * **`qarma_encrypt`** — raw QARMA-64 throughput. *Before* re-derives the
//!   key schedule on every call and runs the cell-based reference data path
//!   (the original cost profile of `Qarma64::recommended` per call); *after*
//!   encrypts through a prebuilt instance on the dispatched fast path (SSSE3
//!   where the CPU has it, the packed-nibble SWAR path elsewhere).
//! * **`pac_compute`** — [`PointerAuth::compute_pac`] throughput. *Before*
//!   is [`PointerAuth::compute_pac_reference`] (schedule re-derived per MAC);
//!   *after* uses the per-key cached cipher inside [`PaKeys`].
//! * **`pakeys_first_pac`** — what each Table 1 trial pays to start a
//!   process: [`PaKeys::from_seed`] plus the first IA MAC, which schedules
//!   the IA cipher. After-only; no replaced path runs alongside it.
//! * **`pac_insns`** — retired PAC instructions per second on the full CPU
//!   model running a sign/authenticate loop, with the direct-mapped PAC memo
//!   cache disabled (*before*) and enabled (*after*). Both arms already use
//!   the cached packed cipher, so this isolates the memo layer alone.
//! * **`repro_* wall time`** — end-to-end wall time of the experiment
//!   driver, re-executed as a child process with `PACSTACK_REFERENCE_PAC=1`
//!   (*before*: reference cipher, no caches) and without it (*after*: the
//!   full fast path). The two arms' stdout is byte-compared and any
//!   difference is a hard error — the optimisation gate is that caching
//!   changes no numbers.
//!
//! * **`repro_* wall telemetry`** — the zero-overhead-when-disabled gate
//!   for the telemetry subsystem: the same end-to-end run with the sink
//!   enabled (`PACSTACK_TELEMETRY=1`, *before*) and disabled (*after*),
//!   byte-comparing stdout, plus a coarse cross-run comparison against the
//!   committed `BENCH_pr3.json` after-arm.
//!
//! All timings use a monotonic clock on the current machine; before/after
//! pairs in one JSON file are always from the same run.

use pacstack_aarch64::program::Op;
use pacstack_aarch64::{Cpu, Instruction, Program, Reg};
use pacstack_pauth::{PaKey, PaKeys, PointerAuth, VaLayout};
use pacstack_qarma::{reference, Key128, Qarma64, Sigma};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// One before/after measurement, serialised verbatim into the bench JSON.
#[derive(Debug, Clone)]
pub struct PerfRecord {
    /// Benchmark name (stable across PRs, so trajectories can be compared).
    pub bench: String,
    /// The replaced path's score, when it was measured in this run.
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
    /// The improvement factor, oriented so that > 1 always means "faster".
    fn speedup(&self) -> Option<f64> {
        let before = self.before?;
        Some(match self.unit {
            "ms" => before / self.after,
            _ => self.after / before,
        })
    }
}

/// Milliseconds of sustained measurement per arm.
fn target_ms(quick: bool) -> u128 {
    if quick {
        40
    } else {
        400
    }
}

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

/// QARMA-64 throughput: per-call schedule derivation + cell path (the seed's
/// cost profile) vs a prebuilt schedule on the path `encrypt` dispatches to
/// (SSSE3 on x86-64 CPUs that have it, packed SWAR otherwise).
fn bench_qarma(quick: bool) -> PerfRecord {
    let key = Key128::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9);
    let cipher = Qarma64::recommended(key);
    let tms = target_ms(quick);
    let before = measure_rate(512, tms, |i| {
        reference::encrypt(
            key,
            Sigma::Sigma1,
            7,
            0xfb623599da6e8127 ^ i,
            0x477d469dec0b8762,
        )
    });
    let after = measure_rate(4096, tms, |i| {
        cipher.encrypt(0xfb623599da6e8127 ^ i, 0x477d469dec0b8762)
    });
    PerfRecord {
        bench: "qarma64_encrypt".into(),
        before: Some(before),
        after,
        unit: "ops_per_s",
        jobs: 1,
    }
}

/// PAC computation throughput: schedule re-derived per MAC vs the per-key
/// cached cipher.
fn bench_pac_compute(quick: bool) -> PerfRecord {
    let pa = PointerAuth::new(VaLayout::default());
    let keys = PaKeys::from_seed(1);
    let tms = target_ms(quick);
    let before = measure_rate(512, tms, |i| {
        pa.compute_pac_reference(&keys, PaKey::Ia, 0x40_1000 ^ (i << 4), i)
    });
    let after = measure_rate(4096, tms, |i| {
        pa.compute_pac(&keys, PaKey::Ia, 0x40_1000 ^ (i << 4), i)
    });
    PerfRecord {
        bench: "pac_compute".into(),
        before: Some(before),
        after,
        unit: "ops_per_s",
        jobs: 1,
    }
}

/// Fresh keys plus their first IA MAC per operation — key generation and
/// the lazy IA cipher schedule, the set-up cost of one Table 1 trial.
fn bench_pakeys_first_pac(quick: bool) -> PerfRecord {
    let pa = PointerAuth::new(VaLayout::default());
    let after = measure_rate(512, target_ms(quick), |i| {
        let keys = PaKeys::from_seed(i);
        pa.compute_pac(&keys, PaKey::Ia, 0x40_1000, i)
    });
    PerfRecord {
        bench: "pakeys_first_pac".into(),
        before: None,
        after,
        unit: "ops_per_s",
        jobs: 1,
    }
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

/// Retired PAC instructions per second on the CPU model, memo off vs on.
fn bench_pac_insns(quick: bool) -> PerfRecord {
    let iterations: u64 = if quick { 20_000 } else { 200_000 };
    let budget = iterations * 8 + 64;
    let pac_insns = iterations * 3; // paciasp + autiasp + pacga per pass
    let run_arm = |memo: bool| -> f64 {
        let mut cpu = Cpu::with_seed(pac_loop_program(iterations), 3);
        cpu.set_pac_memo(memo);
        let start = Instant::now();
        let outcome = cpu.run(budget).expect("pac loop must retire cleanly");
        // 5 insns per pass + entry/exit glue; pinned by the unit test below.
        assert_eq!(outcome.instructions, iterations * 5 + 5);
        pac_insns as f64 / start.elapsed().as_secs_f64()
    };
    PerfRecord {
        bench: "pac_insns".into(),
        before: Some(run_arm(false)),
        after: run_arm(true),
        unit: "ops_per_s",
        jobs: 1,
    }
}

/// Runs the experiment driver as a child process and returns
/// `(stdout, wall-clock ms)`. `reference` selects the pre-optimisation arm
/// via `PACSTACK_REFERENCE_PAC`; `telemetry` enables the telemetry sink in
/// the child via `PACSTACK_TELEMETRY=1` (capture only, no export I/O).
fn exec_repro(
    target: &str,
    jobs: usize,
    reference: bool,
    telemetry: bool,
) -> Result<(Vec<u8>, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate repro binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(target).stderr(Stdio::null());
    if jobs > 0 {
        cmd.arg("--jobs").arg(jobs.to_string());
    }
    if reference {
        cmd.env("PACSTACK_REFERENCE_PAC", "1");
    } else {
        cmd.env_remove("PACSTACK_REFERENCE_PAC");
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
    Ok((out.stdout, wall))
}

/// End-to-end wall time of `repro <target>`, fast path vs reference arm,
/// with the byte-identity gate between the two arms' stdout.
fn bench_e2e(target: &str, jobs: usize) -> Result<PerfRecord, String> {
    let (ref_out, ref_ms) = exec_repro(target, jobs, true, false)?;
    let (fast_out, fast_ms) = exec_repro(target, jobs, false, false)?;
    if ref_out != fast_out {
        return Err(format!(
            "determinism gate FAILED: `repro {target}` stdout differs between the \
             reference arm and the fast path ({} vs {} bytes) — the caches changed results",
            ref_out.len(),
            fast_out.len()
        ));
    }
    let jobs_label = if jobs == 0 {
        "auto".to_owned()
    } else {
        jobs.to_string()
    };
    Ok(PerfRecord {
        bench: format!("repro_{target}_wall_jobs{jobs_label}"),
        before: Some(ref_ms),
        after: fast_ms,
        unit: "ms",
        jobs,
    })
}

/// Noise band for wall-clock comparisons against a committed bench file:
/// timings from another run (and possibly another machine state) jitter far
/// beyond the per-call cost being guarded, so this gate only catches gross
/// regressions. The same-run telemetry-on/off pair is the precise check.
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

/// The zero-overhead-when-disabled gate for the telemetry subsystem:
///
/// * runs `repro <target>` with the telemetry sink enabled
///   (`PACSTACK_TELEMETRY=1`) and disabled, byte-comparing stdout — an
///   enabled sink must never change results;
/// * records the pair as `repro_<target>_wall_telemetry` (before = sink
///   on, after = sink off);
/// * when the committed `BENCH_pr3.json` is present, asserts the
///   telemetry-off wall time stays within [`CROSS_RUN_NOISE`] of the PR 3
///   after-arm, recording the comparison as `repro_<target>_wall_vs_pr3`.
fn bench_e2e_telemetry(target: &str, jobs: usize) -> Result<Vec<PerfRecord>, String> {
    let (on_out, on_ms) = exec_repro(target, jobs, false, true)?;
    let (off_out, off_ms) = exec_repro(target, jobs, false, false)?;
    if on_out != off_out {
        return Err(format!(
            "telemetry gate FAILED: `repro {target}` stdout differs with the sink \
             enabled vs disabled ({} vs {} bytes) — instrumentation changed results",
            on_out.len(),
            off_out.len()
        ));
    }
    let mut records = vec![PerfRecord {
        bench: format!("repro_{target}_wall_telemetry"),
        before: Some(on_ms),
        after: off_ms,
        unit: "ms",
        jobs,
    }];
    let pr3_bench = format!("repro_{target}_wall_jobs{jobs}");
    match std::fs::read_to_string("BENCH_pr3.json") {
        Ok(json) => {
            if let Some(pr3_after) = baseline_after(&json, &pr3_bench) {
                if off_ms > pr3_after * CROSS_RUN_NOISE {
                    return Err(format!(
                        "telemetry gate FAILED: `repro {target}` telemetry-off wall time \
                         {off_ms:.0} ms exceeds the BENCH_pr3.json after-arm \
                         ({pr3_after:.0} ms) by more than the {CROSS_RUN_NOISE}x noise band"
                    ));
                }
                records.push(PerfRecord {
                    bench: format!("repro_{target}_wall_vs_pr3"),
                    before: Some(pr3_after),
                    after: off_ms,
                    unit: "ms",
                    jobs,
                });
            } else {
                eprintln!("BENCH_pr3.json has no {pr3_bench} entry; skipping cross-run gate");
            }
        }
        Err(_) => eprintln!("BENCH_pr3.json not found; skipping cross-run gate"),
    }
    Ok(records)
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

/// Formats the human-readable results table.
fn render_table(records: &[PerfRecord], quick: bool) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "PAC fast-path performance{}",
        if quick { " (quick mode)" } else { "" }
    );
    let _ = writeln!(
        s,
        "{:<28} {:>14} {:>14} {:>9}  unit",
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
            "{:<28} {:>14} {:>14.0} {:>9}  {}",
            r.bench, before, r.after, speedup, r.unit
        );
    }
    s
}

/// Runs the full perf suite (or the `--quick` smoke variant), prints the
/// table to stdout and writes the JSON trajectory file to `out`.
///
/// # Errors
///
/// Returns a message when the child `repro` processes cannot be spawned or
/// when the byte-identity gate between the reference arm and the fast path
/// fails.
pub fn run(quick: bool, out: &Path) -> Result<(), String> {
    let mut records = vec![
        bench_qarma(quick),
        bench_pac_compute(quick),
        bench_pakeys_first_pac(quick),
        bench_pac_insns(quick),
    ];
    if quick {
        // Smoke proxy: one representative experiment, sequential only.
        records.push(bench_e2e("table1", 1)?);
        records.extend(bench_e2e_telemetry("table1", 1)?);
    } else {
        records.push(bench_e2e("all", 1)?);
        records.push(bench_e2e("all", 0)?);
        records.extend(bench_e2e_telemetry("all", 1)?);
    }
    print!("{}", render_table(&records, quick));
    println!("determinism gate: reference arm and fast path produced byte-identical stdout");
    println!("telemetry gate: enabled and disabled sinks produced byte-identical stdout");
    std::fs::write(out, to_json(&records))
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_matches_the_documented_schema() {
        let records = vec![
            PerfRecord {
                bench: "qarma64_encrypt".into(),
                before: Some(1000.0),
                after: 5000.0,
                unit: "ops_per_s",
                jobs: 1,
            },
            PerfRecord {
                bench: "repro_all_wall_jobsauto".into(),
                before: None,
                after: 1234.5,
                unit: "ms",
                jobs: 0,
            },
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
        let rate = PerfRecord {
            bench: "r".into(),
            before: Some(100.0),
            after: 500.0,
            unit: "ops_per_s",
            jobs: 1,
        };
        let wall = PerfRecord {
            bench: "w".into(),
            before: Some(500.0),
            after: 100.0,
            unit: "ms",
            jobs: 1,
        };
        assert_eq!(rate.speedup(), Some(5.0));
        assert_eq!(wall.speedup(), Some(5.0));
    }

    #[test]
    fn baseline_after_reads_the_committed_schema() {
        let json = to_json(&[
            PerfRecord {
                bench: "repro_all_wall_jobs1".into(),
                before: Some(900.0),
                after: 850.5,
                unit: "ms",
                jobs: 1,
            },
            PerfRecord {
                bench: "repro_all_wall_jobsauto".into(),
                before: None,
                after: 300.0,
                unit: "ms",
                jobs: 0,
            },
        ]);
        assert_eq!(baseline_after(&json, "repro_all_wall_jobs1"), Some(850.5));
        assert_eq!(
            baseline_after(&json, "repro_all_wall_jobsauto"),
            Some(300.0)
        );
        assert_eq!(baseline_after(&json, "no_such_bench"), None);
    }

    #[test]
    fn pac_loop_program_retires_the_expected_instruction_count() {
        let mut cpu = Cpu::with_seed(pac_loop_program(10), 3);
        let outcome = cpu.run(1_000).unwrap();
        assert_eq!(outcome.instructions, 10 * 5 + 5);
    }
}
