//! Regenerates the PACStack paper's tables and figures.
//!
//! ```text
//! repro table1     Table 1   attack success probabilities
//! repro figure5    Figure 5  per-benchmark SPEC overheads
//! repro table2     Table 2   geometric-mean overheads
//! repro table3     Table 3   NGINX SSL TPS
//! repro birthday   §6.2.1    collision harvesting vs birthday bound
//! repro guessing   §4.3      divide-and-conquer vs re-seeded guessing
//! repro gadget     §6.3.1    qualitative attack matrix (incl. tail-call gadget)
//! repro ablation   DESIGN.md ablations: masking cost, leaf heuristic
//! repro games      Appendix A: the G-PAC-Collision security game
//! repro pac-width  §2.2      PAC width vs address-space configuration
//! repro confirm    §7.3      ConFIRM compatibility pass/fail table
//! repro mix        §7.1      retired instructions by class per scheme
//! repro reuse      §6.1      interchangeable signed pointers per scheme
//! repro faults     §3/§6.2   fault-injection coverage matrix + supervisor economics
//! repro all        everything above
//! repro trace      deterministic telemetry capture + export (not part of `all`)
//! ```
//!
//! `repro trace` enables the telemetry sink, drives a fixed scenario
//! through every instrumented layer, prints a summary plus the Prometheus
//! metrics dump to stdout, and writes `metrics.prom`, `trace.json`
//! (chrome://tracing) and `flamegraph.txt` to `--out <dir>` (default
//! `results/trace`). All artifacts are clocked on simulated cycles and are
//! byte-identical at any `--jobs` count. `--quick` shrinks the scenario
//! for CI, where the dump is golden-diffed. `--out` and `--quick` belong to
//! `repro trace` alone: given to any other experiment they exit 1 before
//! anything runs.
//!
//! Any *other* experiment can be captured by setting `PACSTACK_TELEMETRY`
//! in the environment: `PACSTACK_TELEMETRY=<dir>` enables the sink for the
//! whole run and writes the same three artifacts to `<dir>` on exit
//! (`PACSTACK_TELEMETRY=1` enables capture without exporting). Stdout is
//! unaffected either way: enabling telemetry never changes results.
//!
//! Timings live in the benchmark, `perfbench/` (see `BENCHMARK.json`), not
//! here.
//!
//! Add `--save <dir>` to also write each section to `<dir>/<name>.txt`
//! (artifact-evaluation style).
//!
//! Add `--jobs <N>` to set the worker-thread count for the Monte Carlo and
//! sweep engine (default: one per available core; `--jobs 0` also means
//! auto). Results are **byte-identical at any thread count**: every trial
//! draws from its own `(experiment, trial-index)` RNG stream and results
//! merge in index order. Per-experiment throughput/occupancy statistics go
//! to stderr, never stdout, so saved tables stay reproducible.

use pacstack_bench::{exec, experiments, render, tracecmd};
use pacstack_telemetry as telemetry;
use std::env;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Prints a section and, when `--save <dir>` was given, also writes it to
/// `<dir>/<name>.txt`.
fn emit(save_dir: &Option<PathBuf>, name: &str, body: &str) {
    println!("{body}");
    if let Some(dir) = save_dir {
        let path = dir.join(format!("{name}.txt"));
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(body.as_bytes())) {
            Ok(()) => eprintln!("saved {}", path.display()),
            Err(e) => eprintln!("could not save {}: {e}", path.display()),
        }
    }
}

fn run_table1(save: &Option<PathBuf>) {
    let mut body = String::new();
    for b in [4u32, 6, 8] {
        let cells = experiments::table1(b, 4_000, 0x71u64);
        body.push_str(&render::table1(&cells, b));
        body.push('\n');
    }
    emit(save, "table1", &body);
}

fn run_figure5(save: &Option<PathBuf>) -> Vec<experiments::Figure5Row> {
    let rows = experiments::figure5();
    emit(save, "figure5", &render::figure5(&rows));
    rows
}

fn run_table2(save: &Option<PathBuf>, rows: &[experiments::Figure5Row]) {
    let t2 = experiments::table2(rows);
    let cpp = experiments::cpp_aggregate();
    emit(save, "table2", &render::table2(&t2, cpp));
}

fn run_table3(save: &Option<PathBuf>) {
    let rows = experiments::table3(10, 42);
    emit(save, "table3", &render::table3(&rows));
}

fn run_birthday(save: &Option<PathBuf>) {
    let rows = experiments::birthday(&[6, 8, 10, 12], 60, 7);
    emit(save, "birthday", &render::birthday(&rows));
}

fn run_guessing(save: &Option<PathBuf>) {
    let rows = experiments::guessing_costs(&[6, 8, 10], 200);
    emit(save, "guessing", &render::guessing(&rows));
}

fn run_gadget(save: &Option<PathBuf>) {
    let rows = experiments::attack_matrix();
    emit(save, "attack_matrix", &render::attack_matrix(&rows));
}

fn run_ablation(save: &Option<PathBuf>) {
    let rows = experiments::ablations();
    emit(save, "ablation", &render::ablations(&rows));
}

fn run_confirm(save: &Option<PathBuf>) {
    let rows = experiments::confirm_table();
    emit(save, "confirm", &render::confirm(&rows));
}

fn run_mix(save: &Option<PathBuf>) {
    let rows = experiments::instruction_mix();
    emit(save, "instruction_mix", &render::instruction_mix(&rows));
}

fn run_pac_width(save: &Option<PathBuf>) {
    let rows = experiments::pac_width_sweep();
    emit(save, "pac_width", &render::pac_width(&rows));
}

fn run_reuse(save: &Option<PathBuf>) {
    let rows = experiments::reuse_opportunities();
    emit(save, "reuse", &render::reuse(&rows));
}

fn run_games(save: &Option<PathBuf>) {
    let rows = experiments::collision_games(&[6, 8, 10], 40, 0xA11CE);
    emit(save, "games", &render::games(&rows));
}

fn run_faults(save: &Option<PathBuf>) -> Result<(), ()> {
    match experiments::faults(24, 0xFA17) {
        Ok(report) => {
            emit(save, "faults", &render::faults(&report));
            Ok(())
        }
        Err(e) => {
            eprintln!("fault-injection campaign failed to prepare: {e}");
            Err(())
        }
    }
}

/// Applies the `PACSTACK_TELEMETRY` environment contract: any non-empty
/// value enables the sink for the whole run; a value other than `1` is the
/// directory the merged capture is exported to on exit.
fn telemetry_from_env() -> Option<PathBuf> {
    let value = env::var("PACSTACK_TELEMETRY").ok()?;
    if value.is_empty() {
        return None;
    }
    telemetry::enable();
    (value != "1").then(|| PathBuf::from(value))
}

/// Exports the ambient capture at exit when `PACSTACK_TELEMETRY` named a
/// directory.
fn export_env_telemetry(dir: &PathBuf) {
    let merged = telemetry::snapshot();
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return;
    }
    for (name, body) in [
        ("metrics.prom", telemetry::export::prometheus(&merged)),
        ("trace.json", telemetry::export::chrome_json(&merged)),
        ("flamegraph.txt", telemetry::export::flame(&merged)),
    ] {
        let path = dir.join(name);
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
}

fn main() -> ExitCode {
    let mut experiment = "all".to_owned();
    let mut save: Option<PathBuf> = None;
    let mut quick = false;
    let mut out: Option<PathBuf> = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--quick" {
            quick = true;
        } else if arg == "--out" {
            let Some(path) = args.next() else {
                eprintln!("--out needs a directory");
                return ExitCode::FAILURE;
            };
            out = Some(PathBuf::from(path));
        } else if arg == "--save" {
            let Some(dir) = args.next() else {
                eprintln!("--save needs a directory");
                return ExitCode::FAILURE;
            };
            save = Some(PathBuf::from(dir));
        } else if arg == "--jobs" {
            let Some(n) = args.next().and_then(|s| s.parse::<usize>().ok()) else {
                eprintln!("--jobs needs a non-negative integer");
                return ExitCode::FAILURE;
            };
            exec::set_jobs(n);
        } else {
            experiment = arg;
        }
    }
    if experiment != "trace" {
        for (flag, given) in [("--quick", quick), ("--out", out.is_some())] {
            if given {
                eprintln!("{flag} applies to `repro trace` only, not to `repro {experiment}`");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = &save {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let telemetry_dir = telemetry_from_env();
    match experiment.as_str() {
        "table1" => run_table1(&save),
        "figure5" => {
            run_figure5(&save);
        }
        "table2" => {
            let rows = experiments::figure5();
            run_table2(&save, &rows);
        }
        "table3" => run_table3(&save),
        "birthday" => run_birthday(&save),
        "guessing" => run_guessing(&save),
        "gadget" => run_gadget(&save),
        "ablation" => run_ablation(&save),
        "games" => run_games(&save),
        "pac-width" => run_pac_width(&save),
        "confirm" => run_confirm(&save),
        "mix" => run_mix(&save),
        "reuse" => run_reuse(&save),
        "faults" => {
            if run_faults(&save).is_err() {
                return ExitCode::FAILURE;
            }
        }
        "trace" => {
            let out = out.unwrap_or_else(|| PathBuf::from("results/trace"));
            if let Err(e) = tracecmd::run(quick, &out) {
                eprintln!("trace capture failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        "all" => {
            run_table1(&save);
            let rows = run_figure5(&save);
            run_table2(&save, &rows);
            run_table3(&save);
            run_birthday(&save);
            run_guessing(&save);
            run_gadget(&save);
            run_ablation(&save);
            run_games(&save);
            run_pac_width(&save);
            run_confirm(&save);
            run_mix(&save);
            run_reuse(&save);
            if run_faults(&save).is_err() {
                return ExitCode::FAILURE;
            }
        }
        other => {
            eprintln!("unknown experiment {other:?}; see the module docs");
            return ExitCode::FAILURE;
        }
    }
    if let Some(dir) = &telemetry_dir {
        export_env_telemetry(dir);
    }
    // Throughput/occupancy of every engine invocation — stderr only, so
    // stdout (and --save artifacts) stay byte-identical across job counts.
    exec::stats::report_to_stderr();
    ExitCode::SUCCESS
}
