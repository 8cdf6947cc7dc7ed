//! Regenerates the PACStack paper's tables and figures.
//!
//! `repro <experiment>` runs one row of [`EXPERIMENTS`], which names every
//! experiment with the paper section it reproduces; `repro all` (the
//! default) runs every row but `trace`, in table order. An unknown name
//! exits 1 and lists the valid ones.
//!
//! Add `--out <dir>` to capture telemetry for the run: the sink records
//! every instrumented layer, and `metrics.prom`, `trace.json`
//! (chrome://tracing) and `flamegraph.txt` are written to `<dir>` on exit.
//! All three are clocked on simulated cycles and are byte-identical at any
//! `--jobs` count. Stdout is unaffected: enabling telemetry never changes
//! results.
//!
//! `repro trace` drives a fixed scenario through every instrumented layer
//! and prints a summary plus the Prometheus metrics dump; it always
//! captures, to `results/trace` unless `--out` says otherwise. `--quick`
//! shrinks its scenario for CI, where the dump is golden-diffed, and is
//! rejected with any other experiment before anything runs.
//!
//! Timings live in the benchmark, `perfbench/` (see `BENCHMARK.json`), not
//! here.
//!
//! Add `--save <dir>` to also write each section to `<dir>/<file>.txt`
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

/// What a runner reads from the command line or leaves for a later row.
#[derive(Default)]
struct Context {
    quick: bool,
    /// Figure 5's rows, left by `figure5` so that `table2` in `repro all`
    /// does not sweep them again.
    figure5: Option<Vec<experiments::Figure5Row>>,
}

/// One experiment: its command-line name, its `--save` file name and a
/// runner that returns the section text.
struct Experiment(
    &'static str,
    &'static str,
    fn(&mut Context) -> Result<String, String>,
);

/// Every experiment, in the order `repro all` runs them.
const EXPERIMENTS: [Experiment; 15] = [
    // Table 1: attack success probabilities.
    Experiment("table1", "table1", |_| {
        let mut body = String::new();
        for b in [4u32, 6, 8] {
            body.push_str(&render::table1(&experiments::table1(b, 4_000, 0x71), b));
            body.push('\n');
        }
        Ok(body)
    }),
    // Figure 5: per-benchmark SPEC overheads.
    Experiment("figure5", "figure5", |cx| {
        Ok(render::figure5(cx.figure5.insert(experiments::figure5())))
    }),
    // Table 2: geometric-mean overheads.
    Experiment("table2", "table2", |cx| {
        let t2 = experiments::table2(cx.figure5.get_or_insert_with(experiments::figure5));
        Ok(render::table2(&t2, experiments::cpp_aggregate()))
    }),
    // Table 3: NGINX SSL TPS.
    Experiment("table3", "table3", |_| {
        Ok(render::table3(&experiments::table3(10, 42)))
    }),
    // §6.2.1: collision harvesting vs the birthday bound.
    Experiment("birthday", "birthday", |_| {
        let rows = experiments::birthday(&[6, 8, 10, 12], 60, 7);
        Ok(render::birthday(&rows))
    }),
    // §4.3: divide-and-conquer vs re-seeded guessing.
    Experiment("guessing", "guessing", |_| {
        let rows = experiments::guessing_costs(&[6, 8, 10], 200);
        Ok(render::guessing(&rows))
    }),
    // §6.3.1: qualitative attack matrix (incl. the tail-call gadget).
    Experiment("gadget", "attack_matrix", |_| {
        Ok(render::attack_matrix(&experiments::attack_matrix()?))
    }),
    // DESIGN.md ablations: masking cost, leaf heuristic.
    Experiment("ablation", "ablation", |_| {
        Ok(render::ablations(&experiments::ablations()))
    }),
    // Appendix A: the G-PAC-Collision security game.
    Experiment("games", "games", |_| {
        let rows = experiments::collision_games(&[6, 8, 10], 40, 0xA11CE);
        Ok(render::games(&rows))
    }),
    // §2.2: PAC width vs address-space configuration.
    Experiment("pac-width", "pac_width", |_| {
        Ok(render::pac_width(&experiments::pac_width_sweep()))
    }),
    // §7.3: ConFIRM compatibility pass/fail table.
    Experiment("confirm", "confirm", |_| {
        Ok(render::confirm(&experiments::confirm_table()))
    }),
    // §7.1: retired instructions by class per scheme.
    Experiment("mix", "instruction_mix", |_| {
        Ok(render::instruction_mix(&experiments::instruction_mix()))
    }),
    // §6.1: interchangeable signed pointers per scheme.
    Experiment("reuse", "reuse", |_| {
        Ok(render::reuse(&experiments::reuse_opportunities()))
    }),
    // §3/§6.2: fault-injection coverage matrix + supervisor economics.
    Experiment("faults", "faults", |_| {
        let report = experiments::faults(24, 0xFA17)
            .map_err(|e| format!("fault-injection campaign failed to prepare: {e}"))?;
        Ok(render::faults(&report))
    }),
    // Deterministic telemetry capture of a fixed scenario (not in `all`).
    Experiment("trace", "trace", |cx| {
        let capture =
            tracecmd::capture(cx.quick).map_err(|e| format!("trace capture failed: {e}"))?;
        let mut stdout = capture.stdout();
        stdout.pop(); // `emit` prints the final newline
        Ok(stdout)
    }),
];

/// Prints a section and, when `--save <dir>` was given, also writes it to
/// `<dir>/<file>.txt`.
fn emit(save_dir: &Option<PathBuf>, file: &str, body: &str) {
    println!("{body}");
    if let Some(dir) = save_dir {
        let path = dir.join(format!("{file}.txt"));
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(body.as_bytes())) {
            Ok(()) => eprintln!("saved {}", path.display()),
            Err(e) => eprintln!("could not save {}: {e}", path.display()),
        }
    }
}

fn run() -> Result<(), String> {
    let mut experiment = "all".to_owned();
    let mut save: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut cx = Context::default();
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cx.quick = true,
            "--out" => out = Some(args.next().ok_or("--out needs a directory")?.into()),
            "--save" => save = Some(args.next().ok_or("--save needs a directory")?.into()),
            "--jobs" => exec::set_jobs(
                args.next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--jobs needs a non-negative integer")?,
            ),
            _ => experiment = arg,
        }
    }
    let selected: Vec<&Experiment> = EXPERIMENTS
        .iter()
        .filter(|Experiment(name, ..)| match experiment.as_str() {
            "all" => *name != "trace",
            wanted => *name == wanted,
        })
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = EXPERIMENTS
            .iter()
            .map(|Experiment(name, ..)| *name)
            .collect();
        return Err(format!(
            "unknown experiment {experiment:?}; choose one of: all, {}",
            names.join(", ")
        ));
    }
    if experiment == "trace" {
        out.get_or_insert_with(|| PathBuf::from("results/trace"));
    } else if cx.quick {
        return Err(format!(
            "--quick applies to `repro trace` only, not to `repro {experiment}`"
        ));
    }
    if let Some(dir) = &save {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    if out.is_some() {
        telemetry::enable();
    }
    for Experiment(_, file, runner) in selected {
        emit(&save, file, &runner(&mut cx)?);
    }
    if let Some(dir) = &out {
        tracecmd::TraceArtifacts::of_sink().write(dir)?;
    }
    // Throughput/occupancy of every engine invocation — stderr only, so
    // stdout (and --save artifacts) stay byte-identical across job counts.
    exec::stats::report_to_stderr();
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
