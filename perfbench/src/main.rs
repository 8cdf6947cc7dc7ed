//! Benchmark of the PACStack reproduction: end-to-end host time of the
//! experiments that dominate `repro all`, and per-layer probes and counts
//! that say where that time goes.
//!
//! ```text
//! pacstack-perfbench --workload <figure5|table1|table3|faults>
//!                    --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets the workload up, runs one untimed warm-up task, then runs
//! tasks in a closed loop (one at a time, the next as soon as the last
//! returns) for `--seconds`, checking every task's outputs, and then
//! repeats the set-up until enough have been timed for the median
//! `setup_s`. Every time is normalised to nominal host speed with the
//! calibration kernel (see [`calibrate`]). Everything runs on one thread:
//! the experiment engine is pinned to one worker so host noise, not
//! scheduling, is the only source of spread.
//!
//! The last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
//! ones, measured with telemetry off; with `--trace 1` they are the
//! per-layer probes plus the counts the telemetry sink records over a
//! traced run of the same loop.

mod calibrate;
mod probes;
mod workloads;

use calibrate::{Calibrator, NOMINAL_MS};
use pacstack_telemetry as telemetry;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Faults, Figure5, Table1, Table3, Workload};

/// Set-up samples per run, at least; `setup_s` is their median. A sample
/// is the mean of back-to-back set-ups filling [`SETUP_BATCH_SECONDS`]
/// (one set-up, unless it takes less), scaled by a calibration run.
const SETUP_MIN_SAMPLES: usize = 5;
/// More samples are taken until the set-ups add up to this many seconds,
/// or there are [`SETUP_MAX_SAMPLES`].
const SETUP_MIN_SECONDS: f64 = 0.5;
const SETUP_MAX_SAMPLES: usize = 50;
const SETUP_BATCH_SECONDS: f64 = 0.001;
/// Error messages kept for stderr; the rest are only counted.
const MAX_ERRORS: usize = 8;

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric with its unit.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// The parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: pacstack-perfbench --workload <figure5|table1|table3|faults> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        let slot_filled = match flag.as_str() {
            "--workload" => workload.replace(value.clone()).is_some(),
            "--seed" => seed.replace(number()?).is_some(),
            "--seconds" => seconds.replace(number()?).is_some(),
            "--trace" => match value.as_str() {
                "0" => trace.replace(false).is_some(),
                "1" => trace.replace(true).is_some(),
                _ => return Err(format!("--trace must be 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        };
        if slot_filled {
            return Err(format!("{flag} given twice"));
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Collected failures of one run.
#[derive(Default)]
struct Errors {
    count: usize,
    kept: Vec<String>,
}

impl Errors {
    fn note(&mut self, message: String) {
        self.count += 1;
        if self.kept.len() < MAX_ERRORS {
            self.kept.push(message);
        }
    }
}

/// Runs task `index` and returns its host latency. A panic inside the
/// program counts as a failed task, not a crashed benchmark.
fn run_task<W: Workload>(w: &mut W, index: u64, errors: &mut Errors) -> (Duration, bool) {
    let input = w.input(index);
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| w.run(input)));
    let latency = start.elapsed();
    // The experiments log engine statistics per call; only `repro` reads
    // them, so they are dropped rather than left to grow.
    pacstack_exec::stats::drain();
    let ok = match result {
        Ok(Ok(())) => true,
        Ok(Err(message)) => {
            errors.note(format!("task {index}: {message}"));
            false
        }
        Err(_) => {
            errors.note(format!("task {index}: panicked"));
            false
        }
    };
    (latency, ok)
}

/// Prepares the workload; returns it with the host seconds that took. A
/// panic while preparing is an error, not a crash.
fn set_up<W: Workload>(seed: u64) -> Result<(W, f64), String> {
    let start = Instant::now();
    let w = catch_unwind(|| W::new(seed)).map_err(|_| "set-up panicked".to_string())??;
    Ok((w, start.elapsed().as_secs_f64()))
}

/// The factor that normalises a time taken just before: nominal over
/// measured calibration time, or 1 for a workload that is not normalised.
fn scale<W: Workload>(calibrator: &mut Calibrator) -> f64 {
    if W::NORMALISED {
        NOMINAL_MS / calibrator.run_ms()
    } else {
        1.0
    }
}

/// Set-up samples, taken after the loop so the timed tasks see
/// the process state a standalone experiment run has.
fn timed_setups<W: Workload>(seed: u64, calibrator: &mut Calibrator) -> Result<Vec<f64>, String> {
    let mut samples = Vec::new();
    let mut total = 0.0;
    while samples.len() < SETUP_MAX_SAMPLES
        && (samples.len() < SETUP_MIN_SAMPLES || total < SETUP_MIN_SECONDS)
    {
        let (mut spent, mut count) = (0.0, 0u32);
        while spent < SETUP_BATCH_SECONDS {
            spent += set_up::<W>(seed)?.1;
            count += 1;
        }
        total += spent;
        samples.push(spent / f64::from(count) * scale::<W>(calibrator));
    }
    Ok(samples)
}

/// The timed closed loop: each task's latency as measured and as
/// normalised by the calibration run that follows it.
struct Timed {
    raw_ms: Vec<f64>,
    latencies_ms: Vec<f64>,
    failed: u64,
}

fn timed_loop<W: Workload>(
    w: &mut W,
    seconds: u64,
    calibrator: &mut Calibrator,
    errors: &mut Errors,
) -> Timed {
    let budget = Duration::from_secs(seconds);
    let (mut raw_ms, mut latencies_ms) = (Vec::new(), Vec::new());
    let mut failed = 0;
    // Task 0 was the warm-up.
    let mut index = 1;
    let start = Instant::now();
    while start.elapsed() < budget {
        let (latency, ok) = run_task(w, index, errors);
        let ms = latency.as_secs_f64() * 1e3;
        raw_ms.push(ms);
        latencies_ms.push(ms * scale::<W>(calibrator));
        failed += u64::from(!ok);
        index += 1;
    }
    Timed {
        raw_ms,
        latencies_ms,
        failed,
    }
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn measure<W: Workload>(args: &Args) -> Result<Report, String> {
    pacstack_exec::set_jobs(1);
    let mut errors = Errors::default();
    let mut calibrator = Calibrator::new();
    calibrator.run_ms();
    let (mut w, _) = set_up::<W>(args.seed)?;
    run_task(&mut w, 0, &mut errors);
    let mut metrics = Vec::new();
    if args.trace {
        match probes::run(args.seed) {
            Ok(probed) => metrics = probed,
            Err(message) => errors.note(message),
        }
        telemetry::reset();
        telemetry::enable();
    }
    let timed = timed_loop(&mut w, args.seconds, &mut calibrator, &mut errors);
    let lat = &timed.latencies_ms;
    if args.trace {
        telemetry::disable();
        let merged = telemetry::snapshot();
        telemetry::reset();
        metrics.extend(probes::counts(&merged, lat.len() as u64));
        metrics.push(Metric::new(
            "traced_task_ms_p50",
            percentile(lat, 50.0),
            "ms",
        ));
    }
    if let Err(message) = w.verify() {
        errors.note(message);
    }
    drop(w);
    if !args.trace {
        let setups = timed_setups::<W>(args.seed, &mut calibrator)?;
        metrics.push(Metric::new("task_ms_p50", percentile(lat, 50.0), "ms"));
        metrics.push(Metric::new("setup_s", percentile(&setups, 50.0), "s"));
        eprintln!(
            "{}: {} tasks; measured p50 {:.3} ms, p90 {:.3} ms; normalised p10 {:.3} ms, \
             p90 {:.3} ms; {} set-up samples, normalised p10 {:.6} s, p90 {:.6} s",
            args.workload,
            lat.len(),
            percentile(&timed.raw_ms, 50.0),
            percentile(&timed.raw_ms, 90.0),
            percentile(lat, 10.0),
            percentile(lat, 90.0),
            setups.len(),
            percentile(&setups, 10.0),
            percentile(&setups, 90.0),
        );
    }
    for message in &errors.kept {
        eprintln!("error: {message}");
    }
    Ok(Report {
        correct: errors.count == 0,
        attempted: timed.latencies_ms.len() as u64,
        failed: timed.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "figure5" => measure::<Figure5>(&args),
        "table1" => measure::<Table1>(&args),
        "table3" => measure::<Table3>(&args),
        "faults" => measure::<Faults>(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    match report {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
