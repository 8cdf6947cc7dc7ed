//! The benchmark workloads, one per experiment that dominates `repro all`.
//! A task is one pass of the experiment through the experiment code the
//! `repro` binary runs (`pacstack_bench::experiments`, and the measurement
//! helpers it calls), on an input drawn from `--seed`; the workload checks
//! every result the pass produces.
//!
//! * `figure5` — all 16 Figure 5 rows (8 C benchmarks × 2 suites), each
//!   `overhead_percent` under the five measured schemes, on SPEC-like
//!   profiles whose shapes the seed jitters and whose iterations are those
//!   `figure5` runs. Compiler, CPU construction, interpreter.
//! * `table1` — Table 1 at PAC widths 4, 6 and 8 with a quarter of the
//!   trials `repro table1` runs. Key generation, QARMA, PAC, ACS model,
//!   trial engine; no interpreter.
//! * `table3` — the NGINX SSL-TPS table with one measurement run per cell
//!   (`repro table3` runs ten). Interpreter on the call-heavy server model.
//! * `faults` — the fault-injection coverage matrix and supervisor
//!   economics at the scale `repro faults` runs. Chaos trial restore and
//!   single-stepping.
//!
//! Set-up (`Workload::new`, timed as `setup_s`) builds the run's input pool
//! from the seed and validates each entry with a clean reference run.

use pacstack_acs::security::{self, ViolationKind};
use pacstack_bench::experiments::{self, MEASURED_SCHEMES};
use pacstack_chaos::campaign;
use pacstack_chaos::plan::{FaultClass, InjectionPlan};
use pacstack_chaos::TrialOutcome;
use pacstack_compiler::{Module, Scheme};
use pacstack_exec::TrialRng;
use pacstack_workloads::measure::{overhead_percent, run_module};
use pacstack_workloads::nginx::{self, CLOCK_HZ, TRANSACTIONS};
use pacstack_workloads::spec::{BenchProfile, Suite, C_BENCHMARKS};
use rand::Rng;

/// A workload: state prepared from the seed, a pure input stream, a timed
/// task body, and checks over everything the tasks produced.
pub trait Workload: Sized {
    /// One task's input.
    type Input;
    /// Whether task and set-up times are scaled by the calibration kernel.
    /// True where the workload slows with the kernel when neighbours
    /// contend for the host; see `calibrate`.
    const NORMALISED: bool = true;
    /// Prepares the workload for `seed`: builds and validates the inputs.
    fn new(seed: u64) -> Result<Self, String>;
    /// The input of task `index`: a pure function of the seed and index.
    fn input(&self, index: u64) -> Self::Input;
    /// Runs one task and checks its outputs.
    fn run(&mut self, input: Self::Input) -> Result<(), String>;
    /// Checks over all tasks run so far (statistical and repeatability
    /// checks that no single task can decide).
    fn verify(&self) -> Result<(), String>;
}

/// Instruction budget of every simulation, as in `experiments`.
const BUDGET: u64 = 2_000_000_000;

/// Jittered variants of Figure 5 that `figure5` tasks cycle through.
const FIGURE5_VARIANTS: usize = 4;

/// `figure5`: whole Figure 5 passes over seeded profile variants.
pub struct Figure5 {
    /// Per variant, the 16 row modules in `experiments::figure5` order.
    variants: Vec<Vec<Module>>,
    /// Per variant, the overheads of its first pass, for the repeat check.
    first: Vec<Option<Vec<f64>>>,
}

/// A profile with its shape jittered by ±10%; iterations stay as
/// `figure5` runs them.
fn jittered(base: &BenchProfile, rng: &mut TrialRng) -> BenchProfile {
    let mut scale = |v: u32| (v * rng.gen_range(90..=110u32) / 100).max(1);
    BenchProfile {
        compute: scale(base.compute),
        mem: scale(base.mem),
        leaf_compute: scale(base.leaf_compute),
        ..*base
    }
}

impl Workload for Figure5 {
    type Input = usize;

    fn new(seed: u64) -> Result<Self, String> {
        let mut variants = Vec::with_capacity(FIGURE5_VARIANTS);
        for v in 0..FIGURE5_VARIANTS {
            let mut rng = TrialRng::new(seed ^ 0xF165_0005, v as u64);
            let mut rows = Vec::new();
            for suite in [Suite::Rate, Suite::Speed] {
                for base in &C_BENCHMARKS {
                    let module = jittered(base, &mut rng).module(suite);
                    module
                        .check()
                        .map_err(|e| format!("figure5: {} does not check: {e:?}", base.name))?;
                    // The uninstrumented run must finish; `run_module`
                    // panics otherwise, which fails the set-up.
                    run_module(&module, Scheme::Baseline, BUDGET);
                    rows.push(module);
                }
            }
            variants.push(rows);
        }
        Ok(Self {
            variants,
            first: vec![None; FIGURE5_VARIANTS],
        })
    }

    fn input(&self, index: u64) -> usize {
        (index % FIGURE5_VARIANTS as u64) as usize
    }

    fn run(&mut self, variant: usize) -> Result<(), String> {
        let mut overheads = Vec::new();
        for module in &self.variants[variant] {
            let row: Vec<f64> = MEASURED_SCHEMES
                .iter()
                .map(|&scheme| overhead_percent(module, scheme, BUDGET))
                .collect();
            check_figure5_row(&row)?;
            overheads.extend(row);
        }
        match &self.first[variant] {
            None => self.first[variant] = Some(overheads),
            Some(first) if *first != overheads => {
                return Err(format!("figure5: variant {variant} gave other overheads"));
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn verify(&self) -> Result<(), String> {
        if self.first.iter().all(Option::is_none) {
            return Err("figure5: no pass completed".into());
        }
        Ok(())
    }
}

/// One row in `MEASURED_SCHEMES` order: PACStack > nomask > pac-ret > 0,
/// ShadowCallStack > 0, canaries ≥ 0, and PACStack below 50%.
fn check_figure5_row(row: &[f64]) -> Result<(), String> {
    let [full, nomask, scs, pacret, canary] = row else {
        return Err(format!("figure5: row has {} schemes", row.len()));
    };
    let ordered = full > nomask && nomask > pacret && *pacret > 0.0;
    if !ordered || *scs <= 0.0 || *canary < 0.0 || *full >= 50.0 {
        return Err(format!("figure5: implausible overheads {row:?}"));
    }
    Ok(())
}

/// PAC widths of the Table 1 columns.
const TABLE1_WIDTHS: [u32; 3] = [4, 6, 8];
/// Monte Carlo trials per cell; `repro table1` runs 4000.
const TABLE1_TRIALS: u64 = 1_000;
/// Cells per width that `experiments::table1` returns.
const TABLE1_CELLS: usize = 6;

/// Successes over trials of one Table 1 cell, summed over tasks.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    successes: u64,
    trials: u64,
}

/// `table1`: Table 1 passes, tallied per cell for the statistical checks.
pub struct Table1 {
    stream: u64,
    /// Per width and cell: (kind, masking, analytic rate, tally).
    cells: Vec<Vec<(ViolationKind, pacstack_acs::Masking, f64, Tally)>>,
}

impl Workload for Table1 {
    type Input = u64;

    fn new(seed: u64) -> Result<Self, String> {
        let cells = TABLE1_WIDTHS
            .iter()
            .map(|&b| {
                let mut row = Vec::with_capacity(TABLE1_CELLS);
                for masking in [
                    pacstack_acs::Masking::Unmasked,
                    pacstack_acs::Masking::Masked,
                ] {
                    for kind in [
                        ViolationKind::OnGraph,
                        ViolationKind::OffGraphToCallSite,
                        ViolationKind::OffGraphToArbitrary,
                    ] {
                        let analytic = security::max_success_probability(kind, masking, b);
                        row.push((kind, masking, analytic, Tally::default()));
                    }
                }
                row
            })
            .collect();
        Ok(Self {
            stream: seed ^ 0x7AB1_E001,
            cells,
        })
    }

    fn input(&self, index: u64) -> u64 {
        TrialRng::new(self.stream, index).gen()
    }

    fn run(&mut self, seed: u64) -> Result<(), String> {
        for (&b, expected) in TABLE1_WIDTHS.iter().zip(&mut self.cells) {
            let cells = experiments::table1(b, TABLE1_TRIALS, seed);
            if cells.len() != expected.len() {
                return Err(format!("table1: b={b} gave {} cells", cells.len()));
            }
            for (cell, (kind, masking, analytic, tally)) in cells.iter().zip(expected) {
                if cell.kind != *kind || cell.masking != *masking || cell.analytic != *analytic {
                    return Err(format!("table1: b={b} unexpected cell {cell:?}"));
                }
                let (lo, hi) = cell.interval;
                if !(lo <= cell.measured && cell.measured <= hi) {
                    return Err(format!("table1: b={b} interval misses the rate: {cell:?}"));
                }
                tally.successes += (cell.measured * cell.trials as f64).round() as u64;
                tally.trials += cell.trials;
            }
        }
        Ok(())
    }

    fn verify(&self) -> Result<(), String> {
        for (b, row) in TABLE1_WIDTHS.iter().zip(&self.cells) {
            for (kind, masking, p, tally) in row {
                let n = tally.trials as f64;
                if n == 0.0 {
                    return Err("table1: no pass completed".into());
                }
                let k = tally.successes as f64;
                // An unmasked on-graph collision always verifies; every
                // other cell is a blind guess at its analytic rate.
                let ok = if *p == 1.0 {
                    k >= 0.9 * n
                } else {
                    (k - n * p).abs() <= 6.0 * (n * p * (1.0 - p)).sqrt() + 3.0
                };
                if !ok {
                    return Err(format!(
                        "table1: b={b} {kind:?} {masking:?}: {} of {} vs rate {p}",
                        tally.successes, tally.trials
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Handshake round counts the TPS model's jitter draws from.
const HANDSHAKE_ROUNDS: std::ops::RangeInclusive<u32> = 36..=44;
/// Measurement runs per Table 3 cell; `repro table3` runs ten.
const TABLE3_RUNS: usize = 1;

/// `table3`: Table 3 passes, checked against reference TPS.
pub struct Table3 {
    stream: u64,
    /// Baseline 4-worker TPS of one run at each handshake round count.
    reference: Vec<f64>,
}

/// TPS of one run, as `nginx::ssl_tps` converts it.
fn tps(workers: u32, cycles: u64) -> f64 {
    f64::from(workers) * CLOCK_HZ / (cycles as f64 / f64::from(TRANSACTIONS))
}

impl Workload for Table3 {
    type Input = u64;

    fn new(seed: u64) -> Result<Self, String> {
        let reference = HANDSHAKE_ROUNDS
            .map(|rounds| {
                let server = nginx::server_module(rounds);
                tps(4, run_module(&server, Scheme::Baseline, BUDGET).cycles)
            })
            .collect();
        Ok(Self {
            stream: seed ^ 0x7AB1_E003,
            reference,
        })
    }

    fn input(&self, index: u64) -> u64 {
        TrialRng::new(self.stream, index).gen()
    }

    fn run(&mut self, seed: u64) -> Result<(), String> {
        let rows = experiments::table3(TABLE3_RUNS, seed);
        let [four, eight] = rows.as_slice() else {
            return Err(format!("table3: {} rows", rows.len()));
        };
        // One run per cell: the baseline is exactly one of the reference
        // runs, and eight workers give exactly twice the TPS of four.
        let base = four.baseline.mean_tps;
        if !self
            .reference
            .iter()
            .any(|&r| (r - base).abs() <= r * 1e-12)
        {
            return Err(format!(
                "table3: baseline TPS {base} matches no reference run"
            ));
        }
        for (a, b) in [
            (&four.baseline, &eight.baseline),
            (&four.nomask, &eight.nomask),
            (&four.pacstack, &eight.pacstack),
        ] {
            if (b.mean_tps - 2.0 * a.mean_tps).abs() > a.mean_tps * 1e-9 {
                return Err(format!("table3: 8 workers {b:?} vs 4 workers {a:?}"));
            }
        }
        // Paper: nomask loses 4–7%, full PACStack 6–13%.
        let (nomask, full) = (four.nomask_loss(), four.pacstack_loss());
        if !(2.0 < nomask && nomask < full && full < 15.0 && full > 5.0) {
            return Err(format!("table3: losses nomask {nomask}% full {full}%"));
        }
        Ok(())
    }

    fn verify(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Trials per fault class and target; `repro faults` runs 24.
const FAULT_TRIALS_PER_CLASS: u64 = 24;

/// `faults`: fault-injection campaigns and supervisor economics.
pub struct Faults {
    stream: u64,
    /// Per target label: (return-address trials, of which detected).
    detection: Vec<(&'static str, u64, u64)>,
}

impl Workload for Faults {
    type Input = u64;
    // Measured on a shared 2-vCPU VM: while contention slowed the kernel
    // by 1.5x, `faults` tasks (bound by restoring a 3.25 MiB CPU image per
    // trial) kept their speed, so scaling them added spread (IQR/median
    // 0.20 over five seeds, 0.04 unscaled).
    const NORMALISED: bool = false;

    fn new(seed: u64) -> Result<Self, String> {
        // Every target must reproduce its reference run when nothing is
        // injected.
        let targets = campaign::prepare_all(&campaign::chaos_module(), seed)
            .map_err(|e| format!("faults: {e}"))?;
        for prepared in &targets {
            let clean = prepared.run_plan(&InjectionPlan::default());
            if clean != TrialOutcome::Masked {
                return Err(format!(
                    "faults: clean trial on {} gave {clean}",
                    prepared.target.label
                ));
            }
        }
        Ok(Self {
            stream: seed ^ 0xFA17_5EED,
            detection: targets.iter().map(|p| (p.target.label, 0, 0)).collect(),
        })
    }

    fn input(&self, index: u64) -> u64 {
        TrialRng::new(self.stream, index).gen()
    }

    fn run(&mut self, seed: u64) -> Result<(), String> {
        let report = experiments::faults(FAULT_TRIALS_PER_CLASS, seed)
            .map_err(|e| format!("faults: {e}"))?;
        if report.coverage.len() != self.detection.len() || report.economics.len() != 3 {
            return Err("faults: unexpected report shape".into());
        }
        for (target, tally) in report.coverage.iter().zip(&mut self.detection) {
            if target.host_panics != 0 || target.label != tally.0 {
                return Err(format!("faults: {} panicked or moved", target.label));
            }
            // An honest signal round trip preserves behaviour.
            let signal = target.cell(FaultClass::Signal);
            if signal.masked != FAULT_TRIALS_PER_CLASS {
                return Err(format!(
                    "faults: signals on {} gave {signal:?}",
                    target.label
                ));
            }
            for class in FaultClass::ALL
                .into_iter()
                .filter(|c| c.is_return_address())
            {
                let cell = target.cell(class);
                tally.1 += cell.total();
                tally.2 += cell.detected;
            }
        }
        for row in &report.economics {
            if row.analytic_guesses_per_success <= 0.0 || row.trials == 0 {
                return Err(format!("faults: economics row {row:?}"));
            }
        }
        Ok(())
    }

    fn verify(&self) -> Result<(), String> {
        // The campaign's acceptance gate: every PACStack-family target
        // detects return-address flips at least as often as the
        // unprotected build.
        let rate =
            |&(_, trials, detected): &(&str, u64, u64)| detected as f64 / trials.max(1) as f64;
        let unprotected = self
            .detection
            .iter()
            .find(|t| t.0 == "unprotected")
            .map(rate)
            .ok_or("faults: no unprotected target")?;
        for tally in &self.detection {
            if tally.1 == 0 {
                return Err("faults: no pass completed".into());
            }
            if rate(tally) < unprotected {
                return Err(format!(
                    "faults: {} detects {:.3} of return-address flips, unprotected {unprotected:.3}",
                    tally.0,
                    rate(tally)
                ));
            }
        }
        Ok(())
    }
}
