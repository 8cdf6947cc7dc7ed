//! Campaigns: deterministic fan-out of injected trials over
//! `pacstack-exec`, aggregated into a detection-coverage matrix.

use crate::engine::{prepare, ChaosError, PreparedTarget, TrialOutcome, TARGETS};
use crate::plan::{generate_kind, generate_trigger, FaultClass, InjectionPlan};
use pacstack_compiler::{FuncDef, Module, Stmt};
use pacstack_exec as exec;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Outcome tallies for one (target, fault-class) matrix cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Trials ending in `DetectedCrash`.
    pub detected: u64,
    /// Trials ending in `SilentCorruption`.
    pub silent: u64,
    /// Trials ending in `Masked`.
    pub masked: u64,
    /// Trials ending in `Hang`.
    pub hung: u64,
}

impl CellCounts {
    /// Total classified trials in the cell.
    pub fn total(&self) -> u64 {
        self.detected + self.silent + self.masked + self.hung
    }

    /// Fraction of *observable* corruptions that were detected:
    /// `detected / (detected + silent)`. Masked flips had no effect to
    /// detect; hangs are counted separately. `1.0` when nothing was
    /// observable.
    pub fn detection_rate(&self) -> f64 {
        let observable = self.detected + self.silent;
        if observable == 0 {
            1.0
        } else {
            self.detected as f64 / observable as f64
        }
    }

    fn record(&mut self, outcome: TrialOutcome) {
        match outcome {
            TrialOutcome::DetectedCrash(_) => self.detected += 1,
            TrialOutcome::SilentCorruption => self.silent += 1,
            TrialOutcome::Masked => self.masked += 1,
            TrialOutcome::Hang => self.hung += 1,
        }
    }
}

/// One row-group of the coverage matrix: a target's tallies per class.
#[derive(Debug, Clone)]
pub struct TargetCoverage {
    /// The target's matrix label.
    pub label: &'static str,
    /// One cell per [`FaultClass::ALL`] entry, in that order.
    pub cells: [CellCounts; FaultClass::ALL.len()],
    /// Host-process panics caught during the campaign — must stay 0; any
    /// other value means a simulator path still aborts instead of
    /// returning a structured error.
    pub host_panics: u64,
}

impl TargetCoverage {
    /// The cell for a class.
    pub fn cell(&self, class: FaultClass) -> &CellCounts {
        // FaultClass::ALL is the indexing order by construction.
        let idx = FaultClass::ALL
            .iter()
            .position(|c| *c == class)
            .unwrap_or(0);
        &self.cells[idx]
    }

    /// Fraction of **all** injected return-address flips (CR, LR and
    /// stack words) that were detected — the quantity the paper's
    /// argument is about. Unlike the per-cell [`CellCounts::detection_rate`],
    /// the denominator here includes masked trials: PACStack's improvement
    /// comes precisely from making otherwise-dead chain state
    /// authenticated, so a flip that is benignly masked elsewhere (e.g.
    /// CR under the unprotected build, where X28 is never read) faults
    /// under PACStack.
    pub fn return_address_detection_rate(&self) -> f64 {
        let mut agg = CellCounts::default();
        for class in FaultClass::ALL {
            if class.is_return_address() {
                let c = self.cell(class);
                agg.detected += c.detected;
                agg.silent += c.silent;
                agg.masked += c.masked;
                agg.hung += c.hung;
            }
        }
        if agg.total() == 0 {
            1.0
        } else {
            agg.detected as f64 / agg.total() as f64
        }
    }
}

/// The module every campaign injects into: call-heavy, with loops, an
/// indirect call, data-dependent branching, stack traffic and observable
/// output — enough live return-address state for flips to matter, small
/// enough that thousands of trials stay fast.
pub fn chaos_module() -> Module {
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![
            Stmt::Compute(3),
            Stmt::Loop(4, vec![Stmt::Call("work".into()), Stmt::MemAccess(1)]),
            Stmt::CallIndirect("leaf".into()),
            Stmt::Emit,
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "work",
        vec![
            Stmt::MemAccess(2),
            Stmt::Call("inner".into()),
            Stmt::IfEven(vec![Stmt::Compute(2)], vec![Stmt::Compute(5)]),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "inner",
        vec![Stmt::Compute(2), Stmt::Call("leaf".into()), Stmt::Return],
    ));
    m.push(FuncDef::new("leaf", vec![Stmt::Compute(1), Stmt::Return]));
    m
}

/// Runs the single-injection coverage campaign: for every target in
/// [`TARGETS`], `trials_per_class` trials of each [`FaultClass`], fanned
/// out over the `pacstack-exec` worker pool. Trial `i` injects class
/// `ALL[i % 8]`, so per-class tallies are exact and the matrix is
/// byte-identical at any `--jobs` count.
///
/// Each trial body is wrapped in `catch_unwind`; a host panic is counted
/// (and must never happen — the acceptance gate asserts 0).
///
/// # Errors
///
/// Propagates [`ChaosError`] if any target fails to prepare.
pub fn coverage(
    module: &Module,
    trials_per_class: u64,
    seed: u64,
) -> Result<Vec<TargetCoverage>, ChaosError> {
    let classes = FaultClass::ALL.len() as u64;
    let trials = trials_per_class * classes;
    let mut report = Vec::with_capacity(TARGETS.len());

    for (t_idx, target) in TARGETS.iter().enumerate() {
        let prepared = prepare(*target, module, seed ^ 0xC4A0_5000)?;
        let stream = seed.wrapping_add(0x9E37 * (t_idx as u64 + 1));
        let run = exec::run_trials(stream, trials, |i, rng| {
            let class = FaultClass::ALL[(i % classes) as usize];
            let reference = &prepared.reference;
            let at = generate_trigger(rng, &reference.windows, reference.instructions);
            let kind = generate_kind(class, rng);
            let plan = InjectionPlan::single(at, kind);
            catch_unwind(AssertUnwindSafe(|| prepared.run_plan(&plan))).ok()
        });
        exec::stats::record(format!("faults/{}", target.label), run.stats);

        let mut cells = [CellCounts::default(); FaultClass::ALL.len()];
        let mut host_panics = 0u64;
        for (i, outcome) in run.results.into_iter().enumerate() {
            match outcome {
                Some(outcome) => cells[i % classes as usize].record(outcome),
                None => host_panics += 1,
            }
        }
        report.push(TargetCoverage {
            label: target.label,
            cells,
            host_panics,
        });
    }
    Ok(report)
}

/// Prepares every target for `module`, for callers that drive trials
/// themselves (property tests).
///
/// # Errors
///
/// Propagates [`ChaosError`] if any target fails to prepare.
pub fn prepare_all(module: &Module, seed: u64) -> Result<Vec<PreparedTarget>, ChaosError> {
    TARGETS.iter().map(|t| prepare(*t, module, seed)).collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn chaos_module_checks_and_runs_under_all_schemes() {
        let m = chaos_module();
        m.check().unwrap();
        let report = coverage(&m, 2, 7).unwrap();
        assert_eq!(report.len(), TARGETS.len());
        for target in &report {
            assert_eq!(target.host_panics, 0);
            let total: u64 = target.cells.iter().map(CellCounts::total).sum();
            assert_eq!(total, 2 * FaultClass::ALL.len() as u64);
        }
    }

    #[test]
    fn detection_rate_edge_cases() {
        let empty = CellCounts::default();
        assert_eq!(empty.detection_rate(), 1.0);
        let all_detected = CellCounts {
            detected: 5,
            ..CellCounts::default()
        };
        assert_eq!(all_detected.detection_rate(), 1.0);
        let half = CellCounts {
            detected: 3,
            silent: 3,
            ..CellCounts::default()
        };
        assert!((half.detection_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coverage_is_deterministic_for_a_fixed_seed() {
        let m = chaos_module();
        let a = coverage(&m, 2, 99).unwrap();
        let b = coverage(&m, 2, 99).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cells, y.cells);
        }
    }
}
