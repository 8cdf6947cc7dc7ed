//! The `repro trace` subcommand: a deterministic telemetry capture.
//!
//! Enables the telemetry sink, drives a fixed scenario through every
//! instrumented layer — profiled NGINX workload runs, a fault-injection
//! mini-campaign, an ACS call/return/longjmp exercise — and exports the
//! merged data as a Prometheus text dump (also printed to stdout, where CI
//! golden-diffs it), a Chrome `trace.json` and a collapsed-stack
//! flamegraph.
//!
//! Everything is clocked on **simulated cycles**, never wall time, and all
//! records merge in deterministic task order through the exec engine — so
//! every artifact is byte-identical at any `--jobs` count and across
//! repeated runs.

use pacstack_acs::{AcsConfig, AuthenticatedCallStack};
use pacstack_chaos::campaign::{chaos_module, coverage};
use pacstack_compiler::Scheme;
use pacstack_exec as exec;
use pacstack_pauth::{PaKeys, PointerAuth, VaLayout};
use pacstack_telemetry as telemetry;
use pacstack_telemetry::{export, Merged};
use pacstack_workloads::{measure, nginx};
use rand::Rng;
use std::fmt::Write as _;
use std::path::Path;

/// Instruction budget for one profiled workload run — generous: the NGINX
/// module exits long before this, and exceeding it is a panic (a workload
/// must run clean).
const BUDGET: u64 = 50_000_000;

/// Everything `repro trace` produces, as strings so tests can byte-compare
/// artifacts without touching the filesystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceArtifacts {
    /// The human-readable capture summary printed before the metrics dump.
    pub summary: String,
    /// Prometheus-style text dump of all counters and histograms.
    pub prometheus: String,
    /// Chrome `trace.json` (open in `chrome://tracing` or Perfetto).
    pub chrome_json: String,
    /// Collapsed-stack flamegraph text (`stack cycles` per line).
    pub flame: String,
}

impl TraceArtifacts {
    fn render(summary: String, merged: &Merged) -> Self {
        Self {
            summary,
            prometheus: export::prometheus(merged),
            chrome_json: export::chrome_json(merged),
            flame: export::flame(merged),
        }
    }

    /// Everything the sink has recorded so far, with an empty summary: what
    /// `repro <experiment> --out <dir>` writes on exit.
    pub fn of_sink() -> Self {
        Self::render(String::new(), &telemetry::snapshot())
    }

    /// The exact stdout of `repro trace`: summary, then the Prometheus
    /// dump (the part CI golden-diffs).
    pub fn stdout(&self) -> String {
        format!("{}{}", self.summary, self.prometheus)
    }

    /// Writes `metrics.prom`, `trace.json` and `flamegraph.txt` to `dir`,
    /// creating it if needed.
    ///
    /// # Errors
    ///
    /// Returns a message naming the directory or file that could not be
    /// written.
    pub fn write(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for (name, body) in [
            ("metrics.prom", &self.prometheus),
            ("trace.json", &self.chrome_json),
            ("flamegraph.txt", &self.flame),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, body)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
        Ok(())
    }
}

/// Profiled workload runs: each (track, scheme) pair runs the NGINX server
/// module with per-function cycle attribution, fanned through the exec
/// engine so records exercise the deterministic task-order merge.
fn phase_workloads(quick: bool) -> (u64, u64) {
    let rounds = if quick { 1 } else { 3 };
    let module = nginx::server_module(rounds);
    let arms: [(&str, Scheme); 2] = [
        ("nginx/baseline", Scheme::Baseline),
        ("nginx/pacstack", Scheme::PacStack),
    ];
    let run = exec::parallel_map(&arms, |_, (track, scheme)| {
        measure::run_module_profiled(&module, *scheme, BUDGET, track)
    });
    exec::stats::record("trace/workloads", run.stats);
    let base = run.results[0].cycles;
    let inst = run.results[1].cycles;
    (base, inst)
}

/// Fault-injection mini-campaign over every chaos target, populating the
/// injection-window occupancy counters and the trial-latency histogram.
///
/// # Errors
///
/// Returns a message if any chaos target fails to prepare.
fn phase_chaos(quick: bool) -> Result<(u64, u64), String> {
    let trials_per_class = if quick { 2 } else { 6 };
    let report = coverage(&chaos_module(), trials_per_class, 0xFA17C)
        .map_err(|e| format!("chaos campaign failed to prepare: {e}"))?;
    let mut trials = 0u64;
    let mut detected = 0u64;
    for target in &report {
        for class in pacstack_chaos::FaultClass::ALL {
            let cell = target.cell(class);
            trials += cell.total();
            detected += cell.detected;
        }
    }
    Ok((trials, detected))
}

/// ACS exercise: seeded call/return churn with one tampered return and one
/// `setjmp`/`longjmp` per trial, driving the `acs_*` and `pauth_*`
/// counters (including a fresh key generation per trial).
fn phase_acs(quick: bool) -> u64 {
    let trials = if quick { 8 } else { 32 };
    let run = exec::run_trials(0x7E1E_ACE5, trials, |_, rng| {
        let pa = PointerAuth::new(VaLayout::default());
        let keys = PaKeys::from_seed(rng.gen());
        let mut acs = AuthenticatedCallStack::new(pa, keys, AcsConfig::default());
        acs.call(0x40_1000);
        let buf = acs.setjmp(0x40_5000, 0x7fff_0000);
        acs.call(0x40_2000);
        acs.call(0x40_3000);
        assert_eq!(acs.ret().ok(), Some(0x40_3000));
        acs.longjmp(&buf).ok();
        acs.call(0x40_4000);
        acs.frames_mut()[1].stored_chain ^= 1; // adversary tampers the slot
        assert!(acs.ret().is_err());
        acs.ret().ok();
    });
    exec::stats::record("trace/acs", run.stats);
    trials
}

/// Runs the full capture scenario on a freshly reset sink and returns its
/// artifacts. The sink goes back to its previous on/off state and the
/// capture stays in the store, so a later [`TraceArtifacts::of_sink`]
/// exports the same files.
///
/// # Errors
///
/// Propagates phase failures (chaos preparation errors).
pub fn capture(quick: bool) -> Result<TraceArtifacts, String> {
    let was_enabled = telemetry::enabled();
    telemetry::reset();
    telemetry::enable();
    let result = capture_phases(quick);
    if !was_enabled {
        telemetry::disable();
    }
    let mut summary = result?;
    let merged = telemetry::snapshot();
    let _ = writeln!(
        summary,
        "merged           {} counters, {} histograms, {} stacks, {} spans\n",
        merged.counters.len(),
        merged.histograms.len(),
        merged.stacks.len(),
        merged.spans.len()
    );
    Ok(TraceArtifacts::render(summary, &merged))
}

/// Runs the three phases and returns the summary's lines for them.
fn capture_phases(quick: bool) -> Result<String, String> {
    let (baseline, pacstack) = phase_workloads(quick);
    let (trials, detected) = phase_chaos(quick)?;
    let acs_trials = phase_acs(quick);
    Ok(format!(
        "telemetry trace capture{}\n\
         phase workloads  nginx profiled: baseline {baseline} cycles, pacstack {pacstack} cycles\n\
         phase chaos      {trials} injection trials, {detected} detected crashes\n\
         phase acs        {acs_trials} call-chain trials\n",
        if quick { " (quick mode)" } else { "" }
    ))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn quick_capture_produces_all_artifacts() {
        let artifacts = capture(true).unwrap();
        assert!(artifacts
            .summary
            .contains("telemetry trace capture (quick mode)"));
        assert!(artifacts.prometheus.contains("acs_calls_total"));
        assert!(artifacts.prometheus.contains("cpu_cycles_total"));
        assert!(artifacts.prometheus.contains("chaos_trials_total"));
        assert!(artifacts.prometheus.contains("pauth_pac_computes_total"));
        assert!(artifacts.chrome_json.contains("nginx/pacstack"));
        assert!(artifacts.flame.contains("nginx/baseline;"));
        // The sink is off again, and the capture stays in the store for an
        // export at exit.
        assert!(!telemetry::enabled());
        let at_exit = TraceArtifacts::of_sink();
        assert_eq!(at_exit.prometheus, artifacts.prometheus);
        assert_eq!(at_exit.chrome_json, artifacts.chrome_json);
        assert_eq!(at_exit.flame, artifacts.flame);
        telemetry::reset();
    }
}
