//! Process-wide registry of engine invocations, so drivers can report
//! per-experiment throughput/occupancy after the tables are printed.
//!
//! Statistics vary run to run (they measure time), so they must never be
//! mixed into experiment output: drivers render them to **stderr**, keeping
//! stdout byte-identical across thread counts.

use crate::ExecStats;
use std::sync::Mutex;
use std::time::Duration;

static REGISTRY: Mutex<Vec<(String, ExecStats)>> = Mutex::new(Vec::new());

/// Records one engine invocation under a human-readable label
/// (e.g. `"table1 pac=16b h=0.1"`).
pub fn record(label: impl Into<String>, stats: ExecStats) {
    REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push((label.into(), stats));
}

/// Takes all recorded entries, leaving the registry empty.
pub fn drain() -> Vec<(String, ExecStats)> {
    std::mem::take(&mut REGISTRY.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Renders entries as a fixed-width table with a totals row, suitable for
/// printing to stderr.
pub fn render(entries: &[(String, ExecStats)]) -> String {
    let mut out = String::new();
    if entries.is_empty() {
        return out;
    }
    let width = entries
        .iter()
        .map(|(label, _)| label.len())
        .max()
        .unwrap_or(0)
        .max("experiment".len());
    out.push_str(&format!(
        "{:width$}  {:>10}  {:>4}  {:>12}  {:>10}  {:>10}  {:>5}\n",
        "experiment", "trials", "jobs", "trials/s", "wall", "cpu", "occ",
    ));
    let mut total_trials = 0u64;
    let mut total_wall = Duration::ZERO;
    let mut total_busy = Duration::ZERO;
    for (label, stats) in entries {
        total_trials += stats.trials;
        total_wall += stats.wall;
        total_busy += stats.busy;
        out.push_str(&format!(
            "{label:width$}  {:>10}  {:>4}  {:>12.0}  {:>10.2?}  {:>10.2?}  {:>4.0}%\n",
            stats.trials,
            stats.jobs,
            stats.trials_per_sec(),
            stats.wall,
            stats.busy,
            stats.utilization() * 100.0,
        ));
    }
    let wall_secs = total_wall.as_secs_f64();
    let rate = if wall_secs == 0.0 {
        0.0
    } else {
        total_trials as f64 / wall_secs
    };
    out.push_str(&format!(
        "{:width$}  {:>10}  {:>4}  {:>12.0}  {:>10.2?}  {:>10.2?}  {:>4}\n",
        "total", total_trials, "", rate, total_wall, total_busy, "",
    ));
    out
}

/// Drains the registry and writes the rendered table to stderr
/// (no-op when nothing was recorded).
pub fn report_to_stderr() {
    let entries = drain();
    if entries.is_empty() {
        return;
    }
    eprintln!("\nengine throughput (stderr only; never part of experiment output):");
    eprint!("{}", render(&entries));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(trials: u64) -> ExecStats {
        ExecStats {
            trials,
            jobs: 2,
            wall: Duration::from_millis(100),
            busy: Duration::from_millis(150),
        }
    }

    #[test]
    fn record_and_drain_round_trip() {
        drain();
        record("a", sample(10));
        record("b", sample(20));
        let entries = drain();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "a");
        assert_eq!(entries[1].1.trials, 20);
        assert!(drain().is_empty());
    }

    #[test]
    fn render_includes_labels_and_totals() {
        let entries = vec![("exp-one".to_string(), sample(1000))];
        let table = render(&entries);
        assert!(table.contains("exp-one"));
        assert!(table.contains("total"));
        assert!(table.contains("1000"));
        assert!(render(&[]).is_empty());
    }
}
