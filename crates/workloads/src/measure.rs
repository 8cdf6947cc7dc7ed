//! Measurement helpers: run a module under each scheme, report overheads.

use pacstack_aarch64::{Cpu, Fault, Instruction, Profiler, RunStatus};
use pacstack_compiler::{lower, Module, Scheme};
use pacstack_telemetry as telemetry;
use pacstack_telemetry::SpanEvent;

/// Span-buffer cap for [`run_module_profiled`]; overflow is counted, not
/// silently dropped (`workload_profile_spans_dropped_total`).
const PROFILE_SPAN_CAP: usize = 1 << 16;

/// Result of running one module under one scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measurement {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total retired instructions.
    pub instructions: u64,
    /// The program's exit code (schemes must agree on it).
    pub exit_code: u64,
}

/// Runs `module` to completion under `scheme` and measures it.
///
/// # Panics
///
/// Panics if the program faults or exceeds `budget` instructions — workload
/// programs are supposed to run clean under every scheme.
pub fn run_module(module: &Module, scheme: Scheme, budget: u64) -> Measurement {
    run_to_exit(&mut cpu_for(module, scheme), scheme, budget, |_, _| {})
}

/// Runs `module` under `scheme` with per-function cycle attribution and
/// publishes the profile through the telemetry sink.
///
/// Collapsed call stacks land as flamegraph entries prefixed with `track`
/// (`"{track};{stack}"`), completed activations as span events on the
/// `track` timeline, and the run's architectural counters via
/// [`Cpu::publish_telemetry`]. With telemetry disabled the profile is
/// discarded; either way the measurement equals [`run_module`]'s because
/// the [`Profiler`] only observes the run.
///
/// # Panics
///
/// Panics under the same conditions as [`run_module`].
pub fn run_module_profiled(
    module: &Module,
    scheme: Scheme,
    budget: u64,
    track: &str,
) -> Measurement {
    let mut cpu = cpu_for(module, scheme);
    let mut profiler = Profiler::new(&cpu, PROFILE_SPAN_CAP);
    let m = run_to_exit(&mut cpu, scheme, budget, |cpu, insn| {
        profiler.observe(cpu, insn)
    });
    if telemetry::enabled() {
        let profile = profiler.finish(&cpu);
        for (stack, self_cycles) in &profile.stacks {
            telemetry::stack(&format!("{track};{stack}"), *self_cycles);
        }
        for span in &profile.spans {
            telemetry::span(SpanEvent::new(
                track,
                span.name.as_str(),
                "function",
                span.start,
                span.dur,
            ));
        }
        if profile.dropped_spans > 0 {
            telemetry::counter(
                "workload_profile_spans_dropped_total",
                profile.dropped_spans,
            );
        }
        telemetry::observe_cycles("workload_run_cycles", m.cycles);
    }
    m
}

/// The CPU every measurement runs on: `module` lowered under `scheme`,
/// keys from a fixed seed.
fn cpu_for(module: &Module, scheme: Scheme) -> Cpu {
    Cpu::with_seed(lower(module, scheme), 0xACE5)
}

/// Runs `cpu`, holding a program lowered under `scheme`, to its exit with
/// `observe` as the [`Cpu::run_observed`] observer, and measures it: the
/// run-and-check body of [`run_module`], [`run_module_profiled`] and every
/// experiment that reads more of the CPU than a [`Measurement`].
///
/// # Panics
///
/// Panics, naming `scheme`, if the program faults, raises a syscall or
/// exceeds `budget` instructions.
pub fn run_to_exit(
    cpu: &mut Cpu,
    scheme: Scheme,
    budget: u64,
    observe: impl FnMut(&Cpu, Instruction),
) -> Measurement {
    match cpu.run_observed(budget, observe) {
        Ok(out) => match out.status {
            RunStatus::Exited(code) => Measurement {
                cycles: out.cycles,
                instructions: out.instructions,
                exit_code: code,
            },
            RunStatus::Syscall(n) => {
                panic!("workload raised unexpected syscall {n} under {scheme}")
            }
        },
        Err(Fault::Timeout) => panic!("workload exceeded {budget} instructions under {scheme}"),
        Err(fault) => panic!("workload faulted under {scheme}: {fault}"),
    }
}

/// Percentage overhead over the baseline of each of `schemes` for
/// `module`, in `schemes` order.
///
/// Simulates the baseline once and then each listed scheme once, so a row
/// of `n` schemes costs `n + 1` runs rather than the `2n` of repeated
/// [`overhead_percent`] calls. Each overhead is
/// `(cycles − baseline cycles) / baseline cycles × 100`.
///
/// # Panics
///
/// Panics if any scheme's run disagrees with the baseline on the exit code
/// (an instrumentation correctness bug) or if any run faults.
pub fn overheads(module: &Module, schemes: &[Scheme], budget: u64) -> Vec<f64> {
    let base = run_module(module, Scheme::Baseline, budget);
    schemes
        .iter()
        .map(|&scheme| {
            let inst = run_module(module, scheme, budget);
            assert_eq!(
                base.exit_code, inst.exit_code,
                "{scheme} changed program behaviour"
            );
            (inst.cycles as f64 - base.cycles as f64) / base.cycles as f64 * 100.0
        })
        .collect()
}

/// Percentage overhead of `scheme` over the baseline for `module`: the
/// one-scheme case of [`overheads`], two runs per call. Prefer
/// [`overheads`] when measuring several schemes on the same module.
///
/// # Panics
///
/// Panics if the two runs disagree on the exit code (an instrumentation
/// correctness bug) or if either run faults.
pub fn overhead_percent(module: &Module, scheme: Scheme, budget: u64) -> f64 {
    overheads(module, &[scheme], budget)[0]
}

/// Geometric mean of a slice of percentage overheads, computed over the
/// run-time *ratios* (as SPEC does), returned as a percentage.
///
/// # Examples
///
/// ```
/// use pacstack_workloads::measure::geometric_mean_percent;
///
/// let g = geometric_mean_percent(&[1.0, 4.0]);
/// assert!((g - 2.488).abs() < 0.01); // sqrt(1.01 * 1.04) = 1.02488
/// ```
pub fn geometric_mean_percent(overheads: &[f64]) -> f64 {
    if overheads.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = overheads.iter().map(|p| (1.0 + p / 100.0).ln()).sum();
    ((log_sum / overheads.len() as f64).exp() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacstack_compiler::{FuncDef, Stmt};

    fn tiny_module() -> Module {
        let mut m = Module::new();
        m.push(FuncDef::new(
            "main",
            vec![Stmt::Loop(10, vec![Stmt::Call("f".into())]), Stmt::Return],
        ));
        m.push(FuncDef::new("f", vec![Stmt::Compute(5), Stmt::Return]));
        m
    }

    #[test]
    fn overhead_is_positive_for_instrumented_schemes() {
        let m = tiny_module();
        assert!(overhead_percent(&m, Scheme::PacStack, 1_000_000) > 0.0);
        assert_eq!(overhead_percent(&m, Scheme::Baseline, 1_000_000), 0.0);
    }

    #[test]
    fn geometric_mean_of_equal_values_is_that_value() {
        let g = geometric_mean_percent(&[3.0, 3.0, 3.0]);
        assert!((g - 3.0).abs() < 1e-9);
    }

    #[test]
    fn geometric_mean_of_empty_is_zero() {
        assert_eq!(geometric_mean_percent(&[]), 0.0);
    }

    #[test]
    fn profiled_run_matches_plain_run() {
        // Profiling must be architecturally invisible: same cycles, same
        // instructions, same exit code, telemetry on or off.
        let m = tiny_module();
        for scheme in [Scheme::Baseline, Scheme::PacStack] {
            let plain = run_module(&m, scheme, 1_000_000);
            let profiled = run_module_profiled(&m, scheme, 1_000_000, "test");
            assert_eq!(plain, profiled, "{scheme}");
        }
    }

    #[test]
    fn measurements_are_deterministic() {
        let m = tiny_module();
        let a = run_module(&m, Scheme::PacStack, 1_000_000);
        let b = run_module(&m, Scheme::PacStack, 1_000_000);
        assert_eq!(a, b);
    }
}
