//! SPEC CPU 2017-profile synthetic benchmarks (paper §7.1, Figure 5,
//! Table 2).
//!
//! Each profile encodes the published character of one SPEC C benchmark as
//! the three quantities that determine instrumentation overhead: how deep
//! the hot call chain is, how much body work each activation performs, and
//! how much of the activity happens in (uninstrumented) leaf functions.
//! `perlbench` (an interpreter) makes very frequent, shallow calls;
//! `lbm` (a lattice-Boltzmann kernel) spins in loops and almost never
//! calls; the rest sit in between.
//!
//! The paper runs each benchmark in SPECrate (`_r`) and SPECspeed (`_s`)
//! configurations; speed runs use larger inputs whose hot regions are
//! noticeably more call-bound, which the profiles reflect with a reduced
//! body-work multiplier.

use pacstack_compiler::{FuncDef, Module, Stmt};

/// Which SPEC suite flavour to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPECrate (`*_r`): throughput configuration.
    Rate,
    /// SPECspeed (`*_s`): time-to-completion configuration.
    Speed,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::Rate => f.write_str("SPECrate"),
            Suite::Speed => f.write_str("SPECspeed"),
        }
    }
}

/// A synthetic profile of one SPEC CPU 2017 benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchProfile {
    /// Benchmark name (`perlbench`, `gcc`, ...).
    pub name: &'static str,
    /// Depth of the hot (instrumented) call chain per outer iteration.
    pub depth: u32,
    /// Leaf calls made by each hot function (uninstrumented activations).
    pub leaf_calls: u32,
    /// ALU operations per hot-function body.
    pub compute: u32,
    /// Store/load pairs per hot-function body.
    pub mem: u32,
    /// ALU operations per leaf body.
    pub leaf_compute: u32,
    /// Outer-loop iterations (sets total run length).
    pub iterations: u32,
}

impl BenchProfile {
    /// Builds the benchmark as an IR module for the given suite flavour.
    ///
    /// SPECspeed variants scale body work down ~28% (hot regions more
    /// call-bound) and run more iterations.
    pub fn module(&self, suite: Suite) -> Module {
        let (compute, mem, iterations) = match suite {
            Suite::Rate => (self.compute, self.mem, self.iterations),
            Suite::Speed => (
                (self.compute as f64 * 0.72).round().max(1.0) as u32,
                self.mem,
                self.iterations * 2,
            ),
        };

        let mut m = Module::new();
        m.push(FuncDef::new(
            "main",
            vec![
                Stmt::Loop(iterations, vec![Stmt::Call("hot_0".into())]),
                Stmt::Return,
            ],
        ));
        for i in 0..self.depth {
            let mut body = vec![Stmt::Compute(compute), Stmt::MemAccess(mem)];
            for _ in 0..self.leaf_calls {
                body.push(Stmt::Call("leaf".into()));
            }
            if i + 1 < self.depth {
                body.push(Stmt::Call(format!("hot_{}", i + 1)));
            }
            body.push(Stmt::Return);
            m.push(FuncDef::new(&format!("hot_{i}"), body));
        }
        m.push(FuncDef::new(
            "leaf",
            vec![Stmt::Compute(self.leaf_compute), Stmt::Return],
        ));
        m
    }
}

/// The eight C-language SPEC CPU 2017 benchmarks of the paper's Figure 5.
///
/// Calibrated so that full-PACStack overheads approximate the paper's
/// per-benchmark results: `perlbench` highest (call-bound interpreter
/// loop), `lbm` negligible (no calls in the hot loop), geometric means
/// near Table 2 (≈2.75% SPECrate / ≈3.28% SPECspeed, perlbench excluded).
pub const C_BENCHMARKS: [BenchProfile; 8] = [
    BenchProfile {
        // Interpreter: dispatch loop calling tiny opcode handlers.
        name: "perlbench",
        depth: 5,
        leaf_calls: 3,
        compute: 104,
        mem: 23,
        leaf_compute: 58,
        iterations: 60,
    },
    BenchProfile {
        // Compiler: deep pass pipelines over small functions.
        name: "gcc",
        depth: 6,
        leaf_calls: 2,
        compute: 180,
        mem: 36,
        leaf_compute: 81,
        iterations: 50,
    },
    BenchProfile {
        // Vehicle scheduling: pointer-chasing with moderate call rate.
        name: "mcf",
        depth: 2,
        leaf_calls: 1,
        compute: 516,
        mem: 258,
        leaf_compute: 172,
        iterations: 60,
    },
    BenchProfile {
        // Lattice Boltzmann: one big stencil loop, essentially no calls.
        name: "lbm",
        depth: 1,
        leaf_calls: 0,
        compute: 4000,
        mem: 1200,
        leaf_compute: 1,
        iterations: 12,
    },
    BenchProfile {
        // Video encoder: block-level helper calls around SIMD-ish kernels.
        name: "x264",
        depth: 3,
        leaf_calls: 2,
        compute: 234,
        mem: 65,
        leaf_compute: 156,
        iterations: 60,
    },
    BenchProfile {
        // Image transforms: medium-sized kernels behind wrapper calls.
        name: "imagick",
        depth: 2,
        leaf_calls: 1,
        compute: 594,
        mem: 162,
        leaf_compute: 324,
        iterations: 40,
    },
    BenchProfile {
        // Molecular dynamics: force loops with helper-function calls.
        name: "nab",
        depth: 3,
        leaf_calls: 2,
        compute: 231,
        mem: 66,
        leaf_compute: 149,
        iterations: 60,
    },
    BenchProfile {
        // LZMA: match-finder helpers around long compression loops.
        name: "xz",
        depth: 2,
        leaf_calls: 1,
        compute: 420,
        mem: 126,
        leaf_compute: 196,
        iterations: 60,
    },
];

/// The C++ benchmarks the paper reports aggregate numbers for
/// (≈2.0% PACStack / ≈0.9% nomask): virtual-call-heavy object soup.
pub const CPP_BENCHMARKS: [BenchProfile; 5] = [
    BenchProfile {
        name: "omnetpp",
        depth: 6,
        leaf_calls: 2,
        compute: 347,
        mem: 92,
        leaf_compute: 193,
        iterations: 30,
    },
    BenchProfile {
        name: "xalancbmk",
        depth: 5,
        leaf_calls: 2,
        compute: 407,
        mem: 104,
        leaf_compute: 222,
        iterations: 30,
    },
    BenchProfile {
        name: "deepsjeng",
        depth: 8,
        leaf_calls: 1,
        compute: 726,
        mem: 121,
        leaf_compute: 424,
        iterations: 25,
    },
    BenchProfile {
        // Ray tracer: very call-heavy recursive shading pipeline.
        name: "povray",
        depth: 7,
        leaf_calls: 3,
        compute: 290,
        mem: 70,
        leaf_compute: 170,
        iterations: 25,
    },
    BenchProfile {
        name: "leela",
        depth: 7,
        leaf_calls: 2,
        compute: 411,
        mem: 110,
        leaf_compute: 274,
        iterations: 30,
    },
];

/// Looks up a C benchmark profile by name.
pub fn c_benchmark(name: &str) -> Option<&'static BenchProfile> {
    C_BENCHMARKS.iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::measure::{overhead_percent, run_module};
    use pacstack_compiler::Scheme;

    const BUDGET: u64 = 200_000_000;

    #[test]
    fn all_profiles_build_and_run() {
        for profile in C_BENCHMARKS.iter().chain(CPP_BENCHMARKS.iter()) {
            let module = profile.module(Suite::Rate);
            let m = run_module(&module, Scheme::Baseline, BUDGET);
            assert!(
                m.cycles > 10_000,
                "{} too short: {}",
                profile.name,
                m.cycles
            );
        }
    }

    #[test]
    fn lbm_overhead_is_negligible() {
        let module = c_benchmark("lbm").unwrap().module(Suite::Rate);
        let o = overhead_percent(&module, Scheme::PacStack, BUDGET);
        assert!(o < 0.3, "lbm overhead {o}%");
    }

    #[test]
    fn perlbench_is_the_most_affected() {
        let perl = overhead_percent(
            &c_benchmark("perlbench").unwrap().module(Suite::Rate),
            Scheme::PacStack,
            BUDGET,
        );
        for profile in &C_BENCHMARKS {
            if profile.name == "perlbench" {
                continue;
            }
            let o = overhead_percent(&profile.module(Suite::Rate), Scheme::PacStack, BUDGET);
            assert!(perl >= o, "perlbench ({perl}%) < {} ({o}%)", profile.name);
        }
    }

    #[test]
    fn speed_suite_overheads_exceed_rate() {
        // Table 2: SPECspeed geomeans are higher than SPECrate for the
        // PACStack variants.
        let profile = c_benchmark("gcc").unwrap();
        let rate = overhead_percent(&profile.module(Suite::Rate), Scheme::PacStack, BUDGET);
        let speed = overhead_percent(&profile.module(Suite::Speed), Scheme::PacStack, BUDGET);
        assert!(speed > rate, "speed {speed}% <= rate {rate}%");
    }

    #[test]
    fn scheme_ordering_holds_per_benchmark() {
        let module = c_benchmark("gcc").unwrap().module(Suite::Rate);
        let canary = overhead_percent(&module, Scheme::StackProtector, BUDGET);
        let pacret = overhead_percent(&module, Scheme::PacRet, BUDGET);
        let scs = overhead_percent(&module, Scheme::ShadowCallStack, BUDGET);
        let nomask = overhead_percent(&module, Scheme::PacStackNomask, BUDGET);
        let full = overhead_percent(&module, Scheme::PacStack, BUDGET);
        assert!(canary <= pacret, "canary {canary} > pacret {pacret}");
        assert!(scs <= nomask, "scs {scs} > nomask {nomask}");
        assert!(pacret < nomask, "pacret {pacret} >= nomask {nomask}");
        assert!(nomask < full, "nomask {nomask} >= full {full}");
    }
}
