//! Measure instrumentation overhead on one SPEC-profile workload, the way
//! Figure 5 is produced — with the full per-scheme cycle breakdown.
//!
//! ```text
//! cargo run --release --example spec_overhead [benchmark]
//! ```

use pacstack::compiler::Scheme;
use pacstack::workloads::measure::run_module;
use pacstack::workloads::spec::{c_benchmark, Suite, C_BENCHMARKS};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "gcc".to_owned());
    let Some(profile) = c_benchmark(&name) else {
        eprintln!(
            "unknown benchmark {name:?}; available: {}",
            C_BENCHMARKS
                .iter()
                .map(|b| b.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(1);
    };

    println!(
        "benchmark: {} (profile: depth {}, {} leaf calls/function)",
        profile.name, profile.depth, profile.leaf_calls
    );
    for suite in [Suite::Rate, Suite::Speed] {
        let module = profile.module(suite);
        let baseline = run_module(&module, Scheme::Baseline, 2_000_000_000);
        println!(
            "\n{suite}: baseline {} cycles, {} instructions",
            baseline.cycles, baseline.instructions
        );
        println!("  {:<28} {:>12} {:>10}", "scheme", "cycles", "overhead");
        for scheme in Scheme::ALL {
            let m = run_module(&module, scheme, 2_000_000_000);
            assert_eq!(
                baseline.exit_code, m.exit_code,
                "{scheme} changed program behaviour"
            );
            let overhead =
                (m.cycles as f64 - baseline.cycles as f64) / baseline.cycles as f64 * 100.0;
            println!(
                "  {:<28} {:>12} {:>9.2}%",
                scheme.to_string(),
                m.cycles,
                overhead
            );
        }
    }
}
