//! Budget exhaustion is a clean pause: a run of `Cpu::run_observed` split
//! into segments of any length retires, counts, emits and observes exactly
//! what one uninterrupted run does. Fault injection (a trial runs up to each
//! injection's retire index) and the kernel scheduler (one segment per
//! quantum) rely on this.

use pacstack::aarch64::{Cpu, Fault, InsnCounters, Instruction, Outcome};
use pacstack::compiler::{lower, Scheme};
use pacstack::workloads::synth;
use proptest::prelude::*;

/// Everything a run leaves behind that a resumed run could get wrong.
#[derive(Debug, PartialEq)]
struct Run {
    result: Result<Outcome, Fault>,
    output: Vec<u64>,
    counters: InsnCounters,
    shadow_accesses: u64,
    pac_cache_stats: (u64, u64),
    observed: Vec<(u64, Instruction)>,
}

/// Runs `cpu` to its end in segments of at most `segment` instructions,
/// resuming after every `Timeout`.
fn run_in_segments(mut cpu: Cpu, segment: u64) -> Run {
    let mut observed = Vec::new();
    let result = loop {
        match cpu.run_observed(segment, |cpu, insn| observed.push((cpu.pc(), insn))) {
            Err(Fault::Timeout) => {}
            end => break end,
        }
    };
    Run {
        result,
        output: cpu.output().to_vec(),
        counters: cpu.counters(),
        shadow_accesses: cpu.shadow_accesses(),
        pac_cache_stats: cpu.pac_cache_stats(),
        observed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_segmented_run_equals_one_run(seed in 0u64..1_000_000, segment in 1u64..=64) {
        let module = synth::generate(&Default::default(), seed);
        for scheme in Scheme::ALL {
            let cpu = Cpu::with_seed(lower(&module, scheme), 7);
            let whole = run_in_segments(cpu.clone(), u64::MAX);
            prop_assert!(whole.result.is_ok(), "{scheme}: {:?}", whole.result);
            let segmented = run_in_segments(cpu, segment);
            prop_assert_eq!(segmented, whole, "{} in segments of {}", scheme, segment);
        }
    }
}
