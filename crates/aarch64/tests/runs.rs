//! Observer exactness through `add`/`eor` runs: [`Cpu::run_observed`]
//! retires a straight line of `op Xd, Xd, #imm` in one inner loop, and an
//! observer must still see every instruction as single-stepping shows it.
//! One run, single steps (`run_observed(1, ..)`) and runs split at every
//! short segment length record, per observed instruction, the same PC,
//! instruction, cycle and retire counts with its charge included, and
//! register values, and end in the same state.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pacstack_aarch64::{Cpu, Fault, InsnCounters, Instruction, Outcome, Reg};
use pacstack_compiler::{lower, FuncDef, Module, Scheme, Stmt};
use pacstack_workloads::synth::{generate, SynthConfig};
use proptest::prelude::*;

/// What an observer can read of the CPU when it is called: every register
/// an instruction may read, `X0`–`X30` and `SP`.
#[derive(Debug, PartialEq)]
struct Seen {
    pc: u64,
    insn: Option<Instruction>,
    cycles: u64,
    instructions: u64,
    counters: InsnCounters,
    regs: Vec<u64>,
}

impl Seen {
    fn of(cpu: &Cpu, insn: Option<Instruction>) -> Self {
        Self {
            pc: cpu.pc(),
            insn,
            cycles: cpu.cycles(),
            instructions: cpu.instructions(),
            counters: cpu.counters(),
            regs: Reg::general_purpose()
                .chain([Reg::Sp])
                .map(|reg| cpu.reg(reg))
                .collect(),
        }
    }
}

/// Runs `cpu` to its end in segments of at most `segment` instructions,
/// resuming after every `Timeout`; returns the result, every observation,
/// then the final state as one more entry.
fn record(mut cpu: Cpu, segment: u64) -> (Result<Outcome, Fault>, Vec<Seen>) {
    let mut seen = Vec::new();
    let result = loop {
        match cpu.run_observed(segment, |cpu, insn| seen.push(Seen::of(cpu, Some(insn)))) {
            Err(Fault::Timeout) => {}
            end => break end,
        }
    };
    seen.push(Seen::of(&cpu, None));
    (result, seen)
}

/// `main` runs a `Compute(16)`, calls a leaf that runs another, then loops
/// over a `Compute(5)`: runs at a function entry, after a call and across
/// a loop's back edge.
fn compute_module() -> Module {
    let mut module = Module::new();
    module.push(FuncDef::new(
        "main",
        vec![
            Stmt::Compute(16),
            Stmt::Call("leaf".into()),
            Stmt::Loop(3, vec![Stmt::Compute(5)]),
            Stmt::Return,
        ],
    ));
    module.push(FuncDef::new("leaf", vec![Stmt::Compute(16), Stmt::Return]));
    module
}

#[test]
fn a_compute_run_split_at_every_short_length_is_observed_alike() {
    let module = compute_module();
    for scheme in Scheme::ALL {
        let cpu = Cpu::with_seed(lower(&module, scheme), 7);
        let (result, whole) = record(cpu.clone(), u64::MAX);
        assert!(result.is_ok(), "{scheme}: {result:?}");
        let eors = whole
            .iter()
            .filter(|seen| matches!(seen.insn, Some(Instruction::EorImm(Reg::X0, ..))))
            .count();
        assert_eq!(eors, 8 + 8 + 3 * 2, "{scheme}");
        // Each observation includes the observed instruction's own charge.
        for pair in whole.windows(2) {
            if let Some(insn) = pair[1].insn {
                assert_eq!(pair[1].cycles - pair[0].cycles, insn.classify().cycles);
                assert_eq!(pair[1].instructions - pair[0].instructions, 1);
            }
        }
        for segment in 1..=8 {
            let (split_result, split) = record(cpu.clone(), segment);
            assert_eq!(split_result, result, "{scheme} in segments of {segment}");
            assert_eq!(split, whole, "{scheme} in segments of {segment}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn one_run_observes_what_single_steps_observe(seed in 0u64..1_000_000) {
        let module = generate(&SynthConfig::default(), seed);
        for scheme in Scheme::ALL {
            let cpu = Cpu::with_seed(lower(&module, scheme), 7);
            let (result, whole) = record(cpu.clone(), u64::MAX);
            prop_assert!(result.is_ok(), "{}: {:?}", scheme, result);
            let (stepped_result, stepped) = record(cpu, 1);
            prop_assert_eq!(stepped_result, result, "{}", scheme);
            prop_assert_eq!(stepped, whole, "{}", scheme);
        }
    }
}
