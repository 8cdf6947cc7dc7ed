//! The observer contract of [`Cpu::run_observed`]: called once per retired
//! instruction, after the cycle charge and before the instruction executes,
//! and otherwise exactly [`Cpu::run`].

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pacstack_aarch64::program::Op;
use pacstack_aarch64::{Cpu, Fault, Instruction as I, Outcome, Program, Reg, RunStatus};
use pacstack_telemetry as telemetry;
use std::collections::BTreeMap;

/// `main` signs LR, calls `leaf` directly and through `blr`, emits a value
/// with `svc #1`, authenticates LR and returns to the entry stub, which
/// exits with `svc #0`.
fn call_program() -> Program {
    let mut p = Program::new();
    p.function_ops(
        "main",
        vec![
            Op::I(I::Paciasp),
            Op::I(I::StrPre(Reg::X30, Reg::Sp, -16)),
            Op::I(I::MovImm(Reg::X0, 1)),
            Op::Call("leaf".into()),
            Op::FnAddr(Reg::X9, "leaf".into()),
            Op::I(I::Blr(Reg::X9)),
            Op::I(I::Svc(1)),
            Op::I(I::LdrPost(Reg::X30, Reg::Sp, 16)),
            Op::I(I::Autiasp),
            Op::I(I::Ret),
        ],
    );
    p.function("leaf", vec![I::AddImm(Reg::X0, Reg::X0, 1), I::Ret]);
    p
}

/// `main` loads through a null pointer.
fn faulting_program() -> Program {
    let mut p = Program::new();
    p.function(
        "main",
        vec![I::MovImm(Reg::X1, 0), I::Ldr(Reg::X0, Reg::X1, 0), I::Ret],
    );
    p
}

#[test]
fn observer_sees_every_retired_instruction_after_its_charge() {
    let mut cpu = Cpu::with_seed(call_program(), 7);
    let mut seen: Vec<(u64, I, u64)> = Vec::new();
    let out = cpu
        .run_observed(10_000, |cpu, insn| {
            seen.push((cpu.pc(), insn, cpu.cycles()))
        })
        .unwrap();
    assert_eq!(out.status, RunStatus::Exited(3));
    assert_eq!(seen.len() as u64, out.instructions);
    assert_eq!(seen.last().map(|&(_, _, cycles)| cycles), Some(out.cycles));
    // Post-charge: each observed count exceeds the previous one by exactly
    // the observed instruction's own charge.
    let mut before = 0;
    for &(_, insn, cycles) in &seen {
        assert_eq!(cycles - before, insn.classify().cycles, "{insn}");
        before = cycles;
    }
    for expected in [
        I::Paciasp,
        I::Autiasp,
        I::Blr(Reg::X9),
        I::Svc(1),
        I::Svc(0),
    ] {
        assert!(
            seen.iter().any(|&(_, insn, _)| insn == expected),
            "{expected}"
        );
    }
    assert_eq!(cpu.output(), &[3]);
}

#[test]
fn observer_reads_pre_execution_registers() {
    let mut cpu = Cpu::with_seed(call_program(), 7);
    let mut pending: Option<u64> = None;
    let mut checked = 0;
    cpu.run_observed(10_000, |cpu, insn| {
        if let Some(target) = pending.take() {
            assert_eq!(cpu.pc(), target, "branch target is the next observed PC");
            checked += 1;
        }
        match insn {
            I::Bl(target) => pending = Some(target),
            I::Blr(n) => pending = Some(cpu.reg(n)),
            _ => {}
        }
    })
    .unwrap();
    assert_eq!(checked, 3, "entry-stub bl, main's bl and main's blr");
}

#[test]
fn faulting_instruction_is_observed() {
    let mut cpu = Cpu::with_seed(faulting_program(), 7);
    let mut seen = Vec::new();
    let result = cpu.run_observed(10_000, |_, insn| seen.push(insn));
    assert_eq!(result, Err(Fault::AccessFault { addr: 0 }));
    assert_eq!(seen.last(), Some(&I::Ldr(Reg::X0, Reg::X1, 0)));
    assert_eq!(seen.len() as u64, cpu.instructions());
}

/// The outcome of `run_one` on a fresh CPU and the telemetry counters it
/// published, recorded on this thread alone.
fn published(
    program: Program,
    run_one: impl FnOnce(&mut Cpu) -> Result<Outcome, Fault>,
) -> (Result<Outcome, Fault>, BTreeMap<String, u64>) {
    telemetry::reset();
    telemetry::enable();
    let mut cpu = Cpu::with_seed(program, 7);
    let result = run_one(&mut cpu);
    telemetry::disable();
    let counters = telemetry::snapshot().counters;
    telemetry::reset();
    (result, counters)
}

// The only test in this binary that enables telemetry: the store is
// process-global, so a second one could see this one's counters.
#[test]
fn a_silent_observer_runs_exactly_like_run() {
    for program in [call_program, faulting_program] {
        let plain = published(program(), |cpu| cpu.run(10_000));
        let observed = published(program(), |cpu| cpu.run_observed(10_000, |_, _| {}));
        assert_eq!(plain, observed);
        assert!(plain.1.contains_key("cpu_insns_total"), "{:?}", plain.1);
    }
    let faulted = published(faulting_program(), |cpu| cpu.run(10_000));
    assert_eq!(
        faulted.1.get("cpu_faults_total{kind=\"access\"}"),
        Some(&1),
        "{:?}",
        faulted.1
    );
}
