//! Edge cases and failure injection across crate boundaries.

use pacstack::aarch64::kernel::Scheduler;
use pacstack::aarch64::trace::TraceEntry;
use pacstack::aarch64::{Cpu, Fault, Instruction, Perms, Program, Reg};
use pacstack::acs::{AcsConfig, AuthenticatedCallStack};
use pacstack::compiler::{lower, FuncDef, Module, Scheme, Stmt};
use pacstack::pauth::{PaKeys, PointerAuth, VaLayout};
use pacstack::telemetry::Ring;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn acs() -> AuthenticatedCallStack {
    AuthenticatedCallStack::new(
        PointerAuth::new(VaLayout::default()),
        PaKeys::from_seed(5),
        AcsConfig::default(),
    )
}

#[test]
fn interleaved_setjmp_buffers_resolve_independently() {
    let mut acs = acs();
    acs.call(0x40_1000);
    let outer = acs.setjmp(0x40_9000, 0x7fff_f000);
    acs.call(0x40_2000);
    let inner = acs.setjmp(0x40_9100, 0x7fff_e000);
    acs.call(0x40_3000);

    // Jump to the inner mark first, then the outer — both verify.
    assert_eq!(acs.longjmp(&inner).unwrap(), 0x40_9100);
    assert_eq!(acs.depth(), 2);
    assert_eq!(acs.longjmp(&outer).unwrap(), 0x40_9000);
    assert_eq!(acs.depth(), 1);
}

#[test]
fn longjmp_across_a_reseed_is_caught_by_the_validating_unwinder() {
    // Re-seeding (fork) rewrites the chain. A buffer captured before it is
    // *internally* consistent (its binding verifies under the unchanged PA
    // keys), so plain longjmp accepts it — the §9.1 freshness gap. But the
    // restored chain head no longer matches the rewritten frames, so (a)
    // the validating unwinder rejects the buffer up front, and (b) even
    // after a plain longjmp the very next return faults.
    let mut acs = acs();
    acs.call(0x40_1000);
    let stale = acs.setjmp(0x40_9000, 0x7fff_f000);

    let mut validating = acs.clone();
    validating.reseed(0xFEED_F00D);
    assert!(
        validating.longjmp_validating(&stale).is_err(),
        "validating unwinder must reject a pre-reseed buffer"
    );

    acs.reseed(0xFEED_F00D);
    assert_eq!(
        acs.longjmp(&stale).unwrap(),
        0x40_9000,
        "plain longjmp trusts the buffer"
    );
    assert!(
        acs.ret().is_err(),
        "the stale chain head breaks on the next return"
    );
}

#[test]
fn chain_register_exclusivity_against_jmpbuf_mixing() {
    // A buffer from one process (keys) presented to another fails.
    let mut a = acs();
    a.call(0x40_1000);
    let foreign = a.setjmp(0x40_9000, 0x7fff_f000);

    let mut b = AuthenticatedCallStack::new(
        PointerAuth::new(VaLayout::default()),
        PaKeys::from_seed(6),
        AcsConfig::default(),
    );
    b.call(0x40_1000);
    assert!(b.longjmp(&foreign).is_err());
}

#[test]
fn scheduler_with_huge_quantum_matches_uninterrupted_run() {
    let mut m = Module::new();
    m.push(FuncDef::new("main", vec![Stmt::Compute(3), Stmt::Return]));
    m.push(FuncDef::new(
        "worker",
        vec![Stmt::Loop(8, vec![Stmt::Call("unit".into())]), Stmt::Return],
    ));
    m.push(FuncDef::new("unit", vec![Stmt::Compute(5), Stmt::Return]));

    let run = |quantum: u64| {
        let mut cpu = Cpu::with_seed(lower(&m, Scheme::PacStack), 4);
        let mut sched = Scheduler::adopt_main(&cpu);
        sched.spawn(&mut cpu, "worker", 7).unwrap();
        sched.run_all(&mut cpu, quantum, 100_000).expect("clean")[1]
    };
    assert_eq!(run(10_000_000), run(13)); // no-preemption vs heavy preemption
}

#[test]
fn scheduler_reports_timeout_for_divergent_tasks() {
    let mut m = Module::new();
    m.push(FuncDef::new("main", vec![Stmt::Compute(1), Stmt::Return]));
    m.push(FuncDef::new(
        "spinner",
        vec![Stmt::Loop(1_000_000, vec![Stmt::Compute(50)]), Stmt::Return],
    ));
    let mut cpu = Cpu::with_seed(lower(&m, Scheme::Baseline), 1);
    let mut sched = Scheduler::adopt_main(&cpu);
    sched.spawn(&mut cpu, "spinner", 0).unwrap();
    assert!(sched.run_all(&mut cpu, 100, 10).is_err());
    // The spinner is still live; main may or may not have finished in 10
    // slices, but nothing crashed.
    assert!(sched.live_tasks() >= 1);
}

#[test]
fn spawning_past_the_thread_stack_area_is_a_fault_not_a_panic() {
    let mut m = Module::new();
    m.push(FuncDef::new("main", vec![Stmt::Return]));
    m.push(FuncDef::new("worker", vec![Stmt::Return]));
    let mut cpu = Cpu::with_seed(lower(&m, Scheme::PacStack), 1);
    let mut sched = Scheduler::adopt_main(&cpu);
    for seed in 0..120 {
        sched.spawn(&mut cpu, "worker", seed).unwrap();
    }
    // The 121st thread stack would overlap the main stack.
    let spawn = catch_unwind(AssertUnwindSafe(|| sched.spawn(&mut cpu, "worker", 120)));
    let fault = spawn.expect("spawn must not unwind").unwrap_err();
    assert!(matches!(fault, Fault::AccessFault { .. }), "got {fault}");
    // A refused spawn maps nothing and reserves nothing: retrying reports
    // the same stack base, and the 121 existing tasks still run clean.
    assert_eq!(sched.spawn(&mut cpu, "worker", 121), Err(fault));
    assert_eq!(sched.live_tasks(), 121);
    assert!(sched.run_all(&mut cpu, 1_000, 100_000).is_ok());
}

#[test]
fn pa_instructions_cost_fixed_cycles() {
    let mut p = Program::new();
    p.function(
        "main",
        vec![
            Instruction::Paciasp,
            Instruction::Autiasp,
            Instruction::MovImm(Reg::X0, 0),
            Instruction::Ret,
        ],
    );
    // The §7 PA-analogue: 4 cycles per PAC, 1 per ALU instruction and
    // branch, whatever the keys or the address layout. Main's body costs
    // 10; the entry glue's `bl main` adds 1 and its exit `svc` 200.
    for (seed, layout) in [(1, VaLayout::default()), (2, VaLayout::new(48, false))] {
        let mut cpu = Cpu::with_parts(p.clone(), PaKeys::from_seed(seed), PointerAuth::new(layout));
        assert_eq!(cpu.run(100).unwrap().cycles, (4 + 4 + 1 + 1) + 1 + 200);
    }
}

#[test]
fn adjacent_memory_segments_and_boundary_access() {
    let mut mem = pacstack::aarch64::Memory::new(VaLayout::default());
    mem.map(0x1000, 0x1000, Perms::ReadWrite);
    mem.map(0x2000, 0x1000, Perms::ReadWrite); // exactly adjacent: allowed
    mem.write_u64(0x1FF8, 0xAA).unwrap(); // last slot of segment 1
    mem.write_u64(0x2000, 0xBB).unwrap(); // first slot of segment 2
    assert_eq!(mem.read_u64(0x1FF8).unwrap(), 0xAA);
    // A straddling access is rejected even though both sides are mapped —
    // the segments are distinct mappings.
    assert!(mem.read_u64(0x1FFC).is_err());
}

#[test]
fn trace_captures_the_road_to_a_fault() {
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![
            Stmt::Checkpoint(42),
            Stmt::Call("noop".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new("noop", vec![Stmt::Compute(1), Stmt::Return]));
    let mut cpu = Cpu::with_seed(lower(&m, Scheme::PacStack), 9);
    let mut trace = Ring::new(16);
    let mut record = |cpu: &Cpu, insn| trace.record(TraceEntry::observed(cpu, insn));
    cpu.run_observed(100_000, &mut record).unwrap();
    let sp = cpu.reg(Reg::Sp);
    cpu.mem_mut().write_u64(sp, 0xBAD).unwrap(); // chain slot
    assert!(cpu.run_observed(100_000, &mut record).is_err());
    // The last traced instruction is the one whose result faulted (the
    // return through the corrupted chain).
    let last = trace.entries().last().unwrap();
    assert!(
        matches!(last.insn, Instruction::Ret | Instruction::Autia(..)),
        "unexpected final instruction {:?}",
        last.insn
    );
}

#[test]
fn single_iteration_loop_is_fine() {
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![Stmt::Loop(1, vec![Stmt::Compute(1)]), Stmt::Return],
    ));
    let mut cpu = Cpu::with_seed(lower(&m, Scheme::Baseline), 1);
    assert!(cpu.run(10_000).is_ok());
}

#[test]
#[should_panic(expected = "Loop(0)")]
fn zero_iteration_loop_is_rejected_at_lowering() {
    // A 0-count loop would underflow the down-counter and diverge; the
    // lowering rejects it up front.
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![Stmt::Loop(0, vec![Stmt::Compute(1)]), Stmt::Return],
    ));
    let _ = lower(&m, Scheme::Baseline);
}
