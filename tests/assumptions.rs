//! The paper's environmental assumptions (A1, A2) and failure-injection
//! cases, exercised on the simulator.

use pacstack::aarch64::{Cpu, Fault, Reg, RunStatus, LAYOUT};
use pacstack::compiler::{lower, FuncDef, Module, Scheme, Stmt};

#[test]
fn a1_wx_policy_blocks_code_injection() {
    // Assumption A1: the adversary cannot modify code pages.
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
    let mut cpu = Cpu::with_seed(lower(&m, Scheme::PacStack), 1);
    cpu.run(100_000).unwrap();
    // The adversary's write primitive bounces off the code segment.
    assert_eq!(
        cpu.mem_mut().write_u64(LAYOUT.code_base + 16, 0xdead),
        Err(Fault::PermissionFault {
            addr: LAYOUT.code_base + 16
        })
    );
}

#[test]
fn a2_bti_constrains_indirect_branches_to_function_entries() {
    // Assumption A2: indirect calls target function beginnings. With BTI
    // enforcement on, a corrupted function pointer aimed *inside* a
    // function faults at the branch.
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![
            Stmt::Checkpoint(42),
            Stmt::CallIndirect("target".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new("target", vec![Stmt::Compute(4), Stmt::Return]));

    // Benign run with BTI: indirect call to a function entry passes.
    let mut cpu = Cpu::with_seed(lower(&m, Scheme::PacStack), 1);
    cpu.enable_bti();
    cpu.run(100_000).unwrap(); // checkpoint
    let out = cpu.run(100_000).unwrap();
    assert!(matches!(out.status, RunStatus::Exited(_)));

    // Attack run: redirect X9 (the function-pointer register materialised
    // right after the checkpoint) cannot be done via registers, but a
    // mid-function target via a crafted program demonstrates the check.
    let mut m2 = Module::new();
    m2.push(FuncDef::new(
        "main",
        vec![Stmt::CallIndirect("target".into()), Stmt::Return],
    ));
    m2.push(FuncDef::new("target", vec![Stmt::Compute(4), Stmt::Return]));
    let program = lower(&m2, Scheme::PacStack);
    let mut cpu = Cpu::with_seed(program, 1);
    cpu.enable_bti();
    // Patch the CPU's view by running until just before the blr, then
    // bumping the pointer register to a mid-function address.
    let target = cpu.symbol("target").unwrap();
    loop {
        // Single-step by running 1 instruction at a time until X9 holds the
        // target address (the FnAddr mov executed).
        cpu.run(1).map_err(|f| assert_eq!(f, Fault::Timeout)).ok();
        if cpu.reg(Reg::X9) == target {
            break;
        }
        assert!(cpu.instructions() < 1000, "never saw the function pointer");
    }
    cpu.set_reg(Reg::X9, target + 4); // point into the body
    match cpu.run(100_000) {
        Err(Fault::FetchFault { pc }) => assert_eq!(pc, target + 4),
        other => panic!("BTI should have faulted the bent branch: {other:?}"),
    }
}

#[test]
fn without_bti_the_bent_forward_edge_lands() {
    // The same attack with A2 *not* enforced lands mid-function — the
    // reason the paper needs the assumption.
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![Stmt::CallIndirect("target".into()), Stmt::Return],
    ));
    m.push(FuncDef::new("target", vec![Stmt::Compute(4), Stmt::Return]));
    let mut cpu = Cpu::with_seed(lower(&m, Scheme::Baseline), 1);
    let target = cpu.symbol("target").unwrap();
    loop {
        cpu.run(1).map_err(|f| assert_eq!(f, Fault::Timeout)).ok();
        if cpu.reg(Reg::X9) == target {
            break;
        }
        assert!(cpu.instructions() < 1000);
    }
    cpu.set_reg(Reg::X9, target + 4);
    // Lands mid-function and keeps executing (eventually exits or loops).
    assert!(cpu.run(100_000).is_ok());
}

#[test]
fn stack_exhaustion_faults_cleanly() {
    // Failure injection: a call chain deeper than the stack mapping must
    // produce a clean access fault, not silent corruption.
    let mut m = Module::new();
    // A self-recursive loop via mutual calls: f -> g -> f -> ... with no
    // base case; each instrumented activation consumes 48 bytes.
    m.push(FuncDef::new(
        "main",
        vec![Stmt::Call("f".into()), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "f",
        vec![Stmt::Call("g".into()), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "g",
        vec![Stmt::Call("f".into()), Stmt::Return],
    ));
    for scheme in [Scheme::Baseline, Scheme::PacStack] {
        let mut cpu = Cpu::with_seed(lower(&m, scheme), 1);
        match cpu.run(100_000_000) {
            Err(Fault::AccessFault { .. }) => {}
            other => panic!("{scheme}: expected stack exhaustion fault, got {other:?}"),
        }
    }
}

#[test]
fn b_key_return_protection_works_like_a_key() {
    // arm64e-style: sign returns with instruction key B.
    use pacstack::aarch64::{Instruction::*, Program};
    let mut p = Program::new();
    p.function(
        "main",
        vec![
            Pacibsp,
            StrPre(Reg::X30, Reg::Sp, -16),
            MovImm(Reg::X0, 5),
            LdrPost(Reg::X30, Reg::Sp, 16),
            Retab,
        ],
    );
    let mut cpu = Cpu::with_seed(p, 2);
    assert_eq!(cpu.run(100).unwrap().exit_code, 5);

    // Cross-key confusion fails: sign with B, verify with A.
    let mut p = Program::new();
    p.function("main", vec![Pacibsp, Retaa]);
    let mut cpu = Cpu::with_seed(p, 2);
    assert!(cpu.run(100).is_err());
}

#[test]
fn b_key_return_costs_the_same_as_a_key() {
    // `retab` and `retaa` both authenticate LR against SP and return, so
    // the B-key program above and its A-key mirror retire the same cycles.
    use pacstack::aarch64::{Instruction::*, Program};
    let run = |sign, ret| {
        let mut p = Program::new();
        p.function(
            "main",
            vec![
                sign,
                StrPre(Reg::X30, Reg::Sp, -16),
                MovImm(Reg::X0, 5),
                LdrPost(Reg::X30, Reg::Sp, 16),
                ret,
            ],
        );
        let out = Cpu::with_seed(p, 2).run(100).unwrap();
        assert_eq!(out.exit_code, 5);
        out.cycles
    };
    assert_eq!(run(Pacibsp, Retab), run(Paciasp, Retaa));
}
