//! Irregular stack unwinding at the ISA level (paper §4.4, §5.3,
//! Listings 4–5): `setjmp`/`longjmp` lowered per scheme, run on the
//! simulator, and attacked through the (writable) `jmp_buf`.

use pacstack::aarch64::{Cpu, RunStatus};
use pacstack::attacks::victim::{self, AttackOutcome};
use pacstack::compiler::{jmp_buf_addr, lower, FuncDef, Module, Scheme, Stmt};

/// `main` sets up a handler, calls into a chain that throws from depth 2;
/// the handler emits a marker. Output: [7 (pre), 99 (handler)].
fn exception_module() -> Module {
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![
            Stmt::TryCatch {
                buf: 0,
                body: vec![
                    Stmt::Compute(3),
                    Stmt::Call("risky_outer".into()),
                    // Unreachable: risky_outer always throws.
                    Stmt::Emit,
                ],
                handler: vec![Stmt::Emit], // emits the longjmp value
            },
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "risky_outer",
        vec![
            Stmt::MemAccess(1),
            Stmt::Call("risky_inner".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "risky_inner",
        vec![
            Stmt::Compute(1),
            Stmt::Throw { buf: 0, value: 99 },
            Stmt::Return,
        ],
    ));
    m
}

fn run_to_exit(cpu: &mut Cpu) -> (u64, Vec<u64>) {
    let out = cpu.run(10_000_000).expect("clean run");
    match out.status {
        RunStatus::Exited(code) => (code, cpu.output().to_vec()),
        RunStatus::Syscall(n) => panic!("unexpected syscall {n}"),
    }
}

#[test]
fn longjmp_reaches_the_handler_under_every_scheme() {
    for scheme in Scheme::ALL {
        let mut cpu = Cpu::with_seed(lower(&exception_module(), scheme), 3);
        let (_, output) = run_to_exit(&mut cpu);
        assert_eq!(
            output,
            vec![99],
            "{scheme}: handler did not run exactly once"
        );
    }
}

#[test]
fn chain_remains_usable_after_longjmp() {
    // After the non-local jump, main must still return cleanly through its
    // own (chain-protected) epilogue — the §5.3 compatibility requirement.
    for scheme in [Scheme::PacStack, Scheme::PacStackNomask] {
        let mut cpu = Cpu::with_seed(lower(&exception_module(), scheme), 5);
        let (exit, _) = run_to_exit(&mut cpu);
        // Exit code equals whatever main's accumulator held; the point is
        // that we exited rather than faulted.
        let _ = exit;
    }
}

#[test]
fn direct_path_runs_body_not_handler() {
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![
            Stmt::TryCatch {
                buf: 1,
                body: vec![Stmt::Compute(2), Stmt::Emit],
                handler: vec![Stmt::Emit, Stmt::Emit],
            },
            Stmt::Return,
        ],
    ));
    for scheme in Scheme::ALL {
        let mut cpu = Cpu::with_seed(lower(&m, scheme), 1);
        let (_, output) = run_to_exit(&mut cpu);
        assert_eq!(output.len(), 1, "{scheme}: handler ran without a throw");
    }
}

#[test]
fn forged_jmp_buf_is_caught_by_pacstack_but_not_baseline() {
    // §4.4: jmp_buf lives in attacker-writable memory. Redirect the stored
    // resume address at a checkpoint before the throw.
    fn module_with_checkpoint() -> Module {
        let mut m = Module::new();
        m.push(FuncDef::new(
            "main",
            vec![
                Stmt::TryCatch {
                    buf: 0,
                    body: vec![Stmt::Call("thrower".into()), Stmt::Emit],
                    handler: vec![Stmt::Emit],
                },
                Stmt::Return,
            ],
        ));
        m.push(FuncDef::new(
            "thrower",
            vec![
                Stmt::Checkpoint(70), // adversary acts here
                Stmt::Throw { buf: 0, value: 5 },
                Stmt::Return,
            ],
        ));
        m.push(FuncDef::new(
            "gadget",
            vec![Stmt::Checkpoint(98), Stmt::Return],
        ));
        m
    }

    for (scheme, want) in [
        (Scheme::Baseline, AttackOutcome::Hijacked),
        (Scheme::PacRet, AttackOutcome::Hijacked), // plain setjmp stores a raw pointer
        (Scheme::PacStackNomask, AttackOutcome::Crashed),
        (Scheme::PacStack, AttackOutcome::Crashed),
    ] {
        let mut cpu = Cpu::with_seed(lower(&module_with_checkpoint(), scheme), 11);
        victim::run_to(&mut cpu, 70).unwrap();
        let gadget = cpu.symbol("gadget").unwrap();
        cpu.mem_mut().write_u64(jmp_buf_addr(0), gadget).unwrap();

        assert_eq!(victim::outcome(&mut cpu, 98), want, "{scheme}");
    }
}

#[test]
fn nested_try_catch_unwinds_to_the_right_handler() {
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![
            Stmt::TryCatch {
                buf: 0,
                body: vec![Stmt::TryCatch {
                    buf: 1,
                    body: vec![Stmt::Call("inner_thrower".into())],
                    handler: vec![Stmt::Emit], // inner handler — expected
                }],
                handler: vec![Stmt::Emit, Stmt::Emit], // outer — wrong
            },
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "inner_thrower",
        vec![Stmt::Throw { buf: 1, value: 3 }, Stmt::Return],
    ));
    for scheme in [Scheme::Baseline, Scheme::PacStack] {
        let mut cpu = Cpu::with_seed(lower(&m, scheme), 2);
        let (_, output) = run_to_exit(&mut cpu);
        assert_eq!(output.len(), 1, "{scheme}: wrong handler ran");
    }
}
