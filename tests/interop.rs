//! Interoperability with unprotected code (paper §9.2): mixed
//! instrumentation — a PACStack application calling unprotected library
//! functions, and the reverse — must run correctly because CR (X28) is
//! callee-saved; partial protection still guards the instrumented returns.

use pacstack::aarch64::{Cpu, Reg, RunStatus};
use pacstack::attacks::victim::{self, AttackOutcome};
use pacstack::compiler::{frame, lower, lower_mixed, FuncDef, Module, Scheme, Stmt};
use std::collections::HashMap;

fn app_and_lib_module() -> Module {
    let mut m = Module::new();
    // "Application" side.
    m.push(FuncDef::new(
        "main",
        vec![
            Stmt::Compute(2),
            Stmt::Call("app_logic".into()),
            Stmt::Emit,
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "app_logic",
        vec![
            Stmt::Call("lib_parse".into()),
            Stmt::Call("lib_format".into()),
            Stmt::Return,
        ],
    ));
    // "Library" side.
    m.push(FuncDef::new(
        "lib_parse",
        vec![
            Stmt::MemAccess(2),
            Stmt::Call("lib_util".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "lib_format",
        vec![
            Stmt::Compute(5),
            Stmt::Call("lib_util".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "lib_util",
        vec![Stmt::Compute(3), Stmt::Return],
    ));
    m
}

fn lib_overrides(scheme: Scheme) -> HashMap<String, Scheme> {
    ["lib_parse", "lib_format", "lib_util"]
        .into_iter()
        .map(|f| (f.to_owned(), scheme))
        .collect()
}

fn run_to_exit(cpu: &mut Cpu) -> (u64, Vec<u64>) {
    let out = cpu.run(100_000_000).expect("clean run");
    match out.status {
        RunStatus::Exited(code) => (code, cpu.output().to_vec()),
        RunStatus::Syscall(n) => panic!("unexpected syscall {n}"),
    }
}

#[test]
fn protected_app_with_unprotected_library_runs() {
    let module = app_and_lib_module();
    let reference = {
        let mut cpu = Cpu::with_seed(lower(&module, Scheme::Baseline), 7);
        run_to_exit(&mut cpu)
    };
    let program = lower_mixed(&module, Scheme::PacStack, &lib_overrides(Scheme::Baseline));
    let mut cpu = Cpu::with_seed(program, 7);
    assert_eq!(run_to_exit(&mut cpu), reference);
}

#[test]
fn unprotected_app_with_protected_library_runs() {
    // The Android deployment scenario: OEM ships PACStack system libraries,
    // apps are uninstrumented.
    let module = app_and_lib_module();
    let reference = {
        let mut cpu = Cpu::with_seed(lower(&module, Scheme::Baseline), 7);
        run_to_exit(&mut cpu)
    };
    let program = lower_mixed(&module, Scheme::Baseline, &lib_overrides(Scheme::PacStack));
    let mut cpu = Cpu::with_seed(program, 7);
    assert_eq!(run_to_exit(&mut cpu), reference);
}

#[test]
fn every_scheme_pair_interoperates() {
    let module = app_and_lib_module();
    let reference = {
        let mut cpu = Cpu::with_seed(lower(&module, Scheme::Baseline), 7);
        run_to_exit(&mut cpu)
    };
    for app in Scheme::ALL {
        for lib in Scheme::ALL {
            let program = lower_mixed(&module, app, &lib_overrides(lib));
            let mut cpu = Cpu::with_seed(program, 7);
            assert_eq!(run_to_exit(&mut cpu), reference, "app={app} lib={lib}");
        }
    }
}

#[test]
fn protected_library_returns_stay_protected_in_unprotected_app() {
    // §9.2: "calls into protected functions can still benefit from return
    // address authentication" — attack a protected library frame inside an
    // otherwise unprotected app.
    let mut m = app_and_lib_module();
    m.push(FuncDef::new(
        "gadget",
        vec![Stmt::Checkpoint(97), Stmt::Return],
    ));
    // Give lib_parse a checkpoint so the adversary can act inside it.
    let m = {
        let mut rebuilt = Module::new();
        for f in m.functions() {
            if f.name() == "lib_parse" {
                rebuilt.push(FuncDef::new(
                    "lib_parse",
                    vec![
                        Stmt::Checkpoint(42),
                        Stmt::MemAccess(2),
                        Stmt::Call("lib_util".into()),
                        Stmt::Return,
                    ],
                ));
            } else {
                rebuilt.push(f.clone());
            }
        }
        rebuilt
    };

    let program = lower_mixed(&m, Scheme::Baseline, &lib_overrides(Scheme::PacStack));
    let mut cpu = Cpu::with_seed(program, 31);
    victim::run_to(&mut cpu, 42).unwrap();

    // Corrupt the protected frame's chain slot: detected at lib_parse's
    // return (main never emits), even though the surrounding application
    // is unprotected.
    let sp = cpu.reg(Reg::Sp);
    let gadget = cpu.symbol("gadget").unwrap();
    cpu.mem_mut()
        .write_u64(sp + frame::CHAIN_SLOT as u64, gadget)
        .unwrap();
    assert_eq!(victim::outcome(&mut cpu, 97), AttackOutcome::Crashed);
    assert!(cpu.output().is_empty(), "lib_parse's return verified");
}

#[test]
fn unprotected_app_frame_remains_attackable() {
    // The flip side of partial protection: the *app's* returns are fair
    // game when only the library is instrumented.
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![Stmt::Call("app_fn".into()), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "app_fn",
        vec![
            Stmt::Checkpoint(42),
            Stmt::Call("lib_util".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "lib_util",
        vec![Stmt::Compute(3), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "gadget",
        vec![Stmt::Checkpoint(97), Stmt::Return],
    ));

    let overrides = HashMap::from([("lib_util".to_owned(), Scheme::PacStack)]);
    let program = lower_mixed(&m, Scheme::Baseline, &overrides);
    let mut cpu = Cpu::with_seed(program, 31);
    victim::run_to(&mut cpu, 42).unwrap();

    let sp = cpu.reg(Reg::Sp);
    let gadget = cpu.symbol("gadget").unwrap();
    cpu.mem_mut()
        .write_u64(sp + frame::LR_SLOT as u64, gadget)
        .unwrap();
    assert_eq!(
        victim::outcome(&mut cpu, 97),
        AttackOutcome::Hijacked,
        "unprotected frame should be hijackable"
    );
}
