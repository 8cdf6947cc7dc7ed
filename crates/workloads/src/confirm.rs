//! The ConFIRM-style compatibility suite as a library (paper §7.3).
//!
//! The paper runs the applicable ConFIRM CFI-compatibility micro-benchmarks
//! on the FVP and reports that they "passed with or without PACStack".
//! This module packages our equivalents — one module per corner case —
//! with a runner that executes every case under every scheme and compares
//! behaviour against the unprotected baseline, so `repro confirm` can
//! print the same pass/fail table the paper describes.

use pacstack_aarch64::{Cpu, RunStatus};
use pacstack_compiler::{lower, FuncDef, Module, Scheme, Stmt};

/// One compatibility case.
#[derive(Debug, Clone)]
pub struct ConfirmCase {
    /// Short name, in the spirit of ConFIRM's test names.
    pub name: &'static str,
    /// The corner-case program.
    pub module: Module,
}

/// Result of one case under one scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseResult {
    /// The scheme tested.
    pub scheme: Scheme,
    /// Whether behaviour matched the baseline exactly.
    pub passed: bool,
}

fn func(name: &str, body: Vec<Stmt>) -> FuncDef {
    FuncDef::new(name, body)
}

/// Builds the full suite.
pub fn suite() -> Vec<ConfirmCase> {
    let mut cases = Vec::new();

    // 1. Indirect function calls through code pointers.
    let mut m = Module::new();
    m.push(func(
        "main",
        vec![
            Stmt::CallIndirect("fp_a".into()),
            Stmt::Emit,
            Stmt::CallIndirect("fp_b".into()),
            Stmt::Emit,
            Stmt::Return,
        ],
    ));
    m.push(func("fp_a", vec![Stmt::Compute(3), Stmt::Return]));
    m.push(func("fp_b", vec![Stmt::Compute(5), Stmt::Return]));
    cases.push(ConfirmCase {
        name: "code_pointers",
        module: m,
    });

    // 2. Virtual-dispatch-shaped double indirection.
    let mut m = Module::new();
    m.push(func(
        "main",
        vec![Stmt::Call("dispatch".into()), Stmt::Emit, Stmt::Return],
    ));
    m.push(func(
        "dispatch",
        vec![
            Stmt::CallIndirect("impl_a".into()),
            Stmt::CallIndirect("impl_b".into()),
            Stmt::Return,
        ],
    ));
    m.push(func("impl_a", vec![Stmt::Compute(2), Stmt::Return]));
    m.push(func("impl_b", vec![Stmt::MemAccess(1), Stmt::Return]));
    cases.push(ConfirmCase {
        name: "vcalls",
        module: m,
    });

    // 3. Tail calls, three deep.
    let mut m = Module::new();
    m.push(func(
        "main",
        vec![Stmt::Call("t0".into()), Stmt::Emit, Stmt::Return],
    ));
    m.push(func(
        "t0",
        vec![Stmt::Compute(1), Stmt::TailCall("t1".into())],
    ));
    m.push(func(
        "t1",
        vec![Stmt::Compute(2), Stmt::TailCall("t2".into())],
    ));
    m.push(func("t2", vec![Stmt::Call("leafy".into()), Stmt::Return]));
    m.push(func("leafy", vec![Stmt::Compute(3), Stmt::Return]));
    cases.push(ConfirmCase {
        name: "tail_calls",
        module: m,
    });

    // 4. setjmp/longjmp.
    let mut m = Module::new();
    m.push(func(
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
    m.push(func(
        "thrower",
        vec![Stmt::Throw { buf: 0, value: 7 }, Stmt::Return],
    ));
    cases.push(ConfirmCase {
        name: "setjmp_longjmp",
        module: m,
    });

    // 5. Calling convention: data flows through deep call boundaries.
    let mut m = Module::new();
    m.push(func(
        "main",
        vec![
            Stmt::Compute(5),
            Stmt::Call("l1".into()),
            Stmt::Emit,
            Stmt::Return,
        ],
    ));
    m.push(func(
        "l1",
        vec![Stmt::Compute(1), Stmt::Call("l2".into()), Stmt::Return],
    ));
    m.push(func(
        "l2",
        vec![Stmt::Compute(1), Stmt::Call("l3".into()), Stmt::Return],
    ));
    m.push(func("l3", vec![Stmt::MemAccess(2), Stmt::Return]));
    cases.push(ConfirmCase {
        name: "calling_convention",
        module: m,
    });

    // 6. Deep call chain (96 activations).
    let mut m = Module::new();
    m.push(func("main", vec![Stmt::Call("d0".into()), Stmt::Return]));
    for i in 0..96 {
        let body = if i == 95 {
            vec![Stmt::Compute(1), Stmt::Return]
        } else {
            vec![Stmt::Call(format!("d{}", i + 1)), Stmt::Return]
        };
        m.push(func(&format!("d{i}"), body));
    }
    cases.push(ConfirmCase {
        name: "deep_chain",
        module: m,
    });

    // 7. Data-dependent dispatch (interpreter shape).
    let mut m = Module::new();
    m.push(func(
        "main",
        vec![
            Stmt::Loop(
                8,
                vec![
                    Stmt::IfEven(
                        vec![Stmt::Call("op_even".into())],
                        vec![Stmt::Call("op_odd".into())],
                    ),
                    Stmt::Compute(1),
                ],
            ),
            Stmt::Emit,
            Stmt::Return,
        ],
    ));
    m.push(func("op_even", vec![Stmt::Compute(3), Stmt::Return]));
    m.push(func(
        "op_odd",
        vec![Stmt::MemAccess(1), Stmt::Compute(2), Stmt::Return],
    ));
    cases.push(ConfirmCase {
        name: "data_dispatch",
        module: m,
    });

    // 8. Loops with call/return churn.
    let mut m = Module::new();
    m.push(func(
        "main",
        vec![
            Stmt::Loop(20, vec![Stmt::Call("unit".into()), Stmt::MemAccess(1)]),
            Stmt::Emit,
            Stmt::Return,
        ],
    ));
    m.push(func(
        "unit",
        vec![
            Stmt::Loop(3, vec![Stmt::Call("nested".into())]),
            Stmt::Return,
        ],
    ));
    m.push(func("nested", vec![Stmt::Compute(2), Stmt::Return]));
    cases.push(ConfirmCase {
        name: "call_churn",
        module: m,
    });

    // 9. Fan-out re-entry (binary call tree).
    let mut m = Module::new();
    m.push(func(
        "main",
        vec![Stmt::Call("fan0".into()), Stmt::Emit, Stmt::Return],
    ));
    for i in 0..10 {
        let mut body = vec![Stmt::Compute(1)];
        if i < 9 {
            body.push(Stmt::Call(format!("fan{}", i + 1)));
            body.push(Stmt::Call(format!("fan{}", i + 1)));
        }
        body.push(Stmt::Return);
        m.push(func(&format!("fan{i}"), body));
    }
    cases.push(ConfirmCase {
        name: "fanout_reentry",
        module: m,
    });

    // 10. Tail-position indirect dispatch.
    let mut m = Module::new();
    m.push(func(
        "main",
        vec![Stmt::Call("route".into()), Stmt::Emit, Stmt::Return],
    ));
    m.push(func(
        "route",
        vec![
            Stmt::CallIndirect("handler".into()),
            Stmt::TailCall("cleanup".into()),
        ],
    ));
    m.push(func("handler", vec![Stmt::Compute(6), Stmt::Return]));
    m.push(func(
        "cleanup",
        vec![Stmt::Call("sync".into()), Stmt::Return],
    ));
    m.push(func("sync", vec![Stmt::Compute(1), Stmt::Return]));
    cases.push(ConfirmCase {
        name: "tail_dispatch",
        module: m,
    });

    // 11. Exception from inside a loop body.
    let mut m = Module::new();
    m.push(func(
        "main",
        vec![
            Stmt::TryCatch {
                buf: 2,
                body: vec![Stmt::Loop(4, vec![Stmt::Call("may_throw".into())])],
                handler: vec![Stmt::Emit],
            },
            Stmt::Return,
        ],
    ));
    m.push(func(
        "may_throw",
        vec![
            Stmt::Compute(1),
            Stmt::Throw { buf: 2, value: 3 },
            Stmt::Return,
        ],
    ));
    cases.push(ConfirmCase {
        name: "throw_from_loop",
        module: m,
    });

    cases
}

fn behaviour(module: &Module, scheme: Scheme) -> Option<(u64, Vec<u64>)> {
    let mut cpu = Cpu::with_seed(lower(module, scheme), 99);
    loop {
        match cpu.run(200_000_000) {
            Ok(out) => match out.status {
                RunStatus::Exited(code) => return Some((code, cpu.output().to_vec())),
                RunStatus::Syscall(_) => continue,
            },
            Err(_) => return None,
        }
    }
}

/// Runs one case once under every scheme, comparing each run against the
/// baseline's (`Scheme::ALL[0]`).
pub fn run_case(case: &ConfirmCase) -> Vec<CaseResult> {
    let runs = Scheme::ALL.map(|scheme| behaviour(&case.module, scheme));
    let baseline = &runs[0];
    Scheme::ALL
        .into_iter()
        .zip(&runs)
        .map(|(scheme, run)| CaseResult {
            scheme,
            passed: baseline.is_some() && run == baseline,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eleven_cases_like_the_paper() {
        assert_eq!(suite().len(), 11);
    }

    #[test]
    fn every_case_passes_under_every_scheme() {
        for case in suite() {
            for result in run_case(&case) {
                assert!(
                    result.passed,
                    "{} failed under {}",
                    case.name, result.scheme
                );
            }
        }
    }

    #[test]
    fn case_names_are_unique() {
        let mut names: Vec<_> = suite().iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11);
    }
}
