//! Debugger's-eye view of a PACStack process: execution trace,
//! disassembly, frame-record backtrace (works unmodified — the paper's §5
//! compatibility claim) and the §9.1 validating unwinder that catches what
//! the debugger cannot.
//!
//! ```text
//! cargo run --example debugger
//! ```

use pacstack::aarch64::trace::{disassemble_around, TraceEntry};
use pacstack::aarch64::{Cpu, Reg, RunStatus};
use pacstack::acs::Masking;
use pacstack::compiler::unwind::{backtrace, validated_backtrace};
use pacstack::compiler::{frame, lower, FuncDef, Module, Scheme, Stmt};
use pacstack::telemetry::Ring;

fn main() {
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![Stmt::Call("parse".into()), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "parse",
        vec![Stmt::MemAccess(1), Stmt::Call("eval".into()), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "eval",
        vec![
            Stmt::Checkpoint(42),
            Stmt::Call("apply".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new("apply", vec![Stmt::Compute(3), Stmt::Return]));

    let mut cpu = Cpu::with_seed(lower(&m, Scheme::PacStack), 7);
    let mut trace = Ring::new(12);
    let out = cpu
        .run_observed(100_000, |cpu, insn| {
            trace.record(TraceEntry::observed(cpu, insn))
        })
        .expect("reaches breakpoint");
    assert_eq!(out.status, RunStatus::Syscall(42));

    println!("== stopped at 'breakpoint' inside eval() ==\n");

    println!("last instructions executed:");
    println!("{trace}");

    println!("disassembly around pc:");
    println!("{}", disassemble_around(&cpu, cpu.pc() - 4, 3));

    println!("backtrace (frame records, plain addresses — gdb-compatible):");
    for (i, ret) in backtrace(&cpu).iter().enumerate() {
        println!("  #{i} {ret:#010x}");
    }

    println!("\nvalidated backtrace (ACS chain, §9.1):");
    match validated_backtrace(&cpu, Masking::Masked) {
        Ok(rets) => {
            for (i, ret) in rets.iter().enumerate() {
                println!("  #{i} {ret:#010x}  [authenticated]");
            }
        }
        Err(v) => println!("  {v}"),
    }

    // Now the adversary corrupts a chain slot. The debugger view is
    // unchanged; the validating unwinder pinpoints the broken frame.
    let fp = cpu.reg(Reg::FP);
    let parse_record = cpu.mem().read_u64(fp).expect("fp chain");
    let parse_chain = parse_record - frame::FP_SLOT as u64 + frame::CHAIN_SLOT as u64;
    let old = cpu.mem().read_u64(parse_chain).expect("chain slot");
    cpu.mem_mut()
        .write_u64(parse_chain, old ^ 0x40)
        .expect("writable");
    println!("\n== adversary corrupts parse()'s chain slot ==\n");

    println!(
        "backtrace (frame records): unchanged — {} frames",
        backtrace(&cpu).len()
    );
    match validated_backtrace(&cpu, Masking::Masked) {
        Ok(_) => println!("validated backtrace: (2^-16 collision, undetected)"),
        Err(v) => println!("validated backtrace: {v}"),
    }
}
