//! The PA signing gadget and PACStack's tail-call resistance
//! (paper §6.3.1, Listings 7–8).
//!
//! A failed `aut*` corrupts a well-known bit; a subsequent `pac*` of the
//! corrupted pointer produces the *correct* PAC with bit *p* flipped. Code
//! that authenticates a pointer and later re-signs it without using it in
//! between is therefore an oracle for forging PACs (Listing 7).
//!
//! PACStack's only aut→pac window is a tail call (Listing 8): function `A`
//! authenticates into `LR` and branches to `B`, whose prologue re-signs
//! `LR`. The would-be gadget is harmless because the poisoned bit lives in
//! `LR`/`CR` — registers the adversary cannot touch — so the forgery is
//! carried to `B`'s return, where it fails to authenticate.

use crate::victim::{self, AttackOutcome, VictimError};
use pacstack_aarch64::{Cpu, Fault, Reg};
use pacstack_compiler::{frame, lower, FuncDef, Module, Scheme, Stmt};

/// Checkpoint raised in `alpha` before its tail-call epilogue.
pub const PRE_TAIL_CHECKPOINT: u16 = 45;
/// Checkpoint raised by the adversary's target if reached.
pub const EVIL_CHECKPOINT: u16 = 98;

fn tail_call_module() -> Module {
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![Stmt::Call("alpha".into()), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "alpha",
        vec![
            Stmt::Call("noop".into()), // make alpha non-leaf regardless
            Stmt::Checkpoint(PRE_TAIL_CHECKPOINT),
            Stmt::TailCall("beta".into()),
        ],
    ));
    m.push(FuncDef::new(
        "beta",
        vec![Stmt::Call("noop".into()), Stmt::Return],
    ));
    m.push(FuncDef::new("noop", vec![Stmt::Compute(1), Stmt::Return]));
    m.push(FuncDef::new(
        "evil",
        vec![Stmt::Checkpoint(EVIL_CHECKPOINT), Stmt::Return],
    ));
    m
}

/// Attempts the Listing-8 attack: inject a forged chain value into
/// `alpha`'s frame just before its tail-call epilogue, hoping the
/// aut→(tail call)→pac sequence launders it into a valid chain head.
///
/// # Errors
///
/// [`VictimError`] if the victim misses the pre-tail-call checkpoint or
/// the forgery's write faults.
pub fn tail_call_gadget_attack(scheme: Scheme) -> Result<AttackOutcome, VictimError> {
    let program = lower(&tail_call_module(), scheme);
    let mut cpu = Cpu::with_seed(program, 4242);
    victim::run_to(&mut cpu, PRE_TAIL_CHECKPOINT)?;

    // Forge: point the spilled chain value at `evil` with a zero token.
    let evil = cpu.symbol("evil").ok_or(Fault::NoSuchSymbol)?;
    let sp = cpu.reg(Reg::Sp);
    cpu.mem_mut()
        .write_u64(sp + frame::CHAIN_SLOT as u64, evil)?;
    Ok(victim::outcome(&mut cpu, EVIL_CHECKPOINT))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacstack_aarch64::RunStatus;

    #[test]
    fn pacstack_detects_the_tail_call_gadget() {
        // The forged chain value fails authentication in alpha's epilogue;
        // the poisoned result rides through beta's pacia and is caught at
        // beta's return. Either way: a crash, never a hijack.
        for scheme in [Scheme::PacStack, Scheme::PacStackNomask] {
            assert_eq!(
                tail_call_gadget_attack(scheme),
                Ok(AttackOutcome::Crashed),
                "{scheme}"
            );
        }
    }

    #[test]
    fn baseline_tail_calls_run_clean_without_attack() {
        // Control: the tail-call module itself behaves under every scheme.
        for scheme in Scheme::ALL {
            let mut cpu = Cpu::with_seed(lower(&tail_call_module(), scheme), 1);
            assert_eq!(
                victim::run_to(&mut cpu, PRE_TAIL_CHECKPOINT),
                Ok(()),
                "{scheme}"
            );
            let status = cpu.run(1_000_000).map(|out| out.status);
            assert!(
                matches!(status, Ok(RunStatus::Exited(_))),
                "{scheme}: {status:?}"
            );
        }
    }
}
