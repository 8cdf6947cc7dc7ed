//! The signed-return-address *reuse* attack (paper §2.2.1, Listing 6).
//!
//! `-mbranch-protection` signs return addresses with `SP` as the modifier.
//! Two calls made from the same function at the same stack depth produce
//! interchangeable signed return addresses: the adversary harvests the
//! signed value spilled during the first call and substitutes it into the
//! second call's frame. Verification passes, and control returns to the
//! *first* call site — a control-flow bend no stateless PA scheme detects.
//!
//! PACStack binds each return address to the entire call path, so the same
//! substitution has nothing to substitute: the chain slot holds identical
//! values for both calls, and the authoritative token sits in CR.

use crate::victim::{self, AttackOutcome, Stop, VictimError};
use pacstack_aarch64::{Cpu, Reg};
use pacstack_compiler::{frame, lower, FuncDef, Module, Scheme, Stmt};

/// Checkpoint raised in `first` (the harvest window).
pub const HARVEST_CHECKPOINT: u16 = 43;
/// Checkpoint raised in `second` (the substitution window).
pub const SUBSTITUTE_CHECKPOINT: u16 = 44;

/// Listing 6's shape: `func` calls `first` then `second` from the same
/// frame; their spilled (signed) return addresses share the SP modifier.
fn reuse_module(extra_depth: bool) -> Module {
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![
            if extra_depth {
                // Route the first call through a wrapper so its SP differs.
                Stmt::Call("wrapper".into())
            } else {
                Stmt::Call("first".into())
            },
            Stmt::Emit,
            Stmt::Call("second".into()),
            Stmt::Emit,
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "wrapper",
        vec![Stmt::Call("first".into()), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "first",
        vec![
            Stmt::Checkpoint(HARVEST_CHECKPOINT),
            Stmt::Call("noop".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "second",
        vec![
            Stmt::Checkpoint(SUBSTITUTE_CHECKPOINT),
            Stmt::Call("noop".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new("noop", vec![Stmt::Compute(1), Stmt::Return]));
    m
}

/// The result of one reuse attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseResult {
    /// Outcome classification.
    pub outcome: AttackOutcome,
    /// Number of `Emit` events observed — a successful reuse replays part
    /// of `main` and emits more than the benign two.
    pub emits: usize,
}

/// Runs the reuse attack against a scheme.
///
/// `same_depth` selects whether the harvested address comes from a call at
/// the same stack depth (the exploitable case) or through a wrapper
/// (differing SP — the case `-mbranch-protection` *does* catch).
///
/// The substituted slot is the saved-LR slot for pac-ret-style schemes and
/// the chain slot for PACStack (the only slot it consumes).
///
/// # Errors
///
/// [`VictimError`] if the victim misses a checkpoint or the harvest or the
/// substitution faults.
pub fn run_reuse(scheme: Scheme, same_depth: bool) -> Result<ReuseResult, VictimError> {
    let program = lower(&reuse_module(!same_depth), scheme);
    let mut cpu = Cpu::with_seed(program, 77);

    let slot = if scheme.reserves_register() && scheme.uses_pointer_auth() {
        frame::CHAIN_SLOT as u64
    } else {
        frame::LR_SLOT as u64
    };

    // Harvest inside `first`.
    victim::run_to(&mut cpu, HARVEST_CHECKPOINT)?;
    let harvested = cpu.mem().read_u64(cpu.reg(Reg::Sp) + slot)?;

    // Substitute inside `second`.
    victim::run_to(&mut cpu, SUBSTITUTE_CHECKPOINT)?;
    let substitution_addr = cpu.reg(Reg::Sp) + slot;
    cpu.mem_mut().write_u64(substitution_addr, harvested)?;

    // Resume to the end; if the reuse bent control flow back to
    // after-first, `second` runs twice and we see an extra checkpoint + emit.
    // A bent run that ends without crashing is a hijack.
    let mut re_entered = false;
    let outcome = loop {
        match victim::resume(&mut cpu) {
            Stop::Checkpoint(HARVEST_CHECKPOINT | SUBSTITUTE_CHECKPOINT) => re_entered = true,
            Stop::Checkpoint(_) => {}
            Stop::End(AttackOutcome::Ineffective) if re_entered || cpu.output().len() > 2 => {
                break AttackOutcome::Hijacked
            }
            Stop::End(outcome) => break outcome,
        }
    };
    Ok(ReuseResult {
        outcome,
        emits: cpu.output().len(),
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn pac_ret_is_bent_by_same_depth_reuse() {
        let result = run_reuse(Scheme::PacRet, true).unwrap();
        assert_eq!(result.outcome, AttackOutcome::Hijacked);
        assert!(
            result.emits > 2,
            "control flow was not bent: {} emits",
            result.emits
        );
    }

    #[test]
    fn pac_ret_catches_cross_depth_reuse() {
        // Harvested under a different SP, the signed address fails to
        // verify — the case SP-as-modifier does narrow.
        let result = run_reuse(Scheme::PacRet, false).unwrap();
        assert_eq!(result.outcome, AttackOutcome::Crashed);
    }

    #[test]
    fn baseline_is_trivially_bent() {
        let result = run_reuse(Scheme::Baseline, true).unwrap();
        assert_eq!(result.outcome, AttackOutcome::Hijacked);
    }

    #[test]
    fn pacstack_resists_same_depth_reuse() {
        // Both frames spill the *same* chain value (the caller's CR), so
        // the substitution is a no-op; the authoritative aret lives in CR
        // and is never on the stack.
        for scheme in [Scheme::PacStack, Scheme::PacStackNomask] {
            let result = run_reuse(scheme, true).unwrap();
            assert_eq!(result.outcome, AttackOutcome::Ineffective, "{scheme}");
            assert_eq!(result.emits, 2, "{scheme}");
        }
    }

    #[test]
    fn pacstack_detects_cross_depth_chain_substitution() {
        // Harvested from a different depth the chain values differ, and the
        // substituted link breaks the MAC chain.
        for scheme in [Scheme::PacStack, Scheme::PacStackNomask] {
            let result = run_reuse(scheme, false).unwrap();
            assert_eq!(result.outcome, AttackOutcome::Crashed, "{scheme}");
        }
    }
}
