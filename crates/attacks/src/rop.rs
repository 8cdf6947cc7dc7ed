//! Classic return-oriented-programming attacks on the simulator (paper §2.1).
//!
//! The adversary suspends the victim at a checkpoint inside a function whose
//! frame is live, overwrites a return-address slot (on the main stack or —
//! for the ShadowCallStack variant — on the shadow stack, whose location the
//! paper assumes can leak), and resumes. The outcome classifies how each
//! protection scheme responds.

use pacstack_aarch64::{Cpu, Fault, Reg, RunStatus};
use pacstack_compiler::{frame, lower, FuncDef, Module, Scheme, Stmt};
use std::fmt;

/// Checkpoint number raised inside the victim function.
pub const VICTIM_CHECKPOINT: u16 = 42;
/// Checkpoint number raised by the gadget — observing it means the attack
/// redirected control flow.
pub const GADGET_CHECKPOINT: u16 = 99;

/// What happened after the adversary's write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackOutcome {
    /// Control flow reached the adversary's gadget.
    Hijacked,
    /// The process crashed (fault) — the protection detected the attack.
    Crashed,
    /// Execution completed normally — the write had no effect.
    Ineffective,
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackOutcome::Hijacked => f.write_str("hijacked"),
            AttackOutcome::Crashed => f.write_str("crashed"),
            AttackOutcome::Ineffective => f.write_str("ineffective"),
        }
    }
}

/// Where the adversary writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteTarget {
    /// The saved-LR slot in the victim's stack frame — the classic ROP
    /// target.
    SavedReturnAddress,
    /// A linear overflow from the local buffer upward through the frame
    /// (clobbers the canary on its way to LR).
    LinearOverflow,
    /// The top entry of the shadow stack (requires knowing its location —
    /// the paper's criticism of software shadow stacks).
    ShadowStackTop,
    /// The spilled chain-register slot in the victim's frame (the only
    /// stack slot PACStack actually consumes).
    ChainSlot,
}

/// The victim: `main` calls `victim`, which pauses at a checkpoint with its
/// frame live. `gadget` is never called legitimately.
fn victim_module() -> Module {
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![
            Stmt::Compute(2),
            Stmt::Call("victim".into()),
            Stmt::Compute(2),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "victim",
        vec![
            Stmt::MemAccess(1),
            Stmt::Checkpoint(VICTIM_CHECKPOINT),
            // A nested call so `victim` is a non-leaf under every heuristic.
            Stmt::Call("helper".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new("helper", vec![Stmt::Compute(1), Stmt::Return]));
    m.push(FuncDef::new(
        "gadget",
        vec![Stmt::Checkpoint(GADGET_CHECKPOINT), Stmt::Return],
    ));
    m
}

/// Runs the ROP attack against `scheme` with the given write target.
///
/// # Panics
///
/// Panics if the victim fails to reach its checkpoint (harness bug).
#[allow(clippy::expect_used, reason = "fixed victim module, see # Panics")]
pub fn run_attack(scheme: Scheme, target: WriteTarget) -> AttackOutcome {
    let program = lower(&victim_module(), scheme);
    let mut cpu = Cpu::with_seed(program, 1234);

    // Run to the victim checkpoint.
    let out = cpu
        .run(1_000_000)
        .expect("victim must reach its checkpoint");
    assert_eq!(
        out.status,
        RunStatus::Syscall(VICTIM_CHECKPOINT),
        "missed checkpoint"
    );

    let gadget = cpu.symbol("gadget").expect("gadget exists");
    let sp = cpu.reg(Reg::Sp);
    match target {
        WriteTarget::SavedReturnAddress => {
            cpu.mem_mut()
                .write_u64(sp.wrapping_add(frame::LR_SLOT as u64), gadget)
                .expect("stack is writable");
        }
        WriteTarget::LinearOverflow => {
            // Overwrite every slot from the frame base up to and including LR.
            for off in (0..=frame::LR_SLOT).step_by(8) {
                cpu.mem_mut()
                    .write_u64(sp.wrapping_add(off as u64), gadget)
                    .expect("stack is writable");
            }
        }
        WriteTarget::ShadowStackTop => {
            // Without a shadow stack there is no writable top to aim at.
            let shadow_top = cpu.reg(Reg::SCS).wrapping_sub(8);
            if cpu.mem_mut().write_u64(shadow_top, gadget).is_err() {
                return AttackOutcome::Ineffective;
            }
        }
        WriteTarget::ChainSlot => {
            cpu.mem_mut()
                .write_u64(sp.wrapping_add(frame::CHAIN_SLOT as u64), gadget)
                .expect("stack is writable");
        }
    }

    // Resume and classify.
    loop {
        match cpu.run(1_000_000) {
            Ok(out) => match out.status {
                RunStatus::Syscall(GADGET_CHECKPOINT) => return AttackOutcome::Hijacked,
                RunStatus::Syscall(_) => continue, // later benign checkpoints
                RunStatus::Exited(code) if code == pacstack_compiler::CANARY_FAIL_EXIT => {
                    return AttackOutcome::Crashed
                }
                RunStatus::Exited(_) => return AttackOutcome::Ineffective,
            },
            Err(Fault::Timeout) => return AttackOutcome::Ineffective,
            Err(_) => return AttackOutcome::Crashed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_hijacked_by_lr_overwrite() {
        assert_eq!(
            run_attack(Scheme::Baseline, WriteTarget::SavedReturnAddress),
            AttackOutcome::Hijacked
        );
    }

    #[test]
    fn canary_misses_a_targeted_lr_overwrite() {
        // -mstack-protector-strong only catches *linear* overflows; a
        // precise write past the canary is invisible to it.
        assert_eq!(
            run_attack(Scheme::StackProtector, WriteTarget::SavedReturnAddress),
            AttackOutcome::Hijacked
        );
    }

    #[test]
    fn canary_catches_linear_overflow() {
        assert_eq!(
            run_attack(Scheme::StackProtector, WriteTarget::LinearOverflow),
            AttackOutcome::Crashed
        );
    }

    #[test]
    fn pac_ret_crashes_on_lr_overwrite() {
        assert_eq!(
            run_attack(Scheme::PacRet, WriteTarget::SavedReturnAddress),
            AttackOutcome::Crashed
        );
    }

    #[test]
    fn shadow_stack_ignores_main_stack_overwrite() {
        // The return address authority is the shadow copy; the main-stack
        // write is dead.
        assert_eq!(
            run_attack(Scheme::ShadowCallStack, WriteTarget::SavedReturnAddress),
            AttackOutcome::Ineffective
        );
    }

    #[test]
    fn shadow_stack_is_hijacked_once_its_location_leaks() {
        // The paper's argument for ACS over software shadow stacks: an
        // adversary who learns the shadow stack's address owns the returns.
        assert_eq!(
            run_attack(Scheme::ShadowCallStack, WriteTarget::ShadowStackTop),
            AttackOutcome::Hijacked
        );
    }

    #[test]
    fn pacstack_ignores_frame_record_overwrite() {
        // PACStack never loads the frame-record return address.
        for scheme in [Scheme::PacStack, Scheme::PacStackNomask] {
            assert_eq!(
                run_attack(scheme, WriteTarget::SavedReturnAddress),
                AttackOutcome::Ineffective,
                "{scheme}"
            );
        }
    }

    #[test]
    fn pacstack_crashes_on_chain_slot_tamper() {
        for scheme in [Scheme::PacStack, Scheme::PacStackNomask] {
            assert_eq!(
                run_attack(scheme, WriteTarget::ChainSlot),
                AttackOutcome::Crashed,
                "{scheme}"
            );
        }
    }

    #[test]
    fn baseline_linear_overflow_hijacks() {
        assert_eq!(
            run_attack(Scheme::Baseline, WriteTarget::LinearOverflow),
            AttackOutcome::Hijacked
        );
    }
}
