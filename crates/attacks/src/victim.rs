//! The victim harness every attack on the simulated CPU shares (paper
//! §2.2.1, §6.3.1): run the victim to a checkpoint where its frame is live,
//! let the adversary write memory, resume, and classify where control went.

use pacstack_aarch64::{Cpu, Fault, RunStatus};
use pacstack_compiler::CANARY_FAIL_EXIT;
use std::fmt;

/// Instruction budget of each run of a victim.
const BUDGET: u64 = 1_000_000;

/// What happened after the adversary's write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackOutcome {
    /// Control flow reached the adversary's gadget.
    Hijacked,
    /// The process crashed (a fault, or the canary check's exit) — the
    /// protection detected the attack.
    Crashed,
    /// Execution completed normally or diverged — the write had no effect.
    Ineffective,
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AttackOutcome::Hijacked => "hijacked",
            AttackOutcome::Crashed => "crashed",
            AttackOutcome::Ineffective => "ineffective",
        })
    }
}

/// Why an attack could not be staged on its victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VictimError {
    /// The victim stopped without raising the checkpoint, as the second
    /// field says.
    Missed(u16, Result<RunStatus, Fault>),
    /// A symbol lookup, or the adversary's read or write, faulted.
    Fault(Fault),
}

impl From<Fault> for VictimError {
    fn from(fault: Fault) -> Self {
        VictimError::Fault(fault)
    }
}

impl fmt::Display for VictimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VictimError::Missed(checkpoint, Ok(status)) => {
                write!(f, "victim missed checkpoint {checkpoint}: {status:?}")
            }
            VictimError::Missed(checkpoint, Err(fault)) => {
                write!(f, "victim missed checkpoint {checkpoint}: {fault}")
            }
            VictimError::Fault(fault) => write!(f, "staging the attack faulted: {fault}"),
        }
    }
}

impl std::error::Error for VictimError {}

/// Runs the victim until it raises `checkpoint`.
///
/// # Errors
///
/// [`VictimError::Missed`] with how the victim stopped otherwise.
pub fn run_to(cpu: &mut Cpu, checkpoint: u16) -> Result<(), VictimError> {
    match cpu.run(BUDGET).map(|out| out.status) {
        Ok(RunStatus::Syscall(n)) if n == checkpoint => Ok(()),
        stop => Err(VictimError::Missed(checkpoint, stop)),
    }
}

/// Where one resumed run of the victim stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// It raised this checkpoint and can be resumed.
    Checkpoint(u16),
    /// It is done: [`Crashed`](AttackOutcome::Crashed) on a fault or the
    /// canary-failure exit, [`Ineffective`](AttackOutcome::Ineffective) on
    /// any other exit or when the run exhausts its budget.
    End(AttackOutcome),
}

/// Resumes the victim to its next [`Stop`].
pub(crate) fn resume(cpu: &mut Cpu) -> Stop {
    match cpu.run(BUDGET).map(|out| out.status) {
        Ok(RunStatus::Syscall(n)) => Stop::Checkpoint(n),
        Ok(RunStatus::Exited(CANARY_FAIL_EXIT)) => Stop::End(AttackOutcome::Crashed),
        Ok(RunStatus::Exited(_)) | Err(Fault::Timeout) => Stop::End(AttackOutcome::Ineffective),
        Err(_) => Stop::End(AttackOutcome::Crashed),
    }
}

/// Resumes the tampered victim, through any other checkpoint, and
/// classifies the result: [`Hijacked`](AttackOutcome::Hijacked) once it
/// raises `gadget`, [`Crashed`](AttackOutcome::Crashed) on a fault or the
/// canary-failure exit, [`Ineffective`](AttackOutcome::Ineffective) on any
/// other exit or when a run exhausts the budget.
pub fn outcome(cpu: &mut Cpu, gadget: u16) -> AttackOutcome {
    loop {
        match resume(cpu) {
            Stop::Checkpoint(n) if n == gadget => return AttackOutcome::Hijacked,
            Stop::Checkpoint(_) => {}
            Stop::End(outcome) => return outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use pacstack_aarch64::asm::parse_program;

    const STAGE: u16 = 42;
    const GADGET: u16 = 99;

    /// A victim that raises `STAGE`, then runs `after`.
    fn staged(after: &str) -> Cpu {
        let source = format!("main:\n    svc #{STAGE}\n{after}");
        let mut cpu = Cpu::with_seed(parse_program(&source).unwrap(), 1);
        run_to(&mut cpu, STAGE).unwrap();
        cpu
    }

    #[test]
    fn every_stop_is_classified() {
        use AttackOutcome::*;
        for (after, want) in [
            ("    svc #99\n", Hijacked),
            ("    svc #7\n    svc #99\n", Hijacked),
            ("    mov x1, #16\n    br x1\n", Crashed),
            ("    mov x0, #134\n    svc #0\n", Crashed),
            ("    mov x0, #0\n    svc #0\n", Ineffective),
            ("spin:\n    b spin\n", Ineffective),
        ] {
            assert_eq!(outcome(&mut staged(after), GADGET), want, "{after}");
        }
    }

    #[test]
    fn a_victim_that_exits_first_misses_its_checkpoint() {
        let program = parse_program("main:\n    mov x0, #3\n    svc #0\n").unwrap();
        let mut cpu = Cpu::with_seed(program, 1);
        assert_eq!(
            run_to(&mut cpu, STAGE),
            Err(VictimError::Missed(STAGE, Ok(RunStatus::Exited(3))))
        );
    }
}
