//! The kernel model: context switches, signal delivery, `sigreturn`, and
//! process-lifecycle key management.
//!
//! The PACStack paper depends on three kernel behaviours (§5.4, §6.3.2,
//! Appendix B):
//!
//! 1. **Context switches spill CR/LR into kernel-private storage.** The
//!    adversary has full user-space memory access but cannot touch
//!    `struct cpu_context`. Modelled by [`Cpu::save_context`] returning an
//!    opaque value that never enters the simulated [`Memory`].
//! 2. **Signal frames live on the user stack** and are attacker-writable,
//!    enabling *sigreturn-oriented programming*. [`SignalDelivery`] models
//!    both the vulnerable baseline and the ACS-protected variant from
//!    Appendix B, where the kernel keeps an authenticated reference
//!    (`asigret`) and kills the process on mismatch.
//! 3. **PA keys are per-process**: regenerated on `exec`, shared across
//!    `fork` (which is what makes the §4.3 divide-and-conquer guessing
//!    strategy possible against pre-forking servers).
//!
//! [`Cpu::save_context`]: crate::Cpu::save_context
//! [`Memory`]: crate::Memory

use crate::{Cpu, Fault, Reg};

use pacstack_pauth::PaKeys;

/// Number of `u64` slots in a signal frame: PC, SP and `X0`–`X30`.
const FRAME_SLOTS: u64 = 33;

/// The syscall number the signal-handler epilogue must issue (`svc #9`)
/// to request `sigreturn`.
pub const SIGRETURN_SYSCALL: u16 = 9;

/// Kernel-side signal state for one process.
///
/// # Examples
///
/// ```
/// use pacstack_aarch64::kernel::SignalDelivery;
///
/// let unprotected = SignalDelivery::new();
/// let protected = SignalDelivery::protected();
/// assert!(!unprotected.is_protected());
/// assert!(protected.is_protected());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SignalDelivery {
    /// Whether the Appendix-B ACS-based sigreturn protection is active.
    acs_protected: bool,
    /// Kernel-private stack of `asigret` reference values (one per nested
    /// signal). The paper stores older references inside newer signal
    /// frames; keeping the whole stack kernel-side is a strictly stronger
    /// simplification with the same attacker-visible behaviour.
    references: Vec<u64>,
}

impl SignalDelivery {
    /// Signal handling as mainline Linux does it: the frame on the user
    /// stack is trusted at `sigreturn` (vulnerable to SROP).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appendix-B behaviour: the kernel authenticates the frame's PC and CR
    /// against a kernel-held reference before honouring `sigreturn`.
    pub fn protected() -> Self {
        Self {
            acs_protected: true,
            references: Vec::new(),
        }
    }

    /// Whether Appendix-B protection is enabled.
    pub fn is_protected(&self) -> bool {
        self.acs_protected
    }

    /// Number of signal frames currently outstanding.
    pub fn depth(&self) -> usize {
        self.references.len()
    }

    /// The kernel's `asigret` reference for the current interruption:
    /// a `pacga`-style MAC binding the interrupted PC to the chain register.
    fn reference(cpu: &Cpu, pc: u64, cr: u64) -> u64 {
        cpu.pa().pacga(cpu.keys(), pc, cr)
    }

    /// Delivers a signal: saves the interrupted context to a frame on the
    /// *user* stack (attacker-writable!) and redirects execution to
    /// `handler`. The handler must end with `svc #9` (`sigreturn`).
    ///
    /// # Errors
    ///
    /// Propagates memory faults from writing the frame (e.g. stack overflow).
    pub fn deliver(&mut self, cpu: &mut Cpu, handler: u64) -> Result<(), Fault> {
        let frame_base = cpu.reg(Reg::Sp) - FRAME_SLOTS * 8;
        let mut slots = Vec::with_capacity(FRAME_SLOTS as usize);
        slots.push(cpu.pc());
        slots.push(cpu.reg(Reg::Sp));
        for reg in (0..31).filter_map(Reg::from_index) {
            slots.push(cpu.reg(reg));
        }
        for (i, value) in slots.iter().enumerate() {
            cpu.mem_mut().write_u64(frame_base + 8 * i as u64, *value)?;
        }

        if self.acs_protected {
            self.references
                .push(Self::reference(cpu, cpu.pc(), cpu.reg(Reg::CR)));
        }

        cpu.set_reg(Reg::Sp, frame_base);
        cpu.set_pc(handler);
        Ok(())
    }

    /// Services `sigreturn` (`svc #9`): restores the context stored in the
    /// frame at `SP`.
    ///
    /// In unprotected mode the frame is trusted — a forged frame hands the
    /// adversary every register including CR. In protected mode the frame's
    /// PC/CR pair must authenticate against the kernel reference.
    ///
    /// # Errors
    ///
    /// [`Fault::SigreturnViolation`] if protection is on and validation
    /// fails (no reference outstanding, or the MAC mismatches); memory
    /// faults propagate.
    pub fn sigreturn(&mut self, cpu: &mut Cpu) -> Result<(), Fault> {
        // With protection on, a sigreturn with no signal outstanding is an
        // attack by definition — the kernel kills the process before even
        // touching the frame.
        let reference = if self.acs_protected {
            Some(self.references.pop().ok_or(Fault::SigreturnViolation)?)
        } else {
            None
        };

        let frame_base = cpu.reg(Reg::Sp);
        let read = |cpu: &Cpu, slot: u64| cpu.mem().read_u64(frame_base + slot * 8);

        let pc = read(cpu, 0)?;
        let sp = read(cpu, 1)?;
        let mut regs = [0u64; 31];
        for (i, slot) in regs.iter_mut().enumerate() {
            *slot = read(cpu, 2 + i as u64)?;
        }

        if let Some(reference) = reference {
            let cr = regs[28];
            if Self::reference(cpu, pc, cr) != reference {
                return Err(Fault::SigreturnViolation);
            }
        }

        for (i, value) in regs.iter().enumerate() {
            if let Some(reg) = Reg::from_index(i) {
                cpu.set_reg(reg, *value);
            }
        }
        cpu.set_reg(Reg::Sp, sp);
        cpu.set_pc(pc);
        Ok(())
    }
}

/// A round-robin thread scheduler over kernel-held [`Context`]s
/// (paper §5.4).
///
/// Threads share the process address space (and PA keys) but each has its
/// own stack, its own shadow-stack window, and — per the §4.3
/// recommendation — its own chain seed, so sibling ACS chains are
/// disjoint. While a thread is preempted its registers (including CR and
/// LR) live in the scheduler's task list, *outside* the simulated memory:
/// the adversary model cannot reach them, which is the property §5.4
/// argues makes PACStack thread-safe without kernel changes.
///
/// [`Context`]: crate::Context
#[derive(Debug, Default)]
pub struct Scheduler {
    tasks: Vec<Task>,
    current: usize,
    /// Next unused thread-stack base.
    next_stack: u64,
}

#[derive(Debug)]
struct Task {
    name: String,
    context: Option<crate::Context>,
    exit_code: Option<u64>,
}

/// Where thread stacks are mapped (below the main stack region).
const THREAD_STACK_AREA: u64 = 0x7f00_0000;
/// Size of one thread stack.
const THREAD_STACK_SIZE: u64 = 0x1_0000;

impl Scheduler {
    /// Creates a scheduler whose task 0 is the CPU's current state (the
    /// main thread).
    pub fn adopt_main(cpu: &Cpu) -> Self {
        Self {
            tasks: vec![Task {
                name: "main".to_owned(),
                context: Some(cpu.save_context()),
                exit_code: None,
            }],
            current: 0,
            next_stack: THREAD_STACK_AREA,
        }
    }

    /// Spawns a thread running the function `entry` with its own stack,
    /// shadow-stack window and chain seed (`CR = chain_seed`, the §4.3
    /// re-seeding that keeps sibling chains disjoint).
    ///
    /// # Errors
    ///
    /// [`Fault::NoSuchSymbol`] if `entry` is not defined by the program,
    /// and [`Fault::AccessFault`] at the would-be stack base once the next
    /// thread stack would overlap an existing mapping (the main stack,
    /// after 120 threads) — reportable outcomes, not host-process aborts.
    /// A refused spawn maps nothing.
    pub fn spawn(&mut self, cpu: &mut Cpu, entry: &str, chain_seed: u64) -> Result<(), Fault> {
        let entry_addr = cpu.symbol(entry).ok_or(Fault::NoSuchSymbol)?;
        let stack_base = self.next_stack;
        if cpu.mem().overlaps(stack_base, THREAD_STACK_SIZE) {
            return Err(Fault::AccessFault { addr: stack_base });
        }
        self.next_stack += 2 * THREAD_STACK_SIZE; // guard gap between stacks
        cpu.mem_mut()
            .map(stack_base, THREAD_STACK_SIZE, crate::Perms::ReadWrite);

        // Build the thread's initial register state on a scratch copy of
        // the live CPU, then capture it as a context.
        let live = cpu.save_context();
        cpu.set_pc(entry_addr);
        cpu.set_reg(Reg::Sp, stack_base + THREAD_STACK_SIZE - 16);
        // Returning from the entry function lands on the start stub's
        // `svc #0`, which the scheduler interprets as thread exit.
        cpu.set_reg(Reg::LR, crate::LAYOUT.code_base + 4);
        cpu.set_reg(Reg::CR, chain_seed);
        // A private shadow-stack window, one page per thread.
        let scs_window = crate::LAYOUT.shadow_stack_base + 0x1000 * (self.tasks.len() as u64);
        cpu.set_reg(Reg::SCS, scs_window);
        let context = cpu.save_context();
        cpu.restore_context(&live);

        self.tasks.push(Task {
            name: entry.to_owned(),
            context: Some(context),
            exit_code: None,
        });
        Ok(())
    }

    /// Number of tasks still runnable.
    pub fn live_tasks(&self) -> usize {
        self.tasks.iter().filter(|t| t.context.is_some()).count()
    }

    /// Exit code of a finished task, by spawn order.
    pub fn exit_code(&self, index: usize) -> Option<u64> {
        self.tasks.get(index).and_then(|t| t.exit_code)
    }

    /// Name of a task.
    pub fn task_name(&self, index: usize) -> Option<&str> {
        self.tasks.get(index).map(|t| t.name.as_str())
    }

    /// Runs all tasks round-robin, `quantum` instructions at a time, until
    /// every task has exited or `max_slices` time slices have elapsed.
    ///
    /// Returns the exit codes in spawn order.
    ///
    /// # Errors
    ///
    /// Propagates the first non-preemption [`Fault`] any task raises, and
    /// reports [`Fault::Timeout`] if tasks are still live after
    /// `max_slices`.
    pub fn run_all(
        &mut self,
        cpu: &mut Cpu,
        quantum: u64,
        max_slices: u64,
    ) -> Result<Vec<u64>, Fault> {
        let mut slices = 0;
        while self.live_tasks() > 0 {
            if slices >= max_slices {
                return Err(Fault::Timeout);
            }
            slices += 1;
            // Pick the next runnable task, taking its context as we find it.
            let n = self.tasks.len();
            let mut selected = None;
            for i in 0..n {
                let idx = (self.current + i) % n;
                if let Some(context) = self.tasks[idx].context.take() {
                    selected = Some((idx, context));
                    break;
                }
            }
            let Some((idx, context)) = selected else {
                break;
            };
            self.current = idx;
            let task = &mut self.tasks[idx];
            cpu.restore_context(&context);

            match cpu.run(quantum) {
                Ok(out) => match out.status {
                    crate::RunStatus::Exited(code) => {
                        task.exit_code = Some(code);
                    }
                    crate::RunStatus::Syscall(_) => {
                        // Unknown syscall: treat as a yield.
                        task.context = Some(cpu.save_context());
                    }
                },
                // Quantum expiry: preempt, saving state kernel-side.
                Err(Fault::Timeout) => {
                    task.context = Some(cpu.save_context());
                }
                Err(fault) => return Err(fault),
            }
            self.current = (self.current + 1) % n;
        }
        Ok(self
            .tasks
            .iter()
            .map(|t| t.exit_code.unwrap_or(0))
            .collect())
    }
}

/// `fork`: duplicates the process. The child shares the parent's PA keys —
/// the configuration the paper's §4.3 guessing analysis targets.
pub fn fork(parent: &Cpu) -> Cpu {
    parent.clone()
}

/// `exec`: the kernel generates fresh PA keys for the process, invalidating
/// every PAC the adversary has harvested.
pub fn exec_rekey(cpu: &mut Cpu, seed: u64) {
    cpu.set_keys(PaKeys::from_seed(seed));
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::program::Op;
    use crate::Instruction::*;
    use crate::{Program, RunStatus};

    /// main spins via svc #42 checkpoints; handler emits X19 and sigreturns.
    fn signal_test_program() -> Program {
        let mut p = Program::new();
        p.function(
            "main",
            vec![
                MovImm(Reg::X19, 0xAA), // callee-saved canary
                Svc(42),                // checkpoint 1: harness delivers a signal here
                Mov(Reg::X0, Reg::X19), // X19 must survive the signal
                Ret,
            ],
        );
        p.function(
            "handler",
            vec![
                MovImm(Reg::X19, 0x55), // clobber; sigreturn must restore it
                Svc(SIGRETURN_SYSCALL),
            ],
        );
        p
    }

    #[test]
    fn signal_round_trip_restores_context() {
        let mut cpu = Cpu::with_seed(signal_test_program(), 3);
        let mut signals = SignalDelivery::new();

        let out = cpu.run(1000).unwrap();
        assert_eq!(out.status, RunStatus::Syscall(42));
        let handler = cpu.symbol("handler").unwrap();
        signals.deliver(&mut cpu, handler).unwrap();

        let out = cpu.run(1000).unwrap();
        assert_eq!(out.status, RunStatus::Syscall(SIGRETURN_SYSCALL));
        signals.sigreturn(&mut cpu).unwrap();

        let out = cpu.run(1000).unwrap();
        assert_eq!(out.exit_code, 0xAA); // X19 restored across the signal
    }

    #[test]
    fn srop_forges_full_register_state_when_unprotected() {
        // Sigreturn-oriented programming (paper §6.3.2): the adversary
        // rewrites the signal frame and gains every register, including CR.
        let mut cpu = Cpu::with_seed(signal_test_program(), 3);
        let mut signals = SignalDelivery::new();

        cpu.run(1000).unwrap();
        let handler = cpu.symbol("handler").unwrap();
        signals.deliver(&mut cpu, handler).unwrap();

        // The frame sits at SP; slot 2+28 is X28 (CR), slot 0 is PC.
        let frame = cpu.reg(Reg::Sp);
        let main_addr = cpu.symbol("main").unwrap();
        cpu.mem_mut().write_u64(frame, main_addr).unwrap(); // PC
        cpu.mem_mut()
            .write_u64(frame + (2 + 28) * 8, 0x4141_4141)
            .unwrap(); // CR

        cpu.run(1000).unwrap();
        signals.sigreturn(&mut cpu).unwrap();
        assert_eq!(cpu.reg(Reg::CR), 0x4141_4141); // adversary controls CR
        assert_eq!(cpu.pc(), cpu.symbol("main").unwrap());
    }

    #[test]
    fn protected_sigreturn_detects_forged_frame() {
        let mut cpu = Cpu::with_seed(signal_test_program(), 3);
        let mut signals = SignalDelivery::protected();

        cpu.run(1000).unwrap();
        let handler = cpu.symbol("handler").unwrap();
        signals.deliver(&mut cpu, handler).unwrap();

        let frame = cpu.reg(Reg::Sp);
        cpu.mem_mut()
            .write_u64(frame + (2 + 28) * 8, 0x4141_4141)
            .unwrap();

        cpu.run(1000).unwrap();
        assert_eq!(signals.sigreturn(&mut cpu), Err(Fault::SigreturnViolation));
    }

    #[test]
    fn protected_sigreturn_accepts_genuine_frame() {
        let mut cpu = Cpu::with_seed(signal_test_program(), 3);
        let mut signals = SignalDelivery::protected();

        cpu.run(1000).unwrap();
        let handler = cpu.symbol("handler").unwrap();
        signals.deliver(&mut cpu, handler).unwrap();
        cpu.run(1000).unwrap();
        signals.sigreturn(&mut cpu).unwrap();
        assert_eq!(cpu.run(1000).unwrap().exit_code, 0xAA);
    }

    #[test]
    fn protected_sigreturn_without_delivery_is_killed() {
        let mut cpu = Cpu::with_seed(signal_test_program(), 3);
        let mut signals = SignalDelivery::protected();
        // Adversary triggers sigreturn with no signal outstanding.
        assert_eq!(signals.sigreturn(&mut cpu), Err(Fault::SigreturnViolation));
    }

    #[test]
    fn nested_signals_unwind_in_order() {
        let mut cpu = Cpu::with_seed(signal_test_program(), 3);
        let mut signals = SignalDelivery::protected();

        cpu.run(1000).unwrap();
        let handler = cpu.symbol("handler").unwrap();
        signals.deliver(&mut cpu, handler).unwrap();
        // Second signal arrives while the first handler runs.
        signals.deliver(&mut cpu, handler).unwrap();
        assert_eq!(signals.depth(), 2);

        cpu.run(1000).unwrap();
        signals.sigreturn(&mut cpu).unwrap(); // back into first handler
        assert_eq!(signals.depth(), 1);
        cpu.run(1000).unwrap();
        signals.sigreturn(&mut cpu).unwrap(); // back into main
        assert_eq!(signals.depth(), 0);
        assert_eq!(cpu.run(1000).unwrap().exit_code, 0xAA);
    }

    #[test]
    fn context_switch_preserves_cr_outside_memory() {
        // §5.4: during a context switch CR/LR live in kernel-private
        // storage; the adversary's memory writes cannot affect them.
        let mut p = Program::new();
        p.function("main", vec![MovImm(Reg::X0, 0), Ret]);
        let mut cpu = Cpu::with_seed(p, 3);
        cpu.set_reg(Reg::CR, 0xC0FFEE);
        let saved = cpu.save_context();

        // Adversary scribbles over all of user memory-visible state.
        cpu.set_reg(Reg::CR, 0xBAD);
        let stack = crate::LAYOUT.stack_top - 64;
        cpu.mem_mut().write_u64(stack, 0xBAD).unwrap();

        cpu.restore_context(&saved);
        assert_eq!(cpu.reg(Reg::CR), 0xC0FFEE);
    }

    #[test]
    fn fork_shares_keys_exec_rekeys() {
        let mut p = Program::new();
        p.function("main", vec![Ret]);
        let parent = Cpu::with_seed(p, 3);
        let mut child = fork(&parent);
        assert_eq!(child.keys(), parent.keys());
        exec_rekey(&mut child, 999);
        assert_ne!(child.keys(), parent.keys());
    }

    #[test]
    fn run_uses_ops_for_checkpoint_program() {
        // Sanity: the Op-based builder and signals interact correctly when
        // the handler address is taken before delivery.
        let mut p = Program::new();
        p.function_ops("main", vec![Op::I(MovImm(Reg::X0, 1)), Op::I(Ret)]);
        assert_eq!(Cpu::with_seed(p, 0).run(100).unwrap().exit_code, 1);
    }
}
