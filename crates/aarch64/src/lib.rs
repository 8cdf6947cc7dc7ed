//! An AArch64-subset CPU simulator for the PACStack reproduction.
//!
//! The PACStack paper evaluates on two platforms neither of which is
//! available to a pure-Rust reproduction: the ARM Fixed Virtual Platform
//! (for functional correctness, since it implements ARMv8.3-A pointer
//! authentication) and Amazon EC2 a1.metal machines running a *PA-analogue*
//! (for performance, since no PA silicon was publicly programmable). This
//! crate plays both roles:
//!
//! * **Functional**: a register-accurate interpreter for the instruction
//!   subset the PACStack instrumentation emits — loads/stores, branches,
//!   `bl`/`blr`/`ret`, and the PA instructions `pacia`, `autia`, `paciasp`,
//!   `retaa`, `xpaci`, `pacga` — over a memory model that enforces W⊕X and
//!   faults on non-canonical pointers, exactly the behaviours the paper's
//!   security argument depends on.
//! * **Performance**: a deterministic per-instruction cycle charge
//!   ([`Instruction::classify`]) in which a PAC computation costs ~4
//!   cycles, the figure the paper adopts from QARMA hardware evaluations,
//!   so instrumentation overheads can be measured as cycle ratios.
//!
//! A small kernel model ([`kernel`]) covers what §5.4 of the paper relies
//! on: per-process PA keys owned at EL1, context switches that spill CR/LR
//! into kernel-private storage, and signal delivery/`sigreturn`.
//!
//! # Examples
//!
//! ```
//! use pacstack_aarch64::{Cpu, Instruction::*, Program, Reg};
//!
//! let mut program = Program::new();
//! program.function("main", vec![
//!     MovImm(Reg::X0, 41),
//!     AddImm(Reg::X0, Reg::X0, 1),
//!     Svc(0), // exit(X0)
//! ]);
//! let mut cpu = Cpu::with_seed(program, 0);
//! let outcome = cpu.run(1_000)?;
//! assert_eq!(outcome.exit_code, 42);
//! # Ok::<(), pacstack_aarch64::Fault>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panic paths must not silently return: fault injection requires structured
// errors end to end ([`Fault`], [`LinkError`]). Tests opt back in locally.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod asm;
mod cpu;
mod fault;
mod insn;
pub mod kernel;
mod memory;
pub mod profile;
pub mod program;
mod regs;
pub mod trace;

pub use cpu::{Context, Cpu, InsnCounters, Outcome, RunStatus};
pub use fault::Fault;
pub use insn::{Cond, InsnClass, Instruction, Retire};
pub use memory::{Memory, Perms, LAYOUT};
pub use profile::{FunctionProfile, ProfileSpan, Profiler};
pub use program::{LinkError, Program};
pub use regs::Reg;
