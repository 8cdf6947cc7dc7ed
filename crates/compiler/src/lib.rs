//! A miniature compiler that plays the role of the paper's modified LLVM.
//!
//! PACStack is implemented in the paper as changes to LLVM's
//! `AArch64FrameLowering` (emit the chain-update sequences during
//! `FrameSetup`/`FrameDestroy`) and `AArch64RegisterInfo` (reserve X28 as
//! the chain register). This crate reproduces that structure over a small
//! call-graph IR:
//!
//! * [`Module`]/[`FuncDef`]/[`Stmt`] — the IR: functions whose bodies mix
//!   compute, memory traffic, direct/indirect/tail calls and loops. Enough
//!   to express the synthetic SPEC-profile workloads and every control-flow
//!   corner case the evaluation needs.
//! * [`Scheme`] — the six return-address protections the paper measures
//!   against each other: no protection, stack canaries
//!   (`-mstack-protector-strong`), PA-based return-address signing
//!   (`-mbranch-protection`), LLVM ShadowCallStack, PACStack without
//!   masking, and full PACStack.
//! * [`lower`] — frame lowering: emits each scheme's exact prologue and
//!   epilogue instruction sequences (paper Listings 1–3), applying the
//!   paper's leaf-function heuristic (leaf functions that spill neither LR
//!   nor CR are left uninstrumented).
//!
//! # Examples
//!
//! ```
//! use pacstack_compiler::{lower, FuncDef, Module, Scheme, Stmt};
//! use pacstack_aarch64::Cpu;
//!
//! let mut module = Module::new();
//! module.push(FuncDef::new("main", vec![Stmt::Call("work".into()), Stmt::Return]));
//! module.push(FuncDef::new("work", vec![Stmt::Compute(8), Stmt::Return]));
//!
//! let program = lower(&module, Scheme::PacStack);
//! let mut cpu = Cpu::with_seed(program, 0);
//! assert!(cpu.run(10_000).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No `unwrap`/`expect` outside tests, which opt back in locally.
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod ir;
mod lower;
mod scheme;
pub mod unwind;

pub use ir::{FuncDef, Module, Stmt};
pub use lower::{
    frame, jmp_buf_addr, lower, lower_mixed, lower_with_options, LowerOptions, CANARY,
    CANARY_FAIL_EXIT, JMP_BUF_BASE, JMP_BUF_SIZE,
};
pub use scheme::Scheme;
