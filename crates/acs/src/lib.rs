//! The **authenticated call stack** (ACS) — the PACStack paper's core idea.
//!
//! ACS protects function return addresses by binding them into a chain of
//! message authentication codes. Each *authenticated return address*
//! `aret_i = auth_i ∥ ret_i` carries a MAC computed over the return address
//! and the *previous* authenticated return address:
//!
//! ```text
//! auth_i = H_K(ret_i, aret_{i-1})        (auth_0 = H_K(ret_0, init))
//! ```
//!
//! Only the newest link `aret_n` must be kept out of the adversary's reach
//! (in a reserved register, the *chain register* CR); every older link can
//! sit in attacker-writable stack memory, because any modification breaks
//! the chain and is detected when the chain is unwound.
//!
//! Because a PAC-sized MAC is short (16 bits in the paper's configuration),
//! an adversary who can *read* the stack could harvest tokens and find
//! colliding links by the birthday bound. ACS therefore *masks* every stored
//! token with a pseudo-random pad derived from the previous link
//! (`auth_i ⊕= H_K(0, aret_{i-1})`), which provably hides collisions
//! (paper §6.2.1 and Appendix A).
//!
//! This crate implements ACS as a pure state machine over the
//! [`pacstack_pauth`] pointer-authentication model:
//!
//! * [`AuthenticatedCallStack`] — push/pop with verification, in masked or
//!   unmasked variants ([`Masking`]);
//! * [`JmpBuf`]-based irregular unwinding (`setjmp`/`longjmp`, paper §4.4);
//! * re-seeding for forked processes and threads (paper §4.3);
//! * [`security`] — the paper's analytic bounds (Table 1, birthday and
//!   brute-force guessing formulas), used by the experiment harness.
//!
//! The compiler/simulator crates lower exactly this state machine to
//! instruction sequences; the attack crate drives both against each other.
//!
//! # Examples
//!
//! ```
//! use pacstack_acs::{AcsConfig, AuthenticatedCallStack};
//! use pacstack_pauth::{PaKeys, PointerAuth, VaLayout};
//!
//! let pa = PointerAuth::new(VaLayout::default());
//! let keys = PaKeys::from_seed(1);
//! let mut acs = AuthenticatedCallStack::new(pa, keys, AcsConfig::default());
//!
//! acs.call(0x40_1000); // main calls f, return address 0x40_1000
//! acs.call(0x40_2000); // f calls g
//! assert_eq!(acs.ret()?, 0x40_2000); // g returns — verified
//! assert_eq!(acs.ret()?, 0x40_1000); // f returns — verified
//! # Ok::<(), pacstack_acs::AcsViolation>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A malformed call sequence is data to the attack and fault harnesses,
// never an abort: every failure is an `AcsViolation`.
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod config;
mod error;
pub mod games;
mod jmpbuf;
pub mod security;
mod stack;

pub use config::{AcsConfig, Masking};
pub use error::AcsViolation;
pub use jmpbuf::JmpBuf;
pub use stack::AuthenticatedCallStack;
