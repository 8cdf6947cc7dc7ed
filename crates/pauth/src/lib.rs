//! A functional model of the ARMv8.3-A pointer-authentication (PA) extension.
//!
//! PA computes a *pointer authentication code* (PAC) — a keyed, tweakable MAC
//! over a pointer's address — and embeds it in the unused high-order bits of
//! the pointer. The PACStack paper builds its authenticated call stack (ACS)
//! on exactly this mechanism, so every architectural detail that matters to
//! its security analysis is modelled here:
//!
//! * the PAC field geometry as a function of the virtual-address size and
//!   address tagging ([`VaLayout`]) — 16 bits in the paper's default Linux
//!   configuration;
//! * the five key registers (`IA`, `IB`, `DA`, `DB`, `GA`) managed at EL1
//!   ([`PaKeys`]);
//! * `pac*` / `aut*` semantics including the *error-bit* behaviour on
//!   verification failure ([`PointerAuth::aut`]) that makes a forged return
//!   address fault when used, and the bit-p flip on signing a corrupted
//!   pointer that enables the Google Project Zero signing-gadget attack the
//!   paper analyses in §6.3.1;
//! * the ARMv8.6-A `FPAC` mode in which `aut*` faults immediately.
//!
//! # Examples
//!
//! ```
//! use pacstack_pauth::{PaKey, PaKeys, PointerAuth, VaLayout};
//!
//! let pa = PointerAuth::new(VaLayout::default());
//! let keys = PaKeys::from_seed(7);
//! let ptr = 0x0000_0040_1234_5678;
//!
//! let signed = pa.pac(&keys, PaKey::Ia, ptr, 42);
//! assert_ne!(signed, ptr); // PAC now occupies the high bits
//! assert_eq!(pa.aut(&keys, PaKey::Ia, signed, 42), Ok(ptr));
//! assert!(pa.aut(&keys, PaKey::Ia, signed, 43).is_err()); // wrong modifier
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The simulator's fault-injection harness requires this crate to be
// panic-free: authentication failures are data, never aborts.
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod auth;
mod keys;
mod layout;

pub use auth::{AuthError, AuthFailure, PointerAuth};
pub use keys::{PaKey, PaKeys};
pub use layout::VaLayout;
