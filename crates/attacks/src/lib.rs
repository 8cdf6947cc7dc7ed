//! Adversary simulations for the PACStack security evaluation.
//!
//! Each module reproduces one of the attack classes the paper analyses,
//! under the paper's adversary model: arbitrary read/write of data memory,
//! no access to code pages (W⊕X), registers or PA keys.
//!
//! | Module | Paper section | What it shows |
//! |---|---|---|
//! | [`rop`] | §2.1 | Plain return-address overwrites succeed on unprotected binaries and how each scheme responds |
//! | [`reuse`] | §2.2.1, Listing 6 | Signed-return-address *reuse* defeats `-mbranch-protection` but not PACStack |
//! | [`collision`] | §6.2.1 | On-graph collision harvesting: birthday-bound success without masking, 2⁻ᵇ with masking |
//! | [`offgraph`] | §6.2.2 | Off-graph violations: 2⁻ᵇ to a call site, 2⁻²ᵇ to an arbitrary address |
//! | [`guessing`] | §4.3 | Brute force against forked siblings: divide-and-conquer (2ᵇ) vs re-seeded chains (2ᵇ⁺¹) |
//! | [`gadget`] | §6.3.1, Listings 7–8 | The Project-Zero signing gadget and why PACStack's tail calls resist it |
//! | [`online`] | §4.3 + §6.2.2 | End-to-end brute force against the full simulated system |
//! | [`victim`] | §2.2.1, §6.3.1 | The harness the attacks on the simulated CPU share: run to a checkpoint, tamper, resume and classify |
//!
//! Monte Carlo experiments run at reduced PAC widths (`b` ∈ 3..8) so
//! success probabilities of order 2⁻ᵇ and 2⁻²ᵇ are measurable in sensible
//! trial counts; the analytic bounds in [`pacstack_acs::security`] scale
//! the results back to the deployed `b = 16`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod collision;
pub mod gadget;
pub mod guessing;
pub mod offgraph;
pub mod online;
pub mod reuse;
pub mod rop;
pub mod victim;

use pacstack_acs::{AcsConfig, AuthenticatedCallStack, Masking};
use pacstack_pauth::{PaKeys, PointerAuth, VaLayout};

/// Returns a [`VaLayout`] whose PAC field is exactly `b` bits wide, used to
/// scale Monte Carlo experiments.
///
/// # Panics
///
/// Panics for `b` outside `3..=19` (the range reachable with tagged
/// layouts).
///
/// # Examples
///
/// ```
/// use pacstack_attacks::layout_with_pac_bits;
///
/// assert_eq!(layout_with_pac_bits(8).pac_bits(), 8);
/// assert_eq!(layout_with_pac_bits(16).pac_bits(), 16);
/// ```
pub fn layout_with_pac_bits(b: u32) -> VaLayout {
    assert!((3..=19).contains(&b), "b must be within 3..=19, got {b}");
    // Tagged layouts give pac_bits = 55 - va_size.
    VaLayout::new(55 - b, true)
}

/// An empty chain of one victim process: `b`-bit PACs, `masking`, `keys`.
fn acs_for(b: u32, masking: Masking, keys: PaKeys) -> AuthenticatedCallStack {
    AuthenticatedCallStack::new(
        PointerAuth::new(layout_with_pac_bits(b)),
        keys,
        AcsConfig::default().masking(masking),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pac_width_scaling_covers_experiment_range() {
        for b in 3..=19 {
            assert_eq!(layout_with_pac_bits(b).pac_bits(), b);
        }
    }

    #[test]
    #[should_panic(expected = "b must be within")]
    fn rejects_unreachable_width() {
        let _ = layout_with_pac_bits(2);
    }
}
