//! ACS configuration: masking variant and chain seed.

use std::fmt;

/// Whether stored authentication tokens are masked (full PACStack) or stored
/// in the clear (PACStack-nomask).
///
/// Masking closes the on-graph collision-harvesting attack at the cost of
/// two extra PAC computations per function activation (paper Table 1 /
/// §5.2); both variants are evaluated throughout the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Masking {
    /// Mask every stored token with `H_K(0, aret_{i-1})`.
    #[default]
    Masked,
    /// Store raw tokens — faster, but collisions are visible to a reader.
    Unmasked,
}

impl fmt::Display for Masking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Masking::Masked => f.write_str("masked"),
            Masking::Unmasked => f.write_str("nomask"),
        }
    }
}

/// Configuration for an [`AuthenticatedCallStack`].
///
/// [`AuthenticatedCallStack`]: crate::AuthenticatedCallStack
///
/// # Examples
///
/// ```
/// use pacstack_acs::{AcsConfig, Masking};
///
/// let cfg = AcsConfig::default()
///     .masking(Masking::Unmasked)
///     .seed(0x1234); // e.g. a thread id, for re-seeded sibling chains
/// assert_eq!(cfg.initial_chain(), 0x1234);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AcsConfig {
    masking: Masking,
    init: u64,
}

impl AcsConfig {
    /// The paper's default: masked tokens, zero seed.
    pub fn new() -> Self {
        Self {
            masking: Masking::Masked,
            init: 0,
        }
    }

    /// Selects the masking variant.
    pub fn masking(mut self, masking: Masking) -> Self {
        self.masking = masking;
        self
    }

    /// Sets the initial chain value (`init` in the paper).
    ///
    /// Re-seeding with a process- or thread-unique value after `fork` or
    /// thread creation defeats the divide-and-conquer guessing strategy of
    /// paper §4.3: siblings' chains become disjoint.
    pub fn seed(mut self, init: u64) -> Self {
        self.init = init;
        self
    }

    /// The configured masking variant.
    pub fn masking_mode(&self) -> Masking {
        self.masking
    }

    /// The configured initial chain value.
    pub fn initial_chain(&self) -> u64 {
        self.init
    }
}

impl Default for AcsConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_masked_zero_seed() {
        let cfg = AcsConfig::default();
        assert_eq!(cfg.masking_mode(), Masking::Masked);
        assert_eq!(cfg.initial_chain(), 0);
    }

    #[test]
    fn builder_sets_fields() {
        let cfg = AcsConfig::new().masking(Masking::Unmasked).seed(77);
        assert_eq!(cfg.masking_mode(), Masking::Unmasked);
        assert_eq!(cfg.initial_chain(), 77);
    }

    #[test]
    fn masking_displays_paper_names() {
        assert_eq!(Masking::Masked.to_string(), "masked");
        assert_eq!(Masking::Unmasked.to_string(), "nomask");
    }
}
