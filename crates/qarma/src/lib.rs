//! QARMA-64: the tweakable block cipher used as the reference primitive for
//! ARMv8.3-A pointer authentication codes (PACs).
//!
//! QARMA is a three-round Even–Mansour construction with a reflector, designed
//! by Roberto Avanzi ("The QARMA Block Cipher Family", IACR ToSC 2017). The
//! 64-bit variant is the primitive ARM's architecture reference manual names
//! for computing PACs, and the one the PACStack paper assumes when estimating
//! a ~4-cycle PAC latency.
//!
//! This crate implements QARMA-64 encryption with all three published
//! S-boxes (σ0, σ1, σ2) and a configurable number of forward rounds `r`, and
//! is validated against the test vectors published in the QARMA paper.
//! Pointer authentication only ever encrypts, so there is no decryption.
//!
//! # Examples
//!
//! ```
//! use pacstack_qarma::{Qarma64, Sigma};
//!
//! // Key, tweak and plaintext from the QARMA paper's published test vector.
//! let cipher = Qarma64::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9, Sigma::Sigma0, 5);
//! let ciphertext = cipher.encrypt(0xfb623599da6e8127, 0x477d469dec0b8762);
//! assert_eq!(ciphertext, 0x3ee99a6c82af0c38);
//! // The fast path agrees with the cell-based reference data path.
//! assert_eq!(ciphertext, cipher.encrypt_reference(0xfb623599da6e8127, 0x477d469dec0b8762));
//! ```

// `unsafe` is denied crate-wide and allowed in exactly one place: the
// `simd` module, whose SSSE3 intrinsics need a `#[target_feature]` context.
// Every other module is unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod cells;
mod cipher;
mod constants;
mod packed;
pub mod reference;
mod schedule;
#[cfg(target_arch = "x86_64")]
mod simd;
mod tweak;

pub use cipher::{Qarma64, Sigma};

/// A 128-bit QARMA key, split into the whitening half `w0` and core half `k0`.
///
/// This mirrors how ARM pointer-authentication key registers (for example
/// `APIAKey_EL1`) hold a 128-bit value consumed by QARMA-64.
///
/// # Examples
///
/// ```
/// use pacstack_qarma::Key128;
///
/// let key = Key128::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9);
/// assert_eq!(key.w0(), 0x84be85ce9804e94b);
/// assert_eq!(key.k0(), 0xec2802d4e0a488e9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key128 {
    w0: u64,
    k0: u64,
}

impl Key128 {
    /// Creates a key from its whitening (`w0`) and core (`k0`) halves.
    pub fn new(w0: u64, k0: u64) -> Self {
        Self { w0, k0 }
    }

    /// Returns the whitening half of the key.
    pub fn w0(self) -> u64 {
        self.w0
    }

    /// Returns the core half of the key.
    pub fn k0(self) -> u64 {
        self.k0
    }

    /// Builds a key from 16 bytes in big-endian order (`w0` first).
    ///
    /// # Examples
    ///
    /// ```
    /// use pacstack_qarma::Key128;
    ///
    /// let bytes = [0u8; 16];
    /// assert_eq!(Key128::from_bytes(bytes), Key128::new(0, 0));
    /// ```
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        let mut w0 = [0u8; 8];
        let mut k0 = [0u8; 8];
        w0.copy_from_slice(&bytes[..8]);
        k0.copy_from_slice(&bytes[8..]);
        Self {
            w0: u64::from_be_bytes(w0),
            k0: u64::from_be_bytes(k0),
        }
    }

    /// Serialises the key to 16 bytes in big-endian order (`w0` first).
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.w0.to_be_bytes());
        out[8..].copy_from_slice(&self.k0.to_be_bytes());
        out
    }
}

impl Default for Key128 {
    fn default() -> Self {
        Self::new(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_round_trips_through_bytes() {
        let key = Key128::new(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
        assert_eq!(Key128::from_bytes(key.to_bytes()), key);
    }

    #[test]
    fn key_accessors_return_halves() {
        let key = Key128::new(1, 2);
        assert_eq!(key.w0(), 1);
        assert_eq!(key.k0(), 2);
    }
}
