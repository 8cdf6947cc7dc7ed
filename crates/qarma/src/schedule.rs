//! Precomputed QARMA-64 key schedules.
//!
//! The reference data path re-derives `w1`, the per-round tweakeys and the
//! reflector key on every call. All of that material is a pure function of
//! the 128-bit key, so [`DirSchedule::encrypt`] derives it once when the
//! cipher is built and the hot path only XORs precomputed words. Only the
//! encryption direction is kept: pointer authentication never decrypts, so
//! [`DirSchedule::decrypt`] is derived per call by `Qarma64::decrypt`.

use crate::cells::{from_cells, mix_columns, permute, to_cells};
use crate::constants::{ALPHA, ROUND_CONSTANTS, TAU_INV};
use crate::Key128;

/// A 64-bit packed state spread to one cell per byte (lane `d` = cell `d`),
/// as two little-endian `u64` halves — the in-register layout of the SIMD
/// data path, precomputed here so the hot loop just loads it.
#[cfg(target_arch = "x86_64")]
pub(crate) type Spread = [u64; 2];

/// Spreads a packed word into the one-cell-per-byte layout.
#[cfg(target_arch = "x86_64")]
pub(crate) fn spread_cells(x: u64) -> Spread {
    let mut halves = [0u64; 2];
    for d in 0..16 {
        halves[d / 8] |= ((x >> (60 - 4 * d)) & 0xF) << (8 * (d % 8));
    }
    halves
}

/// The derived whitening key `w1 = (w0 >>> 1) ⊕ (w0 >> 63)`.
fn w1_of(w0: u64) -> u64 {
    w0.rotate_right(1) ^ (w0 >> 63)
}

/// Key material for one direction of the shared data path.
///
/// QARMA's reflector structure makes decryption the same circuit as
/// encryption under a transformed key schedule, so one `DirSchedule` fully
/// describes either direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct DirSchedule {
    /// Whitening XORed into the input block (`w0` when encrypting).
    pub w_in: u64,
    /// Whitening XORed into the output block (`w1` when encrypting); also
    /// the tweakey core of the extra forward round before the reflector.
    pub w_out: u64,
    /// Forward-round tweakeys `k ⊕ c_i` (tweak added per call).
    pub fwd_key: [u64; 8],
    /// Backward-round tweakeys `k ⊕ c_i ⊕ α`.
    pub bwd_key: [u64; 8],
    /// The reflector key, pre-permuted by τ⁻¹ and packed, so the reflector
    /// centre collapses to one table application and one XOR.
    pub reflect_key: u64,
    /// [`DirSchedule::w_in`] in the SIMD lane layout.
    #[cfg(target_arch = "x86_64")]
    pub w_in_spread: Spread,
    /// [`DirSchedule::w_out`] in the SIMD lane layout.
    #[cfg(target_arch = "x86_64")]
    pub w_out_spread: Spread,
    /// [`DirSchedule::fwd_key`] in the SIMD lane layout.
    #[cfg(target_arch = "x86_64")]
    pub fwd_key_spread: [Spread; 8],
    /// [`DirSchedule::bwd_key`] in the SIMD lane layout.
    #[cfg(target_arch = "x86_64")]
    pub bwd_key_spread: [Spread; 8],
    /// [`DirSchedule::reflect_key`] in the SIMD lane layout.
    #[cfg(target_arch = "x86_64")]
    pub reflect_key_spread: Spread,
}

impl DirSchedule {
    /// The encryption-direction schedule of `key`.
    pub fn encrypt(key: Key128) -> Self {
        let w0 = key.w0();
        let k0 = key.k0();
        Self::new(w0, w1_of(w0), k0, k0)
    }

    /// The decryption-direction schedule of `key`: whitening keys swapped,
    /// α folded into the core key, reflector keyed with `Q·k0`.
    pub fn decrypt(key: Key128) -> Self {
        let w0 = key.w0();
        let k0 = key.k0();
        let q_k0 = from_cells(&mix_columns(&to_cells(k0)));
        Self::new(w1_of(w0), w0, k0 ^ ALPHA, q_k0)
    }

    fn new(w_in: u64, w_out: u64, k: u64, k1: u64) -> Self {
        let mut fwd_key = [0u64; 8];
        let mut bwd_key = [0u64; 8];
        for (i, c) in ROUND_CONSTANTS.iter().enumerate() {
            fwd_key[i] = k ^ c;
            bwd_key[i] = k ^ c ^ ALPHA;
        }
        let reflect_key = from_cells(&permute(&to_cells(k1), &TAU_INV));
        Self {
            w_in,
            w_out,
            fwd_key,
            bwd_key,
            reflect_key,
            #[cfg(target_arch = "x86_64")]
            w_in_spread: spread_cells(w_in),
            #[cfg(target_arch = "x86_64")]
            w_out_spread: spread_cells(w_out),
            #[cfg(target_arch = "x86_64")]
            fwd_key_spread: fwd_key.map(spread_cells),
            #[cfg(target_arch = "x86_64")]
            bwd_key_spread: bwd_key.map(spread_cells),
            #[cfg(target_arch = "x86_64")]
            reflect_key_spread: spread_cells(reflect_key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_in_the_key() {
        let key = Key128::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9);
        assert_eq!(DirSchedule::encrypt(key), DirSchedule::encrypt(key));
        assert_ne!(
            DirSchedule::encrypt(key),
            DirSchedule::encrypt(Key128::new(0x84be85ce9804e94b ^ 1, 0xec2802d4e0a488e9))
        );
    }

    #[test]
    fn derived_whitening_matches_reference_formula() {
        let key = Key128::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9);
        let (enc, dec) = (DirSchedule::encrypt(key), DirSchedule::decrypt(key));
        let w0 = key.w0();
        let w1 = w0.rotate_right(1) ^ (w0 >> 63);
        assert_eq!(enc.w_in, w0);
        assert_eq!(enc.w_out, w1);
        assert_eq!(dec.w_in, w1);
        assert_eq!(dec.w_out, w0);
    }

    #[test]
    fn round_keys_fold_constants_and_alpha() {
        let key = Key128::new(7, 9);
        let (enc, dec) = (DirSchedule::encrypt(key), DirSchedule::decrypt(key));
        for (i, c) in ROUND_CONSTANTS.iter().enumerate() {
            assert_eq!(enc.fwd_key[i], key.k0() ^ c);
            assert_eq!(enc.bwd_key[i], key.k0() ^ c ^ ALPHA);
            assert_eq!(dec.fwd_key[i], key.k0() ^ ALPHA ^ c);
            assert_eq!(dec.bwd_key[i], key.k0() ^ c);
        }
    }
}
