//! The QARMA-64 encryption key schedule: four words.
//!
//! The reference data path re-derives `w1`, the per-round tweakeys and the
//! reflector key on every call. Only four words of that material cannot be
//! had from another with one XOR: the two whitening keys, the core key and
//! the τ⁻¹-permuted reflector key. [`DirSchedule`] holds exactly those, and
//! the data paths form each round tweakey themselves, `k ⊕ c_i` forward and
//! `k ⊕ c_i ⊕ α` backward, one XOR that is off the state's dependency chain.
//! Deriving the four words is a handful of ALU operations, so
//! `Qarma64::with_key` builds the schedule eagerly. Pointer authentication
//! only encrypts, so there is no decryption schedule.

use crate::packed::tau_inv;
use crate::Key128;

/// The derived whitening key `w1 = (w0 >>> 1) ⊕ (w0 >> 63)`.
fn w1_of(w0: u64) -> u64 {
    w0.rotate_right(1) ^ (w0 >> 63)
}

/// Key material of the encryption data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct DirSchedule {
    /// Whitening XORed into the input block, `w0`.
    pub w_in: u64,
    /// Whitening XORed into the output block, `w1`; also the tweakey core
    /// of the extra forward round before the reflector.
    pub w_out: u64,
    /// The core key `k0`; round `i` adds `k ⊕ c_i` forward and
    /// `k ⊕ c_i ⊕ α` backward.
    pub k: u64,
    /// The reflector key, pre-permuted by τ⁻¹, so the reflector centre
    /// collapses to one fused linear layer and one XOR.
    pub reflect_key: u64,
}

impl DirSchedule {
    /// The encryption schedule of `key`.
    pub fn encrypt(key: Key128) -> Self {
        let (w0, k0) = (key.w0(), key.k0());
        Self {
            w_in: w0,
            w_out: w1_of(w0),
            k: k0,
            reflect_key: tau_inv(k0),
        }
    }

    /// The key the schedule was built from.
    pub fn key(&self) -> Key128 {
        Key128::new(self.w_in, self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{from_cells, permute, to_cells};
    use crate::constants::TAU_INV;
    use rand::{Rng, SeedableRng};

    /// τ⁻¹ through the cell reference.
    fn tau_inv_cells(x: u64) -> u64 {
        from_cells(&permute(&to_cells(x), &TAU_INV))
    }

    #[test]
    fn schedule_words_match_the_cell_reference_for_random_keys() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        for _ in 0..256 {
            let key = Key128::new(rng.gen(), rng.gen());
            let (w0, k0) = (key.w0(), key.k0());
            let w1 = w0.rotate_right(1) ^ (w0 >> 63);
            assert_eq!(
                DirSchedule::encrypt(key),
                DirSchedule {
                    w_in: w0,
                    w_out: w1,
                    k: k0,
                    reflect_key: tau_inv_cells(k0),
                },
                "encryption schedule of {key:?}"
            );
            assert_eq!(DirSchedule::encrypt(key).key(), key);
        }
    }

    #[test]
    fn schedule_is_deterministic_in_the_key() {
        let key = Key128::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9);
        assert_eq!(DirSchedule::encrypt(key), DirSchedule::encrypt(key));
        assert_ne!(
            DirSchedule::encrypt(key),
            DirSchedule::encrypt(Key128::new(0x84be85ce9804e94b ^ 1, 0xec2802d4e0a488e9))
        );
    }
}
