//! The QARMA-64 cipher proper: whitened forward rounds, a central reflector,
//! and backward rounds, all parameterised by S-box choice and round count.
//!
//! [`Qarma64::with_key`] builds the four-word encryption schedule eagerly
//! (see the `schedule` module), and [`Qarma64::encrypt`] runs the fast path
//! over it; [`Qarma64::encrypt_pair`] runs two blocks under one tweak
//! through the same kernel in one pass. Both data paths form the round
//! tweakeys from the core key and the round constants themselves. There is
//! no decryption: pointer authentication only ever encrypts. The original
//! cell-based data path survives as [`Qarma64::encrypt_reference`] (see the
//! [`crate::reference`] module) and the two are pinned against each other
//! by a differential proptest suite.

use crate::constants::{ALPHA, ROUND_CONSTANTS, SIGMA0, SIGMA1, SIGMA2, SIGMA2_INV};
use crate::packed::{
    mt, reflector, sub_bytes, tinv_m, tweak_fwd, SIGMA0_BYTES, SIGMA1_BYTES, SIGMA2_BYTES,
    SIGMA2_INV_BYTES,
};
use crate::schedule::DirSchedule;
use crate::{reference, Key128};
use std::fmt;

/// Which of QARMA's three published 4-bit S-boxes to use.
///
/// σ1 is the variant referenced for ARM pointer authentication; σ0 and σ2 are
/// the lighter and heavier alternatives from the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sigma {
    /// σ0 — smallest circuit depth (an involution).
    Sigma0,
    /// σ1 — the recommended trade-off and ARM's reference choice (an involution).
    #[default]
    Sigma1,
    /// σ2 — highest nonlinearity (requires a distinct inverse table).
    Sigma2,
}

impl Sigma {
    pub(crate) fn table(self) -> &'static [u8; 16] {
        match self {
            Sigma::Sigma0 => &SIGMA0,
            Sigma::Sigma1 => &SIGMA1,
            Sigma::Sigma2 => &SIGMA2,
        }
    }

    pub(crate) fn inverse_table(self) -> &'static [u8; 16] {
        match self {
            Sigma::Sigma0 => &SIGMA0,
            Sigma::Sigma1 => &SIGMA1,
            Sigma::Sigma2 => &SIGMA2_INV,
        }
    }

    fn byte_table(self) -> &'static [u8; 256] {
        match self {
            Sigma::Sigma0 => &SIGMA0_BYTES,
            Sigma::Sigma1 => &SIGMA1_BYTES,
            Sigma::Sigma2 => &SIGMA2_BYTES,
        }
    }

    fn inverse_byte_table(self) -> &'static [u8; 256] {
        match self {
            Sigma::Sigma0 => &SIGMA0_BYTES,
            Sigma::Sigma1 => &SIGMA1_BYTES,
            Sigma::Sigma2 => &SIGMA2_INV_BYTES,
        }
    }
}

impl fmt::Display for Sigma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sigma::Sigma0 => write!(f, "σ0"),
            Sigma::Sigma1 => write!(f, "σ1"),
            Sigma::Sigma2 => write!(f, "σ2"),
        }
    }
}

/// A QARMA-64 instance: a 128-bit key, an S-box choice and `r` forward rounds.
///
/// Construction derives the encryption key schedule, four words
/// (`w0`, `w1`, the core key and the τ⁻¹-permuted reflector key), and the
/// data path forms every round tweakey from them with one XOR, so `encrypt`
/// touches no key-derivation code. The schedule is cheap enough to build
/// for every key: the instance is 48 bytes and holds no other copy of the
/// key.
///
/// The paper's recommended parameterisations are `r = 5` with σ0, `r = 7`
/// with σ1, and `r = 11` with σ2. [`Qarma64::recommended`] builds the σ1/r=7
/// instance used as ARM's PAC reference.
///
/// # Examples
///
/// ```
/// use pacstack_qarma::{Key128, Qarma64, Sigma};
///
/// let cipher = Qarma64::with_key(Key128::new(0x1234, 0x5678), Sigma::Sigma1, 7);
/// let c = cipher.encrypt(0xdead_beef, 42);
/// assert_eq!(c, cipher.encrypt_reference(0xdead_beef, 42));
/// assert_ne!(c, cipher.encrypt(0xdead_beef, 43)); // the tweak matters
/// ```
// The schedule is an injective function of the key (it keeps `w0` and `k0`
// verbatim), so the derived comparison and hash decide identity by
// (key, sigma, rounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Qarma64 {
    /// Encryption key material; also the key itself.
    schedule: DirSchedule,
    rounds: usize,
    sigma: Sigma,
}

impl Qarma64 {
    /// Creates a cipher from the two key halves, an S-box and a round count.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is 0 or greater than 8 (the number of published
    /// round constants).
    pub fn new(w0: u64, k0: u64, sigma: Sigma, rounds: usize) -> Self {
        Self::with_key(Key128::new(w0, k0), sigma, rounds)
    }

    /// Creates a cipher from a [`Key128`], an S-box and a round count,
    /// deriving the four-word encryption key schedule.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is 0 or greater than 8.
    pub fn with_key(key: Key128, sigma: Sigma, rounds: usize) -> Self {
        assert!(
            (1..=crate::constants::ROUND_CONSTANTS.len()).contains(&rounds),
            "QARMA-64 supports 1..=8 forward rounds, got {rounds}"
        );
        Self {
            schedule: DirSchedule::encrypt(key),
            rounds,
            sigma,
        }
    }

    /// The σ1, r = 7 instance — QARMA7-64-σ1, ARM's PAC reference.
    pub fn recommended(key: Key128) -> Self {
        Self::with_key(key, Sigma::Sigma1, 7)
    }

    /// Returns the key this instance was built with.
    pub fn key(&self) -> Key128 {
        self.schedule.key()
    }

    /// Returns the S-box variant in use.
    pub fn sigma(&self) -> Sigma {
        self.sigma
    }

    /// Returns the number of forward rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The packed data path: whitened forward rounds, central reflector,
    /// backward rounds, over the schedule `ks`, for `N` blocks under one
    /// tweak. Round `i`'s tweakey, `k ⊕ c_i ⊕ t_i` forward
    /// and `k ⊕ c_i ⊕ α ⊕ t_i` backward, is formed while the tweak schedule
    /// runs (the backward rounds consume the same tweaks in reverse), so
    /// each round adds one ready word to the state, and no `[u8; 16]` cell
    /// array is ever materialised. Each round is applied to every block
    /// before the next round starts, so for `N > 1` the blocks' independent
    /// dependency chains interleave; `N = 1` is the plain single-block
    /// cipher.
    fn crypt_packed<const N: usize>(
        &self,
        blocks: [u64; N],
        tweak: u64,
        ks: &DirSchedule,
    ) -> [u64; N] {
        let sb = self.sigma.byte_table();
        let sb_inv = self.sigma.inverse_byte_table();
        let r = self.rounds;
        // Every round's tweakey, formed beside the tweak schedule and off
        // the state's dependency chain: each round below adds one word.
        let mut fwd = [0u64; 8];
        let mut bwd = [0u64; 8];
        let mut t = tweak;
        for i in 0..r {
            fwd[i] = ks.k ^ ROUND_CONSTANTS[i] ^ t;
            bwd[i] = ks.k ^ ROUND_CONSTANTS[i] ^ ALPHA ^ t;
            t = tweak_fwd(t);
        }
        let t_mid = t;

        let mut state = blocks.map(|block| block ^ ks.w_in);
        // Round 0 is the short round: no ShuffleCells/MixColumns.
        for s in &mut state {
            *s = sub_bytes(*s ^ fwd[0], sb);
        }
        for &tk in &fwd[1..r] {
            for s in &mut state {
                *s = sub_bytes(mt(*s ^ tk), sb);
            }
        }

        let (tk_out, tk_in) = (ks.w_out ^ t_mid, ks.w_in ^ t_mid);
        for s in &mut state {
            *s = sub_bytes(mt(*s ^ tk_out), sb);
            *s = reflector(*s) ^ ks.reflect_key;
            *s = tinv_m(sub_bytes(*s, sb_inv)) ^ tk_in;
        }

        for &tk in bwd[1..r].iter().rev() {
            for s in &mut state {
                *s = tinv_m(sub_bytes(*s, sb_inv)) ^ tk;
            }
        }
        state.map(|s| sub_bytes(s, sb_inv) ^ bwd[0] ^ ks.w_out)
    }

    /// Runs the `N`-block kernel on the dispatched data path: SSSE3 on
    /// x86-64 CPUs that have it, packed SWAR everywhere else.
    #[inline(always)]
    fn crypt<const N: usize>(&self, blocks: [u64; N], tweak: u64, ks: &DirSchedule) -> [u64; N] {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::available() {
            return crate::simd::crypt(blocks, tweak, ks, self.sigma, self.rounds);
        }
        self.crypt_packed(blocks, tweak, ks)
    }

    /// Encrypts one 64-bit block under the given 64-bit tweak.
    ///
    /// On x86-64 CPUs with SSSE3 this dispatches to the vectorised data path
    /// (`pshufb` permutations and S-boxes); everywhere else it runs the
    /// portable packed-nibble SWAR path. Both are differentially pinned
    /// against the cell-based reference and always agree.
    ///
    /// # Examples
    ///
    /// ```
    /// use pacstack_qarma::{Qarma64, Sigma};
    ///
    /// let cipher = Qarma64::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9, Sigma::Sigma0, 5);
    /// assert_eq!(cipher.encrypt(0xfb623599da6e8127, 0x477d469dec0b8762), 0x3ee99a6c82af0c38);
    /// ```
    pub fn encrypt(&self, plaintext: u64, tweak: u64) -> u64 {
        let [c] = self.crypt([plaintext], tweak, &self.schedule);
        c
    }

    /// Encrypts two 64-bit blocks under one 64-bit tweak in a single pass:
    /// exactly `(self.encrypt(a, tweak), self.encrypt(b, tweak))`.
    ///
    /// The tweak schedule is computed once, and the two states go through
    /// every round side by side, so the pair takes well under twice the
    /// latency of one [`Qarma64::encrypt`]. Pointer authentication uses it
    /// where one modifier tweaks two MACs: the masked authenticated call
    /// stack's `H_K(ret, aret)` and its pad `H_K(0, aret)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pacstack_qarma::{Key128, Qarma64};
    ///
    /// let cipher = Qarma64::recommended(Key128::new(0x1234, 0x5678));
    /// let (a, b) = cipher.encrypt_pair(0x40_1000, 0, 42);
    /// assert_eq!(a, cipher.encrypt(0x40_1000, 42));
    /// assert_eq!(b, cipher.encrypt(0, 42));
    /// ```
    pub fn encrypt_pair(&self, a: u64, b: u64, tweak: u64) -> (u64, u64) {
        let [ca, cb] = self.crypt([a, b], tweak, &self.schedule);
        (ca, cb)
    }

    /// Encrypts through the cell-based reference path (the differential
    /// oracle; see [`crate::reference`]).
    pub fn encrypt_reference(&self, plaintext: u64, tweak: u64) -> u64 {
        reference::encrypt(self.key(), self.sigma, self.rounds, plaintext, tweak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W0: u64 = 0x84be85ce9804e94b;
    const K0: u64 = 0xec2802d4e0a488e9;
    const TWEAK: u64 = 0x477d469dec0b8762;
    const PLAINTEXT: u64 = 0xfb623599da6e8127;

    #[test]
    fn paper_test_vector_sigma0_r5() {
        let cipher = Qarma64::new(W0, K0, Sigma::Sigma0, 5);
        assert_eq!(cipher.encrypt(PLAINTEXT, TWEAK), 0x3ee99a6c82af0c38);
    }

    #[test]
    fn regression_vector_sigma1_r7() {
        // Computed by this implementation, cross-validated through the
        // published σ0/r=5 vector (which pins the whole data path) and the
        // differential against the cell reference. Guards against
        // regressions.
        let cipher = Qarma64::new(W0, K0, Sigma::Sigma1, 7);
        assert_eq!(cipher.encrypt(PLAINTEXT, TWEAK), 0xedf67ff370a483f2);
    }

    #[test]
    fn regression_vector_sigma2_r7() {
        // Matches the independent public QARMA64 C implementation's r=7
        // check value, cross-validating the non-involutory σ2 path; see
        // tests/reference_vectors.rs for the full pin table.
        let cipher = Qarma64::new(W0, K0, Sigma::Sigma2, 7);
        assert_eq!(cipher.encrypt(PLAINTEXT, TWEAK), 0x5c06a7501b63b2fd);
    }

    #[test]
    fn packed_path_matches_reference_path_on_vectors() {
        for sigma in [Sigma::Sigma0, Sigma::Sigma1, Sigma::Sigma2] {
            for rounds in 1..=8 {
                let cipher = Qarma64::new(W0, K0, sigma, rounds);
                assert_eq!(
                    cipher.encrypt(PLAINTEXT, TWEAK),
                    cipher.encrypt_reference(PLAINTEXT, TWEAK),
                    "encrypt diverged for {sigma} r={rounds}"
                );
            }
        }
    }

    #[test]
    fn swar_path_matches_dispatched_path() {
        // On SIMD-capable hosts `encrypt` takes the vector path, which would
        // leave the portable SWAR fallback untested — pin them against each
        // other explicitly (and against the reference) on every host.
        for sigma in [Sigma::Sigma0, Sigma::Sigma1, Sigma::Sigma2] {
            for rounds in 1..=8 {
                let cipher = Qarma64::new(W0, K0, sigma, rounds);
                for i in 0..16u64 {
                    let p = PLAINTEXT.wrapping_mul(i | 1);
                    let t = TWEAK.wrapping_add(i);
                    assert_eq!(
                        cipher.crypt_packed([p], t, &cipher.schedule),
                        [cipher.encrypt(p, t)],
                        "SWAR diverged for {sigma} r={rounds} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn pair_matches_two_reference_encryptions_on_both_paths() {
        // The dispatched pair (SSSE3 where the CPU has it) and the packed
        // SWAR pair, each against two single-block oracle calls. The second
        // block of a pair includes 0, the pad input of a masked ACS.
        for sigma in [Sigma::Sigma0, Sigma::Sigma1, Sigma::Sigma2] {
            for rounds in 1..=8 {
                let cipher = Qarma64::new(W0, K0, sigma, rounds);
                for i in 0..16u64 {
                    let a = PLAINTEXT.wrapping_mul(i | 1);
                    let b = if i % 4 == 0 { 0 } else { a.rotate_left(17) ^ i };
                    let t = TWEAK.wrapping_add(i);
                    let want = (
                        cipher.encrypt_reference(a, t),
                        cipher.encrypt_reference(b, t),
                    );
                    assert_eq!(
                        cipher.encrypt_pair(a, b, t),
                        want,
                        "dispatched pair diverged for {sigma} r={rounds} i={i}"
                    );
                    assert_eq!(
                        cipher.crypt_packed([a, b], t, &cipher.schedule),
                        [want.0, want.1],
                        "SWAR pair diverged for {sigma} r={rounds} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn different_tweaks_give_different_ciphertexts() {
        let cipher = Qarma64::recommended(Key128::new(W0, K0));
        assert_ne!(cipher.encrypt(PLAINTEXT, 0), cipher.encrypt(PLAINTEXT, 1));
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Qarma64::recommended(Key128::new(W0, K0));
        let b = Qarma64::recommended(Key128::new(W0 ^ 1, K0));
        assert_ne!(a.encrypt(PLAINTEXT, TWEAK), b.encrypt(PLAINTEXT, TWEAK));
    }

    #[test]
    fn equality_and_hash_follow_key_sigma_and_rounds() {
        use std::collections::HashSet;
        let a = Qarma64::new(W0, K0, Sigma::Sigma1, 7);
        let b = Qarma64::recommended(Key128::new(W0, K0));
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert_ne!(a, Qarma64::new(W0, K0, Sigma::Sigma1, 6));
        assert_ne!(a, Qarma64::new(W0, K0, Sigma::Sigma2, 7));
    }

    #[test]
    #[should_panic(expected = "1..=8 forward rounds")]
    fn zero_rounds_panics() {
        let _ = Qarma64::new(W0, K0, Sigma::Sigma1, 0);
    }

    #[test]
    fn recommended_is_sigma1_r7() {
        let cipher = Qarma64::recommended(Key128::new(W0, K0));
        assert_eq!(cipher.sigma(), Sigma::Sigma1);
        assert_eq!(cipher.rounds(), 7);
        assert_eq!(cipher.encrypt(PLAINTEXT, TWEAK), 0xedf67ff370a483f2);
    }
}
