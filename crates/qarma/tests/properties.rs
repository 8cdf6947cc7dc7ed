//! Property-based tests for the QARMA-64 cipher.

use pacstack_qarma::{Key128, Qarma64};
use proptest::prelude::*;

proptest! {
    #[test]
    fn encryption_is_injective_in_plaintext(
        key in any::<(u64, u64)>(),
        tweak in any::<u64>(),
        p1 in any::<u64>(),
        p2 in any::<u64>(),
    ) {
        prop_assume!(p1 != p2);
        let cipher = Qarma64::recommended(Key128::new(key.0, key.1));
        prop_assert_ne!(cipher.encrypt(p1, tweak), cipher.encrypt(p2, tweak));
    }

    #[test]
    fn single_bit_flip_avalanches(
        key in any::<(u64, u64)>(),
        tweak in any::<u64>(),
        plaintext in any::<u64>(),
        bit in 0u32..64,
    ) {
        let cipher = Qarma64::recommended(Key128::new(key.0, key.1));
        let c1 = cipher.encrypt(plaintext, tweak);
        let c2 = cipher.encrypt(plaintext ^ (1u64 << bit), tweak);
        // A good cipher flips close to half the output bits; we only require
        // a loose sanity band (catching e.g. a dropped diffusion layer).
        let flipped = (c1 ^ c2).count_ones();
        prop_assert!((10..=54).contains(&flipped), "only {flipped} bits flipped");
    }

    #[test]
    fn tweak_bit_flip_avalanches(
        key in any::<(u64, u64)>(),
        tweak in any::<u64>(),
        plaintext in any::<u64>(),
        bit in 0u32..64,
    ) {
        let cipher = Qarma64::recommended(Key128::new(key.0, key.1));
        let c1 = cipher.encrypt(plaintext, tweak);
        let c2 = cipher.encrypt(plaintext, tweak ^ (1u64 << bit));
        let flipped = (c1 ^ c2).count_ones();
        prop_assert!((10..=54).contains(&flipped), "only {flipped} bits flipped");
    }

    #[test]
    fn key_halves_both_matter(
        w0 in any::<u64>(),
        k0 in any::<u64>(),
        tweak in any::<u64>(),
        plaintext in any::<u64>(),
    ) {
        let base = Qarma64::recommended(Key128::new(w0, k0));
        let flip_w = Qarma64::recommended(Key128::new(w0 ^ 1, k0));
        let flip_k = Qarma64::recommended(Key128::new(w0, k0 ^ 1));
        let c = base.encrypt(plaintext, tweak);
        prop_assert_ne!(c, flip_w.encrypt(plaintext, tweak));
        prop_assert_ne!(c, flip_k.encrypt(plaintext, tweak));
    }
}
