//! Differential suite pinning the packed-nibble fast path against the
//! cell-based reference oracle: random keys/tweaks/plaintexts across all
//! S-box variants and every supported round count, plus the published
//! vectors pushed through the fast path explicitly.

use pacstack_qarma::{reference, Key128, Qarma64, Sigma};
use proptest::prelude::*;

fn arb_sigma() -> impl Strategy<Value = Sigma> {
    prop_oneof![
        Just(Sigma::Sigma0),
        Just(Sigma::Sigma1),
        Just(Sigma::Sigma2)
    ]
}

proptest! {
    #[test]
    fn packed_encrypt_matches_reference(
        w0 in any::<u64>(),
        k0 in any::<u64>(),
        tweak in any::<u64>(),
        plaintext in any::<u64>(),
        sigma in arb_sigma(),
        rounds in 1usize..=8,
    ) {
        let cipher = Qarma64::new(w0, k0, sigma, rounds);
        prop_assert_eq!(
            cipher.encrypt(plaintext, tweak),
            cipher.encrypt_reference(plaintext, tweak),
            "fast path diverged from the oracle ({} r={})", sigma, rounds
        );
    }

    #[test]
    fn encrypt_pair_matches_two_reference_encryptions(
        w0 in any::<u64>(),
        k0 in any::<u64>(),
        tweak in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
        sigma in arb_sigma(),
        rounds in 1usize..=8,
    ) {
        let cipher = Qarma64::new(w0, k0, sigma, rounds);
        prop_assert_eq!(
            cipher.encrypt_pair(a, b, tweak),
            (cipher.encrypt_reference(a, tweak), cipher.encrypt_reference(b, tweak)),
            "pair diverged from the oracle ({} r={})", sigma, rounds
        );
    }

    #[test]
    fn free_function_oracle_matches_method_oracle(
        w0 in any::<u64>(),
        k0 in any::<u64>(),
        tweak in any::<u64>(),
        plaintext in any::<u64>(),
        sigma in arb_sigma(),
        rounds in 1usize..=8,
    ) {
        let key = Key128::new(w0, k0);
        let cipher = Qarma64::with_key(key, sigma, rounds);
        prop_assert_eq!(
            reference::encrypt(key, sigma, rounds, plaintext, tweak),
            cipher.encrypt_reference(plaintext, tweak)
        );
    }
}

// The published pins, through the *fast* path (the in-crate unit tests and
// tests/reference_vectors.rs keep pinning the oracle independently).

const W0: u64 = 0x84be85ce9804e94b;
const K0: u64 = 0xec2802d4e0a488e9;
const TWEAK: u64 = 0x477d469dec0b8762;
const PLAINTEXT: u64 = 0xfb623599da6e8127;

#[test]
fn published_sigma0_r5_vector_through_fast_path() {
    let cipher = Qarma64::new(W0, K0, Sigma::Sigma0, 5);
    assert_eq!(cipher.encrypt(PLAINTEXT, TWEAK), 0x3ee99a6c82af0c38);
}

#[test]
fn pinned_sigma1_r7_vector_through_fast_path() {
    let cipher = Qarma64::new(W0, K0, Sigma::Sigma1, 7);
    assert_eq!(cipher.encrypt(PLAINTEXT, TWEAK), 0xedf67ff370a483f2);
}

#[test]
fn pinned_sigma2_r7_vector_through_fast_path() {
    let cipher = Qarma64::new(W0, K0, Sigma::Sigma2, 7);
    assert_eq!(cipher.encrypt(PLAINTEXT, TWEAK), 0x5c06a7501b63b2fd);
}
