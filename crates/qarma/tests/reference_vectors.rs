//! Reference-vector pins for QARMA-64 across S-box variants and round counts.
//!
//! All vectors share the key/tweak/plaintext from the QARMA paper's test
//! vector appendix (Avanzi, "The QARMA Block Cipher Family", 2017):
//!
//! ```text
//! w0 = 84be85ce9804e94b   k0 = ec2802d4e0a488e9
//! T  = 477d469dec0b8762   P  = fb623599da6e8127
//! ```
//!
//! The paper lists one ciphertext per round count r ∈ {5, 6, 7}. Although the
//! surrounding text associates σ0/σ1/σ2 with r = 5/6/7 respectively, all
//! three published ciphertexts were generated with σ0 — a well-known quirk of
//! the paper's appendix, reproduced by independent implementations. This
//! implementation matches all three, which pins the whole data path
//! (ShuffleCells, MixColumns, the tweak schedule and the round constants
//! c5/c6 that r = 5 alone never exercises).
//!
//! The σ2 column is pinned against an independent public C implementation
//! (the `QARMA64` reference code widely used for ARM PAC modelling), whose
//! three check values at r = 5/6/7 this implementation reproduces exactly —
//! cross-validating the non-involutory σ2 inverse-S-box path. σ1 has no
//! published ciphertexts; those pins are self-computed regression vectors,
//! trusted transitively through the σ0/σ2 agreement, which pins the data
//! path that σ1 shares, and the differential against the cell-based
//! reference (see `packed_differential.rs`).

use pacstack_qarma::{Qarma64, Sigma};

const W0: u64 = 0x84be85ce9804e94b;
const K0: u64 = 0xec2802d4e0a488e9;
const TWEAK: u64 = 0x477d469dec0b8762;
const PLAINTEXT: u64 = 0xfb623599da6e8127;

/// `(sigma, rounds, ciphertext, provenance)` for every pinned vector.
const VECTORS: &[(Sigma, usize, u64, &str)] = &[
    // Published in the QARMA paper's appendix (all generated with σ0).
    (Sigma::Sigma0, 5, 0x3ee99a6c82af0c38, "paper, r=5"),
    (Sigma::Sigma0, 6, 0x9f5c41ec525603c9, "paper, r=6"),
    (Sigma::Sigma0, 7, 0xbcaf6c89de930765, "paper, r=7"),
    // Cross-validated against the independent QARMA64 C implementation.
    (
        Sigma::Sigma2,
        5,
        0xc003b93999b33765,
        "independent C impl, r=5",
    ),
    (
        Sigma::Sigma2,
        6,
        0x270a787275c48d10,
        "independent C impl, r=6",
    ),
    (
        Sigma::Sigma2,
        7,
        0x5c06a7501b63b2fd,
        "independent C impl, r=7",
    ),
    // Self-computed σ1 regression pins (no published ciphertexts exist).
    (Sigma::Sigma1, 5, 0x544b0ab95bda7c3a, "regression, r=5"),
    (Sigma::Sigma1, 6, 0xa512dd1e4e3ec582, "regression, r=6"),
    (Sigma::Sigma1, 7, 0xedf67ff370a483f2, "regression, r=7"),
];

#[test]
fn every_pinned_vector_encrypts_correctly() {
    for &(sigma, rounds, ciphertext, provenance) in VECTORS {
        let cipher = Qarma64::new(W0, K0, sigma, rounds);
        assert_eq!(
            cipher.encrypt(PLAINTEXT, TWEAK),
            ciphertext,
            "{sigma} r={rounds} ({provenance})"
        );
    }
}

#[test]
fn pinned_ciphertexts_are_pairwise_distinct() {
    // Nine (sigma, rounds) instances over one plaintext must give nine
    // distinct ciphertexts — a duplicated pin would mean a copy-paste error
    // in the table above or a degenerate parameterisation in the cipher.
    for (i, a) in VECTORS.iter().enumerate() {
        for b in &VECTORS[i + 1..] {
            assert_ne!(
                a.2, b.2,
                "{} r={} collides with {} r={}",
                a.0, a.1, b.0, b.1
            );
        }
    }
}
