//! The cell-based reference implementation of QARMA-64 — the differential
//! oracle the packed fast path is pinned against.
//!
//! This is the original, paper-shaped data path: the 64-bit state is
//! unpacked into a `[u8; 16]` nibble array for every σ/τ/M layer, and the
//! key schedule (`w1`, per-round tweakeys, the reflector key) is re-derived
//! on every call, exactly as the pre-optimisation implementation did. It is
//! kept as the ground truth for `tests/packed_differential.rs`, the
//! in-crate proptests and the PA unit's differential tests.

use crate::cells::{from_cells, mix_columns, permute, sub_cells, Cells};
use crate::constants::{ALPHA, ROUND_CONSTANTS, TAU, TAU_INV};
use crate::tweak::{backward_update, forward_update};
use crate::{Key128, Sigma};

/// One forward round: add tweakey, then (unless `short`) ShuffleCells and
/// MixColumns, then SubCells.
pub(crate) fn forward(state: u64, tweakey: u64, short: bool, sbox: &[u8; 16]) -> u64 {
    let mut cells = to_cells(state ^ tweakey);
    if !short {
        cells = mix_columns(&permute(&cells, &TAU));
    }
    from_cells(&sub_cells(&cells, sbox))
}

/// One backward round: inverse SubCells, then (unless `short`) inverse
/// MixColumns and inverse ShuffleCells, then add tweakey.
pub(crate) fn backward(state: u64, tweakey: u64, short: bool, sbox_inv: &[u8; 16]) -> u64 {
    let mut cells = sub_cells(&to_cells(state), sbox_inv);
    if !short {
        cells = permute(&mix_columns(&cells), &TAU_INV);
    }
    from_cells(&cells) ^ tweakey
}

/// The central pseudo-reflector: τ, multiply by the involutory Q = M, add
/// the reflector key, τ⁻¹.
pub(crate) fn reflect(state: u64, k1: u64) -> u64 {
    let shuffled = permute(&to_cells(state), &TAU);
    let mut mixed: Cells = mix_columns(&shuffled);
    let key_cells = to_cells(k1);
    for (m, k) in mixed.iter_mut().zip(key_cells.iter()) {
        *m ^= k;
    }
    from_cells(&permute(&mixed, &TAU_INV))
}

fn to_cells(x: u64) -> Cells {
    crate::cells::to_cells(x)
}

/// Encrypts one block through the cell-based reference path — whitened
/// forward rounds, central reflector, backward rounds — re-deriving the
/// whole key schedule per call (the pre-optimisation cost profile).
///
/// # Panics
///
/// Panics if `rounds` is 0 or greater than 8.
///
/// # Examples
///
/// ```
/// use pacstack_qarma::{reference, Key128, Sigma};
///
/// let key = Key128::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9);
/// let c = reference::encrypt(key, Sigma::Sigma0, 5, 0xfb623599da6e8127, 0x477d469dec0b8762);
/// assert_eq!(c, 0x3ee99a6c82af0c38);
/// ```
pub fn encrypt(key: Key128, sigma: Sigma, rounds: usize, plaintext: u64, tweak: u64) -> u64 {
    assert!(
        (1..=ROUND_CONSTANTS.len()).contains(&rounds),
        "QARMA-64 supports 1..=8 forward rounds, got {rounds}"
    );
    let w0 = key.w0();
    let w1 = w0.rotate_right(1) ^ (w0 >> 63);
    let k0 = key.k0();
    let sbox = sigma.table();
    let sbox_inv = sigma.inverse_table();
    let mut state = plaintext ^ w0;
    let mut t = tweak;
    for (i, constant) in ROUND_CONSTANTS.iter().enumerate().take(rounds) {
        state = forward(state, k0 ^ t ^ constant, i == 0, sbox);
        t = forward_update(t);
    }

    state = forward(state, w1 ^ t, false, sbox);
    state = reflect(state, k0);
    state = backward(state, w0 ^ t, false, sbox_inv);

    for i in (0..rounds).rev() {
        t = backward_update(t);
        state = backward(state, k0 ^ t ^ ROUND_CONSTANTS[i] ^ ALPHA, i == 0, sbox_inv);
    }

    state ^ w1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key128 {
        Key128::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9)
    }
    const TWEAK: u64 = 0x477d469dec0b8762;
    const PLAINTEXT: u64 = 0xfb623599da6e8127;

    #[test]
    fn paper_vector_through_the_reference_path() {
        assert_eq!(
            encrypt(key(), Sigma::Sigma0, 5, PLAINTEXT, TWEAK),
            0x3ee99a6c82af0c38
        );
    }

    #[test]
    fn forward_backward_are_inverses() {
        let x = 0xfb623599da6e8127u64;
        let tk = 0x1234_5678_9abc_def0u64;
        let sigma = Sigma::Sigma1;
        for short in [true, false] {
            let y = forward(x, tk, short, sigma.table());
            assert_eq!(
                backward(y, tk, short, sigma.inverse_table()),
                x,
                "short={short}"
            );
        }
    }

    #[test]
    fn reflect_is_involution_with_zero_key() {
        let x = 0xfb623599da6e8127u64;
        let y = reflect(x, 0);
        assert_eq!(reflect(y, 0), x);
    }

    #[test]
    #[should_panic(expected = "1..=8 forward rounds")]
    fn zero_rounds_panics() {
        let _ = encrypt(key(), Sigma::Sigma1, 0, PLAINTEXT, TWEAK);
    }
}
