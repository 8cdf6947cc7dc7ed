//! Packed-nibble fast path: every QARMA-64 layer computed directly on the
//! packed 64-bit state with SWAR bit-twiddling, never materialising the
//! `[u8; 16]` cell array.
//!
//! Two observations make this work:
//!
//! * **Cell permutations are rotation sums.** A nibble permutation moves
//!   cell `perm[d]` to cell `d`; in the packed big-endian layout that is a
//!   rotation of the whole word by `4·(perm[d] − d)` bits. Grouping
//!   destinations by rotation distance turns τ, τ⁻¹ and the tweak
//!   permutation h into ~10 `rotate ∧ mask` terms ORed together — pure ALU
//!   work, no tables (an earlier table-driven variant at 16 KiB per layer
//!   won microbenchmarks but lost end-to-end: real workloads evicted the
//!   tables between PAC computations).
//! * **MixColumns is row rotation.** With cells packed row-major, moving
//!   every cell down one row *within its column* is `rotate_left(16)` on the
//!   whole word, and `circ(0, ρ¹, ρ², ρ¹)` becomes three word rotations,
//!   each followed by a SWAR per-nibble rotate: ~12 ALU operations for the
//!   entire matrix.
//!
//! The ω LFSR clocks all 16 nibbles SWAR-style and keeps only the seven
//! cells the schedule actually clocks. SubCells is nibble-wise but
//! byte-local, so it stays a single 256-byte lane table — small enough to
//! live permanently in cache. Everything is built at compile time from the
//! same published constants as the cell-based reference; the differential
//! suite in `tests/packed_differential.rs` pins the two paths against each
//! other.

#[cfg(test)]
use crate::constants::H_INV;
use crate::constants::{H, LFSR_CELLS, SIGMA0, SIGMA1, SIGMA2, SIGMA2_INV, TAU, TAU_INV};

// ---- nibble permutations as rotation masks ----

/// Compiles a cell permutation (`out[d] = in[perm[d]]`) into 16 masks, one
/// per possible word-rotation distance: `masks[r]` selects the destination
/// nibbles whose source sits `4·r` bits to the right (cyclically). Applying
/// the permutation is then `⋁ᵣ rotate_left(x, 4r) ∧ masks[r]`; the loop in
/// [`apply_perm`] unrolls and the all-zero masks vanish at compile time.
const fn perm_rot_masks(perm: &[usize; 16]) -> [u64; 16] {
    let mut masks = [0u64; 16];
    let mut d = 0;
    while d < 16 {
        let rot = (16 + perm[d] - d) % 16;
        masks[rot] |= 0xFu64 << (4 * (15 - d));
        d += 1;
    }
    masks
}

/// τ (the MIDORI ShuffleCells) as rotation masks.
const TAU_MASKS: [u64; 16] = perm_rot_masks(&TAU);
/// τ⁻¹ as rotation masks.
const TAU_INV_MASKS: [u64; 16] = perm_rot_masks(&TAU_INV);
/// The tweak permutation h as rotation masks.
const H_MASKS: [u64; 16] = perm_rot_masks(&H);
/// h⁻¹ as rotation masks (test-only; see [`tweak_bwd`]).
#[cfg(test)]
const H_INV_MASKS: [u64; 16] = perm_rot_masks(&H_INV);

#[inline(always)]
fn apply_perm(masks: &[u64; 16], x: u64) -> u64 {
    let mut out = 0u64;
    let mut r = 0;
    while r < 16 {
        out |= x.rotate_left((4 * r) as u32) & masks[r];
        r += 1;
    }
    out
}

// ---- MixColumns ----

/// Every-nibble masks for the SWAR rotates: `N1 * k` repeats the nibble `k`
/// in all 16 lanes.
const N1: u64 = 0x1111_1111_1111_1111;
const N3: u64 = N1 * 0x7; // low three bits of every nibble
const NE: u64 = N1 * 0xE; // high three bits of every nibble

/// ρ¹ on every nibble simultaneously.
#[inline(always)]
fn rho1(x: u64) -> u64 {
    ((x << 1) & NE) | ((x >> 3) & N1)
}

/// ρ² on every nibble simultaneously.
#[inline(always)]
fn rho2(x: u64) -> u64 {
    ((x << 2) & (N1 * 0xC)) | ((x >> 2) & (N1 * 0x3))
}

/// The involutory MixColumns `M = circ(0, ρ¹, ρ², ρ¹)`.
///
/// Cells are packed row-major, so `rotate_left(16·k)` places the cell `k`
/// rows below (same column, wrapping) at every position — the circulant
/// reduces to three word rotations and three SWAR nibble-rotates.
#[inline(always)]
fn mix_swar(x: u64) -> u64 {
    rho1(x.rotate_left(16)) ^ rho2(x.rotate_left(32)) ^ rho1(x.rotate_left(48))
}

// ---- the fused linear layers the cipher consumes ----

/// Forward-round linear layer: M∘τ, applied to `state ⊕ tweakey`.
#[inline(always)]
pub(crate) fn mt(x: u64) -> u64 {
    mix_swar(apply_perm(&TAU_MASKS, x))
}

/// Backward-round linear layer: τ⁻¹∘M, applied after inverse SubCells.
#[inline(always)]
pub(crate) fn tinv_m(x: u64) -> u64 {
    tau_inv(mix_swar(x))
}

/// τ⁻¹ alone: the key schedule's reflector-key permutation.
#[inline(always)]
pub(crate) fn tau_inv(x: u64) -> u64 {
    apply_perm(&TAU_INV_MASKS, x)
}

/// The fused reflector centre τ⁻¹∘M∘τ (the key addition commutes out:
/// `τ⁻¹(M(τ(s)) ⊕ k) = τ⁻¹(M(τ(s))) ⊕ τ⁻¹(k)`, so the schedule stores the
/// τ⁻¹-permuted reflector key instead).
#[inline(always)]
pub(crate) fn reflector(x: u64) -> u64 {
    tau_inv(mix_swar(apply_perm(&TAU_MASKS, x)))
}

// ---- tweak schedule ----

/// Mask selecting the seven cells the ω LFSR clocks.
const fn lfsr_cell_mask() -> u64 {
    let mut mask = 0u64;
    let mut i = 0;
    while i < LFSR_CELLS.len() {
        mask |= 0xFu64 << (4 * (15 - LFSR_CELLS[i]));
        i += 1;
    }
    mask
}

const LFSR_MASK: u64 = lfsr_cell_mask();

/// One forward tweak update: permute by h, then clock
/// `ω(b3b2b1b0) = (b0⊕b1, b3, b2, b1)` on the LFSR cells. The LFSR runs
/// SWAR on all 16 nibbles and the mask keeps only the seven real ones.
#[inline(always)]
pub(crate) fn tweak_fwd(x: u64) -> u64 {
    let p = apply_perm(&H_MASKS, x);
    let b0 = p & N1;
    let b1 = (p >> 1) & N1;
    let clocked = ((b0 ^ b1) << 3) | ((p >> 1) & N3);
    (clocked & LFSR_MASK) | (p & !LFSR_MASK)
}

/// One backward tweak update (inverse of [`tweak_fwd`]). The hot path never
/// consumes it — backward rounds replay the forward tweak sequence in
/// reverse — but the inversion invariant is still worth pinning in tests.
#[cfg(test)]
pub(crate) fn tweak_bwd(x: u64) -> u64 {
    // ω⁻¹(y3y2y1y0) = (y2, y1, y0, y3⊕y0): the low three output bits are the
    // high three input bits, and b0 = y3 ⊕ y0.
    let y0 = x & N1;
    let y3 = (x >> 3) & N1;
    let unclocked = ((x << 1) & NE) | (y3 ^ y0);
    let cells = (unclocked & LFSR_MASK) | (x & !LFSR_MASK);
    apply_perm(&H_INV_MASKS, cells)
}

// ---- SubCells ----

/// Lifts a 16-entry nibble S-box to a 256-entry byte table (both nibbles of
/// the byte substituted independently).
const fn sbox_bytes(sbox: &[u8; 16]) -> [u8; 256] {
    let mut tab = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        tab[b] = (sbox[b >> 4] << 4) | sbox[b & 0xF];
        b += 1;
    }
    tab
}

/// σ0 lifted to bytes (an involution).
pub(crate) static SIGMA0_BYTES: [u8; 256] = sbox_bytes(&SIGMA0);
/// σ1 lifted to bytes (an involution).
pub(crate) static SIGMA1_BYTES: [u8; 256] = sbox_bytes(&SIGMA1);
/// σ2 lifted to bytes.
pub(crate) static SIGMA2_BYTES: [u8; 256] = sbox_bytes(&SIGMA2);
/// σ2⁻¹ lifted to bytes.
pub(crate) static SIGMA2_INV_BYTES: [u8; 256] = sbox_bytes(&SIGMA2_INV);

/// Applies a byte-lifted S-box to every lane of the packed state.
#[inline(always)]
pub(crate) fn sub_bytes(x: u64, sbox: &[u8; 256]) -> u64 {
    let b = x.to_le_bytes();
    u64::from_le_bytes([
        sbox[b[0] as usize],
        sbox[b[1] as usize],
        sbox[b[2] as usize],
        sbox[b[3] as usize],
        sbox[b[4] as usize],
        sbox[b[5] as usize],
        sbox[b[6] as usize],
        sbox[b[7] as usize],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{from_cells, mix_columns, permute, sub_cells, to_cells};
    use crate::tweak::{backward_update, forward_update};

    /// A spread of packed states touching every lane and nibble pattern.
    fn samples() -> impl Iterator<Item = u64> {
        (0..64)
            .map(|b| 1u64 << b)
            .chain([
                0,
                u64::MAX,
                0x0123_4567_89ab_cdef,
                0xfb62_3599_da6e_8127,
                0x477d_469d_ec0b_8762,
                0xdead_beef_f00d_cafe,
            ])
            .chain((0..256).map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1)))
    }

    #[test]
    fn perm_masks_implement_the_permutations() {
        for x in samples() {
            for (masks, perm) in [
                (&TAU_MASKS, &TAU),
                (&TAU_INV_MASKS, &TAU_INV),
                (&H_MASKS, &H),
                (&H_INV_MASKS, &H_INV),
            ] {
                let expect = from_cells(&permute(&to_cells(x), perm));
                assert_eq!(apply_perm(masks, x), expect, "x = {x:#018x}");
            }
        }
    }

    #[test]
    fn mix_swar_matches_cell_reference() {
        for x in samples() {
            let expect = from_cells(&mix_columns(&to_cells(x)));
            assert_eq!(mix_swar(x), expect, "x = {x:#018x}");
            // M is an involution.
            assert_eq!(mix_swar(mix_swar(x)), x, "x = {x:#018x}");
        }
    }

    #[test]
    fn mt_matches_cell_reference() {
        for x in samples() {
            let expect = from_cells(&mix_columns(&permute(&to_cells(x), &TAU)));
            assert_eq!(mt(x), expect, "x = {x:#018x}");
        }
    }

    #[test]
    fn tinv_m_matches_cell_reference() {
        for x in samples() {
            let expect = from_cells(&permute(&mix_columns(&to_cells(x)), &TAU_INV));
            assert_eq!(tinv_m(x), expect, "x = {x:#018x}");
        }
    }

    #[test]
    fn reflector_matches_cell_reference() {
        for x in samples() {
            let expect = from_cells(&permute(
                &mix_columns(&permute(&to_cells(x), &TAU)),
                &TAU_INV,
            ));
            assert_eq!(reflector(x), expect, "x = {x:#018x}");
        }
    }

    #[test]
    fn tweak_updates_match_tweak_schedule() {
        for x in samples() {
            assert_eq!(tweak_fwd(x), forward_update(x), "x = {x:#018x}");
            assert_eq!(tweak_bwd(x), backward_update(x), "x = {x:#018x}");
            assert_eq!(tweak_bwd(tweak_fwd(x)), x);
        }
    }

    #[test]
    fn byte_sboxes_match_nibble_sboxes() {
        for (bytes, nibbles) in [
            (&SIGMA0_BYTES, &SIGMA0),
            (&SIGMA1_BYTES, &SIGMA1),
            (&SIGMA2_BYTES, &SIGMA2),
            (&SIGMA2_INV_BYTES, &SIGMA2_INV),
        ] {
            for x in samples() {
                let expect = from_cells(&sub_cells(&to_cells(x), nibbles));
                assert_eq!(sub_bytes(x, bytes), expect, "x = {x:#018x}");
            }
        }
    }
}
