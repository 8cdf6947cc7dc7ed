//! SIMD fast path (x86-64, SSSE3): the whole cipher on one XMM register,
//! one cell per byte lane.
//!
//! In this layout every QARMA-64 layer degenerates to a handful of vector
//! instructions:
//!
//! * **Cell permutations are one `pshufb`.** τ, τ⁻¹ and the tweak
//!   permutation h each become a single byte shuffle with a constant index
//!   vector.
//! * **SubCells is one `pshufb` too.** Cells hold nibble values, which are
//!   exactly in-range indices into a 16-entry S-box loaded as the shuffle
//!   *table* operand — the substitution of all 16 cells is one instruction.
//! * **MixColumns is two shuffles short of free.** Rotating every cell `k`
//!   rows down its column is `palignr` by `4k` bytes, and the per-cell ρ
//!   rotations are SWAR shifts on the byte lanes; ρ's linearity folds the
//!   two ρ¹ terms of `circ(0, ρ¹, ρ², ρ¹)` into one.
//!
//! The schedule's key material is pre-spread into this lane layout by
//! [`crate::schedule`], so the hot loop only loads and XORs.
//!
//! This module is the one place in the crate that uses `unsafe` (the crate
//! is otherwise `#![deny(unsafe_code)]`): the SSSE3 intrinsics require a
//! `#[target_feature]` context. [`crypt`] asserts runtime SSSE3 support
//! before entering it, and non-x86-64 builds (or CPUs without SSSE3) take
//! the portable SWAR path in [`crate::packed`] instead. Correctness is
//! pinned by the in-module differential tests against the cell-based
//! reference and by the crate-level proptest suite, which exercises
//! whichever path dispatch selects.
#![allow(unsafe_code)]

use crate::constants::{H, LFSR_CELLS, SIGMA0, SIGMA1, SIGMA2, SIGMA2_INV, TAU, TAU_INV};
use crate::schedule::{DirSchedule, Spread};
use crate::Sigma;
use core::arch::x86_64::{
    __m128i, _mm_alignr_epi8, _mm_and_si128, _mm_andnot_si128, _mm_cvtsi128_si64,
    _mm_cvtsi64_si128, _mm_or_si128, _mm_packus_epi16, _mm_set1_epi16, _mm_set1_epi8,
    _mm_set_epi64x, _mm_setzero_si128, _mm_shuffle_epi8, _mm_slli_epi16, _mm_srli_epi16,
    _mm_unpacklo_epi8, _mm_xor_si128,
};

/// A cell permutation as a `pshufb` index pair: lane `d` reads `perm[d]`.
const fn idx_pair(perm: &[usize; 16]) -> Spread {
    let mut halves = [0u64; 2];
    let mut d = 0;
    while d < 16 {
        halves[d / 8] |= (perm[d] as u64) << (8 * (d % 8));
        d += 1;
    }
    halves
}

/// A 16-entry S-box as a `pshufb` table pair: lane `i` holds `sbox[i]`.
const fn sbox_pair(sbox: &[u8; 16]) -> Spread {
    let mut halves = [0u64; 2];
    let mut i = 0;
    while i < 16 {
        halves[i / 8] |= (sbox[i] as u64) << (8 * (i % 8));
        i += 1;
    }
    halves
}

/// Byte-lane mask pair selecting the cells the ω LFSR clocks.
const fn lfsr_lane_pair() -> Spread {
    let mut halves = [0u64; 2];
    let mut i = 0;
    while i < LFSR_CELLS.len() {
        let d = LFSR_CELLS[i];
        halves[d / 8] |= 0xFFu64 << (8 * (d % 8));
        i += 1;
    }
    halves
}

const TAU_IDX: Spread = idx_pair(&TAU);
const TAU_INV_IDX: Spread = idx_pair(&TAU_INV);
const H_IDX: Spread = idx_pair(&H);
const LFSR_LANES: Spread = lfsr_lane_pair();
const SIGMA0_VEC: Spread = sbox_pair(&SIGMA0);
const SIGMA1_VEC: Spread = sbox_pair(&SIGMA1);
const SIGMA2_VEC: Spread = sbox_pair(&SIGMA2);
const SIGMA2_INV_VEC: Spread = sbox_pair(&SIGMA2_INV);

/// Whether the SIMD path can run on this CPU. The detection result is cached
/// by the standard library, so calling this per encryption is cheap.
#[inline]
pub(crate) fn available() -> bool {
    std::arch::is_x86_feature_detected!("ssse3")
}

/// Runs the shared data path (forward rounds, reflector, backward rounds)
/// entirely in SIMD registers, for `N` blocks under one tweak. Same
/// contract as the SWAR `crypt_packed`.
///
/// # Panics
///
/// Panics if the CPU lacks SSSE3 — callers dispatch on [`available`].
#[inline]
pub(crate) fn crypt<const N: usize>(
    blocks: [u64; N],
    tweak: u64,
    ks: &DirSchedule,
    sigma: Sigma,
    rounds: usize,
) -> [u64; N] {
    assert!(available(), "SIMD path entered without SSSE3 support");
    // SAFETY: the assertion above guarantees the ssse3 target feature is
    // present at runtime.
    unsafe { crypt_ssse3(blocks, tweak, ks, sigma, rounds) }
}

#[target_feature(enable = "ssse3")]
fn load(pair: Spread) -> __m128i {
    _mm_set_epi64x(pair[1] as i64, pair[0] as i64)
}

/// Packed `u64` → one cell per byte lane (lane `d` = cell `d`).
#[target_feature(enable = "ssse3")]
fn spread(x: u64) -> __m128i {
    // After a byte swap, little-endian byte j holds cells 2j (high nibble)
    // and 2j+1 (low nibble); splitting the nibbles and interleaving puts
    // every cell in its own lane, in order.
    let v = _mm_cvtsi64_si128(x.swap_bytes() as i64);
    let x0f = _mm_set1_epi8(0x0F);
    let hi = _mm_and_si128(_mm_srli_epi16::<4>(v), x0f);
    let lo = _mm_and_si128(v, x0f);
    _mm_unpacklo_epi8(hi, lo)
}

/// One cell per byte lane → packed `u64` (inverse of [`spread`]).
#[target_feature(enable = "ssse3")]
fn pack(v: __m128i) -> u64 {
    // Each u16 lane is [cell 2j | cell 2j+1 << 8]; fuse the pair back into
    // one byte, compress the eight u16 lanes to eight bytes, byte-swap.
    let even = _mm_and_si128(v, _mm_set1_epi16(0x00FF));
    let fused = _mm_or_si128(_mm_slli_epi16::<4>(even), _mm_srli_epi16::<8>(v));
    let bytes = _mm_packus_epi16(fused, _mm_setzero_si128());
    (_mm_cvtsi128_si64(bytes) as u64).swap_bytes()
}

/// ρ¹ on every lane.
#[target_feature(enable = "ssse3")]
fn rho1(v: __m128i) -> __m128i {
    let x0f = _mm_set1_epi8(0x0F);
    _mm_and_si128(
        _mm_or_si128(_mm_slli_epi16::<1>(v), _mm_srli_epi16::<3>(v)),
        x0f,
    )
}

/// ρ² on every lane.
#[target_feature(enable = "ssse3")]
fn rho2(v: __m128i) -> __m128i {
    let x0f = _mm_set1_epi8(0x0F);
    _mm_and_si128(
        _mm_or_si128(_mm_slli_epi16::<2>(v), _mm_srli_epi16::<2>(v)),
        x0f,
    )
}

/// MixColumns: row-rotations are byte rotations of the whole register
/// (`palignr`), and ρ's GF(2)-linearity folds the two ρ¹ terms together.
#[target_feature(enable = "ssse3")]
fn mix(v: __m128i) -> __m128i {
    let down1 = _mm_alignr_epi8::<4>(v, v);
    let down2 = _mm_alignr_epi8::<8>(v, v);
    let down3 = _mm_alignr_epi8::<12>(v, v);
    _mm_xor_si128(rho1(_mm_xor_si128(down1, down3)), rho2(down2))
}

/// Forward-round linear layer M∘τ.
#[target_feature(enable = "ssse3")]
fn mt(v: __m128i) -> __m128i {
    mix(_mm_shuffle_epi8(v, load(TAU_IDX)))
}

/// Backward-round linear layer τ⁻¹∘M.
#[target_feature(enable = "ssse3")]
fn tinv_m(v: __m128i) -> __m128i {
    _mm_shuffle_epi8(mix(v), load(TAU_INV_IDX))
}

/// One forward tweak update: permute by h, clock ω on the LFSR cells.
#[target_feature(enable = "ssse3")]
fn tweak_fwd(t: __m128i) -> __m128i {
    let p = _mm_shuffle_epi8(t, load(H_IDX));
    let x01 = _mm_set1_epi8(0x01);
    let shifted = _mm_srli_epi16::<1>(p);
    let b0 = _mm_and_si128(p, x01);
    let b1 = _mm_and_si128(shifted, x01);
    let top = _mm_slli_epi16::<3>(_mm_xor_si128(b0, b1));
    let low3 = _mm_and_si128(shifted, _mm_set1_epi8(0x07));
    let clocked = _mm_or_si128(top, low3);
    let mask = load(LFSR_LANES);
    _mm_or_si128(_mm_and_si128(clocked, mask), _mm_andnot_si128(mask, p))
}

/// The σ (and σ⁻¹) shuffle tables for a given S-box choice.
fn sbox_vecs(sigma: Sigma) -> (Spread, Spread) {
    match sigma {
        Sigma::Sigma0 => (SIGMA0_VEC, SIGMA0_VEC),
        Sigma::Sigma1 => (SIGMA1_VEC, SIGMA1_VEC),
        Sigma::Sigma2 => (SIGMA2_VEC, SIGMA2_INV_VEC),
    }
}

/// The cipher core over `N` states, one XMM register each. Every round is
/// applied to all `N` states before the next round starts, so for `N > 1`
/// their independent dependency chains interleave in the pipeline.
#[target_feature(enable = "ssse3")]
fn crypt_ssse3<const N: usize>(
    blocks: [u64; N],
    tweak: u64,
    ks: &DirSchedule,
    sigma: Sigma,
    rounds: usize,
) -> [u64; N] {
    let (sb_pair, sb_inv_pair) = sbox_vecs(sigma);
    let sb = load(sb_pair);
    let sb_inv = load(sb_inv_pair);
    let r = rounds;

    let mut ts = [_mm_setzero_si128(); 9];
    ts[0] = spread(tweak);
    for i in 1..=r {
        ts[i] = tweak_fwd(ts[i - 1]);
    }

    let xor3 = |a: __m128i, b: Spread, c: __m128i| _mm_xor_si128(_mm_xor_si128(a, load(b)), c);
    let sub = |v: __m128i, table: __m128i| _mm_shuffle_epi8(table, v);

    let mut state = blocks.map(|block| spread(block ^ ks.w_in));
    // Round 0 is the short round: no ShuffleCells/MixColumns.
    for s in &mut state {
        *s = sub(xor3(*s, ks.fwd_key_spread[0], ts[0]), sb);
    }
    for (&k, &t) in ks.fwd_key_spread[1..r].iter().zip(&ts[1..r]) {
        for s in &mut state {
            *s = sub(mt(xor3(*s, k, t)), sb);
        }
    }

    let t_mid = ts[r];
    for s in &mut state {
        *s = sub(mt(xor3(*s, ks.w_out_spread, t_mid)), sb);
        *s = _mm_xor_si128(
            _mm_shuffle_epi8(mix(_mm_shuffle_epi8(*s, load(TAU_IDX))), load(TAU_INV_IDX)),
            load(ks.reflect_key_spread),
        );
        *s = xor3(tinv_m(sub(*s, sb_inv)), ks.w_in_spread, t_mid);
    }

    for i in (1..r).rev() {
        for s in &mut state {
            *s = xor3(tinv_m(sub(*s, sb_inv)), ks.bwd_key_spread[i], ts[i]);
        }
    }
    for s in &mut state {
        *s = xor3(sub(*s, sb_inv), ks.bwd_key_spread[0], ts[0]);
    }

    state.map(|s| pack(s) ^ ks.w_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{spread_cells, DirSchedule};
    use crate::{reference, Key128};

    fn samples() -> impl Iterator<Item = u64> {
        (0..64)
            .map(|b| 1u64 << b)
            .chain([0, u64::MAX, 0x0123_4567_89ab_cdef, 0xfb62_3599_da6e_8127])
            .chain((0..64).map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1)))
    }

    #[test]
    fn spread_and_pack_round_trip() {
        if !available() {
            return;
        }
        for x in samples() {
            let s = spread_cells(x);
            // SAFETY: guarded by available() above.
            let (rt, direct) = unsafe { (pack(spread(x)), pack(load(s))) };
            assert_eq!(rt, x, "x = {x:#018x}");
            assert_eq!(direct, x, "scalar spread diverged for x = {x:#018x}");
        }
    }

    #[test]
    fn simd_crypt_matches_the_cell_reference() {
        if !available() {
            return;
        }
        let key = Key128::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9);
        let (enc, dec) = (DirSchedule::encrypt(key), DirSchedule::decrypt(key));
        for sigma in [Sigma::Sigma0, Sigma::Sigma1, Sigma::Sigma2] {
            for rounds in 1..=8 {
                for (i, x) in samples().enumerate() {
                    let tweak = (i as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                    assert_eq!(
                        crypt([x], tweak, &enc, sigma, rounds),
                        [reference::encrypt(key, sigma, rounds, x, tweak)],
                        "encrypt diverged for {sigma} r={rounds} x={x:#018x}"
                    );
                    assert_eq!(
                        crypt([x], tweak, &dec, sigma, rounds),
                        [reference::decrypt(key, sigma, rounds, x, tweak)],
                        "decrypt diverged for {sigma} r={rounds} x={x:#018x}"
                    );
                }
            }
        }
    }

    #[test]
    fn simd_pair_matches_two_reference_encryptions() {
        if !available() {
            return;
        }
        let key = Key128::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9);
        let enc = DirSchedule::encrypt(key);
        for sigma in [Sigma::Sigma0, Sigma::Sigma1, Sigma::Sigma2] {
            for rounds in 1..=8 {
                for (i, x) in samples().enumerate() {
                    let tweak = (i as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                    let y = if i % 4 == 0 { 0 } else { x.rotate_left(23) };
                    assert_eq!(
                        crypt([x, y], tweak, &enc, sigma, rounds),
                        [
                            reference::encrypt(key, sigma, rounds, x, tweak),
                            reference::encrypt(key, sigma, rounds, y, tweak),
                        ],
                        "pair diverged for {sigma} r={rounds} x={x:#018x} y={y:#018x}"
                    );
                }
            }
        }
    }
}
