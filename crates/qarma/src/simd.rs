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
//! The four schedule words are spread into this lane layout on entry (a
//! handful of instructions each, off the state's dependency chain), and a
//! round tweakey is `spread(k) ⊕ spread(c_i) ⊕ t_i` forward and
//! `spread(k) ⊕ spread(c_i ⊕ α) ⊕ t_i` backward: the spread is linear over
//! XOR, so the constants' spreads are two compile-time tables. The
//! tweakeys are formed in the tweak-schedule loop and kept in arrays, so
//! each round adds one ready vector to the state; written inline as one
//! XOR expression, LLVM re-associates the state into it and puts three
//! XORs per round on the chain.
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

use crate::constants::{
    ALPHA, H, LFSR_CELLS, ROUND_CONSTANTS, SIGMA0, SIGMA1, SIGMA2, SIGMA2_INV, TAU, TAU_INV,
};
use crate::schedule::DirSchedule;
use crate::Sigma;
use core::arch::x86_64::{
    __m128i, _mm_alignr_epi8, _mm_and_si128, _mm_andnot_si128, _mm_cvtsi128_si64,
    _mm_cvtsi64_si128, _mm_or_si128, _mm_packus_epi16, _mm_set1_epi16, _mm_set1_epi8,
    _mm_set_epi64x, _mm_setzero_si128, _mm_shuffle_epi8, _mm_slli_epi16, _mm_srli_epi16,
    _mm_unpacklo_epi8, _mm_xor_si128,
};

/// A 16-byte vector as two little-endian `u64` halves (lane `d` is byte
/// `d % 8` of half `d / 8`): the compile-time form of an XMM constant.
type Spread = [u64; 2];

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

/// Packed `u64` → one cell per byte lane, at compile time: each 32-bit
/// half's eight nibbles move to eight bytes (least-significant nibble to
/// byte 0), and a byte swap puts the most-significant cell in lane 0.
const fn spread_const(x: u64) -> Spread {
    const fn half(y: u64) -> u64 {
        let y = (y | (y << 16)) & 0x0000_FFFF_0000_FFFF;
        let y = (y | (y << 8)) & 0x00FF_00FF_00FF_00FF;
        let y = (y | (y << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
        y.swap_bytes()
    }
    [half(x >> 32), half(x & 0xFFFF_FFFF)]
}

/// `spread(c_i)` for every round constant: the forward tweakey tables.
const FWD_CONSTANTS: [Spread; 8] = constant_spreads(0);
/// `spread(c_i ⊕ α)` for every round constant: the backward tweakey tables.
const BWD_CONSTANTS: [Spread; 8] = constant_spreads(ALPHA);

const fn constant_spreads(fold: u64) -> [Spread; 8] {
    let mut out = [[0; 2]; 8];
    let mut i = 0;
    while i < 8 {
        out[i] = spread_const(ROUND_CONSTANTS[i] ^ fold);
        i += 1;
    }
    out
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

    let xor = |a: __m128i, b: __m128i| _mm_xor_si128(a, b);
    let sub = |v: __m128i, table: __m128i| _mm_shuffle_epi8(table, v);
    // Every round's tweakey, formed beside the tweak schedule and off the
    // state's dependency chain: each round below adds one ready vector.
    let k = spread(ks.k);
    let mut fwd = [_mm_setzero_si128(); 8];
    let mut bwd = [_mm_setzero_si128(); 8];
    let mut t = spread(tweak);
    for i in 0..r {
        fwd[i] = xor(k, xor(load(FWD_CONSTANTS[i]), t));
        bwd[i] = xor(k, xor(load(BWD_CONSTANTS[i]), t));
        t = tweak_fwd(t);
    }
    let t_mid = t;

    let mut state = blocks.map(|block| spread(block ^ ks.w_in));
    // Round 0 is the short round: no ShuffleCells/MixColumns.
    for s in &mut state {
        *s = sub(xor(*s, fwd[0]), sb);
    }
    for &tk in &fwd[1..r] {
        for s in &mut state {
            *s = sub(mt(xor(*s, tk)), sb);
        }
    }

    let tk_out = xor(spread(ks.w_out), t_mid);
    let tk_in = xor(spread(ks.w_in), t_mid);
    let reflect_key = spread(ks.reflect_key);
    for s in &mut state {
        *s = sub(mt(xor(*s, tk_out)), sb);
        *s = xor(
            _mm_shuffle_epi8(mix(_mm_shuffle_epi8(*s, load(TAU_IDX))), load(TAU_INV_IDX)),
            reflect_key,
        );
        *s = xor(tinv_m(sub(*s, sb_inv)), tk_in);
    }

    for &tk in bwd[1..r].iter().rev() {
        for s in &mut state {
            *s = xor(tinv_m(sub(*s, sb_inv)), tk);
        }
    }
    state.map(|s| pack(xor(sub(s, sb_inv), bwd[0])) ^ ks.w_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::DirSchedule;
    use crate::{reference, Key128};

    /// The per-cell spread: lane `d` takes cell `d`, one nibble at a time.
    fn spread_cells(x: u64) -> Spread {
        let mut halves = [0u64; 2];
        for d in 0..16 {
            halves[d / 8] |= ((x >> (60 - 4 * d)) & 0xF) << (8 * (d % 8));
        }
        halves
    }

    /// A vector's two little-endian halves.
    fn halves(v: __m128i) -> Spread {
        // SAFETY: `__m128i` and `[u64; 2]` are both 16 plain bytes.
        unsafe { core::mem::transmute::<__m128i, Spread>(v) }
    }

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
            assert_eq!(
                spread_const(x),
                s,
                "const spread diverged for x = {x:#018x}"
            );
        }
    }

    #[test]
    fn constant_tables_are_the_spread_round_constants() {
        for (i, &c) in ROUND_CONSTANTS.iter().enumerate() {
            assert_eq!(FWD_CONSTANTS[i], spread_cells(c), "c_{i}");
            assert_eq!(BWD_CONSTANTS[i], spread_cells(c ^ ALPHA), "c_{i} ^ alpha");
            if available() {
                // SAFETY: guarded by available() above.
                let (fwd, bwd) = unsafe { (halves(spread(c)), halves(spread(c ^ ALPHA))) };
                assert_eq!((FWD_CONSTANTS[i], BWD_CONSTANTS[i]), (fwd, bwd), "c_{i}");
            }
        }
    }

    #[test]
    fn simd_crypt_matches_the_cell_reference() {
        if !available() {
            return;
        }
        let key = Key128::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9);
        let enc = DirSchedule::encrypt(key);
        for sigma in [Sigma::Sigma0, Sigma::Sigma1, Sigma::Sigma2] {
            for rounds in 1..=8 {
                for (i, x) in samples().enumerate() {
                    let tweak = (i as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                    assert_eq!(
                        crypt([x], tweak, &enc, sigma, rounds),
                        [reference::encrypt(key, sigma, rounds, x, tweak)],
                        "encrypt diverged for {sigma} r={rounds} x={x:#018x}"
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
