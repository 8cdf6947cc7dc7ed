//! SIMD fast path (x86-64, SSSE3): the whole cipher on one XMM register,
//! one cell per byte lane.
//!
//! A cell permutation is one `pshufb` with a constant index vector, and a
//! map applied to every cell is one `pshufb` into a 16-entry table (cells
//! hold nibbles, which are in-range indices). MixColumns `circ(0, ρ¹, ρ²,
//! ρ¹)` makes row `r` of `M(x)` ρ¹ of row `r + 1` ⊕ ρ² of row `r + 2` ⊕ ρ¹
//! of row `r + 3`, and ρ acts cell by cell, so it commutes with every cell
//! permutation and folds into the S-box table. With the state held
//! *before* its S-box, a forward round is `y ↦ P₁a ⊕ P₃a ⊕ P₂b ⊕ M∘τ(tkᵢ)`:
//! `a = ρ¹∘σ(y)` and `b = ρ²∘σ(y)` are two table shuffles side by side, and
//! `Pₖ` ("τ, then rotate `k` rows") is one index shuffle — two shuffle
//! levels and an XOR tree. Backward rounds use tables `ρᵏ∘σ⁻¹` and `Qₖ`
//! ("rotate `k` rows, then τ⁻¹"), the reflector `ρᵏ∘σ` and `τ⁻¹∘rotₖ∘τ`.
//!
//! The tweakeys are formed before the rounds, off the state's dependency
//! chain: `spread(k) ⊕ spread(c_i) ⊕ t_i` forward and
//! `spread(k) ⊕ spread(c_i ⊕ α) ⊕ t_i` backward (the spread is linear over
//! XOR, so the constants' spreads are compile-time tables), a forward one
//! then passed through M∘τ (the round above with tables ρ¹ and ρ²). The
//! tweak update is h as an index shuffle and ω as a table shuffle blended
//! into the LFSR lanes.
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
    __m128i, _mm_and_si128, _mm_andnot_si128, _mm_cvtsi128_si64, _mm_cvtsi64_si128, _mm_or_si128,
    _mm_packus_epi16, _mm_set1_epi16, _mm_set1_epi8, _mm_set_epi64x, _mm_setzero_si128,
    _mm_shuffle_epi8, _mm_slli_epi16, _mm_srli_epi16, _mm_unpacklo_epi8, _mm_xor_si128,
};

/// A 16-byte vector as two little-endian `u64` halves (lane `d` is byte
/// `d % 8` of half `d / 8`): the compile-time form of an XMM constant.
type Spread = [u64; 2];

/// Sixteen byte lanes as a [`Spread`].
const fn lanes(bytes: [u8; 16]) -> Spread {
    let v = u128::from_le_bytes(bytes);
    [v as u64, (v >> 64) as u64]
}

/// The identity cell permutation.
const ID: [usize; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

/// The `pshufb` index vectors of "permute the cells by `inner`, move row
/// `r + k` (mod 4) into row `r`, then permute by `outer`", one per `k` in
/// `rows`: lane `d` reads `inner[(outer[d] + 4k) % 16]`. A linear layer
/// has one per MixColumns term, rows `k` = 1, 2, 3 (ρ¹, ρ², ρ¹).
const fn lane_maps<const M: usize>(
    inner: &[usize; 16],
    rows: [usize; M],
    outer: &[usize; 16],
) -> [Spread; M] {
    let mut maps = [[0; 2]; M];
    let mut m = 0;
    while m < M {
        let mut idx = [0u8; 16];
        let mut d = 0;
        while d < 16 {
            idx[d] = inner[(outer[d] + 4 * rows[m]) % 16] as u8;
            d += 1;
        }
        maps[m] = lanes(idx);
        m += 1;
    }
    maps
}

/// `Pₖ`: τ, then rotate `k` rows — the forward rounds' M∘τ.
const FWD_LAYER: [Spread; 3] = lane_maps(&TAU, [1, 2, 3], &ID);
/// `Qₖ`: rotate `k` rows, then τ⁻¹ — the backward rounds' τ⁻¹∘M.
const BWD_LAYER: [Spread; 3] = lane_maps(&ID, [1, 2, 3], &TAU_INV);
/// `Rₖ = τ⁻¹∘rotₖ∘τ` — the reflector's τ⁻¹∘M∘τ.
const MID_LAYER: [Spread; 3] = lane_maps(&TAU, [1, 2, 3], &TAU_INV);

/// `[ρ¹∘s, ρ²∘s]` as `pshufb` tables: every entry of the cell map `s`
/// rotated left by one and by two bits.
const fn rho_tables(s: &[u8; 16]) -> [Spread; 2] {
    let mut rho = [[0u8; 16]; 2];
    let mut i = 0;
    while i < 16 {
        rho[0][i] = ((s[i] << 1) | (s[i] >> 3)) & 0xF;
        rho[1][i] = ((s[i] << 2) | (s[i] >> 2)) & 0xF;
        i += 1;
    }
    [lanes(rho[0]), lanes(rho[1])]
}

/// One S-box's tables: `ρᵏ∘σ` for the forward rounds and the reflector,
/// `ρᵏ∘σ⁻¹` for the backward rounds, and σ⁻¹ for the final short round.
type Tables = ([Spread; 2], [Spread; 2], Spread);

const fn tables(sbox: &[u8; 16], sbox_inv: &[u8; 16]) -> Tables {
    (rho_tables(sbox), rho_tables(sbox_inv), lanes(*sbox_inv))
}

const SIGMA0_TABLES: Tables = tables(&SIGMA0, &SIGMA0);
const SIGMA1_TABLES: Tables = tables(&SIGMA1, &SIGMA1);
const SIGMA2_TABLES: Tables = tables(&SIGMA2, &SIGMA2_INV);

/// ρ¹ and ρ² alone: the tables that pass a tweakey through M∘τ.
const RHO: [Spread; 2] = rho_tables(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);

/// ω on one cell, `(b3, b2, b1, b0) ↦ (b0 ⊕ b1, b3, b2, b1)`, as a
/// `pshufb` table.
const OMEGA: Spread = lanes([0, 8, 9, 1, 2, 10, 11, 3, 4, 12, 13, 5, 6, 14, 15, 7]);

/// Byte-lane mask selecting the cells the ω LFSR clocks.
const LFSR_LANES: Spread = {
    let mut mask = [0u8; 16];
    let mut i = 0;
    while i < LFSR_CELLS.len() {
        mask[LFSR_CELLS[i]] = 0xFF;
        i += 1;
    }
    lanes(mask)
};

/// h as a `pshufb` index vector.
const H_IDX: Spread = lane_maps(&H, [0], &ID)[0];

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

/// A linear layer behind a cell table, plus a key: `L₁a ⊕ L₃a ⊕ L₂b ⊕ key`
/// for `[a, b]` the two `tables` looked up at `v` and `Lₖ` the lane maps
/// of `layer`.
#[target_feature(enable = "ssse3")]
fn round(v: __m128i, tables: &[__m128i; 2], layer: &[__m128i; 3], key: __m128i) -> __m128i {
    let a = _mm_shuffle_epi8(tables[0], v);
    let b = _mm_shuffle_epi8(tables[1], v);
    _mm_xor_si128(
        _mm_xor_si128(_mm_shuffle_epi8(a, layer[0]), _mm_shuffle_epi8(a, layer[2])),
        _mm_xor_si128(_mm_shuffle_epi8(b, layer[1]), key),
    )
}

/// One forward tweak update: permute by h, clock ω on the LFSR cells.
#[target_feature(enable = "ssse3")]
fn tweak_fwd(t: __m128i) -> __m128i {
    let p = _mm_shuffle_epi8(t, load(H_IDX));
    let clocked = _mm_shuffle_epi8(load(OMEGA), p);
    let mask = load(LFSR_LANES);
    _mm_or_si128(_mm_and_si128(clocked, mask), _mm_andnot_si128(mask, p))
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
    let (fwd_tables, bwd_tables, inv_table) = match sigma {
        Sigma::Sigma0 => SIGMA0_TABLES,
        Sigma::Sigma1 => SIGMA1_TABLES,
        Sigma::Sigma2 => SIGMA2_TABLES,
    };
    let sb_fwd = fwd_tables.map(|t| load(t));
    let sb_bwd = bwd_tables.map(|t| load(t));
    let rho = RHO.map(|t| load(t));
    let p = FWD_LAYER.map(|l| load(l));
    let q = BWD_LAYER.map(|l| load(l));
    let mid = MID_LAYER.map(|l| load(l));
    let zero = _mm_setzero_si128();
    let xor = |a: __m128i, b: __m128i| _mm_xor_si128(a, b);

    // Every round's tweakey, formed beside the tweak schedule and off the
    // state's dependency chain; forward rounds from 1 on add theirs after
    // M∘τ, so it is passed through M∘τ here.
    let k = spread(ks.k);
    let mut fwd = [zero; 8];
    let mut bwd = [zero; 8];
    let mut t = spread(tweak);
    for i in 0..rounds {
        fwd[i] = xor(k, xor(load(FWD_CONSTANTS[i]), t));
        bwd[i] = xor(k, xor(load(BWD_CONSTANTS[i]), t));
        t = tweak_fwd(t);
    }
    for tk in &mut fwd[1..rounds] {
        *tk = round(*tk, &rho, &p, zero);
    }
    let tk_out = round(xor(spread(ks.w_out), t), &rho, &p, zero);
    let tk_in = xor(spread(ks.w_in), t);
    let reflect_key = spread(ks.reflect_key);

    // From here on each state is held before its S-box: σ (or σ⁻¹) is
    // folded into the next round's tables. Round 0 is the short round.
    let mut state = blocks.map(|block| xor(spread(block ^ ks.w_in), fwd[0]));
    for tk in &fwd[1..rounds] {
        for s in &mut state {
            *s = round(*s, &sb_fwd, &p, *tk);
        }
    }
    for s in &mut state {
        *s = round(*s, &sb_fwd, &p, tk_out);
        *s = round(*s, &sb_fwd, &mid, reflect_key);
        *s = round(*s, &sb_bwd, &q, tk_in);
    }
    for tk in bwd[1..rounds].iter().rev() {
        for s in &mut state {
            *s = round(*s, &sb_bwd, &q, *tk);
        }
    }
    let sb_inv = load(inv_table);
    state.map(|s| pack(xor(_mm_shuffle_epi8(sb_inv, s), bwd[0])) ^ ks.w_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{mix_columns, permute, Cells};
    use crate::schedule::DirSchedule;
    use crate::{packed, reference, Key128};
    use core::array::from_fn;

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

    /// A vector pair's sixteen byte lanes.
    fn lanes_of(pair: Spread) -> [u8; 16] {
        from_fn(|d| (pair[d / 8] >> (8 * (d % 8))) as u8)
    }

    /// The lane map of the cell permutations `perms`, applied in order by
    /// the cell reference.
    fn composed(perms: &[&[usize; 16]]) -> Cells {
        perms
            .iter()
            .fold(from_fn(|d| d as u8), |cells, perm| permute(&cells, perm))
    }

    /// ρᵏ of one cell, read off the cell reference's MixColumns: a lone
    /// cell `v` in row 1 reaches row 0 as ρ¹(v) and row 3 as ρ²(v).
    fn rho(k: usize, v: u8) -> u8 {
        let mut cells = [0; 16];
        cells[4] = v;
        mix_columns(&cells)[if k == 1 { 0 } else { 12 }]
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
    fn layer_lane_maps_compose_tau_with_row_rotations() {
        for k in 1..=3 {
            let rot: [usize; 16] = from_fn(|d| (d + 4 * k) % 16);
            let (p, q, r) = (FWD_LAYER[k - 1], BWD_LAYER[k - 1], MID_LAYER[k - 1]);
            assert_eq!(lanes_of(p), composed(&[&TAU, &rot]), "P_{k}");
            assert_eq!(lanes_of(q), composed(&[&rot, &TAU_INV]), "Q_{k}");
            assert_eq!(lanes_of(r), composed(&[&TAU, &rot, &TAU_INV]), "R_{k}");
        }
        assert_eq!(lanes_of(H_IDX), composed(&[&H]), "h");
    }

    #[test]
    fn rho_tables_rotate_every_sbox_entry() {
        let identity: [u8; 16] = from_fn(|v| v as u8);
        for (sigma, (fwd, bwd, inv)) in [
            (Sigma::Sigma0, SIGMA0_TABLES),
            (Sigma::Sigma1, SIGMA1_TABLES),
            (Sigma::Sigma2, SIGMA2_TABLES),
        ] {
            let (sbox, sbox_inv) = (*sigma.table(), *sigma.inverse_table());
            for k in 1..=2 {
                let rho_k = |table: [u8; 16]| table.map(|v| rho(k, v));
                assert_eq!(lanes_of(fwd[k - 1]), rho_k(sbox), "rho^{k} of {sigma}");
                assert_eq!(
                    lanes_of(bwd[k - 1]),
                    rho_k(sbox_inv),
                    "rho^{k} of {sigma}^-1"
                );
                assert_eq!(lanes_of(RHO[k - 1]), rho_k(identity), "rho^{k}");
            }
            assert_eq!(lanes_of(inv), sbox_inv, "{sigma}^-1");
        }
    }

    #[test]
    fn omega_table_clocks_like_the_swar_tweak_update() {
        let (omega, mask) = (lanes_of(OMEGA), lanes_of(LFSR_LANES));
        for cell in 0..16 {
            let clocked = LFSR_CELLS.contains(&cell);
            assert_eq!(
                mask[cell],
                if clocked { 0xFF } else { 0 },
                "mask of cell {cell}"
            );
            // h moves input cell H[cell] to `cell`; ω then clocks it there.
            for v in 0..16u8 {
                let updated = packed::tweak_fwd(u64::from(v) << (60 - 4 * H[cell]));
                let expected = if clocked { omega[usize::from(v)] } else { v };
                assert_eq!(
                    (updated >> (60 - 4 * cell)) & 0xF,
                    u64::from(expected),
                    "cell {cell}, value {v}"
                );
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

    /// The ACS shape: each step's tweak is the previous step's ciphertext,
    /// so the tweak schedule starts from values the state produced.
    #[test]
    fn tweak_chained_simd_crypt_matches_the_cell_reference() {
        if !available() {
            return;
        }
        let key = Key128::new(0x84be85ce9804e94b, 0xec2802d4e0a488e9);
        let enc = DirSchedule::encrypt(key);
        for sigma in [Sigma::Sigma0, Sigma::Sigma1, Sigma::Sigma2] {
            for rounds in 1..=8 {
                let reference = |x, tweak| reference::encrypt(key, sigma, rounds, x, tweak);
                let (mut single, mut pair) = (0x477d469dec0b8762u64, 0x477d469dec0b8762u64);
                for step in 0..1_000u64 {
                    let x = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(step + 1);
                    let [c] = crypt([x], single, &enc, sigma, rounds);
                    assert_eq!(c, reference(x, single), "{sigma} r={rounds} step {step}");
                    let [a, b] = crypt([x, !x], pair, &enc, sigma, rounds);
                    assert_eq!(
                        [a, b],
                        [reference(x, pair), reference(!x, pair)],
                        "pair, {sigma} r={rounds} step {step}"
                    );
                    (single, pair) = (c, a);
                }
            }
        }
    }
}
