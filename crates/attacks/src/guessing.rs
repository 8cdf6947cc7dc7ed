//! Brute-force guessing against forked siblings (paper §4.3).
//!
//! A failed token guess crashes the guessed-at process. Three regimes:
//!
//! * **Single process**: each crash re-keys (`exec` restarts), so every
//!   guess is independent — geometric with mean 2ᵇ, and the paper's
//!   `log(1−p)/log(1−2⁻ᵇ)` guess count for target probability `p`.
//! * **Shared-key siblings (divide-and-conquer)**: a pre-forking server's
//!   children share the key, so the unknown token is *fixed* across
//!   guesses. Enumerating it takes 2ᵇ⁻¹ guesses on average, and the two
//!   stages (forge a modifier, then forge the jump) are separable:
//!   2ᵇ total.
//! * **Re-seeded siblings**: each child's chain is re-seeded with a unique
//!   value, so the target re-randomises every guess; the stages cost 2ᵇ
//!   each and cannot share work: 2ᵇ⁺¹ total.

use crate::layout_with_pac_bits;
use pacstack_pauth::{PaKey, PaKeys, PointerAuth};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RNG-stream tag for [`mean_cost`] campaigns (unused for randomness —
/// campaigns derive everything from their seed — but labels the stream).
const STREAM_MEAN_COST: u64 = 0x63E5_5C05_7000_0003;

const TARGET_ADDR: u64 = 0x43_0000;
const PIVOT_ADDR: u64 = 0x40_0500;
const FIXED_MODIFIER: u64 = 0x7fff_1000;

/// Guesses spent in each stage of a two-stage attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuessCost {
    /// Guesses to obtain a valid intermediate (modifier-forging) pair.
    pub stage_one: u64,
    /// Guesses to land the final jump.
    pub stage_two: u64,
}

impl GuessCost {
    /// Total guesses across both stages.
    pub fn total(&self) -> u64 {
        self.stage_one + self.stage_two
    }
}

/// Single-process guessing: every failed guess restarts the process with a
/// fresh key. Returns the number of guesses until one lands.
pub fn single_process(b: u32, seed: u64) -> u64 {
    let pa = PointerAuth::new(layout_with_pac_bits(b));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut guesses = 0;
    loop {
        guesses += 1;
        let keys = PaKeys::generate(&mut rng); // fresh key per attempt
        let guess: u64 = rng.gen::<u64>() & ((1 << b) - 1);
        if pa.compute_pac(&keys, PaKey::Ia, TARGET_ADDR, FIXED_MODIFIER) == guess {
            return guesses;
        }
    }
}

/// Divide-and-conquer against shared-key siblings: the PA key survives
/// each crashed child, so both stages reduce to enumerating a fixed b-bit
/// unknown (mean 2ᵇ⁻¹ each, 2ᵇ total).
pub fn divide_and_conquer(b: u32, seed: u64) -> GuessCost {
    let pa = PointerAuth::new(layout_with_pac_bits(b));
    let keys = PaKeys::from_seed(seed); // one key for the whole process tree
    let layout = layout_with_pac_bits(b);

    // Stage 1: enumerate the token of (PIVOT_ADDR, FIXED_MODIFIER). Each
    // wrong enumeration kills one sibling; the key does not change.
    let stage1_target = pa.compute_pac(&keys, PaKey::Ia, PIVOT_ADDR, FIXED_MODIFIER);
    let stage_one = stage1_target + 1; // guesses 0..=target

    // The accepted authenticated pointer becomes the next modifier...
    let pivot_aret = layout.insert_pac(PIVOT_ADDR, stage1_target);

    // Stage 2: enumerate the token of (TARGET_ADDR, pivot_aret).
    let stage2_target = pa.compute_pac(&keys, PaKey::Ia, TARGET_ADDR, pivot_aret);
    let stage_two = stage2_target + 1;

    GuessCost {
        stage_one,
        stage_two,
    }
}

/// Re-seeded siblings: each child gets a unique chain seed, so the value
/// under attack is re-randomised on every guess — enumeration degenerates
/// to geometric trials with mean 2ᵇ per stage (2ᵇ⁺¹ total).
pub fn reseeded(b: u32, seed: u64) -> GuessCost {
    let pa = PointerAuth::new(layout_with_pac_bits(b));
    let keys = PaKeys::from_seed(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mask = (1u64 << b) - 1;

    let mut stage = |addr: u64| -> u64 {
        let mut guesses = 0u64;
        loop {
            guesses += 1;
            // Each sibling re-seeds its chain: the modifier the token is
            // computed under differs per guess.
            let sibling_modifier: u64 = rng.gen();
            let guess: u64 = rng.gen::<u64>() & mask;
            if pa.compute_pac(&keys, PaKey::Ia, addr, sibling_modifier) == guess {
                return guesses;
            }
        }
    };

    GuessCost {
        stage_one: stage(PIVOT_ADDR),
        stage_two: stage(TARGET_ADDR),
    }
}

/// Averages a per-seed cost function over seeds `0..runs`, fanning the
/// campaigns across the [`pacstack_exec`] worker pool (each campaign is a
/// pure function of its seed, so the mean is identical at any thread
/// count). The engine call is recorded as `"<label> runs=<runs>"`.
pub fn mean_cost<F: Fn(u64) -> u64 + Sync>(label: &str, runs: u64, f: F) -> f64 {
    use pacstack_exec as exec;
    let run = exec::run_trials(STREAM_MEAN_COST, runs, |i, _rng| f(i));
    exec::stats::record(format!("{label} runs={runs}"), run.stats);
    run.results.iter().sum::<u64>() as f64 / runs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacstack_acs::security;

    #[test]
    fn divide_and_conquer_costs_about_2_to_b() {
        let b = 10;
        let mean = mean_cost("test", 200, |s| divide_and_conquer(b, s).total());
        let expected = security::expected_guesses_shared_key(b); // 2^b
        assert!(
            mean > expected * 0.8 && mean < expected * 1.2,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn reseeding_doubles_the_cost() {
        let b = 8;
        let dc = mean_cost("test", 300, |s| divide_and_conquer(b, s).total());
        let rs = mean_cost("test", 300, |s| reseeded(b, s).total());
        let ratio = rs / dc;
        assert!(
            ratio > 1.5 && ratio < 2.6,
            "re-seeding should roughly double the cost: ratio {ratio}"
        );
    }

    #[test]
    fn reseeded_cost_matches_2_to_b_plus_1() {
        let b = 8;
        let mean = mean_cost("test", 400, |s| reseeded(b, s).total());
        let expected = security::expected_guesses_reseeded(b); // 2^(b+1)
        assert!(
            mean > expected * 0.8 && mean < expected * 1.25,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn single_process_guessing_is_geometric() {
        let b = 6;
        let mean = mean_cost("test", 400, |s| single_process(b, s));
        let expected = 2f64.powi(b as i32); // geometric mean 2^b
        assert!(
            mean > expected * 0.75 && mean < expected * 1.3,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn stages_are_individually_half_the_shared_key_cost() {
        let b = 9;
        let runs = 300;
        let s1 = mean_cost("test", runs, |s| divide_and_conquer(b, s).stage_one);
        let expected = 2f64.powi(b as i32 - 1); // 2^(b-1)
        assert!(
            s1 > expected * 0.8 && s1 < expected * 1.2,
            "stage one mean {s1} vs expected {expected}"
        );
    }
}
