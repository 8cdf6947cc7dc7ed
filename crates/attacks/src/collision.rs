//! On-graph collision attacks against the ACS chain (paper §6.2.1).
//!
//! The adversary drives the victim through many distinct call paths to the
//! same function `C`; each path `i` leaves a chain head `h_i` on the stack
//! and — once `C` calls a further "loader" function — also spills `C`'s own
//! authenticated return address `aret_C^i = pac(ret_C, h_i)`. Two paths
//! whose *unmasked* tokens collide give the adversary a substitution that
//! always verifies. Masking hides which spills collide, forcing a blind
//! guess that succeeds with probability 2⁻ᵇ.

use crate::layout_with_pac_bits;
use pacstack_acs::{AcsConfig, AuthenticatedCallStack, Masking};
use pacstack_exec as exec;
use pacstack_pauth::{PaKeys, PointerAuth};
use rand::Rng;
use std::collections::HashMap;

/// RNG-stream tag for [`on_graph_attack`] trials.
const STREAM_ON_GRAPH: u64 = 0x0C01_1151_04C4_2A71;

/// Return address of the target function `C` (a call site in the victim).
const RET_C: u64 = 0x40_1000;
/// Return address of the loader call inside `C`.
const RET_LOADER: u64 = 0x40_2000;
/// Base of the per-path return addresses.
const PATH_BASE: u64 = 0x41_0000;

/// Aggregate result of a Monte Carlo attack run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarlo {
    /// Number of attack attempts.
    pub trials: u64,
    /// Number of successful call-stack integrity violations.
    pub successes: u64,
}

impl MonteCarlo {
    /// Empirical success rate.
    pub fn rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// 95% Wilson score interval for the success rate — robust for the
    /// small rates (2⁻ᵇ, 2⁻²ᵇ) these experiments estimate.
    pub fn wilson_interval(&self) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let n = self.trials as f64;
        let p = self.rate();
        let z = 1.96f64;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let margin = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((centre - margin).max(0.0), (centre + margin).min(1.0))
    }

    /// Whether `value` lies within the 95% Wilson interval.
    pub fn consistent_with(&self, value: f64) -> bool {
        let (lo, hi) = self.wilson_interval();
        (lo..=hi).contains(&value)
    }
}

/// Result of one collision harvest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Harvest {
    /// Tokens observed before the first collision (∞-free: capped by the
    /// caller's budget).
    pub tokens: u64,
    /// The two path indices whose spilled tokens matched.
    pub pair: (u64, u64),
}

fn acs_for(b: u32, masking: Masking, seed: u64) -> AuthenticatedCallStack {
    AuthenticatedCallStack::new(
        PointerAuth::new(layout_with_pac_bits(b)),
        PaKeys::from_seed(seed),
        AcsConfig::default().masking(masking),
    )
}

/// Drives path `i` up to the point where `C`'s token is spilled, returning
/// the observable stack state: (`h_i`, spilled `aret_C^i`).
fn drive_path(acs: &mut AuthenticatedCallStack, path: u64) -> (u64, u64) {
    acs.call(PATH_BASE + path * 4); // the path-distinguishing activation
    acs.call(RET_C); // enter C
    acs.call(RET_LOADER); // C calls the loader → CR (aret_C) is spilled
    let h = acs.frames()[1].stored_chain;
    let spilled = acs.frames()[2].stored_chain;
    (h, spilled)
}

/// Unwinds a fully-driven path (inverse of [`drive_path`]).
#[allow(clippy::expect_used, reason = "a benign unwind always verifies")]
fn unwind_path(acs: &mut AuthenticatedCallStack) {
    for _ in 0..3 {
        acs.ret().expect("benign unwind must verify");
    }
}

/// Harvests spilled tokens over distinct paths until two collide, as the
/// §6.2.1 adversary does against the *unmasked* scheme.
///
/// Returns `None` if no collision shows up within `budget` paths.
pub fn harvest_until_collision(
    b: u32,
    masking: Masking,
    seed: u64,
    budget: u64,
) -> Option<Harvest> {
    let mut acs = acs_for(b, masking, seed);
    let mut seen: HashMap<u64, (u64, u64)> = HashMap::new();
    for path in 0..budget {
        let (h, spilled) = drive_path(&mut acs, path);
        unwind_path(&mut acs);
        if let Some(&(prev_path, prev_h)) = seen.get(&spilled) {
            if prev_h != h {
                return Some(Harvest {
                    tokens: path + 1,
                    pair: (prev_path, path),
                });
            }
        } else {
            seen.insert(spilled, (path, h));
        }
    }
    None
}

/// The full on-graph attack:
///
/// * **Unmasked**: harvest until a collision, then substitute the colliding
///   chain head — verification passes deterministically.
/// * **Masked**: collisions are invisible; the adversary substitutes the
///   chain head of a random other path and hopes (2⁻ᵇ).
///
/// Each trial uses a fresh key (a fresh victim process). Trials fan out
/// across the [`pacstack_exec`] worker pool; every trial's randomness comes
/// from its own `(experiment, index)` stream, so the result is identical at
/// any thread count.
#[allow(clippy::expect_used, reason = "an untampered return verifies")]
pub fn on_graph_attack(b: u32, masking: Masking, trials: u64, seed: u64) -> MonteCarlo {
    // Pool of paths the adversary may harvest per process.
    let pool: u64 = 4 * (1u64 << (b / 2 + 2));

    let (successes, stats) = exec::count_trials(seed ^ STREAM_ON_GRAPH, trials, |trial, rng| {
        let process_seed = rng.gen();
        match masking {
            Masking::Unmasked => {
                if let Some(harvest) = harvest_until_collision(b, masking, process_seed, pool) {
                    // Replay the first colliding path, substitute the second's
                    // chain head, and return through C.
                    let mut acs = acs_for(b, masking, process_seed);
                    let (_, _) = drive_path(&mut acs, harvest.pair.0);
                    let (h_other, _) = {
                        // Recompute the other path's chain head without
                        // disturbing the live chain.
                        let mut probe = acs_for(b, masking, process_seed);
                        let (h, _) = drive_path(&mut probe, harvest.pair.1);
                        (h, ())
                    };
                    acs.ret().expect("loader returns cleanly");
                    acs.frames_mut()[1].stored_chain = h_other;
                    acs.ret().is_ok()
                } else {
                    false
                }
            }
            Masking::Masked => {
                let mut acs = acs_for(b, masking, process_seed);
                // Harvest a victim path and one decoy path the adversary
                // hopes collides.
                let decoy = trial % 16 + 1;
                let mut probe = acs_for(b, masking, process_seed);
                let (h_decoy, _) = drive_path(&mut probe, 1000 + decoy);
                drive_path(&mut acs, 0);
                acs.ret().expect("loader returns cleanly");
                acs.frames_mut()[1].stored_chain = h_decoy;
                acs.ret().is_ok()
            }
        }
    });
    exec::stats::record(format!("on-graph b={b} {masking}"), stats);
    MonteCarlo { trials, successes }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pacstack_acs::security;

    #[test]
    fn unmasked_collisions_appear_near_the_birthday_bound() {
        let b = 8;
        let expected = security::expected_tokens_until_collision(b); // ≈ 20
        let mut total = 0u64;
        let runs = 40;
        for seed in 0..runs {
            let harvest = harvest_until_collision(b, Masking::Unmasked, seed, 10_000)
                .expect("collision must appear well before 10k paths");
            total += harvest.tokens;
        }
        let mean = total as f64 / runs as f64;
        assert!(
            mean > expected * 0.6 && mean < expected * 1.6,
            "mean {mean} vs birthday bound {expected}"
        );
    }

    #[test]
    fn unmasked_on_graph_attack_always_succeeds_after_collision() {
        let result = on_graph_attack(6, Masking::Unmasked, 30, 99);
        // Table 1: probability 1 once a collision is found; every trial
        // that found a collision within the pool must succeed.
        assert!(
            result.rate() > 0.9,
            "unmasked on-graph success rate only {}",
            result.rate()
        );
    }

    #[test]
    fn masked_on_graph_attack_succeeds_at_two_to_minus_b() {
        let b = 4;
        let result = on_graph_attack(b, Masking::Masked, 4_000, 7);
        let expected = 2f64.powi(-(b as i32));
        assert!(
            result.rate() < expected * 3.0 + 0.01,
            "masked rate {} far exceeds 2^-{b} = {expected}",
            result.rate()
        );
        // And it is not identically zero at this width / trial count...
        // (probabilistic; 4000 trials at 1/16 ⇒ ~250 expected successes).
        assert!(
            result.successes > 50,
            "suspiciously few successes: {}",
            result.successes
        );
    }

    #[test]
    fn masked_spills_hide_collisions() {
        // Even when unmasked tokens collide, the masked spills differ.
        let b = 6;
        let harvest = harvest_until_collision(b, Masking::Unmasked, 5, 10_000).unwrap();
        let mut unmasked = acs_for(b, Masking::Unmasked, 5);
        let mut masked = acs_for(b, Masking::Masked, 5);
        let (_, spill_a_unmasked) = drive_path(&mut unmasked, harvest.pair.0);
        let (_, spill_a_masked) = drive_path(&mut masked, harvest.pair.0);
        unwind_path(&mut unmasked);
        unwind_path(&mut masked);
        let (_, spill_b_unmasked) = drive_path(&mut unmasked, harvest.pair.1);
        let (_, spill_b_masked) = drive_path(&mut masked, harvest.pair.1);
        assert_eq!(
            spill_a_unmasked, spill_b_unmasked,
            "harvest said these collide"
        );
        assert_ne!(
            spill_a_masked, spill_b_masked,
            "masking failed to hide the collision"
        );
    }
}
