//! On-graph collision attacks against the ACS chain (paper §6.2.1).
//!
//! The adversary drives the victim through many distinct call paths to the
//! same function `C`; each path `i` leaves a chain head `h_i` on the stack
//! and — once `C` calls a further "loader" function — also spills `C`'s own
//! authenticated return address `aret_C^i = pac(ret_C, h_i)`. Two paths
//! whose *unmasked* tokens collide give the adversary a substitution that
//! always verifies. Masking hides which spills collide, forcing a blind
//! guess that succeeds with probability 2⁻ᵇ.

use crate::acs_for;
use pacstack_acs::{AuthenticatedCallStack, Masking};
use pacstack_exec as exec;
use pacstack_pauth::PaKeys;
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
    /// The chain head `h` that path `pair.1` leaves on the stack: the value
    /// the unmasked attack substitutes into path `pair.0`.
    pub head: u64,
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
    harvest(&acs_for(b, masking, PaKeys::from_seed(seed)), budget)
}

/// [`harvest_until_collision`] in the process whose empty chain is `root`.
///
/// The adversary observes only the spilled tokens, so each path starts from
/// a restored copy of `root` rather than from a benign unwind of the last
/// path: both leave the same chain register and stack.
fn harvest(root: &AuthenticatedCallStack, budget: u64) -> Option<Harvest> {
    let mut acs = root.clone();
    let mut seen: HashMap<u64, (u64, u64)> = HashMap::new();
    for path in 0..budget {
        acs.clone_from(root);
        let (h, spilled) = drive_path(&mut acs, path);
        if let Some(&(prev_path, prev_h)) = seen.get(&spilled) {
            if prev_h != h {
                return Some(Harvest {
                    tokens: path + 1,
                    pair: (prev_path, path),
                    head: h,
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
/// Each trial uses a fresh key (a fresh victim process), generated once:
/// the harvest and the replay run on copies of the process's empty chain.
/// Trials fan out across the [`pacstack_exec`] worker pool; every trial's
/// randomness comes from its own `(experiment, index)` stream, so the
/// result is identical at any thread count.
#[allow(clippy::expect_used, reason = "an untampered return verifies")]
pub fn on_graph_attack(b: u32, masking: Masking, trials: u64, seed: u64) -> MonteCarlo {
    // Pool of paths the adversary may harvest per process.
    let pool: u64 = 4 * (1u64 << (b / 2 + 2));

    let (successes, stats) = exec::count_trials(seed ^ STREAM_ON_GRAPH, trials, |trial, rng| {
        let mut acs = acs_for(b, masking, PaKeys::from_seed(rng.gen()));
        // The victim path to replay and the chain head substituted into it.
        let (victim, head) = match masking {
            // The second colliding path's head, for the first.
            Masking::Unmasked => match harvest(&acs, pool) {
                Some(harvest) => (harvest.pair.0, harvest.head),
                None => return false,
            },
            // A decoy path's head the adversary hopes collides with path 0.
            Masking::Masked => (0, drive_path(&mut acs.clone(), 1000 + trial % 16 + 1).0),
        };
        drive_path(&mut acs, victim);
        acs.ret().expect("loader returns cleanly");
        acs.frames_mut()[1].stored_chain = head;
        acs.ret().is_ok()
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
        let unmasked = acs_for(b, Masking::Unmasked, PaKeys::from_seed(5));
        let masked = acs_for(b, Masking::Masked, PaKeys::from_seed(5));
        let spill = |root: &AuthenticatedCallStack, path| drive_path(&mut root.clone(), path).1;
        let (first, second) = harvest.pair;
        assert_eq!(
            spill(&unmasked, first),
            spill(&unmasked, second),
            "harvest said these collide"
        );
        assert_ne!(
            spill(&masked, first),
            spill(&masked, second),
            "masking failed to hide the collision"
        );
    }

    #[test]
    fn restoring_the_root_equals_the_benign_unwind() {
        let (b, budget) = (6, 10_000);
        for seed in 0..6 {
            for masking in [Masking::Unmasked, Masking::Masked] {
                let paths = harvest_until_collision(b, masking, seed, budget)
                    .map_or(budget, |harvest| harvest.tokens);
                let root = acs_for(b, masking, PaKeys::from_seed(seed));
                let mut unwound = root.clone();
                let mut restored = root.clone();
                for path in 0..paths {
                    let observed = drive_path(&mut unwound, path);
                    assert_eq!(drive_path(&mut restored, path), observed);
                    for _ in 0..3 {
                        unwound.ret().expect("benign unwind must verify");
                    }
                    restored.clone_from(&root);
                    assert_eq!(restored.chain_register(), unwound.chain_register());
                    assert_eq!(restored.depth(), unwound.depth());
                    assert_eq!(restored.frames(), unwound.frames());
                }
            }
        }
    }

    #[test]
    fn harvest_reports_the_chain_head_of_the_second_path() {
        let b = 6;
        for seed in 0..6 {
            let harvest = harvest_until_collision(b, Masking::Unmasked, seed, 10_000).unwrap();
            let mut acs = acs_for(b, Masking::Unmasked, PaKeys::from_seed(seed));
            assert_eq!(drive_path(&mut acs, harvest.pair.1).0, harvest.head);
        }
    }
}
