//! End-to-end online brute force against the *simulated system* (§4.3 meets
//! §6.2.2): the adversary repeatedly crashes and restarts the victim
//! process, guessing forged chain values, until a return lands on their
//! gadget.
//!
//! Unlike [`crate::guessing`] (which works against the MAC primitive
//! directly), this module drives the full stack — compiler-emitted
//! instrumentation on the CPU model — so the measured costs include every
//! systems detail: masking, the error-bit fault path and key regeneration
//! on restart.

use crate::layout_with_pac_bits;
use crate::rop::{victim_module, GADGET_CHECKPOINT, VICTIM_CHECKPOINT};
use crate::victim::{self, AttackOutcome, VictimError};
use pacstack_aarch64::{Cpu, Fault, Reg};
use pacstack_compiler::{frame, lower, Scheme};
use pacstack_pauth::{PaKeys, PointerAuth};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a brute-force campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BruteForceResult {
    /// Process launches (= crashes + the final success, if any).
    pub attempts: u64,
    /// Whether the gadget was reached within the attempt budget.
    pub succeeded: bool,
}

/// Runs the online attack at PAC width `b` under `scheme` (a PACStack
/// variant) against [`crate::rop`]'s victim: per process launch, forge the
/// victim's chain slot with a guessed token aimed at the gadget, resume,
/// and observe. Every failure crashes the process; the restart draws fresh
/// PA keys (the §4.3 single-process setting, expected cost 2²ᵇ launches).
///
/// # Errors
///
/// [`VictimError`] if a launch misses its checkpoint or the forgery's write
/// faults.
pub fn bruteforce_to_gadget(
    scheme: Scheme,
    b: u32,
    max_attempts: u64,
    seed: u64,
) -> Result<BruteForceResult, VictimError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let program = lower(&victim_module(), scheme);
    let layout = layout_with_pac_bits(b);
    let pa = PointerAuth::new(layout);
    let mask = (1u64 << b) - 1;

    for attempt in 1..=max_attempts {
        // Fresh process: new keys on exec.
        let keys = PaKeys::from_seed(rng.gen());
        let mut cpu = Cpu::with_parts(program.clone(), keys, pa);
        victim::run_to(&mut cpu, VICTIM_CHECKPOINT)?;

        let gadget = cpu.symbol("gadget").ok_or(Fault::NoSuchSymbol)?;
        let sp = cpu.reg(Reg::Sp);
        // Stage guesses: victim's chain slot becomes a forged authenticated
        // pointer at the gadget; main's chain slot keeps its genuine value,
        // which the second verification is guessed against.
        let forged = layout.insert_pac(gadget, rng.gen::<u64>() & mask);
        cpu.mem_mut()
            .write_u64(sp + frame::CHAIN_SLOT as u64, forged)?;
        // Anything but the gadget is one spent attempt.
        if victim::outcome(&mut cpu, GADGET_CHECKPOINT) == AttackOutcome::Hijacked {
            return Ok(BruteForceResult {
                attempts: attempt,
                succeeded: true,
            });
        }
    }
    Ok(BruteForceResult {
        attempts: max_attempts,
        succeeded: false,
    })
}

/// Mean launches until success across `campaigns` independent campaigns,
/// run across the [`pacstack_exec`] worker pool (each campaign's seed is a
/// pure function of its index, so the mean is thread-count independent).
///
/// # Errors
///
/// The first campaign's [`VictimError`], in campaign order.
pub fn mean_attempts(
    scheme: Scheme,
    b: u32,
    campaigns: u64,
    seed: u64,
) -> Result<f64, VictimError> {
    use pacstack_exec as exec;
    let run = exec::run_trials(seed ^ 0x0911_11E5_B4F0_0004, campaigns, |i, _rng| {
        bruteforce_to_gadget(scheme, b, u64::MAX, seed ^ (i * 0x9E37_79B9)).map(|r| r.attempts)
    });
    exec::stats::record(format!("online brute-force {scheme} b={b}"), run.stats);
    let attempts = run.results.into_iter().sum::<Result<u64, _>>()?;
    Ok(attempts as f64 / campaigns as f64)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn online_attack_succeeds_eventually_at_tiny_pac_width() {
        // b = 3: the full attack needs two correct guesses ⇒ mean 2^6 = 64
        // launches. The chain slot forgery only controls the first hop; the
        // second verification happens against main's genuine seed chain, so
        // success requires H(gadget, seed)(fresh key) to match the guessed
        // token — still 2^-b.
        let result = bruteforce_to_gadget(Scheme::PacStack, 3, 20_000, 7).unwrap();
        assert!(
            result.succeeded,
            "no success in {} attempts",
            result.attempts
        );
        assert!(result.attempts > 1, "first-try success is suspicious");
    }

    #[test]
    fn mean_attempts_scale_with_two_to_2b() {
        let b = 3;
        let mean = mean_attempts(Scheme::PacStack, b, 12, 99).unwrap();
        let expected = 4f64.powi(b as i32); // 2^(2b) = 64
        assert!(
            mean > expected * 0.3 && mean < expected * 3.0,
            "mean {mean} vs expected ~{expected}"
        );
    }

    #[test]
    fn deployed_width_resists_a_realistic_budget() {
        // At b = 16 the expected cost is 2^32 launches; a 300-launch
        // campaign must fail.
        let result = bruteforce_to_gadget(Scheme::PacStack, 16, 300, 5).unwrap();
        assert!(!result.succeeded);
        assert_eq!(result.attempts, 300);
    }
}
