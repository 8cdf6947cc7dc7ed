//! Off-graph violations (paper §6.2.2, Table 1 rows 2–3).
//!
//! The adversary substitutes into a live chain a value the instrumentation
//! has never chained at this position:
//!
//! * **To a call site**: a *valid* authenticated return address harvested
//!   from elsewhere in the program. The load-time check
//!   `H(ret_C, aret_B) = H(ret_C, aret_A)` has never been computed, so it
//!   passes with probability 2⁻ᵇ; the jump itself then succeeds because
//!   the harvested value is genuinely valid.
//! * **To an arbitrary address**: a forged `aret_B` with a guessed token.
//!   Both the load (2⁻ᵇ) and the jump (2⁻ᵇ) must pass: 2⁻²ᵇ overall.

use crate::collision::MonteCarlo;
use crate::{acs_for, layout_with_pac_bits};
use pacstack_acs::Masking;
use pacstack_exec as exec;
use pacstack_pauth::PaKeys;
use rand::Rng;

/// RNG-stream tag for [`to_call_site`] trials.
const STREAM_CALL_SITE: u64 = 0x0FF6_CA11_517E_0001;
/// RNG-stream tag for [`to_arbitrary_address`] trials.
const STREAM_ARBITRARY: u64 = 0x0FF6_A4B1_74A4_0002;

const RET_MAIN: u64 = 0x40_0100;
const RET_X: u64 = 0x40_0200;
const RET_C: u64 = 0x40_0300;
const RET_B: u64 = 0x40_0400;
/// An address that has never been a return address in the program.
const RET_EVIL: u64 = 0x43_0000;

/// Row 2: off-graph violation targeting a valid call-site return address.
///
/// Each trial is one process (fresh keys): the adversary harvests a valid
/// `aret_B` from a context where `B`'s activation spills it, then
/// substitutes it as the chain-head of `C`'s frame and lets `C` return.
pub fn to_call_site(b: u32, masking: Masking, trials: u64, seed: u64) -> MonteCarlo {
    let (successes, stats) = exec::count_trials(seed ^ STREAM_CALL_SITE, trials, |_, rng| {
        // Harvest a valid aret_B: drive main → B → (callee), spilling
        // aret_B when B calls onward.
        let mut probe = acs_for(b, masking, PaKeys::from_seed(rng.gen()));
        probe.call(RET_MAIN);
        probe.call(RET_B);
        probe.call(0x40_0500); // B calls something; aret_B hits the stack
        let aret_b = probe.frames()[2].stored_chain;

        // The victim path: main → X → C, in the same process and so under
        // the same keys. The pair (ret_C, aret_B) has never been chained.
        let mut acs = acs_for(b, masking, probe.keys().clone());
        acs.call(RET_MAIN);
        acs.call(RET_X);
        acs.call(RET_C);
        acs.frames_mut()[2].stored_chain = aret_b;
        acs.ret().is_ok()
    });
    exec::stats::record(format!("off-graph call-site b={b} {masking}"), stats);
    MonteCarlo { trials, successes }
}

/// Row 3: off-graph violation to an arbitrary address.
///
/// The adversary forges `aret_EVIL` with a guessed token (AG-Jump) and
/// substitutes it as `C`'s chain head (AG-Load). Success requires both the
/// load-time verification of `C`'s return *and* the subsequent return to
/// actually land on the forged address.
pub fn to_arbitrary_address(b: u32, masking: Masking, trials: u64, seed: u64) -> MonteCarlo {
    let layout = layout_with_pac_bits(b);
    let (successes, stats) = exec::count_trials(seed ^ STREAM_ARBITRARY, trials, |_, rng| {
        let mut acs = acs_for(b, masking, PaKeys::from_seed(rng.gen()));
        acs.call(RET_MAIN);
        acs.call(RET_X);
        acs.call(RET_C);

        // Forge aret_EVIL: guessed token in the PAC field.
        let guessed_token: u64 = rng.gen::<u64>() & ((1 << b) - 1);
        let forged = layout.insert_pac(RET_EVIL, guessed_token);

        // AG-Load: make C's frame hand the forged value to the verifier.
        acs.frames_mut()[2].stored_chain = forged;
        // On load failure the process crashed — the common case.
        if acs.ret().is_ok() {
            // AG-Jump: the forged value is now the chain head; the next
            // return must authenticate it against an adversary-chosen
            // stored link and land on RET_EVIL.
            acs.frames_mut()[1].stored_chain = rng.gen::<u64>();
            acs.ret() == Ok(RET_EVIL)
        } else {
            false
        }
    });
    exec::stats::record(format!("off-graph arbitrary b={b} {masking}"), stats);
    MonteCarlo { trials, successes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_site_violations_succeed_at_two_to_minus_b() {
        let b = 4;
        for masking in [Masking::Masked, Masking::Unmasked] {
            let result = to_call_site(b, masking, 8_000, 11);
            let expected = 2f64.powi(-(b as i32)); // 1/16
            let rate = result.rate();
            assert!(
                rate > expected * 0.5 && rate < expected * 1.7,
                "{masking}: rate {rate} vs expected {expected}"
            );
        }
    }

    #[test]
    fn arbitrary_address_violations_succeed_at_two_to_minus_2b() {
        let b = 3;
        let result = to_arbitrary_address(b, Masking::Masked, 60_000, 13);
        let expected = 2f64.powi(-(2 * b as i32)); // 1/64
        let rate = result.rate();
        assert!(
            rate > expected * 0.4 && rate < expected * 2.0,
            "rate {rate} vs expected {expected}"
        );
    }

    #[test]
    fn arbitrary_is_much_harder_than_call_site() {
        let b = 4;
        let call_site = to_call_site(b, Masking::Masked, 5_000, 17).rate();
        let arbitrary = to_arbitrary_address(b, Masking::Masked, 5_000, 17).rate();
        assert!(
            arbitrary < call_site,
            "arbitrary ({arbitrary}) should be rarer than call-site ({call_site})"
        );
    }
}
