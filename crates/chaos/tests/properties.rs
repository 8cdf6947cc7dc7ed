//! The chaos engine's core robustness property: *every* randomly generated
//! injection plan, against every target, yields exactly one classified
//! outcome and never unwinds the host process. Outcomes are also
//! deterministic and independent of the trials run before them.
//!
//! The trial body runs under `catch_unwind`; a host panic fails the
//! property outright — the execution pipeline must report structured
//! errors ([`Fault`], [`LinkError`]) end to end, no matter what the plan
//! corrupts.

use pacstack_chaos::{campaign, engine, plan};
use pacstack_exec::TrialRng;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// The key seed every target is prepared with.
const SEED: u64 = 0x0BAD_C0DE;

/// Targets are prepared once — preparation is deterministic, and sharing
/// them keeps the property's 256 cases fast.
fn prepared_targets() -> &'static [engine::PreparedTarget] {
    static TARGETS: OnceLock<Vec<engine::PreparedTarget>> = OnceLock::new();
    TARGETS.get_or_init(|| {
        campaign::prepare_all(&campaign::chaos_module(), SEED)
            .expect("chaos module prepares under every target")
    })
}

proptest! {
    /// Any multi-injection plan from any RNG stream classifies cleanly on
    /// every target.
    #[test]
    fn every_plan_yields_exactly_one_outcome(stream in any::<u64>(), index in 0u64..1_000_000) {
        let mut rng = TrialRng::new(stream, index);
        for prepared in prepared_targets() {
            let windows = &prepared.reference.windows;
            let horizon = prepared.reference.instructions;
            let p = plan::generate(&mut rng, 4, windows, horizon);
            let outcome = catch_unwind(AssertUnwindSafe(|| prepared.run_plan(&p)));
            match outcome {
                Ok(_classified) => {} // exactly one TrialOutcome, by type
                Err(_) => prop_assert!(
                    false,
                    "host panic on target {} with plan {:?}",
                    prepared.target.label,
                    p
                ),
            }
        }
    }

    /// The engine itself is deterministic: the same plan on the same
    /// prepared target always classifies identically.
    #[test]
    fn run_plan_is_deterministic(stream in any::<u64>(), index in 0u64..1_000_000) {
        let mut rng = TrialRng::new(stream, index);
        for prepared in prepared_targets() {
            let p = plan::generate(
                &mut rng,
                3,
                &prepared.reference.windows,
                prepared.reference.instructions,
            );
            prop_assert_eq!(prepared.run_plan(&p), prepared.run_plan(&p));
        }
    }

    /// Trials are independent: a plan's outcome on the shared prepared
    /// target, after any number of other plans on this thread (on every
    /// target), equals its outcome on a freshly prepared target run on a
    /// fresh thread, where no earlier trial can have left state behind.
    #[test]
    fn outcome_does_not_depend_on_earlier_trials(
        stream in any::<u64>(),
        index in 0u64..1_000_000,
        earlier in 0usize..6,
    ) {
        let mut rng = TrialRng::new(stream, index);
        for prepared in prepared_targets() {
            let windows = &prepared.reference.windows;
            let horizon = prepared.reference.instructions;
            for _ in 0..earlier {
                prepared.run_plan(&plan::generate(&mut rng, 4, windows, horizon));
            }
            let p = plan::generate(&mut rng, 4, windows, horizon);
            let fresh = std::thread::scope(|s| {
                s.spawn(|| {
                    engine::prepare(prepared.target, &campaign::chaos_module(), SEED)
                        .expect("chaos module prepares")
                        .run_plan(&p)
                })
                .join()
                .expect("fresh trial does not unwind")
            });
            prop_assert_eq!(prepared.run_plan(&p), fresh, "plan {:?}", p);
        }
    }
}
