//! Differential security fuzzing: random adversary writes against a
//! PACStack-protected victim must never reach the gadget — the strongest
//! experimental form of the R1/R2 requirements.
//!
//! At the deployed 16-bit PAC width a random forgery succeeds with
//! probability 2⁻¹⁶ per attempt; seeds are fixed, so a passing run is
//! deterministic.

use pacstack::aarch64::{Cpu, Reg};
use pacstack::attacks::victim::{self, AttackOutcome};
use pacstack::compiler::{lower, FuncDef, Module, Scheme, Stmt};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VICTIM_CHECKPOINT: u16 = 42;
const GADGET_CHECKPOINT: u16 = 99;

fn victim() -> Module {
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![
            Stmt::Call("layer1".into()),
            Stmt::Loop(2, vec![Stmt::Call("layer1".into())]),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "layer1",
        vec![
            Stmt::MemAccess(1),
            Stmt::Call("layer2".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "layer2",
        vec![
            Stmt::Checkpoint(VICTIM_CHECKPOINT),
            Stmt::Call("leafy".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new("leafy", vec![Stmt::Compute(2), Stmt::Return]));
    m.push(FuncDef::new(
        "gadget",
        vec![Stmt::Checkpoint(GADGET_CHECKPOINT), Stmt::Return],
    ));
    m
}

/// One fuzz trial: at the first victim checkpoint, perform `writes` random
/// 8-byte writes into the live stack area (biased toward pointing at the
/// gadget), then resume and classify.
fn fuzz_trial(scheme: Scheme, rng: &mut StdRng, writes: usize) -> AttackOutcome {
    let mut cpu = Cpu::with_seed(lower(&victim(), scheme), rng.gen());
    victim::run_to(&mut cpu, VICTIM_CHECKPOINT).unwrap();

    let gadget = cpu.symbol("gadget").unwrap();
    let sp = cpu.reg(Reg::Sp);
    for _ in 0..writes {
        // Random offset across the live frames (layer2 + layer1 + main).
        let offset = rng.gen_range(0u64..160) & !7;
        let value = if rng.gen_bool(0.7) {
            gadget // try to aim at the gadget
        } else {
            rng.gen() // or scribble noise
        };
        let _ = cpu.mem_mut().write_u64(sp + offset, value);
    }
    victim::outcome(&mut cpu, GADGET_CHECKPOINT)
}

#[test]
fn pacstack_is_never_hijacked_by_random_writes() {
    let mut rng = StdRng::seed_from_u64(0xF022);
    for scheme in [Scheme::PacStack, Scheme::PacStackNomask] {
        let mut crashed = 0;
        for _ in 0..150 {
            let outcome = fuzz_trial(scheme, &mut rng, 3);
            assert_ne!(
                outcome,
                AttackOutcome::Hijacked,
                "{scheme} hijacked by random writes"
            );
            if outcome == AttackOutcome::Crashed {
                crashed += 1;
            }
        }
        // Writes that land on a chain slot (3 of the ~20 candidate slots
        // per write, 3 writes per trial ⇒ ~37% of trials) must crash; the
        // rest hit slots PACStack never reads and pass through harmlessly.
        assert!(crashed > 35, "{scheme}: only {crashed}/150 trials detected");
    }
}

#[test]
fn baseline_is_hijacked_often_under_the_same_fuzzing() {
    // Control experiment: the identical fuzzer against an unprotected
    // binary lands the gadget frequently.
    let mut rng = StdRng::seed_from_u64(0xF022);
    let mut hijacked = 0;
    for _ in 0..150 {
        if fuzz_trial(Scheme::Baseline, &mut rng, 3) == AttackOutcome::Hijacked {
            hijacked += 1;
        }
    }
    assert!(
        hijacked > 30,
        "only {hijacked}/150 baseline trials hijacked — fuzzer too weak"
    );
}

#[test]
fn shadow_call_stack_survives_main_stack_fuzzing() {
    // SCS ignores main-stack writes entirely (its weakness is elsewhere —
    // the shadow region, tested in attack_matrix.rs).
    let mut rng = StdRng::seed_from_u64(0xF023);
    for _ in 0..100 {
        let outcome = fuzz_trial(Scheme::ShadowCallStack, &mut rng, 3);
        assert_ne!(outcome, AttackOutcome::Hijacked);
    }
}
