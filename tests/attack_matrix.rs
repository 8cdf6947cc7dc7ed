//! The qualitative security matrix (paper §2, §6.1, §6.3.1) as assertions:
//! which scheme stops which attack, and how.

use pacstack::attacks::rop::{run_attack, WriteTarget};
use pacstack::attacks::victim::AttackOutcome;
use pacstack::attacks::{gadget, reuse};
use pacstack::compiler::Scheme;

#[test]
fn return_address_overwrite_matrix() {
    use AttackOutcome::*;
    let expected = [
        (Scheme::Baseline, Hijacked),
        (Scheme::StackProtector, Hijacked), // canary misses targeted writes
        (Scheme::PacRet, Crashed),
        (Scheme::ShadowCallStack, Ineffective),
        (Scheme::PacStackNomask, Ineffective), // frame record never loaded
        (Scheme::PacStack, Ineffective),
    ];
    for (scheme, outcome) in expected {
        assert_eq!(
            run_attack(scheme, WriteTarget::SavedReturnAddress),
            Ok(outcome),
            "{scheme} / targeted overwrite"
        );
    }
}

#[test]
fn linear_overflow_matrix() {
    use AttackOutcome::*;
    let expected = [
        (Scheme::Baseline, Hijacked),
        (Scheme::StackProtector, Crashed), // canary catches linear overflow
        (Scheme::PacRet, Crashed),
        (Scheme::ShadowCallStack, Ineffective),
        (Scheme::PacStackNomask, Crashed), // chain slot clobbered en route
        (Scheme::PacStack, Crashed),
    ];
    for (scheme, outcome) in expected {
        assert_eq!(
            run_attack(scheme, WriteTarget::LinearOverflow),
            Ok(outcome),
            "{scheme} / linear overflow"
        );
    }
}

#[test]
fn shadow_stack_location_leak_is_fatal_for_scs_only() {
    assert_eq!(
        run_attack(Scheme::ShadowCallStack, WriteTarget::ShadowStackTop),
        Ok(AttackOutcome::Hijacked)
    );
    // PACStack has no hidden-location dependence at all.
    assert_eq!(
        run_attack(Scheme::PacStack, WriteTarget::ShadowStackTop),
        Ok(AttackOutcome::Ineffective)
    );
}

#[test]
fn reuse_separates_pac_ret_from_pacstack() {
    // §2.2.1/Listing 6: the headline motivation for ACS.
    assert_eq!(
        reuse::run_reuse(Scheme::PacRet, true).map(|r| r.outcome),
        Ok(AttackOutcome::Hijacked)
    );
    assert_eq!(
        reuse::run_reuse(Scheme::PacStack, true).map(|r| r.outcome),
        Ok(AttackOutcome::Ineffective)
    );
    assert_eq!(
        reuse::run_reuse(Scheme::PacStackNomask, true).map(|r| r.outcome),
        Ok(AttackOutcome::Ineffective)
    );
}

#[test]
fn tail_call_gadget_never_hijacks_pacstack() {
    for scheme in [Scheme::PacStack, Scheme::PacStackNomask] {
        assert_eq!(
            gadget::tail_call_gadget_attack(scheme),
            Ok(AttackOutcome::Crashed),
            "{scheme}"
        );
    }
}
