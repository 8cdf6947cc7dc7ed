//! The injection engine: prepared targets, runs segmented at each
//! injection's retire index, classified outcomes.

use crate::plan::{FaultKind, InjectionPlan};
use pacstack_aarch64::kernel::{SignalDelivery, SIGRETURN_SYSCALL};
use pacstack_aarch64::{Cpu, Fault, Instruction, LinkError, Reg, RunStatus};
use pacstack_compiler::{lower, Module, Scheme};
use pacstack_pauth::PaKey;
use pacstack_qarma::Key128;
use pacstack_telemetry as telemetry;
use std::fmt;

/// A protection configuration under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    /// Row label in the coverage matrix.
    pub label: &'static str,
    /// The instrumentation scheme to lower the module under.
    pub scheme: Scheme,
    /// Whether to enable ARMv8.6-A FPAC (fault inside `aut*`).
    pub fpac: bool,
}

/// The four configurations the `repro faults` matrix compares. Under FPAC
/// the masking that hides intermediate authentication tokens is unnecessary
/// (the paper's §5.2 discussion), so the FPAC row uses PACStack-nomask.
pub const TARGETS: [Target; 4] = [
    Target {
        label: "unprotected",
        scheme: Scheme::Baseline,
        fpac: false,
    },
    Target {
        label: "PACStack",
        scheme: Scheme::PacStack,
        fpac: false,
    },
    Target {
        label: "PACStack-nomask",
        scheme: Scheme::PacStackNomask,
        fpac: false,
    },
    Target {
        label: "PACStack+FPAC",
        scheme: Scheme::PacStackNomask,
        fpac: true,
    },
];

/// How one injected trial ended. Every trial ends in exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialOutcome {
    /// The simulated process died with a [`Fault`] — the corruption was
    /// *detected* (the paper's desired failure mode).
    DetectedCrash(Fault),
    /// The process exited normally but with the wrong exit code or output —
    /// undetected corruption, the dangerous quadrant.
    SilentCorruption,
    /// The process produced exactly the reference exit code and output —
    /// the flip was architecturally masked.
    Masked,
    /// The process exceeded its instruction budget.
    Hang,
}

impl fmt::Display for TrialOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrialOutcome::DetectedCrash(fault) => write!(f, "detected ({fault})"),
            TrialOutcome::SilentCorruption => f.write_str("silent"),
            TrialOutcome::Masked => f.write_str("masked"),
            TrialOutcome::Hang => f.write_str("hang"),
        }
    }
}

/// Why a target could not be prepared (distinct from trial outcomes:
/// preparation failures mean the *harness* is misconfigured).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosError {
    /// The lowered program did not link.
    Link(LinkError),
    /// The uninjected reference run did not exit cleanly.
    Reference(Fault),
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Link(e) => write!(f, "target program does not link: {e}"),
            ChaosError::Reference(fault) => {
                write!(f, "reference run did not exit cleanly: {fault}")
            }
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<LinkError> for ChaosError {
    fn from(e: LinkError) -> Self {
        ChaosError::Link(e)
    }
}

/// Golden behaviour of the uninjected program, plus the retire-index
/// windows where return-address state is live in registers.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Exit code of the clean run.
    pub exit_code: u64,
    /// `svc #1` emissions of the clean run.
    pub output: Vec<u64>,
    /// Retired instructions of the clean run.
    pub instructions: u64,
    /// Retire indices about to execute a PA instruction, call or return —
    /// the prologue/epilogue windows plans bias injections toward.
    pub windows: Vec<u64>,
}

/// A target compiled, seeded and profiled, ready for injected trials.
/// Each trial runs on a clone of the base CPU, which shares the linked
/// program and copies only the memory pages the base has written: the
/// clone and its drop cost O(written span), not O(mapped size).
#[derive(Debug, Clone)]
pub struct PreparedTarget {
    /// The configuration this was prepared for.
    pub target: Target,
    /// Golden behaviour and injection windows.
    pub reference: Reference,
    base: Cpu,
    handler: u64,
    budget: u64,
}

/// Name of the signal handler the engine appends to every lowered program.
const SIG_HANDLER: &str = "chaos_sig_handler";

/// Whether the upcoming instruction opens a prologue/epilogue window:
/// pointer-auth activity, a call, or a return.
fn is_window(insn: Instruction) -> bool {
    insn.is_pointer_auth()
        || matches!(
            insn,
            Instruction::Bl(_) | Instruction::Blr(_) | Instruction::Ret
        )
}

/// Lowers `module` under the target's scheme, appends the chaos signal
/// handler, seeds the PA keys, and records the reference run.
///
/// # Errors
///
/// [`ChaosError::Link`] if the program does not assemble;
/// [`ChaosError::Reference`] if the clean run faults, times out, or stops
/// on an unexpected syscall.
pub fn prepare(target: Target, module: &Module, seed: u64) -> Result<PreparedTarget, ChaosError> {
    let mut program = lower(module, target.scheme);
    // The handler a spurious signal lands in: immediately requests
    // sigreturn, so an *uncorrupted* signal round-trip is behaviour-
    // preserving and any deviation is attributable to the injection.
    program.function(SIG_HANDLER, vec![Instruction::Svc(SIGRETURN_SYSCALL)]);

    let mut base = Cpu::try_with_seed(program, seed)?;
    if target.fpac {
        base.enable_fpac();
    }
    let handler = base
        .symbol(SIG_HANDLER)
        .ok_or(Fault::NoSuchSymbol)
        .map_err(ChaosError::Reference)?;

    // Reference run on a clone of the base, collecting windows as we go.
    let mut cpu = base.clone();
    let mut windows = Vec::new();
    const REFERENCE_CEILING: u64 = 4_000_000;
    let clean = cpu.run_observed(REFERENCE_CEILING, |cpu, insn| {
        if is_window(insn) {
            windows.push(cpu.instructions() - 1);
        }
    });
    let reference = match clean.map(|out| out.status) {
        Ok(RunStatus::Exited(exit_code)) => Reference {
            exit_code,
            output: cpu.output().to_vec(),
            instructions: cpu.instructions(),
            windows,
        },
        // The clean program must not raise syscalls the engine would have
        // to interpret; that would make classification ambiguous.
        Ok(RunStatus::Syscall(_)) => {
            return Err(ChaosError::Reference(Fault::SigreturnViolation));
        }
        Err(fault) => return Err(ChaosError::Reference(fault)),
    };

    // Budget: generous multiple of the clean run, so only genuine
    // divergence (e.g. a flipped loop counter) classifies as Hang.
    let budget = reference.instructions.saturating_mul(4) + 4096;
    Ok(PreparedTarget {
        target,
        reference,
        base,
        handler,
        budget,
    })
}

/// Applies one perturbation to the live CPU. Returns a fault only for
/// signal delivery that the kernel model itself rejects (e.g. the frame
/// write faulted because SP was already corrupted).
fn apply(
    cpu: &mut Cpu,
    signals: &mut SignalDelivery,
    handler: u64,
    kind: FaultKind,
) -> Result<(), Fault> {
    match kind {
        FaultKind::RegFlip { reg, mask } => {
            let v = cpu.reg(reg);
            cpu.set_reg(reg, v ^ mask);
        }
        FaultKind::StackFlip { slot, mask } => {
            let addr = cpu.reg(Reg::Sp).wrapping_add(8 * slot);
            // A flip landing on unmapped memory latches nothing.
            if let Ok(v) = cpu.mem().read_u64(addr) {
                let _ = cpu.mem_mut().write_u64(addr, v ^ mask);
            }
        }
        FaultKind::KeyFlip {
            key_index,
            mask_w0,
            mask_k0,
        } => {
            let key = PaKey::ALL[key_index % PaKey::ALL.len()];
            let mut keys = cpu.keys().clone();
            let old = keys.key(key);
            keys.set_key(key, Key128::new(old.w0() ^ mask_w0, old.k0() ^ mask_k0));
            cpu.corrupt_keys(keys);
        }
        FaultKind::KeyZero => {
            let mut keys = cpu.keys().clone();
            for key in PaKey::ALL {
                keys.set_key(key, Key128::new(0, 0));
            }
            cpu.corrupt_keys(keys);
        }
        FaultKind::InsnSkip => {
            let pc = cpu.pc();
            cpu.set_pc(pc.wrapping_add(4));
        }
        FaultKind::Signal => {
            signals.deliver(cpu, handler)?;
        }
    }
    Ok(())
}

impl PreparedTarget {
    /// Runs one injected trial to its classified outcome. Never panics:
    /// every termination path maps to a [`TrialOutcome`].
    ///
    /// The trial runs on a fresh clone of the prepared base CPU, so its
    /// outcome does not depend on any earlier trial. End-of-trial telemetry
    /// records the outcome counts, the fault attribution, the cycle-latency
    /// histogram and the CPU's own counter deltas, all in the
    /// simulated-cycle domain, so campaign telemetry is as
    /// thread-count-independent as the outcomes themselves.
    pub fn run_plan(&self, plan: &InjectionPlan) -> TrialOutcome {
        let mut cpu = self.base.clone();
        let outcome = self.trial_loop(&mut cpu, plan);
        if telemetry::enabled() {
            telemetry::counter(trials_counter(outcome), 1);
            if let TrialOutcome::DetectedCrash(fault) = outcome {
                telemetry::counter(detected_counter(&fault), 1);
            }
            telemetry::observe_cycles("chaos_trial_cycles", cpu.cycles());
            cpu.publish_telemetry();
        }
        outcome
    }

    fn trial_loop(&self, cpu: &mut Cpu, plan: &InjectionPlan) -> TrialOutcome {
        let mut signals = SignalDelivery::new();
        let mut pending = plan.injections.as_slice();

        loop {
            // Fire every injection scheduled at or before this retire index
            // (triggers past the actual exit simply never fire — the
            // process was gone before the glitch landed).
            while let Some(injection) = pending.first() {
                if injection.at > cpu.instructions() {
                    break;
                }
                pending = &pending[1..];
                if telemetry::enabled() {
                    // `windows` is in retire order, so occupancy is a
                    // binary search: did the glitch land on a retire index
                    // where return-address state was live?
                    let occupied = self.reference.windows.binary_search(&injection.at).is_ok();
                    telemetry::counter(
                        if occupied {
                            "chaos_injections_total{window=\"in\"}"
                        } else {
                            "chaos_injections_total{window=\"out\"}"
                        },
                        1,
                    );
                }
                if let Err(fault) = apply(cpu, &mut signals, self.handler, injection.kind) {
                    return TrialOutcome::DetectedCrash(fault);
                }
            }

            if cpu.instructions() >= self.budget {
                return TrialOutcome::Hang;
            }

            // Run to the next injection's retire index (or the budget); a
            // `Timeout` there is only the pause before it.
            let stop = pending.first().map_or(self.budget, |next| next.at);
            let segment = cpu.run_observed(stop.min(self.budget) - cpu.instructions(), |_, _| {});
            match segment.map(|out| out.status) {
                Err(Fault::Timeout) => {}
                Ok(RunStatus::Exited(code)) => {
                    let reference = &self.reference;
                    return if code == reference.exit_code && cpu.output() == reference.output {
                        TrialOutcome::Masked
                    } else {
                        TrialOutcome::SilentCorruption
                    };
                }
                Ok(RunStatus::Syscall(SIGRETURN_SYSCALL)) => {
                    if let Err(fault) = signals.sigreturn(cpu) {
                        return TrialOutcome::DetectedCrash(fault);
                    }
                }
                // No other syscall exists in the lowered image; control
                // flow wild enough to reach one is corruption.
                Ok(RunStatus::Syscall(_)) => return TrialOutcome::SilentCorruption,
                Err(fault) => return TrialOutcome::DetectedCrash(fault),
            }
        }
    }

    /// The per-trial instruction budget Hang is judged against.
    pub fn budget(&self) -> u64 {
        self.budget
    }
}

/// The `chaos_trials_total` counter a trial ending in `outcome` bumps.
fn trials_counter(outcome: TrialOutcome) -> &'static str {
    match outcome {
        TrialOutcome::DetectedCrash(_) => "chaos_trials_total{outcome=\"detected\"}",
        TrialOutcome::SilentCorruption => "chaos_trials_total{outcome=\"silent\"}",
        TrialOutcome::Masked => "chaos_trials_total{outcome=\"masked\"}",
        TrialOutcome::Hang => "chaos_trials_total{outcome=\"hang\"}",
    }
}

/// The `chaos_detected_total` counter a trial detected by `fault` bumps.
fn detected_counter(fault: &Fault) -> &'static str {
    match fault {
        Fault::TranslationFault { .. } => "chaos_detected_total{fault=\"translation\"}",
        Fault::AccessFault { .. } => "chaos_detected_total{fault=\"access\"}",
        Fault::PermissionFault { .. } => "chaos_detected_total{fault=\"permission\"}",
        Fault::FetchFault { .. } => "chaos_detected_total{fault=\"fetch\"}",
        Fault::PacFault { .. } => "chaos_detected_total{fault=\"pac\"}",
        Fault::Timeout => "chaos_detected_total{fault=\"timeout\"}",
        Fault::SigreturnViolation => "chaos_detected_total{fault=\"sigreturn\"}",
        Fault::KeyFault { .. } => "chaos_detected_total{fault=\"key\"}",
        Fault::NoSuchSymbol => "chaos_detected_total{fault=\"no-symbol\"}",
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::campaign::chaos_module;
    use crate::plan::InjectionPlan;

    #[test]
    fn static_counter_names_keep_their_published_bytes() {
        let kinds = [
            (Fault::TranslationFault { addr: 1 }, "translation"),
            (Fault::AccessFault { addr: 1 }, "access"),
            (Fault::PermissionFault { addr: 1 }, "permission"),
            (Fault::FetchFault { pc: 1 }, "fetch"),
            (Fault::PacFault { pointer: 1 }, "pac"),
            (Fault::Timeout, "timeout"),
            (Fault::SigreturnViolation, "sigreturn"),
            (Fault::KeyFault { pointer: 1 }, "key"),
            (Fault::NoSuchSymbol, "no-symbol"),
        ];
        for (fault, kind) in kinds {
            let expected = format!("chaos_detected_total{{fault=\"{kind}\"}}");
            assert_eq!(detected_counter(&fault), expected);
        }
        let outcomes = [
            (TrialOutcome::DetectedCrash(Fault::Timeout), "detected"),
            (TrialOutcome::SilentCorruption, "silent"),
            (TrialOutcome::Masked, "masked"),
            (TrialOutcome::Hang, "hang"),
        ];
        for (outcome, label) in outcomes {
            let expected = format!("chaos_trials_total{{outcome=\"{label}\"}}");
            assert_eq!(trials_counter(outcome), expected);
        }
    }

    fn prepared(label: &str) -> PreparedTarget {
        let target = *TARGETS.iter().find(|t| t.label == label).unwrap();
        prepare(target, &chaos_module(), 0xFEED).unwrap()
    }

    #[test]
    fn empty_plan_is_masked_for_every_target() {
        for target in TARGETS {
            let p = prepare(target, &chaos_module(), 0xFEED).unwrap();
            assert_eq!(
                p.run_plan(&InjectionPlan::default()),
                TrialOutcome::Masked,
                "{}",
                target.label
            );
        }
    }

    #[test]
    fn reference_runs_collect_windows() {
        let p = prepared("PACStack");
        assert!(p.reference.instructions > 0);
        assert!(!p.reference.windows.is_empty());
        assert!(p.budget() > p.reference.instructions);
    }

    #[test]
    fn uninjected_signal_round_trip_is_masked() {
        // A spurious signal with an honest sigreturn preserves behaviour.
        for target in TARGETS {
            let p = prepare(target, &chaos_module(), 0xFEED).unwrap();
            let mid = p.reference.instructions / 2;
            let plan = InjectionPlan::single(mid, FaultKind::Signal);
            assert_eq!(p.run_plan(&plan), TrialOutcome::Masked, "{}", target.label);
        }
    }

    #[test]
    fn key_zero_mid_chain_is_detected_under_pacstack() {
        let p = prepared("PACStack");
        // Zero the keys in the middle of the run, while the chain is live.
        let mid = p.reference.instructions / 2;
        let plan = InjectionPlan::single(mid, FaultKind::KeyZero);
        match p.run_plan(&plan) {
            TrialOutcome::DetectedCrash(fault) => {
                assert!(matches!(fault, Fault::KeyFault { .. }), "got {fault}");
            }
            other => panic!("expected a detected crash, got {other}"),
        }
    }

    #[test]
    fn key_flip_is_never_masked_by_the_pac_memo_cache() {
        // Regression for the PAC memo cache: corrupting a key register
        // mid-run must invalidate every cached MAC, so the next `aut*`
        // recomputes under the glitched keys and attributes the failure to
        // them. A stale cache hit would instead report Masked — the cache
        // silently bridging a hardware fault.
        let p = prepared("PACStack");
        let mid = p.reference.instructions / 2;
        let plan = InjectionPlan::single(
            mid,
            FaultKind::KeyFlip {
                key_index: 0, // IA — the key PACStack signs with
                mask_w0: 1,
                mask_k0: 0,
            },
        );
        match p.run_plan(&plan) {
            TrialOutcome::DetectedCrash(fault) => {
                assert!(matches!(fault, Fault::KeyFault { .. }), "got {fault}");
            }
            other => panic!("expected a detected KeyFault crash, got {other}"),
        }
    }

    #[test]
    fn cr_flip_faults_under_pacstack() {
        let p = prepared("PACStack");
        // Flip a low bit of CR right at a window: the chained MAC check
        // must eventually fail and the corrupted pointer fault on use.
        let at = p.reference.windows[p.reference.windows.len() / 2];
        let plan = InjectionPlan::single(
            at,
            FaultKind::RegFlip {
                reg: Reg::CR,
                mask: 1 << 3,
            },
        );
        assert!(matches!(p.run_plan(&plan), TrialOutcome::DetectedCrash(_)));
    }

    /// Oracle trial loop that retires one instruction per step: fire the due
    /// injections, check the budget, retire exactly one instruction.
    fn single_step_trial(p: &PreparedTarget, cpu: &mut Cpu, plan: &InjectionPlan) -> TrialOutcome {
        let mut signals = SignalDelivery::new();
        let mut pending = plan.injections.as_slice();
        loop {
            while let Some(injection) = pending.first() {
                if injection.at > cpu.instructions() {
                    break;
                }
                pending = &pending[1..];
                if let Err(fault) = apply(cpu, &mut signals, p.handler, injection.kind) {
                    return TrialOutcome::DetectedCrash(fault);
                }
            }
            if cpu.instructions() >= p.budget {
                return TrialOutcome::Hang;
            }
            match cpu.run_observed(1, |_, _| {}).map(|out| out.status) {
                Err(Fault::Timeout) => {}
                Ok(RunStatus::Exited(code)) => {
                    let reference = &p.reference;
                    return if code == reference.exit_code && cpu.output() == reference.output {
                        TrialOutcome::Masked
                    } else {
                        TrialOutcome::SilentCorruption
                    };
                }
                Ok(RunStatus::Syscall(SIGRETURN_SYSCALL)) => {
                    if let Err(fault) = signals.sigreturn(cpu) {
                        return TrialOutcome::DetectedCrash(fault);
                    }
                }
                Ok(RunStatus::Syscall(_)) => return TrialOutcome::SilentCorruption,
                Err(fault) => return TrialOutcome::DetectedCrash(fault),
            }
        }
    }

    /// Oracle reference windows: peek at each upcoming instruction with
    /// `instruction_at`, then retire it alone.
    fn single_step_windows(p: &PreparedTarget) -> Vec<u64> {
        let mut cpu = p.base.clone();
        let mut windows = Vec::new();
        loop {
            if cpu.instruction_at(cpu.pc()).is_some_and(is_window) {
                windows.push(cpu.instructions());
            }
            match cpu.run_observed(1, |_, _| {}) {
                Err(Fault::Timeout) => {}
                Ok(_) => break,
                Err(fault) => panic!("clean run faulted: {fault}"),
            }
        }
        assert_eq!(cpu.instructions(), p.reference.instructions);
        windows
    }

    #[test]
    fn segmented_trials_match_the_single_step_oracle() {
        use crate::plan::{generate_kind, generate_trigger, FaultClass, Injection};
        use pacstack_exec::TrialRng;
        use rand::Rng;

        for (t_idx, target) in TARGETS.into_iter().enumerate() {
            let p = prepare(target, &chaos_module(), 0xFEED).unwrap();
            assert_eq!(
                single_step_windows(&p),
                p.reference.windows,
                "{}",
                target.label
            );
            // Triggers run a little past the clean exit, so some never fire.
            let horizon = p.reference.instructions + 16;
            let mut rng = TrialRng::new(0x0AC1E, t_idx as u64);
            let mut seen = [false; FaultClass::ALL.len()];
            for i in 0..256 {
                // One to three injections; the first cycles through every
                // class, the others are drawn at random.
                let count = 1 + i % 3;
                let mut injections: Vec<Injection> = (0..count)
                    .map(|k| {
                        let class = if k == 0 {
                            i % FaultClass::ALL.len()
                        } else {
                            rng.gen_range(0..FaultClass::ALL.len() as u32) as usize
                        };
                        seen[class] = true;
                        Injection {
                            at: generate_trigger(&mut rng, &p.reference.windows, horizon),
                            kind: generate_kind(FaultClass::ALL[class], &mut rng),
                        }
                    })
                    .collect();
                injections.sort_by_key(|injection| injection.at);
                let plan = InjectionPlan { injections };

                let mut oracle = p.base.clone();
                let expected = single_step_trial(&p, &mut oracle, &plan);
                let mut segmented = p.base.clone();
                let outcome = p.trial_loop(&mut segmented, &plan);
                let context = format!("{} plan {i}: {plan:?}", target.label);
                assert_eq!(outcome, expected, "{context}");
                assert_eq!(p.run_plan(&plan), expected, "{context}");
                assert_eq!(segmented.cycles(), oracle.cycles(), "{context}");
                assert_eq!(segmented.instructions(), oracle.instructions(), "{context}");
            }
            assert!(seen.iter().all(|&s| s), "{}", target.label);
        }
    }

    #[test]
    fn outcome_display_is_stable() {
        assert_eq!(TrialOutcome::Masked.to_string(), "masked");
        assert_eq!(TrialOutcome::Hang.to_string(), "hang");
        assert_eq!(TrialOutcome::SilentCorruption.to_string(), "silent");
        assert!(TrialOutcome::DetectedCrash(Fault::Timeout)
            .to_string()
            .starts_with("detected"));
    }
}
