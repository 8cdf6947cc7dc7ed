//! Stack unwinding over the simulator (paper §5 and §9.1).
//!
//! Two unwinders, mirroring the paper's compatibility story:
//!
//! * [`backtrace`] walks the conventional frame-pointer chain and reads the
//!   plain return addresses from the frame records. PACStack leaves those
//!   records untouched precisely so that debuggers "can backtrace the
//!   call-stack without knowledge of PACStack" (§5) — but nothing here is
//!   authenticated, so a tampered record yields a wrong (not detected)
//!   backtrace.
//! * [`validated_backtrace`] is the §9.1 proposal: a libunwind-style walker
//!   that re-verifies each ACS chain link frame by frame, detecting any
//!   corruption along the way. It needs the (kernel-held) PA keys and the
//!   live chain register, so only a trusted runtime can use it.

use crate::frame;
use pacstack_aarch64::{Cpu, Reg};
use pacstack_acs::Masking;
use pacstack_pauth::PaKey;

/// Maximum frames walked before assuming a corrupt (cyclic) FP chain.
pub const MAX_FRAMES: usize = 4096;

/// Walks the frame-pointer chain, returning the saved return addresses from
/// innermost to outermost — what a debugger does.
///
/// Stops at the first null frame pointer, unreadable record, or after
/// [`MAX_FRAMES`] records (a corrupt chain).
pub fn backtrace(cpu: &Cpu) -> Vec<u64> {
    let mut rets = Vec::new();
    let mut fp = cpu.reg(Reg::FP);
    while fp != 0 && rets.len() < MAX_FRAMES {
        let Ok(lr) = cpu.mem().read_u64(fp + 8) else {
            break;
        };
        let Ok(next_fp) = cpu.mem().read_u64(fp) else {
            break;
        };
        rets.push(lr);
        fp = next_fp;
    }
    rets
}

/// A broken link found by the validating unwinder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnwindViolation {
    /// Index of the frame (0 = innermost) whose link failed to verify.
    pub frame_index: usize,
    /// The chain value that failed authentication.
    pub bad_link: u64,
}

impl std::fmt::Display for UnwindViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ACS chain broken at frame {} (link {:#018x})",
            self.frame_index, self.bad_link
        )
    }
}

impl std::error::Error for UnwindViolation {}

/// Where a walk down the ACS chain stands: the frame record `fp` addresses
/// and the chain value `cr` live in that frame.
struct ChainWalk {
    cr: u64,
    fp: u64,
}

/// Why [`ChainWalk::step`] could not pop a frame: its chain slot is
/// unreadable, its record is unreadable after the link authenticated the
/// return address `Record` holds, or the stored chain value `Link` holds
/// failed authentication.
enum Broken {
    Slot,
    Record(u64),
    Link(u64),
}

impl ChainWalk {
    fn start(cpu: &Cpu) -> Self {
        let (cr, fp) = (cpu.reg(Reg::CR), cpu.reg(Reg::FP));
        Self { cr, fp }
    }

    /// Authenticates the current frame's return address against the chain
    /// value stored in the frame, then steps to the caller's frame.
    fn step(&mut self, cpu: &Cpu, masking: Masking) -> Result<u64, Broken> {
        let (pa, keys, mem) = (cpu.pa(), cpu.keys(), cpu.mem());
        // The chain slot sits at the frame base, FP_SLOT bytes below the
        // frame record the frame pointer addresses.
        let slot = self.fp.wrapping_sub(frame::FP_SLOT as u64) + frame::CHAIN_SLOT as u64;
        let prev = mem.read_u64(slot).map_err(|_| Broken::Slot)?;
        let lr = match masking {
            Masking::Masked => self.cr ^ pa.pac(keys, PaKey::Ia, 0, prev),
            Masking::Unmasked => self.cr,
        };
        let ret = pa
            .aut(keys, PaKey::Ia, lr, prev)
            .map_err(|_| Broken::Link(prev))?;
        let fp = mem.read_u64(self.fp).map_err(|_| Broken::Record(ret))?;
        *self = Self { cr: prev, fp };
        Ok(ret)
    }
}

/// Walks and *verifies* the ACS chain of a PACStack-instrumented process
/// suspended inside an instrumented function, returning the authenticated
/// return addresses from innermost to outermost (paper §9.1).
///
/// `masking` must match the scheme the binary was compiled with
/// ([`Masking::Masked`] for full PACStack, [`Masking::Unmasked`] for
/// PACStack-nomask). The walk ends at a null frame pointer, an unreadable
/// frame, or after [`MAX_FRAMES`] frames.
///
/// # Errors
///
/// Returns [`UnwindViolation`] at the first chain link that fails
/// authentication — exactly the detection a validating `longjmp` or C++
/// exception unwinder would perform before transferring control.
pub fn validated_backtrace(cpu: &Cpu, masking: Masking) -> Result<Vec<u64>, UnwindViolation> {
    let mut walk = ChainWalk::start(cpu);
    let mut rets = Vec::new();
    while walk.fp != 0 && rets.len() < MAX_FRAMES {
        match walk.step(cpu, masking) {
            Ok(ret) => rets.push(ret),
            Err(Broken::Slot) => break,
            Err(Broken::Record(ret)) => {
                rets.push(ret);
                break;
            }
            Err(Broken::Link(bad_link)) => {
                return Err(UnwindViolation {
                    frame_index: rets.len(),
                    bad_link,
                })
            }
        }
    }
    Ok(rets)
}

/// Unwinds the *live* CPU state frame by frame with chain verification
/// until the frame whose record sits at `target_fp` becomes the active
/// frame — the §9.1 proposal applied to C++-style exception propagation:
/// every intermediate link is authenticated before control is transferred,
/// so an exception can never be made to "unwind through" a corrupted
/// frame.
///
/// On success the CPU is left as if every intermediate function had
/// returned normally: `PC` at the saved return address of the last popped
/// frame, `SP`/`FP`/`CR` restored. The caller (a modelled language
/// runtime) then transfers control into the handler.
///
/// # Errors
///
/// Returns [`UnwindViolation`] and leaves the CPU untouched if any link on
/// the way to `target_fp` fails to verify (`bad_link` is the frame pointer
/// of a frame that cannot be read), or if `target_fp` is not on the
/// frame-pointer chain (`bad_link` is `target_fp`).
pub fn unwind_to_frame(
    cpu: &mut Cpu,
    masking: Masking,
    target_fp: u64,
) -> Result<(), UnwindViolation> {
    // Dry-run first: validate every link up to the target without mutating.
    let mut walk = ChainWalk::start(cpu);
    let mut popped = 0;
    let mut last_ret = None;
    while walk.fp != target_fp {
        let violation = |bad_link| UnwindViolation {
            frame_index: popped,
            bad_link,
        };
        if walk.fp == 0 || popped == MAX_FRAMES {
            return Err(violation(target_fp));
        }
        let fp = walk.fp;
        last_ret = Some(walk.step(cpu, masking).map_err(|broken| match broken {
            Broken::Link(prev) => violation(prev),
            Broken::Slot | Broken::Record(_) => violation(fp),
        })?);
        popped += 1;
    }

    // Commit: pop the validated frames on the real state.
    let Some(last_ret) = last_ret else {
        return Ok(()); // already at the target frame
    };
    cpu.set_reg(Reg::CR, walk.cr);
    cpu.set_reg(Reg::FP, target_fp);
    // SP returns to the target frame's base, FP_SLOT below its record. The
    // lowering's epilogues compute the caller's SP from their immediates;
    // the runtime recovers it from the target frame's own base instead.
    let target_base = target_fp - frame::FP_SLOT as u64;
    cpu.set_reg(Reg::Sp, target_base);
    cpu.set_pc(last_ret);
    Ok(())
}

/// The masking variant used by a scheme's lowering, if it is a PACStack
/// variant at all.
pub fn masking_of(scheme: crate::Scheme) -> Option<Masking> {
    match scheme {
        crate::Scheme::PacStack => Some(Masking::Masked),
        crate::Scheme::PacStackNomask => Some(Masking::Unmasked),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::{lower, FuncDef, Module, Scheme, Stmt};
    use pacstack_aarch64::RunStatus;

    fn suspended_cpu(scheme: Scheme) -> Cpu {
        let mut m = Module::new();
        m.push(FuncDef::new(
            "main",
            vec![Stmt::Call("level1".into()), Stmt::Return],
        ));
        m.push(FuncDef::new(
            "level1",
            vec![Stmt::Call("level2".into()), Stmt::Return],
        ));
        m.push(FuncDef::new(
            "level2",
            vec![
                Stmt::Checkpoint(60),
                Stmt::Call("noop".into()),
                Stmt::Return,
            ],
        ));
        m.push(FuncDef::new("noop", vec![Stmt::Compute(1), Stmt::Return]));
        let mut cpu = Cpu::with_seed(lower(&m, scheme), 17);
        let out = cpu.run(100_000).unwrap();
        assert_eq!(out.status, RunStatus::Syscall(60));
        cpu
    }

    #[test]
    fn debugger_backtrace_works_under_every_scheme() {
        for scheme in Scheme::ALL {
            let cpu = suspended_cpu(scheme);
            let rets = backtrace(&cpu);
            // Three frame records: level2's, level1's, main's.
            assert_eq!(rets.len(), 3, "{scheme}: {rets:x?}");
            // Each return address lies in the code segment (for PA schemes
            // the *record* holds the plain address — the compat claim).
            let strip = |x: u64| cpu.pa().strip(x);
            for ret in &rets {
                let plain = strip(*ret);
                assert!(
                    (0x40_0000..0x50_0000).contains(&plain),
                    "{scheme}: {ret:#x} not a code address"
                );
            }
        }
    }

    #[test]
    fn frame_records_hold_plain_addresses_under_pacstack() {
        // §5: PACStack does not modify the frame record.
        let cpu = suspended_cpu(Scheme::PacStack);
        for ret in backtrace(&cpu) {
            assert!(
                cpu.pa().layout().is_canonical(ret),
                "{ret:#x} carries a PAC"
            );
        }
    }

    #[test]
    fn validated_backtrace_matches_plain_backtrace() {
        for (scheme, masking) in [
            (Scheme::PacStack, Masking::Masked),
            (Scheme::PacStackNomask, Masking::Unmasked),
        ] {
            let cpu = suspended_cpu(scheme);
            let plain = backtrace(&cpu);
            let validated = validated_backtrace(&cpu, masking).expect("intact chain verifies");
            assert_eq!(validated, plain, "{scheme}");
        }
    }

    #[test]
    fn validated_backtrace_detects_what_debugger_backtrace_misses() {
        let mut cpu = suspended_cpu(Scheme::PacStack);
        // Corrupt the *chain slot* of the middle frame: the frame records
        // (and hence the debugger view) are untouched.
        let fp = cpu.reg(Reg::FP);
        let level1_record = cpu.mem().read_u64(fp).unwrap();
        let level1_chain = level1_record - frame::FP_SLOT as u64 + frame::CHAIN_SLOT as u64;
        let original = cpu.mem().read_u64(level1_chain).unwrap();
        cpu.mem_mut()
            .write_u64(level1_chain, original ^ 0x8)
            .unwrap();

        assert_eq!(backtrace(&cpu).len(), 3, "debugger view unchanged");
        let violation = validated_backtrace(&cpu, Masking::Masked).unwrap_err();
        assert_eq!(violation.frame_index, 1);
    }

    #[test]
    fn tampered_frame_record_fools_debugger_but_not_the_chain() {
        let mut cpu = suspended_cpu(Scheme::PacStack);
        let fp = cpu.reg(Reg::FP);
        cpu.mem_mut().write_u64(fp + 8, 0x41_4141).unwrap(); // fake LR in record
        let plain = backtrace(&cpu);
        assert_eq!(plain[0], 0x41_4141, "debugger believes the forgery");
        // The validated walk ignores frame-record LRs entirely.
        let validated = validated_backtrace(&cpu, Masking::Masked).unwrap();
        assert_ne!(validated[0], 0x41_4141);
    }

    #[test]
    fn masking_of_maps_schemes() {
        assert_eq!(masking_of(Scheme::PacStack), Some(Masking::Masked));
        assert_eq!(masking_of(Scheme::PacStackNomask), Some(Masking::Unmasked));
        assert_eq!(masking_of(Scheme::Baseline), None);
    }
}
