//! The ACS state machine: chained signing on call, verification on return.

use crate::{AcsConfig, AcsViolation, JmpBuf, Masking};
use pacstack_pauth::{PaKey, PaKeys, PointerAuth};
use pacstack_telemetry as telemetry;

/// The key every chain link, `setjmp` binding and check uses: instruction
/// key A, as the lowered PACStack code signs with `pacia`/`autia`.
const KEY: PaKey = PaKey::Ia;

/// One activation frame as it appears in attacker-visible stack memory.
///
/// PACStack stores the previous chain link in a dedicated stack slot and
/// keeps the unmodified frame record (with the plain return address) for
/// debugger compatibility — but never *loads* the latter. Both fields are
/// writable by the modelled adversary; only `stored_chain` affects control
/// flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frame {
    /// The spilled chain register: `aret_{i-1}` (masked if masking is on).
    pub stored_chain: u64,
    /// The plain return address in the conventional frame record (unused by
    /// PACStack; present for backtrace compatibility, paper §5).
    pub frame_record_ret: u64,
}

/// An authenticated call stack: the paper's ACS construction as a pure state
/// machine.
///
/// The chain register (`CR`) lives inside this struct and is *not* part of
/// the attacker-accessible surface; the per-frame stack slots are (see
/// [`AuthenticatedCallStack::frames_mut`]).
///
/// # Examples
///
/// Detecting a corrupted chain slot:
///
/// ```
/// use pacstack_acs::{AcsConfig, AuthenticatedCallStack};
/// use pacstack_pauth::{PaKeys, PointerAuth, VaLayout};
///
/// let pa = PointerAuth::new(VaLayout::default());
/// let mut acs = AuthenticatedCallStack::new(pa, PaKeys::from_seed(3), AcsConfig::default());
/// acs.call(0x40_1000);
/// acs.call(0x40_2000);
/// acs.frames_mut()[1].stored_chain ^= 0xFF; // adversary tampers the stack
/// assert!(acs.ret().is_err()); // detected on unwind
/// ```
#[derive(Debug, Clone)]
pub struct AuthenticatedCallStack {
    pa: PointerAuth,
    keys: PaKeys,
    config: AcsConfig,
    /// The chain register CR — holds `aret_n` (masked form when masking).
    cr: u64,
    frames: Vec<Frame>,
}

impl AuthenticatedCallStack {
    /// Creates an empty chain seeded with `config.initial_chain()`.
    pub fn new(pa: PointerAuth, keys: PaKeys, config: AcsConfig) -> Self {
        Self {
            pa,
            keys,
            config,
            cr: config.initial_chain(),
            frames: Vec::new(),
        }
    }

    /// Current call depth (`n + 1` active records, 0 when empty).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The configuration this chain was built with.
    pub fn config(&self) -> &AcsConfig {
        &self.config
    }

    /// The pointer-authentication unit in use.
    pub fn pa(&self) -> &PointerAuth {
        &self.pa
    }

    /// The PA keys in use (kernel-owned in the threat model; exposed for
    /// trusted harness code only).
    pub fn keys(&self) -> &PaKeys {
        &self.keys
    }

    /// The current chain-register value `aret_n`.
    ///
    /// **Threat-model note**: CR is a reserved register the adversary can
    /// neither read nor write; this accessor exists for trusted harnesses
    /// and tests, not for attack code.
    pub fn chain_register(&self) -> u64 {
        self.cr
    }

    /// The attacker-*readable* view of stack memory.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// The attacker-*writable* view of stack memory: an adversary with a
    /// memory-corruption primitive may rewrite any slot.
    pub fn frames_mut(&mut self) -> &mut [Frame] {
        &mut self.frames
    }

    /// The two values one chain link needs under `modifier` (the previous
    /// link `aret_{i-1}`): the compact MAC `H_K(pointer, modifier)` and the
    /// masking pad `H_K(0, modifier)` already placed in the PAC field, as
    /// the signed null pointer `pac(0, modifier)` carries it.
    ///
    /// Masked chains compute both MACs in one paired QARMA pass
    /// ([`PointerAuth::compute_pac_pair`]); unmasked chains run a single
    /// encrypt and get a zero pad. The MAC ignores `pointer`'s PAC field,
    /// so a caller may pass a pointer whose field still holds the pad.
    fn macs(&self, pointer: u64, modifier: u64) -> (u64, u64) {
        match self.config.masking_mode() {
            Masking::Masked => {
                let (mac, pad) = self
                    .pa
                    .compute_pac_pair(&self.keys, KEY, pointer, 0, modifier);
                (mac, self.pa.layout().insert_pac(0, pad))
            }
            Masking::Unmasked => (self.pa.compute_pac(&self.keys, KEY, pointer, modifier), 0),
        }
    }

    /// Computes the (possibly masked) authenticated return address for
    /// `ret` chained onto `prev` — the value CR holds after a call.
    ///
    /// Exposed so attack simulations can enumerate legitimately observable
    /// tokens without driving a full call sequence.
    pub fn aret(&self, ret: u64, prev: u64) -> u64 {
        let (mac, pad) = self.macs(ret, prev);
        self.pa.sign_with_pac(mac, ret) ^ pad
    }

    /// Function-entry instrumentation (paper Listing 2/3 prologue):
    /// spills `aret_{i-1}` to the stack and sets `CR ← aret_i`.
    pub fn call(&mut self, ret: u64) {
        if telemetry::enabled() {
            telemetry::counter("acs_calls_total", 1);
        }
        let prev = self.cr;
        self.frames.push(Frame {
            stored_chain: prev,
            frame_record_ret: ret,
        });
        self.cr = self.aret(ret, prev);
    }

    /// Function-exit instrumentation (paper Listing 2/3 epilogue): reloads
    /// `aret_{i-1}` from the (attacker-writable) stack, verifies `CR`
    /// against it, and returns the authenticated return target.
    ///
    /// # Errors
    ///
    /// Returns [`AcsViolation`] if the chain does not verify — the modelled
    /// equivalent of `autia` producing a faulting pointer. The frame is
    /// consumed either way (the process would have crashed). A return on an
    /// empty chain (a return past `main`) has no frame to authenticate
    /// against and is a violation at depth 0 whose `corrupted` is CR.
    pub fn ret(&mut self) -> Result<u64, AcsViolation> {
        if telemetry::enabled() {
            telemetry::counter("acs_rets_total", 1);
        }
        let Some(frame) = self.frames.pop() else {
            if telemetry::enabled() {
                telemetry::counter("acs_violations_total", 1);
            }
            return Err(AcsViolation {
                corrupted: self.cr,
                depth: 0,
            });
        };
        let prev = frame.stored_chain;
        // The pad lies only in the PAC field, which the MAC strips, so the
        // MAC is taken of CR itself and runs beside the pad's, not after it.
        let (mac, pad) = self.macs(self.cr, prev);
        match self.pa.verify_with_pac(mac, self.cr ^ pad, KEY) {
            Ok(ret) => {
                self.cr = prev;
                Ok(ret)
            }
            Err(err) => {
                if telemetry::enabled() {
                    telemetry::counter("acs_violations_total", 1);
                }
                Err(AcsViolation {
                    corrupted: err.corrupted,
                    depth: self.frames.len() + 1,
                })
            }
        }
    }

    /// `setjmp` (paper Listing 4): binds the setjmp return site and stack
    /// pointer to the current chain head.
    pub fn setjmp(&self, ret: u64, sp: u64) -> JmpBuf {
        let (ret_mac, sp_mac) = self.pa.compute_pac_pair(&self.keys, KEY, ret, sp, self.cr);
        let bound = self.pa.sign_with_pac(ret_mac, ret) ^ self.pa.sign_with_pac(sp_mac, sp);
        JmpBuf {
            bound_ret: bound,
            sp,
            chain: self.cr,
            depth: self.depth(),
        }
    }

    /// `longjmp` (paper Listing 5): verifies the buffer and transfers
    /// control to the bound return site, restoring `CR` and unwinding the
    /// stack to the buffer's depth.
    ///
    /// As in the paper (§9.1), freshness is *not* checked: an expired buffer
    /// whose chain value and stack frames the adversary has fully restored
    /// will pass — use [`AuthenticatedCallStack::longjmp_validating`] for
    /// the proposed frame-by-frame unwinder.
    ///
    /// # Errors
    ///
    /// Returns [`AcsViolation`] if the buffer's binding does not verify.
    pub fn longjmp(&mut self, buf: &JmpBuf) -> Result<u64, AcsViolation> {
        if telemetry::enabled() {
            telemetry::counter("acs_longjmps_total", 1);
        }
        // `pac(sp, chain)` differs from `sp` only inside the PAC field, which
        // the MAC strips, so the MAC of `lr` is the MAC of `bound_ret ^ sp`
        // and runs beside the unbinding MAC, not after it.
        let (sp_mac, ret_mac) =
            self.pa
                .compute_pac_pair(&self.keys, KEY, buf.sp, buf.bound_ret ^ buf.sp, buf.chain);
        let lr = buf.bound_ret ^ self.pa.sign_with_pac(sp_mac, buf.sp);
        match self.pa.verify_with_pac(ret_mac, lr, KEY) {
            Ok(ret) => {
                self.cr = buf.chain;
                self.frames.truncate(buf.depth);
                Ok(ret)
            }
            Err(err) => {
                if telemetry::enabled() {
                    telemetry::counter("acs_violations_total", 1);
                }
                Err(AcsViolation {
                    corrupted: err.corrupted,
                    depth: self.depth(),
                })
            }
        }
    }

    /// The paper's proposed libunwind-style `longjmp` (§9.1): conceptually
    /// performs returns frame by frame, verifying each link, until the
    /// buffer's depth is reached — preventing reuse of expired buffers.
    ///
    /// # Errors
    ///
    /// Returns [`AcsViolation`] if any intermediate link fails to verify, if
    /// the buffer's depth exceeds the current depth (the buffer expired), or
    /// if the buffer binding itself is invalid.
    pub fn longjmp_validating(&mut self, buf: &JmpBuf) -> Result<u64, AcsViolation> {
        if buf.depth > self.depth() {
            return Err(AcsViolation {
                corrupted: buf.bound_ret,
                depth: self.depth(),
            });
        }
        while self.depth() > buf.depth {
            self.ret()?;
        }
        if self.cr != buf.chain {
            return Err(AcsViolation {
                corrupted: buf.bound_ret,
                depth: self.depth(),
            });
        }
        self.longjmp(buf)
    }

    /// Re-seeds the chain after `fork`, rewriting every stored token so the
    /// child's chain is disjoint from the parent's (paper §4.3).
    ///
    /// The trusted runtime knows the genuine return addresses of its own
    /// frames (they are reachable through the frame records at fork time),
    /// so it can rebuild the chain bottom-up with the new `init`.
    pub fn reseed(&mut self, init: u64) {
        let rets: Vec<u64> = self.frames.iter().map(|f| f.frame_record_ret).collect();
        self.config = self.config.seed(init);
        self.cr = init;
        self.frames.clear();
        for ret in rets {
            self.call(ret);
        }
    }

    /// Walks the whole chain from `CR` down to the seed, verifying every
    /// link without mutating state — the validating unwinder a debugger or
    /// exception runtime would use.
    ///
    /// Returns the authenticated return addresses from innermost to
    /// outermost.
    ///
    /// # Errors
    ///
    /// Returns [`AcsViolation`] at the first broken link.
    pub fn verify_chain(&self) -> Result<Vec<u64>, AcsViolation> {
        let mut rets = Vec::with_capacity(self.depth());
        let mut cr = self.cr;
        for (depth, frame) in self.frames.iter().enumerate().rev() {
            let prev = frame.stored_chain;
            let (mac, pad) = self.macs(cr, prev);
            match self.pa.verify_with_pac(mac, cr ^ pad, KEY) {
                Ok(ret) => {
                    rets.push(ret);
                    cr = prev;
                }
                Err(err) => {
                    return Err(AcsViolation {
                        corrupted: err.corrupted,
                        depth: depth + 1,
                    })
                }
            }
        }
        Ok(rets)
    }
}

impl std::fmt::Display for AuthenticatedCallStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "ACS ({} links, {}): CR = {:#018x}",
            self.depth(),
            self.config.masking_mode(),
            self.cr
        )?;
        for (i, frame) in self.frames.iter().enumerate().rev() {
            writeln!(
                f,
                "  depth {i}: chain slot {:#018x}  frame-record ret {:#010x}",
                frame.stored_chain, frame.frame_record_ret
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::Masking;
    use pacstack_pauth::VaLayout;

    fn acs(config: AcsConfig) -> AuthenticatedCallStack {
        AuthenticatedCallStack::new(
            PointerAuth::new(VaLayout::default()),
            PaKeys::from_seed(11),
            config,
        )
    }

    const RA: u64 = 0x40_1000;
    const RB: u64 = 0x40_2000;
    const RC: u64 = 0x40_3000;

    #[test]
    fn call_ret_round_trip_masked_and_unmasked() {
        for masking in [Masking::Masked, Masking::Unmasked] {
            let mut acs = acs(AcsConfig::default().masking(masking));
            acs.call(RA);
            acs.call(RB);
            acs.call(RC);
            assert_eq!(acs.depth(), 3);
            assert_eq!(acs.ret().unwrap(), RC);
            assert_eq!(acs.ret().unwrap(), RB);
            assert_eq!(acs.ret().unwrap(), RA);
            assert_eq!(acs.depth(), 0);
            assert_eq!(acs.chain_register(), 0);
        }
    }

    #[test]
    fn tampered_chain_slot_is_detected() {
        for masking in [Masking::Masked, Masking::Unmasked] {
            let mut acs = acs(AcsConfig::default().masking(masking));
            acs.call(RA);
            acs.call(RB);
            acs.frames_mut()[1].stored_chain ^= 1;
            let err = acs.ret().unwrap_err();
            assert_eq!(err.depth, 2);
        }
    }

    #[test]
    fn frame_record_tampering_is_irrelevant() {
        // PACStack never loads the plain return address from the frame
        // record, so corrupting it changes nothing.
        let mut acs = acs(AcsConfig::default());
        acs.call(RA);
        acs.frames_mut()[0].frame_record_ret = 0xBAD;
        assert_eq!(acs.ret().unwrap(), RA);
    }

    #[test]
    fn replayed_outdated_chain_value_is_detected() {
        // Control-flow bending via stale aret values (paper §6.3): replace
        // the stored aret_{i-1} with an older valid link.
        let mut acs = acs(AcsConfig::default());
        acs.call(RA);
        let old = acs.frames()[0].stored_chain; // aret_{-1} = seed
        acs.call(RB);
        acs.call(RC);
        acs.frames_mut()[2].stored_chain = old;
        assert!(acs.ret().is_err());
    }

    #[test]
    fn masked_tokens_differ_from_unmasked() {
        let mut masked = acs(AcsConfig::default());
        let mut unmasked = acs(AcsConfig::default().masking(Masking::Unmasked));
        masked.call(RA);
        unmasked.call(RA);
        masked.call(RB);
        unmasked.call(RB);
        assert_ne!(
            masked.frames()[1].stored_chain,
            unmasked.frames()[1].stored_chain
        );
        // But both verify.
        assert_eq!(masked.ret().unwrap(), RB);
        assert_eq!(unmasked.ret().unwrap(), RB);
    }

    #[test]
    fn setjmp_longjmp_unwinds_to_mark() {
        let mut acs = acs(AcsConfig::default());
        acs.call(RA);
        let buf = acs.setjmp(0x40_5000, 0x7fff_0000);
        acs.call(RB);
        acs.call(RC);
        assert_eq!(acs.longjmp(&buf).unwrap(), 0x40_5000);
        assert_eq!(acs.depth(), 1);
        // The chain still verifies after the non-local jump.
        assert_eq!(acs.ret().unwrap(), RA);
    }

    #[test]
    fn tampered_jmpbuf_is_detected() {
        let mut acs = acs(AcsConfig::default());
        acs.call(RA);
        let mut buf = acs.setjmp(0x40_5000, 0x7fff_0000);
        buf.bound_ret ^= 0x10; // redirect the bound return site
        assert!(acs.longjmp(&buf).is_err());

        let mut buf2 = acs.setjmp(0x40_5000, 0x7fff_0000);
        buf2.sp ^= 0x40; // move the stack pointer
        assert!(acs.longjmp(&buf2).is_err());
    }

    #[test]
    fn validating_longjmp_rejects_expired_buffer() {
        let mut acs = acs(AcsConfig::default());
        acs.call(RA);
        acs.call(RB);
        let buf = acs.setjmp(0x40_5000, 0x7fff_0000);
        acs.ret().unwrap(); // the setjmp caller returns — buffer expires
        assert!(acs.longjmp_validating(&buf).is_err());
    }

    #[test]
    fn validating_longjmp_accepts_live_buffer() {
        let mut acs = acs(AcsConfig::default());
        acs.call(RA);
        let buf = acs.setjmp(0x40_5000, 0x7fff_0000);
        acs.call(RB);
        acs.call(RC);
        assert_eq!(acs.longjmp_validating(&buf).unwrap(), 0x40_5000);
        assert_eq!(acs.depth(), 1);
    }

    #[test]
    fn reseed_rewrites_chain_disjointly() {
        let mut a = acs(AcsConfig::default());
        a.call(RA);
        a.call(RB);
        let mut child = a.clone();
        child.reseed(0x1234_5678);
        // Chains diverge...
        assert_ne!(child.chain_register(), a.chain_register());
        assert_ne!(child.frames()[1].stored_chain, a.frames()[1].stored_chain);
        // ...but both unwind correctly.
        assert_eq!(child.ret().unwrap(), RB);
        assert_eq!(child.ret().unwrap(), RA);
        assert_eq!(a.ret().unwrap(), RB);
        assert_eq!(a.ret().unwrap(), RA);
    }

    #[test]
    fn verify_chain_reports_all_returns() {
        let mut acs = acs(AcsConfig::default());
        acs.call(RA);
        acs.call(RB);
        acs.call(RC);
        assert_eq!(acs.verify_chain().unwrap(), vec![RC, RB, RA]);
        assert_eq!(acs.depth(), 3); // non-destructive
    }

    #[test]
    fn verify_chain_pinpoints_broken_link() {
        let mut acs = acs(AcsConfig::default());
        acs.call(RA);
        acs.call(RB);
        acs.call(RC);
        acs.frames_mut()[1].stored_chain ^= 2;
        let err = acs.verify_chain().unwrap_err();
        assert_eq!(err.depth, 2);
    }

    #[test]
    fn seeded_chains_are_disjoint_from_the_start() {
        let mut t1 = acs(AcsConfig::default().seed(1));
        let mut t2 = acs(AcsConfig::default().seed(2));
        t1.call(RA);
        t2.call(RA);
        assert_ne!(t1.chain_register(), t2.chain_register());
    }

    #[test]
    fn display_shows_chain_state() {
        let mut acs = acs(AcsConfig::default());
        acs.call(RA);
        acs.call(RB);
        let text = acs.to_string();
        assert!(text.contains("2 links"), "{text}");
        assert!(text.contains("CR ="), "{text}");
        assert!(text.contains("depth 1"), "{text}");
    }

    #[test]
    fn return_past_main_is_a_violation_at_depth_zero() {
        let mut acs = acs(AcsConfig::default());
        acs.call(RA);
        assert_eq!(acs.ret(), Ok(RA));
        let cr = acs.chain_register();
        assert_eq!(
            acs.ret(),
            Err(AcsViolation {
                corrupted: cr,
                depth: 0
            })
        );
        assert_eq!((acs.chain_register(), acs.depth()), (cr, 0));
    }
}
