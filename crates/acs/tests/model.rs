//! Differential test of the authenticated call stack against a model written
//! with the PA unit's `pac`/`aut` and the construction's formulas as the
//! paper states them:
//!
//! ```text
//! aret_i = pac(ret_i, aret_{i-1}) ⊕ pac(0, aret_{i-1})     (masked)
//! ret    = aut(CR ⊕ pac(0, prev), prev)
//! setjmp = pac(ret_b, CR) ⊕ pac(SP_b, CR)
//! ```
//!
//! The implementation computes the MAC and the pad in one paired pass and
//! takes the MAC of `CR` rather than of `CR ⊕ pad`; every call, return,
//! chain walk and `setjmp` must still give the model's value bit for bit,
//! on every layout, with or without masking, and with tampered chain slots.

use pacstack_acs::{AcsConfig, AcsViolation, AuthenticatedCallStack, JmpBuf, Masking};
use pacstack_pauth::{PaKey, PaKeys, PointerAuth, VaLayout};
use proptest::prelude::*;

/// The key the construction signs with: instruction key A.
const KEY: PaKey = PaKey::Ia;

/// The reference chain: CR plus the spilled slots, nothing cached.
struct Model {
    pa: PointerAuth,
    keys: PaKeys,
    masked: bool,
    cr: u64,
    slots: Vec<u64>,
}

impl Model {
    fn pad(&self, modifier: u64) -> u64 {
        if self.masked {
            self.pa.pac(&self.keys, KEY, 0, modifier)
        } else {
            0
        }
    }

    fn aret(&self, ret: u64, prev: u64) -> u64 {
        self.pa.pac(&self.keys, KEY, ret, prev) ^ self.pad(prev)
    }

    fn call(&mut self, ret: u64) {
        self.slots.push(self.cr);
        self.cr = self.aret(ret, self.cr);
    }

    /// Authenticates `cr` against `prev`; `depth` is the frame's 1-based
    /// depth, reported on failure.
    fn check(&self, cr: u64, prev: u64, depth: usize) -> Result<u64, AcsViolation> {
        let lr = cr ^ self.pad(prev);
        self.pa
            .aut(&self.keys, KEY, lr, prev)
            .map_err(|err| AcsViolation {
                corrupted: err.corrupted,
                depth,
            })
    }

    fn ret(&mut self) -> Option<Result<u64, AcsViolation>> {
        let prev = self.slots.pop()?;
        let result = self.check(self.cr, prev, self.slots.len() + 1);
        if result.is_ok() {
            self.cr = prev;
        }
        Some(result)
    }

    fn verify_chain(&self) -> Result<Vec<u64>, AcsViolation> {
        let mut cr = self.cr;
        let mut rets = Vec::new();
        for (depth, &prev) in self.slots.iter().enumerate().rev() {
            rets.push(self.check(cr, prev, depth + 1)?);
            cr = prev;
        }
        Ok(rets)
    }

    fn setjmp(&self, ret: u64, sp: u64) -> JmpBuf {
        let bound =
            self.pa.pac(&self.keys, KEY, ret, self.cr) ^ self.pa.pac(&self.keys, KEY, sp, self.cr);
        JmpBuf {
            bound_ret: bound,
            sp,
            chain: self.cr,
            depth: self.slots.len(),
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Call(u64),
    Ret,
    /// XOR `mask` into the chain slot chosen by the index.
    Tamper(prop::sample::Index, u64),
    /// Overwrite one chain slot with the value of another (a replayed link).
    Replay(prop::sample::Index, prop::sample::Index),
    VerifyChain,
    Setjmp(u64, u64),
}

/// Return addresses: mostly canonical user addresses, one in five an
/// arbitrary word, whose non-canonical extension bits make `pac` flip bit p.
fn arb_pointer() -> impl Strategy<Value = u64> {
    (0u8..5, 0x40_0000u64..0x80_0000, any::<u64>())
        .prop_map(|(kind, user, word)| if kind == 0 { word } else { user })
}

/// Calls and returns dominate; tampering, replays, chain walks and `setjmp`
/// are interleaved at random depths.
fn arb_op() -> impl Strategy<Value = Op> {
    use prop::sample::Index;
    (
        0u8..16,
        arb_pointer(),
        any::<u64>(),
        any::<Index>(),
        any::<Index>(),
    )
        .prop_map(|(kind, pointer, word, i, j)| match kind {
            0..=5 => Op::Call(pointer),
            6..=9 => Op::Ret,
            10 => Op::Tamper(i, word),
            11 => Op::Tamper(i, (word & 0xFF) | 1),
            12 => Op::Replay(i, j),
            13 => Op::VerifyChain,
            _ => Op::Setjmp(pointer, word),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn chain_operations_match_the_pac_aut_model(
        va_size in 36u32..=52,
        tagged in any::<bool>(),
        masked in any::<bool>(),
        seed in any::<u64>(),
        init in any::<u64>(),
        ops in prop::collection::vec(arb_op(), 1..48),
    ) {
        let pa = PointerAuth::new(VaLayout::new(va_size, tagged));
        let keys = PaKeys::from_seed(seed);
        let masking = if masked { Masking::Masked } else { Masking::Unmasked };
        let config = AcsConfig::default().masking(masking).seed(init);
        let mut acs = AuthenticatedCallStack::new(pa, keys.clone(), config);
        let mut model = Model { pa, keys, masked, cr: init, slots: Vec::new() };

        for op in ops {
            match op {
                Op::Call(ret) => {
                    acs.call(ret);
                    model.call(ret);
                    prop_assert_eq!(acs.aret(ret, init), model.aret(ret, init));
                }
                Op::Ret => {
                    // A failed return consumes the frame and keeps CR in
                    // both, so the sequence goes on from the same state.
                    if let Some(want) = model.ret() {
                        prop_assert_eq!(acs.ret(), want);
                    }
                }
                Op::Tamper(i, mask) => {
                    if !model.slots.is_empty() {
                        let i = i.index(model.slots.len());
                        acs.frames_mut()[i].stored_chain ^= mask;
                        model.slots[i] ^= mask;
                    }
                }
                Op::Replay(i, j) => {
                    if !model.slots.is_empty() {
                        let (i, j) = (i.index(model.slots.len()), j.index(model.slots.len()));
                        acs.frames_mut()[i].stored_chain = model.slots[j];
                        model.slots[i] = model.slots[j];
                    }
                }
                Op::VerifyChain => prop_assert_eq!(acs.verify_chain(), model.verify_chain()),
                Op::Setjmp(ret, sp) => prop_assert_eq!(acs.setjmp(ret, sp), model.setjmp(ret, sp)),
            }
            prop_assert_eq!(acs.chain_register(), model.cr);
            let slots: Vec<u64> = acs.frames().iter().map(|f| f.stored_chain).collect();
            prop_assert_eq!(&slots, &model.slots);
        }
        prop_assert_eq!(acs.verify_chain(), model.verify_chain());
    }
}

/// The ways [`longjmp_matches_the_serial_pac_aut_form`] alters a genuine
/// buffer: `(kind, mask, word)`. Kind 0 keeps it, 1–3 XOR `mask` into the
/// bound return, the stack pointer or the chain value, 4 replaces all three
/// with arbitrary words.
fn tamper(buf: &mut JmpBuf, (kind, mask, word): (u8, u64, u64)) {
    match kind {
        0 => {}
        1 => buf.bound_ret ^= mask,
        2 => buf.sp ^= mask,
        3 => buf.chain ^= mask,
        _ => {
            buf.bound_ret = word;
            buf.sp = mask;
            buf.chain = word.rotate_left(17) ^ mask;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `longjmp` takes both of its MACs from one paired pass; the result,
    /// the violation's corrupted pointer and the state left behind must be
    /// those of the paper's serial `aut(bound ⊕ pac(SP, chain), chain)`.
    #[test]
    fn longjmp_matches_the_serial_pac_aut_form(
        va_size in 36u32..=52,
        tagged in any::<bool>(),
        masked in any::<bool>(),
        seed in any::<u64>(),
        init in any::<u64>(),
        rets in prop::collection::vec(arb_pointer(), 0..8),
        split in any::<prop::sample::Index>(),
        ret in arb_pointer(),
        sp in prop_oneof![0x7ffe_0000u64..0x7fff_0000, any::<u64>()],
        change in (0u8..5, any::<u64>(), any::<u64>()),
    ) {
        let pa = PointerAuth::new(VaLayout::new(va_size, tagged));
        let keys = PaKeys::from_seed(seed);
        let masking = if masked { Masking::Masked } else { Masking::Unmasked };
        let config = AcsConfig::default().masking(masking).seed(init);
        let mut acs = AuthenticatedCallStack::new(pa, keys.clone(), config);
        let (outer, inner) = rets.split_at(split.index(rets.len() + 1));
        for &r in outer {
            acs.call(r);
        }
        let mut buf = acs.setjmp(ret, sp);
        for &r in inner {
            acs.call(r);
        }
        tamper(&mut buf, change);

        let (depth, cr) = (acs.depth(), acs.chain_register());
        let serial = pa
            .aut(&keys, KEY, buf.bound_ret ^ pa.pac(&keys, KEY, buf.sp, buf.chain), buf.chain)
            .map_err(|err| AcsViolation { corrupted: err.corrupted, depth });
        prop_assert_eq!(acs.longjmp(&buf), serial);
        if serial.is_ok() {
            prop_assert_eq!(acs.chain_register(), buf.chain);
            prop_assert_eq!(acs.depth(), depth.min(buf.depth));
        } else {
            prop_assert_eq!(acs.chain_register(), cr);
            prop_assert_eq!(acs.depth(), depth);
        }
    }
}
