//! Differential property tests: random straight-line programs executed on
//! the CPU must match a direct Rust evaluation of the same operations, and
//! paged [`Memory`] must match a flat byte-array model.

use pacstack_aarch64::{Cpu, Fault, Instruction as I, Memory, Perms, Program, Reg, LAYOUT};
use pacstack_pauth::VaLayout;
use proptest::prelude::*;

/// One random ALU operation on the accumulator.
#[derive(Debug, Clone, Copy)]
enum AluOp {
    AddImm(i32),
    EorImm(u32),
    AndImm(u64),
    Lsr(u32),
    AddSelf,
    SubSelf,
    MulSelf,
}

fn arb_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        any::<i32>().prop_map(AluOp::AddImm),
        any::<u32>().prop_map(AluOp::EorImm),
        any::<u64>().prop_map(AluOp::AndImm),
        (0u32..64).prop_map(AluOp::Lsr),
        Just(AluOp::AddSelf),
        Just(AluOp::SubSelf),
        Just(AluOp::MulSelf),
    ]
}

fn lower_op(op: AluOp) -> I {
    match op {
        AluOp::AddImm(v) => I::AddImm(Reg::X0, Reg::X0, i64::from(v)),
        AluOp::EorImm(v) => I::EorImm(Reg::X0, Reg::X0, u64::from(v)),
        AluOp::AndImm(v) => I::AndImm(Reg::X0, Reg::X0, v),
        AluOp::Lsr(s) => I::LsrImm(Reg::X0, Reg::X0, s),
        AluOp::AddSelf => I::Add(Reg::X0, Reg::X0, Reg::X0),
        AluOp::SubSelf => I::Sub(Reg::X0, Reg::X0, Reg::X0),
        AluOp::MulSelf => I::Mul(Reg::X0, Reg::X0, Reg::X0),
    }
}

fn eval_op(acc: u64, op: AluOp) -> u64 {
    match op {
        AluOp::AddImm(v) => acc.wrapping_add(i64::from(v) as u64),
        AluOp::EorImm(v) => acc ^ u64::from(v),
        AluOp::AndImm(v) => acc & v,
        AluOp::Lsr(s) => acc >> s,
        AluOp::AddSelf => acc.wrapping_add(acc),
        AluOp::SubSelf => acc.wrapping_sub(acc),
        AluOp::MulSelf => acc.wrapping_mul(acc),
    }
}

/// X0–X30, SP and XZR: the register file's 33 slots, in slot order.
fn register_file_order() -> Vec<Reg> {
    Reg::general_purpose().chain([Reg::Sp, Reg::Xzr]).collect()
}

/// One ALU or move op `(kind, d, n, m, imm)` whose operands are slots of
/// [`register_file_order`], so any of them may be SP or XZR.
type RegOp = (u8, usize, usize, usize, u64);

fn arb_reg_op() -> impl Strategy<Value = RegOp> {
    (0u8..10, 0usize..33, 0usize..33, 0usize..33, any::<u64>())
}

fn lower_reg_op(regs: &[Reg], (kind, d, n, m, imm): RegOp) -> I {
    let (d, n, m) = (regs[d], regs[n], regs[m]);
    match kind {
        0 => I::Mov(d, n),
        1 => I::MovImm(d, imm),
        2 => I::Add(d, n, m),
        3 => I::AddImm(d, n, imm as i64),
        4 => I::Sub(d, n, m),
        5 => I::Mul(d, n, m),
        6 => I::Eor(d, n, m),
        7 => I::EorImm(d, n, imm),
        8 => I::AndImm(d, n, imm),
        _ => I::LsrImm(d, n, (imm % 64) as u32),
    }
}

/// The model register file: slot 32, XZR, reads as zero and drops writes.
fn eval_reg_op(model: &mut [u64; 33], (kind, d, n, m, imm): RegOp) {
    let read = |i: usize| if i == 32 { 0 } else { model[i] };
    let (vn, vm) = (read(n), read(m));
    let value = match kind {
        0 => vn,
        1 => imm,
        2 => vn.wrapping_add(vm),
        3 => vn.wrapping_add(imm),
        4 => vn.wrapping_sub(vm),
        5 => vn.wrapping_mul(vm),
        6 => vn ^ vm,
        7 => vn ^ imm,
        8 => vn & imm,
        _ => vn >> (imm % 64),
    };
    if d != 32 {
        model[d] = value;
    }
}

proptest! {
    #[test]
    fn alu_matches_reference_semantics(
        start in any::<u64>(),
        ops in prop::collection::vec(arb_op(), 0..40),
    ) {
        let mut insns = vec![I::MovImm(Reg::X0, start)];
        insns.extend(ops.iter().map(|&op| lower_op(op)));
        insns.push(I::Ret);
        let mut p = Program::new();
        p.function("main", insns);
        let mut cpu = Cpu::with_seed(p, 0);
        let outcome = cpu.run(1000).expect("straight-line code runs clean");

        let expected = ops.iter().fold(start, |acc, &op| eval_op(acc, op));
        prop_assert_eq!(outcome.exit_code, expected);
    }

    #[test]
    fn every_register_matches_a_model_register_file(
        init in prop::collection::vec(any::<u64>(), 33),
        random_ops in prop::collection::vec(arb_reg_op(), 0..64),
    ) {
        // Every slot, SP and XZR included, is first set to a random value;
        // then random ops read and write any of them. `svc #0` exits
        // without a return, so LR may be clobbered too.
        let regs = register_file_order();
        let ops: Vec<RegOp> =
            init.iter().enumerate().map(|(i, &v)| (1, i, 0, 0, v)).chain(random_ops).collect();
        let mut insns: Vec<I> = ops.iter().map(|&op| lower_reg_op(&regs, op)).collect();
        insns.push(I::Svc(0));
        let mut p = Program::new();
        p.function("main", insns);
        let mut cpu = Cpu::with_seed(p, 0);
        cpu.run(1000).expect("straight-line code runs clean");

        let mut model = [0u64; 33];
        for &op in &ops {
            eval_reg_op(&mut model, op);
        }
        for (&reg, &want) in regs.iter().zip(&model) {
            prop_assert_eq!(cpu.reg(reg), want, "{}", reg);
        }
    }

    #[test]
    fn memory_round_trips_preserve_values(
        values in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        // Store each value to a distinct stack slot, reload in reverse,
        // and fold with XOR; compare against the direct fold.
        let mut insns = vec![I::MovImm(Reg::X1, 0)];
        for (i, &v) in values.iter().enumerate() {
            insns.push(I::MovImm(Reg::X0, v));
            insns.push(I::Str(Reg::X0, Reg::Sp, -(8 * (i as i64 + 1))));
        }
        for i in (0..values.len()).rev() {
            insns.push(I::Ldr(Reg::X0, Reg::Sp, -(8 * (i as i64 + 1))));
            insns.push(I::Eor(Reg::X1, Reg::X1, Reg::X0));
        }
        insns.push(I::Mov(Reg::X0, Reg::X1));
        insns.push(I::Ret);
        let mut p = Program::new();
        p.function("main", insns);
        let mut cpu = Cpu::with_seed(p, 0);
        let outcome = cpu.run(1000).expect("runs clean");
        let expected = values.iter().fold(0u64, |a, v| a ^ v);
        prop_assert_eq!(outcome.exit_code, expected);
    }

    #[test]
    fn pac_strip_recovers_any_canonical_pointer(addr in 0u64..(1 << 39)) {
        // pacia → xpaci is the identity on address bits for any address.
        let mut p = Program::new();
        p.function(
            "main",
            vec![
                I::MovImm(Reg::X0, addr),
                I::MovImm(Reg::X1, 0x1234),
                I::Pacia(Reg::X0, Reg::X1),
                I::Xpaci(Reg::X0),
                I::Ret,
            ],
        );
        let mut cpu = Cpu::with_seed(p, 3);
        let outcome = cpu.run(100).expect("runs clean");
        prop_assert_eq!(outcome.exit_code, addr);
    }

    #[test]
    fn pacia_autia_round_trip_via_registers(
        addr in 0u64..(1 << 39),
        modifier in any::<u64>(),
    ) {
        let mut p = Program::new();
        p.function(
            "main",
            vec![
                I::MovImm(Reg::X0, addr),
                I::MovImm(Reg::X1, modifier),
                I::Pacia(Reg::X0, Reg::X1),
                I::Autia(Reg::X0, Reg::X1),
                I::Ret,
            ],
        );
        let mut cpu = Cpu::with_seed(p, 9);
        let outcome = cpu.run(100).expect("runs clean");
        prop_assert_eq!(outcome.exit_code, addr);
    }
}

const PAGE: u64 = 4096;

// Chaos shares one prepared `Cpu` across its engine's worker threads, so
// nothing in it (the memory's last-hit segment included) may use interior
// mutability.
const _: fn() = || {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Cpu>();
};

/// Segments [`memories`] maps.
const SEGMENTS: usize = 7;

/// One flat, zero-filled byte array per segment, checked in the same order
/// as [`Memory`]: canonical address, segment lookup (the whole access
/// inside one segment), write permission.
#[derive(Clone)]
struct FlatMemory {
    /// `(base, writable, bytes)` per segment.
    segments: Vec<(u64, bool, Vec<u8>)>,
}

/// A [`Memory`] under `layout` and its flat model, both mapping the
/// standard segments plus three that sit on the edges of the canonical
/// ranges: one in the upper half, one that ends at 2⁶⁴ (the top of the
/// upper half), and one that runs past the top of the lower half, so its
/// second page is not canonical. All but that last lie wholly in one
/// canonical range.
fn memories(layout: VaLayout) -> (Memory, FlatMemory) {
    let top = 1u64 << layout.va_size();
    let segments: [(u64, u64, Perms); SEGMENTS] = [
        (LAYOUT.code_base, LAYOUT.code_size, Perms::ReadExecute),
        (LAYOUT.data_base, LAYOUT.data_size, Perms::ReadWrite),
        (
            LAYOUT.stack_top - LAYOUT.stack_size,
            LAYOUT.stack_size,
            Perms::ReadWrite,
        ),
        (
            LAYOUT.shadow_stack_base,
            LAYOUT.shadow_stack_size,
            Perms::ReadWrite,
        ),
        (
            layout.canonical(1 << 55) + 0x10_0000,
            2 * PAGE,
            Perms::ReadWrite,
        ),
        (0u64.wrapping_sub(2 * PAGE), 2 * PAGE, Perms::ReadWrite),
        (top - PAGE, 2 * PAGE, Perms::ReadWrite),
    ];
    let mut mem = Memory::new(layout);
    for (base, size, perms) in segments {
        mem.map(base, size, perms);
    }
    let model = FlatMemory {
        segments: segments
            .iter()
            .map(|&(base, size, perms)| (base, perms == Perms::ReadWrite, vec![0; size as usize]))
            .collect(),
    };
    (mem, model)
}

impl FlatMemory {
    /// The segment index and offset of an 8-byte access, or its fault.
    fn locate(&self, mem: &Memory, addr: u64) -> Result<(usize, usize), Fault> {
        if !mem.va_layout().is_canonical(addr) {
            return Err(Fault::TranslationFault { addr });
        }
        self.segments
            .iter()
            .position(|(base, _, bytes)| {
                // In `u128`, so the segment ending at 2⁶⁴ overflows nothing.
                addr >= *base && u128::from(addr) + 8 <= u128::from(*base) + bytes.len() as u128
            })
            .map(|i| (i, (addr - self.segments[i].0) as usize))
            .ok_or(Fault::AccessFault { addr })
    }

    fn read(&self, mem: &Memory, addr: u64) -> Result<u64, Fault> {
        let (i, off) = self.locate(mem, addr)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&self.segments[i].2[off..off + 8]);
        Ok(u64::from_le_bytes(buf))
    }

    fn write(&mut self, mem: &Memory, addr: u64, value: u64) -> Result<(), Fault> {
        let (i, off) = self.locate(mem, addr)?;
        let (_, writable, bytes) = &mut self.segments[i];
        if !*writable {
            return Err(Fault::PermissionFault { addr });
        }
        bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }
}

/// One random access: `(region, shape, raw, write, value)`. Region `r`
/// below `3 * SEGMENTS` is an address in segment `r % SEGMENTS`: as is for
/// `r / SEGMENTS == 0`, with bit 54 flipped (never canonical) for 1, and
/// with a nonzero top byte for 2 (canonical only under top-byte ignore,
/// and then outside every segment). Region `3 * SEGMENTS` is anywhere in
/// the 39-bit space (almost always unmapped).
type MemOp = (usize, u8, u64, bool, u64);

fn arb_mem_op() -> impl Strategy<Value = MemOp> {
    (
        0usize..=3 * SEGMENTS,
        0u8..4,
        any::<u64>(),
        any::<bool>(),
        any::<u64>(),
    )
}

/// The address an op touches. Shapes: 0 an aligned slot, 1 an access
/// crossing a page boundary inside the segment, 2 an access crossing or
/// starting at the segment's end, 3 any byte offset, 4 the first slot, 5
/// the last slot, 6 the slot just below the segment (unmapped), 7 slot
/// `(raw >> 32) % 512` of the page `raw % 2³²` pages below the last (page
/// 0 if there are fewer).
fn op_addr(model: &FlatMemory, &(region, shape, raw, _, _): &MemOp) -> u64 {
    let (base, _, bytes) = &model.segments[region % SEGMENTS];
    let len = bytes.len() as u64;
    let off = match shape {
        0 => raw % (len / 8) * 8,
        1 => (1 + raw % (len / PAGE - 1)) * PAGE - 1 - (raw >> 32) % 7,
        2 => len - (raw >> 32) % 8,
        4 => 0,
        5 => len - 8,
        6 => 0u64.wrapping_sub(8),
        7 => {
            (len / PAGE - 1).saturating_sub(raw & 0xFFFF_FFFF) * PAGE + (raw >> 32) % (PAGE / 8) * 8
        }
        _ => raw % len,
    };
    let addr = base.wrapping_add(off);
    match region / SEGMENTS {
        0 => addr,
        1 => addr ^ (1 << 54),
        2 => addr ^ ((1 + raw % 255) << 56),
        _ => raw % (1 << 39),
    }
}

/// A write that leaves segment `region` as [`Memory`]'s last hit, then
/// accesses that must not be answered from it: `(kind, region, raw, write,
/// value)`. Kind 0 alternates between the segment and a neighbour in the
/// segment list, kind 1 touches a neighbour's first slot, last slot and
/// end right after each hit, kind 2 faults right after the hit.
type MemoProbe = (u8, usize, u64, bool, u64);

fn arb_memo_probe() -> impl Strategy<Value = MemoProbe> {
    (
        0u8..3,
        0usize..SEGMENTS,
        any::<u64>(),
        any::<bool>(),
        any::<u64>(),
    )
}

fn memo_ops(&(kind, region, raw, write, value): &MemoProbe) -> Vec<MemOp> {
    // The code segment (region 0) is read-only, so a write there faults
    // after the lookup; the memo then holds the segment that faulted.
    let hit = (region, 0, raw, true, value);
    let (next, prev) = ((region + 1) % SEGMENTS, (region + SEGMENTS - 1) % SEGMENTS);
    match kind {
        0 => vec![
            hit,
            (next, 0, raw >> 7, write, !value),
            (region, 3, raw >> 11, false, 0),
            (prev, 3, raw >> 13, write, value),
            hit,
            (next, 1, raw, !write, value),
        ],
        1 => [next, prev]
            .into_iter()
            .flat_map(|n| {
                [
                    hit,
                    (n, 5, raw, write, value),
                    hit,
                    (n, 4, raw, !write, value),
                    hit,
                    (n, 2, raw, write, value),
                ]
            })
            .collect(),
        _ => {
            let fault = match value % 5 {
                0 => (region, 2, raw, write, value),
                1 => (region, 6, raw, write, value),
                2 => (SEGMENTS + region, 0, raw, write, value),
                3 => (2 * SEGMENTS + region, 0, raw, write, value),
                _ => (0, 0, raw, true, value),
            };
            vec![
                hit,
                fault,
                (region, 3, raw >> 3, false, 0),
                (region, 0, raw, write, !value),
            ]
        }
    }
}

/// Writes to consecutive pages of one segment, each below the one before,
/// the way a stack grows: `(region, skip, pages, raw, value)` writes
/// `pages` pages of segment `region` down from the page `skip` below its
/// last (clamped at page 0).
type Descent = (usize, u64, u64, u64, u64);

fn arb_descent() -> impl Strategy<Value = Descent> {
    (
        0usize..SEGMENTS,
        0u64..4,
        2u64..8,
        any::<u64>(),
        any::<u64>(),
    )
}

fn descent_ops(&(region, skip, pages, raw, value): &Descent) -> Vec<MemOp> {
    (skip..skip + pages)
        .map(|below| (region, 7, raw << 32 | below, true, value ^ below))
        .collect()
}

/// Applies one op to both memories and checks they agree on the result.
fn apply_op(mem: &mut Memory, model: &mut FlatMemory, op: &MemOp) -> Result<(), TestCaseError> {
    let addr = op_addr(model, op);
    let (_, _, _, write, value) = *op;
    if write {
        prop_assert_eq!(mem.write_u64(addr, value), model.write(mem, addr, value));
    } else {
        prop_assert_eq!(mem.read_u64(addr), model.read(mem, addr));
    }
    Ok(())
}

/// Reads every page's first and last slot and the access straddling it
/// and its successor, plus the neighbourhood of every address in `ops`:
/// unwritten pages must read zero and written bytes what the model holds.
fn assert_same(mem: &Memory, model: &FlatMemory, ops: &[MemOp]) -> Result<(), TestCaseError> {
    let mut addrs: Vec<u64> = Vec::new();
    for (base, _, bytes) in &model.segments {
        for page in (0..bytes.len() as u64).step_by(PAGE as usize) {
            // Summed in this order, the last page below 2⁶⁴ overflows nothing.
            let at = base + page;
            addrs.extend([at, at + (PAGE - 8), at + (PAGE - 4)]);
        }
    }
    for op in ops {
        let addr = op_addr(model, op);
        addrs.extend((0..16).map(|d| addr.wrapping_sub(8).wrapping_add(d)));
    }
    for addr in addrs {
        prop_assert_eq!(mem.read_u64(addr), model.read(mem, addr), "at {:#x}", addr);
    }
    Ok(())
}

proptest! {
    #[test]
    fn memory_matches_a_flat_byte_model_and_clones_are_independent(
        va_size in 36u32..=52,
        tagged in any::<bool>(),
        random_ops in prop::collection::vec(arb_mem_op(), 1..48),
        probes in prop::collection::vec(arb_memo_probe(), 0..8),
        split in any::<prop::sample::Index>(),
        descents in prop::collection::vec(arb_descent(), 0..4),
        clone_ops in prop::collection::vec(arb_mem_op(), 0..24),
    ) {
        // The memo probes run between the random ops, so each starts from
        // whatever segment the ops before it left as the last hit.
        let mut ops = random_ops;
        for (i, probe) in probes.iter().enumerate() {
            let at = (probe.2 as usize + i) % (ops.len() + 1);
            ops.splice(at..at, memo_ops(probe));
        }
        let (mut mem, mut model) = memories(VaLayout::new(va_size, tagged));
        // A top-byte-tagged address translates only under top-byte ignore,
        // and then lies outside every segment.
        let tagged_data = LAYOUT.data_base | 0x5A << 56;
        let want = if tagged {
            Fault::AccessFault { addr: tagged_data }
        } else {
            Fault::TranslationFault { addr: tagged_data }
        };
        prop_assert_eq!(mem.read_u64(tagged_data), Err(want));
        let (before, after) = ops.split_at(split.index(ops.len()));
        // The descents run before the clone point, so the clone starts from
        // spans that grew down.
        let mut before = before.to_vec();
        for (i, descent) in descents.iter().enumerate() {
            let at = (descent.3 as usize + i) % (before.len() + 1);
            before.splice(at..at, descent_ops(descent));
        }
        for op in &before {
            apply_op(&mut mem, &mut model, op)?;
        }
        // Writes to the clone never reach the original, nor the reverse.
        let mut copy = mem.clone();
        let mut copy_model = model.clone();
        for op in after {
            apply_op(&mut mem, &mut model, op)?;
        }
        for op in &clone_ops {
            apply_op(&mut copy, &mut copy_model, op)?;
        }
        let all: Vec<MemOp> = before.iter().chain(after).chain(&clone_ops).copied().collect();
        assert_same(&mem, &model, &all)?;
        assert_same(&copy, &copy_model, &all)?;
    }
}
