//! Differential property tests: random straight-line programs executed on
//! the CPU must match a direct Rust evaluation of the same operations, and
//! paged [`Memory`] must match a flat byte-array model.

use pacstack_aarch64::{Cpu, Fault, Instruction as I, Memory, Program, Reg, LAYOUT};
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

/// The standard layout as one flat, zero-filled byte array per segment,
/// checked in the same order as [`Memory`]: canonical address, segment
/// lookup (the whole access inside one segment), write permission.
#[derive(Clone)]
struct FlatMemory {
    /// `(base, writable, bytes)` per segment.
    segments: Vec<(u64, bool, Vec<u8>)>,
}

impl FlatMemory {
    fn standard() -> Self {
        let segment = |base: u64, size: u64, writable| (base, writable, vec![0; size as usize]);
        Self {
            segments: vec![
                segment(LAYOUT.code_base, LAYOUT.code_size, false),
                segment(LAYOUT.data_base, LAYOUT.data_size, true),
                segment(
                    LAYOUT.stack_top - LAYOUT.stack_size,
                    LAYOUT.stack_size,
                    true,
                ),
                segment(LAYOUT.shadow_stack_base, LAYOUT.shadow_stack_size, true),
            ],
        }
    }

    /// The segment index and offset of an 8-byte access, or its fault.
    fn locate(&self, mem: &Memory, addr: u64) -> Result<(usize, usize), Fault> {
        if !mem.va_layout().is_canonical(addr) {
            return Err(Fault::TranslationFault { addr });
        }
        self.segments
            .iter()
            .position(|(base, _, bytes)| {
                addr >= *base && addr.saturating_add(8) <= base + bytes.len() as u64
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

/// One random access: `(region, shape, raw, write, value)`. Regions 0–3
/// are the standard segments, 4 is anywhere in the 39-bit space (almost
/// always unmapped), 5 is a segment address with a non-canonical high bit.
type MemOp = (usize, u8, u64, bool, u64);

fn arb_mem_op() -> impl Strategy<Value = MemOp> {
    (0usize..6, 0u8..4, any::<u64>(), any::<bool>(), any::<u64>())
}

/// The address an op touches. Shapes: 0 an aligned slot, 1 an access
/// crossing a page boundary inside the segment, 2 an access crossing or
/// starting at the segment's end, 3 any byte offset, 4 the first slot, 5
/// the last slot, 6 the slot just below the segment (unmapped).
fn op_addr(model: &FlatMemory, &(region, shape, raw, _, _): &MemOp) -> u64 {
    let (base, _, bytes) = &model.segments[region % 4];
    let len = bytes.len() as u64;
    let off = match shape {
        0 => raw % (len / 8) * 8,
        1 => (1 + raw % (len / PAGE - 1)) * PAGE - 1 - (raw >> 32) % 7,
        2 => len - (raw >> 32) % 8,
        4 => 0,
        5 => len - 8,
        6 => 0u64.wrapping_sub(8),
        _ => raw % len,
    };
    match region {
        4 => raw % (1 << 39),
        5 => base.wrapping_add(off) | (1 << 54),
        _ => base.wrapping_add(off),
    }
}

/// A write that leaves segment `region` as [`Memory`]'s last hit, then
/// accesses that must not be answered from it: `(kind, region, raw, write,
/// value)`. Kind 0 alternates between the segment and a neighbour in the
/// segment list, kind 1 touches a neighbour's first slot, last slot and
/// end right after each hit, kind 2 faults right after the hit.
type MemoProbe = (u8, usize, u64, bool, u64);

fn arb_memo_probe() -> impl Strategy<Value = MemoProbe> {
    (0u8..3, 0usize..4, any::<u64>(), any::<bool>(), any::<u64>())
}

fn memo_ops(&(kind, region, raw, write, value): &MemoProbe) -> Vec<MemOp> {
    // The code segment (region 0) is read-only, so a write there faults
    // after the lookup; the memo then holds the segment that faulted.
    let hit = (region, 0, raw, true, value);
    let (next, prev) = ((region + 1) % 4, (region + 3) % 4);
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
            let fault = match value % 4 {
                0 => (region, 2, raw, write, value),
                1 => (region, 6, raw, write, value),
                2 => (5, 0, raw, write, value),
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
            addrs.extend([base + page, base + page + PAGE - 8, base + page + PAGE - 4]);
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
        random_ops in prop::collection::vec(arb_mem_op(), 1..48),
        probes in prop::collection::vec(arb_memo_probe(), 0..8),
        split in any::<prop::sample::Index>(),
        clone_ops in prop::collection::vec(arb_mem_op(), 0..24),
    ) {
        // The memo probes run between the random ops, so each starts from
        // whatever segment the ops before it left as the last hit.
        let mut ops = random_ops;
        for (i, probe) in probes.iter().enumerate() {
            let at = (probe.2 as usize + i) % (ops.len() + 1);
            ops.splice(at..at, memo_ops(probe));
        }
        let mut mem = Memory::with_standard_layout();
        let mut model = FlatMemory::standard();
        let (before, after) = ops.split_at(split.index(ops.len()));
        for op in before {
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
        let all: Vec<MemOp> = ops.iter().chain(&clone_ops).copied().collect();
        assert_same(&mem, &model, &all)?;
        assert_same(&copy, &copy_model, &all)?;
    }
}
