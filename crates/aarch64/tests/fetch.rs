//! Fetch equivalence: the retire loop's one-compare fetch serves exactly
//! what the full check would — [`Memory::check_execute`], then the linked
//! image, then [`Instruction::classify`] — at every PC around the image,
//! with the standard memory and with memory swapped out from under the CPU.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use pacstack_aarch64::{Cpu, Fault, InsnClass, Instruction, Memory, Perms, LAYOUT};
use pacstack_compiler::{lower, Scheme};
use pacstack_pauth::VaLayout;
use pacstack_workloads::synth::{generate, SynthConfig};
use proptest::prelude::*;

/// The reference fetch: the full permission check, then the image.
fn reference(cpu: &Cpu, image: &[Instruction], pc: u64) -> Result<Instruction, Fault> {
    cpu.mem().check_execute(pc)?;
    let index = pc.wrapping_sub(LAYOUT.code_base) / 4;
    image
        .get(index as usize)
        .copied()
        .ok_or(Fault::FetchFault { pc })
}

/// Retires one instruction at `pc` on a clone of `base` and checks the
/// fault, or the observed instruction and its charge, against the
/// reference.
fn check_pc(base: &Cpu, image: &[Instruction], pc: u64) -> Result<(), TestCaseError> {
    let expected = reference(base, image, pc);
    prop_assert_eq!(
        base.instruction_at(pc),
        expected.ok(),
        "instruction_at({:#x})",
        pc
    );
    let mut cpu = base.clone();
    cpu.set_pc(pc);
    let mut seen = Vec::new();
    let result = cpu.run_observed(1, |_, insn| seen.push(insn));
    let mut counters = base.counters();
    let (mut cycles, mut shadow) = (base.cycles(), base.shadow_accesses());
    match expected {
        Err(fault) => {
            prop_assert_eq!(result, Err(fault), "pc {:#x}", pc);
            prop_assert!(seen.is_empty(), "pc {:#x} observed {:?}", pc, seen);
        }
        Ok(insn) => {
            prop_assert_eq!(&seen, &vec![insn], "pc {:#x}", pc);
            let retire = insn.classify();
            cycles += retire.cycles;
            shadow += u64::from(retire.shadow);
            match retire.class {
                InsnClass::PointerAuth => counters.pointer_auth += 1,
                InsnClass::Memory => counters.memory += 1,
                InsnClass::Branch => counters.branches += 1,
                InsnClass::Other => counters.other += 1,
            }
        }
    }
    prop_assert_eq!(cpu.cycles(), cycles, "pc {:#x}", pc);
    prop_assert_eq!(cpu.counters(), counters, "pc {:#x}", pc);
    prop_assert_eq!(cpu.instructions(), counters.total(), "pc {:#x}", pc);
    prop_assert_eq!(cpu.shadow_accesses(), shadow, "pc {:#x}", pc);
    Ok(())
}

/// The memory a CPU runs on: 0 the standard layout, 1 nothing mapped, 2
/// the code range mapped writable, 3 only part of the image mapped
/// executable, ending mid-slot.
fn swap_memory(cpu: &mut Cpu, variant: u8, image_bytes: u64, cut: u64) {
    let mut mem = Memory::new(VaLayout::default());
    match variant {
        0 => return,
        1 => {}
        2 => mem.map(LAYOUT.code_base, LAYOUT.code_size, Perms::ReadWrite),
        _ => mem.map(LAYOUT.code_base, 1 + cut % image_bytes, Perms::ReadExecute),
    }
    *cpu.mem_mut() = mem;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_compare_fetch_matches_the_full_check(
        seed in any::<u64>(),
        scheme in 0usize..Scheme::ALL.len(),
        warmup in 0u64..300,
        variant in 0u8..4,
        cut in any::<u64>(),
        pac in 1u64..0x100,
    ) {
        let config = SynthConfig { layers: 2, width: 2, stmts_per_function: 4, ..SynthConfig::default() };
        let program = lower(&generate(&config, seed), Scheme::ALL[scheme]);
        let image = program.assemble(LAYOUT.code_base).unwrap().instructions;
        let mut base = Cpu::with_seed(program, seed);
        // Counters and registers from a partial run, so charges add to
        // non-zero totals.
        let _ = base.run_observed(warmup, |_, _| {});
        let image_bytes = image.len() as u64 * 4;
        swap_memory(&mut base, variant, image_bytes, cut);

        // Every byte from two slots before the image to one slot past it.
        let end = LAYOUT.code_base + image_bytes;
        for pc in LAYOUT.code_base - 8..end + 4 {
            check_pc(&base, &image, pc)?;
        }
        let mut others = vec![
            LAYOUT.code_base + LAYOUT.code_size - 4,
            LAYOUT.code_base + LAYOUT.code_size - 1,
            LAYOUT.data_base,
            LAYOUT.data_base + 6,
            LAYOUT.stack_top - 16,
            LAYOUT.shadow_stack_base,
            LAYOUT.shadow_stack_base + 3,
            0,
            u64::MAX - 3,
        ];
        // Code PCs carrying a PAC in the bits above the 39-bit address
        // space, and one with only bit 55 set.
        for pc in [LAYOUT.code_base, end - 4, end] {
            others.extend([pc | pac << 48, pc | pac << 40, pc | 1 << 55]);
        }
        for pc in others {
            check_pc(&base, &image, pc)?;
        }
    }
}
