//! The instruction subset the simulator executes.
//!
//! This is not an encoder/decoder for real AArch64 machine code — programs
//! are held as structured instructions with a 4-byte program counter stride,
//! which preserves every property the PACStack evaluation needs (addresses,
//! W⊕X, faulting semantics, per-instruction cost) without a binary layer.

use crate::Reg;
use std::fmt;

/// A condition code for [`Instruction::BCond`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal (`Z == 1`).
    Eq,
    /// Not equal (`Z == 0`).
    Ne,
    /// Unsigned lower (`C == 0`).
    Lo,
    /// Unsigned higher or same (`C == 1`).
    Hs,
    /// Signed less than (`N != V`).
    Lt,
    /// Signed greater or equal (`N == V`).
    Ge,
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lo => "lo",
            Cond::Hs => "hs",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// One simulated instruction.
///
/// Branch targets are absolute virtual addresses; the assembler in
/// [`Program`](crate::Program) resolves labels to addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    // --- data movement -----------------------------------------------------
    /// `mov Xd, Xn`
    Mov(Reg, Reg),
    /// `mov Xd, #imm` (materialise a 64-bit immediate)
    MovImm(Reg, u64),

    // --- arithmetic / logic ------------------------------------------------
    /// `add Xd, Xn, Xm`
    Add(Reg, Reg, Reg),
    /// `add Xd, Xn, #imm` (imm may be negative)
    AddImm(Reg, Reg, i64),
    /// `sub Xd, Xn, Xm`
    Sub(Reg, Reg, Reg),
    /// `mul Xd, Xn, Xm`
    Mul(Reg, Reg, Reg),
    /// `eor Xd, Xn, Xm`
    Eor(Reg, Reg, Reg),
    /// `eor Xd, Xn, #imm`
    EorImm(Reg, Reg, u64),
    /// `and Xd, Xn, #imm`
    AndImm(Reg, Reg, u64),
    /// `lsr Xd, Xn, #shift`
    LsrImm(Reg, Reg, u32),
    /// `cmp Xn, Xm` (sets flags)
    Cmp(Reg, Reg),
    /// `cmp Xn, #imm` (sets flags)
    CmpImm(Reg, i64),

    // --- memory ------------------------------------------------------------
    /// `ldr Xt, [Xn, #offset]`
    Ldr(Reg, Reg, i64),
    /// `str Xt, [Xn, #offset]`
    Str(Reg, Reg, i64),
    /// `ldr Xt, [Xn], #offset` — post-indexed (pop idiom)
    LdrPost(Reg, Reg, i64),
    /// `ldr Xt, [Xn, #offset]!` — pre-indexed (shadow-stack pop idiom)
    LdrPre(Reg, Reg, i64),
    /// `str Xt, [Xn, #offset]!` — pre-indexed (push idiom)
    StrPre(Reg, Reg, i64),
    /// `str Xt, [Xn], #offset` — post-indexed (shadow-stack push idiom)
    StrPost(Reg, Reg, i64),
    /// `stp Xt1, Xt2, [Xn, #offset]`
    Stp(Reg, Reg, Reg, i64),
    /// `ldp Xt1, Xt2, [Xn, #offset]`
    Ldp(Reg, Reg, Reg, i64),

    // --- control flow ------------------------------------------------------
    /// `b target`
    B(u64),
    /// `b.cond target`
    BCond(Cond, u64),
    /// `cbz Xt, target`
    Cbz(Reg, u64),
    /// `cbnz Xt, target`
    Cbnz(Reg, u64),
    /// `bl target` — call: `LR ← return address`
    Bl(u64),
    /// `blr Xn` — indirect call
    Blr(Reg),
    /// `br Xn` — indirect jump (tail calls)
    Br(Reg),
    /// `ret` — branch to `LR`
    Ret,

    // --- pointer authentication ---------------------------------------------
    /// `pacia Xd, Xn` — sign `Xd` with instruction key A, modifier `Xn`
    Pacia(Reg, Reg),
    /// `autia Xd, Xn` — authenticate `Xd` with instruction key A
    Autia(Reg, Reg),
    /// `pacib Xd, Xn` — sign with instruction key B (the arm64e choice)
    Pacib(Reg, Reg),
    /// `autib Xd, Xn` — authenticate with instruction key B
    Autib(Reg, Reg),
    /// `paciasp` — sign `LR` with `SP` as modifier (`-mbranch-protection`)
    Paciasp,
    /// `autiasp` — authenticate `LR` with `SP` as modifier
    Autiasp,
    /// `retaa` — authenticate `LR` with `SP` as modifier, then return
    Retaa,
    /// `pacibsp` — sign `LR` with `SP`, key B
    Pacibsp,
    /// `retab` — authenticate `LR` with `SP` (key B), then return
    Retab,
    /// `bti` — branch-target indicator: a valid landing pad for indirect
    /// branches when BTI enforcement is on (assumption A2)
    Bti,
    /// `xpaci Xd` — strip the PAC from `Xd`
    Xpaci(Reg),
    /// `pacga Xd, Xn, Xm` — generic MAC of `Xn` with modifier `Xm`
    Pacga(Reg, Reg, Reg),

    // --- system --------------------------------------------------------------
    /// `svc #imm` — supervisor call; the kernel model dispatches on `X8`
    Svc(u16),
    /// `nop`
    Nop,
}

/// An instruction's retire class: the `class` label of the
/// `cpu_insns_class_total` telemetry counter and the column of
/// [`InsnCounters`](crate::InsnCounters) it counts in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsnClass {
    /// The PA family: `pac*`, `aut*`, `retaa`/`retab`, `xpaci`, `pacga`.
    PointerAuth,
    /// Loads and stores; a pair counts once.
    Memory,
    /// Branches, taken or not, calls and returns.
    Branch,
    /// Everything else: ALU, moves, multiply, `bti`, `svc`, `nop`.
    Other,
}

impl InsnClass {
    /// Every class, in declaration order: `ALL[class as usize] == class`,
    /// which is how the CPU indexes its per-class retire counts.
    pub const ALL: [InsnClass; 4] = [
        InsnClass::PointerAuth,
        InsnClass::Memory,
        InsnClass::Branch,
        InsnClass::Other,
    ];

    /// The `class` label of `cpu_insns_class_total`.
    pub fn label(self) -> &'static str {
        match self {
            InsnClass::PointerAuth => "pointer_auth",
            InsnClass::Memory => "memory",
            InsnClass::Branch => "branch",
            InsnClass::Other => "other",
        }
    }
}

/// What retiring one instruction adds to the CPU's counters, decided by
/// [`Instruction::classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retire {
    /// The retire class it counts in.
    pub class: InsnClass,
    /// The cycles it is charged, at fetch, even if it then faults.
    pub cycles: u64,
    /// Whether it is a shadow-stack access: a load or store through the
    /// shadow-stack pointer in an addressing mode the instrumentation emits
    /// (plain, pre-indexed pop, post-indexed push).
    pub shadow: bool,
}

// The cycle cost table. The paper's §7 could not time PA instructions on
// silicon: it ran a PA-analogue on ARMv8.2 cores and charged each PAC the
// ~4-cycle latency estimated from QARMA hardware evaluations (Avanzi 2017,
// via Liljestrand et al. 2019). These fixed costs play that role, so the
// schemes' instrumentation overheads compare as cycle ratios.

/// ALU, move, branch, call, return, `bti` and `nop`.
const ALU_CYCLES: u64 = 1;
/// A load or store that hits L1.
const MEMORY_CYCLES: u64 = 2;
/// A shadow-stack access: the memory latency plus 2 cycles of cache and
/// TLB traffic, because the shadow stack lives far from the hot stack.
const SHADOW_CYCLES: u64 = MEMORY_CYCLES + 2;
/// A PA instruction: the paper's ~4-cycle PAC.
const PAC_CYCLES: u64 = 4;
/// `retaa`/`retab`: an authentication plus a return.
const AUTH_RETURN_CYCLES: u64 = PAC_CYCLES + ALU_CYCLES;
/// Integer multiply.
const MULTIPLY_CYCLES: u64 = 3;
/// A supervisor call, the EL0→EL1 round trip.
const SYSCALL_CYCLES: u64 = 200;

impl Instruction {
    /// The one answer to "what kind of instruction is this": its retire
    /// class, its cycle charge and whether it accesses the shadow stack.
    ///
    /// ```
    /// use pacstack_aarch64::{InsnClass, Instruction, Reg};
    ///
    /// let retire = Instruction::Pacia(Reg::X30, Reg::X28).classify();
    /// assert_eq!((retire.class, retire.cycles), (InsnClass::PointerAuth, 4));
    /// assert!(Instruction::StrPost(Reg::X30, Reg::SCS, 8).classify().shadow);
    /// ```
    #[inline]
    pub fn classify(&self) -> Retire {
        use InsnClass::{Branch, Memory, Other, PointerAuth};
        use Instruction::*;
        let (class, cycles) = match self {
            Ldr(_, Reg::SCS, _)
            | Str(_, Reg::SCS, _)
            | LdrPre(_, Reg::SCS, _)
            | StrPost(_, Reg::SCS, _) => {
                return Retire {
                    class: Memory,
                    cycles: SHADOW_CYCLES,
                    shadow: true,
                }
            }
            Ldr(..) | Str(..) | LdrPost(..) | LdrPre(..) | StrPre(..) | StrPost(..) | Stp(..)
            | Ldp(..) => (Memory, MEMORY_CYCLES),
            B(..) | BCond(..) | Cbz(..) | Cbnz(..) | Bl(..) | Blr(..) | Br(..) | Ret => {
                (Branch, ALU_CYCLES)
            }
            Retaa | Retab => (PointerAuth, AUTH_RETURN_CYCLES),
            Pacia(..) | Autia(..) | Pacib(..) | Autib(..) | Paciasp | Autiasp | Pacibsp
            | Xpaci(..) | Pacga(..) => (PointerAuth, PAC_CYCLES),
            Mul(..) => (Other, MULTIPLY_CYCLES),
            Svc(..) => (Other, SYSCALL_CYCLES),
            Mov(..) | MovImm(..) | Add(..) | AddImm(..) | Sub(..) | Eor(..) | EorImm(..)
            | AndImm(..) | LsrImm(..) | Cmp(..) | CmpImm(..) | Bti | Nop => (Other, ALU_CYCLES),
        };
        Retire {
            class,
            cycles,
            shadow: false,
        }
    }

    /// Whether this instruction is one of the PA family.
    pub fn is_pointer_auth(&self) -> bool {
        self.classify().class == InsnClass::PointerAuth
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instruction::*;
        match self {
            Mov(d, n) => write!(f, "mov {d}, {n}"),
            MovImm(d, imm) => write!(f, "mov {d}, #{imm:#x}"),
            Add(d, n, m) => write!(f, "add {d}, {n}, {m}"),
            AddImm(d, n, imm) => write!(f, "add {d}, {n}, #{imm}"),
            Sub(d, n, m) => write!(f, "sub {d}, {n}, {m}"),
            Mul(d, n, m) => write!(f, "mul {d}, {n}, {m}"),
            Eor(d, n, m) => write!(f, "eor {d}, {n}, {m}"),
            EorImm(d, n, imm) => write!(f, "eor {d}, {n}, #{imm:#x}"),
            AndImm(d, n, imm) => write!(f, "and {d}, {n}, #{imm:#x}"),
            LsrImm(d, n, s) => write!(f, "lsr {d}, {n}, #{s}"),
            Cmp(n, m) => write!(f, "cmp {n}, {m}"),
            CmpImm(n, imm) => write!(f, "cmp {n}, #{imm}"),
            Ldr(t, n, o) => write!(f, "ldr {t}, [{n}, #{o}]"),
            Str(t, n, o) => write!(f, "str {t}, [{n}, #{o}]"),
            LdrPost(t, n, o) => write!(f, "ldr {t}, [{n}], #{o}"),
            LdrPre(t, n, o) => write!(f, "ldr {t}, [{n}, #{o}]!"),
            StrPre(t, n, o) => write!(f, "str {t}, [{n}, #{o}]!"),
            StrPost(t, n, o) => write!(f, "str {t}, [{n}], #{o}"),
            Stp(t1, t2, n, o) => write!(f, "stp {t1}, {t2}, [{n}, #{o}]"),
            Ldp(t1, t2, n, o) => write!(f, "ldp {t1}, {t2}, [{n}, #{o}]"),
            B(a) => write!(f, "b {a:#x}"),
            BCond(c, a) => write!(f, "b.{c} {a:#x}"),
            Cbz(t, a) => write!(f, "cbz {t}, {a:#x}"),
            Cbnz(t, a) => write!(f, "cbnz {t}, {a:#x}"),
            Bl(a) => write!(f, "bl {a:#x}"),
            Blr(n) => write!(f, "blr {n}"),
            Br(n) => write!(f, "br {n}"),
            Ret => f.write_str("ret"),
            Pacia(d, n) => write!(f, "pacia {d}, {n}"),
            Autia(d, n) => write!(f, "autia {d}, {n}"),
            Pacib(d, n) => write!(f, "pacib {d}, {n}"),
            Autib(d, n) => write!(f, "autib {d}, {n}"),
            Paciasp => f.write_str("paciasp"),
            Autiasp => f.write_str("autiasp"),
            Retaa => f.write_str("retaa"),
            Pacibsp => f.write_str("pacibsp"),
            Retab => f.write_str("retab"),
            Bti => f.write_str("bti"),
            Xpaci(d) => write!(f, "xpaci {d}"),
            Pacga(d, n, m) => write!(f, "pacga {d}, {n}, {m}"),
            Svc(imm) => write!(f, "svc #{imm}"),
            Nop => f.write_str("nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Position of `insn`'s variant in declaration order. The match is
    /// exhaustive, so a new variant does not compile until it is added
    /// here, and the table test then fails until it has a row.
    fn ordinal(insn: &Instruction) -> usize {
        use Instruction::*;
        match insn {
            Mov(..) => 0,
            MovImm(..) => 1,
            Add(..) => 2,
            AddImm(..) => 3,
            Sub(..) => 4,
            Mul(..) => 5,
            Eor(..) => 6,
            EorImm(..) => 7,
            AndImm(..) => 8,
            LsrImm(..) => 9,
            Cmp(..) => 10,
            CmpImm(..) => 11,
            Ldr(..) => 12,
            Str(..) => 13,
            LdrPost(..) => 14,
            LdrPre(..) => 15,
            StrPre(..) => 16,
            StrPost(..) => 17,
            Stp(..) => 18,
            Ldp(..) => 19,
            B(..) => 20,
            BCond(..) => 21,
            Cbz(..) => 22,
            Cbnz(..) => 23,
            Bl(..) => 24,
            Blr(..) => 25,
            Br(..) => 26,
            Ret => 27,
            Pacia(..) => 28,
            Autia(..) => 29,
            Pacib(..) => 30,
            Autib(..) => 31,
            Paciasp => 32,
            Autiasp => 33,
            Retaa => 34,
            Pacibsp => 35,
            Retab => 36,
            Bti => 37,
            Xpaci(..) => 38,
            Pacga(..) => 39,
            Svc(..) => 40,
            Nop => 41,
        }
    }

    #[test]
    fn classifier_table_covers_every_variant() {
        use Instruction::*;
        const PA: InsnClass = InsnClass::PointerAuth;
        const MEM: InsnClass = InsnClass::Memory;
        const BR: InsnClass = InsnClass::Branch;
        const OTHER: InsnClass = InsnClass::Other;
        let (x0, x1, x2, sp, lr, scs) = (Reg::X0, Reg::X1, Reg::X2, Reg::Sp, Reg::X30, Reg::SCS);
        let table = [
            (Mov(x0, x1), OTHER, 1, false),
            (MovImm(x0, 7), OTHER, 1, false),
            (Add(x0, x1, x2), OTHER, 1, false),
            (AddImm(x0, x1, -1), OTHER, 1, false),
            (Sub(x0, x1, x2), OTHER, 1, false),
            (Mul(x0, x1, x2), OTHER, 3, false),
            (Eor(x0, x1, x2), OTHER, 1, false),
            (EorImm(x0, x1, 0xff), OTHER, 1, false),
            (AndImm(x0, x1, 0xff), OTHER, 1, false),
            (LsrImm(x0, x1, 3), OTHER, 1, false),
            (Cmp(x0, x1), OTHER, 1, false),
            (CmpImm(x0, 3), OTHER, 1, false),
            // The six single-register forms, through SP and through SCS:
            // only the four shadow-stack idioms carry the surcharge.
            (Ldr(x0, sp, 0), MEM, 2, false),
            (Ldr(lr, scs, 0), MEM, 4, true),
            (Str(lr, sp, 0), MEM, 2, false),
            (Str(lr, scs, 0), MEM, 4, true),
            (LdrPost(lr, sp, 16), MEM, 2, false),
            (LdrPost(lr, scs, 8), MEM, 2, false),
            (LdrPre(lr, sp, -8), MEM, 2, false),
            (LdrPre(lr, scs, -8), MEM, 4, true),
            (StrPre(lr, sp, -16), MEM, 2, false),
            (StrPre(lr, scs, -8), MEM, 2, false),
            (StrPost(lr, sp, 8), MEM, 2, false),
            (StrPost(lr, scs, 8), MEM, 4, true),
            // SCS as the data register (the jmp_buf save) is no shadow access.
            (Str(scs, Reg::X10, 24), MEM, 2, false),
            (Stp(Reg::X29, lr, sp, -16), MEM, 2, false),
            (Ldp(Reg::X29, lr, sp, 16), MEM, 2, false),
            (B(0x40_0000), BR, 1, false),
            (BCond(Cond::Ne, 0x40_0000), BR, 1, false),
            (Cbz(x0, 0x40_0000), BR, 1, false),
            (Cbnz(x0, 0x40_0000), BR, 1, false),
            (Bl(0x40_0000), BR, 1, false),
            (Blr(x1), BR, 1, false),
            (Br(x1), BR, 1, false),
            (Ret, BR, 1, false),
            (Pacia(lr, Reg::X28), PA, 4, false),
            (Autia(lr, Reg::X28), PA, 4, false),
            (Pacib(lr, Reg::X28), PA, 4, false),
            (Autib(lr, Reg::X28), PA, 4, false),
            (Paciasp, PA, 4, false),
            (Autiasp, PA, 4, false),
            (Retaa, PA, 5, false),
            (Pacibsp, PA, 4, false),
            (Retab, PA, 5, false),
            (Bti, OTHER, 1, false),
            (Xpaci(lr), PA, 4, false),
            (Pacga(x0, x1, x2), PA, 4, false),
            (Svc(0), OTHER, 200, false),
            (Nop, OTHER, 1, false),
        ];
        let mut seen = [false; 42];
        for (insn, class, cycles, shadow) in table {
            seen[ordinal(&insn)] = true;
            let expected = Retire {
                class,
                cycles,
                shadow,
            };
            assert_eq!(insn.classify(), expected, "{insn}");
            assert_eq!(insn.is_pointer_auth(), class == PA, "{insn}");
        }
        let missing: Vec<usize> = (0..seen.len()).filter(|&i| !seen[i]).collect();
        assert!(missing.is_empty(), "variants without a row: {missing:?}");
    }

    #[test]
    fn class_discriminants_index_all() {
        for (i, class) in InsnClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i, "{class:?}");
        }
    }

    #[test]
    fn display_renders_assembly() {
        assert_eq!(
            Instruction::Pacia(Reg::X30, Reg::X28).to_string(),
            "pacia lr, x28"
        );
        assert_eq!(
            Instruction::Str(Reg::X30, Reg::Sp, 8).to_string(),
            "str lr, [sp, #8]"
        );
        assert_eq!(
            Instruction::BCond(Cond::Ne, 0x400010).to_string(),
            "b.ne 0x400010"
        );
    }
}
