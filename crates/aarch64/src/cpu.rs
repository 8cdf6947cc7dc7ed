//! The CPU interpreter.

use crate::memory::LAYOUT;
use crate::program::LinkError;
use crate::regs::RegisterFile;
use crate::{Cond, Fault, InsnClass, Instruction, Memory, Program, Reg, Retire};
use pacstack_pauth::{AuthFailure, PaKey, PaKeys, PointerAuth, VaLayout};
use pacstack_telemetry as telemetry;
use std::collections::HashMap;
use std::sync::Arc;

/// NZCV condition flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Flags {
    n: bool,
    z: bool,
    c: bool,
    v: bool,
}

impl Flags {
    fn holds(&self, cond: Cond) -> bool {
        match cond {
            Cond::Eq => self.z,
            Cond::Ne => !self.z,
            Cond::Lo => !self.c,
            Cond::Hs => self.c,
            Cond::Lt => self.n != self.v,
            Cond::Ge => self.n == self.v,
        }
    }
}

/// A saved user-space execution context (`struct cpu_context` in Linux).
///
/// Produced by [`Cpu::save_context`] during a modelled context switch or
/// signal delivery. Its fields are private and it lives *outside* the
/// simulated [`Memory`](crate::Memory): this is the paper's §5.4 argument —
/// CR and LR of a non-executing task sit in kernel-owned storage the
/// adversary cannot reach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Context {
    regs: RegisterFile,
    pc: u64,
    flags: Flags,
}

impl Context {
    /// Reads one register from the saved context (kernel/harness use).
    pub fn reg(&self, reg: Reg) -> u64 {
        self.regs.read(reg)
    }

    /// The saved program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }
}

/// Why [`Cpu::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The program exited via `svc #0`; carries `X0`.
    Exited(u64),
    /// An `svc` the CPU does not service internally; the kernel model (or
    /// test harness) should handle it and resume.
    Syscall(u16),
}

/// Retired-instruction counters by class — the "added instructions"
/// accounting the paper's §7.1 discussion rests on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InsnCounters {
    /// Pointer-authentication instructions (`pacia`, `autia`, `retaa`, ...).
    pub pointer_auth: u64,
    /// Loads/stores (pairs count once).
    pub memory: u64,
    /// Taken and untaken branches, calls and returns.
    pub branches: u64,
    /// Everything else (ALU, moves, system).
    pub other: u64,
}

impl InsnCounters {
    /// Total retired instructions.
    pub fn total(&self) -> u64 {
        self.pointer_auth + self.memory + self.branches + self.other
    }
}

/// The result of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Exit code (`X0` at `svc #0`); zero if stopped by a foreign syscall.
    pub exit_code: u64,
    /// Why execution stopped.
    pub status: RunStatus,
    /// Total simulated cycles so far (cumulative across resumed runs).
    pub cycles: u64,
    /// Total retired instructions so far.
    pub instructions: u64,
}

/// One slot of the direct-mapped PAC memo cache: the last MAC computed for a
/// `(key, canonical pointer, modifier)` triple that hashed to this index.
///
/// `epoch` tags the entry with the value of [`Cpu`]'s key epoch at fill time;
/// `0` never matches a live epoch, so zeroed slots are empty. The epoch (not
/// the key material) is what invalidates the whole cache on `set_keys` /
/// `corrupt_keys` in O(1).
#[derive(Debug, Clone, Copy, Default)]
struct PacSlot {
    epoch: u64,
    key: u8,
    pointer: u64,
    modifier: u64,
    pac: u64,
}

/// Number of slots in the PAC memo cache. Direct-mapped; 256 slots cover the
/// working set of return-address signatures for call depths far beyond what
/// the workloads reach, at ~10 KiB per CPU.
const PAC_CACHE_SLOTS: usize = 256;

/// Cache tag for `pacga` entries. `pacga` truncates differently from the
/// pointer PACs (upper 32 bits, not `pac_bits`), so its entries must never
/// alias a hypothetical pointer-PAC under the GA key (tag 4).
const PACGA_TAG: u8 = 5;

fn pac_slot_index(key_tag: u8, pointer: u64, modifier: u64) -> usize {
    let mixed =
        (pointer ^ modifier.rotate_left(32) ^ key_tag as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> 56) as usize
}

fn pac_key_tag(key: PaKey) -> u8 {
    match key {
        PaKey::Ia => 0,
        PaKey::Ib => 1,
        PaKey::Da => 2,
        PaKey::Db => 3,
        PaKey::Ga => 4,
    }
}

/// One instruction of the linked image, decoded once at link: the
/// instruction, its [`Instruction::classify`] charge, and whether an
/// indirect branch may land on it under BTI (a function entry or a `bti`).
#[derive(Debug, Clone, Copy)]
struct Slot {
    insn: Instruction,
    retire: Retire,
    landing: bool,
}

/// The simulated CPU: register file, PC, flags, memory, PA unit and cycle
/// accounting.
///
/// It holds no observers. [`Cpu::run_observed`] is its one retire loop and
/// calls a caller-held observer per retired instruction; [`Cpu::run`] is
/// that loop with an empty observer, followed by a telemetry publish.
///
/// # Examples
///
/// A return-address overwrite faulting under `retaa` (pac-ret):
///
/// ```
/// use pacstack_aarch64::{Cpu, Fault, Instruction::*, Program, Reg};
///
/// let mut p = Program::new();
/// p.function("main", vec![
///     Paciasp,                       // sign LR with SP
///     StrPre(Reg::X30, Reg::Sp, -16),// spill
///     LdrPost(Reg::X30, Reg::Sp, 16),// reload
///     EorImm(Reg::X30, Reg::X30, 8), // "attacker" redirects the return
///     Retaa,                         // authenticate + return
/// ]);
/// let mut cpu = Cpu::with_seed(p, 1);
/// assert!(matches!(cpu.run(100), Err(Fault::TranslationFault { .. })));
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    regs: RegisterFile,
    pc: u64,
    flags: Flags,
    mem: Memory,
    /// The linked program, decoded, which never changes: clones share it.
    image: Arc<[Slot]>,
    pub(crate) symbols: Arc<HashMap<String, u64>>,
    pa: PointerAuth,
    keys: PaKeys,
    /// Set when the key registers were corrupted out-of-band (fault
    /// injection); lets authentication failures surface as
    /// [`Fault::KeyFault`] instead of a generic mismatch.
    keys_tainted: bool,
    /// Direct-mapped memo of recently computed PACs; see [`PacSlot`].
    pac_cache: Box<[PacSlot; PAC_CACHE_SLOTS]>,
    /// Monotonic key epoch, starting at 1 and bumped on *every* key-register
    /// write — legitimate (`set_keys`) or glitched (`corrupt_keys`) — so a
    /// key change can never be answered from a stale [`PacSlot`].
    key_epoch: u64,
    /// Whether the PAC memo cache is consulted at all. On by default;
    /// [`Cpu::set_pac_memo`] turns it off for differential testing.
    pac_memo: bool,
    /// `(hits, misses)` on the PAC memo cache, for differential tests.
    pac_cache_stats: (u64, u64),
    cycles: u64,
    /// Retired instructions per class, indexed by `InsnClass as usize`;
    /// their sum is [`Cpu::instructions`].
    classes: [u64; 4],
    /// Retired shadow-stack accesses, as [`Instruction::classify`] decides
    /// them (always counted, like `pac_cache_stats`).
    shadow_accesses: u64,
    output: Vec<u64>,
    /// Watermark of what [`Cpu::publish_telemetry`] has already emitted, so
    /// resumed runs publish deltas exactly once.
    tmark: TelemetryMark,
    bti: bool,
}

/// Snapshot of the monotonic performance counters at the last telemetry
/// publish.
#[derive(Debug, Clone, Copy, Default)]
struct TelemetryMark {
    cycles: u64,
    classes: [u64; 4],
    pac_hits: u64,
    pac_misses: u64,
    shadow_accesses: u64,
}

impl Cpu {
    /// Builds a CPU for `program` with PA keys derived from `seed` and the
    /// standard memory layout.
    ///
    /// # Panics
    ///
    /// Panics if the program does not link; use [`Cpu::try_with_seed`] to
    /// handle malformed programs as data.
    pub fn with_seed(program: Program, seed: u64) -> Self {
        match Self::try_with_seed(program, seed) {
            Ok(cpu) => cpu,
            Err(e) => panic!("program does not link: {e}"),
        }
    }

    /// Fallible variant of [`Cpu::with_seed`].
    ///
    /// # Errors
    ///
    /// Returns the [`LinkError`] if the program does not assemble.
    pub fn try_with_seed(program: Program, seed: u64) -> Result<Self, LinkError> {
        Self::try_with_parts(
            program,
            PaKeys::from_seed(seed),
            PointerAuth::new(VaLayout::default()),
        )
    }

    /// Builds a CPU with explicit keys and PA configuration.
    ///
    /// # Panics
    ///
    /// Panics if the program does not link; use [`Cpu::try_with_parts`] to
    /// handle malformed programs as data.
    pub fn with_parts(program: Program, keys: PaKeys, pa: PointerAuth) -> Self {
        match Self::try_with_parts(program, keys, pa) {
            Ok(cpu) => cpu,
            Err(e) => panic!("program does not link: {e}"),
        }
    }

    /// Fallible variant of [`Cpu::with_parts`] — the entry point for
    /// harnesses (fault injection, fuzzing) that must never abort the host
    /// process on a malformed program.
    ///
    /// # Errors
    ///
    /// Returns the [`LinkError`] if the program does not assemble.
    pub fn try_with_parts(
        program: Program,
        keys: PaKeys,
        pa: PointerAuth,
    ) -> Result<Self, LinkError> {
        let image = program.assemble(LAYOUT.code_base)?;
        let mut slots: Vec<Slot> = image
            .instructions
            .iter()
            .map(|&insn| Slot {
                insn,
                retire: insn.classify(),
                landing: insn == Instruction::Bti,
            })
            .collect();
        for &entry in image.symbols.values() {
            let index = entry.wrapping_sub(LAYOUT.code_base) / 4;
            if let Some(slot) = slots.get_mut(index as usize) {
                slot.landing = true;
            }
        }
        let mut regs = RegisterFile::new();
        regs.write(Reg::Sp, LAYOUT.stack_top - 16);
        regs.write(Reg::SCS, LAYOUT.shadow_stack_base);
        Ok(Self {
            regs,
            pc: image.entry,
            flags: Flags::default(),
            mem: Memory::with_standard_layout(),
            image: slots.into(),
            symbols: Arc::new(image.symbols),
            pa,
            keys,
            keys_tainted: false,
            pac_cache: Box::new([PacSlot::default(); PAC_CACHE_SLOTS]),
            key_epoch: 1,
            pac_memo: true,
            pac_cache_stats: (0, 0),
            cycles: 0,
            classes: [0; 4],
            shadow_accesses: 0,
            output: Vec::new(),
            tmark: TelemetryMark::default(),
            bti: false,
        })
    }

    /// Switches the PA unit to ARMv8.6-A FPAC semantics (fault on `aut*`).
    pub fn enable_fpac(&mut self) {
        self.pa = PointerAuth::with_failure(self.pa.layout(), AuthFailure::Fault);
    }

    /// Enables branch-target-indicator enforcement (ARMv8.5-A BTI): every
    /// indirect branch (`blr`/`br`) must land on a function entry or an
    /// explicit `bti` landing pad. This is one concrete way of satisfying
    /// the paper's assumption A2 (coarse-grained forward-edge CFI).
    pub fn enable_bti(&mut self) {
        self.bti = true;
    }

    /// A function entry lands only at its own address; a `bti` pad, like
    /// any fetch, from any PC inside its slot.
    fn check_branch_target(&self, target: u64) -> Result<(), Fault> {
        if !self.bti {
            return Ok(());
        }
        match self.decoded(target) {
            Ok(slot)
                if slot.landing && (target.is_multiple_of(4) || slot.insn == Instruction::Bti) =>
            {
                Ok(())
            }
            _ => Err(Fault::FetchFault { pc: target }),
        }
    }

    /// Reads a register.
    pub fn reg(&self, reg: Reg) -> u64 {
        self.regs.read(reg)
    }

    /// Writes a register (trusted-harness access; user code cannot do this).
    pub fn set_reg(&mut self, reg: Reg, value: u64) {
        self.regs.write(reg, value);
    }

    /// The current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Redirects execution (kernel/harness use: signal delivery, resume).
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// The process memory — also the adversary's read/write surface.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory access (adversary primitive or kernel use).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The PA unit.
    pub fn pa(&self) -> &PointerAuth {
        &self.pa
    }

    /// The process PA keys (kernel-owned; not reachable from simulated code).
    pub fn keys(&self) -> &PaKeys {
        &self.keys
    }

    /// Replaces the PA keys, as the kernel does on `exec`. Legitimate
    /// kernel re-keying clears any corruption taint.
    pub fn set_keys(&mut self, keys: PaKeys) {
        self.keys = keys;
        self.keys_tainted = false;
        self.key_epoch += 1;
    }

    /// Overwrites the PA keys *as a fault*, not as kernel policy: models a
    /// glitch on the key registers. Subsequent authentication failures
    /// surface as [`Fault::KeyFault`] so campaigns can attribute the
    /// mismatch to key corruption rather than a forged pointer.
    pub fn corrupt_keys(&mut self, keys: PaKeys) {
        self.keys = keys;
        self.keys_tainted = true;
        // A glitch invalidates the memo exactly like a re-key: any PAC cached
        // under the old keys must recompute, so post-corruption `aut*` fails
        // against the *new* (wrong) keys and is attributed as a KeyFault
        // rather than silently passing off a stale cached MAC.
        self.key_epoch += 1;
    }

    /// Whether the PA keys were corrupted via [`Cpu::corrupt_keys`] and not
    /// yet legitimately replaced.
    pub fn keys_tainted(&self) -> bool {
        self.keys_tainted
    }

    /// Address of a function, if defined.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Saves the user-visible execution state into kernel-private storage,
    /// as `kernel_entry` does on EL0→EL1 transitions (paper §5.4).
    pub fn save_context(&self) -> Context {
        Context {
            regs: self.regs.clone(),
            pc: self.pc,
            flags: self.flags,
        }
    }

    /// Restores a previously saved context.
    pub fn restore_context(&mut self, ctx: &Context) {
        self.regs = ctx.regs.clone();
        self.pc = ctx.pc;
        self.flags = ctx.flags;
    }

    /// Cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.classes.iter().sum()
    }

    /// Retired-instruction counters by class.
    pub fn counters(&self) -> InsnCounters {
        let count = |class: InsnClass| self.classes[class as usize];
        InsnCounters {
            pointer_auth: count(InsnClass::PointerAuth),
            memory: count(InsnClass::Memory),
            branches: count(InsnClass::Branch),
            other: count(InsnClass::Other),
        }
    }

    /// Values emitted via `svc #1`.
    pub fn output(&self) -> &[u64] {
        &self.output
    }

    /// The instruction at a code address, if the address is mapped
    /// executable — the disassembler's entry point.
    pub fn instruction_at(&self, pc: u64) -> Option<Instruction> {
        self.decoded(pc).ok().map(|slot| slot.insn)
    }

    /// Memory accesses made through the shadow-stack pointer so far.
    pub fn shadow_accesses(&self) -> u64 {
        self.shadow_accesses
    }

    /// The decoded slot at `pc` after the full fetch check, so a fault
    /// keeps its kind and address: [`Memory::check_execute`], then the
    /// image bounds.
    fn decoded(&self, pc: u64) -> Result<Slot, Fault> {
        self.mem.check_execute(pc)?;
        let index = pc.wrapping_sub(LAYOUT.code_base) / 4;
        self.image
            .get(index as usize)
            .copied()
            .ok_or(Fault::FetchFault { pc })
    }

    /// How many leading image slots [`Cpu::decoded`] would serve from every
    /// PC in them, aligned or not: the image as far as the current memory
    /// maps it executable from `LAYOUT.code_base`.
    fn fetchable_slots(&self) -> usize {
        let bytes = self
            .mem
            .executable_from(LAYOUT.code_base, self.image.len() as u64 * 4);
        (bytes / 4) as usize
    }

    fn set_flags_from_cmp(&mut self, a: u64, b: u64) {
        let (result, borrow) = a.overflowing_sub(b);
        self.flags.n = (result >> 63) & 1 == 1;
        self.flags.z = result == 0;
        self.flags.c = !borrow;
        self.flags.v = ((a ^ b) & (a ^ result)) >> 63 == 1;
    }

    /// Enables or disables the PAC memo cache. Architecturally invisible:
    /// the cache only ever replays MACs the PA unit would recompute
    /// identically, so outcomes, outputs and cycle counts do not depend on
    /// this switch — a property the test suite pins differentially.
    pub fn set_pac_memo(&mut self, enabled: bool) {
        self.pac_memo = enabled;
        if !enabled {
            *self.pac_cache = [PacSlot::default(); PAC_CACHE_SLOTS];
        }
    }

    /// `(hits, misses)` recorded by the PAC memo cache since construction.
    pub fn pac_cache_stats(&self) -> (u64, u64) {
        self.pac_cache_stats
    }

    /// The raw PAC for `(key, pointer, modifier)`, answered from the memo
    /// cache when possible. Entries are keyed on the canonical address (PAC
    /// field stripped), so `pac*` followed by `aut*` of the signed pointer is
    /// a hit, and tagged with the key epoch so no key write can be bridged.
    fn cached_pac(&mut self, key: PaKey, pointer: u64, modifier: u64) -> u64 {
        if !self.pac_memo {
            return self.pa.compute_pac(&self.keys, key, pointer, modifier);
        }
        let canonical = self.pa.strip(pointer);
        let tag = pac_key_tag(key);
        let idx = pac_slot_index(tag, canonical, modifier);
        let slot = &self.pac_cache[idx];
        if slot.epoch == self.key_epoch
            && slot.key == tag
            && slot.pointer == canonical
            && slot.modifier == modifier
        {
            self.pac_cache_stats.0 += 1;
            return slot.pac;
        }
        self.pac_cache_stats.1 += 1;
        let pac = self.pa.compute_pac(&self.keys, key, canonical, modifier);
        self.pac_cache[idx] = PacSlot {
            epoch: self.key_epoch,
            key: tag,
            pointer: canonical,
            modifier,
            pac,
        };
        pac
    }

    /// `pacga` through the memo cache. Uses a tag outside the key-register
    /// range because `pacga` hashes the full 64-bit operand (no
    /// canonicalisation) and truncates to the upper 32 bits.
    fn cached_pacga(&mut self, x: u64, y: u64) -> u64 {
        if !self.pac_memo {
            return self.pa.pacga(&self.keys, x, y);
        }
        let idx = pac_slot_index(PACGA_TAG, x, y);
        let slot = &self.pac_cache[idx];
        if slot.epoch == self.key_epoch
            && slot.key == PACGA_TAG
            && slot.pointer == x
            && slot.modifier == y
        {
            self.pac_cache_stats.0 += 1;
            return slot.pac;
        }
        self.pac_cache_stats.1 += 1;
        let pac = self.pa.pacga(&self.keys, x, y);
        self.pac_cache[idx] = PacSlot {
            epoch: self.key_epoch,
            key: PACGA_TAG,
            pointer: x,
            modifier: y,
            pac,
        };
        pac
    }

    /// `pac*`-style signing through the memo cache: compute (or replay) the
    /// MAC, then insert it with the architectural poison-bit semantics.
    fn sign_with(&mut self, key: PaKey, pointer: u64, modifier: u64) -> u64 {
        let pac = self.cached_pac(key, pointer, modifier);
        self.pa.sign_with_pac(pac, pointer)
    }

    /// Performs an `aut*`-style authentication, honouring the configured
    /// failure mode: in FPAC mode a failure faults immediately; otherwise
    /// the corrupted pointer is produced and will fault on use.
    fn authenticate(&mut self, pointer: u64, modifier: u64) -> Result<u64, Fault> {
        self.authenticate_with(PaKey::Ia, pointer, modifier)
    }

    fn authenticate_with(&mut self, key: PaKey, pointer: u64, modifier: u64) -> Result<u64, Fault> {
        let expected = self.cached_pac(key, pointer, modifier);
        match self.pa.verify_with_pac(expected, pointer, key) {
            Ok(p) => Ok(p),
            // Failures under glitched key registers are attributable to the
            // key material itself; surfacing them as a distinct fault keeps
            // chaos-campaign classification honest. (A strictly-more-
            // detectable simplification in error-bit mode, where hardware
            // would fault one use later.)
            Err(_) if self.keys_tainted => Err(Fault::KeyFault { pointer }),
            Err(err) => match self.pa.failure() {
                AuthFailure::Fault => Err(Fault::PacFault { pointer }),
                AuthFailure::ErrorBit => Ok(err.corrupted),
            },
        }
    }

    /// Charges a fetched instruction's link-time [`Retire`] counts, before
    /// it executes (or faults): three adds, none of them behind a branch.
    #[inline(always)]
    fn retire(&mut self, retire: Retire) {
        self.cycles += retire.cycles;
        self.classes[retire.class as usize] += 1;
        self.shadow_accesses += u64::from(retire.shadow);
    }

    /// Executes a fetched and charged instruction. Forced inline: its one
    /// caller, [`Cpu::run_observed`], has an instantiation per observer type,
    /// and out of line each instruction paid a call and a return of its
    /// `Result` through memory.
    #[inline(always)]
    fn execute(&mut self, insn: Instruction) -> Result<Option<RunStatus>, Fault> {
        use Instruction::*;
        let mut next_pc = self.pc.wrapping_add(4);

        match insn {
            Mov(d, n) => self.regs.write(d, self.regs.read(n)),
            MovImm(d, imm) => self.regs.write(d, imm),
            Add(d, n, m) => {
                let v = self.regs.read(n).wrapping_add(self.regs.read(m));
                self.regs.write(d, v);
            }
            AddImm(d, n, imm) => {
                let v = self.regs.read(n).wrapping_add(imm as u64);
                self.regs.write(d, v);
            }
            Sub(d, n, m) => {
                let v = self.regs.read(n).wrapping_sub(self.regs.read(m));
                self.regs.write(d, v);
            }
            Mul(d, n, m) => {
                let v = self.regs.read(n).wrapping_mul(self.regs.read(m));
                self.regs.write(d, v);
            }
            Eor(d, n, m) => self.regs.write(d, self.regs.read(n) ^ self.regs.read(m)),
            EorImm(d, n, imm) => self.regs.write(d, self.regs.read(n) ^ imm),
            AndImm(d, n, imm) => self.regs.write(d, self.regs.read(n) & imm),
            LsrImm(d, n, s) => self.regs.write(d, self.regs.read(n) >> s),
            Cmp(n, m) => self.set_flags_from_cmp(self.regs.read(n), self.regs.read(m)),
            CmpImm(n, imm) => self.set_flags_from_cmp(self.regs.read(n), imm as u64),

            Ldr(t, n, off) => {
                let addr = self.regs.read(n).wrapping_add(off as u64);
                let v = self.mem.read_u64(addr)?;
                self.regs.write(t, v);
            }
            Str(t, n, off) => {
                let addr = self.regs.read(n).wrapping_add(off as u64);
                self.mem.write_u64(addr, self.regs.read(t))?;
            }
            LdrPost(t, n, off) => {
                let addr = self.regs.read(n);
                let v = self.mem.read_u64(addr)?;
                self.regs.write(t, v);
                self.regs.write(n, addr.wrapping_add(off as u64));
            }
            LdrPre(t, n, off) => {
                let addr = self.regs.read(n).wrapping_add(off as u64);
                let v = self.mem.read_u64(addr)?;
                self.regs.write(t, v);
                self.regs.write(n, addr);
            }
            StrPre(t, n, off) => {
                let addr = self.regs.read(n).wrapping_add(off as u64);
                self.mem.write_u64(addr, self.regs.read(t))?;
                self.regs.write(n, addr);
            }
            StrPost(t, n, off) => {
                let addr = self.regs.read(n);
                self.mem.write_u64(addr, self.regs.read(t))?;
                self.regs.write(n, addr.wrapping_add(off as u64));
            }
            Stp(t1, t2, n, off) => {
                let addr = self.regs.read(n).wrapping_add(off as u64);
                self.mem.write_u64(addr, self.regs.read(t1))?;
                self.mem
                    .write_u64(addr.wrapping_add(8), self.regs.read(t2))?;
            }
            Ldp(t1, t2, n, off) => {
                let addr = self.regs.read(n).wrapping_add(off as u64);
                let v1 = self.mem.read_u64(addr)?;
                let v2 = self.mem.read_u64(addr.wrapping_add(8))?;
                self.regs.write(t1, v1);
                self.regs.write(t2, v2);
            }

            B(target) => next_pc = target,
            BCond(cond, target) => {
                if self.flags.holds(cond) {
                    next_pc = target;
                }
            }
            Cbz(t, target) => {
                if self.regs.read(t) == 0 {
                    next_pc = target;
                }
            }
            Cbnz(t, target) => {
                if self.regs.read(t) != 0 {
                    next_pc = target;
                }
            }
            Bl(target) => {
                self.regs.write(Reg::LR, next_pc);
                next_pc = target;
            }
            Blr(n) => {
                let target = self.regs.read(n);
                self.check_branch_target(target)?;
                self.regs.write(Reg::LR, next_pc);
                next_pc = target;
            }
            Br(n) => {
                let target = self.regs.read(n);
                self.check_branch_target(target)?;
                next_pc = target;
            }
            Ret => next_pc = self.regs.read(Reg::LR),

            Pacia(d, n) => {
                let signed = self.sign_with(PaKey::Ia, self.regs.read(d), self.regs.read(n));
                self.regs.write(d, signed);
            }
            Autia(d, n) => {
                let v = self.authenticate(self.regs.read(d), self.regs.read(n))?;
                self.regs.write(d, v);
            }
            Pacib(d, n) => {
                let signed = self.sign_with(PaKey::Ib, self.regs.read(d), self.regs.read(n));
                self.regs.write(d, signed);
            }
            Autib(d, n) => {
                let v = self.authenticate_with(PaKey::Ib, self.regs.read(d), self.regs.read(n))?;
                self.regs.write(d, v);
            }
            Paciasp => {
                let signed =
                    self.sign_with(PaKey::Ia, self.regs.read(Reg::LR), self.regs.read(Reg::Sp));
                self.regs.write(Reg::LR, signed);
            }
            Autiasp => {
                let v = self.authenticate(self.regs.read(Reg::LR), self.regs.read(Reg::Sp))?;
                self.regs.write(Reg::LR, v);
            }
            Retaa => {
                let v = self.authenticate(self.regs.read(Reg::LR), self.regs.read(Reg::Sp))?;
                self.regs.write(Reg::LR, v);
                next_pc = v;
            }
            Pacibsp => {
                let signed =
                    self.sign_with(PaKey::Ib, self.regs.read(Reg::LR), self.regs.read(Reg::Sp));
                self.regs.write(Reg::LR, signed);
            }
            Retab => {
                let v = self.authenticate_with(
                    PaKey::Ib,
                    self.regs.read(Reg::LR),
                    self.regs.read(Reg::Sp),
                )?;
                self.regs.write(Reg::LR, v);
                next_pc = v;
            }
            Bti => {}
            Xpaci(d) => {
                let v = self.pa.strip(self.regs.read(d));
                self.regs.write(d, v);
            }
            Pacga(d, n, m) => {
                let v = self.cached_pacga(self.regs.read(n), self.regs.read(m));
                self.regs.write(d, v);
            }

            Svc(0) => {
                self.pc = next_pc;
                return Ok(Some(RunStatus::Exited(self.regs.read(Reg::X0))));
            }
            Svc(1) => {
                self.output.push(self.regs.read(Reg::X0));
            }
            Svc(imm) => {
                self.pc = next_pc;
                return Ok(Some(RunStatus::Syscall(imm)));
            }
            Nop => {}
        }

        self.pc = next_pc;
        Ok(None)
    }

    /// Runs until exit, an unhandled syscall, a fault, or `budget` retired
    /// instructions: [`Cpu::run_observed`] with an empty observer, then its
    /// `cpu_faults_total` bump and [`Cpu::publish_telemetry`].
    ///
    /// # Errors
    ///
    /// As [`Cpu::run_observed`].
    pub fn run(&mut self, budget: u64) -> Result<Outcome, Fault> {
        let result = self.run_observed(budget, |_, _| {});
        self.publish_run(result.as_ref().err());
        result
    }

    /// The telemetry of a run that has ended, in `fault` if it faulted: one
    /// `cpu_faults_total` bump for the fault, then [`Cpu::publish_telemetry`].
    pub(crate) fn publish_run(&mut self, fault: Option<&Fault>) {
        if telemetry::enabled() {
            if let Some(fault) = fault {
                telemetry::counter(fault_counter(fault), 1);
            }
            self.publish_telemetry();
        }
    }

    /// The retire loop, and the only way to execute instructions. Per
    /// instruction it fetches, charges the [`Instruction::classify`] counts
    /// decoded at link, calls `observe` and executes; it publishes no
    /// telemetry. The observer so sees the fetching PC, [`Cpu::cycles`]
    /// including the charge, and the registers the instruction will read; a
    /// faulting one is observed. Running out of `budget` is a clean pause:
    /// the next call resumes at the next instruction.
    ///
    /// Each fetch is one unsigned compare of the PC against the part of
    /// the image that memory maps executable, computed at entry (nothing
    /// inside the loop can remap memory). Any other PC, wherever it was
    /// written from, takes the full [`Memory::check_execute`] path, so a
    /// fault keeps its kind and address.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] that terminated execution, or
    /// [`Fault::Timeout`] if the budget ran out.
    // Kept out of line: inlined into `run`'s callers, the loop retired
    // about a quarter fewer instructions per second.
    #[inline(never)]
    pub fn run_observed(
        &mut self,
        budget: u64,
        mut observe: impl FnMut(&Cpu, Instruction),
    ) -> Result<Outcome, Fault> {
        let image = Arc::clone(&self.image);
        let fetchable = &image[..self.fetchable_slots()];
        for _ in 0..budget {
            let index = self.pc.wrapping_sub(LAYOUT.code_base) / 4;
            let slot = match fetchable.get(index as usize) {
                Some(&slot) => slot,
                None => self.decoded(self.pc)?,
            };
            self.retire(slot.retire);
            observe(self, slot.insn);
            if let Some(status) = self.execute(slot.insn)? {
                let exit_code = match status {
                    RunStatus::Exited(code) => code,
                    RunStatus::Syscall(_) => 0,
                };
                return Ok(Outcome {
                    exit_code,
                    status,
                    cycles: self.cycles,
                    instructions: self.instructions(),
                });
            }
        }
        Err(Fault::Timeout)
    }

    /// Publishes the delta of every monotonic performance counter since the
    /// previous publish into the active telemetry sink. [`Cpu::run`] calls
    /// this on every exit path; harnesses that drive [`Cpu::run_observed`]
    /// call it once their run is over (a measured workload run, a
    /// fault-injection trial), so pauses between segments publish nothing.
    /// No-op, with no watermark movement, while telemetry is disabled.
    pub fn publish_telemetry(&mut self) {
        if !telemetry::enabled() {
            return;
        }
        let mark = self.tmark;
        let (hits, misses) = self.pac_cache_stats;
        let deltas = [
            ("cpu_cycles_total", self.cycles - mark.cycles),
            (
                "cpu_insns_total",
                self.instructions() - mark.classes.iter().sum::<u64>(),
            ),
            ("cpu_pac_memo_total{result=\"hit\"}", hits - mark.pac_hits),
            (
                "cpu_pac_memo_total{result=\"miss\"}",
                misses - mark.pac_misses,
            ),
            (
                "cpu_shadow_accesses_total",
                self.shadow_accesses - mark.shadow_accesses,
            ),
        ];
        for (name, delta) in deltas {
            if delta > 0 {
                telemetry::counter(name, delta);
            }
        }
        for class in InsnClass::ALL {
            let delta = self.classes[class as usize] - mark.classes[class as usize];
            if delta > 0 {
                telemetry::counter(class_counter(class), delta);
            }
        }
        self.tmark = TelemetryMark {
            cycles: self.cycles,
            classes: self.classes,
            pac_hits: hits,
            pac_misses: misses,
            shadow_accesses: self.shadow_accesses,
        };
    }
}

/// The `cpu_faults_total` counter a run that ends in `fault` bumps.
fn fault_counter(fault: &Fault) -> &'static str {
    match fault {
        Fault::TranslationFault { .. } => "cpu_faults_total{kind=\"translation\"}",
        Fault::AccessFault { .. } => "cpu_faults_total{kind=\"access\"}",
        Fault::PermissionFault { .. } => "cpu_faults_total{kind=\"permission\"}",
        Fault::FetchFault { .. } => "cpu_faults_total{kind=\"fetch\"}",
        Fault::PacFault { .. } => "cpu_faults_total{kind=\"pac\"}",
        Fault::Timeout => "cpu_faults_total{kind=\"timeout\"}",
        Fault::SigreturnViolation => "cpu_faults_total{kind=\"sigreturn\"}",
        Fault::KeyFault { .. } => "cpu_faults_total{kind=\"key\"}",
        Fault::NoSuchSymbol => "cpu_faults_total{kind=\"no-symbol\"}",
    }
}

/// The `cpu_insns_class_total` counter of one retire class.
fn class_counter(class: InsnClass) -> &'static str {
    match class {
        InsnClass::PointerAuth => "cpu_insns_class_total{class=\"pointer_auth\"}",
        InsnClass::Memory => "cpu_insns_class_total{class=\"memory\"}",
        InsnClass::Branch => "cpu_insns_class_total{class=\"branch\"}",
        InsnClass::Other => "cpu_insns_class_total{class=\"other\"}",
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::program::Op;
    use crate::Instruction::*;

    fn run_program(p: Program) -> Result<Outcome, Fault> {
        Cpu::with_seed(p, 7).run(1_000_000)
    }

    #[test]
    fn static_counter_names_keep_their_published_bytes() {
        for class in InsnClass::ALL {
            let expected = format!("cpu_insns_class_total{{class=\"{}\"}}", class.label());
            assert_eq!(class_counter(class), expected);
        }
        // Distinct names: a shared one would merge two fault kinds.
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
            let expected = format!("cpu_faults_total{{kind=\"{kind}\"}}");
            assert_eq!(fault_counter(&fault), expected);
        }
    }

    #[test]
    fn exit_code_is_x0() {
        let mut p = Program::new();
        p.function("main", vec![MovImm(Reg::X0, 5), Ret]);
        assert_eq!(run_program(p).unwrap().exit_code, 5);
    }

    #[test]
    fn call_and_return_through_stack() {
        let mut p = Program::new();
        p.function_ops(
            "main",
            vec![
                Op::I(StrPre(Reg::X30, Reg::Sp, -16)),
                Op::I(MovImm(Reg::X0, 20)),
                Op::Call("add_one".into()),
                Op::Call("add_one".into()),
                Op::I(LdrPost(Reg::X30, Reg::Sp, 16)),
                Op::I(Ret),
            ],
        );
        p.function("add_one", vec![AddImm(Reg::X0, Reg::X0, 1), Ret]);
        assert_eq!(run_program(p).unwrap().exit_code, 22);
    }

    #[test]
    fn recursion_computes_factorial() {
        // fact(n): if n == 0 { 1 } else { n * fact(n-1) }
        let mut p = Program::new();
        p.function_ops(
            "main",
            vec![
                Op::I(StrPre(Reg::X30, Reg::Sp, -16)),
                Op::I(MovImm(Reg::X0, 5)),
                Op::Call("fact".into()),
                Op::I(LdrPost(Reg::X30, Reg::Sp, 16)),
                Op::I(Ret),
            ],
        );
        p.function_ops(
            "fact",
            vec![
                Op::JumpZero(Reg::X0, "base".into()),
                Op::I(Stp(Reg::X0, Reg::X30, Reg::Sp, -16)),
                Op::I(AddImm(Reg::Sp, Reg::Sp, -16)),
                Op::I(AddImm(Reg::X0, Reg::X0, -1)),
                Op::Call("fact".into()),
                Op::I(AddImm(Reg::Sp, Reg::Sp, 16)),
                Op::I(Ldp(Reg::X1, Reg::X30, Reg::Sp, -16)),
                Op::I(Mul(Reg::X0, Reg::X0, Reg::X1)),
                Op::I(Ret),
                Op::Label("base".into()),
                Op::I(MovImm(Reg::X0, 1)),
                Op::I(Ret),
            ],
        );
        assert_eq!(run_program(p).unwrap().exit_code, 120);
    }

    #[test]
    fn indirect_call_via_blr() {
        let mut p = Program::new();
        p.function_ops(
            "main",
            vec![
                Op::I(StrPre(Reg::X30, Reg::Sp, -16)),
                Op::FnAddr(Reg::X9, "forty".into()),
                Op::I(Blr(Reg::X9)),
                Op::I(LdrPost(Reg::X30, Reg::Sp, 16)),
                Op::I(Ret),
            ],
        );
        p.function("forty", vec![MovImm(Reg::X0, 40), Ret]);
        assert_eq!(run_program(p).unwrap().exit_code, 40);
    }

    #[test]
    fn tail_call_returns_to_original_caller() {
        let mut p = Program::new();
        p.function_ops(
            "main",
            vec![
                Op::I(StrPre(Reg::X30, Reg::Sp, -16)),
                Op::Call("outer".into()),
                Op::I(LdrPost(Reg::X30, Reg::Sp, 16)),
                Op::I(Ret),
            ],
        );
        p.function_ops("outer", vec![Op::TailCall("inner".into())]);
        p.function("inner", vec![MovImm(Reg::X0, 9), Ret]);
        assert_eq!(run_program(p).unwrap().exit_code, 9);
    }

    #[test]
    fn pac_ret_round_trip_succeeds() {
        let mut p = Program::new();
        p.function(
            "main",
            vec![
                Paciasp,
                StrPre(Reg::X30, Reg::Sp, -16),
                MovImm(Reg::X0, 3),
                LdrPost(Reg::X30, Reg::Sp, 16),
                Retaa,
            ],
        );
        assert_eq!(run_program(p).unwrap().exit_code, 3);
    }

    #[test]
    fn classic_rop_overwrite_succeeds_without_protection() {
        // Without PA, overwriting the spilled LR redirects the return: the
        // attack the whole paper is about. "gadget" exits with 0x41.
        let mut p = Program::new();
        p.function_ops(
            "main",
            vec![
                Op::I(StrPre(Reg::X30, Reg::Sp, -16)),
                // Attacker overwrite of the stack slot, modelled in-program:
                Op::FnAddr(Reg::X9, "gadget".into()),
                Op::I(Str(Reg::X9, Reg::Sp, 0)),
                Op::I(LdrPost(Reg::X30, Reg::Sp, 16)),
                Op::I(Ret),
            ],
        );
        p.function("gadget", vec![MovImm(Reg::X0, 0x41), Svc(0)]);
        assert_eq!(run_program(p).unwrap().exit_code, 0x41);
    }

    #[test]
    fn corrupted_pac_ret_faults_at_fetch() {
        let mut p = Program::new();
        p.function(
            "main",
            vec![
                Paciasp,
                StrPre(Reg::X30, Reg::Sp, -16),
                LdrPost(Reg::X30, Reg::Sp, 16),
                EorImm(Reg::X30, Reg::X30, 16), // tamper with the address bits
                Retaa,
            ],
        );
        assert!(matches!(
            run_program(p),
            Err(Fault::TranslationFault { .. })
        ));
    }

    #[test]
    fn corrupted_keys_raise_key_fault() {
        // Sign under the real keys, glitch the key registers, authenticate:
        // the mismatch is attributed to the keys, not a forged pointer.
        let mut p = Program::new();
        p.function(
            "main",
            vec![Paciasp, Svc(40), Retaa], // svc #40: harness corrupts keys
        );
        let mut cpu = Cpu::with_seed(p, 7);
        let out = cpu.run(100).unwrap();
        assert_eq!(out.status, RunStatus::Syscall(40));
        cpu.corrupt_keys(PaKeys::from_seed(999));
        assert!(cpu.keys_tainted());
        assert!(matches!(cpu.run(100), Err(Fault::KeyFault { .. })));
    }

    #[test]
    fn key_corruption_is_never_bridged_by_the_pac_memo() {
        // Warm the memo with a sign + authenticate of the same (LR, SP)
        // pair, sign again (a guaranteed cache hit), then glitch the keys:
        // the final authenticate must recompute under the new keys and fail
        // as a KeyFault — a stale cached MAC would make it succeed.
        let mut p = Program::new();
        p.function("main", vec![Paciasp, Autiasp, Paciasp, Svc(40), Retaa]);
        let mut cpu = Cpu::with_seed(p, 7);
        let out = cpu.run(100).unwrap();
        assert_eq!(out.status, RunStatus::Syscall(40));
        let (hits, _) = cpu.pac_cache_stats();
        assert!(hits >= 2, "memo never hit; the test exercises nothing");
        cpu.corrupt_keys(PaKeys::from_seed(999));
        assert!(matches!(cpu.run(100), Err(Fault::KeyFault { .. })));
    }

    #[test]
    fn rekeying_also_invalidates_the_pac_memo() {
        // set_keys (legitimate re-key) must invalidate like corrupt_keys
        // does — even for a freshly generated PaKeys whose own state says
        // nothing about the keys it replaced.
        let mut p = Program::new();
        p.function("main", vec![Paciasp, Svc(40), Retaa]);
        let mut cpu = Cpu::with_seed(p, 7);
        let out = cpu.run(100).unwrap();
        assert_eq!(out.status, RunStatus::Syscall(40));
        cpu.set_keys(PaKeys::from_seed(999));
        assert!(!cpu.keys_tainted());
        // Not a KeyFault (no taint), but it must *fail* — success would mean
        // the memo replayed a MAC from the previous key epoch.
        assert!(cpu.run(100).is_err());
    }

    #[test]
    fn pac_memo_is_architecturally_invisible() {
        // Same program, memo on vs off: identical outcome, output, cycles
        // and instruction counts.
        let build = || {
            use crate::program::Op;
            let mut p = Program::new();
            p.function_ops(
                "main",
                vec![
                    Op::I(MovImm(Reg::X1, 5)),
                    // loop: sign/auth LR repeatedly, emit a MAC each pass
                    Op::Label("loop".into()),
                    Op::I(Paciasp),
                    Op::I(Autiasp),
                    Op::I(Pacga(Reg::X0, Reg::X30, Reg::Sp)),
                    Op::I(Svc(1)),
                    Op::I(AddImm(Reg::X1, Reg::X1, -1)),
                    Op::JumpNonZero(Reg::X1, "loop".into()),
                    Op::I(MovImm(Reg::X0, 0)),
                    Op::I(Ret),
                ],
            );
            p
        };
        let mut fast = Cpu::with_seed(build(), 3);
        let mut slow = Cpu::with_seed(build(), 3);
        slow.set_pac_memo(false);
        let a = fast.run(10_000).unwrap();
        let b = slow.run(10_000).unwrap();
        assert_eq!(a.status, b.status);
        assert_eq!(fast.output(), slow.output());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        let (hits, _) = fast.pac_cache_stats();
        assert!(hits > 0, "fast CPU never hit the memo");
        assert_eq!(slow.pac_cache_stats(), (0, 0));
    }

    #[test]
    fn bti_lets_br_land_only_on_entries_and_pads() {
        // `pad` is `mov x0, #1; bti; mov x0, #2; svc #0`: its entry and the
        // `bti` at +4 are landing pads, +8 and the unaligned +2 are not.
        let branch_into_pad = |offset: i64| {
            let mut p = Program::new();
            p.function_ops(
                "main",
                vec![
                    Op::FnAddr(Reg::X9, "pad".into()),
                    Op::I(AddImm(Reg::X9, Reg::X9, offset)),
                    Op::I(Br(Reg::X9)),
                ],
            );
            p.function(
                "pad",
                vec![MovImm(Reg::X0, 1), Bti, MovImm(Reg::X0, 2), Svc(0)],
            );
            let mut cpu = Cpu::with_seed(p, 7);
            cpu.enable_bti();
            let target = cpu.symbol("pad").unwrap().wrapping_add(offset as u64);
            (cpu.run(100).map(|out| out.exit_code), target)
        };
        assert_eq!(branch_into_pad(0).0, Ok(2));
        assert_eq!(branch_into_pad(4).0, Ok(2));
        for offset in [8, 2] {
            let (result, target) = branch_into_pad(offset);
            assert_eq!(result, Err(Fault::FetchFault { pc: target }));
        }
    }

    #[test]
    fn rekeying_clears_key_taint() {
        let mut p = Program::new();
        p.function("main", vec![MovImm(Reg::X0, 0), Ret]);
        let mut cpu = Cpu::with_seed(p, 7);
        cpu.corrupt_keys(PaKeys::from_seed(999));
        cpu.set_keys(PaKeys::from_seed(7));
        assert!(!cpu.keys_tainted());
    }

    #[test]
    fn try_with_seed_reports_link_errors() {
        let mut p = Program::new();
        p.function_ops("main", vec![Op::Call("ghost".into())]);
        assert!(matches!(
            Cpu::try_with_seed(p, 7),
            Err(LinkError::UnresolvedFunction { .. })
        ));
    }

    #[test]
    fn fpac_faults_inside_autia() {
        let mut p = Program::new();
        p.function("main", vec![Paciasp, EorImm(Reg::X30, Reg::X30, 16), Retaa]);
        let mut cpu = Cpu::with_seed(p, 7);
        cpu.enable_fpac();
        assert!(matches!(cpu.run(100), Err(Fault::PacFault { .. })));
    }

    #[test]
    fn svc1_emits_output() {
        let mut p = Program::new();
        p.function(
            "main",
            vec![
                MovImm(Reg::X0, 10),
                Svc(1),
                MovImm(Reg::X0, 20),
                Svc(1),
                MovImm(Reg::X0, 0),
                Ret,
            ],
        );
        let mut cpu = Cpu::with_seed(p, 7);
        cpu.run(1000).unwrap();
        assert_eq!(cpu.output(), &[10, 20]);
    }

    #[test]
    fn foreign_syscall_suspends_to_caller() {
        let mut p = Program::new();
        p.function("main", vec![Svc(42), MovImm(Reg::X0, 1), Ret]);
        let mut cpu = Cpu::with_seed(p, 7);
        let out = cpu.run(100).unwrap();
        assert_eq!(out.status, RunStatus::Syscall(42));
        // Resumable: continues after the svc.
        let out = cpu.run(100).unwrap();
        assert_eq!(out.exit_code, 1);
    }

    #[test]
    fn budget_exhaustion_reports_timeout() {
        let mut p = Program::new();
        p.function_ops(
            "main",
            vec![Op::Label("spin".into()), Op::Jump("spin".into())],
        );
        assert_eq!(Cpu::with_seed(p, 7).run(1000), Err(Fault::Timeout));
    }

    #[test]
    fn cycles_accumulate_per_cost_model() {
        let mut p = Program::new();
        p.function(
            "main",
            vec![Paciasp, Xpaci(Reg::X30), MovImm(Reg::X0, 0), Ret],
        );
        let mut cpu = Cpu::with_seed(p, 7);
        let out = cpu.run(100).unwrap();
        // bl(1) + paciasp(4) + xpaci(4) + mov(1) + ret(1) + svc(200)
        assert_eq!(out.cycles, 211);
        assert_eq!(out.instructions, 6);
    }

    #[test]
    fn conditional_branches_follow_flags() {
        let mut p = Program::new();
        p.function_ops(
            "main",
            vec![
                Op::I(MovImm(Reg::X0, 0)),
                Op::I(MovImm(Reg::X1, 3)),
                Op::Label("loop".into()),
                Op::I(AddImm(Reg::X0, Reg::X0, 2)),
                Op::I(AddImm(Reg::X1, Reg::X1, -1)),
                Op::I(CmpImm(Reg::X1, 0)),
                Op::JumpCond(Cond::Ne, "loop".into()),
                Op::I(Ret),
            ],
        );
        assert_eq!(run_program(p).unwrap().exit_code, 6);
    }

    #[test]
    fn signed_and_unsigned_conditions() {
        // -1 (as u64::MAX) vs 1: signed less-than, unsigned higher-or-same.
        let mut p = Program::new();
        p.function_ops(
            "main",
            vec![
                Op::I(MovImm(Reg::X2, u64::MAX)),
                Op::I(CmpImm(Reg::X2, 1)),
                Op::JumpCond(Cond::Lt, "signed_lt".into()),
                Op::I(MovImm(Reg::X0, 1)),
                Op::I(Ret),
                Op::Label("signed_lt".into()),
                Op::I(CmpImm(Reg::X2, 1)),
                Op::JumpCond(Cond::Hs, "uns_hs".into()),
                Op::I(MovImm(Reg::X0, 2)),
                Op::I(Ret),
                Op::Label("uns_hs".into()),
                Op::I(MovImm(Reg::X0, 0)),
                Op::I(Ret),
            ],
        );
        assert_eq!(run_program(p).unwrap().exit_code, 0);
    }
}
