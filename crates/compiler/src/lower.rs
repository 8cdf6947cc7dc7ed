//! Frame lowering: IR → AArch64-subset programs, per protection scheme.
//!
//! The prologue/epilogue sequences are taken directly from the paper:
//! Listing 1 (`-mbranch-protection`), Listing 2 (PACStack-nomask, described
//! in §5), Listing 3 (PACStack with masking), plus LLVM's documented
//! ShadowCallStack and stack-protector sequences.

use crate::{FuncDef, Module, Scheme, Stmt};
use pacstack_aarch64::program::Op;
use pacstack_aarch64::{Instruction as I, Program, Reg};
use std::collections::HashMap;

/// Frame slot offsets (fixed across schemes so the attack harness can find
/// them):
///
/// ```text
/// [sp + 0]   chain-register spill (PACStack) / canary (stack protector)
/// [sp + 8]   local scratch slot (MemAccess)
/// [sp + 16]  saved FP          ┐ the conventional frame record
/// [sp + 24]  saved LR          ┘
/// [sp + 32+] loop counters
/// ```
pub mod frame {
    /// Offset of the spilled chain register (PACStack schemes).
    pub const CHAIN_SLOT: i64 = 0;
    /// Offset of the local scratch slot (the canary scheme swaps this with
    /// [`CANARY_SLOT`] so the canary sits between locals and the frame
    /// record).
    pub const LOCAL_SLOT: i64 = 8;
    /// Offset of the canary under `-mstack-protector-strong`.
    pub const CANARY_SLOT: i64 = 8;
    /// Offset of the local slot under `-mstack-protector-strong`.
    pub const SP_LOCAL_SLOT: i64 = 0;
    /// Offset of the saved frame pointer.
    pub const FP_SLOT: i64 = 16;
    /// Offset of the saved link register (the classic ROP target).
    pub const LR_SLOT: i64 = 24;
    /// Offset of the register-pressure spill slot used by schemes that
    /// reserve a general-purpose register (X18/X28) — the displaced value
    /// has to live somewhere.
    pub const PRESSURE_SLOT: i64 = 32;
    /// Offset of the first loop-counter slot.
    pub const LOOP_SLOTS: i64 = 40;
}

/// The canary value `-mstack-protector-strong` plants. A real deployment
/// draws it per-process; a constant preserves the cost profile and the
/// paper's point that canaries are the weakest of the measured protections.
pub const CANARY: u64 = 0x5A5A_C3C3_0F0F_A5A5;

/// Exit code of `__stack_chk_fail` (SIGABRT-style).
pub const CANARY_FAIL_EXIT: u64 = 134;

/// Base address of the static `jmp_buf` array in the data segment
/// (attacker-writable, like a real process's `jmp_buf`s).
pub const JMP_BUF_BASE: u64 = pacstack_aarch64::LAYOUT.data_base + 0x2000;

/// Size of one `jmp_buf` slot: resume/bound address, SP, CR, X18.
pub const JMP_BUF_SIZE: u64 = 32;

/// Address of static `jmp_buf` number `buf`.
pub fn jmp_buf_addr(buf: u16) -> u64 {
    JMP_BUF_BASE + u64::from(buf) * JMP_BUF_SIZE
}

/// Lowering options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LowerOptions {
    /// Instrument leaf functions too (off by default — the paper's
    /// heuristic skips leaves that spill neither LR nor CR).
    pub instrument_leaves: bool,
}

/// Lowers a module under a scheme with default options.
///
/// # Panics
///
/// Panics if the module fails [`Module::check`] or contains `Return` /
/// `TailCall` inside a loop body.
pub fn lower(module: &Module, scheme: Scheme) -> Program {
    lower_with_options(module, scheme, LowerOptions::default())
}

/// Lowers a module under a scheme.
///
/// # Panics
///
/// Panics if the module fails [`Module::check`] or contains `Return` /
/// `TailCall` inside a loop body.
pub fn lower_with_options(module: &Module, scheme: Scheme, options: LowerOptions) -> Program {
    lower_mixed_with_options(module, scheme, &HashMap::new(), options)
}

/// Lowers a module with per-function scheme overrides — the paper's §9.2
/// interoperability scenario: a PACStack-protected application linking
/// against unprotected libraries, or the reverse.
///
/// Mixing is sound because every scheme's reserved state lives in
/// callee-saved registers (`X28` for PACStack, `X18` for ShadowCallStack):
/// uninstrumented functions preserve them by convention, so protection
/// resumes intact when control returns to instrumented code. What mixing
/// *costs* is coverage: returns from unprotected functions are fair game,
/// which the attack experiments quantify.
///
/// # Panics
///
/// Panics if the module fails [`Module::check`], contains `Return` /
/// `TailCall` inside a loop body, or an override names an unknown function.
pub fn lower_mixed(
    module: &Module,
    default: Scheme,
    overrides: &HashMap<String, Scheme>,
) -> Program {
    lower_mixed_with_options(module, default, overrides, LowerOptions::default())
}

/// The body behind [`lower_with_options`] and [`lower_mixed`]: overrides and
/// options together. Panics as [`lower_mixed`] does.
fn lower_mixed_with_options(
    module: &Module,
    default: Scheme,
    overrides: &HashMap<String, Scheme>,
    options: LowerOptions,
) -> Program {
    if let Err(msg) = module.check() {
        panic!("invalid module: {msg}");
    }
    for name in overrides.keys() {
        assert!(
            module.get(name).is_some(),
            "override names unknown function {name:?}"
        );
    }
    let mut program = Program::new();
    let mut any_canary = false;
    for func in module.functions() {
        let scheme = overrides.get(func.name()).copied().unwrap_or(default);
        any_canary |= scheme == Scheme::StackProtector;
        let ops = FunctionLowering::new(func, scheme, options).lower();
        program.function_ops(func.name(), ops);
    }
    if any_canary {
        program.function(
            "__stack_chk_fail",
            vec![I::MovImm(Reg::X0, CANARY_FAIL_EXIT), I::Svc(0)],
        );
    }
    program
}

struct FunctionLowering<'a> {
    func: &'a FuncDef,
    scheme: Scheme,
    instrumented: bool,
    frame_size: i64,
    ops: Vec<Op>,
    label_counter: usize,
    loop_depth: i64,
}

impl<'a> FunctionLowering<'a> {
    fn new(func: &'a FuncDef, scheme: Scheme, options: LowerOptions) -> Self {
        let instrumented = !func.is_leaf() || options.instrument_leaves;
        let loop_slots = Self::max_loop_depth(func.body()) as i64;
        // 40 fixed bytes + loop counters, 16-byte aligned.
        let frame_size = (40 + loop_slots * 8 + 15) & !15;
        Self {
            func,
            scheme,
            instrumented,
            frame_size,
            ops: Vec::new(),
            label_counter: 0,
            loop_depth: 0,
        }
    }

    fn max_loop_depth(body: &[Stmt]) -> u32 {
        body.iter()
            .map(|stmt| match stmt {
                Stmt::Loop(_, inner) => 1 + Self::max_loop_depth(inner),
                Stmt::TryCatch { body, handler, .. } => {
                    Self::max_loop_depth(body).max(Self::max_loop_depth(handler))
                }
                Stmt::IfEven(a, b) => Self::max_loop_depth(a).max(Self::max_loop_depth(b)),
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    fn fresh_label(&mut self, stem: &str) -> String {
        self.label_counter += 1;
        format!("{stem}_{}", self.label_counter)
    }

    fn emit(&mut self, insn: I) {
        self.ops.push(Op::I(insn));
    }

    /// Whether the function needs any frame at all.
    fn needs_frame(&self) -> bool {
        self.instrumented || self.func.uses_frame() || Self::max_loop_depth(self.func.body()) > 0
    }

    /// Register-pressure model: reserving X18/X28 displaces one value that
    /// would otherwise stay in a register across this activation (the paper
    /// attributes the PACStack-vs-pac-ret gap to exactly this, §7.1).
    fn pressure_spill(&mut self) {
        if self.scheme.reserves_register() && self.instrumented {
            self.emit(I::Str(Reg::X19, Reg::Sp, frame::PRESSURE_SLOT));
        }
    }

    fn pressure_reload(&mut self) {
        if self.scheme.reserves_register() && self.instrumented {
            self.emit(I::Ldr(Reg::X19, Reg::Sp, frame::PRESSURE_SLOT));
        }
    }

    fn prologue_with_pressure(&mut self) {
        self.prologue();
        self.pressure_spill();
    }

    fn prologue(&mut self) {
        if !self.needs_frame() {
            return;
        }
        let frame = self.frame_size;
        if !self.instrumented {
            // Uninstrumented leaf: allocate locals only.
            self.emit(I::AddImm(Reg::Sp, Reg::Sp, -frame));
            if self.scheme == Scheme::StackProtector && self.func.uses_frame() {
                self.emit(I::MovImm(Reg::X9, CANARY));
                self.emit(I::Str(Reg::X9, Reg::Sp, frame::CANARY_SLOT));
            }
            return;
        }
        match self.scheme {
            Scheme::Baseline => {
                self.emit(I::AddImm(Reg::Sp, Reg::Sp, -frame));
                self.emit(I::Stp(Reg::FP, Reg::LR, Reg::Sp, frame::FP_SLOT));
                self.emit(I::AddImm(Reg::FP, Reg::Sp, frame::FP_SLOT));
            }
            Scheme::StackProtector => {
                self.emit(I::AddImm(Reg::Sp, Reg::Sp, -frame));
                self.emit(I::Stp(Reg::FP, Reg::LR, Reg::Sp, frame::FP_SLOT));
                self.emit(I::AddImm(Reg::FP, Reg::Sp, frame::FP_SLOT));
                // -strong only plants canaries in functions with local
                // buffers -- the reason it is the cheapest scheme measured.
                if self.func.uses_frame() {
                    self.emit(I::MovImm(Reg::X9, CANARY));
                    self.emit(I::Str(Reg::X9, Reg::Sp, frame::CANARY_SLOT));
                }
            }
            Scheme::PacRet => {
                // Listing 1: sign LR before spilling it.
                self.emit(I::Paciasp);
                self.emit(I::AddImm(Reg::Sp, Reg::Sp, -frame));
                self.emit(I::Stp(Reg::FP, Reg::LR, Reg::Sp, frame::FP_SLOT));
                self.emit(I::AddImm(Reg::FP, Reg::Sp, frame::FP_SLOT));
            }
            Scheme::ShadowCallStack => {
                // str lr, [x18], #8 — push the return address to the shadow
                // stack, then the conventional spill (kept for unwinders).
                self.emit(I::StrPost(Reg::LR, Reg::SCS, 8));
                self.emit(I::AddImm(Reg::Sp, Reg::Sp, -frame));
                self.emit(I::Stp(Reg::FP, Reg::LR, Reg::Sp, frame::FP_SLOT));
                self.emit(I::AddImm(Reg::FP, Reg::Sp, frame::FP_SLOT));
            }
            Scheme::PacStackNomask => {
                // §5 / Listing 2: spill aret_{i-1}, keep a plain frame
                // record, chain-sign LR, move it to CR.
                self.emit(I::StrPre(Reg::CR, Reg::Sp, -frame));
                self.emit(I::Stp(Reg::FP, Reg::LR, Reg::Sp, frame::FP_SLOT));
                self.emit(I::AddImm(Reg::FP, Reg::Sp, frame::FP_SLOT));
                self.emit(I::Pacia(Reg::LR, Reg::CR));
                self.emit(I::Mov(Reg::CR, Reg::LR));
            }
            Scheme::PacStack => {
                // Listing 3: as above plus mask generation and application.
                self.emit(I::StrPre(Reg::CR, Reg::Sp, -frame));
                self.emit(I::Stp(Reg::FP, Reg::LR, Reg::Sp, frame::FP_SLOT));
                self.emit(I::AddImm(Reg::FP, Reg::Sp, frame::FP_SLOT));
                self.emit(I::Mov(Reg::X15, Reg::Xzr));
                self.emit(I::Pacia(Reg::LR, Reg::CR));
                self.emit(I::Pacia(Reg::X15, Reg::CR));
                self.emit(I::Eor(Reg::LR, Reg::LR, Reg::X15));
                self.emit(I::Mov(Reg::X15, Reg::Xzr));
                self.emit(I::Mov(Reg::CR, Reg::LR));
            }
        }
    }

    /// Emits the epilogue up to but excluding the return transfer, then the
    /// terminator: `Ret`/`Retaa` when `tail_target` is `None`, otherwise a
    /// `b` to the tail-called function (paper Listing 8).
    fn epilogue(&mut self, tail_target: Option<&str>) {
        self.pressure_reload();
        let frame = self.frame_size;
        if !self.needs_frame() {
            self.terminator(tail_target, false);
            return;
        }
        if !self.instrumented {
            if self.scheme == Scheme::StackProtector && self.func.uses_frame() {
                self.check_canary();
            }
            self.emit(I::AddImm(Reg::Sp, Reg::Sp, frame));
            self.terminator(tail_target, false);
            return;
        }
        match self.scheme {
            Scheme::Baseline => {
                self.emit(I::Ldp(Reg::FP, Reg::LR, Reg::Sp, frame::FP_SLOT));
                self.emit(I::AddImm(Reg::Sp, Reg::Sp, frame));
                self.terminator(tail_target, false);
            }
            Scheme::StackProtector => {
                if self.func.uses_frame() {
                    self.check_canary();
                }
                self.emit(I::Ldp(Reg::FP, Reg::LR, Reg::Sp, frame::FP_SLOT));
                self.emit(I::AddImm(Reg::Sp, Reg::Sp, frame));
                self.terminator(tail_target, false);
            }
            Scheme::PacRet => {
                self.emit(I::Ldp(Reg::FP, Reg::LR, Reg::Sp, frame::FP_SLOT));
                self.emit(I::AddImm(Reg::Sp, Reg::Sp, frame));
                self.terminator(tail_target, true);
            }
            Scheme::ShadowCallStack => {
                self.emit(I::Ldp(Reg::FP, Reg::LR, Reg::Sp, frame::FP_SLOT));
                self.emit(I::AddImm(Reg::Sp, Reg::Sp, frame));
                // ldr lr, [x18, #-8]! — the authoritative return address
                // comes from the shadow stack, overriding the stack copy.
                self.emit(I::LdrPre(Reg::LR, Reg::SCS, -8));
                self.terminator(tail_target, false);
            }
            Scheme::PacStackNomask => {
                self.emit(I::Mov(Reg::LR, Reg::CR));
                self.emit(I::Ldr(Reg::FP, Reg::Sp, frame::FP_SLOT));
                self.emit(I::LdrPost(Reg::CR, Reg::Sp, frame));
                self.emit(I::Autia(Reg::LR, Reg::CR));
                self.terminator(tail_target, false);
            }
            Scheme::PacStack => {
                self.emit(I::Mov(Reg::LR, Reg::CR));
                self.emit(I::Ldr(Reg::FP, Reg::Sp, frame::FP_SLOT));
                self.emit(I::LdrPost(Reg::CR, Reg::Sp, frame));
                self.emit(I::Mov(Reg::X15, Reg::Xzr));
                self.emit(I::Pacia(Reg::X15, Reg::CR));
                self.emit(I::Eor(Reg::LR, Reg::LR, Reg::X15));
                self.emit(I::Mov(Reg::X15, Reg::Xzr));
                self.emit(I::Autia(Reg::LR, Reg::CR));
                self.terminator(tail_target, false);
            }
        }
    }

    fn terminator(&mut self, tail_target: Option<&str>, pac_ret: bool) {
        match (tail_target, pac_ret) {
            (Some(target), true) => {
                // pac-ret tail call: authenticate, then branch.
                self.emit(I::Autiasp);
                self.ops.push(Op::TailCall(target.to_owned()));
            }
            (Some(target), false) => self.ops.push(Op::TailCall(target.to_owned())),
            (None, true) => self.emit(I::Retaa),
            (None, false) => self.emit(I::Ret),
        }
    }

    fn check_canary(&mut self) {
        let ok = self.fresh_label("canary_ok");
        self.emit(I::Ldr(Reg::X10, Reg::Sp, frame::CANARY_SLOT));
        self.emit(I::MovImm(Reg::X9, CANARY));
        self.emit(I::Cmp(Reg::X9, Reg::X10));
        self.ops
            .push(Op::JumpCond(pacstack_aarch64::Cond::Eq, ok.clone()));
        self.ops.push(Op::TailCall("__stack_chk_fail".to_owned()));
        self.ops.push(Op::Label(ok));
    }

    fn stmt(&mut self, stmt: &Stmt, is_last: bool) {
        match stmt {
            Stmt::Compute(n) => {
                for i in 0..*n {
                    if i % 2 == 0 {
                        self.emit(I::AddImm(Reg::X0, Reg::X0, 0x11 + i as i64));
                    } else {
                        self.emit(I::EorImm(Reg::X0, Reg::X0, 0x2400 + u64::from(i)));
                    }
                }
            }
            Stmt::MemAccess(n) => {
                let slot = if self.scheme == Scheme::StackProtector {
                    frame::SP_LOCAL_SLOT
                } else {
                    frame::LOCAL_SLOT
                };
                for _ in 0..*n {
                    self.emit(I::Str(Reg::X0, Reg::Sp, slot));
                    self.emit(I::Ldr(Reg::X0, Reg::Sp, slot));
                }
            }
            Stmt::Call(name) => self.ops.push(Op::Call(name.clone())),
            Stmt::CallIndirect(name) => {
                self.ops.push(Op::FnAddr(Reg::X9, name.clone()));
                self.emit(I::Blr(Reg::X9));
            }
            Stmt::TailCall(name) => {
                assert!(
                    is_last,
                    "TailCall must terminate the body in {}",
                    self.func.name()
                );
                let name = name.clone();
                self.epilogue(Some(&name));
            }
            Stmt::Loop(count, body) => {
                assert!(
                    *count > 0,
                    "Loop(0) would underflow the counter in {}; omit the loop instead",
                    self.func.name()
                );
                assert!(
                    !body
                        .iter()
                        .any(|s| matches!(s, Stmt::Return | Stmt::TailCall(_))),
                    "Return/TailCall inside a loop in {}",
                    self.func.name()
                );
                let slot = frame::LOOP_SLOTS + self.loop_depth * 8;
                self.loop_depth += 1;
                let head = self.fresh_label("loop");
                self.emit(I::MovImm(Reg::X9, u64::from(*count)));
                self.emit(I::Str(Reg::X9, Reg::Sp, slot));
                self.ops.push(Op::Label(head.clone()));
                for inner in body {
                    self.stmt(inner, false);
                }
                self.emit(I::Ldr(Reg::X9, Reg::Sp, slot));
                self.emit(I::AddImm(Reg::X9, Reg::X9, -1));
                self.emit(I::Str(Reg::X9, Reg::Sp, slot));
                self.ops.push(Op::JumpNonZero(Reg::X9, head));
                self.loop_depth -= 1;
            }
            Stmt::IfEven(then_body, else_body) => {
                assert!(
                    !then_body
                        .iter()
                        .chain(else_body)
                        .any(|s| matches!(s, Stmt::Return | Stmt::TailCall(_))),
                    "Return/TailCall inside IfEven in {}",
                    self.func.name()
                );
                let odd = self.fresh_label("odd");
                let done = self.fresh_label("ifdone");
                self.emit(I::AndImm(Reg::X9, Reg::X0, 1));
                self.ops.push(Op::JumpNonZero(Reg::X9, odd.clone()));
                for stmt in then_body {
                    self.stmt(stmt, false);
                }
                self.ops.push(Op::Jump(done.clone()));
                self.ops.push(Op::Label(odd));
                for stmt in else_body {
                    self.stmt(stmt, false);
                }
                self.ops.push(Op::Label(done));
            }
            Stmt::TryCatch { buf, body, handler } => self.try_catch(*buf, body, handler),
            Stmt::Throw { buf, value } => self.throw(*buf, *value),
            Stmt::Emit => self.emit(I::Svc(1)),
            Stmt::Sigreturn => self.emit(I::Svc(9)),
            Stmt::Checkpoint(imm) => {
                assert!(
                    *imm >= 10,
                    "checkpoint numbers below 10 collide with built-in syscalls"
                );
                self.emit(I::Svc(*imm));
            }
            Stmt::Return => {
                assert!(
                    is_last,
                    "Return must terminate the body in {}",
                    self.func.name()
                );
                self.epilogue(None);
            }
        }
    }

    /// Lowers `if (setjmp(buf)) { handler } else { body }`.
    ///
    /// The PACStack schemes follow the paper's `setjmp_wrapper`
    /// (Listing 4): the resume address is bound to both the chain head and
    /// the captured SP, `bound = pacia(ret_b, aret_i) ⊕ pacia(SP_b,
    /// aret_i)`, before it is stored in the (attacker-writable) buffer.
    /// The other schemes store the resume address and SP raw, as plain
    /// `setjmp` does; ShadowCallStack additionally saves its X18 so the
    /// shadow stack realigns after the non-local jump.
    fn try_catch(&mut self, buf: u16, body: &[Stmt], handler: &[Stmt]) {
        let landing = self.fresh_label("setjmp_landing");
        let catch = self.fresh_label("catch");
        let done = self.fresh_label("try_done");
        let buf_addr = jmp_buf_addr(buf);
        let pacstack = matches!(self.scheme, Scheme::PacStack | Scheme::PacStackNomask);

        // --- setjmp ---------------------------------------------------
        self.ops.push(Op::LabelAddr(Reg::X9, landing.clone()));
        self.emit(I::MovImm(Reg::X10, buf_addr));
        self.emit(I::Mov(Reg::X11, Reg::Sp));
        if pacstack {
            // Listing 4: bind ret_b and SP_b to aret_i.
            self.emit(I::Mov(Reg::X15, Reg::Sp));
            self.emit(I::Pacia(Reg::X15, Reg::CR));
            self.emit(I::Pacia(Reg::X9, Reg::CR));
            self.emit(I::Eor(Reg::X9, Reg::X9, Reg::X15));
            self.emit(I::Mov(Reg::X15, Reg::Xzr));
        }
        self.emit(I::Str(Reg::X9, Reg::X10, 0));
        self.emit(I::Str(Reg::X11, Reg::X10, 8));
        self.emit(I::Str(Reg::CR, Reg::X10, 16));
        self.emit(I::Str(Reg::SCS, Reg::X10, 24));
        self.emit(I::MovImm(Reg::X0, 0));
        self.ops.push(Op::Label(landing));
        self.ops.push(Op::JumpNonZero(Reg::X0, catch.clone()));
        for stmt in body {
            self.stmt(stmt, false);
        }
        self.ops.push(Op::Jump(done.clone()));
        self.ops.push(Op::Label(catch));
        for stmt in handler {
            self.stmt(stmt, false);
        }
        self.ops.push(Op::Label(done));
    }

    /// Lowers `longjmp(buf, value)`.
    ///
    /// The PACStack schemes follow the paper's `longjmp_wrapper`
    /// (Listing 5): restore CR from the buffer, regenerate the SP binding,
    /// strip it from the bound return address and authenticate before
    /// transferring control — a forged buffer faults instead of jumping.
    fn throw(&mut self, buf: u16, value: u16) {
        assert!(
            value != 0,
            "Throw value must be non-zero (0 means direct setjmp return)"
        );
        let buf_addr = jmp_buf_addr(buf);
        let pacstack = matches!(self.scheme, Scheme::PacStack | Scheme::PacStackNomask);

        self.emit(I::MovImm(Reg::X10, buf_addr));
        self.emit(I::Ldr(Reg::X9, Reg::X10, 0)); // resume / bound
        self.emit(I::Ldr(Reg::X11, Reg::X10, 8)); // SP_b
        if pacstack {
            self.emit(I::Ldr(Reg::CR, Reg::X10, 16)); // CR ← aret_b
            self.emit(I::Mov(Reg::X15, Reg::X11));
            self.emit(I::Pacia(Reg::X15, Reg::CR));
            self.emit(I::Eor(Reg::X9, Reg::X9, Reg::X15)); // → pacia(ret_b, aret)
            self.emit(I::Mov(Reg::X15, Reg::Xzr));
            self.emit(I::Autia(Reg::X9, Reg::CR)); // → ret_b or fault
        }
        if self.scheme == Scheme::ShadowCallStack {
            self.emit(I::Ldr(Reg::SCS, Reg::X10, 24)); // realign shadow stack
        }
        self.emit(I::Mov(Reg::Sp, Reg::X11));
        self.emit(I::MovImm(Reg::X0, u64::from(value)));
        self.emit(I::Br(Reg::X9));
    }

    fn lower(mut self) -> Vec<Op> {
        // Loops with zero iterations would underflow the counter; the IR
        // constructors use u32 counts so `count == 0` simply runs once
        // through and exits on the cbnz — acceptable for workloads, but we
        // guard anyway in stmt(). Nothing to do here.
        self.prologue_with_pressure();
        let body = self.func.body();
        for (i, stmt) in body.iter().enumerate() {
            self.stmt(stmt, i + 1 == body.len());
        }
        self.ops
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use pacstack_aarch64::Cpu;

    /// A module with direct, indirect and nested calls, loops, memory
    /// traffic and an emit — the behaviours must match across schemes.
    fn rich_module() -> Module {
        let mut m = Module::new();
        m.push(FuncDef::new(
            "main",
            vec![
                Stmt::Compute(3),
                Stmt::Call("middle".into()),
                Stmt::Loop(4, vec![Stmt::Call("leafy".into()), Stmt::MemAccess(2)]),
                Stmt::Emit,
                Stmt::Return,
            ],
        ));
        m.push(FuncDef::new(
            "middle",
            vec![
                Stmt::MemAccess(1),
                Stmt::CallIndirect("leafy".into()),
                Stmt::Call("deep".into()),
                Stmt::Return,
            ],
        ));
        m.push(FuncDef::new(
            "deep",
            vec![Stmt::Compute(2), Stmt::TailCall("leafy".into())],
        ));
        m.push(FuncDef::new("leafy", vec![Stmt::Compute(5), Stmt::Return]));
        m
    }

    fn run(scheme: Scheme) -> (u64, Vec<u64>, u64) {
        let program = lower(&rich_module(), scheme);
        let mut cpu = Cpu::with_seed(program, 42);
        let out = cpu.run(1_000_000).expect("program must run clean");
        (out.exit_code, cpu.output().to_vec(), out.cycles)
    }

    #[test]
    fn all_schemes_compute_the_same_result() {
        let (baseline_exit, baseline_out, _) = run(Scheme::Baseline);
        for scheme in Scheme::ALL {
            let (exit, out, _) = run(scheme);
            assert_eq!(exit, baseline_exit, "{scheme} diverged");
            assert_eq!(out, baseline_out, "{scheme} diverged in output");
        }
    }

    #[test]
    fn overhead_ordering_matches_the_paper() {
        // baseline < canary/pac-ret/shadow < nomask < full PACStack.
        let cycles: Vec<u64> = Scheme::ALL.iter().map(|s| run(*s).2).collect();
        let [base, canary, pacret, scs, nomask, full] = cycles[..] else {
            unreachable!()
        };
        assert!(base < canary, "canary must cost more than baseline");
        assert!(base < pacret);
        assert!(base < scs);
        assert!(pacret < nomask, "nomask reserves CR and adds a store");
        assert!(
            scs < nomask || scs < full,
            "shadow stack is cheaper than full PACStack"
        );
        assert!(nomask < full, "masking adds two PACs per activation");
    }

    #[test]
    fn leaf_functions_are_skipped_by_default() {
        let m = rich_module();
        let program = lower(&m, Scheme::PacStack);
        let text = format!("{program}");
        // "leafy" must not contain pacia; "middle" must.
        let leafy = text
            .split("leafy:")
            .nth(1)
            .unwrap()
            .split("\nmain")
            .next()
            .unwrap();
        assert!(!leafy.contains("pacia"), "leaf was instrumented: {leafy}");
    }

    #[test]
    fn instrument_leaves_option_covers_leaves() {
        let m = rich_module();
        let program = lower_with_options(
            &m,
            Scheme::PacStack,
            LowerOptions {
                instrument_leaves: true,
            },
        );
        let mut cpu = Cpu::with_seed(program, 42);
        let out = cpu.run(1_000_000).unwrap();
        assert_eq!(out.exit_code, run(Scheme::Baseline).0);
    }

    #[test]
    fn deep_recursion_chain_survives() {
        // 64 nested activations exercise the chained MAC across depth.
        let mut m = Module::new();
        m.push(FuncDef::new(
            "main",
            vec![Stmt::Call("r0".into()), Stmt::Return],
        ));
        for i in 0..64 {
            let body = if i == 63 {
                vec![Stmt::Compute(1), Stmt::Return]
            } else {
                vec![Stmt::Call(format!("r{}", i + 1)), Stmt::Return]
            };
            m.push(FuncDef::new(&format!("r{i}"), body));
        }
        for scheme in [Scheme::Baseline, Scheme::PacStack, Scheme::PacStackNomask] {
            let mut cpu = Cpu::with_seed(lower(&m, scheme), 1);
            assert!(cpu.run(1_000_000).is_ok(), "{scheme} failed at depth 64");
        }
    }

    #[test]
    fn pacstack_cycles_exceed_nomask_by_two_pacs_per_activation() {
        // Masking costs exactly 2 extra PACs + 4 moves + 2 eors per
        // activation (Listing 3 vs Listing 2).
        let mut m = Module::new();
        m.push(FuncDef::new(
            "main",
            vec![Stmt::Call("f".into()), Stmt::Return],
        ));
        m.push(FuncDef::new(
            "f",
            vec![Stmt::Call("g".into()), Stmt::Return],
        ));
        m.push(FuncDef::new("g", vec![Stmt::Compute(1), Stmt::Return]));
        let nomask = {
            let mut cpu = Cpu::with_seed(lower(&m, Scheme::PacStackNomask), 1);
            cpu.run(100_000).unwrap().cycles
        };
        let full = {
            let mut cpu = Cpu::with_seed(lower(&m, Scheme::PacStack), 1);
            cpu.run(100_000).unwrap().cycles
        };
        // Two instrumented activations (main, f): per activation the masked
        // variant adds 2 pacia (4 cycles each) + 2 eor + 4 mov = 14 cycles.
        assert_eq!(full - nomask, 2 * 14);
    }

    #[test]
    fn canary_catches_linear_overflow_into_lr() {
        // A canary sits between locals and the frame record; the check must
        // trip before the corrupted LR is used... in our fixed layout the
        // canary occupies the CHAIN_SLOT below the frame record, so a
        // linear overwrite from the local slot hits it first.
        let mut m = Module::new();
        m.push(FuncDef::new(
            "main",
            vec![Stmt::Call("victim".into()), Stmt::Return],
        ));
        m.push(FuncDef::new(
            "victim",
            vec![Stmt::MemAccess(1), Stmt::Call("noop".into()), Stmt::Return],
        ));
        m.push(FuncDef::new("noop", vec![Stmt::Return]));
        let program = lower(&m, Scheme::StackProtector);
        let text = format!("{program}");
        assert!(text.contains("__stack_chk_fail"));
    }
}
