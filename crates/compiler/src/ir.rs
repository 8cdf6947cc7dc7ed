//! The call-graph IR.
//!
//! Programs are modelled at the granularity the PACStack evaluation cares
//! about: function activations, the calls between them, and the rough mix
//! of compute and memory work inside each body. A single implicit
//! accumulator (`X0`) flows through calls as argument and return value, so
//! every lowered program produces a deterministic, scheme-independent exit
//! value — the property the compatibility tests check.

use std::collections::BTreeSet;

/// A statement in a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `n` ALU operations on the accumulator (data dependency chain).
    Compute(u32),
    /// `n` store/load pairs against the function's stack frame.
    MemAccess(u32),
    /// Direct call; the accumulator is passed and updated.
    Call(String),
    /// Indirect call through a function pointer (satisfies assumption A2:
    /// it can only target a function entry).
    CallIndirect(String),
    /// Tail call: the epilogue runs, then control transfers with `b`
    /// (paper §6.3.1, Listing 8).
    TailCall(String),
    /// Repeat the body `n` times.
    Loop(u32, Vec<Stmt>),
    /// Branch on the accumulator's low bit: `if (acc & 1) == 0 { then }
    /// else { otherwise }` — enough data-dependent control flow to express
    /// interpreter-style dispatch.
    IfEven(Vec<Stmt>, Vec<Stmt>),
    /// Emit the accumulator via `svc #1` (observable output).
    Emit,
    /// Suspend to the harness via `svc #imm` (imm ≥ 10) — the hook attack
    /// simulations use to act "mid-execution" with the process paused,
    /// modelling a concurrent adversary thread.
    Checkpoint(u16),
    /// `if (setjmp(buf)) { handler } else { body }` — the C idiom the
    /// paper's §4.4/§5.3 wrappers protect. `buf` selects one of the static
    /// `jmp_buf`s in the data segment.
    TryCatch {
        /// Which static `jmp_buf` to use.
        buf: u16,
        /// Statements executed on the direct (setjmp-returned-0) path.
        body: Vec<Stmt>,
        /// Statements executed when a [`Stmt::Throw`] lands here.
        handler: Vec<Stmt>,
    },
    /// `svc #9` — request `sigreturn` from the kernel model; the statement
    /// a signal handler's tail must execute (anything after it is dead
    /// code, the kernel transfers control back to the interrupted point).
    Sigreturn,
    /// `longjmp(buf, value)` — non-local jump to the matching
    /// [`Stmt::TryCatch`]; `value` (non-zero) becomes the accumulator in
    /// the handler.
    Throw {
        /// Which static `jmp_buf` to jump through.
        buf: u16,
        /// The non-zero value delivered to the handler.
        value: u16,
    },
    /// Return from the function. Every body must end with `Return` or
    /// `TailCall`; `Return` elsewhere is not supported by the lowering.
    Return,
}

impl Stmt {
    fn collect_callees<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match self {
            Stmt::Call(name) | Stmt::CallIndirect(name) | Stmt::TailCall(name) => {
                out.insert(name);
            }
            Stmt::Loop(_, body) => {
                for stmt in body {
                    stmt.collect_callees(out);
                }
            }
            Stmt::TryCatch { body, handler, .. } => {
                for stmt in body.iter().chain(handler) {
                    stmt.collect_callees(out);
                }
            }
            Stmt::IfEven(a, b) => {
                for stmt in a.iter().chain(b) {
                    stmt.collect_callees(out);
                }
            }
            _ => {}
        }
    }

    fn contains_call(&self) -> bool {
        match self {
            Stmt::Call(_) | Stmt::CallIndirect(_) | Stmt::TailCall(_) => true,
            Stmt::Loop(_, body) => body.iter().any(Stmt::contains_call),
            Stmt::TryCatch { body, handler, .. } => {
                body.iter().chain(handler).any(Stmt::contains_call)
            }
            Stmt::IfEven(a, b) => a.iter().chain(b).any(Stmt::contains_call),
            _ => false,
        }
    }

    fn contains_mem_access(&self) -> bool {
        match self {
            Stmt::MemAccess(_) => true,
            Stmt::Loop(_, body) => body.iter().any(Stmt::contains_mem_access),
            Stmt::TryCatch { body, handler, .. } => {
                body.iter().chain(handler).any(Stmt::contains_mem_access)
            }
            Stmt::IfEven(a, b) => a.iter().chain(b).any(Stmt::contains_mem_access),
            _ => false,
        }
    }
}

/// A function definition.
///
/// # Examples
///
/// ```
/// use pacstack_compiler::{FuncDef, Stmt};
///
/// let leaf = FuncDef::new("leaf", vec![Stmt::Compute(4), Stmt::Return]);
/// assert!(leaf.is_leaf());
/// let caller = FuncDef::new("caller", vec![Stmt::Call("leaf".into()), Stmt::Return]);
/// assert!(!caller.is_leaf());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncDef {
    name: String,
    body: Vec<Stmt>,
}

impl FuncDef {
    /// Creates a function.
    ///
    /// # Panics
    ///
    /// Panics if the body does not end with [`Stmt::Return`] or
    /// [`Stmt::TailCall`].
    pub fn new(name: &str, body: Vec<Stmt>) -> Self {
        assert!(
            matches!(body.last(), Some(Stmt::Return) | Some(Stmt::TailCall(_))),
            "function {name:?} must end with Return or TailCall"
        );
        Self {
            name: name.to_owned(),
            body,
        }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The function's body.
    pub fn body(&self) -> &[Stmt] {
        &self.body
    }

    /// Whether this function makes no calls — the paper's leaf heuristic
    /// skips instrumentation for leaf functions that never spill LR/CR.
    pub fn is_leaf(&self) -> bool {
        !self.body.iter().any(Stmt::contains_call)
    }

    /// Whether the body touches its stack frame.
    pub fn uses_frame(&self) -> bool {
        self.body.iter().any(Stmt::contains_mem_access)
    }

    /// Names of every function this one calls (directly, indirectly or via
    /// tail call), deduplicated.
    pub fn callees(&self) -> Vec<&str> {
        let mut out = BTreeSet::new();
        for stmt in &self.body {
            stmt.collect_callees(&mut out);
        }
        out.into_iter().collect()
    }
}

/// A whole program: an ordered collection of functions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Module {
    functions: Vec<FuncDef>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a function.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names.
    pub fn push(&mut self, func: FuncDef) -> &mut Self {
        assert!(
            self.get(func.name()).is_none(),
            "duplicate function {:?}",
            func.name()
        );
        self.functions.push(func);
        self
    }

    /// Looks up a function by name.
    pub fn get(&self, name: &str) -> Option<&FuncDef> {
        self.functions.iter().find(|f| f.name() == name)
    }

    /// All functions in insertion order.
    pub fn functions(&self) -> &[FuncDef] {
        &self.functions
    }

    /// Validates that every callee exists.
    ///
    /// # Errors
    ///
    /// Returns the first missing callee name.
    pub fn check(&self) -> Result<(), String> {
        for f in &self.functions {
            for callee in f.callees() {
                if self.get(callee).is_none() {
                    return Err(format!("{} calls undefined function {callee:?}", f.name()));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn leaf_detection_sees_through_loops() {
        let f = FuncDef::new(
            "f",
            vec![
                Stmt::Loop(4, vec![Stmt::Compute(1), Stmt::Call("g".into())]),
                Stmt::Return,
            ],
        );
        assert!(!f.is_leaf());
        assert_eq!(f.callees(), vec!["g"]);
    }

    #[test]
    fn tail_call_terminated_body_is_accepted() {
        let f = FuncDef::new("f", vec![Stmt::Compute(1), Stmt::TailCall("g".into())]);
        assert!(!f.is_leaf());
    }

    #[test]
    #[should_panic(expected = "must end with Return")]
    fn unterminated_body_panics() {
        let _ = FuncDef::new("f", vec![Stmt::Compute(1)]);
    }

    #[test]
    fn module_check_finds_missing_callee() {
        let mut m = Module::new();
        m.push(FuncDef::new(
            "main",
            vec![Stmt::Call("ghost".into()), Stmt::Return],
        ));
        assert!(m.check().unwrap_err().contains("ghost"));
        m.push(FuncDef::new("ghost", vec![Stmt::Return]));
        assert!(m.check().is_ok());
    }

    #[test]
    #[should_panic(expected = "duplicate function")]
    fn duplicate_names_panic() {
        let mut m = Module::new();
        m.push(FuncDef::new("f", vec![Stmt::Return]));
        m.push(FuncDef::new("f", vec![Stmt::Return]));
    }

    #[test]
    fn frame_usage_detection() {
        let f = FuncDef::new("f", vec![Stmt::MemAccess(2), Stmt::Return]);
        assert!(f.uses_frame());
        let g = FuncDef::new("g", vec![Stmt::Compute(2), Stmt::Return]);
        assert!(!g.uses_frame());
    }
}
