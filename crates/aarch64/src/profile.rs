//! Per-function cycle attribution.
//!
//! The [`Profiler`], a [`Cpu::run_observed`] observer, attributes every
//! retired instruction's cycle cost to the function on top of a simulated
//! call stack pushed on `bl`/`blr` and popped on `ret`/`retaa`/`retab`.
//! Because it observes only architectural events in the simulated-cycle
//! domain, its output is deterministic — a function of the program and
//! seed, never of host scheduling — and feeds the telemetry exporters
//! directly: collapsed stacks become flamegraph lines, completed frames
//! become Chrome trace spans.

use crate::{Cpu, Instruction};
use std::collections::{BTreeMap, HashMap};

/// A completed function activation, in the simulated-cycle domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSpan {
    /// Resolved function name (symbol, or `0x…` for unknown addresses).
    pub name: String,
    /// Cycle count when the function was entered.
    pub start: u64,
    /// Inclusive duration in cycles (callees included).
    pub dur: u64,
}

/// The result of a profiled run: collapsed self-time stacks plus completed
/// call spans, both with addresses resolved to symbol names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FunctionProfile {
    /// Semicolon-collapsed call stacks (`main;f;g`) to *self* cycles —
    /// flamegraph input, exclusive of callees.
    pub stacks: Vec<(String, u64)>,
    /// Completed activations in completion order (innermost first for
    /// nested frames, matching how returns retire).
    pub spans: Vec<ProfileSpan>,
    /// Spans discarded once the configured cap was reached.
    pub dropped_spans: u64,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    addr: u64,
    entered_at: u64,
}

#[derive(Debug, Clone, Copy)]
struct RawSpan {
    addr: u64,
    start: u64,
    dur: u64,
}

/// Live profiler state: feed it every retired instruction through
/// [`Cpu::run_observed`], then [`Profiler::finish`] it.
#[derive(Debug, Clone)]
pub struct Profiler {
    frames: Vec<Frame>,
    /// Call stack (as entry addresses, outermost first) → self cycles.
    stacks: BTreeMap<Vec<u64>, u64>,
    spans: Vec<RawSpan>,
    max_spans: usize,
    dropped: u64,
    /// Cycle watermark of the last attribution, so each retired
    /// instruction's cost is charged exactly once.
    last_cycles: u64,
    root: u64,
}

impl Profiler {
    /// Starts profiling `cpu` at its current PC and cycle count. Call spans
    /// beyond `max_spans` are counted as dropped rather than recorded,
    /// bounding memory on call-heavy workloads.
    pub fn new(cpu: &Cpu, max_spans: usize) -> Self {
        let (root, now) = (cpu.pc(), cpu.cycles());
        Self {
            frames: vec![Frame {
                addr: root,
                entered_at: now,
            }],
            stacks: BTreeMap::new(),
            spans: Vec::new(),
            max_spans,
            dropped: 0,
            last_cycles: now,
            root,
        }
    }

    /// Observes one retired instruction, as [`Cpu::run_observed`] passes it.
    pub fn observe(&mut self, cpu: &Cpu, insn: Instruction) {
        // Attribute this instruction's (fully charged) cost to the frame
        // that issued it, then move the frame stack: calls are charged to
        // the caller, returns to the returning function.
        let now = cpu.cycles();
        self.attribute(now);
        let callee = match insn {
            Instruction::Bl(target) => target,
            Instruction::Blr(n) => cpu.reg(n),
            // The root frame is never popped: a `ret` seen with only the
            // root on the stack belongs to a caller outside the window.
            Instruction::Ret | Instruction::Retaa | Instruction::Retab => {
                if self.frames.len() > 1 {
                    if let Some(frame) = self.frames.pop() {
                        self.record_span(frame, now);
                    }
                }
                return;
            }
            _ => return,
        };
        self.frames.push(Frame {
            addr: callee,
            entered_at: now,
        });
    }

    fn stack_key(&self) -> Vec<u64> {
        self.frames.iter().map(|f| f.addr).collect()
    }

    /// Charges all cycles since the last attribution to the current stack.
    fn attribute(&mut self, now: u64) {
        let delta = now.saturating_sub(self.last_cycles);
        if delta > 0 {
            *self.stacks.entry(self.stack_key()).or_insert(0) += delta;
            self.last_cycles = now;
        }
    }

    fn record_span(&mut self, frame: Frame, now: u64) {
        if self.spans.len() < self.max_spans {
            self.spans.push(RawSpan {
                addr: frame.addr,
                start: frame.entered_at,
                dur: now.saturating_sub(frame.entered_at),
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Attributes the residual tail, closes every open frame at `cpu`'s cycle
    /// count, and resolves addresses to names via `cpu`'s symbol table.
    pub fn finish(mut self, cpu: &Cpu) -> FunctionProfile {
        let (now, symbols) = (cpu.cycles(), cpu.symbols.as_ref());
        self.attribute(now);
        while let Some(frame) = self.frames.pop() {
            self.record_span(frame, now);
        }

        let mut names: HashMap<u64, &str> = HashMap::with_capacity(symbols.len());
        for (name, &addr) in symbols {
            // Two symbols on one address would make name resolution depend
            // on hash order; keep the lexicographically first.
            match names.get(&addr) {
                Some(existing) if *existing <= name.as_str() => {}
                _ => {
                    names.insert(addr, name.as_str());
                }
            }
        }
        let resolve = |addr: u64| -> String {
            if let Some(name) = names.get(&addr) {
                (*name).to_owned()
            } else if addr == self.root {
                "_start".to_owned()
            } else {
                format!("{addr:#x}")
            }
        };

        let stacks = self
            .stacks
            .iter()
            .map(|(key, &cycles)| {
                let joined = key
                    .iter()
                    .map(|&a| resolve(a))
                    .collect::<Vec<_>>()
                    .join(";");
                (joined, cycles)
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| ProfileSpan {
                name: resolve(s.addr),
                start: s.start,
                dur: s.dur,
            })
            .collect();
        FunctionProfile {
            stacks,
            spans,
            dropped_spans: self.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::program::Op;
    use crate::Instruction::*;
    use crate::{Outcome, Program, Reg};

    fn call_tree_program() -> Program {
        let mut p = Program::new();
        p.function_ops(
            "main",
            vec![
                Op::I(StrPre(Reg::X30, Reg::Sp, -16)),
                Op::I(MovImm(Reg::X0, 1)),
                Op::Call("leaf".into()),
                Op::Call("leaf".into()),
                Op::I(LdrPost(Reg::X30, Reg::Sp, 16)),
                Op::I(Ret),
            ],
        );
        p.function("leaf", vec![AddImm(Reg::X0, Reg::X0, 1), Ret]);
        p
    }

    fn profiled_run(max_spans: usize) -> (Outcome, FunctionProfile) {
        let mut cpu = Cpu::with_seed(call_tree_program(), 7);
        let mut profiler = Profiler::new(&cpu, max_spans);
        let out = cpu
            .run_observed(10_000, |cpu, insn| profiler.observe(cpu, insn))
            .unwrap();
        (out, profiler.finish(&cpu))
    }

    #[test]
    fn self_cycles_partition_total_cycles() {
        let (out, profile) = profiled_run(64);
        let attributed: u64 = profile.stacks.iter().map(|(_, c)| c).sum();
        assert_eq!(attributed, out.cycles, "{profile:?}");
    }

    #[test]
    fn stacks_and_spans_name_the_call_tree() {
        let (_, profile) = profiled_run(64);
        let stacks: Vec<&str> = profile.stacks.iter().map(|(s, _)| s.as_str()).collect();
        assert!(stacks.contains(&"_start;main;leaf"), "{stacks:?}");
        assert!(stacks.contains(&"_start;main"), "{stacks:?}");
        let leaves = profile.spans.iter().filter(|s| s.name == "leaf").count();
        assert_eq!(leaves, 2, "{:?}", profile.spans);
        assert_eq!(profile.dropped_spans, 0);
    }

    #[test]
    fn span_cap_counts_drops_deterministically() {
        let (_, profile) = profiled_run(1);
        assert_eq!(profile.spans.len(), 1);
        // Two leaf returns, one main return, plus the root and main frames
        // closed by finish(): everything past the first span is dropped.
        assert!(profile.dropped_spans >= 2, "{profile:?}");
    }

    #[test]
    fn profiling_is_architecturally_invisible() {
        let mut plain = Cpu::with_seed(call_tree_program(), 7);
        let (profiled, _) = profiled_run(64);
        assert_eq!(plain.run(10_000).unwrap(), profiled);
    }
}
