//! The per-task [`Recorder`] and the merged view.

use std::collections::BTreeMap;

use crate::metrics::CycleHistogram;
use crate::span::SpanEvent;

/// A single task's (or thread's) private record buffer. Never shared:
/// each trial gets a fresh one, so recording takes no locks; the engine
/// merges it into the global store when the trial completes.
#[derive(Default, Debug)]
pub struct Recorder {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, CycleHistogram>,
    stacks: BTreeMap<String, u64>,
    spans: Vec<SpanEvent>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing has been recorded (skips a store lock on merge).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.stacks.is_empty()
            && self.spans.is_empty()
    }

    /// Decomposes the recorder for merging into the global store.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(
        self,
    ) -> (
        BTreeMap<String, u64>,
        BTreeMap<String, CycleHistogram>,
        BTreeMap<String, u64>,
        Vec<SpanEvent>,
    ) {
        (self.counters, self.histograms, self.stacks, self.spans)
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn counter(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_owned(), delta);
        }
    }

    /// Records one observation into the named cycle-domain histogram.
    pub fn observe_cycles(&mut self, name: &str, cycles: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(cycles);
        } else {
            let mut h = CycleHistogram::new();
            h.observe(cycles);
            self.histograms.insert(name.to_owned(), h);
        }
    }

    /// Records a completed span.
    pub fn span(&mut self, event: SpanEvent) {
        self.spans.push(event);
    }

    /// Adds `self_cycles` to a semicolon-collapsed call-stack line.
    pub fn stack(&mut self, frames: &str, self_cycles: u64) {
        if let Some(v) = self.stacks.get_mut(frames) {
            *v += self_cycles;
        } else {
            self.stacks.insert(frames.to_owned(), self_cycles);
        }
    }
}

/// The deterministic merged view returned by [`crate::snapshot`]: sorted
/// maps for all commutative aggregates, spans in task-key order. The
/// exporters in [`crate::export`] render this and nothing else, so two
/// equal `Merged` values always produce byte-identical artifacts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Merged {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Cycle histograms by name.
    pub histograms: BTreeMap<String, CycleHistogram>,
    /// Collapsed call stacks (`track;f;g`) to self-cycles.
    pub stacks: BTreeMap<String, u64>,
    /// Spans in `(invocation, task)` order.
    pub spans: Vec<SpanEvent>,
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn recorder_accumulates() {
        let mut r = Recorder::new();
        assert!(r.is_empty());
        r.counter("a_total", 1);
        r.counter("a_total", 2);
        r.observe_cycles("lat", 9);
        r.stack("t;f", 4);
        r.stack("t;f", 6);
        r.span(SpanEvent::new("t", "f", "test", 0, 10));
        assert!(!r.is_empty());
        let (counters, histograms, stacks, spans) = r.into_parts();
        assert_eq!(counters["a_total"], 3);
        assert_eq!(histograms["lat"].count(), 1);
        assert_eq!(stacks["t;f"], 10);
        assert_eq!(spans.len(), 1);
    }
}
