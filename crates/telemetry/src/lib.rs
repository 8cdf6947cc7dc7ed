//! Deterministic cycle-domain telemetry.
//!
//! Every other crate in the workspace emits observability data through this
//! one: retired-instruction mixes and PAC-memo statistics from the CPU
//! model, per-key PAC computes from the PA unit, injection-window occupancy
//! and outcome latencies from the chaos engine, and per-function cycle
//! attribution from the workload models. Two properties make it usable in a
//! repository whose experiment outputs are byte-compared in CI:
//!
//! * **Zero overhead when disabled.** The subsystem is off by default;
//!   every hook guards on [`enabled`], a single relaxed atomic load, and
//!   records nothing (and allocates nothing) until a driver calls
//!   [`enable`].
//! * **Deterministic at any thread count.** All quantities are clocked on
//!   *simulated cycles*, never wall time, and recording is task-scoped:
//!   the experiment engine wraps each trial in [`in_task`], which gives the
//!   trial a fresh thread-local [`Recorder`] and merges it into the global
//!   store keyed by `(engine-invocation, trial-index)`. Counter, histogram
//!   and stack merges are commutative sums; span events are replayed in
//!   task-key order at [`snapshot`] time. The merged view — and therefore
//!   every exported artifact — is byte-identical whether the trials ran on
//!   one worker or sixteen.
//!
//! # Examples
//!
//! ```
//! use pacstack_telemetry as telemetry;
//!
//! telemetry::reset();
//! telemetry::enable();
//! telemetry::counter("demo_events_total", 2);
//! telemetry::observe_cycles("demo_latency_cycles", 17);
//! telemetry::disable();
//!
//! let merged = telemetry::snapshot();
//! assert_eq!(merged.counters["demo_events_total"], 2);
//! assert_eq!(merged.histograms["demo_latency_cycles"].count(), 1);
//! telemetry::reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The fault-injection harness requires the whole observability path to be
// panic-free: telemetry must never be able to kill a host process.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod export;
pub mod metrics;
pub mod recorder;
pub mod ring;
pub mod span;

pub use metrics::CycleHistogram;
pub use recorder::{Merged, Recorder};
pub use ring::Ring;
pub use span::SpanEvent;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Global enablement
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is currently recording. One relaxed atomic load — the
/// entire disabled-path cost of every instrumentation hook.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on. Hooks throughout the workspace start feeding the
/// thread-local recorders.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off. Already-recorded data stays until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Task ordering
// ---------------------------------------------------------------------------

/// Orders engine invocations and ambient flushes. Assigned on the driver
/// thread in call order, so the keys — and the span replay order derived
/// from them — are a pure function of the program, not of scheduling.
static ORDER: AtomicU64 = AtomicU64::new(0);

/// Key a merged task record is sorted by: `(invocation order, task index)`.
pub type TaskKey = (u64, u64);

/// Claims the next invocation-order slot for an engine call that is about
/// to fan tasks out. Returns `None` when telemetry is disabled, so the
/// disabled path performs no atomic writes.
pub fn begin_invocation() -> Option<u64> {
    if !enabled() {
        return None;
    }
    Some(ORDER.fetch_add(1, Ordering::SeqCst))
}

// ---------------------------------------------------------------------------
// Thread-local recorders and the global store
// ---------------------------------------------------------------------------

thread_local! {
    /// Scope stack: the innermost open task's recorder, over the thread's
    /// ambient recorder (index 0 conceptually; materialised lazily).
    static SCOPES: RefCell<Vec<Recorder>> = const { RefCell::new(Vec::new()) };
    /// Records made outside any task scope on this thread.
    static AMBIENT: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// The process-global merged store. Commutative data (counters, histograms,
/// collapsed stacks) merges eagerly; span batches keep their task key so
/// [`snapshot`] can replay them in deterministic order.
struct Store {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, CycleHistogram>,
    stacks: BTreeMap<String, u64>,
    spans: Vec<(TaskKey, Vec<SpanEvent>)>,
}

impl Store {
    const fn new() -> Self {
        Self {
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            stacks: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    fn absorb(&mut self, key: TaskKey, rec: Recorder) {
        let (counters, histograms, stacks, spans) = rec.into_parts();
        for (name, delta) in counters {
            *self.counters.entry(name).or_insert(0) += delta;
        }
        for (name, hist) in histograms {
            self.histograms.entry(name).or_default().merge(&hist);
        }
        for (stack, cycles) in stacks {
            *self.stacks.entry(stack).or_insert(0) += cycles;
        }
        if !spans.is_empty() {
            self.spans.push((key, spans));
        }
    }
}

static STORE: Mutex<Store> = Mutex::new(Store::new());

fn store() -> std::sync::MutexGuard<'static, Store> {
    STORE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` against the innermost active sink on this thread: the open task
/// recorder if one exists, the thread's ambient recorder otherwise.
/// No-op when telemetry is disabled.
fn with_sink(f: impl FnOnce(&mut Recorder)) {
    if !enabled() {
        return;
    }
    SCOPES.with(|scopes| {
        let mut scopes = scopes.borrow_mut();
        if let Some(top) = scopes.last_mut() {
            f(top);
        } else {
            drop(scopes);
            AMBIENT.with(|ambient| f(&mut ambient.borrow_mut()));
        }
    });
}

/// Runs `f` inside a fresh task scope: everything it records lands in a
/// recorder merged into the global store under `(invocation, index)`.
/// The engine wraps every trial body in this, which is what makes merged
/// telemetry independent of which worker ran the trial and when.
pub fn in_task<T>(invocation: u64, index: u64, f: impl FnOnce() -> T) -> T {
    SCOPES.with(|scopes| scopes.borrow_mut().push(Recorder::default()));
    let out = f();
    let rec = SCOPES.with(|scopes| scopes.borrow_mut().pop());
    if let Some(rec) = rec {
        if !rec.is_empty() {
            store().absorb((invocation, index), rec);
        }
    }
    out
}

/// Flushes this thread's ambient recorder into the global store under a
/// fresh order slot. Called by [`snapshot`] for the driver thread; worker
/// threads record exclusively inside task scopes and never need it.
fn flush_ambient() {
    let rec = AMBIENT.with(|ambient| std::mem::take(&mut *ambient.borrow_mut()));
    if !rec.is_empty() {
        let order = ORDER.fetch_add(1, Ordering::SeqCst);
        store().absorb((order, 0), rec);
    }
}

// ---------------------------------------------------------------------------
// Recording convenience
// ---------------------------------------------------------------------------

/// Adds `delta` to the named counter. Label pairs are embedded in the name
/// (`cpu_insns_total{class="memory"}`), Prometheus-style.
pub fn counter(name: &str, delta: u64) {
    with_sink(|s| s.counter(name, delta));
}

/// Records one observation into the named cycle-domain histogram.
pub fn observe_cycles(name: &str, cycles: u64) {
    with_sink(|s| s.observe_cycles(name, cycles));
}

/// Records a completed span event.
pub fn span(event: SpanEvent) {
    with_sink(|s| s.span(event));
}

/// Adds `self_cycles` to a collapsed call-stack line
/// (`track;main;f;g` — flamegraph format).
pub fn stack(frames: &str, self_cycles: u64) {
    with_sink(|s| s.stack(frames, self_cycles));
}

// ---------------------------------------------------------------------------
// Snapshot / reset
// ---------------------------------------------------------------------------

/// Flushes the calling thread's ambient recorder, then returns the merged,
/// deterministically ordered view of everything recorded so far. The store
/// is left intact; call [`reset`] to clear it.
pub fn snapshot() -> Merged {
    flush_ambient();
    let store = store();
    let mut batches: Vec<&(TaskKey, Vec<SpanEvent>)> = store.spans.iter().collect();
    batches.sort_by_key(|(key, _)| *key);
    let spans = batches
        .into_iter()
        .flat_map(|(_, batch)| batch.iter().cloned())
        .collect();
    Merged {
        counters: store.counters.clone(),
        histograms: store.histograms.clone(),
        stacks: store.stacks.clone(),
        spans,
    }
}

/// Clears the global store, the order counter and the calling thread's
/// ambient recorder. Drivers call this before a fresh capture.
pub fn reset() {
    let mut store = store();
    store.counters.clear();
    store.histograms.clear();
    store.stacks.clear();
    store.spans.clear();
    drop(store);
    ORDER.store(0, Ordering::SeqCst);
    AMBIENT.with(|ambient| *ambient.borrow_mut() = Recorder::default());
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use std::sync::Mutex as StdMutex;

    /// The global store is process-wide; tests touching it must not overlap.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _guard = locked();
        reset();
        disable();
        counter("x_total", 5);
        observe_cycles("x_cycles", 9);
        let merged = snapshot();
        assert!(merged.counters.is_empty());
        assert!(merged.histograms.is_empty());
    }

    #[test]
    fn ambient_and_task_records_merge() {
        let _guard = locked();
        reset();
        enable();
        counter("ambient_total", 1);
        let inv = begin_invocation().unwrap();
        in_task(inv, 0, || counter("task_total", 2));
        in_task(inv, 1, || counter("task_total", 3));
        disable();
        let merged = snapshot();
        assert_eq!(merged.counters["ambient_total"], 1);
        assert_eq!(merged.counters["task_total"], 5);
        reset();
    }

    #[test]
    fn span_replay_order_follows_task_keys_not_completion_order() {
        let _guard = locked();
        reset();
        enable();
        let inv = begin_invocation().unwrap();
        // Simulate out-of-order completion: task 2 merges before task 0.
        for index in [2u64, 0, 1] {
            in_task(inv, index, || {
                span(SpanEvent::new(
                    "t",
                    format!("span{index}"),
                    "test",
                    index * 10,
                    5,
                ));
            });
        }
        disable();
        let merged = snapshot();
        let names: Vec<&str> = merged.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["span0", "span1", "span2"]);
        reset();
    }

    #[test]
    fn reset_clears_everything() {
        let _guard = locked();
        reset();
        enable();
        counter("gone_total", 1);
        disable();
        reset();
        let merged = snapshot();
        assert!(merged.counters.is_empty());
        assert!(merged.spans.is_empty());
    }
}
