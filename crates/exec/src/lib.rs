//! Deterministic parallel experiment engine.
//!
//! The PACStack evaluation is built out of two shapes of work:
//!
//! * **Monte Carlo trials** — thousands of independent attack attempts per
//!   Table 1 cell, birthday harvests, guessing campaigns;
//! * **workload sweeps** — one simulator run per (benchmark, scheme) pair
//!   for Figure 5 / Tables 2–3.
//!
//! Both are embarrassingly parallel, but the statistical claims only hold
//! if results stay reproducible. This engine therefore guarantees a strong
//! determinism property: **the merged result is byte-identical to the
//! sequential run at any thread count.** It achieves this by deriving every
//! trial's randomness purely from `(experiment-id, trial-index)` — no
//! shared RNG stream, no scheduling-order dependence — and by merging
//! per-chunk results back in index order.
//!
//! ```
//! use pacstack_exec as exec;
//! use rand::Rng;
//!
//! let a = exec::run_trials(0xE0, 1_000, |_i, rng| rng.gen::<u64>() & 0xF);
//! exec::set_jobs(4);
//! let b = exec::run_trials(0xE0, 1_000, |_i, rng| rng.gen::<u64>() & 0xF);
//! exec::set_jobs(1);
//! assert_eq!(a.results, b.results); // identical at any thread count
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The engine hosts every experiment in the workspace; a panic here kills
// whole campaigns, so fallible paths must be structured. Tests opt back in.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod stats;

use pacstack_telemetry as telemetry;
use rand::RngCore;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Per-trial RNG streams
// ---------------------------------------------------------------------------

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A counter-derived RNG stream: a pure function of
/// `(experiment-id, trial-index)`.
///
/// Every trial owns its own stream, so a trial's randomness does not depend
/// on which worker ran it or in what order — the foundation of the engine's
/// parallel-equals-sequential guarantee.
#[derive(Debug, Clone)]
pub struct TrialRng {
    s: [u64; 4],
}

impl TrialRng {
    /// The stream for trial `index` of the experiment identified by
    /// `stream` (an experiment id, typically `base_seed ^ EXPERIMENT_TAG`).
    pub fn new(stream: u64, index: u64) -> Self {
        // Two SplitMix64 avalanches separate the stream and index
        // contributions before state expansion.
        let mut h = stream;
        let a = splitmix(&mut h);
        let mut h2 = a ^ index.wrapping_mul(GOLDEN);
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix(&mut h2);
        }
        if s == [0; 4] {
            s[0] = 1;
        }
        Self { s }
    }
}

impl RngCore for TrialRng {
    fn next_u64(&mut self) -> u64 {
        // xoshiro256**
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

// ---------------------------------------------------------------------------
// Worker-pool configuration
// ---------------------------------------------------------------------------

/// 0 means "auto": use [`std::thread::available_parallelism`].
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker count for subsequent engine calls (the `--jobs` flag).
/// `0` restores the default of one worker per available core.
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs, Ordering::SeqCst);
}

/// The effective worker count engine calls will use.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::SeqCst) {
        0 => thread::available_parallelism().map_or(1, usize::from),
        n => n,
    }
}

// ---------------------------------------------------------------------------
// Execution statistics
// ---------------------------------------------------------------------------

/// Throughput and occupancy of one engine invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecStats {
    /// Trials (or sweep items) executed.
    pub trials: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// Chunks the trial range was split into.
    pub chunks: u64,
    /// Wall-clock time of the whole invocation.
    pub wall: Duration,
    /// CPU time: summed busy time across all workers.
    pub busy: Duration,
}

impl ExecStats {
    /// Trials per wall-clock second.
    pub fn trials_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.trials as f64 / secs
        }
    }

    /// Fraction of the worker pool's wall-clock capacity spent busy,
    /// in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.jobs as f64;
        if capacity == 0.0 {
            0.0
        } else {
            (self.busy.as_secs_f64() / capacity).min(1.0)
        }
    }
}

/// Results plus statistics from one engine invocation.
#[derive(Debug, Clone)]
pub struct Run<T> {
    /// Per-trial results in trial-index order — identical at any `jobs`.
    pub results: Vec<T>,
    /// Throughput/occupancy of this invocation (varies with `jobs` and
    /// load; never part of experiment output).
    pub stats: ExecStats,
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Chunk size aiming at ~8 chunks per worker, so dynamic scheduling can
/// balance uneven trial costs without contending on the queue.
fn chunk_size(trials: u64, jobs: usize) -> u64 {
    (trials / (jobs as u64 * 8)).clamp(1, 4096)
}

/// Runs one trial body, scoped to a telemetry task when telemetry is
/// recording. The `(invocation, trial-index)` key makes everything the
/// body records merge in trial order regardless of which worker ran it —
/// the telemetry side of the engine's parallel-equals-sequential claim.
fn scoped<T>(invocation: Option<u64>, index: u64, f: impl FnOnce() -> T) -> T {
    match invocation {
        Some(inv) => telemetry::in_task(inv, index, f),
        None => f(),
    }
}

/// Runs `trials` independent trials of the experiment identified by
/// `stream`, fanning them across the configured worker pool.
///
/// Each trial `i` receives its own [`TrialRng::new`]`(stream, i)`; `body`
/// must derive all its randomness from that stream (and its arguments) for
/// the determinism guarantee to hold. Results are returned in trial order.
pub fn run_trials<T, F>(stream: u64, trials: u64, body: F) -> Run<T>
where
    T: Send,
    F: Fn(u64, &mut TrialRng) -> T + Sync,
{
    let jobs = jobs().min(trials.max(1) as usize).max(1);
    let chunk = chunk_size(trials, jobs);
    let invocation = telemetry::begin_invocation();
    if invocation.is_some() {
        telemetry::counter("exec_invocations_total", 1);
        telemetry::counter("exec_trials_total", trials);
    }
    let start = Instant::now();

    if jobs == 1 {
        let mut results = Vec::with_capacity(trials as usize);
        for i in 0..trials {
            let mut rng = TrialRng::new(stream, i);
            results.push(scoped(invocation, i, || body(i, &mut rng)));
        }
        let wall = start.elapsed();
        return Run {
            results,
            stats: ExecStats {
                trials,
                jobs: 1,
                chunks: trials.div_ceil(chunk.max(1)),
                wall,
                busy: wall,
            },
        };
    }

    let next = AtomicU64::new(0);
    let busy_ns = AtomicU64::new(0);
    let collected: Mutex<Vec<(u64, Vec<T>)>> = Mutex::new(Vec::new());
    {
        let body = &body;
        let next = &next;
        let busy_ns = &busy_ns;
        let collected = &collected;
        thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(move || loop {
                    let lo = next.fetch_add(chunk, Ordering::Relaxed);
                    if lo >= trials {
                        break;
                    }
                    let hi = (lo + chunk).min(trials);
                    let t0 = Instant::now();
                    let mut out = Vec::with_capacity((hi - lo) as usize);
                    for i in lo..hi {
                        let mut rng = TrialRng::new(stream, i);
                        out.push(scoped(invocation, i, || body(i, &mut rng)));
                    }
                    busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    collected
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((lo, out));
                });
            }
        });
    }

    let mut chunks = collected.into_inner().unwrap_or_else(|e| e.into_inner());
    chunks.sort_unstable_by_key(|&(lo, _)| lo);
    let chunk_count = chunks.len() as u64;
    let mut results = Vec::with_capacity(trials as usize);
    for (_, mut part) in chunks {
        results.append(&mut part);
    }

    Run {
        results,
        stats: ExecStats {
            trials,
            jobs,
            chunks: chunk_count,
            wall: start.elapsed(),
            busy: Duration::from_nanos(busy_ns.into_inner()),
        },
    }
}

/// Monte Carlo convenience: counts trials whose body reports success.
pub fn count_trials<F>(stream: u64, trials: u64, body: F) -> (u64, ExecStats)
where
    F: Fn(u64, &mut TrialRng) -> bool + Sync,
{
    let run = run_trials(stream, trials, body);
    let successes = run.results.iter().filter(|&&s| s).count() as u64;
    (successes, run.stats)
}

/// Sweep convenience: maps `body` over `items` in parallel, returning
/// results in item order. For deterministic per-item work (workload runs);
/// no RNG stream is provided.
pub fn parallel_map<I, T, F>(items: &[I], body: F) -> Run<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let run = run_trials(0, items.len() as u64, |i, _rng| {
        body(i as usize, &items[i as usize])
    });
    Run {
        results: run.results,
        stats: run.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Runs `f` under a fixed job count, restoring the previous setting.
    fn with_jobs<T>(jobs: usize, f: impl FnOnce() -> T) -> T {
        let prev = JOBS.swap(jobs, Ordering::SeqCst);
        let out = f();
        JOBS.store(prev, Ordering::SeqCst);
        out
    }

    #[test]
    fn trial_rng_is_a_pure_function_of_stream_and_index() {
        let mut a = TrialRng::new(7, 42);
        let mut b = TrialRng::new(7, 42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = TrialRng::new(7, 43);
        let mut d = TrialRng::new(8, 42);
        assert_ne!(TrialRng::new(7, 42).next_u64(), c.next_u64());
        assert_ne!(TrialRng::new(7, 42).next_u64(), d.next_u64());
    }

    #[test]
    fn adjacent_streams_are_statistically_independent() {
        // Crude independence check: XOR of neighbouring streams' first
        // outputs has ~32 bits set on average.
        let mut total = 0u32;
        let n = 1_000u64;
        for i in 0..n {
            let x = TrialRng::new(1, i).next_u64();
            let y = TrialRng::new(1, i + 1).next_u64();
            total += (x ^ y).count_ones();
        }
        let mean = f64::from(total) / n as f64;
        assert!((28.0..36.0).contains(&mean), "mean flipped bits {mean}");
    }

    #[test]
    fn parallel_results_equal_sequential_results() {
        let body = |i: u64, rng: &mut TrialRng| (i, rng.gen::<u64>());
        let seq = with_jobs(1, || run_trials(0xABCD, 10_000, body));
        for jobs in [2, 3, 4, 7] {
            let par = with_jobs(jobs, || run_trials(0xABCD, 10_000, body));
            assert_eq!(seq.results, par.results, "jobs = {jobs}");
        }
    }

    #[test]
    fn trial_count_edge_cases() {
        let empty = with_jobs(4, || run_trials(1, 0, |i, _| i));
        assert!(empty.results.is_empty());
        let one = with_jobs(4, || run_trials(1, 1, |i, _| i));
        assert_eq!(one.results, vec![0]);
        // More workers than trials.
        let few = with_jobs(8, || run_trials(1, 3, |i, _| i));
        assert_eq!(few.results, vec![0, 1, 2]);
    }

    #[test]
    fn count_trials_counts() {
        let (hits, stats) = with_jobs(4, || count_trials(5, 1_000, |i, _| i % 10 == 0));
        assert_eq!(hits, 100);
        assert_eq!(stats.trials, 1_000);
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..500).collect();
        let run = with_jobs(4, || parallel_map(&items, |i, &item| item * 2 + i as u64));
        let expected: Vec<u64> = (0..500).map(|i| i * 3).collect();
        assert_eq!(run.results, expected);
    }

    #[test]
    fn stats_are_plausible() {
        let run = with_jobs(2, || {
            run_trials(9, 4_000, |i, rng| {
                // Enough work per trial for busy time to register.
                let mut acc = i;
                for _ in 0..100 {
                    acc = acc
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(rng.next_u64() & 1);
                }
                acc
            })
        });
        assert_eq!(run.stats.trials, 4_000);
        assert!(run.stats.jobs <= 2);
        assert!(run.stats.trials_per_sec() > 0.0);
        assert!(run.stats.utilization() <= 1.0);
    }

    #[test]
    fn trial_rngs_feed_rand_consumers() {
        // TrialRng implements rand::RngCore, so gen/gen_range work.
        let mut rng = TrialRng::new(3, 3);
        let x: u64 = rng.gen();
        let _ = x;
        let y = rng.gen_range(0..10u32);
        assert!(y < 10);
    }
}
