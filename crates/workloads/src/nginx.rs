//! The NGINX SSL-TPS server model (paper §7.2, Table 3).
//!
//! The paper's test drives NGINX with one HTTPS request per connection and
//! a 0-byte response, making the server CPU-bound on connection setup: the
//! TLS handshake's public-key arithmetic, which in OpenSSL is a storm of
//! small bignum-helper calls — precisely the call-heavy profile that
//! maximises return-address-protection overhead (the paper measures 6–13%
//! for full PACStack there, versus ≈3% on SPEC).
//!
//! The model runs an accept → handshake → respond → close loop per
//! transaction; the handshake spins on instrumented bignum helpers. TPS is
//! simulated cycles converted through a nominal clock and scaled linearly
//! across workers. Run-to-run jitter (the paper reports σ over `wrk`
//! sessions) comes from perturbing the handshake round count per run.
//! Because TPS is a pure function of one run's cycles, [`ssl_tps`]
//! simulates each distinct (scheme, round count) once and derives every
//! worker count's samples from those cycles.

use crate::measure::run_module;
use pacstack_compiler::{FuncDef, Module, Scheme, Stmt};
use pacstack_exec as exec;
use rand::Rng;
use std::collections::{BTreeSet, HashMap};

/// RNG-stream tag for [`ssl_tps`] measurement sessions. Deliberately
/// excludes the scheme: paired comparisons (baseline vs instrumented at
/// the same seed) must see identical per-run handshake jitter.
const STREAM_SSL_TPS: u64 = 0x5517_7005_EA51_0005;

/// Instruction budget of one server run.
const BUDGET: u64 = 1_000_000_000;

/// Nominal CPU clock used to convert cycles to wall-clock TPS.
pub const CLOCK_HZ: f64 = 2.0e9;

/// Transactions simulated per measurement run (per worker).
pub const TRANSACTIONS: u32 = 40;

/// Builds the per-worker server module.
///
/// `handshake_rounds` controls how many bignum operations one TLS
/// handshake performs (the RSA-2048 / ECDHE profile of the paper's cipher
/// suite is call-heavy).
pub fn server_module(handshake_rounds: u32) -> Module {
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![
            Stmt::Loop(
                TRANSACTIONS,
                vec![
                    Stmt::Call("accept_conn".into()),
                    Stmt::Call("tls_handshake".into()),
                    Stmt::Call("respond".into()),
                    Stmt::Call("close_conn".into()),
                ],
            ),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "accept_conn",
        vec![
            Stmt::Compute(150),
            Stmt::MemAccess(35),
            Stmt::Call("alloc_buf".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "tls_handshake",
        vec![
            Stmt::Loop(
                handshake_rounds,
                vec![
                    Stmt::Call("bn_mul".into()),
                    Stmt::Call("bn_sqr".into()),
                    Stmt::Call("bn_mod".into()),
                ],
            ),
            Stmt::Call("kdf".into()),
            Stmt::Return,
        ],
    ));
    // Bignum helpers: small bodies, each calling a limb-level leaf — the
    // OpenSSL shape that makes handshakes call-bound.
    m.push(FuncDef::new(
        "bn_mul",
        vec![
            Stmt::Compute(95),
            Stmt::MemAccess(22),
            Stmt::Call("limb_op".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "bn_sqr",
        vec![
            Stmt::Compute(75),
            Stmt::MemAccess(18),
            Stmt::Call("limb_op".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "bn_mod",
        vec![
            Stmt::Compute(110),
            Stmt::MemAccess(26),
            Stmt::Call("limb_op".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "kdf",
        vec![
            Stmt::Compute(300),
            Stmt::Call("digest_block".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "respond",
        vec![
            Stmt::Compute(190),
            Stmt::MemAccess(45),
            Stmt::Call("writev_stub".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "close_conn",
        vec![Stmt::Compute(55), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "alloc_buf",
        vec![Stmt::Compute(75), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "limb_op",
        vec![Stmt::Compute(52), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "digest_block",
        vec![Stmt::Compute(220), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "writev_stub",
        vec![Stmt::Compute(95), Stmt::Return],
    ));
    m
}

/// Result of an SSL-TPS measurement campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct TpsResult {
    /// Mean transactions per second across runs.
    pub mean_tps: f64,
    /// Standard deviation across runs.
    pub sigma: f64,
    /// Number of measurement runs.
    pub runs: usize,
}

impl TpsResult {
    /// Mean and population standard deviation of per-run TPS samples.
    fn from_samples(samples: &[f64]) -> Self {
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        Self {
            mean_tps: mean,
            sigma: var.sqrt(),
            runs: samples.len(),
        }
    }
}

/// Measures SSL TPS for every scheme in `schemes` at every worker count in
/// `workers`; `result[w][s]` is the cell of `workers[w]` and `schemes[s]`.
///
/// Each of `runs` measurement sessions perturbs the handshake round count
/// ±10% (run-to-run load jitter) and measures cycles per transaction; TPS
/// scales linearly with workers at the nominal clock. Every scheme sees the
/// same per-run round counts, and a run's TPS depends only on its cycles,
/// so each distinct (scheme, round count) pair is simulated once — at most
/// `schemes.len() × 9` runs however many workers and sessions are asked
/// for — and every cell's samples are derived from those cycles. The runs
/// fan out across the [`pacstack_exec`] worker pool (engine label
/// `ssl-tps sweep`), so the result is identical at any thread count.
///
/// # Panics
///
/// Panics if a run faults (the workload must run clean under every scheme).
pub fn ssl_tps(schemes: &[Scheme], workers: &[u32], runs: usize, seed: u64) -> Vec<Vec<TpsResult>> {
    // Each run's handshake round count, 40 ± 10%, from its own stream.
    let rounds: Vec<u32> = (0..runs as u64)
        .map(|i| 36 + exec::TrialRng::new(seed ^ STREAM_SSL_TPS, i).gen_range(0..=8u32))
        .collect();
    let distinct: BTreeSet<u32> = rounds.iter().copied().collect();
    let pairs: Vec<(Scheme, u32)> = schemes
        .iter()
        .flat_map(|&scheme| distinct.iter().map(move |&r| (scheme, r)))
        .collect();
    let run = exec::parallel_map(&pairs, |_, &(scheme, rounds)| {
        run_module(&server_module(rounds), scheme, BUDGET).cycles
    });
    exec::stats::record("ssl-tps sweep", run.stats);
    let cycles: HashMap<(Scheme, u32), u64> = pairs.into_iter().zip(run.results).collect();
    let cell = |scheme: Scheme, workers: u32| {
        let samples: Vec<f64> = rounds
            .iter()
            .map(|&r| {
                let cycles_per_txn = cycles[&(scheme, r)] as f64 / f64::from(TRANSACTIONS);
                f64::from(workers) * CLOCK_HZ / cycles_per_txn
            })
            .collect();
        TpsResult::from_samples(&samples)
    };
    workers
        .iter()
        .map(|&w| schemes.iter().map(|&s| cell(s, w)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::overhead_percent;

    /// Table 3's configurations: baseline, nomask, full PACStack.
    const TABLE3_SCHEMES: [Scheme; 3] =
        [Scheme::Baseline, Scheme::PacStackNomask, Scheme::PacStack];

    /// One cell measured without the sweep: one simulation per run on the
    /// same per-run round draws, TPS scaled by `workers`, mean and sigma
    /// over the samples.
    fn one_run_per_sample(scheme: Scheme, workers: u32, runs: usize, seed: u64) -> (f64, f64) {
        let samples: Vec<f64> = (0..runs as u64)
            .map(|run| {
                let mut rng = exec::TrialRng::new(seed ^ STREAM_SSL_TPS, run);
                let rounds = 36 + rng.gen_range(0..=8);
                let m = run_module(&server_module(rounds), scheme, BUDGET);
                let cycles_per_txn = m.cycles as f64 / f64::from(TRANSACTIONS);
                f64::from(workers) * CLOCK_HZ / cycles_per_txn
            })
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn sweep_equals_one_simulation_per_run_bit_for_bit() {
        for (runs, seed) in [(10, 42), (2, 9)] {
            let sweep = ssl_tps(&TABLE3_SCHEMES, &[4, 8], runs, seed);
            for (row, workers) in sweep.iter().zip([4u32, 8]) {
                for (cell, &scheme) in row.iter().zip(&TABLE3_SCHEMES) {
                    let (mean, sigma) = one_run_per_sample(scheme, workers, runs, seed);
                    assert_eq!(cell.mean_tps, mean, "{scheme} w={workers}");
                    assert_eq!(cell.sigma, sigma, "{scheme} w={workers}");
                    assert_eq!(cell.runs, runs);
                }
            }
        }
    }

    #[test]
    fn handshake_dominates_and_is_call_heavy() {
        // Full PACStack overhead on the server should exceed its overhead
        // on a compute-bound SPEC profile — the paper's NGINX result.
        let module = server_module(40);
        let o = overhead_percent(&module, Scheme::PacStack, 1_000_000_000);
        assert!(o > 4.0, "server overhead only {o}%");
        assert!(o < 20.0, "server overhead implausibly high: {o}%");
    }

    #[test]
    fn nomask_costs_less_than_full() {
        let module = server_module(40);
        let nomask = overhead_percent(&module, Scheme::PacStackNomask, 1_000_000_000);
        let full = overhead_percent(&module, Scheme::PacStack, 1_000_000_000);
        assert!(nomask < full);
        assert!(nomask > 2.0, "nomask overhead only {nomask}%");
    }

    #[test]
    fn tps_scales_linearly_with_workers() {
        let cells = ssl_tps(&[Scheme::Baseline], &[4, 8], 3, 1);
        let (four, eight) = (&cells[0][0], &cells[1][0]);
        // Doubling every sample is exact in binary floating point.
        assert_eq!(eight.mean_tps / four.mean_tps, 2.0);
        assert_eq!(eight.sigma, 2.0 * four.sigma);
    }

    #[test]
    fn instrumented_tps_is_lower_than_baseline() {
        let cells = ssl_tps(&TABLE3_SCHEMES, &[4], 3, 7);
        let [base, nomask, full] = [&cells[0][0], &cells[0][1], &cells[0][2]];
        assert!(base.mean_tps > nomask.mean_tps);
        assert!(nomask.mean_tps > full.mean_tps);
    }

    #[test]
    fn sigma_reflects_run_jitter() {
        let result = &ssl_tps(&[Scheme::Baseline], &[4], 8, 3)[0][0];
        assert!(result.sigma > 0.0);
        assert!(result.sigma < result.mean_tps * 0.1, "σ implausibly large");
    }
}
