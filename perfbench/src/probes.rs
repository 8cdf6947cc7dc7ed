//! Per-layer probes: host time of each layer's primitive, timed around
//! direct calls into that layer with inputs drawn from the seed (the
//! telemetry profiler and exporters included), plus the work counts the
//! program's telemetry sink records during a traced run.

use crate::Metric;
use pacstack_aarch64::Cpu;
use pacstack_acs::{AcsConfig, AuthenticatedCallStack};
use pacstack_chaos::plan::InjectionPlan;
use pacstack_chaos::{campaign, engine, TrialOutcome};
use pacstack_compiler::{lower, Scheme};
use pacstack_exec::{self as exec, TrialRng};
use pacstack_pauth::{PaKey, PaKeys, PointerAuth, VaLayout};
use pacstack_qarma::{Key128, Qarma64};
use pacstack_telemetry::{self as telemetry, export, Merged};
use pacstack_workloads::measure::run_module_profiled;
use pacstack_workloads::nginx;
use pacstack_workloads::spec::{c_benchmark, Suite};
use pacstack_workloads::synth::{generate, SynthConfig};
use rand::{Rng, RngCore};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per probe; each probe reports the median batch.
const BATCHES: usize = 15;

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Median host nanoseconds per call of `op`, over [`BATCHES`] batches of
/// `batch` calls after one untimed warm-up batch.
fn ns_per_op(batch: u64, mut op: impl FnMut(u64) -> u64) -> f64 {
    let mut sink = 0u64;
    for i in 0..batch {
        sink ^= op(i);
    }
    let mut samples = Vec::with_capacity(BATCHES);
    for round in 1..=BATCHES as u64 {
        let start = Instant::now();
        for i in 0..batch {
            sink ^= op(round * batch + i);
        }
        samples.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    black_box(sink);
    median(samples)
}

/// Median simulated instructions per host microsecond (millions per
/// second) of `program`'s run, excluding CPU construction.
fn retire_rate(program: &pacstack_aarch64::Program, seed: u64) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(BATCHES);
    for round in 0..=BATCHES as u64 {
        let mut cpu = Cpu::try_with_seed(program.clone(), seed ^ round)
            .map_err(|e| format!("probe program does not link: {e}"))?;
        let start = Instant::now();
        let out = cpu
            .run(u64::MAX)
            .map_err(|f| format!("probe faulted: {f}"))?;
        let micros = start.elapsed().as_secs_f64() * 1e6;
        if round > 0 {
            samples.push(out.instructions as f64 / micros);
        }
    }
    Ok(median(samples))
}

/// Runs every probe; fails if a probed call returns a wrong result.
pub fn run(seed: u64) -> Result<Vec<Metric>, String> {
    let mut rng = TrialRng::new(seed ^ 0x0098_07E5, 0);
    let key = Key128::new(rng.gen(), rng.gen());
    let tweak: u64 = rng.gen();
    let keys = PaKeys::from_seed(rng.gen());
    let pa = PointerAuth::new(VaLayout::default());
    let mut metrics = Vec::new();

    let cipher = Qarma64::recommended(key);
    let qarma = ns_per_op(20_000, |i| cipher.encrypt(i ^ tweak, tweak));
    metrics.push(Metric::new("qarma_encrypt_ns", qarma, "ns"));

    let keygen_base: u64 = rng.gen();
    let keygen = ns_per_op(1_000, |i| {
        PaKeys::from_seed(keygen_base ^ i).key(PaKey::Ia).w0()
    });
    metrics.push(Metric::new("keygen_ns", keygen, "ns"));

    let pac = ns_per_op(20_000, |i| {
        pa.compute_pac(&keys, PaKey::Ia, 0x40_1000 + (i << 4), tweak ^ i)
    });
    metrics.push(Metric::new("pac_compute_ns", pac, "ns"));

    // A call/return pair on a chain four frames deep; every return must
    // hand back the address its call pushed.
    let mut acs = AuthenticatedCallStack::new(pa, keys.clone(), AcsConfig::default());
    for depth in 0..4u64 {
        acs.call(0x40_0000 + depth * 0x40);
    }
    let mut acs_ok = true;
    let acs_ns = ns_per_op(10_000, |i| {
        let ret = 0x41_0000 + ((i & 0xFFF) << 2);
        acs.call(ret);
        let got = acs.ret();
        acs_ok &= got == Ok(ret);
        ret
    });
    if !acs_ok {
        return Err("probe: an ACS return did not verify".into());
    }
    metrics.push(Metric::new("acs_call_ret_ns", acs_ns, "ns"));

    let engine_stream: u64 = rng.gen();
    let engine_ns = ns_per_op(1, |i| {
        let run = exec::run_trials(engine_stream ^ i, 20_000, |t, r| r.next_u64() ^ t);
        run.results.len() as u64
    }) / 20_000.0;
    metrics.push(Metric::new("engine_trial_ns", engine_ns, "ns"));

    let module = generate(
        &SynthConfig {
            layers: 4,
            ..SynthConfig::default()
        },
        rng.gen(),
    );
    let lower_ns = ns_per_op(50, |_| {
        lower(&module, Scheme::PacStack).function_names().count() as u64
    });
    metrics.push(Metric::new("lower_us", lower_ns / 1e3, "us"));

    let program = lower(&module, Scheme::PacStack);
    let build_base: u64 = rng.gen();
    let build_ns = ns_per_op(50, |i| {
        Cpu::try_with_seed(program.clone(), build_base ^ i).map_or(0, |cpu| cpu.pc())
    });
    metrics.push(Metric::new("cpu_build_us", build_ns / 1e3, "us"));

    // The interpreter on the paper's most call-bound benchmark, without
    // and with PA instructions.
    let perlbench = c_benchmark("perlbench")
        .ok_or("probe: no perlbench profile")?
        .module(Suite::Rate);
    let run_seed: u64 = rng.gen();
    let alu = retire_rate(&lower(&perlbench, Scheme::Baseline), run_seed)?;
    metrics.push(Metric::new("retire_alu_mips", alu, "Minsn/s"));
    let pac_rate = retire_rate(&lower(&perlbench, Scheme::PacStack), run_seed)?;
    metrics.push(Metric::new("retire_pac_mips", pac_rate, "Minsn/s"));

    let target = engine::TARGETS[1];
    let prepared = engine::prepare(target, &campaign::chaos_module(), rng.gen())
        .map_err(|e| format!("probe: {e}"))?;
    let clean = InjectionPlan::default();
    let mut chaos_ok = true;
    let trial_ns = ns_per_op(50, |_| {
        let outcome = prepared.run_plan(&clean);
        chaos_ok &= outcome == TrialOutcome::Masked;
        u64::from(chaos_ok)
    });
    if !chaos_ok {
        return Err("probe: a clean chaos trial was not masked".into());
    }
    metrics.push(Metric::new("chaos_trial_us", trial_ns / 1e3, "us"));
    metrics.extend(profile_and_export()?);
    Ok(metrics)
}

/// The per-function cycle profiler and the exporters: a profiled run of
/// the NGINX server model under PACStack with the sink on, then the
/// Prometheus, Chrome-trace and flamegraph exports of what it recorded.
/// Also reports the PAC memo hit rate of that run.
fn profile_and_export() -> Result<Vec<Metric>, String> {
    let server = nginx::server_module(40);
    let mut samples = Vec::with_capacity(BATCHES);
    let mut merged = None;
    for round in 0..=BATCHES {
        telemetry::reset();
        telemetry::enable();
        let start = Instant::now();
        let profiled = run_module_profiled(&server, Scheme::PacStack, 1_000_000_000, "probe");
        let micros = start.elapsed().as_secs_f64() * 1e6;
        telemetry::disable();
        if round > 0 {
            samples.push(micros);
        }
        let snapshot = telemetry::snapshot();
        if snapshot.stacks.values().sum::<u64>() != profiled.cycles {
            return Err("probe: profile self-cycles do not sum to the run's cycles".into());
        }
        merged = Some(snapshot);
    }
    telemetry::reset();
    let merged = merged.ok_or("probe: no profiled run")?;
    let mut sizes = Vec::new();
    let export_ns = ns_per_op(1, |_| {
        let sized = [
            export::prometheus(&merged).len(),
            export::chrome_json(&merged).len(),
            export::flame(&merged).len(),
        ];
        sizes.push(sized);
        sized.iter().sum::<usize>() as u64
    });
    if sizes.iter().any(|s| s.contains(&0) || *s != sizes[0]) {
        return Err("probe: an export is empty or differs between calls".into());
    }
    let hits = total(&merged, "cpu_pac_memo_total{result=\"hit\"");
    let misses = total(&merged, "cpu_pac_memo_total{result=\"miss\"");
    Ok(vec![
        Metric::new("profiled_run_us", median(samples), "us"),
        Metric::new("export_us", export_ns / 1e3, "us"),
        Metric::new(
            "pac_memo_hit_pct",
            hits as f64 * 100.0 / (hits + misses).max(1) as f64,
            "%",
        ),
    ])
}

/// Sum of every counter whose name (labels included) starts with `prefix`.
fn total(merged: &Merged, prefix: &str) -> u64 {
    merged
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

/// Work counts per task from the telemetry recorded over `tasks` tasks.
pub fn counts(merged: &Merged, tasks: u64) -> Vec<Metric> {
    let per_task = |v: u64| v as f64 / tasks.max(1) as f64;
    vec![
        Metric::new(
            "insns_per_task",
            per_task(total(merged, "cpu_insns_total")),
            "count",
        ),
        Metric::new(
            "sim_cycles_per_task",
            per_task(total(merged, "cpu_cycles_total")),
            "count",
        ),
        Metric::new(
            "pac_computes_per_task",
            per_task(
                total(merged, "pauth_pac_computes_total") + total(merged, "pauth_pacga_total"),
            ),
            "count",
        ),
        Metric::new(
            "keygens_per_task",
            per_task(total(merged, "pauth_keygens_total")),
            "count",
        ),
        Metric::new(
            "cipher_rebuilds_per_task",
            per_task(total(merged, "pauth_cipher_rebuilds_total")),
            "count",
        ),
    ]
}
