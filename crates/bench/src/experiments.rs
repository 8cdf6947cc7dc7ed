//! The experiments, one function per table/figure.

use pacstack_aarch64::{Cpu, InsnCounters, Instruction, Reg};
use pacstack_acs::security::{self, ViolationKind};
use pacstack_acs::Masking;
use pacstack_attacks::{collision, gadget, guessing, offgraph, reuse, rop};
use pacstack_chaos::campaign::{chaos_module, coverage, TargetCoverage};
use pacstack_chaos::ChaosError;
use pacstack_compiler::Scheme;
use pacstack_exec as exec;
use pacstack_workloads::measure::{geometric_mean_percent, overheads, run_to_exit};
use pacstack_workloads::nginx::{ssl_tps, TpsResult};
use pacstack_workloads::spec::{Suite, CPP_BENCHMARKS, C_BENCHMARKS};
use pacstack_workloads::supervisor::{online_attack_economics, EconomicsRow};

/// Instruction budget for workload runs.
const BUDGET: u64 = 2_000_000_000;

/// The five instrumentations measured against the baseline, in the order
/// the paper's Figure 5 and Table 2 list them.
pub const MEASURED_SCHEMES: [Scheme; 5] = [
    Scheme::PacStack,
    Scheme::PacStackNomask,
    Scheme::ShadowCallStack,
    Scheme::PacRet,
    Scheme::StackProtector,
];

// ---------------------------------------------------------------------------
// Table 1 — attack success probabilities
// ---------------------------------------------------------------------------

/// One cell of Table 1: measured Monte Carlo rate vs the analytic bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Cell {
    /// Violation class.
    pub kind: ViolationKind,
    /// Masking variant.
    pub masking: Masking,
    /// Empirical success rate.
    pub measured: f64,
    /// 95% Wilson confidence interval around the measured rate.
    pub interval: (f64, f64),
    /// The paper's analytic maximum.
    pub analytic: f64,
    /// Trials behind the measurement.
    pub trials: u64,
}

/// Reproduces Table 1 at PAC width `b` with `trials` Monte Carlo attempts
/// per cell (arbitrary-address cells get `trials × 8` because their success
/// probability is 2⁻²ᵇ).
pub fn table1(b: u32, trials: u64, seed: u64) -> Vec<Table1Cell> {
    let mut cells = Vec::new();
    for masking in [Masking::Unmasked, Masking::Masked] {
        let on_graph = collision::on_graph_attack(b, masking, trials.min(2_000), seed);
        cells.push(Table1Cell {
            kind: ViolationKind::OnGraph,
            masking,
            measured: on_graph.rate(),
            interval: on_graph.wilson_interval(),
            analytic: security::max_success_probability(ViolationKind::OnGraph, masking, b),
            trials: on_graph.trials,
        });
        let call_site = offgraph::to_call_site(b, masking, trials, seed ^ 1);
        cells.push(Table1Cell {
            kind: ViolationKind::OffGraphToCallSite,
            masking,
            measured: call_site.rate(),
            interval: call_site.wilson_interval(),
            analytic: security::max_success_probability(
                ViolationKind::OffGraphToCallSite,
                masking,
                b,
            ),
            trials: call_site.trials,
        });
        let arbitrary = offgraph::to_arbitrary_address(b, masking, trials * 8, seed ^ 2);
        cells.push(Table1Cell {
            kind: ViolationKind::OffGraphToArbitrary,
            masking,
            measured: arbitrary.rate(),
            interval: arbitrary.wilson_interval(),
            analytic: security::max_success_probability(
                ViolationKind::OffGraphToArbitrary,
                masking,
                b,
            ),
            trials: arbitrary.trials,
        });
    }
    cells
}

// ---------------------------------------------------------------------------
// Figure 5 — per-benchmark overheads
// ---------------------------------------------------------------------------

/// One Figure 5 bar group: a benchmark's overhead under every scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure5Row {
    /// Benchmark name.
    pub name: String,
    /// Suite flavour.
    pub suite: Suite,
    /// `(scheme, overhead %)` in [`MEASURED_SCHEMES`] order.
    pub overheads: Vec<(Scheme, f64)>,
}

/// Reproduces Figure 5: per-benchmark overhead of all five instrumentations
/// for the C benchmarks, in both suite flavours. Each row simulates its
/// module once per scheme plus one shared baseline ([`overheads`]). Rows
/// fan out across the [`pacstack_exec`] worker pool; each (suite,
/// benchmark) item is deterministic, so row order and values are
/// thread-count independent.
pub fn figure5() -> Vec<Figure5Row> {
    let mut items = Vec::new();
    for suite in [Suite::Rate, Suite::Speed] {
        for profile in &C_BENCHMARKS {
            items.push((suite, profile));
        }
    }
    let run = exec::parallel_map(&items, |_, &(suite, profile)| {
        let module = profile.module(suite);
        let row = overheads(&module, &MEASURED_SCHEMES, BUDGET);
        Figure5Row {
            name: profile.name.to_owned(),
            suite,
            overheads: MEASURED_SCHEMES.into_iter().zip(row).collect(),
        }
    });
    exec::stats::record("figure5 SPEC sweep", run.stats);
    run.results
}

// ---------------------------------------------------------------------------
// Table 2 — geometric means
// ---------------------------------------------------------------------------

/// One Table 2 row: a scheme's geomean overhead per suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// The scheme.
    pub scheme: Scheme,
    /// Geomean over SPECrate C benchmarks (perlbench excluded, as in the
    /// paper's ShadowCallStack comparison).
    pub rate: f64,
    /// Geomean over SPECspeed C benchmarks (perlbench excluded).
    pub speed: f64,
}

/// Reproduces Table 2 from the Figure 5 data.
pub fn table2(figure5_rows: &[Figure5Row]) -> Vec<Table2Row> {
    MEASURED_SCHEMES
        .iter()
        .map(|&scheme| {
            let mean_for = |suite: Suite| {
                let overheads: Vec<f64> = figure5_rows
                    .iter()
                    .filter(|r| r.suite == suite && r.name != "perlbench")
                    .flat_map(|r| &r.overheads)
                    .filter(|&&(s, _)| s == scheme)
                    .map(|&(_, overhead)| overhead)
                    .collect();
                geometric_mean_percent(&overheads)
            };
            Table2Row {
                scheme,
                rate: mean_for(Suite::Rate),
                speed: mean_for(Suite::Speed),
            }
        })
        .collect()
}

/// The paper's aggregate for the C++ benchmarks: (PACStack %, nomask %),
/// from one baseline and one run per scheme for each benchmark.
pub fn cpp_aggregate() -> (f64, f64) {
    let run = exec::parallel_map(&CPP_BENCHMARKS, |_, p| {
        let module = p.module(Suite::Rate);
        let o = overheads(&module, &[Scheme::PacStack, Scheme::PacStackNomask], BUDGET);
        (o[0], o[1])
    });
    exec::stats::record("figure5 C++ aggregate", run.stats);
    let (full, nomask): (Vec<f64>, Vec<f64>) = run.results.into_iter().unzip();
    (
        geometric_mean_percent(&full),
        geometric_mean_percent(&nomask),
    )
}

// ---------------------------------------------------------------------------
// Table 3 — NGINX SSL TPS
// ---------------------------------------------------------------------------

/// One Table 3 row: TPS per configuration at a worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// NGINX worker processes.
    pub workers: u32,
    /// Uninstrumented server.
    pub baseline: TpsResult,
    /// PACStack-nomask server.
    pub nomask: TpsResult,
    /// Full PACStack server.
    pub pacstack: TpsResult,
}

impl Table3Row {
    /// Percent TPS loss of the nomask configuration.
    pub fn nomask_loss(&self) -> f64 {
        (1.0 - self.nomask.mean_tps / self.baseline.mean_tps) * 100.0
    }

    /// Percent TPS loss of the full configuration.
    pub fn pacstack_loss(&self) -> f64 {
        (1.0 - self.pacstack.mean_tps / self.baseline.mean_tps) * 100.0
    }
}

/// Reproduces Table 3 with `runs` measurement sessions per cell. Both rows
/// come from one [`ssl_tps`] sweep: the 8-worker row is derived from the
/// same simulations as the 4-worker row and is exactly twice it.
pub fn table3(runs: usize, seed: u64) -> Vec<Table3Row> {
    const WORKERS: [u32; 2] = [4, 8];
    let schemes = [Scheme::Baseline, Scheme::PacStackNomask, Scheme::PacStack];
    ssl_tps(&schemes, &WORKERS, runs, seed)
        .into_iter()
        .zip(WORKERS)
        .map(|(cells, workers)| {
            #[allow(clippy::expect_used, reason = "`ssl_tps` gives one result per scheme")]
            let [baseline, nomask, pacstack]: [TpsResult; 3] =
                cells.try_into().expect("one result per scheme");
            Table3Row {
                workers,
                baseline,
                nomask,
                pacstack,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §6.2.1 — birthday-bound collision harvesting
// ---------------------------------------------------------------------------

/// Result of the birthday experiment at one PAC width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BirthdayRow {
    /// PAC width.
    pub b: u32,
    /// Mean harvested tokens before the first collision.
    pub measured_mean: f64,
    /// The paper's `sqrt(π·2^b/2)` expectation.
    pub analytic: f64,
    /// Number of harvest campaigns averaged.
    pub runs: u64,
}

/// Reproduces the §6.2.1 claim (321 tokens at b = 16) at measurable widths.
/// Harvest campaigns fan out across the [`pacstack_exec`] worker pool; each
/// campaign's seed is a pure function of its index, so the means are
/// thread-count independent.
pub fn birthday(widths: &[u32], runs: u64, seed: u64) -> Vec<BirthdayRow> {
    widths
        .iter()
        .map(|&b| {
            let budget = 64 * (1u64 << (b / 2 + 2));
            #[allow(clippy::expect_used, reason = "budget: 2⁸ × the birthday bound")]
            let campaigns = exec::run_trials(seed ^ u64::from(b), runs, |i, _rng| {
                collision::harvest_until_collision(b, Masking::Unmasked, seed + i, budget)
                    .expect("collision within budget")
                    .tokens
            });
            exec::stats::record(format!("birthday b={b}"), campaigns.stats);
            let total: u64 = campaigns.results.iter().sum();
            BirthdayRow {
                b,
                measured_mean: total as f64 / runs as f64,
                analytic: security::expected_tokens_until_collision(b),
                runs,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §4.3 — guessing costs
// ---------------------------------------------------------------------------

/// Result of the guessing experiment at one PAC width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuessingRow {
    /// PAC width.
    pub b: u32,
    /// Mean guesses for the shared-key divide-and-conquer strategy.
    pub shared_key_mean: f64,
    /// Analytic expectation 2ᵇ.
    pub shared_key_analytic: f64,
    /// Mean guesses once chains are re-seeded.
    pub reseeded_mean: f64,
    /// Analytic expectation 2ᵇ⁺¹.
    pub reseeded_analytic: f64,
}

/// Reproduces the §4.3 divide-and-conquer vs re-seeding comparison.
pub fn guessing_costs(widths: &[u32], runs: u64) -> Vec<GuessingRow> {
    widths
        .iter()
        .map(|&b| GuessingRow {
            b,
            shared_key_mean: guessing::mean_cost(
                &format!("guessing shared-key b={b}"),
                runs,
                |s| guessing::divide_and_conquer(b, s).total(),
            ),
            shared_key_analytic: security::expected_guesses_shared_key(b),
            reseeded_mean: guessing::mean_cost(&format!("guessing re-seeded b={b}"), runs, |s| {
                guessing::reseeded(b, s).total()
            }),
            reseeded_analytic: security::expected_guesses_reseeded(b),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §6.3.1 / §2.2.1 — qualitative attack matrix
// ---------------------------------------------------------------------------

/// One row of the qualitative attack matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackMatrixRow {
    /// Human-readable attack name.
    pub attack: &'static str,
    /// `(scheme, outcome)` pairs.
    pub outcomes: Vec<(Scheme, rop::AttackOutcome)>,
}

/// Runs the qualitative attacks (ROP, reuse, signing gadget) against every
/// scheme — the reproduction of §2, §6.1 and §6.3.1.
pub fn attack_matrix() -> Vec<AttackMatrixRow> {
    let row = |attack: &'static str, run: exec::Run<(Scheme, rop::AttackOutcome)>| {
        exec::stats::record(format!("attack matrix: {attack}"), run.stats);
        AttackMatrixRow {
            attack,
            outcomes: run.results,
        }
    };
    vec![
        row(
            "return-address overwrite",
            exec::parallel_map(&Scheme::ALL, |_, &s| {
                (s, rop::run_attack(s, rop::WriteTarget::SavedReturnAddress))
            }),
        ),
        row(
            "linear stack overflow",
            exec::parallel_map(&Scheme::ALL, |_, &s| {
                (s, rop::run_attack(s, rop::WriteTarget::LinearOverflow))
            }),
        ),
        row(
            "signed-pointer reuse (same SP)",
            exec::parallel_map(&Scheme::ALL, |_, &s| (s, reuse::run_reuse(s, true).outcome)),
        ),
        row(
            "tail-call signing gadget",
            exec::parallel_map(&[Scheme::PacStackNomask, Scheme::PacStack], |_, &s| {
                (s, gadget::tail_call_gadget_attack(s))
            }),
        ),
    ]
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md) and Appendix A games
// ---------------------------------------------------------------------------

/// Ablation rows: cycle cost of a design choice toggled on/off.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// What was toggled.
    pub label: String,
    /// Cycles with the design choice as shipped.
    pub cycles_on: u64,
    /// Cycles with the choice disabled.
    pub cycles_off: u64,
}

impl AblationRow {
    /// Percent cost of the shipped choice relative to the disabled variant.
    pub fn delta_percent(&self) -> f64 {
        (self.cycles_on as f64 - self.cycles_off as f64) / self.cycles_off as f64 * 100.0
    }
}

/// Ablation 1: masking on/off, and ablation 4: the leaf heuristic, both
/// measured on the call-heavy `perlbench` profile.
pub fn ablations() -> Vec<AblationRow> {
    use pacstack_compiler::{lower_with_options, LowerOptions};
    use pacstack_workloads::spec::c_benchmark;

    #[allow(clippy::expect_used, reason = "`C_BENCHMARKS` has `perlbench`")]
    let module = c_benchmark("perlbench")
        .expect("profile exists")
        .module(Suite::Rate);
    let cycles = |scheme: Scheme, leaves: bool| {
        let program = lower_with_options(
            &module,
            scheme,
            LowerOptions {
                instrument_leaves: leaves,
            },
        );
        run_to_exit(&mut Cpu::with_seed(program, 1), scheme, BUDGET, |_, _| {}).cycles
    };
    let configs = [
        (Scheme::PacStack, false),
        (Scheme::PacStackNomask, false),
        (Scheme::PacStack, true),
    ];
    let swept = exec::parallel_map(&configs, |_, &(scheme, leaves)| cycles(scheme, leaves));
    exec::stats::record("ablations", swept.stats);
    #[allow(clippy::expect_used, reason = "`parallel_map`: one result per config")]
    let [shipped, nomask, leaves_on]: [u64; 3] =
        swept.results.try_into().expect("three ablation configs");
    vec![
        AblationRow {
            label: "PAC masking (PACStack vs nomask)".to_owned(),
            cycles_on: shipped,
            cycles_off: nomask,
        },
        AblationRow {
            label: "leaf heuristic off (instrument leaves)".to_owned(),
            cycles_on: leaves_on,
            cycles_off: shipped,
        },
    ]
}

/// One row of the Appendix A collision-game experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GameRow {
    /// PAC width.
    pub b: u32,
    /// Birthday adversary win rate against unmasked tokens.
    pub unmasked_win_rate: f64,
    /// Birthday adversary win rate against masked tokens.
    pub masked_win_rate: f64,
    /// The chance baseline 2⁻ᵇ.
    pub chance: f64,
}

/// Runs the Appendix A `G-PAC-Collision` game at several widths: Theorem 1
/// predicts the masked win rate collapses to chance.
pub fn collision_games(widths: &[u32], trials: u64, seed: u64) -> Vec<GameRow> {
    use pacstack_acs::games::{collision_game_advantage, Oracle};
    let run = exec::parallel_map(widths, |_, &b| GameRow {
        b,
        unmasked_win_rate: collision_game_advantage(b, Oracle::Unmasked, trials, seed),
        masked_win_rate: collision_game_advantage(b, Oracle::Masked, trials, seed ^ 1),
        chance: 2f64.powi(-(b as i32)),
    });
    exec::stats::record("collision games", run.stats);
    run.results
}

// ---------------------------------------------------------------------------
// §2.2 — PAC width as a function of the address-space configuration
// ---------------------------------------------------------------------------

/// One row of the PAC-width sweep: how the security parameters scale with
/// the pointer layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PacWidthRow {
    /// Human-readable layout description.
    pub layout: String,
    /// PAC width in bits.
    pub b: u32,
    /// Single-guess forgery probability 2⁻ᵇ.
    pub guess_probability: f64,
    /// Expected harvested tokens before a collision (unmasked).
    pub collision_tokens: f64,
    /// Guesses for a 50% forgery chance with per-crash re-keying.
    pub guesses_for_half: f64,
}

/// Sweeps the address-space configurations of paper §2.2: the PAC shrinks
/// as the virtual address space grows, trading address bits for security
/// bits.
pub fn pac_width_sweep() -> Vec<PacWidthRow> {
    use pacstack_pauth::VaLayout;
    [
        (
            "VA_SIZE=39, tagged (Linux default)",
            VaLayout::new(39, true),
        ),
        ("VA_SIZE=39, untagged", VaLayout::new(39, false)),
        ("VA_SIZE=48, tagged", VaLayout::new(48, true)),
        ("VA_SIZE=48, untagged", VaLayout::new(48, false)),
        ("VA_SIZE=52, untagged (LVA)", VaLayout::new(52, false)),
    ]
    .into_iter()
    .map(|(name, layout)| {
        let b = layout.pac_bits();
        PacWidthRow {
            layout: name.to_owned(),
            b,
            guess_probability: 2f64.powi(-(b as i32)),
            collision_tokens: security::expected_tokens_until_collision(b),
            guesses_for_half: security::guesses_for_success_probability(0.5, b),
        }
    })
    .collect()
}

// ---------------------------------------------------------------------------
// §7.3 — ConFIRM compatibility table, and the instruction-mix accounting
// ---------------------------------------------------------------------------

/// One ConFIRM table row: case name and per-scheme pass/fail.
#[derive(Debug, Clone)]
pub struct ConfirmRow {
    /// Test case name.
    pub name: &'static str,
    /// `(scheme, passed)` for all six schemes.
    pub results: Vec<(Scheme, bool)>,
}

/// Runs the §7.3 compatibility suite under every scheme.
pub fn confirm_table() -> Vec<ConfirmRow> {
    let cases = pacstack_workloads::confirm::suite();
    let run = exec::parallel_map(&cases, |_, case| ConfirmRow {
        name: case.name,
        results: pacstack_workloads::confirm::run_case(case)
            .into_iter()
            .map(|r| (r.scheme, r.passed))
            .collect(),
    });
    exec::stats::record("ConFIRM suite", run.stats);
    run.results
}

/// Instruction-mix row: what each scheme adds, by instruction class.
#[derive(Debug, Clone, Copy)]
pub struct MixRow {
    /// The scheme.
    pub scheme: Scheme,
    /// Retired-instruction counters.
    pub counters: InsnCounters,
    /// Instructions added relative to the baseline (can be large for the
    /// masked variant: 2 extra PACs + 4 moves + 2 eors per activation).
    pub added_vs_baseline: i64,
}

/// Counts retired instructions by class for the `gcc` profile under every
/// scheme — the "in terms of added instructions" comparison of §7.1.
pub fn instruction_mix() -> Vec<MixRow> {
    use pacstack_workloads::spec::c_benchmark;
    #[allow(clippy::expect_used, reason = "the constant `C_BENCHMARKS` has `gcc`")]
    let module = c_benchmark("gcc")
        .expect("profile exists")
        .module(Suite::Rate);
    let run = |scheme: Scheme| {
        let program = pacstack_compiler::lower(&module, scheme);
        let mut cpu = Cpu::with_seed(program, 1);
        run_to_exit(&mut cpu, scheme, BUDGET, |_, _| {});
        cpu.counters()
    };
    let swept = exec::parallel_map(&Scheme::ALL, |_, &scheme| run(scheme));
    exec::stats::record("instruction mix", swept.stats);
    let baseline = swept.results[0].total() as i64; // Scheme::ALL[0] is the baseline
    Scheme::ALL
        .into_iter()
        .zip(swept.results)
        .map(|(scheme, counters)| MixRow {
            scheme,
            counters,
            added_vs_baseline: counters.total() as i64 - baseline,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §6.1 — is PAC reuse a realistic concern?
// ---------------------------------------------------------------------------

/// Reuse-opportunity statistics for one scheme on one workload execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReuseRow {
    /// The scheme whose modifiers were logged.
    pub scheme: Scheme,
    /// Return-address signing events whose result is *spilled to memory*
    /// (the attacker-replaceable surface; for the PACStack variants the
    /// signed value lives in CR and never reaches memory — 0 by design).
    pub spilled_signings: u64,
    /// Distinct modifier values among them.
    pub distinct_modifiers: u64,
    /// Modifiers that signed ≥ 2 different return addresses — each such
    /// group's pointers are interchangeable (§2.2.1, Listing 6).
    pub reusable_modifier_groups: u64,
    /// Spilled signed pointers belonging to some interchangeable group.
    pub interchangeable_pointers: u64,
}

impl ReuseRow {
    /// Fraction of spilled signed pointers that are interchangeable.
    pub fn interchangeable_fraction(&self) -> f64 {
        if self.spilled_signings == 0 {
            0.0
        } else {
            self.interchangeable_pointers as f64 / self.spilled_signings as f64
        }
    }
}

/// A realistic module shape for the §6.1 question: callers invoking several
/// distinct (instrumented) callees from the same frame — Listing 6's
/// pattern, which real programs exhibit pervasively.
fn reuse_module() -> pacstack_compiler::Module {
    use pacstack_compiler::{FuncDef, Module, Stmt};
    let mut m = Module::new();
    m.push(FuncDef::new(
        "main",
        vec![
            Stmt::Loop(
                6,
                vec![
                    Stmt::Call("parse".into()),
                    Stmt::Call("eval".into()),
                    Stmt::Call("emit_code".into()),
                ],
            ),
            Stmt::Return,
        ],
    ));
    for name in ["parse", "eval", "emit_code"] {
        m.push(FuncDef::new(
            name,
            vec![
                Stmt::Compute(8),
                Stmt::Call("helper_a".into()),
                Stmt::Call("helper_b".into()),
                Stmt::Return,
            ],
        ));
    }
    m.push(FuncDef::new(
        "helper_a",
        vec![Stmt::Compute(4), Stmt::Call("leafish".into()), Stmt::Return],
    ));
    m.push(FuncDef::new(
        "helper_b",
        vec![
            Stmt::MemAccess(2),
            Stmt::Call("leafish".into()),
            Stmt::Return,
        ],
    ));
    m.push(FuncDef::new(
        "leafish",
        vec![Stmt::Compute(2), Stmt::Return],
    ));
    m
}

/// Reproduces §6.1 quantitatively. Under pac-ret every signed return
/// address is spilled and verified against an SP modifier; sibling calls
/// at equal depths make large interchangeable groups. Under PACStack the
/// signed head never reaches memory, so the spilled-signing reuse surface
/// is empty — substituting *stored* chain links requires a MAC collision
/// (Table 1 / the birthday experiment).
pub fn reuse_opportunities() -> Vec<ReuseRow> {
    use std::collections::HashMap;

    let module = reuse_module();
    let swept = exec::parallel_map(
        &[Scheme::PacRet, Scheme::PacStackNomask, Scheme::PacStack],
        |_, &scheme| {
            let program = pacstack_compiler::lower(&module, scheme);
            let mut cpu = Cpu::with_seed(program, 1);
            // Signings as (modifier, stripped pointer). Only pac-ret spills
            // its signed LR; the PACStack variants keep it in CR.
            let mut spilled: Vec<(u64, u64)> = Vec::new();
            run_to_exit(&mut cpu, scheme, BUDGET, |cpu, insn| {
                if scheme == Scheme::PacRet && insn == Instruction::Paciasp {
                    spilled.push((cpu.reg(Reg::Sp), cpu.pa().strip(cpu.reg(Reg::LR))));
                }
            });
            let mut groups: HashMap<u64, std::collections::BTreeSet<u64>> = HashMap::new();
            for &(modifier, pointer) in &spilled {
                groups.entry(modifier).or_default().insert(pointer);
            }
            let reusable = groups.values().filter(|p| p.len() >= 2).count() as u64;
            let interchangeable = spilled
                .iter()
                .filter(|(m, _)| groups.get(m).is_some_and(|p| p.len() >= 2))
                .count() as u64;
            ReuseRow {
                scheme,
                spilled_signings: spilled.len() as u64,
                distinct_modifiers: groups.len() as u64,
                reusable_modifier_groups: reusable,
                interchangeable_pointers: interchangeable,
            }
        },
    );
    exec::stats::record("reuse opportunities", swept.stats);
    swept.results
}

// ---------------------------------------------------------------------------
// repro faults — fault-injection coverage + supervisor economics
// ---------------------------------------------------------------------------

/// PAC width for the supervisor economics table (Linux-default-ish 8 bits
/// keeps compromises observable within a Monte Carlo horizon).
const FAULTS_PAC_BITS: u32 = 8;
/// Ticks of useful service per process lifetime in the supervisor model.
const FAULTS_UPTIME_PER_LIFE: u64 = 50;
/// Horizon (in ticks) of sustained injection per supervisor trajectory.
const FAULTS_HORIZON: u64 = 100_000;
/// Supervisor trajectories per restart policy.
const FAULTS_SUPERVISOR_TRIALS: u64 = 96;

/// The `repro faults` results: the fault-injection detection-coverage
/// matrix over every target scheme, plus the crash-restart supervisor
/// economics replaying the one-guess-per-crash argument (§4.3, §6.2).
#[derive(Debug, Clone)]
pub struct FaultsReport {
    /// Per-target outcome tallies for each fault class.
    pub coverage: Vec<TargetCoverage>,
    /// One row per restart policy in `supervisor::POLICIES`.
    pub economics: Vec<EconomicsRow>,
    /// The PAC width behind the economics rows.
    pub b: u32,
    /// The injection horizon behind the economics rows.
    pub horizon: u64,
}

/// Runs the deterministic fault-injection campaign (`trials_per_class`
/// trials of each fault class against every target scheme) and the
/// supervised online-attack sweep, both fanned out over the engine pool
/// and byte-identical at any `--jobs` count.
///
/// # Errors
///
/// Propagates [`ChaosError`] if a target fails to prepare — a link error
/// in the chaos module, or a reference run that faults uninjected.
pub fn faults(trials_per_class: u64, seed: u64) -> Result<FaultsReport, ChaosError> {
    let coverage = coverage(&chaos_module(), trials_per_class, seed)?;
    let economics = online_attack_economics(
        FAULTS_PAC_BITS,
        FAULTS_UPTIME_PER_LIFE,
        FAULTS_HORIZON,
        FAULTS_SUPERVISOR_TRIALS,
        seed ^ 0x50FE,
    );
    Ok(FaultsReport {
        coverage,
        economics,
        b: FAULTS_PAC_BITS,
        horizon: FAULTS_HORIZON,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn table2_orders_schemes_as_the_paper_does() {
        let rows = figure5();
        let t2 = table2(&rows);
        let get = |s: Scheme| t2.iter().find(|r| r.scheme == s).unwrap();
        let full = get(Scheme::PacStack);
        let nomask = get(Scheme::PacStackNomask);
        let scs = get(Scheme::ShadowCallStack);
        let pacret = get(Scheme::PacRet);
        let canary = get(Scheme::StackProtector);
        // Paper Table 2 (rate): 2.75, 0.86, 0.85, 0.43, 0.43.
        assert!(full.rate > nomask.rate);
        assert!(nomask.rate > pacret.rate);
        assert!(scs.rate > pacret.rate * 0.9);
        assert!(canary.rate <= pacret.rate + 0.05);
        // Magnitude: full PACStack ≈ 3% (the headline claim).
        assert!(
            full.rate > 1.8 && full.rate < 4.5,
            "full PACStack rate geomean {} out of band",
            full.rate
        );
        // Speed exceeds rate for the PACStack variants (3.28 vs 2.75).
        assert!(full.speed > full.rate);
        assert!(nomask.speed > nomask.rate);
    }

    #[test]
    fn overheads_equal_pairwise_runs() {
        use pacstack_workloads::measure::run_module;
        use pacstack_workloads::spec::c_benchmark;
        for (name, suite) in [("perlbench", Suite::Rate), ("mcf", Suite::Speed)] {
            let module = c_benchmark(name).unwrap().module(suite);
            let swept = overheads(&module, &MEASURED_SCHEMES, BUDGET);
            assert_eq!(swept.len(), MEASURED_SCHEMES.len());
            for (&scheme, &o) in MEASURED_SCHEMES.iter().zip(&swept) {
                let base = run_module(&module, Scheme::Baseline, BUDGET);
                let inst = run_module(&module, scheme, BUDGET);
                assert_eq!(base.exit_code, inst.exit_code);
                let pairwise =
                    (inst.cycles as f64 - base.cycles as f64) / base.cycles as f64 * 100.0;
                assert_eq!(o, pairwise, "{name} {suite:?} {scheme}");
            }
        }
    }

    #[test]
    fn table3_losses_match_paper_band() {
        let rows = table3(3, 5);
        for row in &rows {
            // Paper: nomask 4–7%, full 6–13%.
            let nomask = row.nomask_loss();
            let full = row.pacstack_loss();
            assert!(nomask > 2.0 && nomask < 9.0, "nomask loss {nomask}%");
            assert!(full > 5.0 && full < 15.0, "full loss {full}%");
            assert!(full > nomask);
        }
    }

    #[test]
    fn table1_measured_tracks_analytic() {
        let cells = table1(4, 3_000, 11);
        for cell in &cells {
            if cell.analytic == 1.0 {
                assert!(cell.measured > 0.9, "{:?}", cell);
            } else {
                // Within 3x of the analytic bound (Monte Carlo noise), and
                // never wildly above it.
                assert!(
                    cell.measured <= cell.analytic * 3.0 + 0.002,
                    "{:?} exceeds analytic bound",
                    cell
                );
            }
        }
    }

    #[test]
    fn reuse_is_realistic_under_pac_ret_and_structural_under_pacstack() {
        let rows = reuse_opportunities();
        let get = |s: Scheme| rows.iter().find(|r| r.scheme == s).copied().unwrap();
        let pacret = get(Scheme::PacRet);
        let pacstack = get(Scheme::PacStack);
        // §6.1's answer: yes, realistic — a large share of pac-ret's spilled
        // signed pointers coincide on SP and are interchangeable...
        assert!(
            pacret.interchangeable_fraction() > 0.3,
            "pac-ret interchangeable fraction only {}",
            pacret.interchangeable_fraction()
        );
        assert!(pacret.reusable_modifier_groups >= 1);
        // ...while PACStack's signed head never reaches memory at all.
        assert_eq!(pacstack.spilled_signings, 0);
    }

    #[test]
    fn confirm_table_all_pass() {
        for row in confirm_table() {
            for (scheme, passed) in &row.results {
                assert!(passed, "{} failed under {scheme}", row.name);
            }
        }
    }

    #[test]
    fn instruction_mix_shows_pa_instructions_only_for_pa_schemes() {
        for row in instruction_mix() {
            if row.scheme.uses_pointer_auth() {
                assert!(row.counters.pointer_auth > 0, "{}", row.scheme);
            } else {
                assert_eq!(row.counters.pointer_auth, 0, "{}", row.scheme);
            }
            if row.scheme != Scheme::Baseline {
                assert!(row.added_vs_baseline > 0, "{}", row.scheme);
            }
        }
    }

    #[test]
    fn pac_width_sweep_covers_linux_default() {
        let rows = pac_width_sweep();
        let linux = rows.iter().find(|r| r.layout.contains("Linux")).unwrap();
        assert_eq!(linux.b, 16);
        assert!((linux.collision_tokens - 321.0).abs() < 1.0);
    }

    #[test]
    fn ablations_report_positive_costs() {
        for row in ablations() {
            assert!(row.cycles_on > row.cycles_off, "{}", row.label);
            assert!(row.delta_percent() > 0.0);
        }
    }

    #[test]
    fn collision_games_separate_masked_from_unmasked() {
        let rows = collision_games(&[6], 25, 5);
        assert!(rows[0].unmasked_win_rate > 0.8);
        assert!(rows[0].masked_win_rate < 0.3);
    }

    #[test]
    fn birthday_tracks_sqrt_bound() {
        for row in birthday(&[8], 30, 3) {
            assert!(
                row.measured_mean > row.analytic * 0.6 && row.measured_mean < row.analytic * 1.6,
                "{row:?}"
            );
        }
    }

    #[test]
    fn faults_matrix_meets_the_acceptance_gate() {
        // The PR's acceptance property: every PACStack-family scheme
        // detects return-address bit flips at least as often as the
        // unprotected build, with zero host-process panics anywhere.
        let report = faults(6, 0xFA17).unwrap();
        let unprotected = report
            .coverage
            .iter()
            .find(|t| t.label == "unprotected")
            .unwrap()
            .return_address_detection_rate();
        for target in &report.coverage {
            assert_eq!(target.host_panics, 0, "{} panicked", target.label);
            if target.label != "unprotected" {
                assert!(
                    target.return_address_detection_rate() >= unprotected,
                    "{} detects {:.3} < unprotected {:.3}",
                    target.label,
                    target.return_address_detection_rate(),
                    unprotected
                );
            }
        }
        // Three supervisor policies, each with the §4.3 analytic column.
        assert_eq!(report.economics.len(), 3);
        for row in &report.economics {
            assert_eq!(row.b, FAULTS_PAC_BITS);
            assert!(row.analytic_guesses_per_success > 0.0);
        }
    }
}
