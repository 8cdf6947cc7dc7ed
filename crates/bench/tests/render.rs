//! Rendering smoke tests: every table renderer produces the headers and
//! rows the paper's layout calls for.

use pacstack_acs::security::ViolationKind;
use pacstack_acs::Masking;
use pacstack_bench::{experiments, render};
use pacstack_compiler::Scheme;
use pacstack_workloads::nginx::TpsResult;
use pacstack_workloads::spec::Suite;

#[test]
fn table1_render_includes_ci_and_analytic() {
    let cells = vec![experiments::Table1Cell {
        kind: ViolationKind::OnGraph,
        masking: Masking::Masked,
        measured: 0.0625,
        interval: (0.055, 0.07),
        analytic: 0.0625,
        trials: 1000,
    }];
    let text = render::table1(&cells, 4);
    assert!(text.contains("b = 4"));
    assert!(text.contains("on-graph"));
    assert!(text.contains("95% CI"));
    assert!(text.contains("0.0625"));
}

#[test]
fn figure5_render_draws_bars_per_suite() {
    let rows = vec![
        experiments::Figure5Row {
            name: "gcc".into(),
            suite: Suite::Rate,
            overheads: experiments::MEASURED_SCHEMES
                .iter()
                .map(|&s| (s, 2.0))
                .collect(),
        },
        experiments::Figure5Row {
            name: "gcc".into(),
            suite: Suite::Speed,
            overheads: experiments::MEASURED_SCHEMES
                .iter()
                .map(|&s| (s, 3.0))
                .collect(),
        },
    ];
    let text = render::figure5(&rows);
    assert!(text.contains("SPECrate"));
    assert!(text.contains("SPECspeed"));
    assert!(text.contains('█'));
}

#[test]
fn table3_render_reports_losses() {
    let tps = |mean: f64| TpsResult {
        mean_tps: mean,
        sigma: mean / 100.0,
        runs: 3,
    };
    let rows = vec![experiments::Table3Row {
        workers: 4,
        baseline: tps(10_000.0),
        nomask: tps(9_500.0),
        pacstack: tps(9_000.0),
    }];
    let text = render::table3(&rows);
    assert!(text.contains("workers"));
    assert!(text.contains("5.0")); // nomask loss %
    assert!(text.contains("10.0")); // pacstack loss %
}

#[test]
fn table2_orders_rows_by_measured_schemes() {
    let rows: Vec<_> = experiments::MEASURED_SCHEMES
        .iter()
        .map(|&scheme| experiments::Table2Row {
            scheme,
            rate: 1.0,
            speed: 1.5,
        })
        .collect();
    let text = render::table2(&rows, (2.0, 1.0));
    let pacstack_pos = text.find("PACStack").unwrap();
    let canary_pos = text.find("-mstack-protector-strong").unwrap();
    assert!(pacstack_pos < canary_pos, "paper lists PACStack first");
    assert!(text.contains("C++ benchmarks"));
}

#[test]
fn attack_matrix_render_lists_every_scheme_row() {
    let rows = vec![experiments::AttackMatrixRow {
        attack: "test attack",
        outcomes: Scheme::ALL
            .iter()
            .map(|&s| (s, pacstack_attacks::victim::AttackOutcome::Crashed))
            .collect(),
    }];
    let text = render::attack_matrix(&rows);
    assert!(text.contains("test attack"));
    for scheme in Scheme::ALL {
        assert!(text.contains(&scheme.to_string()), "{scheme} missing");
    }
}

#[test]
fn monte_carlo_confidence_intervals_bracket_the_analytic_values() {
    // The Wilson interval machinery: at b = 4 with enough trials, the
    // measured off-graph rate's CI must contain 2^-4.
    use pacstack_attacks::offgraph;
    let result = offgraph::to_call_site(4, Masking::Masked, 20_000, 3);
    assert!(
        result.consistent_with(0.0625),
        "rate {} CI {:?} excludes the analytic 1/16",
        result.rate(),
        result.wilson_interval()
    );
}

#[test]
fn pac_values_are_roughly_uniform() {
    // Crypto sanity: PAC tokens over sequential addresses fill the b-bit
    // space without gross bias (a loose chi-square-style bound).
    use pacstack_pauth::{PaKey, PaKeys, PointerAuth, VaLayout};
    let layout = VaLayout::new(47, true); // b = 8
    let pa = PointerAuth::new(layout);
    let keys = PaKeys::from_seed(17);
    let mut histogram = [0u32; 256];
    let samples = 64 * 256;
    for i in 0..samples {
        let pac = pa.compute_pac(&keys, PaKey::Ia, 0x40_0000 + i * 4, 7);
        histogram[pac as usize] += 1;
    }
    let expected = samples as f64 / 256.0; // 64 per bucket
    let chi2: f64 = histogram
        .iter()
        .map(|&o| {
            let d = f64::from(o) - expected;
            d * d / expected
        })
        .sum();
    // 255 degrees of freedom: mean 255, σ ≈ 22.6; allow ±6σ.
    assert!(
        (120.0..400.0).contains(&chi2),
        "chi-square {chi2} suggests biased PACs"
    );
}
