//! The stderr engine table records every engine call once, under a label
//! that tells it apart. The engine registry is process-wide, so this binary
//! holds a single test.

use pacstack_bench::{exec, experiments};
use std::collections::BTreeSet;

/// Drains the engine registry and returns (entries, distinct labels).
fn drained_labels() -> (usize, usize) {
    let labels: Vec<String> = exec::stats::drain().into_iter().map(|(l, _)| l).collect();
    (labels.len(), labels.iter().collect::<BTreeSet<_>>().len())
}

#[test]
fn each_engine_call_is_recorded_once_under_a_distinct_label() {
    exec::stats::drain();
    assert!(experiments::attack_matrix().is_ok());
    assert_eq!(drained_labels(), (4, 4));
    experiments::guessing_costs(&[6, 8], 20);
    assert_eq!(drained_labels(), (4, 4));
}
