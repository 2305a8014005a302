//! Pinned branch-predictor counts.
//!
//! The engine and every reference oracle share the predictor code
//! (`HashedPerceptron`, the RAS and the indirect target cache), and the
//! GHRP-versus-LRU figures run without wrong-path injection, so predictor
//! outcomes never reach an MPKI. An equivalence suite therefore cannot
//! notice a change in what the predictors compute. This test can: it pins
//! the measured-window counts of four synthetic traces, as computed by the
//! reference that re-folds every table's history from scratch (kept in
//! `fe-branch`'s unit tests).

#![forbid(unsafe_code)]

use ghrp_repro::frontend::engine::run_lanes;
use ghrp_repro::frontend::{PolicyKind, SimConfig};
use ghrp_repro::trace::synth::suite;

#[test]
fn predictor_counts_match_the_pinned_reference() {
    // name, cond, cond_miss, indirect, indirect_miss, ras_miss
    let expected: [(&str, u64, u64, u64, u64, u64); 4] = [
        ("SHORT_MOBILE-001", 66_277, 2_257, 1_292, 570, 0),
        ("SHORT_SERVER-002", 20_335, 2_115, 6_632, 3_426, 0),
        ("LONG_MOBILE-003", 50_603, 974, 717, 326, 0),
        ("LONG_SERVER-004", 29_469, 4_118, 4_726, 2_511, 0),
    ];
    let cfg = SimConfig::paper_default();
    let specs: Vec<_> = suite(4, 1)
        .into_iter()
        .map(|s| s.instructions(1_000_000))
        .collect();
    assert_eq!(specs.len(), expected.len());
    for (spec, want) in specs.iter().zip(expected) {
        let results = run_lanes(&cfg, &[PolicyKind::Lru], &spec.streamed());
        let r = &results[0];
        let got = (
            spec.name.as_str(),
            r.cond_branches,
            r.cond_mispredictions,
            r.indirect_branches,
            r.indirect_mispredictions,
            r.ras_mispredictions,
        );
        assert_eq!(got, want, "predictor counts drifted on {}", spec.name);
    }
}
