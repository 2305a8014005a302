//! Property-based equivalence: the single-pass multi-policy engine must be
//! bit-identical to the legacy one-`Simulator`-per-policy path on random
//! workloads, random policy subsets, and both replay sources.
//!
//! The engine shares one decoded fetch stream and one set of branch
//! predictors across all lanes, so the property these tests pin down is
//! that the sharing is *observationally invisible*: every per-lane
//! statistic — I-cache, BTB, branch predictor, wrong-path — matches the
//! standalone simulator exactly, not merely within tolerance.

#![forbid(unsafe_code)]

use ghrp_repro::cache::CacheConfig;
use ghrp_repro::frontend::engine::{
    run_lanes, run_lanes_sampled, EngineArena, SampledSegment, SliceReplay,
};
use ghrp_repro::frontend::experiment::{run_suite, run_suite_from, run_trace, run_trace_legacy};
use ghrp_repro::frontend::policy::BasePolicy;
use ghrp_repro::frontend::simulator::WrongPathConfig;
use ghrp_repro::frontend::sweep::{run_sweep, run_sweep_from};
use ghrp_repro::frontend::{PolicyKind, RunResult, SimConfig, Simulator, SuiteSource};
use ghrp_repro::trace::corpus::{Corpus, CorpusBuilder, SuiteCorpus};
use ghrp_repro::trace::synth::{suite, WorkloadCategory, WorkloadSpec};
use proptest::prelude::*;

/// The online policies the engine races in one pass. OPT joins via its own
/// test below (it needs the offline precompute path exercised too).
const ONLINE: [PolicyKind; 7] = [
    PolicyKind::Lru,
    PolicyKind::Fifo,
    PolicyKind::Random,
    PolicyKind::Srrip,
    PolicyKind::Drrip,
    PolicyKind::Sdbp,
    PolicyKind::Ghrp,
];

fn arb_category() -> impl Strategy<Value = WorkloadCategory> {
    (0usize..4).prop_map(|i| {
        [
            WorkloadCategory::ShortMobile,
            WorkloadCategory::ShortServer,
            WorkloadCategory::LongMobile,
            WorkloadCategory::LongServer,
        ][i]
    })
}

/// Multi-candidate hybrids next to the statics: with static `ghrp` and
/// `sdbp` they put several GHRP- and SDBP-bearing lanes in one pass, the
/// lanes that share one predictor trainer per geometry.
fn hybrids() -> [PolicyKind; 3] {
    [
        PolicyKind::duel(&[BasePolicy::Ghrp, BasePolicy::Srrip, BasePolicy::Sdbp]),
        PolicyKind::phase(&[BasePolicy::Ghrp, BasePolicy::Srrip], 64),
        PolicyKind::duel(&[BasePolicy::Sdbp, BasePolicy::Lru]),
    ]
}

/// A non-empty subset of the online policies and [`hybrids`], in
/// declaration order: bit `i` of the mask selects entry `i` of the
/// seven statics followed by the three hybrids.
fn arb_policies() -> impl Strategy<Value = Vec<PolicyKind>> {
    (1u16..1024).prop_map(|mask| {
        ONLINE
            .iter()
            .chain(&hybrids())
            .enumerate()
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .map(|(_, &p)| p)
            .collect()
    })
}

/// A small but non-trivial workload: long enough to fill the caches and
/// cross the warm-up boundary, short enough that running both engine and
/// legacy paths per case keeps the suite fast.
fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (arb_category(), any::<u64>(), 8_000u64..24_000)
        .prop_map(|(cat, seed, n)| WorkloadSpec::new(cat, seed).instructions(n))
}

/// Any candidate a hybrid may duel (every online base policy).
fn arb_base() -> impl Strategy<Value = BasePolicy> {
    (0usize..9).prop_map(|i| {
        [
            BasePolicy::Lru,
            BasePolicy::Fifo,
            BasePolicy::Random,
            BasePolicy::Srrip,
            BasePolicy::Drrip,
            BasePolicy::Ship,
            BasePolicy::CounterDbp,
            BasePolicy::Sdbp,
            BasePolicy::Ghrp,
        ][i]
    })
}

/// A 4 KB, 4-way I-cache: at these trace lengths the paper's 64 KB
/// I-cache barely misses, so replacement decisions (and any lane
/// reading another lane's predictor state) rarely show.
fn small_icache() -> CacheConfig {
    CacheConfig::with_capacity(4 * 1024, 4, 64).expect("valid geometry")
}

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (any::<bool>(), 0u32..=2, any::<bool>()).prop_map(|(wrong_path, prefetch, small)| {
        let mut cfg = SimConfig::paper_default();
        if wrong_path {
            cfg.wrong_path = Some(WrongPathConfig::default());
        }
        cfg.prefetch_degree = prefetch;
        if small {
            cfg.icache = small_icache();
        }
        cfg
    })
}

proptest! {
    /// Each engine lane reproduces the standalone simulator exactly —
    /// every statistic, not just MPKI — for a random workload, a random
    /// policy subset, and random wrong-path/prefetch settings.
    #[test]
    fn lanes_are_bit_identical_to_standalone_runs(
        spec in arb_spec(),
        policies in arb_policies(),
        base in arb_config(),
    ) {
        let trace = spec.generate();
        let lanes = run_lanes(&base, &policies, &SliceReplay::from_trace(&trace));
        prop_assert_eq!(lanes.len(), policies.len());
        for (lane, &p) in lanes.iter().zip(&policies) {
            let standalone =
                Simulator::new(base.with_policy(p)).run(&trace.records, trace.instructions);
            prop_assert_eq!(lane, &standalone);
        }
    }

    /// The streaming replay source (no materialized record vector) yields
    /// the same lanes as replaying a pre-generated slice.
    #[test]
    fn streaming_matches_slice_replay(
        spec in arb_spec(),
        policies in arb_policies(),
        base in arb_config(),
    ) {
        let trace = spec.generate();
        let from_slice = run_lanes(&base, &policies, &SliceReplay::from_trace(&trace));
        let from_stream = run_lanes(&base, &policies, &spec.streamed());
        prop_assert_eq!(from_slice, from_stream);
    }

    /// The public experiment row built from the engine matches the legacy
    /// multi-pass row for the full seven-policy set.
    #[test]
    fn run_trace_matches_legacy_row(
        spec in arb_spec(),
        base in arb_config(),
    ) {
        let engine = run_trace(&spec, &base, &ONLINE);
        let legacy = run_trace_legacy(&spec, &base, &ONLINE);
        prop_assert_eq!(engine, legacy);
    }

    /// A corpus round-trip is replay-transparent to the engine: encoding
    /// a workload to the columnar format and replaying it through a
    /// shared-buffer cursor yields the same lanes as replaying the
    /// original record slice.
    #[test]
    fn corpus_replay_matches_slice_replay(
        spec in arb_spec(),
        policies in arb_policies(),
        base in arb_config(),
    ) {
        let trace = spec.generate();
        let mut builder = CorpusBuilder::new();
        builder.push_synthetic(&trace).expect("corpus encode");
        let corpus = Corpus::from_bytes(builder.finish()).expect("corpus decode");
        let corpus_trace = corpus.get(0).expect("one trace");
        let from_slice = run_lanes(&base, &policies, &SliceReplay::from_trace(&trace));
        let from_corpus = run_lanes(&base, &policies, &corpus_trace);
        prop_assert_eq!(from_slice, from_corpus);
    }

    /// A dueling hybrid with a single candidate is observationally the
    /// static policy: every decision comes from candidate 0 no matter
    /// what the PSEL tallies say, so `duel(p)` and `phase(p)` lanes must
    /// be bit-identical to a static `p` lane — all statistics, both
    /// selection modes, any base policy, random workloads and configs.
    #[test]
    fn single_candidate_hybrid_is_bit_identical_to_static(
        spec in arb_spec(),
        base in arb_config(),
        p in arb_base(),
        window in 64u32..4096,
    ) {
        let trace = spec.generate();
        let statik = p.as_kind();
        for hybrid in [PolicyKind::duel(&[p]), PolicyKind::phase(&[p], window)] {
            let lanes = run_lanes(
                &base,
                &[statik, hybrid],
                &SliceReplay::from_trace(&trace),
            );
            // Identical up to the policy label the lane reports.
            let mut normalized = lanes[1];
            normalized.policy = lanes[0].policy;
            prop_assert_eq!(normalized, lanes[0]);
        }
    }

    /// The offline oracle lane (whose access sequences are precomputed
    /// once and shared) also matches its standalone run alongside online
    /// company.
    #[test]
    fn offline_opt_lane_matches_standalone(spec in arb_spec()) {
        let base = SimConfig::paper_default();
        let policies = [PolicyKind::Opt, PolicyKind::Lru, PolicyKind::Ghrp];
        let trace = spec.generate();
        let lanes = run_lanes(&base, &policies, &SliceReplay::from_trace(&trace));
        for (lane, &p) in lanes.iter().zip(&policies) {
            let standalone =
                Simulator::new(base.with_policy(p)).run(&trace.records, trace.instructions);
            prop_assert_eq!(lane, &standalone);
        }
    }
}

/// Suite and sweep runs replaying from a shared corpus must be
/// bit-identical to the streamed-synth path at every thread count: the
/// corpus is one immutable buffer read concurrently by all scheduler
/// workers, so neither sharing nor scheduling may show through in the
/// results.
#[test]
fn corpus_suite_and_sweep_match_streamed_across_threads() {
    let specs: Vec<WorkloadSpec> = suite(3, 33)
        .into_iter()
        .map(|s| s.instructions(20_000))
        .collect();
    let mut builder = CorpusBuilder::new();
    for spec in &specs {
        builder.push_synthetic(&spec.generate()).expect("encode");
    }
    let corpus = Corpus::from_bytes(builder.finish()).expect("verified corpus");
    let shared = SuiteCorpus::from_corpus(&corpus);

    let cfg = SimConfig::paper_default();
    // Opt exercises the offline precompute pass (a second corpus
    // replay); Ghrp and Lru cover predictor-coupled and plain lanes.
    let pols = [PolicyKind::Lru, PolicyKind::Ghrp, PolicyKind::Opt];
    let geoms = [(8 * 1024, 4), (32 * 1024, 8)];

    let suite_ref = run_suite(&specs, &cfg, &pols, 1);
    let sweep_ref = run_sweep(&specs, &cfg, &pols, &geoms, 1);
    for threads in 1..=8 {
        let from_corpus =
            run_suite_from(&specs, &cfg, &pols, threads, SuiteSource::Corpus(&shared));
        assert_eq!(
            from_corpus, suite_ref,
            "suite diverged from streamed replay at {threads} threads"
        );
        let swept = run_sweep_from(
            &specs,
            &cfg,
            &pols,
            &geoms,
            threads,
            SuiteSource::Corpus(&shared),
        );
        assert_eq!(
            swept, sweep_ref,
            "sweep diverged from streamed replay at {threads} threads"
        );
    }
}

/// `duel(p)`/`phase(p)` columns must equal static `p` columns for every
/// thread count and both replay sources: the sticky PSEL state a hybrid
/// keeps across `reset()` is cleared by the arena's cold restart, so
/// neither scheduling, arena reuse order, nor the replay source may make
/// the degenerate hybrid drift from its static policy.
#[test]
fn single_candidate_hybrids_match_statics_across_threads_and_sources() {
    let specs: Vec<WorkloadSpec> = suite(3, 41)
        .into_iter()
        .map(|s| s.instructions(20_000))
        .collect();
    let mut builder = CorpusBuilder::new();
    for spec in &specs {
        builder.push_synthetic(&spec.generate()).expect("encode");
    }
    let corpus = Corpus::from_bytes(builder.finish()).expect("verified corpus");
    let shared = SuiteCorpus::from_corpus(&corpus);

    let cfg = SimConfig::paper_default();
    // GHRP exercises the shared-predictor wiring inside a hybrid; SDBP
    // is the heaviest table-driven candidate.
    let statics = [PolicyKind::Ghrp, PolicyKind::Sdbp];
    let hybrids = [
        PolicyKind::duel(&[BasePolicy::Ghrp]),
        PolicyKind::phase(&[BasePolicy::Sdbp], 2048),
    ];
    let reference = run_suite(&specs, &cfg, &statics, 1);
    for threads in 1..=8 {
        for (label, source) in [
            ("streamed", SuiteSource::Streamed),
            ("corpus", SuiteSource::Corpus(&shared)),
        ] {
            let hybrid = run_suite_from(&specs, &cfg, &hybrids, threads, source);
            assert_eq!(
                hybrid.rows, reference.rows,
                "single-candidate hybrids diverged from statics at \
                 {threads} threads ({label} replay)"
            );
        }
    }
}

/// The benchmark campaign's exact nine lanes — the seven statics plus
/// `duel(ghrp,srrip,sdbp)` and `phase(ghrp,srrip)`, so three lanes share
/// one GHRP trainer and two share each SDBP trainer — with wrong-path
/// injection and next-line prefetching on, at the paper geometry and
/// under the pressure of a small I-cache. The suite at one and two
/// threads and a one-segment sampled replay must all reproduce the
/// per-policy `Simulator`; a multi-segment sampled replay of all nine
/// lanes must reproduce each lane replayed alone.
#[test]
fn campaign_lanes_match_standalone_with_wrong_path_and_prefetch() {
    for icache in [SimConfig::paper_default().icache, small_icache()] {
        check_campaign_lanes(icache);
    }
}

fn check_campaign_lanes(icache: CacheConfig) {
    let policies: Vec<PolicyKind> = [
        "lru",
        "fifo",
        "random",
        "srrip",
        "drrip",
        "sdbp",
        "ghrp",
        "duel(ghrp,srrip,sdbp)",
        "phase(ghrp,srrip;window=8192)",
    ]
    .iter()
    .map(|s| PolicyKind::parse(s).expect("campaign lane spelling"))
    .collect();
    let mut cfg = SimConfig::paper_default().with_icache(icache);
    cfg.wrong_path = Some(WrongPathConfig::default());
    cfg.prefetch_degree = 2;
    let specs: Vec<WorkloadSpec> = suite(2, 12)
        .into_iter()
        .map(|s| s.instructions(60_000))
        .collect();
    let traces: Vec<_> = specs.iter().map(WorkloadSpec::generate).collect();
    let mut builder = CorpusBuilder::new();
    for trace in &traces {
        builder.push_synthetic(trace).expect("encode");
    }
    let corpus = Corpus::from_bytes(builder.finish()).expect("verified corpus");
    let shared = SuiteCorpus::from_corpus(&corpus);

    let oracle: Vec<Vec<_>> = traces
        .iter()
        .map(|t| {
            policies
                .iter()
                .map(|&p| Simulator::new(cfg.with_policy(p)).run(&t.records, t.instructions))
                .collect()
        })
        .collect();

    for threads in [1, 2] {
        let suite = run_suite_from(
            &specs,
            &cfg,
            &policies,
            threads,
            SuiteSource::Corpus(&shared),
        );
        for (row, expected) in suite.rows.iter().zip(&oracle) {
            for (p, r) in expected.iter().enumerate() {
                assert_eq!(row.instructions, r.instructions);
                assert_eq!(
                    row.icache_mpki[p].to_bits(),
                    r.icache_mpki().to_bits(),
                    "{} I-cache MPKI at {threads} threads ({icache})",
                    policies[p]
                );
                assert_eq!(
                    row.btb_mpki[p].to_bits(),
                    r.btb_mpki().to_bits(),
                    "{} BTB MPKI at {threads} threads ({icache})",
                    policies[p]
                );
            }
        }
    }

    assert_sampled_lanes_match(&cfg, &policies, &corpus, &oracle);
}

/// The sampled half of [`check_campaign_lanes`].
fn assert_sampled_lanes_match(
    cfg: &SimConfig,
    policies: &[PolicyKind],
    corpus: &Corpus,
    oracle: &[Vec<RunResult>],
) {
    let geoms = [cfg.icache];
    let mut arena = EngineArena::new();
    for (t, expected) in oracle.iter().enumerate() {
        let trace = corpus.get(t).expect("trace");
        let whole = [SampledSegment {
            rec_lo: 0,
            rec_hi: trace.records(),
            warmup_instructions: (trace.instructions() / 2).min(cfg.warmup_cap),
            weight: 1.0,
        }];
        let sampled = run_lanes_sampled(cfg, &geoms, policies, true, &trace, &whole, &mut arena);
        assert_eq!(&sampled[0][0], expected, "one-segment sampled replay");

        // Three segments with skipped gaps: state carries across them.
        let n = trace.records();
        let segments: Vec<SampledSegment> = [(0, n / 4), (n / 3, n / 2), (2 * n / 3, n)]
            .iter()
            .map(|&(rec_lo, rec_hi)| SampledSegment {
                rec_lo,
                rec_hi,
                warmup_instructions: 2_000,
                weight: 1.0 / 3.0,
            })
            .collect();
        let together =
            run_lanes_sampled(cfg, &geoms, policies, true, &trace, &segments, &mut arena);
        for (p, &policy) in policies.iter().enumerate() {
            let alone = run_lanes_sampled(
                cfg,
                &geoms,
                &[policy],
                true,
                &trace,
                &segments,
                &mut EngineArena::new(),
            );
            for (s, seg) in alone.iter().enumerate() {
                assert_eq!(together[s][0][p], seg[0][0], "{policy} segment {s}");
            }
        }
    }
}

/// A corpus that does not match the suite's workloads is rejected up
/// front instead of silently replaying the wrong trace.
#[test]
#[should_panic(expected = "corpus")]
fn mismatched_corpus_is_rejected() {
    let specs: Vec<WorkloadSpec> = suite(2, 5)
        .into_iter()
        .map(|s| s.instructions(10_000))
        .collect();
    let mut builder = CorpusBuilder::new();
    builder
        .push_synthetic(&specs[0].generate())
        .expect("encode");
    let corpus = Corpus::from_bytes(builder.finish()).expect("verified corpus");
    let shared = SuiteCorpus::from_corpus(&corpus); // one trace, two specs
    let cfg = SimConfig::paper_default();
    let _ = run_suite_from(
        &specs,
        &cfg,
        &[PolicyKind::Lru],
        1,
        SuiteSource::Corpus(&shared),
    );
}
