//! The single-pass multi-policy simulation engine.
//!
//! The paper's methodology (§IV) evaluates every replacement policy on the
//! same trace stream. The policy-independent work — fetch-group decode,
//! the hashed-perceptron direction predictor, the return-address stack and
//! the indirect target cache — dominates a run, yet the legacy path
//! ([`crate::simulator::Simulator::run`]) repeats all of it once per
//! policy. This engine replays a trace **once**, decoding the fetch stream
//! and driving the shared predictors a single time, and broadcasts every
//! fetch group and branch event to N independent **policy lanes**.
//!
//! Each lane owns the per-policy state of a standalone run: its I-cache,
//! its BTB and its policies' per-frame state. The policy-independent
//! half of the predictive policies — GHRP's dual history (§III.F), shadow
//! array and tables, and SDBP's samplers and tables — depends only on
//! the demand access stream, so all lanes of one I-cache geometry share
//! one *trainer* per predictor, stepped once per access by whichever lane
//! reaches the access first (DESIGN §9.1). The branch-predictor outcome
//! stream that triggers wrong-path injection is policy-independent too —
//! the shared predictors never read cache state — so each lane observes
//! the same event sequence, in the same order, as a standalone
//! simulation, and its counters stay **bit-identical** to the legacy
//! per-policy path (proved by the `engine_equivalence` property suite).
//!
//! Traces enter through [`ReplaySource`], which abstracts over a
//! materialized record slice ([`SliceReplay`]) and a streaming replay of a
//! synthetic workload ([`fe_trace::synth::StreamedTrace`]). The streaming
//! path never materializes a `Vec<BranchRecord>`, so paper-scale traces
//! (100 M+ instructions, §IV.C) cost walker state instead of gigabytes.

#![forbid(unsafe_code)]

use crate::policy::{FrontendPair, PolicyKind, SharedTrainers};
use crate::simulator::{offline_sequences, RunResult, SimConfig};
use fe_branch::{HashedPerceptron, PredictorStats, ReturnAddressStack, TargetCache};
use fe_btb::btb_config;
use fe_trace::fetch::{FetchChunk, FetchStream};
use fe_trace::record::{BranchKind, BranchRecord};
use fe_trace::synth::{StreamedTrace, SyntheticTrace, Walker};

/// A trace that can be replayed from the start any number of times.
///
/// The engine makes one pass for the simulation itself plus, when the
/// policy set contains an offline (OPT) policy, one precompute pass. Both
/// passes must observe identical record streams.
pub trait ReplaySource {
    /// The record iterator for one replay pass.
    type Iter<'a>: Iterator<Item = BranchRecord>
    where
        Self: 'a;

    /// Start a fresh pass over the branch records, in program order.
    fn replay(&self) -> Self::Iter<'_>;

    /// Exact instruction total of the trace (sizes the warm-up window,
    /// §IV.C: first half of the trace, capped).
    fn total_instructions(&self) -> u64;
}

/// Replay of a materialized record slice (the legacy representation).
#[derive(Debug, Clone, Copy)]
pub struct SliceReplay<'r> {
    records: &'r [BranchRecord],
    instructions: u64,
}

impl<'r> SliceReplay<'r> {
    /// Wrap `records` whose walk implies `instructions` instructions.
    pub fn new(records: &'r [BranchRecord], instructions: u64) -> SliceReplay<'r> {
        SliceReplay {
            records,
            instructions,
        }
    }

    /// Replay a fully materialized synthetic trace.
    pub fn from_trace(trace: &'r SyntheticTrace) -> SliceReplay<'r> {
        SliceReplay {
            records: &trace.records,
            instructions: trace.instructions,
        }
    }
}

impl ReplaySource for SliceReplay<'_> {
    type Iter<'a>
        = std::iter::Copied<std::slice::Iter<'a, BranchRecord>>
    where
        Self: 'a;

    fn replay(&self) -> Self::Iter<'_> {
        self.records.iter().copied()
    }

    fn total_instructions(&self) -> u64 {
        self.instructions
    }
}

impl ReplaySource for StreamedTrace {
    type Iter<'a> = Walker<'a>;

    fn replay(&self) -> Walker<'_> {
        StreamedTrace::replay(self)
    }

    fn total_instructions(&self) -> u64 {
        self.instructions()
    }
}

impl ReplaySource for fe_trace::corpus::CorpusTrace {
    type Iter<'a> = fe_trace::corpus::CorpusCursor<'a>;

    /// Zero-copy replay: every pass opens a fresh chunked cursor over
    /// the corpus's shared column buffer — no parsing, no cloning, no
    /// per-record allocation, and safe to share across scheduler
    /// workers (each worker's cursor reads the same immutable bytes).
    fn replay(&self) -> fe_trace::corpus::CorpusCursor<'_> {
        self.cursor()
    }

    fn total_instructions(&self) -> u64 {
        self.instructions()
    }
}

/// The policy-independent front end, driven exactly once per trace: the
/// conditional-direction predictor, the return-address stack and the
/// indirect target cache. None of these read cache or BTB state, so their
/// outcome stream is identical for every lane.
#[derive(Debug, Default)]
struct SharedFrontEnd {
    bp: HashedPerceptron,
    ras: ReturnAddressStack,
    itp: TargetCache,
    bp_stats: PredictorStats,
    ras_mispredictions: u64,
    /// (predicted, mispredicted) indirect jumps/calls.
    indirect: (u64, u64),
}

impl SharedFrontEnd {
    /// Predict and train on one branch record; returns whether the front
    /// end mispredicted it (the trigger for wrong-path injection).
    fn observe(&mut self, branch: &BranchRecord) -> bool {
        let mut mispredicted = false;
        match branch.kind {
            BranchKind::CondDirect => {
                let pred = self.bp.predict_and_update(branch.pc, branch.taken);
                let correct = pred == branch.taken;
                self.bp_stats.record(correct);
                mispredicted = !correct;
            }
            BranchKind::Call => {
                self.ras.push(branch.fall_through());
            }
            BranchKind::IndirectCall => {
                self.ras.push(branch.fall_through());
                self.indirect.0 += 1;
                if self.itp.predict(branch.pc) != Some(branch.target) {
                    self.indirect.1 += 1;
                    mispredicted = true;
                }
                self.itp.update(branch.pc, branch.target);
            }
            BranchKind::Indirect => {
                self.indirect.0 += 1;
                if self.itp.predict(branch.pc) != Some(branch.target) {
                    self.indirect.1 += 1;
                    mispredicted = true;
                }
                self.itp.update(branch.pc, branch.target);
            }
            BranchKind::Return => {
                let predicted = self.ras.pop();
                if predicted != Some(branch.target) {
                    self.ras_mispredictions += 1;
                    mispredicted = true;
                }
            }
            BranchKind::UncondDirect => {}
        }
        mispredicted
    }

    /// End-of-warm-up counter reset (predictor state itself stays warm).
    fn reset_stats(&mut self) {
        self.bp_stats = PredictorStats::default();
        self.ras_mispredictions = 0;
        self.indirect = (0, 0);
    }
}

/// One policy lane: the per-policy state of a standalone run (its
/// predictor trainers may be shared with the other lanes of its
/// geometry).
struct Lane {
    policy: PolicyKind,
    pair: FrontendPair,
    /// Wrong-path pollution, excluded from the figure of merit (wrong-path
    /// fetches do not retire, so they cannot be MPKI events).
    wrong_path_misses: u64,
    wrong_path_accesses: u64,
    /// Fetch groups this lane processed (cross-lane lockstep check).
    groups: u64,
}

impl Lane {
    /// One I-cache access per fetch group (§IV.A), plus miss-triggered
    /// next-line prefetching.
    fn access_group(&mut self, chunk: &FetchChunk, cfg: &SimConfig) {
        self.groups += 1;
        let result = self.pair.icache.access(chunk.block_addr, chunk.first_pc);
        if result.is_miss() && cfg.prefetch_degree > 0 {
            for i in 1..=u64::from(cfg.prefetch_degree) {
                self.pair
                    .icache
                    .prefetch(chunk.block_addr + i * cfg.icache.block_bytes());
            }
        }
    }

    /// One wrong-path I-cache access (pollution, not a demand miss).
    fn access_wrong_path(&mut self, block: u64) {
        let r = self.pair.icache.access(block, block);
        self.wrong_path_accesses += 1;
        if r.is_miss() {
            self.wrong_path_misses += 1;
        }
    }

    fn reset_stats(&mut self) {
        self.pair.icache.reset_stats();
        self.pair.btb.reset_stats();
        self.wrong_path_misses = 0;
        self.wrong_path_accesses = 0;
    }

    /// Restore the lane to its freshly-built state, reusing every
    /// allocation (cache arrays, BTB tables, predictor tables). Offline
    /// lanes cannot be reused — their policy state is trace-derived. The
    /// policies' `reset` also rewinds their (possibly shared) trainers;
    /// that is idempotent, and every lane is reset before the next replay.
    fn reset_for_reuse(&mut self) {
        self.pair.icache.reset();
        self.pair.btb.reset();
        // The dueling hybrids keep their PSEL tallies across `reset()`
        // on purpose (production adaptivity); arena reuse must stay
        // bit-identical to a rebuild, so clear the sticky state too.
        self.pair.icache.policy_mut().cold_restart();
        self.pair.btb.entries_mut().policy_mut().cold_restart();
        self.wrong_path_misses = 0;
        self.wrong_path_accesses = 0;
        self.groups = 0;
    }

    fn finish(&self, measured_instructions: u64, fe: &SharedFrontEnd) -> RunResult {
        let mut icache_stats = self.pair.icache.stats();
        // Subtract wrong-path pollution from the figure of merit.
        icache_stats.misses -= self.wrong_path_misses.min(icache_stats.misses);
        icache_stats.accesses -= self.wrong_path_accesses.min(icache_stats.accesses);
        let btb_stats = self.pair.btb.stats();
        RunResult {
            policy: self.policy,
            instructions: measured_instructions,
            icache: icache_stats,
            btb_lookups: btb_stats.lookups,
            btb_misses: btb_stats.misses,
            cond_branches: fe.bp_stats.predictions,
            cond_mispredictions: fe.bp_stats.mispredictions,
            ras_mispredictions: fe.ras_mispredictions,
            indirect_branches: fe.indirect.0,
            indirect_mispredictions: fe.indirect.1,
            prefetch_fills: icache_stats.prefetch_fills,
        }
    }
}

/// The configuration a set of arena lanes was built for.
#[derive(Debug, Clone, PartialEq)]
struct ArenaKey {
    base: SimConfig,
    icaches: Vec<fe_cache::CacheConfig>,
    policies: Vec<PolicyKind>,
}

/// Reusable per-worker lane storage.
///
/// Building a lane allocates its I-cache arrays, BTB tables and (for the
/// predictive policies) predictor tables. A scheduler worker runs many
/// tasks with the identical configuration back to back, so the arena
/// keeps the lanes of the previous task and, when the configuration
/// matches, resets them **in place** — same post-construction state,
/// zero allocation — instead of rebuilding. A configuration change (or an
/// offline policy, whose state is derived from the concrete trace)
/// rebuilds from scratch.
#[derive(Debug, Default)]
pub struct EngineArena {
    key: Option<ArenaKey>,
    lanes: Vec<Lane>,
    /// Lanes whose GHRP handle is the first on its trainer: history
    /// retirement and recovery go through them, once per trainer.
    ghrp_lanes: Vec<usize>,
}

impl EngineArena {
    /// An empty arena; the first task always builds its lanes.
    pub fn new() -> EngineArena {
        EngineArena::default()
    }

    /// Whether the arena currently holds reusable lanes.
    pub fn is_primed(&self) -> bool {
        self.key.is_some()
    }
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("policy", &self.policy)
            .field("groups", &self.groups)
            .finish_non_exhaustive()
    }
}

/// Simulate every policy in `policies` over one replay of `source`,
/// returning one [`RunResult`] per policy (in input order).
///
/// The shared pass decodes the fetch stream and drives the direction
/// predictor, RAS and indirect target cache exactly once; per-policy work
/// is limited to each lane's I-cache/BTB accesses. `base.policy` is
/// ignored — each lane is built for its own policy. Results are
/// bit-identical to running [`crate::simulator::Simulator::run`] once per
/// policy on the same trace.
///
/// # Panics
///
/// Panics if the BTB geometry in `base` is invalid.
pub fn run_lanes<S: ReplaySource>(
    base: &SimConfig,
    policies: &[PolicyKind],
    source: &S,
) -> Vec<RunResult> {
    let mut arena = EngineArena::new();
    run_lanes_multi(
        base,
        std::slice::from_ref(&base.icache),
        policies,
        true,
        source,
        &mut arena,
    )
    .pop()
    .unwrap_or_default()
}

/// Geometry-fused variant of [`run_lanes`]: one replay of `source` drives
/// an independent lane grid of `icaches.len() × policies.len()` lanes,
/// returning results geometry-major (`out[g][p]`).
///
/// Every geometry must share `base.icache`'s block size — the fetch
/// stream is chunked once at that granularity. Within that constraint the
/// *entire* policy-independent front end (decode, direction predictor,
/// RAS, indirect target cache) is shared across all geometries, so an
/// 8-geometry sweep costs one trace replay instead of eight. Each lane's
/// counters stay bit-identical to a standalone run of its
/// (geometry, policy) pair.
///
/// `measure_btb = false` skips the per-lane BTB entirely (its stats come
/// back zero); the GHRP BTB policy only reads the shared predictor, so
/// I-cache results are unaffected. Use it for sweeps, which consume only
/// I-cache means.
///
/// `arena` carries lane allocations across calls on the same worker; pass
/// a fresh [`EngineArena`] when no reuse is wanted.
///
/// # Panics
///
/// Panics if a geometry's block size differs from `base.icache`'s, or if
/// the BTB geometry in `base` is invalid.
pub fn run_lanes_multi<S: ReplaySource>(
    base: &SimConfig,
    icaches: &[fe_cache::CacheConfig],
    policies: &[PolicyKind],
    measure_btb: bool,
    source: &S,
    arena: &mut EngineArena,
) -> Vec<Vec<RunResult>> {
    let block_bytes = base.icache.block_bytes();
    assert!(
        icaches.iter().all(|c| c.block_bytes() == block_bytes),
        "fused geometries must share the base block size"
    );
    let npols = policies.len();
    if npols == 0 || icaches.is_empty() {
        return icaches.iter().map(|_| Vec::new()).collect();
    }

    let reusable = !policies.iter().any(|p| p.is_offline());
    prepare_arena(arena, base, icaches, policies, reusable, source);
    let mut fe = SharedFrontEnd::default();
    let warmup = (source.total_instructions() / 2).min(base.warmup_cap);
    let measured = replay(arena, &mut fe, source.replay(), warmup, base, measure_btb);
    lane_results(&arena.lanes, npols, measured, &fe)
}

/// One replayed slice of a phase-sampled run: the record range to
/// replay, how much of its prefix is functional warming (measurement
/// off), and the cluster weight its measured metrics carry in the
/// combined estimate.
///
/// Segments are produced by [`crate::sampled::SamplePlan`] in ascending
/// trace order; [`run_lanes_sampled`] replays them back to back over one
/// persistent front end and lane grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledSegment {
    /// First record of the segment (inclusive).
    pub rec_lo: u64,
    /// One past the last record of the segment.
    pub rec_hi: u64,
    /// Instructions at the segment start replayed with measurement off
    /// (functional warming of caches, BTB and predictors).
    pub warmup_instructions: u64,
    /// Cluster weight of the measured interval (fractions sum to 1).
    pub weight: f64,
}

/// Phase-sampled variant of [`run_lanes_multi`]: replay only the given
/// `segments` of `trace`, returning per-segment results
/// (`out[s][g][p]`, segment-major then geometry-major).
///
/// Cache, BTB and predictor **state** persists across segments (the
/// previous segment is the best available approximation of the skipped
/// gap); **counters** reset at each segment's warmup boundary, so each
/// segment's [`RunResult`] covers exactly its measured interval. A
/// segment with `warmup_instructions == 0` resets counters before its
/// first record.
///
/// Offline (OPT) policies are not supported: their precompute is defined
/// over a full replay, which sampling never performs.
///
/// # Panics
///
/// Panics if `policies` contains an offline policy, or if a geometry's
/// block size differs from `base.icache`'s.
pub fn run_lanes_sampled(
    base: &SimConfig,
    icaches: &[fe_cache::CacheConfig],
    policies: &[PolicyKind],
    measure_btb: bool,
    trace: &fe_trace::corpus::CorpusTrace,
    segments: &[SampledSegment],
    arena: &mut EngineArena,
) -> Vec<Vec<Vec<RunResult>>> {
    let block_bytes = base.icache.block_bytes();
    assert!(
        icaches.iter().all(|c| c.block_bytes() == block_bytes),
        "fused geometries must share the base block size"
    );
    assert!(
        !policies.iter().any(|p| p.is_offline()),
        "offline policies cannot be phase-sampled"
    );
    let npols = policies.len();
    if npols == 0 || icaches.is_empty() {
        return segments
            .iter()
            .map(|_| icaches.iter().map(|_| Vec::new()).collect())
            .collect();
    }

    prepare_arena(arena, base, icaches, policies, true, trace);
    let mut fe = SharedFrontEnd::default();
    let mut out = Vec::with_capacity(segments.len());
    for seg in segments {
        let records = trace.cursor_range(seg.rec_lo, seg.rec_hi);
        let measured = replay(
            arena,
            &mut fe,
            records,
            seg.warmup_instructions,
            base,
            measure_btb,
        );
        // One result grid per segment: the function's output, built once
        // per segment, not per record.
        out.push(lane_results(&arena.lanes, npols, measured, &fe));
    }
    out
}

/// Replay `records` through every lane of `arena`, resetting the
/// counters (never the state) once `warmup` instructions have passed —
/// immediately when `warmup` is zero. Returns the measured instruction
/// count.
///
/// Each fetch chunk runs in four lockstep phases, so every lane reaches
/// demand access *n* of a shared trainer before any lane reaches *n + 1*:
///
/// 1. the I-cache group access (with its prefetches), for every lane;
/// 2. the BTB lookup, for every lane;
/// 3. each wrong-path block, for every lane;
/// 4. GHRP history retirement and recovery, once per trainer.
///
/// A lane's own event order is the standalone one; retirement moves
/// behind the BTB lookup and the wrong path, neither of which reads the
/// retired history.
fn replay(
    arena: &mut EngineArena,
    fe: &mut SharedFrontEnd,
    records: impl Iterator<Item = BranchRecord>,
    warmup: u64,
    cfg: &SimConfig,
    measure_btb: bool,
) -> u64 {
    let lanes = &mut arena.lanes;
    let block_bytes = cfg.icache.block_bytes();
    let mut warmed = warmup == 0;
    if warmed {
        fe.reset_stats();
        for lane in lanes.iter_mut() {
            lane.reset_stats();
        }
    }
    let mut instructions = 0u64;
    let mut measured = 0u64;
    // Internal iteration drives the record source's own `fold` (the
    // corpus cursor's column walk); the reference `Simulator` iterates
    // with `next()`, so the equivalence suites compare the two paths.
    FetchStream::new(records, block_bytes).for_each(|chunk| {
        instructions += u64::from(chunk.n_instr);
        if warmed {
            measured += u64::from(chunk.n_instr);
        }
        if chunk.starts_group {
            for lane in lanes.iter_mut() {
                lane.access_group(&chunk, cfg);
            }
        }
        let mut mispredicted = false;
        if let Some(branch) = chunk.branch {
            mispredicted = fe.observe(&branch);
            // The GHRP BTB policy only reads the shared predictor, so
            // skipping the BTB leaves every I-cache counter bit-identical.
            if measure_btb && branch.taken {
                for lane in lanes.iter_mut() {
                    lane.pair.btb.lookup_and_update(branch.pc, branch.target);
                }
            }
            if let (true, Some(wp)) = (mispredicted, cfg.wrong_path) {
                // The wrong path is the direction not taken.
                let wrong_start = if branch.taken {
                    branch.fall_through()
                } else {
                    branch.target
                };
                let mut block = wrong_start & !(block_bytes - 1);
                for _ in 0..wp.blocks_per_misprediction {
                    for lane in lanes.iter_mut() {
                        lane.access_wrong_path(block);
                    }
                    block += block_bytes;
                }
            }
        }
        // Commit-time (right-path) history retirement: in this
        // trace-driven model every fetched group retires.
        if let Some(wp) = cfg.wrong_path {
            for ghrp in arena
                .ghrp_lanes
                .iter()
                .filter_map(|&i| lanes[i].pair.ghrp.as_ref())
            {
                if chunk.starts_group {
                    ghrp.retire(chunk.block_addr);
                }
                if mispredicted && wp.recover_history {
                    ghrp.recover();
                }
            }
        }
        if !warmed && instructions >= warmup {
            warmed = true;
            fe.reset_stats();
            for lane in lanes.iter_mut() {
                lane.reset_stats();
            }
        }
    });
    // Every lane consumed the identical event stream.
    debug_assert!(
        lanes.windows(2).all(|w| w[0].groups == w[1].groups),
        "policy lanes diverged: fetch-group counts {:?}",
        lanes.iter().map(|l| l.groups).collect::<Vec<_>>()
    );
    measured
}

/// The per-lane results of one replay, geometry-major (`out[g][p]`).
fn lane_results(
    lanes: &[Lane],
    npols: usize,
    measured_instructions: u64,
    fe: &SharedFrontEnd,
) -> Vec<Vec<RunResult>> {
    lanes
        .chunks(npols)
        .map(|geometry| {
            geometry
                .iter()
                .map(|lane| lane.finish(measured_instructions, fe))
                .collect()
        })
        .collect()
}

/// Make `arena` hold fresh lanes for (`base`, `icaches`, `policies`):
/// reset the previous task's lanes in place when the key matches,
/// otherwise rebuild them.
fn prepare_arena<S: ReplaySource>(
    arena: &mut EngineArena,
    base: &SimConfig,
    icaches: &[fe_cache::CacheConfig],
    policies: &[PolicyKind],
    reusable: bool,
    source: &S,
) {
    let key_matches = reusable
        && arena
            .key
            .as_ref()
            .is_some_and(|k| k.base == *base && k.icaches == icaches && k.policies == policies);
    if key_matches {
        for lane in &mut arena.lanes {
            lane.reset_for_reuse();
        }
    } else {
        rebuild_arena(arena, base, icaches, policies, reusable, source);
    }
}

/// Rebuild an arena's lane grid from scratch for a new
/// (config, geometries, policies) key. The lanes of one geometry draw
/// their predictor trainers from one pool.
///
/// # Panics
///
/// Panics if the BTB geometry in `base` is invalid.
fn rebuild_arena<S: ReplaySource>(
    arena: &mut EngineArena,
    base: &SimConfig,
    icaches: &[fe_cache::CacheConfig],
    policies: &[PolicyKind],
    reusable: bool,
    source: &S,
) {
    let Ok(btb_cfg) = btb_config(base.btb_entries, base.btb_ways) else {
        // lint:allow(panic-path): construction-time config validation, once per rebuilt arena before any replay; documented `# Panics` on every engine entry point
        panic!(
            "invalid BTB geometry: {} entries, {} ways",
            base.btb_entries, base.btb_ways
        );
    };
    // Offline (OPT) lanes need the full access sequences ahead of time:
    // precompute them once per trace and share across all offline lanes
    // (the block sequence is geometry-independent).
    let offline = if reusable {
        None
    } else {
        Some(offline_sequences(
            source.replay(),
            base.icache.block_bytes(),
        ))
    };
    let opt = offline
        .as_ref()
        .map(|(blocks, pcs)| (blocks.as_slice(), pcs.as_slice()));
    arena.lanes.clear();
    arena.ghrp_lanes.clear();
    for &icache in icaches {
        let mut trainers = SharedTrainers::default();
        for &p in policies {
            let pair = trainers.build_pair(
                p,
                icache,
                btb_cfg,
                base.ghrp,
                base.sdbp,
                base.seed,
                opt.filter(|_| p.is_offline()),
            );
            if let Some(g) = &pair.ghrp {
                let lanes = &arena.lanes;
                let seen = arena.ghrp_lanes.iter().any(|&i| {
                    lanes[i]
                        .pair
                        .ghrp
                        .as_ref()
                        .is_some_and(|t| t.shares_trainer_with(g))
                });
                if !seen {
                    arena.ghrp_lanes.push(arena.lanes.len());
                }
            }
            arena.lanes.push(Lane {
                policy: p,
                pair,
                wrong_path_misses: 0,
                wrong_path_accesses: 0,
                groups: 0,
            });
        }
    }
    arena.key = reusable.then(|| ArenaKey {
        base: *base,
        icaches: icaches.to_vec(),
        policies: policies.to_vec(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::{Simulator, WrongPathConfig};
    use fe_trace::synth::{WorkloadCategory, WorkloadSpec};

    fn spec(seed: u64, n: u64) -> WorkloadSpec {
        WorkloadSpec::new(WorkloadCategory::ShortServer, seed).instructions(n)
    }

    const SEVEN: &[PolicyKind] = &[
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Random,
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::Sdbp,
        PolicyKind::Ghrp,
    ];

    #[test]
    fn lanes_match_legacy_per_policy_runs() {
        let trace = spec(3, 200_000).generate();
        let base = SimConfig::paper_default();
        let results = run_lanes(&base, SEVEN, &SliceReplay::from_trace(&trace));
        assert_eq!(results.len(), SEVEN.len());
        for (r, &p) in results.iter().zip(SEVEN) {
            let legacy =
                Simulator::new(base.with_policy(p)).run(&trace.records, trace.instructions);
            assert_eq!(*r, legacy, "lane {p} diverged from legacy");
        }
    }

    #[test]
    fn lanes_match_legacy_with_wrong_path() {
        let trace = spec(5, 150_000).generate();
        let mut base = SimConfig::paper_default();
        base.wrong_path = Some(WrongPathConfig::default());
        let pols = [PolicyKind::Lru, PolicyKind::Ghrp, PolicyKind::Sdbp];
        let results = run_lanes(&base, &pols, &SliceReplay::from_trace(&trace));
        for (r, &p) in results.iter().zip(&pols) {
            let legacy =
                Simulator::new(base.with_policy(p)).run(&trace.records, trace.instructions);
            assert_eq!(*r, legacy, "lane {p} diverged from legacy (wrong-path)");
        }
    }

    #[test]
    fn streaming_source_matches_slice_source() {
        let s = spec(7, 120_000);
        let base = SimConfig::paper_default();
        let trace = s.generate();
        let from_slice = run_lanes(&base, SEVEN, &SliceReplay::from_trace(&trace));
        let from_stream = run_lanes(&base, SEVEN, &s.streamed());
        assert_eq!(from_slice, from_stream);
    }

    #[test]
    fn offline_lane_shares_precompute_with_online_lanes() {
        let trace = spec(11, 100_000).generate();
        let base = SimConfig::paper_default();
        let pols = [PolicyKind::Opt, PolicyKind::Lru];
        let results = run_lanes(&base, &pols, &SliceReplay::from_trace(&trace));
        for (r, &p) in results.iter().zip(&pols) {
            let legacy =
                Simulator::new(base.with_policy(p)).run(&trace.records, trace.instructions);
            assert_eq!(*r, legacy, "lane {p} diverged from legacy (OPT)");
        }
    }

    #[test]
    fn prefetch_lanes_match_legacy() {
        let trace = spec(13, 150_000).generate();
        let mut base = SimConfig::paper_default();
        base.prefetch_degree = 2;
        let pols = [PolicyKind::Lru, PolicyKind::Srrip];
        let results = run_lanes(&base, &pols, &SliceReplay::from_trace(&trace));
        for (r, &p) in results.iter().zip(&pols) {
            let legacy =
                Simulator::new(base.with_policy(p)).run(&trace.records, trace.instructions);
            assert_eq!(*r, legacy, "lane {p} diverged from legacy (prefetch)");
        }
    }

    /// The GHRP-bearing lanes of the benchmark campaign.
    fn ghrp_lanes() -> [PolicyKind; 4] {
        use crate::policy::BasePolicy::{Ghrp, Lru, Sdbp, Srrip};
        [
            PolicyKind::Ghrp,
            PolicyKind::duel(&[Ghrp, Srrip, Sdbp]),
            PolicyKind::phase(&[Ghrp, Srrip], 512),
            PolicyKind::duel(&[Sdbp, Lru]),
        ]
    }

    /// Shadow training makes GHRP's trainer policy-independent: one per
    /// geometry serves every GHRP-bearing lane.
    #[test]
    fn shadow_training_shares_one_ghrp_trainer_per_geometry() {
        let trace = spec(19, 120_000).generate();
        let mut base = SimConfig::paper_default();
        base.wrong_path = Some(WrongPathConfig::default());
        let pols = ghrp_lanes();
        let geoms = [
            base.icache,
            fe_cache::CacheConfig::with_capacity(16 * 1024, 4, base.icache.block_bytes()).unwrap(),
        ];
        let mut arena = EngineArena::new();
        let out = run_lanes_multi(
            &base,
            &geoms,
            &pols,
            true,
            &SliceReplay::from_trace(&trace),
            &mut arena,
        );
        assert_eq!(arena.ghrp_lanes, [0, 4], "one GHRP trainer per geometry");
        for (g, icache) in geoms.iter().enumerate() {
            for (r, &p) in out[g].iter().zip(&pols) {
                let legacy = Simulator::new(base.with_icache(*icache).with_policy(p))
                    .run(&trace.records, trace.instructions);
                assert_eq!(*r, legacy, "lane {p} (geometry {g}) diverged");
            }
        }
    }

    /// GHRP's direct-training ablation learns from each lane's own
    /// evictions, so every GHRP-bearing lane keeps its own trainer — and
    /// stays bit-identical to its standalone run, also on arena reuse.
    #[test]
    fn direct_training_keeps_one_ghrp_trainer_per_lane() {
        let trace = spec(23, 120_000).generate();
        let mut base = SimConfig::paper_default();
        base.wrong_path = Some(WrongPathConfig::default());
        base.ghrp.shadow_training = false;
        let pols = ghrp_lanes();
        let mut arena = EngineArena::new();
        for _ in 0..2 {
            let out = run_lanes_multi(
                &base,
                &[base.icache],
                &pols,
                true,
                &SliceReplay::from_trace(&trace),
                &mut arena,
            );
            assert_eq!(arena.ghrp_lanes, [0, 1, 2], "one GHRP trainer per lane");
            for (r, &p) in out[0].iter().zip(&pols) {
                let legacy =
                    Simulator::new(base.with_policy(p)).run(&trace.records, trace.instructions);
                assert_eq!(*r, legacy, "lane {p} diverged (direct training)");
            }
        }
    }

    #[test]
    fn empty_policy_set_yields_nothing() {
        let trace = spec(17, 50_000).generate();
        let results = run_lanes(
            &SimConfig::paper_default(),
            &[],
            &SliceReplay::from_trace(&trace),
        );
        assert!(results.is_empty());
    }

    #[test]
    fn empty_trace_runs_all_lanes() {
        let results = run_lanes(
            &SimConfig::paper_default(),
            &[PolicyKind::Lru, PolicyKind::Ghrp],
            &SliceReplay::new(&[], 0),
        );
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.instructions, 0);
            assert_eq!(r.icache.accesses, 0);
        }
    }
}
