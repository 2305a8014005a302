//! The traced run: one span per trace per layer around the benchmark's
//! own calls into each crate, the per-layer metrics derived from those
//! spans, and counts taken at the same boundaries.
//!
//! Each layer gets its own pass over the trace so that its span times
//! that layer alone: decode drains the corpus cursor, fetch rebuilds
//! fetch groups from the decoded records, `branch` drives the shared
//! predictors, and every lane replays the fetch groups through its own
//! I-cache (`cache.<p>`) and through I-cache plus BTB (`lane.<p>`). The
//! real engine call (`run_lanes_multi`) runs on the same trace, and its
//! per-lane results must equal the layer passes' counts exactly.

use crate::report::Metric;
use crate::tracer::Tracer;
use crate::workload::{policy, Inputs, Workload, LANES, SAMPLE};
use fe_branch::{HashedPerceptron, ReturnAddressStack, TargetCache};
use fe_btb::BtbStats;
use fe_cache::CacheStats;
use fe_frontend::engine::{run_lanes_multi, run_lanes_sampled, EngineArena};
use fe_frontend::policy::{build_pair, AnyPolicy, FrontendPair};
use fe_frontend::sampled::build_plan;
use fe_frontend::schedule::SchedulerStats;
use fe_frontend::{PolicyKind, RunResult, SimConfig};
use fe_trace::fetch::{FetchChunk, FetchStream};
use fe_trace::record::{BranchKind, BranchRecord};
use std::hint::black_box;
use std::time::Instant;

/// Counts of the shared predictors over the measured window (after the
/// engine's warm-up), plus every branch seen.
#[derive(Debug, Default, Clone, Copy)]
struct BranchCounts {
    branches: u64,
    cond: u64,
    cond_miss: u64,
    indirect: u64,
    indirect_miss: u64,
    ras_miss: u64,
}

impl BranchCounts {
    fn matches(&self, r: &RunResult) -> bool {
        (
            self.cond,
            self.cond_miss,
            self.indirect,
            self.indirect_miss,
            self.ras_miss,
        ) == (
            r.cond_branches,
            r.cond_mispredictions,
            r.indirect_branches,
            r.indirect_mispredictions,
            r.ras_mispredictions,
        )
    }
}

/// The `fe-branch` pass: the engine's shared front end (perceptron, RAS,
/// indirect target cache) over every branch, counters reset at warm-up.
fn branch_pass(chunks: &[FetchChunk], warmup: u64) -> BranchCounts {
    let mut bp = HashedPerceptron::default();
    let mut ras = ReturnAddressStack::default();
    let mut itc = TargetCache::default();
    let mut c = BranchCounts::default();
    let mut instructions = 0u64;
    let mut warmed = warmup == 0;
    let indirect = |itc: &mut TargetCache, c: &mut BranchCounts, b: &BranchRecord| {
        c.indirect += 1;
        if itc.predict(b.pc) != Some(b.target) {
            c.indirect_miss += 1;
        }
        itc.update(b.pc, b.target);
    };
    for chunk in chunks {
        instructions += u64::from(chunk.n_instr);
        if let Some(b) = &chunk.branch {
            c.branches += 1;
            match b.kind {
                BranchKind::CondDirect => {
                    c.cond += 1;
                    if bp.predict_and_update(b.pc, b.taken) != b.taken {
                        c.cond_miss += 1;
                    }
                }
                BranchKind::Call => ras.push(b.fall_through()),
                BranchKind::IndirectCall => {
                    ras.push(b.fall_through());
                    indirect(&mut itc, &mut c, b);
                }
                BranchKind::Indirect => indirect(&mut itc, &mut c, b),
                BranchKind::Return => {
                    if ras.pop() != Some(b.target) {
                        c.ras_miss += 1;
                    }
                }
                BranchKind::UncondDirect => {}
            }
        }
        if !warmed && instructions >= warmup {
            warmed = true;
            c = BranchCounts {
                branches: c.branches,
                ..BranchCounts::default()
            };
        }
    }
    c
}

/// One lane over the fetch groups: an I-cache access per group and,
/// with `btb`, a BTB lookup per taken branch; counters reset at warm-up
/// as the engine does.
fn lane_pass(
    pair: &mut FrontendPair,
    chunks: &[FetchChunk],
    warmup: u64,
    btb: bool,
) -> (CacheStats, BtbStats) {
    let mut instructions = 0u64;
    let mut warmed = warmup == 0;
    for chunk in chunks {
        instructions += u64::from(chunk.n_instr);
        if chunk.starts_group {
            let _ = pair.icache.access(chunk.block_addr, chunk.first_pc);
        }
        if btb {
            if let Some(b) = &chunk.branch {
                if b.taken {
                    let _ = pair.btb.lookup_and_update(b.pc, b.target);
                }
            }
        }
        if !warmed && instructions >= warmup {
            warmed = true;
            pair.icache.reset_stats();
            pair.btb.reset_stats();
        }
    }
    (pair.icache.stats(), pair.btb.stats())
}

/// A fresh paper-geometry lane of policy `p`.
fn pair_for(p: PolicyKind, base: &SimConfig) -> FrontendPair {
    build_pair(
        p,
        base.icache,
        base.btb_entries,
        base.btb_ways,
        base.ghrp,
        base.sdbp,
        base.seed,
        None,
        None,
    )
}

/// Per-round layer values, in a fixed order, merged across rounds.
struct Row(Vec<(String, &'static str, f64)>);

impl Row {
    fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push((name.into(), unit, value));
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Outcome of the traced run.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    pub first_mismatch: Option<String>,
}

/// Scheduler metrics of one untraced execution of the timed call.
pub fn schedule_metrics(sched: &SchedulerStats) -> Vec<Metric> {
    let busy: u64 = sched.per_worker.iter().map(|p| p.busy_ns).sum();
    let capacity = sched.workers as f64 * sched.wall_ns as f64;
    vec![
        Metric::exact(
            "schedule.utilization",
            "ratio",
            ratio(busy as f64, capacity),
        ),
        Metric::exact(
            "schedule.idle_s",
            "s",
            (capacity - busy as f64).max(0.0) / 1e9,
        ),
        Metric::exact("schedule.steals", "count", sched.steals as f64),
    ]
}

/// Run traced rounds until `seconds` have passed (at least one) and
/// return the per-layer metrics (medians over rounds).
pub fn run(w: Workload, inputs: &Inputs, seconds: f64, tracer: &mut Tracer) -> Traced {
    let t0 = Instant::now();
    let mut rows: Vec<Row> = Vec::new();
    let (mut attempted, mut failed, mut first_mismatch) = (0, 0, None);
    while rows.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let (row, bad, first) = traced_round(w, inputs, tracer);
        attempted += inputs.corpus.len();
        failed += bad;
        first_mismatch = first_mismatch.or(first);
        rows.push(row);
    }
    let metrics: Vec<Metric> = rows[0]
        .0
        .iter()
        .enumerate()
        .map(|(i, (name, unit, _))| {
            Metric::new(name.clone(), unit, rows.iter().map(|r| r.0[i].2).collect())
        })
        .collect();
    Traced {
        metrics,
        attempted,
        failed,
        first_mismatch,
    }
}

/// One traced round over every trace of the workload.
#[allow(clippy::too_many_lines)] // one pass per layer, in order; splitting scatters the span tree
fn traced_round(w: Workload, inputs: &Inputs, tracer: &mut Tracer) -> (Row, usize, Option<String>) {
    let base = SimConfig::paper_default();
    let block = base.icache.block_bytes();
    let geoms = [base.icache];
    let pols = w.policies();
    let lanes_of: Vec<PolicyKind> = LANES.iter().map(|&(s, _)| policy(s)).collect();
    let round_id = tracer.begin("round", None, None);
    let mut arena = EngineArena::new();

    // The same engine calls with no per-trace span: the tracing overhead
    // is the traced total against this.
    let id = tracer.begin("engine.untraced", Some(round_id), None);
    for trace in &inputs.corpus {
        black_box(run_lanes_multi(
            &base, &geoms, &pols, true, trace, &mut arena,
        ));
    }
    tracer.end(id);

    let mut records: Vec<BranchRecord> = Vec::new();
    let mut chunks: Vec<FetchChunk> = Vec::new();
    let (mut nrec, mut nchunks, mut groups, mut branches) = (0u64, 0u64, 0u64, 0u64);
    let mut taken = 0u64;
    let mut measured = BranchCounts::default();
    let mut icache = [CacheStats::default(); LANES.len()];
    let mut btb = [BtbStats::default(); LANES.len()];
    let mut ghrp = [0u64; 5];
    let mut sdbp = [0u64; 5];
    let (mut replayed, mut total, mut segments, mut est_error) = (0u64, 0u64, 0u64, 0.0f64);
    let (mut bad, mut first) = (0usize, None);

    for (t, trace) in inputs.corpus.iter().enumerate() {
        let task = tracer.begin("task", Some(round_id), Some(t));
        let warmup = (trace.instructions() / 2).min(base.warmup_cap);

        let fe = tracer.begin("frontend", Some(task), Some(t));
        let id = tracer.begin("trace.corpus.decode", Some(fe), Some(t));
        records.clear();
        records.extend(trace.cursor());
        tracer.end(id);
        let id = tracer.begin("trace.fetch", Some(fe), Some(t));
        chunks.clear();
        chunks.extend(FetchStream::new(records.iter().copied(), block));
        tracer.end(id);
        let id = tracer.begin("branch", Some(fe), Some(t));
        let bc = branch_pass(&chunks, warmup);
        tracer.end(id);
        tracer.end(fe);
        nrec += records.len() as u64;
        nchunks += chunks.len() as u64;
        groups += chunks.iter().filter(|c| c.starts_group).count() as u64;
        taken += chunks
            .iter()
            .filter(|c| c.branch.is_some_and(|b| b.taken))
            .count() as u64;
        branches += bc.branches;
        measured.cond += bc.cond;
        measured.cond_miss += bc.cond_miss;
        measured.indirect += bc.indirect;
        measured.indirect_miss += bc.indirect_miss;
        measured.ras_miss += bc.ras_miss;

        let lanes = tracer.begin("lanes", Some(task), Some(t));
        let mut per_lane = Vec::with_capacity(LANES.len());
        for (i, (&p, &(_, label))) in lanes_of.iter().zip(&LANES).enumerate() {
            let mut pair = pair_for(p, &base);
            let id = tracer.begin(format!("cache.{label}"), Some(lanes), Some(t));
            black_box(lane_pass(&mut pair, &chunks, warmup, false));
            tracer.end(id);
            let mut pair = pair_for(p, &base);
            let id = tracer.begin(format!("lane.{label}"), Some(lanes), Some(t));
            let (ic, bt) = lane_pass(&mut pair, &chunks, warmup, true);
            tracer.end(id);
            per_lane.push((ic, bt));
            match pair.icache.policy() {
                AnyPolicy::Ghrp(g) => {
                    let st = g.stats();
                    for (acc, v) in ghrp.iter_mut().zip([
                        st.dead_victims,
                        st.lru_victims,
                        st.bypasses,
                        st.false_dead_hits,
                        st.unpredicted_deaths,
                    ]) {
                        *acc += v;
                    }
                }
                AnyPolicy::Sdbp(p) => {
                    let st = p.stats();
                    for (acc, v) in sdbp.iter_mut().zip([
                        st.dead_victims,
                        st.lru_victims,
                        st.bypasses,
                        st.sampler_hits,
                        st.sampler_misses,
                    ]) {
                        *acc += v;
                    }
                }
                _ => {}
            }
            icache[i].accesses += ic.accesses;
            icache[i].misses += ic.misses;
            icache[i].bypasses += ic.bypasses;
            icache[i].evictions += ic.evictions;
            btb[i].lookups += bt.lookups;
            btb[i].misses += bt.misses;
        }
        tracer.end(lanes);

        let id = tracer.begin("engine.run_lanes_multi", Some(task), Some(t));
        let out = run_lanes_multi(&base, &geoms, &pols, true, trace, &mut arena);
        tracer.end(id);
        // The layer passes must reproduce the engine's per-lane counts.
        let mut ok = out
            .first()
            .and_then(|g| g.first())
            .is_some_and(|r| bc.matches(r));
        for (p, &pol) in pols.iter().enumerate() {
            let i = lanes_of
                .iter()
                .position(|&q| q == pol)
                .expect("every workload lane has a layer pass");
            let (ic, bt) = per_lane[i];
            let r = &out[0][p];
            ok &= r.icache == ic && r.btb_lookups == bt.lookups && r.btb_misses == bt.misses;
        }
        if !ok {
            bad += 1;
            first.get_or_insert_with(|| {
                format!("trace {t}: layer passes differ from run_lanes_multi")
            });
        }

        let sampled = tracer.begin("sampled", Some(task), Some(t));
        let id = tracer.begin("sampled.plan", Some(sampled), Some(t));
        let plan = build_plan(trace, &base, &SAMPLE);
        tracer.end(id);
        let id = tracer.begin("sampled.replay", Some(sampled), Some(t));
        black_box(run_lanes_sampled(
            &base,
            &geoms,
            &pols,
            true,
            trace,
            &plan.segments,
            &mut arena,
        ));
        tracer.end(id);
        tracer.end(sampled);
        replayed += plan.replayed_instructions;
        total += plan.total_instructions;
        segments += plan.segments.len() as u64;
        est_error = est_error.max(plan.est_error);
        tracer.end(task);
    }
    tracer.end(round_id);

    // Layer times: summed self time of this round's spans, by name.
    let self_ns = tracer.self_ns();
    let spans = &tracer.spans()[round_id..];
    let ns = |name: &str| -> f64 {
        spans
            .iter()
            .zip(&self_ns[round_id..])
            .filter(|(s, _)| s.name == name)
            .map(|(_, &n)| n as f64)
            .sum()
    };
    let frontend_ns = ns("trace.corpus.decode") + ns("trace.fetch") + ns("branch");
    let workload_lanes_ns: f64 = lanes_of
        .iter()
        .zip(&LANES)
        .filter(|(p, _)| pols.contains(p))
        .map(|(_, &(_, label))| ns(&format!("lane.{label}")))
        .sum();
    let engine_ns = ns("engine.run_lanes_multi");
    let nlanes = pols.len() as f64;
    let nrec_f = nrec as f64;

    let mut row = Row(Vec::new());
    row.push(
        "trace.corpus.decode_ns_per_rec",
        "ns",
        ratio(ns("trace.corpus.decode"), nrec_f),
    );
    row.push(
        "trace.fetch.ns_per_chunk",
        "ns",
        ratio(ns("trace.fetch"), nchunks as f64),
    );
    row.push("trace.fetch.groups", "count", groups as f64);
    row.push(
        "branch.ns_per_branch",
        "ns",
        ratio(ns("branch"), branches as f64),
    );
    row.push(
        "branch.cond_mispredict_ratio",
        "ratio",
        ratio(measured.cond_miss as f64, measured.cond as f64),
    );
    row.push(
        "branch.indirect_mispredict_ratio",
        "ratio",
        ratio(measured.indirect_miss as f64, measured.indirect as f64),
    );
    row.push("branch.ras_mispredicts", "count", measured.ras_miss as f64);
    for (i, &(_, label)) in LANES.iter().enumerate() {
        let c = &icache[i];
        row.push(
            format!("cache.{label}.ns_per_access"),
            "ns",
            ratio(ns(&format!("cache.{label}")), groups as f64),
        );
        row.push(
            format!("cache.{label}.miss_ratio"),
            "ratio",
            ratio(c.misses as f64, c.accesses as f64),
        );
        row.push(
            format!("cache.{label}.bypasses"),
            "count",
            c.bypasses as f64,
        );
        row.push(
            format!("cache.{label}.evictions"),
            "count",
            c.evictions as f64,
        );
    }
    for (i, name) in [
        "dead_victims",
        "lru_victims",
        "bypasses",
        "false_dead_hits",
        "unpredicted_deaths",
    ]
    .iter()
    .enumerate()
    {
        row.push(format!("ghrp.{name}"), "count", ghrp[i] as f64);
    }
    for (i, name) in [
        "dead_victims",
        "lru_victims",
        "bypasses",
        "sampler_hits",
        "sampler_misses",
    ]
    .iter()
    .enumerate()
    {
        row.push(format!("sdbp.{name}"), "count", sdbp[i] as f64);
    }
    for (i, &(_, label)) in LANES.iter().enumerate() {
        // The BTB's share of a lane: the I-cache+BTB pass less the
        // I-cache-only pass.
        let btb_ns = (ns(&format!("lane.{label}")) - ns(&format!("cache.{label}"))).max(0.0);
        row.push(
            format!("btb.{label}.ns_per_lookup"),
            "ns",
            ratio(btb_ns, taken as f64),
        );
        row.push(
            format!("btb.{label}.miss_ratio"),
            "ratio",
            ratio(btb[i].misses as f64, btb[i].lookups as f64),
        );
    }
    row.push("engine.ns_per_record", "ns", ratio(engine_ns, nrec_f));
    row.push(
        "engine.lane_ns_per_record",
        "ns",
        ratio(engine_ns - frontend_ns, nrec_f * nlanes),
    );
    row.push(
        "engine.unattributed_frac",
        "ratio",
        1.0 - ratio(frontend_ns + workload_lanes_ns, engine_ns),
    );
    row.push(
        "engine.frontend_self_frac",
        "ratio",
        ratio(frontend_ns, frontend_ns + workload_lanes_ns),
    );
    row.push(
        "engine.trace_overhead_frac",
        "ratio",
        ratio(engine_ns, ns("engine.untraced")) - 1.0,
    );
    row.push("sampled.plan_s", "s", ns("sampled.plan") / 1e9);
    row.push(
        "sampled.replayed_frac",
        "ratio",
        ratio(replayed as f64, total as f64),
    );
    row.push("sampled.segments", "count", segments as f64);
    row.push("sampled.est_error", "ratio", est_error);
    row.push(
        "sampled.replay_ns_per_instr",
        "ns",
        ratio(ns("sampled.replay"), replayed as f64),
    );
    (row, bad, first)
}
