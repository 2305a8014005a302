//! The two workloads: inputs generated from the seed, the call each
//! timed round makes, the off-clock reference its results must match,
//! and the simulated (exact) end-to-end figures.

use crate::tracer::Tracer;
use fe_frontend::experiment::{run_suite_from, SuiteSource, TraceRow};
use fe_frontend::sampled::{run_suite_sampled, SampleParams};
use fe_frontend::schedule::SchedulerStats;
use fe_frontend::{PolicyKind, RunResult, SimConfig, Simulator};
use fe_trace::corpus::{Corpus, CorpusBuilder, CorpusTrace, SuiteCorpus};
use fe_trace::synth::{suite, WorkloadSpec};
use std::time::Instant;

/// The campaign's nine lanes, as `PolicyKind::parse` spells them, with
/// the short label each per-layer metric name uses.
pub const LANES: [(&str, &str); 9] = [
    ("lru", "lru"),
    ("fifo", "fifo"),
    ("random", "random"),
    ("srrip", "srrip"),
    ("drrip", "drrip"),
    ("sdbp", "sdbp"),
    ("ghrp", "ghrp"),
    ("duel(ghrp,srrip,sdbp)", "duel"),
    ("phase(ghrp,srrip;window=8192)", "phase"),
];

/// Sampling parameters of the traced run's sampled layer (`w32,k4,u2048`).
pub const SAMPLE: SampleParams = SampleParams {
    windows: 32,
    k: 4,
    warmup: 2048,
};

/// The GHRP-versus-LRU comparison runs over a fixed suite,
/// `synth::suite(64, 1)` at 1M instructions, whatever the workload and
/// seed: the figure then depends on the simulator alone, and any change
/// of it is a change of the model's output.
const ACCURACY_TRACES: usize = 64;
const ACCURACY_SEED: u64 = 1;
const ACCURACY_INSTRUCTIONS: u64 = 1_000_000;

/// Threads of the off-clock reference work (at most the host's two CPUs,
/// like the timed calls).
const REFERENCE_THREADS: usize = 2;

/// Relative drift of a sampled estimate, denominator floored at 1 MPKI.
fn rel_drift(sampled: f64, full: f64) -> f64 {
    (sampled - full).abs() / full.max(1.0)
}

/// Parse one of the [`LANES`] spellings.
///
/// # Panics
///
/// Panics if the spelling is not a valid policy (a bug in [`LANES`]).
pub fn policy(spelling: &str) -> PolicyKind {
    PolicyKind::parse(spelling).expect("LANES spells valid policies")
}

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every policy over a 16-trace suite at the paper geometry.
    Campaign,
    /// One SRRIP lane over four long traces: the shared front end
    /// dominates.
    Stream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Campaign, Workload::Stream];

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Stream => "stream",
        }
    }

    /// Scheduler threads of the timed call.
    pub fn threads(self) -> usize {
        match self {
            Workload::Campaign => 2,
            Workload::Stream => 1,
        }
    }

    /// The synthetic traces, from the seed. `tiny` shrinks them for the
    /// self-check (fewer traces, 1/16 of the instructions).
    pub fn specs(self, seed: u64, tiny: bool) -> Vec<WorkloadSpec> {
        let (n, instructions) = match self {
            Workload::Campaign => (16, 1_000_000),
            Workload::Stream => (4, 8_000_000),
        };
        let (n, instructions) = if tiny {
            (n.min(4), instructions / 16)
        } else {
            (n, instructions)
        };
        suite(n, seed)
            .into_iter()
            .map(|s| s.instructions(instructions))
            .collect()
    }

    /// The replacement-policy lanes of the timed call, all at the paper
    /// geometry.
    pub fn policies(self) -> Vec<PolicyKind> {
        match self {
            Workload::Campaign => LANES.iter().map(|&(s, _)| policy(s)).collect(),
            Workload::Stream => vec![PolicyKind::Srrip],
        }
    }
}

/// The encoded inputs of one workload.
pub struct Inputs {
    pub specs: Vec<WorkloadSpec>,
    pub corpus: SuiteCorpus,
}

impl Inputs {
    /// Instructions over every trace.
    pub fn instructions(&self) -> u64 {
        self.corpus.iter().map(CorpusTrace::instructions).sum()
    }
}

/// Generate, encode and verify the corpus (signature sidecars
/// included), with one span per step under a `setup` span.
///
/// # Errors
///
/// Returns the corpus error if encoding or verification fails.
pub fn setup(
    specs: &[WorkloadSpec],
    tracer: &mut Tracer,
) -> Result<SuiteCorpus, fe_trace::TraceError> {
    let root = tracer.begin("setup", None, None);
    let mut builder = CorpusBuilder::new();
    for (t, spec) in specs.iter().enumerate() {
        let id = tracer.begin("trace.synth.gen", Some(root), Some(t));
        let trace = spec.generate();
        tracer.end(id);
        let id = tracer.begin("trace.corpus.encode", Some(root), Some(t));
        builder.push_synthetic(&trace)?;
        tracer.end(id);
    }
    let id = tracer.begin("trace.corpus.encode", Some(root), None);
    let bytes = builder.finish();
    tracer.end(id);
    let id = tracer.begin("trace.corpus.verify", Some(root), None);
    let corpus = SuiteCorpus::from_corpus(&Corpus::from_bytes(bytes)?);
    tracer.end(id);
    tracer.end(root);
    Ok(corpus)
}

/// Traces whose row in `got` differs from `expected`, with a
/// description of the first difference.
pub fn mismatches(got: &[TraceRow], expected: &[TraceRow]) -> (usize, Option<String>) {
    let bad: Vec<usize> = (0..expected.len())
        .filter(|&t| got.get(t) != expected.get(t))
        .collect();
    let first = bad
        .first()
        .map(|&t| format!("trace {t} ({}) row differs", expected[t].name));
    (bad.len(), first)
}

/// Flip the lowest bit of one simulated value: the benchmark-side
/// mismatch the output check must catch.
pub fn corrupt(rows: &mut [TraceRow]) {
    if let Some(v) = rows.first_mut().and_then(|r| r.icache_mpki.first_mut()) {
        *v = f64::from_bits(v.to_bits() ^ 1);
    }
}

/// One execution of the workload's timed call.
pub fn round(w: Workload, inputs: &Inputs) -> (Vec<TraceRow>, SchedulerStats) {
    let r = run_suite_from(
        &inputs.specs,
        &SimConfig::paper_default(),
        &w.policies(),
        w.threads(),
        SuiteSource::Corpus(&inputs.corpus),
    );
    (r.rows, r.scheduler)
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

/// The off-clock reference of a workload.
pub struct Reference {
    /// The rows every round must equal.
    pub expected: Vec<TraceRow>,
    /// GHRP's suite-mean MPKI as a percentage of LRU's over the fixed
    /// accuracy suite, `(icache, btb)`: 100 is parity, below 100 GHRP
    /// misses less (Figs. 6 and 10 plot the same comparison as a
    /// reduction).
    pub ghrp_vs_lru: (f64, f64),
    /// Host seconds the reference took (off the clock).
    pub seconds: f64,
}

/// Per-lane results of the independent per-policy `Simulator` for every
/// trace (`out[trace][policy]`).
fn oracle(inputs: &Inputs, policies: &[PolicyKind]) -> Vec<Vec<RunResult>> {
    let base = SimConfig::paper_default();
    let n = inputs.corpus.len();
    let threads = REFERENCE_THREADS;
    let mut out: Vec<Vec<RunResult>> = vec![Vec::new(); n];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                let corpus = &inputs.corpus;
                scope.spawn(move || {
                    (k..n)
                        .step_by(threads)
                        .map(|t| {
                            let trace = corpus.trace(t);
                            let records: Vec<_> = trace.cursor().collect();
                            let results = policies
                                .iter()
                                .map(|&p| {
                                    Simulator::new(base.with_policy(p))
                                        .run(&records, trace.instructions())
                                })
                                .collect();
                            (t, results)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (t, results) in h.join().expect("oracle worker panicked") {
                out[t] = results;
            }
        }
    });
    out
}

/// The row `run_suite_from` builds from one trace's lane results.
fn row_from(spec: &WorkloadSpec, results: &[RunResult]) -> TraceRow {
    TraceRow {
        name: spec.name.clone(),
        category: spec.category,
        instructions: results.first().map_or(0, |r| r.instructions),
        icache_mpki: results.iter().map(RunResult::icache_mpki).collect(),
        btb_mpki: results.iter().map(RunResult::btb_mpki).collect(),
        branch_mpki: results.first().map_or(0.0, RunResult::branch_mpki),
    }
}

/// GHRP's suite-mean I-cache and BTB MPKI as percentages of LRU's, by
/// full replay at the paper geometry over the fixed accuracy suite
/// (streamed, so it adds no corpus).
fn ghrp_vs_lru(tiny: bool) -> (f64, f64) {
    let (n, instructions) = if tiny {
        (4, ACCURACY_INSTRUCTIONS / 16)
    } else {
        (ACCURACY_TRACES, ACCURACY_INSTRUCTIONS)
    };
    let specs: Vec<WorkloadSpec> = suite(n, ACCURACY_SEED)
        .into_iter()
        .map(|s| s.instructions(instructions))
        .collect();
    let r = run_suite_from(
        &specs,
        &SimConfig::paper_default(),
        &[PolicyKind::Lru, PolicyKind::Ghrp],
        REFERENCE_THREADS,
        SuiteSource::Streamed,
    );
    let (i, b) = (r.icache_means(), r.btb_means());
    (i[1] / i[0] * 100.0, b[1] / b[0] * 100.0)
}

/// Compute the workload's reference off the clock: the per-policy
/// `Simulator` oracle for every lane, and the GHRP-versus-LRU comparison.
pub fn reference(w: Workload, inputs: &Inputs, tiny: bool) -> Reference {
    let t0 = Instant::now();
    let policies = w.policies();
    let results = oracle(inputs, &policies);
    let expected = inputs
        .specs
        .iter()
        .zip(&results)
        .map(|(spec, r)| row_from(spec, r))
        .collect();
    Reference {
        expected,
        ghrp_vs_lru: ghrp_vs_lru(tiny),
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Worst relative drift of sampled (`w32,k4,u2048`) against full replay
/// over the workload's lanes: `(icache, btb)`. `full` is the checked
/// outcome of a round.
pub fn drift(w: Workload, inputs: &Inputs, full: &[TraceRow]) -> (f64, f64) {
    let policies = w.policies();
    let sampled = run_suite_sampled(
        &inputs.specs,
        &SimConfig::paper_default(),
        &policies,
        REFERENCE_THREADS,
        &inputs.corpus,
        &SAMPLE,
    );
    let (mut icache, mut btb) = (0.0f64, 0.0f64);
    for p in 0..policies.len() {
        let f_i = mean(full.iter().map(|r| r.icache_mpki[p]));
        let f_b = mean(full.iter().map(|r| r.btb_mpki[p]));
        icache = icache.max(rel_drift(
            mean(sampled.rows.iter().map(|r| r.icache_mpki[p])),
            f_i,
        ));
        btb = btb.max(rel_drift(
            mean(sampled.rows.iter().map(|r| r.btb_mpki[p])),
            f_b,
        ));
    }
    (icache, btb)
}
