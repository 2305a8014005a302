//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Builds the workload's corpus from the seed, checks the simulator's
//! outputs against an off-clock reference, times rounds of the
//! workload's call for `--seconds`, and prints one line per metric and,
//! last, one JSON object. `--trace 1` makes a separate single-threaded
//! traced run instead and reports the per-layer metrics. See README.md.

mod calibrate;
mod layers;
mod report;
mod tracer;
mod workload;

use calibrate::Calibration;
use report::{Host, Metric};
use serde_json::json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use tracer::Tracer;
use workload::{Inputs, Reference, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The default workload seed (`2024` is the held-out seed).
const DEFAULT_SEED: u64 = 1;

const USAGE: &str =
    "usage: perfbench --workload <campaign|stream> [--seed N] [--seconds S] [--trace 0|1]";

/// Command-line options.
#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Corrupt one timed round's result before the output check (the
    /// self-check sets this to show that the check catches a mismatch).
    inject_mismatch: bool,
    /// Shrunken inputs (the self-check sets this).
    tiny: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Campaign,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        inject_mismatch: false,
        tiny: false,
    };
    let mut workload = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Everything one run reports.
struct RunOutput {
    host: Host,
    attempted: usize,
    failed: usize,
    first_mismatch: Option<String>,
    /// The metrics of the result line, in `BENCHMARK.json` order.
    metrics: Vec<Metric>,
    /// Further figures for the run record.
    extra: Vec<Metric>,
    tracer: Tracer,
}

impl RunOutput {
    fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.value().is_finite())
    }
}

/// What the set-ups of one run measured.
struct Setup {
    /// Calibrated seconds per set-up (see [`calibrate::REFERENCE_SECONDS`]).
    calibrated: Metric,
    /// Wall seconds per set-up.
    wall: Metric,
    /// Wall seconds of generation, encoding and verification.
    phases: Vec<Metric>,
}

/// Build the corpus `SETUP_REPS` times (the last one is kept), with the
/// calibration kernel before the first set-up and after each, and
/// return it with the set-up metrics. A set-up's calibrated time uses
/// the mean kernel time on either side of it.
fn setup(
    w: Workload,
    seed: u64,
    tiny: bool,
    calibration: &Calibration,
    tracer: &mut Tracer,
) -> Result<(Inputs, Setup), String> {
    let specs = w.specs(seed, tiny);
    let mut corpus = None;
    let mut total = Vec::new();
    let mut calibrated = Vec::new();
    let mut cal_before = calibration.seconds(1);
    let mut phases = [Vec::new(), Vec::new(), Vec::new()];
    let names = [
        "trace.synth.gen",
        "trace.corpus.encode",
        "trace.corpus.verify",
    ];
    for _ in 0..SETUP_REPS {
        drop(corpus.take());
        let since = tracer.spans().len();
        let t0 = Instant::now();
        corpus = Some(
            workload::setup(&specs, tracer).map_err(|e| format!("corpus set-up failed: {e}"))?,
        );
        let wall = t0.elapsed().as_secs_f64();
        let cal_after = calibration.seconds(1);
        total.push(wall);
        calibrated.push(wall * calibrate::REFERENCE_SECONDS / f64::midpoint(cal_before, cal_after));
        cal_before = cal_after;
        for (samples, name) in phases.iter_mut().zip(names) {
            let ns: u64 = tracer.spans()[since..]
                .iter()
                .filter(|s| s.name == name)
                .map(tracer::Span::duration_ns)
                .sum();
            samples.push(ns as f64 / 1e9);
        }
    }
    let setup = Setup {
        calibrated: Metric::new("setup_s", "s", calibrated),
        wall: Metric::new("setup_wall_s", "s", total),
        phases: phases
            .into_iter()
            .zip(names)
            .map(|(samples, name)| Metric::new(format!("{name}_s"), "s", samples))
            .collect(),
    };
    let corpus = corpus.ok_or("no set-up ran")?;
    Ok((Inputs { specs, corpus }, setup))
}

/// The end-to-end run: one checked, untimed warm-up round, then timed
/// rounds for `seconds` (at least two), each checked. The calibration
/// kernel runs after every round; a timed round's calibrated rate uses
/// the mean of the kernel times on either side of it.
fn timed(
    args: &Args,
    inputs: &Inputs,
    reference: &Reference,
    calibration: &Calibration,
    out: &mut RunOutput,
) {
    let w = args.workload;
    let traces = inputs.corpus.len();
    let lanes = w.policies().len();
    let lane_minstr = (inputs.instructions() * lanes as u64) as f64 / 1e6;
    let mut cal_before = 0.0;
    let mut cal_rates = Vec::new();
    let mut rates = Vec::new();
    let mut cal_ms = Vec::new();
    let mut rounds = 0usize;
    let t0 = Instant::now();
    loop {
        let warm_up = rounds == 0;
        if !warm_up && rates.len() >= 2 && t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| workload::round(w, inputs)));
        let wall = t.elapsed().as_secs_f64();
        let cal_after = calibration.seconds(w.threads());
        rounds += 1;
        out.attempted += traces;
        let Ok((mut rows, _)) = result else {
            out.failed += traces;
            out.first_mismatch
                .get_or_insert_with(|| format!("round {rounds} panicked"));
            break;
        };
        if !warm_up {
            if args.inject_mismatch && rates.len() == 1 {
                workload::corrupt(&mut rows);
            }
            cal_rates.push(lane_minstr * f64::midpoint(cal_before, cal_after) / wall);
            rates.push(lane_minstr / wall);
            cal_ms.push(cal_after * 1e3);
        }
        cal_before = cal_after;
        let (bad, first) = workload::mismatches(&rows, &reference.expected);
        out.failed += bad;
        if let Some(f) = first {
            out.first_mismatch
                .get_or_insert(format!("round {rounds}: {f}"));
        }
    }
    let (icache_pct, btb_pct) = reference.ghrp_vs_lru;
    out.metrics = vec![
        Metric::new("sim_minstr_per_cal", "Minstr/cal", cal_rates),
        Metric::exact("icache_mpki_ghrp_vs_lru_pct", "%", icache_pct),
        Metric::exact("btb_mpki_ghrp_vs_lru_pct", "%", btb_pct),
    ];
    out.extra.extend([
        Metric::new("sim_minstr_per_s", "Minstr/s", rates),
        Metric::new("calibration_ms", "ms", cal_ms),
    ]);
}

/// The traced run: one untraced, checked execution of the timed call
/// (it gives the scheduler metrics and the full side of the drift),
/// then single-threaded traced rounds.
fn traced(args: &Args, inputs: &Inputs, reference: &Reference, out: &mut RunOutput) {
    let w = args.workload;
    let id = out.tracer.begin("schedule", None, None);
    let (rows, sched) = workload::round(w, inputs);
    out.tracer.end(id);
    let (bad, first) = workload::mismatches(&rows, &reference.expected);
    out.attempted += inputs.corpus.len();
    out.failed += bad;
    out.first_mismatch = first.map(|f| format!("untraced round: {f}"));
    let (drift_icache, drift_btb) = workload::drift(w, inputs, &rows);

    let layers = layers::run(w, inputs, args.seconds, &mut out.tracer);
    out.attempted += layers.attempted;
    out.failed += layers.failed;
    out.first_mismatch = out.first_mismatch.take().or(layers.first_mismatch);
    out.metrics = layers.metrics;
    out.metrics.extend([
        Metric::exact("sampled.drift_icache_max", "ratio", drift_icache),
        Metric::exact("sampled.drift_btb_max", "ratio", drift_btb),
    ]);
    out.metrics.extend(layers::schedule_metrics(&sched));
}

fn run(args: &Args) -> Result<RunOutput, String> {
    let w = args.workload;
    let mut out = RunOutput {
        host: Host::record(w.threads()),
        attempted: 0,
        failed: 0,
        first_mismatch: None,
        metrics: Vec::new(),
        extra: Vec::new(),
        tracer: Tracer::default(),
    };
    let calibration = Calibration::new();
    let (inputs, setup) = setup(w, args.seed, args.tiny, &calibration, &mut out.tracer)?;
    // The reference's per-policy oracle materializes whole traces as
    // records, which the measured calls never do: the peak resident set
    // leaves it out. It is the larger of the set-up peak and the peak
    // over the rounds.
    let setup_peak = report::peak_rss_mib();
    let reference = workload::reference(w, &inputs, args.tiny);
    let reset = report::reset_peak_rss();
    if args.trace {
        traced(args, &inputs, &reference, &mut out);
    } else {
        timed(args, &inputs, &reference, &calibration, &mut out);
    }
    let rounds_peak = report::peak_rss_mib();
    let peak = Metric::exact("peak_rss_mib", "MiB", setup_peak.max(rounds_peak));
    if args.trace {
        let mut metrics = setup.phases;
        metrics.append(&mut out.metrics);
        out.metrics = metrics;
        out.extra.extend([setup.calibrated, setup.wall, peak]);
    } else {
        out.metrics.splice(1..1, [setup.calibrated, peak]);
        out.extra.push(setup.wall);
        out.extra.extend(setup.phases);
        out.extra.push(Metric::exact(
            "failed_ops_frac",
            "ratio",
            out.failed as f64 / out.attempted.max(1) as f64,
        ));
    }
    out.extra.extend([
        Metric::exact("setup_peak_rss_mib", "MiB", setup_peak),
        Metric::exact("rounds_peak_rss_mib", "MiB", rounds_peak),
        Metric::exact("peak_rss_reset", "bool", f64::from(u8::from(reset))),
        Metric::exact("reference_s", "s", reference.seconds),
    ]);
    out.host.load_end = report::loadavg();
    Ok(out)
}

/// Write the run record (and the spans of a traced run) under `out/`.
fn write_record(args: &Args, out: &RunOutput) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        if args.tiny { "-tiny" } else { "" }
    );
    let record = json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": u8::from(args.trace),
        "correct": out.correct(),
        "attempted": out.attempted,
        "failed": out.failed,
        "first_mismatch": out.first_mismatch,
        "host": out.host.to_json(),
        "metrics": report::metrics_json(&out.metrics),
        "extra": report::metrics_json(&out.extra),
    });
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, format!("{record}\n"))?;
    if args.trace {
        std::fs::write(
            dir.join(format!("{stem}.spans.jsonl")),
            out.tracer.to_jsonl(),
        )?;
    }
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench {} seed={} trace={} | host {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        out.host.to_json()
    );
    print!("{}", report::table(&out.metrics));
    print!("{}", report::table(&out.extra));
    if let Some(m) = &out.first_mismatch {
        println!("  output check FAILED: {m}");
    }
    match write_record(&args, &out) {
        Ok(path) => println!("  record: {path}"),
        Err(e) => eprintln!("perfbench: could not write the run record: {e}"),
    }
    println!(
        "{}",
        report::result_line(out.correct(), out.attempted, out.failed, &out.metrics)
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The benchmark's self-check, at tiny sizes (run with
/// `cargo test --release --offline --manifest-path perfbench/Cargo.toml`).
#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let Some(serde_json::Value::Array(items)) = json.get(list) else {
            panic!("BENCHMARK.json has a `{list}` array")
        };
        items
            .iter()
            .map(|item| {
                let field = |key: &str| match item.get(key) {
                    Some(serde_json::Value::Str(s)) => s.clone(),
                    _ => panic!("metric entry lacks `{key}`"),
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn tiny(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
            inject_mismatch: false,
            tiny: true,
        }
    }

    fn names(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_owned()))
            .collect()
    }

    #[test]
    fn every_workload_emits_every_end_to_end_metric() {
        let want = declared("end_to_end");
        for w in Workload::ALL {
            let out = run(&tiny(w, false)).expect("tiny run");
            assert!(out.correct(), "{}: {:?}", w.name(), out.first_mismatch);
            assert_eq!(names(&out.metrics), want, "{}", w.name());
            assert!(
                out.metrics.iter().all(|m| m.value() != 0.0),
                "{}: an end-to-end metric read 0",
                w.name()
            );
            let line = report::result_line(true, out.attempted, out.failed, &out.metrics);
            let parsed: serde_json::Value =
                serde_json::from_str(&line).expect("result line parses");
            assert!(matches!(parsed, serde_json::Value::Object(_)));
        }
    }

    #[test]
    fn traced_run_emits_every_layer_metric_and_linked_spans() {
        let want = declared("per_layer");
        for w in Workload::ALL {
            let out = run(&tiny(w, true)).expect("tiny traced run");
            assert!(out.correct(), "{}: {:?}", w.name(), out.first_mismatch);
            assert_eq!(names(&out.metrics), want, "{}", w.name());
            let spans = out.tracer.spans();
            assert!(spans.iter().any(|s| s.name == "engine.run_lanes_multi"));
            for s in spans {
                if let Some(p) = s.parent {
                    let parent = &spans[p];
                    assert!(
                        parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                        "span `{}` lies outside its parent `{}`",
                        s.name,
                        parent.name
                    );
                }
            }
            // Every per-trace layer span hangs off a task span.
            assert!(spans
                .iter()
                .filter(|s| s.name == "trace.corpus.decode")
                .all(|s| s.task.is_some() && s.parent.is_some()));
        }
    }

    #[test]
    fn injected_mismatch_is_caught() {
        for w in Workload::ALL {
            let mut args = tiny(w, false);
            args.inject_mismatch = true;
            let out = run(&args).expect("tiny run");
            assert!(out.failed > 0, "{}: the corrupted round passed", w.name());
            assert!(!out.correct());
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |v: &[&str]| parse_args(v.iter().map(|s| (*s).to_owned()));
        assert!(parse(&["--workload", "stream", "--seed", "3", "--trace", "1"]).is_ok());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "stream", "--trace", "2"]).is_err());
        assert!(parse(&["--seed", "3"]).is_err());
    }
}
