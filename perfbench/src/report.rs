//! Summary statistics, the host record and the JSON the benchmark prints.

use serde_json::{json, Value};
use std::fmt::Write as _;
use std::process::Command;

/// One reported metric: every sample taken, reported as their median.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit,
            samples,
        }
    }

    /// A metric with a single exact value.
    pub fn exact(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::new(name, unit, vec![value])
    }

    pub fn value(&self) -> f64 {
        median(&self.samples)
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, as Python's `statistics.median`; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => f64::midpoint(v[n / 2 - 1], v[n / 2]),
    }
}

/// First and third quartile, as Python's
/// `statistics.quantiles(xs, n=4)` (the default exclusive method). With
/// fewer than two samples both are the median.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        let m = median(xs);
        return (m, m);
    }
    let m = len + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// `VmHWM` of this process (peak resident set), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset `VmHWM` to the current resident set (writes `5` to
/// `/proc/self/clear_refs`), so that a later [`peak_rss_mib`] covers only
/// what ran after this call. Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `/proc/loadavg`, trimmed.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map_or_else(|_| "unavailable".into(), |s| s.trim().to_owned())
}

/// Standard output of a command, or `unavailable`; waits for it to end.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable".into())
}

/// Where and on what a run was made, so that numbers from different
/// hosts are never compared blindly.
#[derive(Debug, Clone)]
pub struct Host {
    pub git_rev: String,
    pub rustc: String,
    pub cpu: String,
    pub nproc: usize,
    pub threads: usize,
    pub load_start: String,
    pub load_end: String,
}

impl Host {
    /// Record the host at the start of a run.
    pub fn record(threads: usize) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
            .unwrap_or_else(|| "unavailable".into());
        Host {
            git_rev: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
            rustc: command_line("rustc", &["--version"]),
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            threads,
            load_start: loadavg(),
            load_end: String::new(),
        }
    }

    pub fn to_json(&self) -> Value {
        json!({
            "git_rev": self.git_rev,
            "rustc": self.rustc,
            "cpu": self.cpu,
            "nproc": self.nproc,
            "threads": self.threads,
            "loadavg_start": self.load_start,
            "loadavg_end": self.load_end,
        })
    }
}

/// The one-line result the benchmark prints last.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| (m.name.clone(), json!({"value": m.value(), "unit": m.unit})))
        .collect();
    json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    })
    .to_string()
}

/// Every metric with its median, quartiles, sample count and samples.
pub fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let (q1, q3) = quartiles(&m.samples);
                let v = json!({
                    "median": m.value(),
                    "q1": q1,
                    "q3": q3,
                    "n": m.samples.len(),
                    "unit": m.unit,
                    "samples": m.samples,
                });
                (m.name.clone(), v)
            })
            .collect(),
    )
}

/// One human-readable line per metric: median, quartiles, sample count.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let (q1, q3) = quartiles(&m.samples);
        let _ = writeln!(
            out,
            "  {:<34} {:>14.6} {:<8} q1 {:.6}  q3 {:.6}  n={}",
            m.name,
            m.value(),
            m.unit,
            q1,
            q3,
            m.samples.len()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::float_cmp)] // exact values: the inputs are small integers
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
