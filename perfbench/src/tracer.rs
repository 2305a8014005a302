//! In-memory spans, recorded by the benchmark around its own calls into
//! each crate (the program itself carries no instrumentation).

use serde_json::json;
use std::time::Instant;

/// One timed interval. `task` is the trace index for per-trace spans.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub task: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Wall nanoseconds between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; a span's id is its index.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// Open a span and return its id.
    pub fn begin(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        task: Option<usize>,
    ) -> usize {
        let start_ns = nanos(self.epoch.elapsed());
        self.spans.push(Span {
            name: name.into(),
            parent,
            task,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close span `id` and return its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        let end_ns = nanos(self.epoch.elapsed());
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover. Children of one span never overlap (the traced
    /// run is single-threaded), so that part is their summed duration.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Spans as JSON lines: id, name, parent, task, start, end, self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let line = json!({
                "id": id,
                "name": s.name,
                "parent": s.parent,
                "task": s.task,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "self_ns": self_ns,
            });
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}
