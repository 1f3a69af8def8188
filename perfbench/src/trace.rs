//! In-memory spans for the traced run.
//!
//! A span is a named interval with a parent; spans are recorded from the
//! benchmark's own code around its calls into each layer, kept in memory
//! while the run measures, and written out once it ends.

use std::time::Instant;

use alf_obs::json::JsonWriter;

/// Identifier of a recorded span (its index).
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Append-only span store for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes `id` and returns its duration in milliseconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 / 1e6
    }

    /// Records an interval measured elsewhere, in nanoseconds on this
    /// tracer's clock.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as `[name, parent, start_ns, end_ns]` rows under
    /// `key` (parent `-1` for a root).
    pub fn write_json(&self, key: &str, w: &mut JsonWriter) {
        w.key(key);
        w.begin_array();
        for s in &self.spans {
            w.begin_array();
            w.value_str(s.name);
            w.value_i64(s.parent.map_or(-1, |p| p as i64));
            w.value_u64(s.start_ns);
            w.value_u64(s.end_ns);
            w.end_array();
        }
        w.end_array();
    }
}
