//! Spans recorded from the benchmark's own code around calls into each
//! layer. They stay in memory until the run ends and are then written as
//! one JSON file.

use serde_json::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per span name; later ones are counted as dropped so a fast
/// workload cannot grow the span file without bound, and a busy boundary
/// cannot crowd out the others.
const MAX_SPANS_PER_NAME: usize = 50_000;

/// No parent span / no request / no layer.
pub const NONE: u64 = 0;

/// One timed call. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (≥ 1).
    pub id: u64,
    /// Id of the span that caused this one, or [`NONE`].
    pub parent: u64,
    /// Request id shared by every span of one served request, or [`NONE`].
    pub request: u64,
    /// Layer boundary the span covers, e.g. `serve.submit`.
    pub name: &'static str,
    /// Index into the run's layer names, or `u64::MAX` for none.
    pub layer: u64,
    /// Batch size or stage index the call ran with (0 when unused).
    pub arg: u64,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// Collects spans from every load thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    log: Mutex<Log>,
}

#[derive(Debug, Default)]
struct Log {
    spans: Vec<Span>,
    kept: HashMap<&'static str, usize>,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            log: Mutex::new(Log::default()),
        }
    }

    /// A fresh span or request id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// `t` as nanoseconds since the epoch.
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A span from `start` to `end`.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn span(
        &self,
        id: u64,
        parent: u64,
        request: u64,
        name: &'static str,
        layer: usize,
        arg: usize,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            id,
            parent,
            request,
            name,
            layer: layer as u64,
            arg: arg as u64,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        }
    }

    /// Moves a thread's spans into the run's log, up to the cap per name.
    pub fn absorb(&self, local: Vec<Span>) {
        let mut log = self
            .log
            .lock()
            .expect("a load thread panicked while tracing");
        for span in local {
            let kept = log.kept.entry(span.name).or_insert(0);
            if *kept < MAX_SPANS_PER_NAME {
                *kept += 1;
                log.spans.push(span);
            } else {
                log.dropped += 1;
            }
        }
    }

    /// The whole log as JSON: layer names, then one
    /// `[id, parent, request, name, layer, arg, start_ns, end_ns]` row per
    /// span, sorted by start time.
    #[must_use]
    pub fn to_json(&self, layers: &[String]) -> Value {
        let log = self
            .log
            .lock()
            .expect("a load thread panicked while tracing");
        let mut spans = log.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let layer_of = |s: &Span| {
            usize::try_from(s.layer)
                .ok()
                .and_then(|l| layers.get(l))
                .map_or(Value::Null, |n| Value::String(n.clone()))
        };
        let rows = spans
            .iter()
            .map(|s| {
                Value::Array(vec![
                    Value::UInt(s.id),
                    Value::UInt(s.parent),
                    Value::UInt(s.request),
                    Value::String(s.name.to_string()),
                    layer_of(s),
                    Value::UInt(s.arg),
                    Value::UInt(s.start_ns),
                    Value::UInt(s.end_ns),
                ])
            })
            .collect();
        Value::Object(vec![
            (
                "columns".into(),
                Value::Array(
                    [
                        "id", "parent", "request", "name", "layer", "arg", "start_ns", "end_ns",
                    ]
                    .iter()
                    .map(|c| Value::String((*c).to_string()))
                    .collect(),
                ),
            ),
            ("dropped".into(), Value::UInt(log.dropped)),
            ("spans".into(), Value::Array(rows)),
        ])
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}
