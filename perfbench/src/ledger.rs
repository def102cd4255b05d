//! The benchmark-owned trace sink: it folds the spans, counters, cache
//! events and request completions the program already emits into totals
//! the per-layer metrics are computed from.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use air_trace::{Event, EventKind, Sink, Tracer};

/// Totals over every event recorded since the last [`LayerSink::take`].
#[derive(Debug, Default)]
pub struct Totals {
    /// Span name → total nanoseconds.
    pub span_ns: BTreeMap<String, u64>,
    /// Counter name → summed deltas.
    pub counters: BTreeMap<String, u64>,
    /// `(table, outcome)` → events, outcome one of `hit`/`miss`/`bypass`.
    pub cache: BTreeMap<(&'static str, &'static str), u64>,
    /// Event kind → events.
    pub kinds: BTreeMap<&'static str, u64>,
    /// Served request id → `request_completed` duration (ns).
    pub completed_ns: HashMap<String, u64>,
}

impl Totals {
    pub fn span_ms(&self, phase: &str) -> f64 {
        self.span_ns.get(phase).copied().unwrap_or(0) as f64 / 1e6
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn cache(&self, table: &str, outcome: &str) -> u64 {
        self.cache
            .iter()
            .filter(|((t, o), _)| *t == table && *o == outcome)
            .map(|(_, n)| n)
            .sum()
    }

    pub fn kind(&self, kind: &str) -> u64 {
        self.kinds.get(kind).copied().unwrap_or(0)
    }

    /// Adds `other`'s totals to these.
    pub fn merge(&mut self, other: Totals) {
        fn add<K: Ord>(into: &mut BTreeMap<K, u64>, from: BTreeMap<K, u64>) {
            for (k, v) in from {
                *into.entry(k).or_default() += v;
            }
        }
        add(&mut self.span_ns, other.span_ns);
        add(&mut self.counters, other.counters);
        add(&mut self.cache, other.cache);
        add(&mut self.kinds, other.kinds);
        self.completed_ns.extend(other.completed_ns);
    }
}

/// Aggregating sink; clone the [`tracer`](LayerSink::tracer) into the
/// engines under measurement.
#[derive(Default)]
pub struct LayerSink {
    totals: Mutex<Totals>,
}

impl LayerSink {
    pub fn new() -> Arc<LayerSink> {
        Arc::new(LayerSink::default())
    }

    pub fn tracer(self: &Arc<Self>) -> Tracer {
        Tracer::new(Arc::clone(self) as Arc<dyn Sink>)
    }

    /// Returns and resets the totals.
    pub fn take(&self) -> Totals {
        std::mem::take(&mut *self.totals.lock().expect("sink lock is never poisoned"))
    }
}

impl Sink for LayerSink {
    fn record(&self, event: &Event) {
        let mut t = self.totals.lock().expect("sink lock is never poisoned");
        *t.kinds.entry(event.kind.kind_name()).or_default() += 1;
        match &event.kind {
            EventKind::SpanExit { phase, duration_ns } => {
                *t.span_ns.entry(phase.clone()).or_default() += duration_ns;
            }
            EventKind::Counter { name, delta } => {
                *t.counters.entry(name.clone()).or_default() += delta;
            }
            EventKind::CacheHit { table } => *t.cache.entry((table, "hit")).or_default() += 1,
            EventKind::CacheMiss { table } => *t.cache.entry((table, "miss")).or_default() += 1,
            EventKind::CacheBypass { table } => *t.cache.entry((table, "bypass")).or_default() += 1,
            EventKind::RequestCompleted {
                id, duration_ns, ..
            } => {
                t.completed_ns.insert(id.clone(), *duration_ns);
            }
            _ => {}
        }
    }

    /// Span durations are measured by the spans themselves; the sink
    /// needs no per-event clock read.
    fn wants_timestamps(&self) -> bool {
        false
    }
}
