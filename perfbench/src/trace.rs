//! Counters and spans recorded at layer boundaries.
//!
//! Counters are lock-free atomics shared by the threads that cross a
//! boundary. Spans are coarse (per migration, per engine call, per
//! transport send or receive), kept in memory and written once when the
//! run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Calls made across one boundary and the time spent in them.
#[derive(Debug, Default)]
pub struct Op {
    count: AtomicU64,
    nanos: AtomicU64,
}

impl Op {
    /// Count one call that took `d`.
    pub fn record(&self, d: Duration) {
        self.add(1, d);
    }

    /// Add `count` to the count and `d` to the time.
    pub fn add(&self, count: u64, d: Duration) {
        // Statistics only: no other data is published through these.
        self.count.fetch_add(count, Ordering::Relaxed);
        self.nanos.fetch_add(
            u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }

    /// Calls counted.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Seconds spent in the counted calls.
    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// One timed interval at a layer boundary. `migration` identifies the
/// migration unit that caused it, so all spans of one migration share it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Boundary name, e.g. `simnet.src.send`.
    pub layer: &'static str,
    /// Migration unit the span belongs to.
    pub migration: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Span sink for one run. Spans beyond `cap` are counted, not kept, so
/// memory stays bounded.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    migration: AtomicU32,
    cap: usize,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Tracer {
    /// A tracer keeping at most `cap` spans.
    pub fn new(cap: usize) -> Self {
        Self {
            epoch: Instant::now(),
            migration: AtomicU32::new(0),
            cap,
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Attribute the spans that follow to migration unit `id`.
    pub fn begin_migration(&self, id: u32) {
        self.migration.store(id, Ordering::Relaxed);
    }

    /// Record the interval `start..end` for `layer`.
    pub fn span(&self, layer: &'static str, start: Instant, end: Instant) {
        let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let span = Span {
            layer,
            migration: self.migration.load(Ordering::Relaxed),
            start_ns: nanos(start.saturating_duration_since(self.epoch)),
            dur_ns: nanos(end.saturating_duration_since(start)),
        };
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        if spans.len() < self.cap {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spans kept so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }

    /// Spans not kept because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Write every kept span to `path` as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                w,
                "{{\"layer\":\"{}\",\"migration\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.layer, s.migration, s.start_ns, s.dur_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_accumulates_count_and_time() {
        let op = Op::default();
        op.record(Duration::from_millis(2));
        op.record(Duration::from_millis(3));
        assert_eq!(op.count(), 2);
        assert!((op.secs() - 0.005).abs() < 1e-12);
    }

    #[test]
    fn tracer_caps_spans_and_tags_migrations() {
        let t = Tracer::new(2);
        t.begin_migration(4);
        let now = Instant::now();
        for _ in 0..3 {
            t.span("x", now, now);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].migration, 4);
        assert_eq!(t.dropped(), 1);
    }
}
