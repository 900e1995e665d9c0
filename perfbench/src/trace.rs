//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out when the run ends.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Keys the call carried.
    pub keys: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span sink. A disabled tracer records nothing and costs one branch;
/// it can be switched on and off while a run is in progress.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            on: AtomicBool::new(on),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the epoch (the span clock).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id (0 when disabled).
    pub fn next_id(&self) -> u64 {
        if self.enabled() {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record a finished span.
    pub fn record(&self, span: Span) {
        if self.enabled() {
            self.spans.lock().expect("span lock poisoned by a panicking recorder").push(span);
        }
    }

    /// Time `f` as span `name` under `parent`, returning its result.
    pub fn span<T>(&self, name: &'static str, parent: u64, keys: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let id = self.next_id();
        let start_ns = self.now_ns();
        let out = f();
        self.record(Span { id, parent, name, start_ns, end_ns: self.now_ns(), keys });
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span lock poisoned by a panicking recorder").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"keys\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.keys
            )?;
        }
        w.flush()?;
        Ok(spans.len())
    }
}

/// Disjoint, sorted union of `[start, end)` intervals.
pub fn union(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Length of `[start, end)` covered by a disjoint sorted `cover`.
pub fn covered(cover: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let first = cover.partition_point(|&(_, e)| e <= start);
    cover[first..]
        .iter()
        .take_while(|&&(s, _)| s < end)
        .map(|&(s, e)| e.min(end).saturating_sub(s.max(start)))
        .sum()
}

/// Self time of each parent span: its duration minus the part of its
/// interval that any child covers. Overlapping children count once.
pub fn self_times(parents: &[(u64, u64)], children: &[(u64, u64)]) -> Vec<u64> {
    let cover = union(children.to_vec());
    parents.iter().map(|&(s, e)| (e - s) - covered(&cover, s, e)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let one = |parent, children: &[(u64, u64)]| self_times(&[parent], children)[0];
        // Parent 0..100; children 10..40 and 30..60 overlap on 30..40.
        assert_eq!(one((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child nested inside another adds nothing.
        assert_eq!(one((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children reaching outside the parent are clipped to it.
        assert_eq!(one((50, 100), &[(0, 60), (90, 200)]), 30);
        // Disjoint children and no children.
        assert_eq!(one((0, 100), &[(0, 10), (90, 100)]), 80);
        assert_eq!(one((0, 100), &[]), 100);
        // Touching children merge without a gap.
        assert_eq!(union(vec![(5, 10), (0, 5)]), vec![(0, 10)]);
        // Several parents share one child set, as concurrent calls share
        // the backend spans of one flush.
        assert_eq!(self_times(&[(0, 50), (40, 100)], &[(30, 45), (44, 70)]), vec![30, 30]);
    }

    #[test]
    fn covered_finds_partial_overlaps() {
        let cover = union(vec![(0, 10), (20, 30), (40, 50)]);
        assert_eq!(covered(&cover, 5, 45), 5 + 10 + 5);
        assert_eq!(covered(&cover, 10, 20), 0);
        assert_eq!(covered(&cover, 60, 70), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, 1, || 7), 7);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let parent = t.next_id();
        t.span("child", parent, 3, || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].parent, spans[0].keys, spans[0].name), (parent, 3, "child"));
    }
}
