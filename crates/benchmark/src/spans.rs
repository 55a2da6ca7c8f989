//! Benchmark-side spans: one record per public call the benchmark makes
//! in the traced run (connect / frame / send / finish per stream,
//! `decode_with` per utterance, one span per layer probe), parented to the
//! operation that caused it.
//!
//! `rtm_trace::span` guards parent through a per-thread stack, which fits
//! nested calls but not the generator's interleaved streams, so spans are
//! collected here with explicit parents and handed to the existing
//! `rtm_trace` registry at exit — the registry's own spans (`serve.run`,
//! `serve.conn`) and `chrome_trace_json` then cover both. A span's `tid`
//! is its stream slot (offset by [`STREAM_TID_BASE`]), which puts every
//! stream on its own track in the Chrome trace; the root span carries the
//! workload's name.

use std::collections::BTreeMap;
use std::time::Instant;

use rtm_trace::SpanEvent;

/// Span ids handed out here start above anything the registry's own
/// counter reaches in a run.
const ID_BASE: u64 = 1 << 40;

/// `tid` of stream slot `s` is `STREAM_TID_BASE + s`; real threads keep the
/// registry's small ids.
pub const STREAM_TID_BASE: u64 = 1000;

/// An in-memory span list on the registry's clock.
#[derive(Debug)]
pub struct SpanLog {
    anchor: Instant,
    anchor_us: f64,
    spans: Vec<SpanEvent>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log anchored to the registry's monotonic epoch.
    pub fn new() -> SpanLog {
        SpanLog {
            anchor: Instant::now(),
            anchor_us: rtm_trace::global().now_us(),
            spans: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        match t.checked_duration_since(self.anchor) {
            Some(d) => self.anchor_us + d.as_secs_f64() * 1e6,
            None => self.anchor_us - self.anchor.duration_since(t).as_secs_f64() * 1e6,
        }
    }

    /// Records the closed interval `[start, end]` and returns its id.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
        tid: u64,
    ) -> u64 {
        let id = ID_BASE + self.spans.len() as u64;
        let start_us = self.us(start);
        self.spans.push(SpanEvent {
            id,
            parent,
            name,
            start_us,
            dur_us: (self.us(end) - start_us).max(0.0),
            tid,
        });
        id
    }

    /// Reserves an id for a span whose end is not known yet (a parent
    /// opened before its children); close it with [`SpanLog::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        tid: u64,
    ) -> u64 {
        self.add(name, parent, start, start, tid)
    }

    /// Sets the end of a span returned by [`SpanLog::open`].
    pub fn close(&mut self, id: u64, end: Instant) {
        let end_us = self.us(end);
        if let Some(ev) = self.spans.get_mut((id - ID_BASE) as usize) {
            ev.dur_us = (end_us - ev.start_us).max(0.0);
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    /// Hands every span to the process registry (so
    /// `Registry::chrome_trace_json` renders them beside the product's own)
    /// and empties the log.
    pub fn publish(&mut self) {
        let reg = rtm_trace::global();
        for ev in self.spans.drain(..) {
            reg.push_span(ev);
        }
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: usize,
    /// Sum of their durations, µs.
    pub total_us: f64,
    /// Sum of their self times, µs.
    pub self_us: f64,
}

/// A span's self time is its duration minus the part of its interval its
/// child spans cover (overlapping children are counted once, and a child
/// running past its parent's end only counts up to it). Returns the totals
/// by span name.
pub fn self_times(spans: &[SpanEvent]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for ev in spans {
        if let Some(p) = ev.parent {
            children
                .entry(p)
                .or_default()
                .push((ev.start_us, ev.start_us + ev.dur_us));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for ev in spans {
        let (lo, hi) = (ev.start_us, ev.start_us + ev.dur_us);
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&ev.id) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cursor = lo;
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(cursor), e.min(hi));
                if e > s {
                    covered += e - s;
                    cursor = e;
                }
            }
        }
        let row = out.entry(ev.name).or_default();
        row.count += 1;
        row.total_us += ev.dur_us;
        row.self_us += ev.dur_us - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(id: u64, parent: Option<u64>, name: &'static str, start: f64, dur: f64) -> SpanEvent {
        SpanEvent {
            id,
            parent,
            name,
            start_us: start,
            dur_us: dur,
            tid: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            ev(1, None, "op", 0.0, 100.0),
            // Two overlapping children cover [10, 50] once.
            ev(2, Some(1), "child", 10.0, 30.0),
            ev(3, Some(1), "child", 30.0, 20.0),
            // A child that outlives its parent counts only up to its end.
            ev(4, Some(1), "late", 90.0, 50.0),
            // A grandchild subtracts from its own parent, not from `op`.
            ev(5, Some(2), "leaf", 12.0, 5.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["op"].count, 1);
        assert_eq!(t["op"].total_us, 100.0);
        assert_eq!(t["op"].self_us, 100.0 - 40.0 - 10.0);
        assert_eq!(t["child"].count, 2);
        assert_eq!(t["child"].total_us, 50.0);
        assert_eq!(t["child"].self_us, 50.0 - 5.0);
        assert_eq!(t["late"].self_us, 50.0);
        assert_eq!(t["leaf"].self_us, 5.0);
    }

    #[test]
    fn log_assigns_parents_and_closes_open_spans() {
        let mut log = SpanLog::new();
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_micros(500);
        let t2 = t0 + std::time::Duration::from_micros(900);
        let root = log.open("root", None, t0, 0);
        let kid = log.add("kid", Some(root), t0, t1, STREAM_TID_BASE + 3);
        log.close(root, t2);
        assert_ne!(root, kid);
        let spans = log.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].tid, STREAM_TID_BASE + 3);
        assert!((spans[0].dur_us - 900.0).abs() < 1e-6);
        assert!((spans[1].dur_us - 500.0).abs() < 1e-6);
        let t = self_times(spans);
        assert!((t["root"].self_us - 400.0).abs() < 1e-6);
    }
}
