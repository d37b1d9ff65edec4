//! In-memory spans recorded by the traced run around calls into each layer,
//! written out as Chrome-trace JSON when the run ends.
//!
//! Spans are opened and closed only from the benchmark's own files; spans
//! inside the product are a later change (choosing-metrics §4).

use serde::Value;
use std::time::Instant;

/// One recorded interval. `parent` indexes [`Spans::all`]; `batch` ties the
/// spans of one replayed batch (or stream window) together.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub batch: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; `origin` is the zero of every timestamp.
pub struct Spans {
    origin: Instant,
    pub all: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            all: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; it has zero length until [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, batch: Option<u64>) -> usize {
        let start_ns = self.now_ns();
        self.all.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
        });
        self.all.len() - 1
    }

    /// Close span `id` now and return its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        self.all[id].end_ns = self.now_ns();
        self.all[id].dur_ns() as f64 * 1e-9
    }

    /// Time `f` as a span and return `(span id, result)`.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        batch: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let id = self.open(name, parent, batch);
        let r = f();
        self.close(id);
        (id, r)
    }

    /// Seconds of span `id`.
    pub fn secs(&self, id: usize) -> f64 {
        self.all[id].dur_ns() as f64 * 1e-9
    }

    /// Lay a *replayed* child of `secs` seconds inside `parent`: the call it
    /// stands for ran after the parent ended, on the parent's own inputs.
    /// The child starts where the children already there end (clipped to
    /// the parent's end), so the trace nests and the parent's self time is
    /// what its replayed children do not cover.
    pub fn replayed_child(&mut self, name: &'static str, parent: usize, secs: f64) {
        let p = &self.all[parent];
        let (p_end, batch) = (p.end_ns, p.batch);
        let start_ns = self
            .all
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(p.start_ns)
            .min(p_end);
        self.all.push(Span {
            name,
            start_ns,
            end_ns: (start_ns + (secs * 1e9) as u64).min(p_end),
            parent: Some(parent),
            batch,
        });
    }

    /// A span's duration minus the part of its interval its direct children
    /// cover (overlapping children are not counted twice).
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let p = &self.all[id];
        let mut kids: Vec<(u64, u64)> = self
            .all
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = p.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        p.dur_ns() - covered
    }

    /// Chrome-trace ("Trace Event") JSON: one complete event per span.
    pub fn chrome_trace(&self) -> Value {
        let events = self
            .all
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![("id".to_string(), Value::Int(id as i128))];
                if let Some(p) = s.parent {
                    args.push(("parent".into(), Value::Int(p as i128)));
                }
                if let Some(b) = s.batch {
                    args.push(("batch_id".into(), Value::Int(b as i128)));
                }
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::Float(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Value::Float(s.dur_ns() as f64 / 1e3)),
                    ("pid".into(), Value::Int(1)),
                    ("tid".into(), Value::Int(1)),
                    ("args".into(), Value::Map(args)),
                ])
            })
            .collect();
        Value::Map(vec![("traceEvents".into(), Value::Seq(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, a: u64, b: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            batch: None,
        }
    }

    #[test]
    fn self_time_subtracts_child_cover_once() {
        let mut s = Spans::new();
        s.all = vec![
            span("parent", 100, 200, None),
            span("a", 110, 130, Some(0)),
            span("b", 120, 150, Some(0)),     // overlaps a by 10
            span("c", 190, 260, Some(0)),     // clipped to the parent's end
            span("other", 0, 1000, None),     // not a child
            span("grand", 111, 112, Some(1)), // not a direct child
        ];
        // cover = [110,150) ∪ [190,200) = 50
        assert_eq!(s.self_time_ns(0), 50);
        assert_eq!(s.self_time_ns(1), 19);
        assert_eq!(s.self_time_ns(4), 1000);
    }

    #[test]
    fn replayed_children_tile_the_parent_from_its_start() {
        let mut s = Spans::new();
        s.all = vec![span("try_infer", 1_000_000_000, 3_000_000_000, None)];
        s.all[0].batch = Some(7);
        s.replayed_child("expand", 0, 0.25);
        s.replayed_child("gemm", 0, 0.5);
        assert_eq!(s.all[1].start_ns, 1_000_000_000);
        assert_eq!(s.all[2].start_ns, s.all[1].end_ns);
        assert_eq!(s.all[1].batch, Some(7));
        assert_eq!(s.self_time_ns(0), 1_250_000_000);
        // A child that overruns the parent is clipped: self time never goes negative.
        s.replayed_child("spmm", 0, 9.0);
        assert_eq!(s.all[3].end_ns, 3_000_000_000);
        assert_eq!(s.self_time_ns(0), 0);
    }

    #[test]
    fn chrome_trace_has_one_event_per_span() {
        let mut s = Spans::new();
        let (id, v) = s.record("setup", None, Some(3), || 41 + 1);
        assert_eq!((id, v), (0, 42));
        let text = serde_json::to_string(&s.chrome_trace()).unwrap();
        let back = serde_json::parse_value(&text).unwrap();
        match back.get("traceEvents") {
            Some(Value::Seq(ev)) => {
                assert_eq!(ev.len(), 1);
                assert_eq!(ev[0].get("name"), Some(&Value::Str("setup".into())));
            }
            other => panic!("bad trace: {other:?}"),
        }
    }
}
