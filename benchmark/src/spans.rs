//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing inside the engine is instrumented. A span is
//! `{name, start_ns, end_ns, parent, op}` where `op` is the repeat or
//! wave index it belongs to. Self time is a span's duration minus the
//! part of it covered by its direct children.

use serde::Serialize;
use std::time::Instant;

/// Index of a span in its [`Tracer`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
/// Parent value of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded span. Names are indexes into [`Tracer::names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NameTotals {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Totals by span name, as [`Tracer::totals`] returns them.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Totals(pub Vec<NameTotals>);

impl Totals {
    fn get(&self, name: &str) -> Option<&NameTotals> {
        self.0.iter().find(|t| t.name == name)
    }

    pub fn total_ns(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |t| t.total_ns as f64)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.get(name).map_or(0, |t| t.count)
    }

    /// Mean nanoseconds per call; 0 where nothing was recorded.
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            c => self.total_ns(name) / c as f64,
        }
    }
}

/// Self time per span: duration minus the summed durations of its direct
/// children, saturating (children measured with the same clock can
/// overhang their parent by a tick).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Records spans against one monotonic origin. A disabled tracer (the
/// untraced pass) records nothing: [`Tracer::timed`] still returns how
/// long the call took, which is all the end-to-end metrics use.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<SpanId>,
    /// The repeat / wave index stamped on spans opened from now on.
    pub op: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Intern a span name; call once per name, outside timed loops.
    pub fn name(&mut self, name: &'static str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: u16) -> SpanId {
        let id = self.spans.len() as SpanId;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Time one call as a span.
    pub fn span<R>(&mut self, name: u16, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Time one call, returning its result and duration in seconds; the
    /// call is also recorded as a span when the tracer is enabled.
    pub fn timed<R>(&mut self, name: u16, f: impl FnOnce() -> R) -> (R, f64) {
        if !self.enabled {
            let t = Instant::now();
            let out = f();
            return (out, t.elapsed().as_secs_f64());
        }
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        (out, self.spans[id as usize].duration_ns() as f64 / 1e9)
    }

    /// Open a parent span for the calls that follow (no-op when
    /// disabled); close it with [`Tracer::close`].
    pub fn open(&mut self, name: u16) -> Option<SpanId> {
        self.enabled.then(|| self.enter(name))
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.exit(id);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        let Some(idx) = self.names.iter().position(|n| *n == name) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| s.name as usize == idx)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Count, total and self time per span name, over the spans at
    /// `root` and below (`None` = everything recorded).
    pub fn totals(&self, root: Option<SpanId>) -> Totals {
        let own = self_times(&self.spans);
        let mut inside = vec![root.is_none(); self.spans.len()];
        if let Some(r) = root {
            // Parents are recorded before their children, so one forward
            // pass marks the whole subtree.
            inside[r as usize] = true;
            for (i, s) in self.spans.iter().enumerate().skip(r as usize + 1) {
                inside[i] = s.parent != NO_PARENT && inside[s.parent as usize];
            }
        }
        let mut out: Vec<NameTotals> = self
            .names
            .iter()
            .map(|n| NameTotals {
                name: (*n).to_string(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
            })
            .collect();
        for (i, s) in self.spans.iter().enumerate() {
            if inside[i] {
                let t = &mut out[s.name as usize];
                t.count += 1;
                t.total_ns += s.duration_ns();
                t.self_ns += own[i];
            }
        }
        out.retain(|t| t.count > 0);
        Totals(out)
    }

    /// The trace file body: per-name totals plus the first `cap` spans
    /// verbatim (a million-firing replay would otherwise write a file
    /// larger than everything else the benchmark produces together).
    pub fn to_json(&self, cap: usize) -> TraceFile {
        TraceFile {
            spans_total: self.spans.len(),
            spans_written: self.spans.len().min(cap),
            totals: self.totals(None),
            spans: self
                .spans
                .iter()
                .take(cap)
                .map(|s| SpanRow {
                    name: self.names[s.name as usize].to_string(),
                    start_ns: s.start_ns,
                    end_ns: s.end_ns,
                    parent: (s.parent != NO_PARENT).then_some(s.parent),
                    op: s.op,
                })
                .collect(),
        }
    }
}

/// Serialised form of one span.
#[derive(Debug, Serialize)]
pub struct SpanRow {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

/// Serialised form of a whole trace.
#[derive(Debug, Serialize)]
pub struct TraceFile {
    pub spans_total: usize,
    pub spans_written: usize,
    pub totals: Totals,
    pub spans: Vec<SpanRow>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u16, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100
        //   a 10..40
        //     b 15..25
        //   a 50..90
        //     b 60..65
        //     b 70..80
        let spans = [
            span(0, 0, 100, NO_PARENT),
            span(1, 10, 40, 0),
            span(2, 15, 25, 1),
            span(1, 50, 90, 0),
            span(2, 60, 65, 3),
            span(2, 70, 80, 3),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 25, 5, 10]);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_aggregates_by_name() {
        let mut t = Tracer::new(true);
        let (outer, inner) = (t.name("outer"), t.name("inner"));
        assert_eq!(t.name("outer"), outer);
        let root = t.enter(outer);
        t.op = 3;
        t.span(inner, || std::hint::black_box(1 + 1));
        t.span(inner, || std::hint::black_box(2 + 2));
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].parent, spans[1].op), (root, 3));
        let totals = t.totals(Some(root));
        assert_eq!((totals.count("outer"), totals.count("inner")), (1, 2));
        assert_eq!(totals.mean_ns("inner") * 2.0, totals.total_ns("inner"));
        assert_eq!(totals.mean_ns("absent"), 0.0);
        // The subtree's self times add up to the root's duration.
        let sum: u64 = totals.0.iter().map(|x| x.self_ns).sum();
        assert_eq!(sum, spans[0].duration_ns());
        assert_eq!(t.durations_ns("inner").len(), 2);
        assert_eq!(t.to_json(2).spans.len(), 2);
    }
}
