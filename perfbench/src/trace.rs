//! Span recording for traced runs.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span: name, start, end, parent and a per-operation id. Every thread
//! owns a [`Tracer`]; spans stay in memory until the run ends, when the
//! per-thread buffers are folded into one [`Trace`] and written out. A
//! disabled tracer runs the wrapped call and records nothing, so the
//! traced and untraced paths execute the same code.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation` name; the layer is the part before the first dot.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Id of the unit of work the span belongs to (a curve, a block, a
    /// job); spans of one operation share it.
    pub op: u64,
    /// Recording thread.
    pub thread: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Layer name: the part of the span name before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    thread: u32,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer timing against `epoch`; records only when `enabled`.
    pub fn new(epoch: Instant, thread: u32, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            thread,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A sibling tracer for another thread, sharing epoch and switch.
    pub fn fork(&self, thread: u32) -> Self {
        Tracer::new(self.epoch, thread, self.enabled)
    }

    /// Tag the spans that follow with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            thread: self.thread,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Duration of the most recently opened span, ns: the span just
    /// closed, when nothing was nested inside it.
    pub fn last_ns(&self) -> u64 {
        self.spans.last().map_or(0, Span::dur_ns)
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of a span over `[start, end)`: its duration minus the part
/// of that interval covered by its children. Children may overlap each
/// other (work fanned out to threads) or stick out of the parent; only
/// the union of their clipped intervals is subtracted.
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStats {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Every span of a traced run, gathered from all threads.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Append one thread's buffer, re-basing its parent indices.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The gathered spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, index-aligned with [`Trace::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| self_time_ns(s.start_ns, s.end_ns, c))
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += self_ns;
        }
        out
    }

    /// Self time per layer, ns.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.layer()).or_insert(0) += self_ns;
        }
        out
    }

    /// Durations of every span called `name`, ns.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Write the spans as a JSON array, one object per line.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut text = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"thread\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                s.thread,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        text.push_str("]\n");
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time_ns(0, 100, &[(10, 20), (50, 80)]), 60);
        assert_eq!(self_time_ns(0, 100, &[]), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // two children fanned out in parallel cover 10..70, not 90 ns
        assert_eq!(self_time_ns(0, 100, &[(10, 60), (20, 70)]), 40);
        // a child nested inside another adds nothing
        assert_eq!(self_time_ns(0, 100, &[(10, 90), (30, 40)]), 20);
        // touching intervals merge
        assert_eq!(self_time_ns(0, 100, &[(0, 50), (50, 100)]), 0);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time_ns(10, 50, &[(0, 20), (40, 90)]), 20);
        assert_eq!(self_time_ns(10, 50, &[(60, 90)]), 40);
    }

    #[test]
    fn trace_self_times_follow_the_nesting() {
        // a (0..100) > b (10..60) > c (20..30); a > d (70..80)
        let mut t = Trace::default();
        t.absorb(vec![
            span("bench.a", 0, 100, None),
            span("rf.b", 10, 60, Some(0)),
            span("dsp.c", 20, 30, Some(1)),
            span("rf.d", 70, 80, Some(0)),
        ]);
        assert_eq!(t.self_times(), vec![40, 40, 10, 10]);
        let layers = t.self_by_layer();
        assert_eq!(layers["bench"], 40);
        assert_eq!(layers["rf"], 50);
        assert_eq!(layers["dsp"], 10);
        // a second thread's buffer keeps its own parent links
        t.absorb(vec![
            span("ota.x", 0, 50, None),
            span("ota.y", 0, 20, Some(0)),
        ]);
        assert_eq!(t.spans()[5].parent, Some(4));
        assert_eq!(t.by_name()["ota.x"].self_ns, 30);
    }

    #[test]
    fn tracer_records_nesting_and_disabled_records_nothing() {
        let epoch = Instant::now();
        let mut on = Tracer::new(epoch, 3, true);
        on.set_op(7);
        let v = on.span("bench.outer", |t| t.span("dsp.inner", |_| 5) + 1);
        assert_eq!(v, 6);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].op, spans[0].thread), (7, 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut off = Tracer::new(epoch, 0, false);
        assert_eq!(off.span("bench.outer", |_| 1), 1);
        assert!(off.into_spans().is_empty());
    }
}
