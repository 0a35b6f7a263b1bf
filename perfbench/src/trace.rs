//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent and a group id (the round or
//! job it belongs to). Spans stay in memory until the run ends; a disabled
//! tracer records nothing and only calls through.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` of group `group`; spans opened by
    /// `f` on this tracer become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            group,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans, consuming the tracer.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Merge the spans of several tracers, renumbering ids so they stay unique.
pub fn merge(tracers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for spans in tracers {
        let base = out.len();
        out.extend(spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of one span: its duration minus the part of its interval that
/// its children cover. Children are clipped to the parent's edges and their
/// overlaps are counted once.
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = parent.start_ns;
    for (s, e) in intervals {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (parent.end_ns - parent.start_ns) - covered
}

/// Total self time (ns) and span count per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: Vec<Vec<&Span>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(s);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let entry = out.entry(s.name).or_default();
        entry.0 += self_time_ns(s, &children[s.id]);
        entry.1 += 1;
    }
    out
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.group,
                s.name,
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            group: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let parent = span(0, None, 0, 100);
        let a = span(1, Some(0), 10, 30);
        let b = span(2, Some(0), 50, 60);
        assert_eq!(self_time_ns(&parent, &[&a, &b]), 70);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let parent = span(0, None, 0, 100);
        let a = span(1, Some(0), 10, 40);
        let b = span(2, Some(0), 30, 50);
        assert_eq!(self_time_ns(&parent, &[&a, &b]), 60);
    }

    #[test]
    fn self_time_clips_children_at_the_parent_edges() {
        let parent = span(0, None, 100, 200);
        let early = span(1, Some(0), 50, 120);
        let late = span(2, Some(0), 180, 260);
        let outside = span(3, Some(0), 300, 400);
        assert_eq!(self_time_ns(&parent, &[&early, &late, &outside]), 60);
        let covering = span(4, Some(0), 0, 1000);
        assert_eq!(self_time_ns(&parent, &[&covering]), 0);
    }

    #[test]
    fn tracer_nests_spans_and_merge_keeps_parents() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        t.span("outer", 7, |t| t.span("inner", 7, |_| ()));
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let merged = merge(vec![spans.clone(), spans]);
        assert_eq!(merged[3].parent, Some(2));
        let totals = self_times(&merged);
        assert_eq!(totals["outer"].1, 2);
        assert_eq!(totals["inner"].1, 2);

        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.span("x", 0, |_| 5), 5);
        assert!(off.into_spans().is_empty());
    }
}
