//! In-memory spans the harness records around its own calls into the
//! engine, written out when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// 0 = no parent (ids start at 1).
    pub parent: u32,
    pub name: &'static str,
    /// Segment index, or -1 outside any segment.
    pub segment: i32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans relative to one epoch. Disabled recorders hand out id
/// 0 and store nothing, so the untraced run pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32, segment: i32) -> u32 {
        self.begin_at(name, parent, segment, Instant::now())
    }

    pub fn begin_at(&mut self, name: &'static str, parent: u32, segment: i32, at: Instant) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.ns(at);
        self.spans.push(Span {
            id,
            parent,
            name,
            segment,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        self.end_at(id, Instant::now());
    }

    pub fn end_at(&mut self, id: u32, at: Instant) {
        if id != 0 {
            let end_ns = self.ns(at);
            self.spans[id as usize - 1].end_ns = end_ns;
        }
    }

    /// A span whose both ends are already known.
    pub fn closed(
        &mut self,
        name: &'static str,
        parent: u32,
        segment: i32,
        start: Instant,
        end: Instant,
    ) {
        let id = self.begin_at(name, parent, segment, start);
        self.end_at(id, end);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span id: the span's duration minus the part of its
/// interval that its direct children cover. Overlapping children are
/// merged first, and a child is clipped to its parent's interval, so
/// the result is never negative.
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    let bounds: HashMap<u32, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some(&(ps, pe)) = bounds.get(&s.parent) {
            let (start, end) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if end > start {
                children.entry(s.parent).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = 0u64;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Total duration and self time per span name, largest self time first.
pub fn self_time_table(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut by_name: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for s in spans {
        let row = by_name.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.end_ns - s.start_ns;
        row.2 += selfs[&s.id];
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(name, (count, total, own))| (name, count, total, own))
        .collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    rows
}

pub fn render_jsonl(out: &mut String, workload: &str, spans: &[Span]) {
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"kind\": \"span\", \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"workload\": \"{}\", \
             \"segment\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.name, workload, s.segment, s.start_ns, s.end_ns
        );
    }
    for (name, count, total, own) in self_time_table(spans) {
        let _ = writeln!(
            out,
            "{{\"kind\": \"self_time\", \"name\": \"{name}\", \"workload\": \"{workload}\", \
             \"spans\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            segment: -1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // 1 ▸ 2 ▸ 3: the grandchild only reduces its own parent.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 30)];
        let t = self_times(&spans);
        assert_eq!((t[&1], t[&2], t[&3]), (50, 40, 10));
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 50),
            span(3, 1, 40, 70),
            span(4, 1, 45, 48),
            // Sticks out past the parent: clipped.
            span(5, 1, 90, 130),
        ];
        assert_eq!(self_times(&spans)[&1], 100 - 60 - 10);
    }

    #[test]
    fn disabled_tracer_stores_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0, 0);
        t.end(id);
        assert_eq!(id, 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn table_groups_by_name_and_jsonl_has_both_kinds() {
        let mut t = Tracer::new(true);
        let root = t.begin("setup", 0, -1);
        let kid = t.begin("warmup", root, -1);
        t.end(kid);
        t.end(root);
        let rows = self_time_table(t.spans());
        assert_eq!(rows.len(), 2);
        let mut out = String::new();
        render_jsonl(&mut out, "w", t.spans());
        assert_eq!(out.matches("\"kind\": \"span\"").count(), 2);
        assert_eq!(out.matches("\"kind\": \"self_time\"").count(), 2);
    }
}
