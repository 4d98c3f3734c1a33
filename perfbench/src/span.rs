//! Spans recorded from outside the engine, around each call into it.
//!
//! A [`Spans`] recorder keeps every span in memory (name, start, end,
//! parent, statement id) and is written out once the run ends. The
//! recorder is off in untraced runs: opening a span then costs one branch
//! and reads no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per recorder; later ones are counted as dropped so a long
/// traced run cannot grow memory without bound.
const MAX_SPANS: usize = 100_000;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called: `stmt`, `parse`, `execute`, `verify`, `insert`, …
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Statement the span belongs to (0 for set-up calls).
    pub stmt: u64,
}

/// Handle of an open span; pass it back to [`Spans::close`].
#[must_use]
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// In-memory span recorder for one client thread.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    dropped: u64,
}

impl Spans {
    /// A recorder timing against `epoch`; records nothing unless `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Spans {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    /// Turns recording on or off (between measurement windows).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span nested in the innermost open one.
    #[inline]
    pub fn open(&mut self, name: &'static str, stmt: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return Open(None);
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            stmt,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span.
    #[inline]
    pub fn close(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans refused because the recorder was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Count, total and self time per span name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// One JSON object per line, for the span file written at the end of a
/// traced run. `client` tags which recorder (thread) the span came from;
/// parents index into that client's spans.
pub fn write_jsonl(out: &mut String, client: usize, spans: &[Span]) {
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"client\":{client},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"stmt\":{}}}",
            s.name, s.start_ns, s.end_ns, s.stmt
        );
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
            stmt: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("stmt", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("execute", 30, 80, Some(0)),
            span("probe", 40, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        let totals = summarize(&spans);
        assert_eq!(totals["stmt"].self_ns, 30);
        assert_eq!(totals["execute"].total_ns, 50);
        // Self times tile the root span exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = vec![
            span("stmt", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 95, 120, Some(0)),
        ];
        // Covered: [10, 90) and [95, 100) = 85.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn recorder_nests_and_skips_when_disabled() {
        let mut rec = Spans::new(true, Instant::now());
        let outer = rec.open("stmt", 7);
        let inner = rec.open("execute", 7);
        rec.close(inner);
        rec.close(outer);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
        rec.set_enabled(false);
        let off = rec.open("stmt", 8);
        rec.close(off);
        assert_eq!(rec.spans().len(), 2);
        let mut text = String::new();
        write_jsonl(&mut text, 0, rec.spans());
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":0"));
    }
}
