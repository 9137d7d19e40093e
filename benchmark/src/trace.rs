//! Harness-side spans. The traced run wraps set-up phases, every
//! `process_parallel` call and every layer loop in a span, keeps them in
//! memory, and writes them out when the workload ends. Nothing here is
//! inside the program under test: in-program stamps are a later change.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval on the harness thread.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// How many calls into the layer the interval covers.
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals of every span that shares a name.
#[derive(Clone, Debug, PartialEq)]
pub struct NameTotals {
    pub name: &'static str,
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing: the untraced run takes the same
    /// code path and pays one branch per would-be span.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span under whichever span is currently open.
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
            calls: 0,
        });
        self.open.push(id);
        id
    }

    /// Ends the innermost open span, which must be `id`, and returns its
    /// duration in nanoseconds (0 from a tracer that is off).
    pub fn close(&mut self, id: usize, calls: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.calls = calls;
        span.duration_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals in first-seen order.
    pub fn totals(&self) -> Vec<NameTotals> {
        let self_ns = self_times(&self.spans);
        let mut out: Vec<NameTotals> = Vec::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let row = match out.iter().position(|t| t.name == span.name) {
                Some(i) => &mut out[i],
                None => {
                    out.push(NameTotals {
                        name: span.name,
                        spans: 0,
                        calls: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            row.spans += 1;
            row.calls += span.calls;
            row.total_ns += span.duration_ns();
            row.self_ns += own;
        }
        out
    }

    /// Writes `{"host": .., "workload": .., "spans": [..]}` to `path`.
    /// `host_json` is an already-serialized JSON object.
    pub fn write(&self, path: &Path, host_json: &str, workload: &str) -> std::io::Result<()> {
        let mut text = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            text,
            "{{\"host\": {host_json}, \"workload\": \"{workload}\", \"spans\": ["
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                text,
                "{}\n{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                s.calls,
            );
        }
        text.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent
/// and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 35), // grandchild: charged to span 1, not span 0
            span(3, Some(0), 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 10, 20, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = [
            span(0, None, 100, 200),
            span(1, Some(0), 120, 160),
            span(2, Some(0), 150, 180), // overlaps span 1 by 10
            span(3, Some(0), 190, 250), // overhangs the parent by 50
        ];
        // Covered: [120,180) + [190,200) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_by_open_order_and_sums_by_name() {
        let mut t = Tracer::new();
        let outer = t.open("outer");
        let a = t.open("inner");
        t.close(a, 3);
        let b = t.open("inner");
        t.close(b, 4);
        t.close(outer, 1);
        assert_eq!(t.spans()[a].parent, Some(outer));
        assert_eq!(t.spans()[b].parent, Some(outer));
        assert_eq!(t.spans()[outer].parent, None);
        let totals = t.totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(
            (totals[1].name, totals[1].spans, totals[1].calls),
            ("inner", 2, 7)
        );
        assert_eq!(totals[0].self_ns + totals[1].total_ns, totals[0].total_ns);
    }
}
