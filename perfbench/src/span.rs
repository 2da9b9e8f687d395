//! In-memory spans for the traced pass.
//!
//! Each timed call gets a span (name, start, end, parent, case id) kept
//! in a flat vector and written out once the pass ends. A layer's self
//! time is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::time::Instant;

/// Case id of run-level spans (work done once per pass, not per case),
/// which [`Breakdown`] leaves out of its per-case columns.
pub const RUN_CASE: u64 = u64::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub case: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    case: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), case: 0 }
    }

    /// The case id stamped on spans opened from now on.
    pub fn set_case(&mut self, case: u64) {
        self.case = case;
    }

    /// Times `f` as a span named `name`, nested under whichever span is
    /// open; `f` gets the tracer back to open child spans.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, case: self.case });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adds an already-measured span.
    #[cfg(test)]
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by index: its duration minus the union
    /// of its children's intervals clipped to it.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `index name start_ns end_ns parent case`.
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tcase")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.case)?;
        }
        Ok(())
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Per-case time of every span name: how long each layer took in each
/// traced case, in total and as self time. Cases are dense, in the
/// order their first span was opened; a case without a given span
/// reads 0 for it. Run-level spans ([`RUN_CASE`]) are left out.
#[derive(Debug, Default)]
pub struct Breakdown {
    cases: usize,
    /// name → per-case (total ns, self ns).
    by_name: BTreeMap<&'static str, Vec<(u64, u64)>>,
}

impl Breakdown {
    pub fn new(tracer: &Tracer) -> Breakdown {
        let self_ns = tracer.self_ns();
        let mut dense: HashMap<u64, usize> = HashMap::new();
        for s in tracer.spans().iter().filter(|s| s.case != RUN_CASE) {
            let next = dense.len();
            dense.entry(s.case).or_insert(next);
        }
        let cases = dense.len();
        let mut by_name: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        for (s, own) in tracer.spans().iter().zip(self_ns) {
            if s.case == RUN_CASE {
                continue;
            }
            let row = by_name.entry(s.name).or_insert_with(|| vec![(0, 0); cases]);
            let cell = &mut row[dense[&s.case]];
            cell.0 += s.duration_ns();
            cell.1 += own;
        }
        Breakdown { cases, by_name }
    }

    /// Distinct cases seen.
    pub fn cases(&self) -> usize {
        self.cases
    }

    /// Microseconds per case spent in spans named `name`.
    pub fn per_case_us(&self, name: &str) -> Vec<f64> {
        self.column(name, |cell| cell.0)
    }

    /// Microseconds of self time per case in spans named `name`.
    pub fn per_case_self_us(&self, name: &str) -> Vec<f64> {
        self.column(name, |cell| cell.1)
    }

    /// Milliseconds spent in spans named `name` over all cases.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.per_case_us(name).iter().sum::<f64>() / 1000.0
    }

    fn column(&self, name: &str, pick: impl Fn(&(u64, u64)) -> u64) -> Vec<f64> {
        match self.by_name.get(name) {
            Some(row) => row.iter().map(|cell| pick(cell) as f64 / 1000.0).collect(),
            None => vec![0.0; self.cases],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, case: 1 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let case = t.record(span("case", 0, 100, None));
        let chain = t.record(span("chain", 10, 70, Some(case)));
        t.record(span("direct", 15, 35, Some(chain)));
        t.record(span("proxy", 40, 60, Some(chain)));
        t.record(span("detect", 75, 95, Some(case)));
        // case: 100 - (60 + 20); chain: 60 - (20 + 20); leaves keep all.
        assert_eq!(t.self_ns(), vec![20, 20, 20, 20, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let mut t = Tracer::new();
        let root = t.record(span("root", 100, 200, None));
        t.record(span("a", 110, 150, Some(root)));
        t.record(span("b", 140, 160, Some(root)));
        t.record(span("c", 190, 230, Some(root)));
        // Covered: [110,160) + [190,200) = 60.
        assert_eq!(t.self_ns()[0], 40);
    }

    #[test]
    fn timed_spans_nest_and_carry_the_case() {
        let mut t = Tracer::new();
        t.set_case(42);
        let v = t.time("outer", |t| t.time("inner", |_| 7) + 1);
        assert_eq!(v, 8);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.case == 42));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let self_ns = t.self_ns();
        assert_eq!(self_ns[0], spans[0].duration_ns() - spans[1].duration_ns());
    }

    #[test]
    fn breakdown_groups_time_per_case_and_name() {
        let mut t = Tracer::new();
        let a = t.record(Span { name: "case", start_ns: 0, end_ns: 100, parent: None, case: 7 });
        let chain =
            t.record(Span { name: "chain", start_ns: 0, end_ns: 80, parent: Some(a), case: 7 });
        t.record(Span { name: "proxy", start_ns: 0, end_ns: 30, parent: Some(chain), case: 7 });
        t.record(Span { name: "proxy", start_ns: 30, end_ns: 50, parent: Some(chain), case: 7 });
        let b = t.record(Span { name: "case", start_ns: 200, end_ns: 250, parent: None, case: 9 });
        t.record(Span { name: "chain", start_ns: 200, end_ns: 240, parent: Some(b), case: 9 });
        t.record(Span {
            name: "summarize",
            start_ns: 300,
            end_ns: 400,
            parent: None,
            case: RUN_CASE,
        });
        let bd = Breakdown::new(&t);
        assert_eq!(bd.cases(), 2);
        assert_eq!(bd.per_case_us("proxy"), vec![0.05, 0.0]);
        assert_eq!(bd.per_case_us("chain"), vec![0.08, 0.04]);
        assert_eq!(bd.per_case_self_us("chain"), vec![0.03, 0.04]);
        assert_eq!(bd.per_case_self_us("case"), vec![0.02, 0.01]);
        assert_eq!(bd.per_case_us("absent"), vec![0.0, 0.0]);
        assert_eq!(bd.per_case_us("summarize"), vec![0.0, 0.0]);
        assert!((bd.total_ms("case") - 0.00015).abs() < 1e-12);
    }

    #[test]
    fn writes_one_line_per_span() {
        let mut t = Tracer::new();
        let root = t.record(span("case", 0, 9, None));
        t.record(span("chain", 1, 5, Some(root)));
        let mut buf = Vec::new();
        t.write_tsv(&mut buf).expect("in-memory write");
        let text = String::from_utf8(buf).expect("utf-8");
        assert_eq!(
            text,
            "index\tname\tstart_ns\tend_ns\tparent\tcase\n0\tcase\t0\t9\t-\t1\n1\tchain\t1\t5\t0\t1\n"
        );
    }
}
