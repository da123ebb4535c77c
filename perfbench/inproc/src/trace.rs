//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began (its parent). Spans stay in memory until [`Tracer::write_tsv`]
//! writes them out at the end of the run. A disabled tracer records
//! nothing and only calls through, which is how the untraced wall time
//! that prices the tracing itself is taken.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus the time their children cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut state = self.state.lock().expect("tracer lock poisoned");
            let id = state.spans.len();
            let parent = state.open.last().copied();
            state.spans.push(Span {
                name,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            state.open.push(id);
            id
        };
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let mut state = self.state.lock().expect("tracer lock poisoned");
        state.spans[id].start_ns = start_ns;
        state.spans[id].end_ns = end_ns;
        state.open.pop();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state
            .lock()
            .expect("tracer lock poisoned")
            .spans
            .clone()
    }

    /// Writes one `id parent name start_ns end_ns` line per span.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Count, total and self time per span name. Children run on their
/// parent's thread inside its interval and never overlap one another, so
/// a span's self time is its duration minus its children's durations.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.duration_ns() as f64 / 1e9;
        t.self_s += s.duration_ns().saturating_sub(children) as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", None, 0, 1_000),
            span("a", Some(0), 100, 400),
            span("a.leaf", Some(1), 150, 250),
            span("b", Some(0), 500, 900),
        ];
        let t = totals(&spans);
        assert!((t["root"].self_s - 300e-9).abs() < 1e-15);
        assert!((t["a"].self_s - 200e-9).abs() < 1e-15);
        assert!((t["a.leaf"].self_s - 100e-9).abs() < 1e-15);
        assert!((t["b"].total_s - 400e-9).abs() < 1e-15);
    }

    #[test]
    fn repeated_names_accumulate() {
        let spans = [
            span("root", None, 0, 100),
            span("feed", Some(0), 0, 10),
            span("feed", Some(0), 20, 50),
        ];
        let t = totals(&spans);
        assert_eq!(t["feed"].count, 2);
        assert!((t["feed"].total_s - 40e-9).abs() < 1e-15);
        assert!((t["root"].self_s - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn nesting_follows_the_open_span() {
        let tracer = Tracer::new(true);
        tracer.span("outer", || {
            tracer.span("inner", || ());
        });
        tracer.span("next", || ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", || 7), 7);
        assert!(tracer.spans().is_empty());
    }
}
