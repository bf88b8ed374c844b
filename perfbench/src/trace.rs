//! In-memory spans and self-time accounting.
//!
//! A span is a named interval with the span that caused it. Spans are
//! kept in memory while the pipeline runs and written out at the end;
//! a layer's self time is its spans' duration minus the part of each
//! interval that its child spans cover.

use ups_sweep::Json;

/// A monotonic clock in nanoseconds since an arbitrary origin.
pub trait Clock {
    /// The current reading.
    fn now_ns(&self) -> u64;
}

/// One traced interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `topo.build`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// Start reading.
    pub start_ns: u64,
    /// End reading.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans against a [`Clock`].
#[derive(Debug)]
pub struct Tracer<C> {
    clock: C,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl<C: Clock> Tracer<C> {
    /// An empty trace.
    pub fn new(clock: C) -> Tracer<C> {
        Tracer {
            clock,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span as a child of the innermost open span; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.clock.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.clock.now_ns();
    }

    /// Every span recorded so far, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "trace ended with open spans");
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own. Children may overlap one
/// another (concurrent work); covered time is counted once.
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
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Sum of self time over every span named `name`, in milliseconds.
pub fn self_ms(spans: &[Span], selfs: &[u64], name: &str) -> f64 {
    let ns: u64 = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t)
        .sum();
    ns as f64 / 1e6
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// The trace as a JSON array, one object per span in opening order:
/// `name`, `parent` (index or `null`), `start_ns`, `end_ns`, `self_ns`.
pub fn to_json(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(selfs)
            .map(|(s, own)| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("start_ns", Json::UInt(s.start_ns)),
                    ("end_ns", Json::UInt(s.end_ns)),
                    ("self_ns", Json::UInt(own)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that advances 10 ns per reading.
    struct Ticks(Cell<u64>);

    impl Clock for Ticks {
        fn now_ns(&self) -> u64 {
            self.0.set(self.0.get() + 10);
            self.0.get()
        }
    }

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),  // overlaps a by 10
            span("c", Some(0), 35, 50),  // inside a ∪ b
            span("d", Some(0), 90, 120), // runs past the parent's end
            span("a.x", Some(1), 20, 25),
        ];
        let selfs = self_times(&spans);
        // Root: 100 - |[10,60] ∪ [90,100]| = 100 - 60.
        assert_eq!(selfs, vec![40, 25, 30, 15, 30, 5]);
        // Every nanosecond of the root is attributed exactly once when
        // children do not overlap.
        let flat = [
            span("root", None, 0, 100),
            span("a", Some(0), 0, 30),
            span("b", Some(0), 30, 90),
        ];
        assert_eq!(self_times(&flat).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_spans_under_the_innermost_open_one() {
        let mut t = Tracer::new(Ticks(Cell::new(0)));
        let root = t.enter("root");
        let a = t.enter("a");
        t.exit(a);
        let b = t.enter("b");
        t.exit(b);
        t.exit(root);
        let spans = t.into_spans();
        assert_eq!(spans[1], span("a", Some(0), 20, 30));
        assert_eq!(spans[2], span("b", Some(0), 40, 50));
        assert_eq!(spans[0], span("root", None, 10, 60));
        let selfs = self_times(&spans);
        assert_eq!(self_ms(&spans, &selfs, "root"), 30e-6);
        assert_eq!(count(&spans, "a"), 1);
    }
}
