//! In-memory span tracing for traced runs.
//!
//! A span records its name, start, end and parent, plus the allocation
//! counter at both ends. Spans are kept in memory while a traced pass runs
//! and reduced afterwards: a span's *self* time is its duration minus the
//! time its direct children cover, so summing self time by name gives a
//! flat profile whose rows add up to the traced time.
//!
//! The tracer is thread-local and off by default; [`span`] then costs one
//! flag check. Traced passes run on one thread.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Threads currently recording: the untraced fast path is one relaxed
/// load.
static RECORDING: AtomicUsize = AtomicUsize::new(0);

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    pub allocs_start: u64,
    pub allocs_end: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        t0: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Starts recording on this thread (clearing any earlier recording).
pub fn start() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            RECORDING.fetch_add(1, Ordering::Relaxed);
        }
        t.on = true;
        t.t0 = Instant::now();
        t.spans.clear();
        t.open.clear();
    });
}

/// Stops recording. The spans stay in memory until the next [`start`].
pub fn stop() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.on {
            RECORDING.fetch_sub(1, Ordering::Relaxed);
        }
        t.on = false;
        assert!(t.open.is_empty(), "span still open at stop");
    })
}

/// Calls `f` on this thread's last recording, in start order.
pub fn recorded<T>(f: impl FnOnce(&[Span]) -> T) -> T {
    TRACER.with(|t| f(&t.borrow().spans))
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct Guard(Option<usize>);

/// Opens a span named `name`, nested in the innermost open span. A no-op
/// while the tracer is off.
pub fn span(name: &'static str) -> Guard {
    if RECORDING.load(Ordering::Relaxed) == 0 {
        return Guard(None);
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return Guard(None);
        }
        let idx = t.spans.len();
        let parent = t.open.last().copied();
        let allocs = crate::alloc::allocs();
        let start_ns = t.t0.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            allocs_start: allocs,
            allocs_end: allocs,
        });
        t.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            TRACER.with(|t| {
                let mut t = t.borrow_mut();
                let end_ns = t.t0.elapsed().as_nanos() as u64;
                let allocs = crate::alloc::allocs();
                let s = &mut t.spans[idx];
                s.end_ns = end_ns;
                s.allocs_end = allocs;
                let top = t.open.pop();
                debug_assert_eq!(top, Some(idx), "spans must nest");
            });
        }
    }
}

/// Per-name totals of a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Row {
    pub calls: u64,
    /// Sum of durations minus the durations of direct children.
    pub self_ns: u64,
    /// Allocations inside the span minus those inside direct children.
    pub self_allocs: u64,
}

/// Reduces spans to self-time rows keyed by name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Row> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut child_allocs = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
            child_allocs[p] += s.allocs_end - s.allocs_start;
        }
    }
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let row = rows.entry(s.name).or_default();
        row.calls += 1;
        row.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        row.self_allocs += (s.allocs_end - s.allocs_start).saturating_sub(child_allocs[i]);
    }
    rows
}

/// Writes spans as tab-separated `name start_ns end_ns parent` lines
/// (`-` for a root span).
pub fn write_tsv(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    writeln!(out, "name\tstart_ns\tend_ns\tparent")?;
    for s in spans {
        match s.parent {
            Some(p) => writeln!(out, "{}\t{}\t{}\t{p}", s.name, s.start_ns, s.end_ns)?,
            None => writeln!(out, "{}\t{}\t{}\t-", s.name, s.start_ns, s.end_ns)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            allocs_start: start,
            allocs_end: end,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // outer [0,100) holds a [10,40) and b [50,70); a holds c [15,25).
        let spans = [
            s("outer", 0, 100, None),
            s("a", 10, 40, Some(0)),
            s("c", 15, 25, Some(1)),
            s("b", 50, 70, Some(0)),
        ];
        let rows = self_times(&spans);
        assert_eq!(rows["outer"].self_ns, 100 - 30 - 20);
        assert_eq!(rows["a"].self_ns, 30 - 10);
        assert_eq!(rows["c"].self_ns, 10);
        assert_eq!(rows["b"].self_ns, 20);
        // Self times of a tree add up to the root's duration.
        let total: u64 = rows.values().map(|r| r.self_ns).sum();
        assert_eq!(total, 100);
        // The allocation counter reduces the same way.
        assert_eq!(rows["outer"].self_allocs, 50);
    }

    #[test]
    fn repeated_names_accumulate_calls() {
        let spans = [s("x", 0, 5, None), s("x", 5, 9, None)];
        let rows = self_times(&spans);
        assert_eq!(rows["x"].calls, 2);
        assert_eq!(rows["x"].self_ns, 9);
    }

    #[test]
    fn guards_record_nesting_and_stop_keeps_spans() {
        start();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        stop();
        // Off again: a span opened now is not recorded.
        drop(span("off"));
        let spans = recorded(<[Span]>::to_vec);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        // The next recording starts empty.
        start();
        stop();
        assert_eq!(recorded(<[Span]>::len), 0);
    }

    #[test]
    fn tsv_marks_roots() {
        let spans = [s("a", 1, 2, None), s("b", 1, 2, Some(0))];
        let mut out = Vec::new();
        write_tsv(&spans, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("a\t1\t2\t-"));
        assert!(text.contains("b\t1\t2\t0"));
    }
}
