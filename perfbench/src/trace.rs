//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end, its parent span and the heap
//! allocations made while it was open. Spans are opened around calls
//! into the program's public functions from the benchmark's own code,
//! kept in memory, and written out as JSON when the run ends. A layer's
//! self time is its span's duration minus the time its child spans
//! cover; allocations are split the same way.
//!
//! The recorder is thread-local and absent unless [`install`] ran, so
//! untraced runs pay one thread-local lookup per span site.

use crate::ALLOC;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    allocs: u64,
}

struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs a recorder on this thread, initially disabled.
pub fn install() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            enabled: false,
            origin: Instant::now(),
            // Reserved up front so span bookkeeping does not allocate
            // inside the spans it measures.
            spans: Vec::with_capacity(1 << 18),
            stack: Vec::with_capacity(64),
        })
    });
}

/// Switches span recording on or off (untimed stretches of a traced run
/// and its untraced comparison rounds record nothing).
pub fn set_enabled(on: bool) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.enabled = on;
        }
    });
}

/// Runs `f` inside a span named `name` (a no-op wrapper when untraced).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = TRACER.with(|t| {
        t.borrow_mut().as_mut().filter(|tr| tr.enabled).map(|tr| {
            let id = tr.spans.len();
            let parent = tr.stack.last().copied();
            tr.spans.push(Span {
                name,
                start_ns: tr.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                allocs: ALLOC.allocations(),
            });
            tr.stack.push(id);
            id
        })
    });
    let out = f();
    if let Some(id) = id {
        let allocs_now = ALLOC.allocations();
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                let end = tr.origin.elapsed().as_nanos() as u64;
                let s = &mut tr.spans[id];
                s.end_ns = end;
                s.allocs = allocs_now - s.allocs;
                tr.stack.pop();
            }
        });
    }
    out
}

/// Per-name totals over every closed span.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of span durations (ns).
    pub total_ns: u64,
    /// Sum of self times: duration minus child-span time (ns).
    pub self_ns: u64,
    /// Sum of self allocations.
    pub self_allocs: u64,
}

impl Agg {
    /// Mean self time per span in milliseconds.
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6 / self.count.max(1) as f64
    }
    /// Mean self time per span in microseconds.
    pub fn self_us(&self) -> f64 {
        self.self_ms() * 1e3
    }
    /// Mean total (inclusive) time per span in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6 / self.count.max(1) as f64
    }
    /// Mean self allocations per span.
    pub fn allocs(&self) -> f64 {
        self.self_allocs as f64 / self.count.max(1) as f64
    }
}

/// Aggregates the recorded spans by name (empty when untraced).
pub fn summary() -> BTreeMap<&'static str, Agg> {
    TRACER.with(|t| {
        let guard = t.borrow();
        let Some(tr) = guard.as_ref() else {
            return BTreeMap::new();
        };
        let mut child_ns = vec![0u64; tr.spans.len()];
        let mut child_allocs = vec![0u64; tr.spans.len()];
        for s in &tr.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
                child_allocs[p] += s.allocs;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (i, s) in tr.spans.iter().enumerate() {
            let a = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(child_ns[i]);
            a.self_allocs += s.allocs.saturating_sub(child_allocs[i]);
        }
        out
    })
}

/// Writes every span as one JSON document:
/// `{"spans":[{"name":..,"start_ns":..,"end_ns":..,"parent":..,"allocs":..}]}`.
pub fn write(path: &std::path::Path) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let text = TRACER.with(|t| {
        let guard = t.borrow();
        let mut out = String::from("{\"spans\":[");
        if let Some(tr) = guard.as_ref() {
            for (i, s) in tr.spans.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"allocs\":{}}}",
                    s.name, s.start_ns, s.end_ns, parent, s.allocs
                );
            }
        }
        out.push_str("]}\n");
        out
    });
    hisres_util::fsio::atomic_write(path, text.as_bytes())
}
