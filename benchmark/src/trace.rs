//! Spans around the calls into each layer, kept in memory and written
//! out when the run ends.
//!
//! A span is `{name, start_ns, end_ns, parent, request_id}` (plus the
//! heap allocations counted while it was open). A layer's **self time**
//! is its span's duration minus the part its child spans cover — the
//! arithmetic [`Tracer::totals`] does and `tests/trace.rs` pins.
//!
//! The recorder is deliberately dumb: single-threaded, a pre-allocated
//! vector, two clock reads and one counter read per span. A disabled
//! tracer records nothing, which is how the same replay loop yields
//! `trace.overhead_pct`.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;
use crate::json::Value;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `proto.parse`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (0 while still open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one request (a window, or an ingest step) share this.
    pub request_id: u32,
    /// Heap allocations made by this thread's process while the span was
    /// open (children included).
    pub allocs: u64,
}

/// What one span name added up to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    /// Spans recorded under the name.
    pub count: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ duration − Σ children's duration.
    pub self_ns: u64,
    /// Σ allocations, children included.
    pub allocs: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    enabled: bool,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an entered span must be exited"]
pub struct Open(u32);

impl Tracer {
    /// A recording tracer with room for `capacity` spans.
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            enabled: true,
        }
    }

    /// A tracer that records nothing (tracing off).
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(0)
        }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, request_id: u32) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            request_id,
            allocs: alloc::count(),
        });
        self.open.push(idx);
        // The clock is read last on entry and first on exit, so the
        // recorder's own bookkeeping falls outside the span.
        self.spans[idx as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        Open(idx)
    }

    /// Closes a span. Spans close innermost-first.
    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(open.0), "spans close innermost-first");
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = now;
        span.allocs = alloc::count() - span.allocs;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, request_id: u32, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, request_id);
        let out = f();
        self.exit(open);
        out
    }

    /// Nanoseconds since the tracer was created: the clock spans use.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records an already-measured span (for hand-made traces in tests
    /// and for work whose boundaries are only seen from a callback).
    pub fn push_raw(&mut self, span: Span) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        self.spans.push(span);
        self.spans.len() as u32 - 1
    }

    /// Every recorded span, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self time: each span's duration is charged
    /// to its own name and subtracted from its parent's self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
            t.allocs += s.allocs;
        }
        out
    }

    /// The trace as one JSON document: `{"spans": [{name, start_ns,
    /// end_ns, parent, request_id, allocs}, …]}`; `parent` is an index
    /// into the same array, or -1.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            let v = Value::obj([
                ("name", Value::from(s.name)),
                ("start_ns", Value::from(s.start_ns)),
                ("end_ns", Value::from(s.end_ns)),
                ("parent", Value::Num(parent as f64)),
                ("request_id", Value::from(s.request_id as u64)),
                ("allocs", Value::from(s.allocs)),
            ]);
            out.push_str(&v.to_string());
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}
