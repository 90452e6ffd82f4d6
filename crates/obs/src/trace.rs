//! Request-scoped trace collection.
//!
//! The global span aggregate ([`crate::span`](mod@crate::span)) folds every entry into one
//! process-wide tree, which is the right shape for a batch run but smears
//! concurrent daemon requests together. This module adds a **per-thread
//! collector**: a worker thread brackets one request with [`begin`] /
//! [`finish`], and while the collector is installed every `SpanGuard`
//! opened on that thread is recorded into a request-local span tree and
//! every `Counter::add` on that thread is accumulated as a request-local
//! delta (keyed by counter pointer; names are resolved lazily at render
//! time so the hot path never touches the registry lock).
//!
//! Cost model, in line with the ≤0.1% obs-off contract:
//!
//! - **No collector anywhere in the process:** `SpanGuard::enter` adds one
//!   relaxed atomic load + one thread-local bool read; `Counter::add` adds
//!   one relaxed atomic load. No clock reads, no allocation.
//! - **Collector on another thread:** same as above plus the thread-local
//!   bool read in `Counter::add` (the process-wide active count is
//!   non-zero, so the cheap global test no longer short-circuits).
//! - **Collector on this thread:** spans read the clock twice and push one
//!   node; counters update a small linear-probe vec (requests touch a
//!   handful of distinct counters, so linear scan beats hashing).
//!
//! The collector is independent of [`crate::enabled`]: a traced daemon
//! captures request span trees even when the global profile surface is
//! off, without paying for the global aggregate/sink.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::json::{obj, Value};

/// Number of threads that currently have a collector installed. Checked
/// first (one relaxed load) so untraced processes skip the thread-local.
static ACTIVE_COLLECTORS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Cheap mirror of `CURRENT.is_some()` for the fast path.
    static TRACED: Cell<bool> = const { Cell::new(false) };
    static CURRENT: RefCell<Option<Box<TraceState>>> = const { RefCell::new(None) };
}

/// One node in a captured request span tree, in entry order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNode {
    /// Span name as passed to `span!` (leaf name, not a `/`-joined path —
    /// nesting is explicit via `parent`).
    pub name: String,
    /// Index of the parent node in the capture, `None` for roots.
    pub parent: Option<usize>,
    /// Microseconds from `begin()` to span entry.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

struct TraceState {
    started: Instant,
    nodes: Vec<TraceNode>,
    /// Stack of open node indices (collector-local nesting).
    open: Vec<usize>,
    /// Per-counter deltas keyed by counter address (see
    /// [`crate::registry::counter_name_of`]).
    counters: Vec<(usize, u64)>,
}

/// A finished request capture: the span tree plus scoped counter deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCapture {
    /// Wall time between `begin()` and `finish()`, microseconds.
    pub wall_us: u64,
    /// Captured spans in entry order; parents precede children.
    pub nodes: Vec<TraceNode>,
    counters: Vec<(usize, u64)>,
}

/// Installs a collector on the current thread. Any capture already in
/// progress on this thread is discarded and restarted.
pub fn begin() {
    let state = Box::new(TraceState {
        started: Instant::now(),
        nodes: Vec::new(),
        open: Vec::new(),
        counters: Vec::new(),
    });
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        if cur.is_none() {
            ACTIVE_COLLECTORS.fetch_add(1, Ordering::Relaxed);
            TRACED.with(|t| t.set(true));
        }
        *cur = Some(state);
    });
}

/// Uninstalls the current thread's collector and returns its capture,
/// or `None` if [`begin`] was never called on this thread.
pub fn finish() -> Option<TraceCapture> {
    let state = CURRENT.with(|c| c.borrow_mut().take())?;
    ACTIVE_COLLECTORS.fetch_sub(1, Ordering::Relaxed);
    TRACED.with(|t| t.set(false));
    Some(TraceCapture {
        wall_us: state.started.elapsed().as_micros() as u64,
        nodes: state.nodes,
        counters: state.counters,
    })
}

/// Whether the current thread has a collector installed. One relaxed
/// atomic load when no thread does.
#[inline]
pub fn thread_traced() -> bool {
    ACTIVE_COLLECTORS.load(Ordering::Relaxed) != 0 && TRACED.with(Cell::get)
}

/// Span-entry hook, called by `SpanGuard::enter` only when
/// [`thread_traced`] already returned true.
pub(crate) fn on_span_open(name: &str) {
    CURRENT.with(|c| {
        if let Some(state) = c.borrow_mut().as_mut() {
            let parent = state.open.last().copied();
            let start_us = state.started.elapsed().as_micros() as u64;
            let idx = state.nodes.len();
            state.nodes.push(TraceNode {
                name: name.to_owned(),
                parent,
                start_us,
                dur_us: 0,
            });
            state.open.push(idx);
        }
    });
}

/// Span-exit hook, called by `SpanGuard::drop` for guards that were
/// entered while traced. Tolerates a collector swap between enter and
/// drop (the stale close is dropped on the floor).
pub(crate) fn on_span_close(elapsed_ns: u64) {
    CURRENT.with(|c| {
        if let Some(state) = c.borrow_mut().as_mut() {
            if let Some(idx) = state.open.pop() {
                state.nodes[idx].dur_us = elapsed_ns / 1_000;
            }
        }
    });
}

/// Counter hook, called by `Counter::add` with the counter's address.
/// The first check is a single relaxed load; everything past it only
/// runs on a traced thread.
#[inline]
pub(crate) fn on_counter_add(addr: usize, n: u64) {
    if ACTIVE_COLLECTORS.load(Ordering::Relaxed) == 0 || !TRACED.with(Cell::get) {
        return;
    }
    CURRENT.with(|c| {
        if let Some(state) = c.borrow_mut().as_mut() {
            if let Some(entry) = state.counters.iter_mut().find(|(a, _)| *a == addr) {
                entry.1 += n;
            } else {
                state.counters.push((addr, n));
            }
        }
    });
}

impl TraceCapture {
    /// Counter deltas with names resolved against the registry, sorted by
    /// name. Counters dropped from the registry since capture (never in
    /// practice — registration is permanent) are omitted.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .counters
            .iter()
            .filter_map(|&(addr, n)| crate::registry::counter_name_of(addr).map(|name| (name, n)))
            .collect();
        out.sort();
        out
    }

    /// Raw delta for one counter by registered name (0 if untouched).
    pub fn counter_delta(&self, name: &str) -> u64 {
        self.counters()
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, d)| d)
            .unwrap_or(0)
    }

    /// Indices of root nodes (spans with no captured parent).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].parent.is_none())
            .collect()
    }

    /// Renders the capture as a JSON value:
    /// `{"wall_us":..,"counters":{..},"spans":[nested tree]}`.
    pub fn to_json(&self) -> Value {
        let counters = obj(self
            .counters()
            .into_iter()
            .map(|(name, n)| (name, Value::Number(n as f64)))
            .collect::<Vec<_>>());
        let spans = Value::Array(
            self.roots()
                .into_iter()
                .map(|i| self.span_json(i))
                .collect(),
        );
        obj(vec![
            ("wall_us".to_owned(), Value::Number(self.wall_us as f64)),
            ("counters".to_owned(), counters),
            ("spans".to_owned(), spans),
        ])
    }

    fn span_json(&self, idx: usize) -> Value {
        let node = &self.nodes[idx];
        let children: Vec<Value> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].parent == Some(idx))
            .map(|i| self.span_json(i))
            .collect();
        let mut fields = vec![
            ("name".to_owned(), Value::String(node.name.clone())),
            ("start_us".to_owned(), Value::Number(node.start_us as f64)),
            ("dur_us".to_owned(), Value::Number(node.dur_us as f64)),
        ];
        if !children.is_empty() {
            fields.push(("children".to_owned(), Value::Array(children)));
        }
        obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanGuard;

    #[test]
    fn capture_records_span_tree_and_counters() {
        begin();
        {
            let _outer = SpanGuard::enter("test.trace.outer");
            crate::counter!("test.trace.cap_counter").add(3);
            {
                let _inner = SpanGuard::enter("test.trace.inner");
                crate::counter!("test.trace.cap_counter").add(2);
            }
        }
        let cap = finish().expect("capture");
        assert!(finish().is_none(), "finish is one-shot");
        assert_eq!(cap.nodes.len(), 2);
        assert_eq!(cap.nodes[0].name, "test.trace.outer");
        assert_eq!(cap.nodes[0].parent, None);
        assert_eq!(cap.nodes[1].name, "test.trace.inner");
        assert_eq!(cap.nodes[1].parent, Some(0));
        assert_eq!(cap.roots(), vec![0]);
        assert_eq!(cap.counter_delta("test.trace.cap_counter"), 5);
    }

    #[test]
    fn untraced_thread_captures_nothing() {
        assert!(!thread_traced());
        // Counter adds on an untraced thread must not leak into a
        // collector installed on a different thread.
        begin();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!thread_traced());
                let _g = SpanGuard::enter("test.trace.other_thread");
                crate::counter!("test.trace.other_counter").add(7);
            })
            .join()
            .expect("join");
        });
        let cap = finish().expect("capture");
        assert!(cap.nodes.is_empty(), "spans leaked: {:?}", cap.nodes);
        assert_eq!(cap.counter_delta("test.trace.other_counter"), 0);
    }

    #[test]
    fn capture_works_without_global_enable() {
        // Deliberately no force_enable(): the collector must see spans
        // even when the global aggregate is off. (Other tests in this
        // binary may have enabled obs — the stronger claim, "traced
        // spans skip the global aggregate", is span.rs's concern.)
        begin();
        {
            let _g = SpanGuard::enter("test.trace.no_global");
        }
        let cap = finish().expect("capture");
        assert_eq!(cap.nodes.len(), 1);
        assert!(cap.nodes[0].dur_us < 1_000_000);
    }

    #[test]
    fn begin_restarts_discarding_previous() {
        begin();
        crate::counter!("test.trace.restart_counter").add(9);
        begin();
        let cap = finish().expect("capture");
        assert_eq!(cap.counter_delta("test.trace.restart_counter"), 0);
        assert!(!thread_traced());
    }

    #[test]
    fn to_json_round_trips() {
        begin();
        {
            let _outer = SpanGuard::enter("test.trace.json_outer");
            let _inner = SpanGuard::enter("test.trace.json \"inner\"");
            crate::counter!("test.trace.json_counter").inc();
        }
        let cap = finish().expect("capture");
        let doc = cap.to_json().render();
        let parsed = crate::json::parse(&doc).expect("valid json");
        let spans = parsed
            .get("spans")
            .and_then(Value::as_array)
            .expect("spans");
        assert_eq!(spans.len(), 1);
        let child = spans[0]
            .get("children")
            .and_then(Value::as_array)
            .expect("children");
        assert_eq!(
            child[0].get("name").and_then(Value::as_str),
            Some("test.trace.json \"inner\"")
        );
        assert!(parsed
            .get("counters")
            .and_then(|c| c.get("test.trace.json_counter"))
            .is_some());
    }
}
