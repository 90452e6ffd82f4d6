//! The benchmark's own spans, recorded around each call into the program
//! during the traced window.
//!
//! Each span is kept in memory as a record (name, op id, thread, start,
//! duration, parent) and also opens an obs span of the same name, so the
//! program's spans nest under it in the obs aggregate and self times are
//! computed by one mechanism. Records are written out when the run ends.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use tac25d_obs as obs;
use tac25d_obs::json::{obj, Value};

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn done() -> &'static Mutex<Vec<SpanRecord>> {
    static DONE: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    DONE.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
    // (id, index into LOCAL) of each open span, innermost last.
    static OPEN: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
}

/// One finished benchmark span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub id: u64,
    /// Span name (`bench.*`).
    pub name: &'static str,
    /// Op the span belongs to; spans of one op share it.
    pub op: u64,
    /// Recording thread (small integer chosen by the caller).
    pub thread: u32,
    /// Start, ns since the benchmark epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Id of the enclosing benchmark span, if any.
    pub parent: Option<u64>,
}

/// Turns span recording (and the program's obs spans) on for the rest of
/// the process.
pub fn enable() {
    epoch();
    obs::force_enable();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open benchmark span; closes on drop. Inert when tracing is off.
#[must_use = "the span measures the scope holding it"]
pub struct BenchSpan {
    // Dropped after `drop` records the duration, so the obs span covers
    // the same interval.
    open: Option<(Instant, usize, obs::span::SpanGuard)>,
}

/// Opens span `name` for op `op` on recording thread `thread`.
pub fn span(name: &'static str, op: u64, thread: u32) -> BenchSpan {
    if !enabled() {
        return BenchSpan { open: None };
    }
    let guard = obs::span::SpanGuard::enter(name);
    let start = Instant::now();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let index = LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let parent = OPEN.with(|open| open.borrow().last().map(|&(id, _)| id));
        local.push(SpanRecord {
            id,
            name,
            op,
            thread,
            start_ns: start.duration_since(epoch()).as_nanos() as u64,
            dur_ns: 0,
            parent,
        });
        local.len() - 1
    });
    OPEN.with(|open| open.borrow_mut().push((id, index)));
    BenchSpan {
        open: Some((start, index, guard)),
    }
}

impl Drop for BenchSpan {
    fn drop(&mut self) {
        if let Some((start, index, _)) = &self.open {
            let dur = start.elapsed().as_nanos() as u64;
            LOCAL.with(|local| local.borrow_mut()[*index].dur_ns = dur);
            OPEN.with(|open| open.borrow_mut().pop());
        }
    }
}

/// Hands this thread's records to the process-wide list. Call when no
/// span is open on the thread, before it exits.
pub fn flush_thread() {
    let mut mine = LOCAL.with(|local| std::mem::take(&mut *local.borrow_mut()));
    if !mine.is_empty() {
        done().lock().expect("span list poisoned").append(&mut mine);
    }
}

/// Every flushed record, as one JSON document per line.
pub fn render_jsonl() -> String {
    flush_thread();
    let records = done().lock().expect("span list poisoned");
    let mut out = String::new();
    for r in records.iter() {
        let line = obj([
            ("id", Value::from(r.id)),
            ("name", Value::from(r.name)),
            ("op", Value::from(r.op)),
            ("thread", Value::from(r.thread)),
            ("start_ns", Value::from(r.start_ns)),
            ("dur_ns", Value::from(r.dur_ns)),
            ("parent", r.parent.map_or(Value::Null, Value::from)),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}
