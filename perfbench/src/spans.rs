//! In-memory spans for the traced run.
//!
//! Each span records its layer name, start, end, lane (thread) and the
//! span that caused it. Spans stay in memory until the run ends and are
//! then written as Chrome trace-event JSON, the format `paragraph profile`
//! reads; the per-layer self times come from the same summarizer and table
//! renderer that command uses ([`tracefmt::summarize`],
//! [`tracefmt::render_profile`]), fed the events directly.
//! When the recorder is off a span costs one relaxed load.

use paragraph_core::telemetry::tracefmt::{self, TraceEvent};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (ids start at 1; 0 means "no parent").
    pub id: u64,
    /// Id of the span that caused this one.
    pub parent: u64,
    /// Layer name.
    pub name: &'static str,
    /// Lane the span ran on.
    pub tid: u64,
    /// Start and end, ns since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    spans: Mutex<Vec<Span>>,
    lanes: Mutex<BTreeMap<u64, String>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        next_tid: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
        lanes: Mutex::new(BTreeMap::new()),
    })
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(recorder().next_tid.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    recorder().on.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    recorder().on.load(Ordering::Relaxed)
}

/// Names the calling thread's lane.
pub fn name_lane(name: &str) {
    if enabled() {
        let id = tid();
        recorder()
            .lanes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, name.to_owned());
    }
}

/// An open span; it closes when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Guard {
    /// This span's id, for children opened on other threads.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Nanoseconds since the recorder's epoch.
pub fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// Opens a span whose parent is the innermost open span on this thread.
pub fn span(name: &'static str) -> Guard {
    let parent = if enabled() {
        OPEN.with(|o| o.borrow().last().copied().unwrap_or(0))
    } else {
        0
    };
    child_of(name, parent)
}

/// Opens a span with an explicit parent (for work handed to another
/// thread).
pub fn child_of(name: &'static str, parent: u64) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
        };
    }
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    OPEN.with(|o| o.borrow_mut().push(id));
    Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        OPEN.with(|o| {
            let mut open = o.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&i| i == self.id) {
                open.remove(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            tid: tid(),
            start_ns: self.start_ns,
            end_ns,
        };
        recorder()
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
    }
}

/// Takes every recorded span, leaving the recorder empty.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *recorder().spans.lock().unwrap_or_else(|e| e.into_inner()))
}

/// The spans as trace events (plus lane names), ready for
/// [`tracefmt::summarize`].
pub fn events(spans: &[Span]) -> Vec<TraceEvent> {
    let lanes = recorder().lanes.lock().unwrap_or_else(|e| e.into_inner());
    let event = |name: &str, ph: &str, tid: u64| TraceEvent {
        name: name.to_owned(),
        cat: String::new(),
        ph: ph.to_owned(),
        ts_us: 0.0,
        dur_us: 0.0,
        pid: 1,
        tid: tid as i64,
        id: None,
        args: BTreeMap::new(),
        arg_name: None,
    };
    let mut out: Vec<TraceEvent> = lanes
        .iter()
        .map(|(&tid, name)| TraceEvent {
            arg_name: Some(name.clone()),
            ..event("thread_name", "M", tid)
        })
        .collect();
    out.extend(spans.iter().map(|s| TraceEvent {
        ts_us: s.start_ns as f64 / 1e3,
        dur_us: (s.end_ns - s.start_ns) as f64 / 1e3,
        args: BTreeMap::from([
            ("id".to_owned(), s.id as f64),
            ("parent".to_owned(), s.parent as f64),
        ]),
        ..event(s.name, "X", s.tid)
    }));
    out
}

/// Renders spans as Chrome trace-event JSON: lane names as metadata
/// events, spans as complete events (`ts`/`dur` in microseconds) with
/// their ids and parents in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let lines: Vec<String> = events(spans)
        .iter()
        .map(|e| {
            if e.ph == "M" {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                    e.name,
                    e.tid,
                    e.arg_name.as_deref().unwrap_or("")
                )
            } else {
                let args: Vec<String> = e.args.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{{}}}}}",
                    e.name,
                    e.ts_us,
                    e.dur_us,
                    e.tid,
                    args.join(",")
                )
            }
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", lines.join(",\n"))
}

/// Self-time table of `spans`, as `paragraph profile` summarizes a timeline.
pub fn summarize(spans: &[Span]) -> tracefmt::ProfileSummary {
    tracefmt::summarize(&events(spans))
}

/// Share of `[from_ns, to_ns]` covered by the union of all spans.
pub fn coverage(spans: &[Span], from_ns: u64, to_ns: u64) -> f64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_ns.max(from_ns), s.end_ns.min(to_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered as f64 / (to_ns.saturating_sub(from_ns)).max(1) as f64
}
