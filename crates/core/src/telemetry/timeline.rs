//! The flight recorder: per-thread span timelines with bounded memory.
//!
//! Aggregate counters and span totals (the [`Registry`](super::Registry))
//! say *how much* time each stage took; they cannot say *when* — which
//! sweep worker was idle while another decoded, whether checkpoint saves
//! stall the analyze loop, where a retry burned its backoff. The timeline
//! answers those questions: a low-overhead, per-thread **ring buffer** of
//! timestamped events that exports as Chrome trace-event JSON, loadable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Design constraints, in order:
//!
//! 1. **Zero effect on results.** Recording never touches stdout or any
//!    report artifact; a run with the recorder enabled is byte-identical
//!    on stdout to a plain run (asserted end to end by the CLI tests).
//! 2. **Bounded memory.** Each thread lane is a ring of at most
//!    [`Timeline::set_lane_capacity`] events; when full, the oldest events are
//!    overwritten and counted in [`LaneSnapshot::dropped`] — a timeline
//!    can run for hours without growing.
//! 3. **Cheap when off, compiled out when absent.** [`timeline_active`]
//!    is two relaxed atomic loads behind the same `telemetry` cargo
//!    feature as the metric macros; with the feature off it is a constant
//!    `None` and every recording site is dead code. Spans are the shared
//!    [`Span`] guard of [`span!`](crate::span), which feeds this timeline
//!    and the metrics registry from one call.
//! 4. **Batch-granular.** Events are recorded at batch/stage boundaries
//!    (a decoded block, an analyzed slice, a sweep cell), never per trace
//!    record — the per-record hot path stays branch-free.
//!
//! Each recording thread owns its lane: pushes take the lane's own mutex,
//! which is uncontended except against the final export. Spans are
//! recorded as single *complete* events at close (start + duration), so a
//! ring overwrite can never orphan half a span.
//!
//! # Examples
//!
//! ```
//! use paragraph_core::telemetry::timeline::Timeline;
//!
//! let timeline = Timeline::new();
//! timeline.enable();
//! {
//!     let mut span = timeline.span("decode");
//!     span.arg("records", 4096);
//! }
//! timeline.instant("checkpoint", None);
//! let mut json = Vec::new();
//! timeline.export_chrome_trace(&mut json).unwrap();
//! let text = String::from_utf8(json).unwrap();
//! assert!(text.contains("\"traceEvents\""));
//! assert!(text.contains("\"name\":\"decode\""));
//! ```

use super::Span;
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Default per-lane ring capacity, in events. At batch granularity (one
/// event per 64Ki-record slice or per sweep cell) this holds hours of
/// activity in a few megabytes per lane.
pub const DEFAULT_LANE_CAPACITY: usize = 65_536;

/// What one timeline event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A closed span: the event's timestamp is the span start and
    /// `dur_ns` its length (Chrome phase `X`).
    Complete {
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// A point-in-time marker (Chrome phase `i`, thread scope).
    Instant,
    /// The origin of a flow arrow (Chrome phase `s`); `id` ties it to the
    /// matching [`EventKind::FlowFinish`].
    FlowStart {
        /// Flow identity, unique per arrow.
        id: u64,
    },
    /// The target of a flow arrow (Chrome phase `f`).
    FlowFinish {
        /// Flow identity, matching the originating [`EventKind::FlowStart`].
        id: u64,
    },
    /// A sampled counter value (Chrome phase `C`) — rendered as a
    /// counter-over-time track in Perfetto.
    Counter {
        /// The sampled value.
        value: u64,
    },
}

/// One recorded event. `name` is the static category (the profile table
/// aggregates by it); `label` optionally specializes the rendered slice
/// name (e.g. the sweep cell `xlisp@w64` under category `sweep.cell`).
#[derive(Debug, Clone)]
pub struct TimelineEvent {
    /// Nanoseconds since the timeline was created (span start time for
    /// complete events).
    pub ts_ns: u64,
    /// Static category name.
    pub name: &'static str,
    /// Optional dynamic label; the exported slice name becomes the label
    /// with `name` kept as the category.
    pub label: Option<Box<str>>,
    /// What the event records.
    pub kind: EventKind,
    /// Small scalar payload, exported as Chrome `args`.
    pub args: Vec<(&'static str, u64)>,
}

/// Bounded event storage of one lane: a Vec that grows to `capacity` and
/// then wraps, overwriting the oldest event.
#[derive(Debug)]
struct Ring {
    events: Vec<TimelineEvent>,
    /// Next overwrite position once `events.len() == capacity`.
    head: usize,
    dropped: u64,
    capacity: usize,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            events: Vec::new(),
            head: 0,
            dropped: 0,
            capacity: capacity.max(1),
        }
    }

    fn push(&mut self, event: TimelineEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped = self.dropped.saturating_add(1);
        }
    }

    /// Events in chronological order (unwrapping the ring).
    fn drain_ordered(&self) -> Vec<TimelineEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }
}

/// One thread's recording lane.
#[derive(Debug)]
pub struct Lane {
    tid: u32,
    name: Mutex<String>,
    ring: Mutex<Ring>,
}

impl Lane {
    fn lock_ring(&self) -> MutexGuard<'_, Ring> {
        // A poisoned lane must never take the analysis down.
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Frozen contents of one lane, for export and inspection.
#[derive(Debug, Clone)]
pub struct LaneSnapshot {
    /// Lane id (the exported Chrome `tid`), assigned in registration
    /// order starting at 0.
    pub tid: u32,
    /// Lane display name (thread name, or `worker-N` when set explicitly).
    pub name: String,
    /// Events overwritten by ring wrap-around.
    pub dropped: u64,
    /// Surviving events, chronological.
    pub events: Vec<TimelineEvent>,
}

/// Monotonic source of timeline identities, so thread-local lane caches
/// can tell timelines apart (tests construct private instances).
static NEXT_TIMELINE_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's lanes, one per timeline it has recorded into.
    static THREAD_LANES: RefCell<Vec<(u64, Arc<Lane>)>> = const { RefCell::new(Vec::new()) };
}

/// A per-thread, ring-buffered event timeline.
///
/// One process-wide instance ([`timeline`]) backs the CLI and the sweep
/// scheduler; tests construct private instances. All operations are
/// `&self` and the timeline is `Sync`; each thread records into its own
/// lane, created on first use.
pub struct Timeline {
    id: u64,
    start: Instant,
    enabled: AtomicBool,
    capacity: AtomicUsize,
    lanes: Mutex<Vec<Arc<Lane>>>,
}

impl std::fmt::Debug for Timeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timeline")
            .field("enabled", &self.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Default for Timeline {
    fn default() -> Timeline {
        Timeline::new()
    }
}

impl Timeline {
    /// A fresh, disabled timeline with the default lane capacity.
    pub fn new() -> Timeline {
        Timeline {
            id: NEXT_TIMELINE_ID.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            enabled: AtomicBool::new(false),
            capacity: AtomicUsize::new(DEFAULT_LANE_CAPACITY),
            lanes: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns recording off (the fast-path check).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Bounds every lane created *after* this call to `capacity` events
    /// (existing lanes keep their ring). Zero is clamped to one.
    pub fn set_lane_capacity(&self, capacity: usize) {
        self.capacity.store(capacity.max(1), Ordering::Relaxed);
    }

    /// Nanoseconds since the timeline was created (the event timebase).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock_lanes(&self) -> MutexGuard<'_, Vec<Arc<Lane>>> {
        self.lanes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// This thread's lane in this timeline, registering one on first use.
    fn lane(&self) -> Arc<Lane> {
        THREAD_LANES.with(|lanes| {
            let mut lanes = lanes.borrow_mut();
            if let Some((_, lane)) = lanes.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(lane);
            }
            let lane = {
                let mut registered = self.lock_lanes();
                let tid = u32::try_from(registered.len()).unwrap_or(u32::MAX);
                let name = std::thread::current()
                    .name()
                    .map(str::to_owned)
                    .unwrap_or_else(|| format!("thread-{tid}"));
                let lane = Arc::new(Lane {
                    tid,
                    name: Mutex::new(name),
                    ring: Mutex::new(Ring::new(self.capacity.load(Ordering::Relaxed))),
                });
                registered.push(Arc::clone(&lane));
                lane
            };
            lanes.push((self.id, Arc::clone(&lane)));
            lane
        })
    }

    /// Names the calling thread's lane (e.g. `worker-3`); the name shows
    /// as the Perfetto track title.
    pub fn set_thread_name(&self, name: &str) {
        if !self.is_enabled() {
            return;
        }
        let lane = self.lane();
        *lane.name.lock().unwrap_or_else(PoisonError::into_inner) = name.to_owned();
    }

    fn push(&self, event: TimelineEvent) {
        self.lane().lock_ring().push(event);
    }

    /// Opens a span on this timeline alone; the guard records one complete
    /// event on the calling thread's lane at drop. Inert when the timeline
    /// is disabled.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span::new(None, self.is_enabled().then_some(self), name)
    }

    /// Records a closed span that began at `start` as one complete event.
    pub(super) fn complete(
        &self,
        name: &'static str,
        label: Option<String>,
        start: Instant,
        dur_ns: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        let since = start.saturating_duration_since(self.start).as_nanos();
        self.push(TimelineEvent {
            ts_ns: u64::try_from(since).unwrap_or(u64::MAX),
            name,
            label: label.map(String::into_boxed_str),
            kind: EventKind::Complete { dur_ns },
            args,
        });
    }

    /// Records a point-in-time marker.
    pub fn instant(&self, name: &'static str, label: Option<&str>) {
        self.instant_with_args(name, label, &[]);
    }

    /// [`instant`](Timeline::instant) with scalar args.
    pub fn instant_with_args(
        &self,
        name: &'static str,
        label: Option<&str>,
        args: &[(&'static str, u64)],
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(TimelineEvent {
            ts_ns: self.elapsed_ns(),
            name,
            label: label.map(Box::from),
            kind: EventKind::Instant,
            args: args.to_vec(),
        });
    }

    /// Records the origin of flow arrow `id` (e.g. a failed attempt that
    /// will be retried elsewhere).
    pub fn flow_start(&self, name: &'static str, id: u64) {
        if !self.is_enabled() {
            return;
        }
        self.push(TimelineEvent {
            ts_ns: self.elapsed_ns(),
            name,
            label: None,
            kind: EventKind::FlowStart { id },
            args: Vec::new(),
        });
    }

    /// Records the target of flow arrow `id`.
    pub fn flow_finish(&self, name: &'static str, id: u64) {
        if !self.is_enabled() {
            return;
        }
        self.push(TimelineEvent {
            ts_ns: self.elapsed_ns(),
            name,
            label: None,
            kind: EventKind::FlowFinish { id },
            args: Vec::new(),
        });
    }

    /// Samples a counter value — consecutive samples of the same `name`
    /// render as a counter-over-time track.
    pub fn counter(&self, name: &'static str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        self.push(TimelineEvent {
            ts_ns: self.elapsed_ns(),
            name,
            label: None,
            kind: EventKind::Counter { value },
            args: Vec::new(),
        });
    }

    /// A point-in-time copy of every lane, in lane-id order.
    pub fn snapshot(&self) -> Vec<LaneSnapshot> {
        let lanes = self.lock_lanes();
        lanes
            .iter()
            .map(|lane| {
                let ring = lane.lock_ring();
                LaneSnapshot {
                    tid: lane.tid,
                    name: lane
                        .name
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .clone(),
                    dropped: ring.dropped,
                    events: ring.drain_ordered(),
                }
            })
            .collect()
    }

    /// Writes the timeline as Chrome trace-event JSON (object form, with
    /// a `traceEvents` array) — loadable in Perfetto or `chrome://tracing`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn export_chrome_trace<W: Write>(&self, mut out: W) -> std::io::Result<()> {
        let lanes = self.snapshot();
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        let mut first = true;
        let mut emit = |out: &mut W, line: &str| -> std::io::Result<()> {
            if first {
                first = false;
            } else {
                out.write_all(b",\n")?;
            }
            out.write_all(line.as_bytes())
        };
        emit(
            &mut out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"paragraph\"}}",
        )?;
        for lane in &lanes {
            emit(
                &mut out,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    lane.tid,
                    json_escape(&lane.name),
                ),
            )?;
            if lane.dropped > 0 {
                emit(
                    &mut out,
                    &format!(
                        "{{\"name\":\"timeline.dropped\",\"ph\":\"i\",\"s\":\"t\",\
                         \"ts\":0.000,\"pid\":1,\"tid\":{},\
                         \"args\":{{\"dropped\":{}}}}}",
                        lane.tid, lane.dropped,
                    ),
                )?;
            }
        }
        for lane in &lanes {
            for event in &lane.events {
                emit(&mut out, &render_event(lane.tid, event))?;
            }
        }
        out.write_all(b"\n]}\n")
    }
}

/// Microseconds with fixed 3-decimal nanosecond precision — integer math,
/// so the rendering is deterministic across platforms.
fn fmt_ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one event as a single-line Chrome trace-event object.
fn render_event(tid: u32, event: &TimelineEvent) -> String {
    let display_name = match &event.label {
        Some(label) => json_escape(label),
        None => json_escape(event.name),
    };
    let mut line = format!(
        "{{\"name\":\"{display_name}\",\"cat\":\"{}\",",
        json_escape(event.name)
    );
    match event.kind {
        EventKind::Complete { dur_ns } => {
            line.push_str(&format!(
                "\"ph\":\"X\",\"ts\":{},\"dur\":{},",
                fmt_ts_us(event.ts_ns),
                fmt_ts_us(dur_ns),
            ));
        }
        EventKind::Instant => {
            line.push_str(&format!(
                "\"ph\":\"i\",\"s\":\"t\",\"ts\":{},",
                fmt_ts_us(event.ts_ns)
            ));
        }
        EventKind::FlowStart { id } => {
            line.push_str(&format!(
                "\"ph\":\"s\",\"id\":{id},\"ts\":{},",
                fmt_ts_us(event.ts_ns)
            ));
        }
        EventKind::FlowFinish { id } => {
            line.push_str(&format!(
                "\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"ts\":{},",
                fmt_ts_us(event.ts_ns)
            ));
        }
        EventKind::Counter { value } => {
            line.push_str(&format!(
                "\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"value\":{value}}}}}",
                fmt_ts_us(event.ts_ns)
            ));
            return line;
        }
    }
    line.push_str(&format!("\"pid\":1,\"tid\":{tid},\"args\":{{"));
    for (i, (key, value)) in event.args.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!("\"{}\":{value}", json_escape(key)));
    }
    line.push_str("}}");
    line
}

static GLOBAL_TIMELINE: OnceLock<Timeline> = OnceLock::new();

/// The process-wide timeline backing the CLI and the sweep scheduler.
/// Created disabled on first use; [`Timeline::enable`] starts recording.
pub fn timeline() -> &'static Timeline {
    GLOBAL_TIMELINE.get_or_init(Timeline::new)
}

/// The global timeline, only if it exists *and* is enabled — the
/// recording fast path (two relaxed loads). A constant `None` when the
/// `telemetry` feature is off, which dead-code-eliminates every site.
#[inline]
pub fn timeline_active() -> Option<&'static Timeline> {
    #[cfg(feature = "telemetry")]
    {
        let timeline = GLOBAL_TIMELINE.get()?;
        timeline.is_enabled().then_some(timeline)
    }
    #[cfg(not(feature = "telemetry"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timeline_records_nothing() {
        let timeline = Timeline::new();
        {
            let span = timeline.span("nothing");
            assert!(!span.is_active());
        }
        timeline.instant("also-nothing", None);
        timeline.counter("nope", 1);
        assert!(timeline.snapshot().is_empty(), "no lane should register");
    }

    #[test]
    fn spans_record_complete_events_with_args() {
        let timeline = Timeline::new();
        timeline.enable();
        {
            let mut span = timeline
                .span("sweep.cell")
                .labeled(|| "xlisp@w64".to_owned());
            span.arg("records", 17);
        }
        let lanes = timeline.snapshot();
        assert_eq!(lanes.len(), 1);
        let event = &lanes[0].events[0];
        assert_eq!(event.name, "sweep.cell");
        assert_eq!(event.label.as_deref(), Some("xlisp@w64"));
        assert!(matches!(event.kind, EventKind::Complete { .. }));
        assert_eq!(event.args, vec![("records", 17)]);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let timeline = Timeline::new();
        timeline.enable();
        timeline.set_lane_capacity(4);
        for i in 0..10 {
            timeline.instant_with_args("tick", None, &[("i", i)]);
        }
        let lanes = timeline.snapshot();
        assert_eq!(lanes[0].events.len(), 4);
        assert_eq!(lanes[0].dropped, 6);
        // The survivors are the newest four, in chronological order.
        let seen: Vec<u64> = lanes[0].events.iter().map(|e| e.args[0].1).collect();
        assert_eq!(seen, vec![6, 7, 8, 9]);
    }

    #[test]
    fn each_thread_gets_its_own_lane() {
        let timeline = Timeline::new();
        timeline.enable();
        timeline.instant("main-event", None);
        std::thread::scope(|scope| {
            for worker in 0..3u64 {
                let timeline = &timeline;
                scope.spawn(move || {
                    timeline.set_thread_name(&format!("worker-{worker}"));
                    timeline.instant_with_args("worker-event", None, &[("worker", worker)]);
                });
            }
        });
        let lanes = timeline.snapshot();
        assert_eq!(lanes.len(), 4, "main + three workers");
        let tids: Vec<u32> = lanes.iter().map(|l| l.tid).collect();
        assert_eq!(tids, vec![0, 1, 2, 3]);
        let worker_lanes: Vec<&LaneSnapshot> = lanes
            .iter()
            .filter(|l| l.name.starts_with("worker-"))
            .collect();
        assert_eq!(worker_lanes.len(), 3);
        for lane in worker_lanes {
            assert_eq!(lane.events.len(), 1);
        }
    }

    #[test]
    fn export_is_valid_chrome_trace_json() {
        let timeline = Timeline::new();
        timeline.enable();
        {
            let mut span = timeline.span("analyze");
            span.arg("records", 100);
            let _nested = timeline.span("sweep.cell").labeled(|| "a\"b".to_owned());
        }
        timeline.instant("checkpoint", None);
        timeline.flow_start("retry", 7);
        timeline.flow_finish("retry", 7);
        timeline.counter("arena.hits", 3);
        let mut out = Vec::new();
        timeline.export_chrome_trace(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let events = crate::telemetry::tracefmt::parse_chrome_trace(&text)
            .expect("export must parse as Chrome trace-event JSON");
        // 1 process_name + 1 thread_name + 6 recorded events.
        assert_eq!(events.len(), 8);
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"ph\":\"s\""));
        assert!(text.contains("\"ph\":\"f\""));
        assert!(text.contains("\"ph\":\"C\""));
        assert!(text.contains("a\\\"b"), "labels are JSON-escaped");
    }

    #[test]
    fn timestamps_render_as_fixed_point_microseconds() {
        assert_eq!(fmt_ts_us(0), "0.000");
        assert_eq!(fmt_ts_us(999), "0.999");
        assert_eq!(fmt_ts_us(1_000), "1.000");
        assert_eq!(fmt_ts_us(1_234_567), "1234.567");
    }

    #[test]
    fn global_timeline_is_inert_until_enabled() {
        timeline().disable();
        assert!(timeline_active().is_none());
        assert!(!timeline().span("inert").is_active());
    }

    #[test]
    fn dropped_events_surface_in_the_export() {
        let timeline = Timeline::new();
        timeline.enable();
        timeline.set_lane_capacity(2);
        for _ in 0..5 {
            timeline.instant("tick", None);
        }
        let mut out = Vec::new();
        timeline.export_chrome_trace(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("timeline.dropped"));
        assert!(text.contains("\"dropped\":3"));
    }
}
