//! The *paragraph-telemetry* layer: structured events, per-stage metrics,
//! and live progress for the streaming analysis pipeline.
//!
//! The live-well algorithm is a single pass over hundreds of millions of
//! dynamic instructions; without instrumentation the pipeline (trace decode
//! → placement → window/firewall accounting → report) is a black box until
//! the final report prints. This module provides the measurement substrate:
//!
//! * **Metric primitives** — [`Counter`], [`Gauge`], [`Histogram`] — are
//!   lock-free atomics. Counters and histogram cells *saturate* instead of
//!   wrapping, and every primitive supports lossless [`merge`](Counter::merge)
//!   so per-shard metrics can be combined.
//! * **A [`Registry`]** names metrics, aggregates span timings, and owns an
//!   optional JSONL event sink. A process-wide registry backs the macros;
//!   unit tests construct private registries.
//! * **Macros** — [`counter!`](crate::counter), [`gauge!`](crate::gauge),
//!   [`histogram!`](crate::histogram), [`span!`](crate::span) — are safe to
//!   leave in hot loops. With the `telemetry` cargo feature disabled they
//!   compile to nothing; with the feature on but no sink armed at runtime
//!   they cost two relaxed atomic loads and a branch.
//! * **One span guard** — [`Span`], opened by [`span!`](crate::span), marks
//!   a stage once for every sink: on drop it records into the registry
//!   aggregate (the JSONL `span` event and the Prometheus
//!   `_seconds_total`/`_calls_total` pair) and puts one complete event on
//!   the calling thread's timeline lane.
//! * **Sinks** — a JSONL structured event log ([`Registry::set_event_sink`]),
//!   a Prometheus text snapshot ([`prom`]), and a human stderr heartbeat
//!   ([`progress`]). [`summary`] parses a JSONL log back into a per-stage
//!   time/throughput table (the `paragraph stats --telemetry` view).
//! * **The flight recorder** — [`timeline`] keeps a bounded, per-thread
//!   ring of span/instant/flow/counter events and exports Chrome
//!   trace-event JSON for Perfetto (`--timeline-out`); [`tracefmt`]
//!   parses it back and computes the `paragraph profile` attribution
//!   (per-stage self-time, lane utilization, slowest slices, diffs).
//!
//! # Examples
//!
//! ```
//! use paragraph_core::telemetry::Registry;
//!
//! let registry = Registry::new();
//! registry.enable();
//! registry.counter("decode.records").add(4096);
//! registry.histogram("livewell.occupancy").observe(12_000);
//! {
//!     let mut span = registry.span("decode");
//!     span.arg("records", 4096);
//!     // ... timed work ...
//! }
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters["decode.records"], 4096);
//! assert_eq!(snapshot.spans["decode"].count, 1);
//! ```

pub mod progress;
pub mod prom;
pub mod summary;
pub mod timeline;
pub mod tracefmt;

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// A monotonically increasing event count.
///
/// Additions saturate at `u64::MAX` rather than wrapping, so a counter that
/// overflows pins at the maximum instead of silently restarting — an
/// impossible-to-misread signal in a dashboard.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n`, saturating at `u64::MAX`.
    pub fn add(&self, n: u64) {
        saturating_fetch_add(&self.value, n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Folds another counter into this one (saturating).
    pub fn merge(&self, other: &Counter) {
        self.add(other.get());
    }
}

/// A last-write-wins instantaneous value (occupancy, floor level, ...).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`]: one for zero plus one per power of
/// two up to `2^63`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` observations.
///
/// Bucket 0 holds exact zeros; bucket `i` (for `i >= 1`) holds values in
/// `[2^(i-1), 2^i)`. Cells, the total count, and the running sum all
/// saturate instead of wrapping, and two histograms with the same bucketing
/// merge losslessly — the semantics exercised by the overflow/merge tests.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index of `value`: 0 for 0, else `floor(log2(value)) + 1`.
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        saturating_fetch_add(&self.buckets[bucket_index(value)], 1);
        saturating_fetch_add(&self.count, 1);
        saturating_fetch_add(&self.sum, value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Folds another histogram into this one, cell by cell (saturating).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            saturating_fetch_add(mine, theirs.load(Ordering::Relaxed));
        }
        saturating_fetch_add(&self.count, other.count());
        saturating_fetch_add(&self.sum, other.sum());
    }

    /// A point-in-time copy of the cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Saturating atomic add (relaxed; telemetry tolerates torn interleavings).
fn saturating_fetch_add(cell: &AtomicU64, n: u64) {
    if n == 0 {
        return;
    }
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = current.saturating_add(n);
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

/// Frozen cells of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`Histogram`] for the bucketing).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations (saturating).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Upper bound (inclusive) of bucket `i`: 0 for bucket 0, else `2^i - 1`.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Approximate quantile (`q` in `[0,1]`): the upper bound of the bucket
    /// containing the `q`-th observation. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(HistogramSnapshot::bucket_upper_bound(i));
            }
        }
        Some(u64::MAX)
    }

    /// Mean observation (0 when empty). An approximation once `sum` has
    /// saturated.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Aggregated timings of one named span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed executions of the span.
    pub count: u64,
    /// Total nanoseconds across executions (saturating).
    pub total_ns: u64,
    /// Longest single execution in nanoseconds.
    pub max_ns: u64,
}

/// A typed value carried by a structured event field.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (serialized with six decimal places).
    F64(f64),
    /// String (JSON-escaped on write).
    Str(&'a str),
}

fn write_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn append_field(out: &mut String, key: &str, value: Value<'_>) {
    out.push_str(",\"");
    write_json_escaped(out, key);
    out.push_str("\":");
    match value {
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::F64(v) => {
            if v.is_finite() {
                out.push_str(&format!("{v:.6}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => {
            out.push('"');
            write_json_escaped(out, s);
            out.push('"');
        }
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, Arc<Counter>>,
    gauges: BTreeMap<&'static str, Arc<Gauge>>,
    histograms: BTreeMap<&'static str, Arc<Histogram>>,
    spans: BTreeMap<&'static str, SpanStat>,
    sink: Option<Box<dyn Write + Send>>,
    sink_failed: bool,
}

impl Inner {
    /// The event sink, unless none is installed or a write has failed.
    fn live_sink(&mut self) -> Option<&mut (dyn Write + Send + 'static)> {
        if self.sink_failed {
            return None;
        }
        self.sink.as_deref_mut()
    }

    /// Formats one event line, timed from `start`, and writes it — only
    /// when a live sink takes it. A failed write disables the sink.
    fn write_event(&mut self, start: Instant, event: &str, fields: &[(&str, Value<'_>)]) {
        let Some(sink) = self.live_sink() else {
            return;
        };
        let ts = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut line = String::with_capacity(64 + 24 * fields.len());
        line.push_str(&format!("{{\"ts_ns\":{ts},\"event\":\""));
        write_json_escaped(&mut line, event);
        line.push('"');
        for &(key, value) in fields {
            append_field(&mut line, key, value);
        }
        line.push_str("}\n");
        if sink.write_all(line.as_bytes()).is_err() {
            self.sink_failed = true;
        }
    }
}

/// A named-metric registry with an optional structured event sink.
///
/// One process-wide registry ([`global`]) backs the macros; libraries that
/// want isolation (tests, embedders) construct their own and thread it
/// explicitly. All operations are `&self`; the registry is `Sync`.
pub struct Registry {
    start: Instant,
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// A fresh, disabled registry.
    pub fn new() -> Registry {
        Registry {
            start: Instant::now(),
            enabled: AtomicBool::new(false),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A poisoned telemetry mutex must never take the analysis down:
        // recover the inner state and keep going.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Turns collection on. Metrics and spans recorded while disabled are
    /// dropped at the macro layer but accepted through direct handles.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Turns collection off (the macro fast path).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether collection is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the registry was created (the event timebase).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(self.lock().counters.entry(name).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        Arc::clone(self.lock().gauges.entry(name).or_default())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        Arc::clone(self.lock().histograms.entry(name).or_default())
    }

    /// Installs the JSONL structured event sink (e.g. a `BufWriter` over
    /// `--telemetry-out`). Write failures disable the sink after the first
    /// error; telemetry never takes the analysis down.
    pub fn set_event_sink(&self, sink: Box<dyn Write + Send>) {
        let mut inner = self.lock();
        inner.sink = Some(sink);
        inner.sink_failed = false;
    }

    /// Flushes the event sink, reporting the first failure — including a
    /// mid-run write error that disabled the sink (the log on disk is
    /// incomplete, and whoever owns the artifact should fail it).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error, or reports a sink disabled by
    /// an earlier write failure.
    pub fn flush_sink(&self) -> std::io::Result<()> {
        let mut inner = self.lock();
        if inner.sink_failed {
            return Err(std::io::Error::other(
                "event sink disabled after a write failure; the log is incomplete",
            ));
        }
        match inner.sink.as_mut() {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }

    /// Emits one structured event line (`{"ts_ns":..,"event":..,...fields}`)
    /// to the sink, if one is installed; with none (or a failed one) the
    /// line is never formatted. Events are flat: scalar fields only, which
    /// keeps the log greppable and the parser trivial.
    pub fn emit(&self, event: &str, fields: &[(&str, Value<'_>)]) {
        self.lock().write_event(self.start, event, fields);
    }

    /// Opens a span on this registry alone (inert when it is disabled); the
    /// [`span!`](crate::span) macro opens one on every armed global sink.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span::new(self.is_enabled().then_some(self), None, name)
    }

    /// Records one completed execution of span `name` and emits a `span`
    /// event carrying the duration, the label if any, and the span's args.
    fn record_span(
        &self,
        name: &'static str,
        dur_ns: u64,
        label: Option<&str>,
        args: &[(&'static str, u64)],
    ) {
        let mut inner = self.lock();
        let stat = inner.spans.entry(name).or_default();
        stat.count = stat.count.saturating_add(1);
        stat.total_ns = stat.total_ns.saturating_add(dur_ns);
        stat.max_ns = stat.max_ns.max(dur_ns);
        if inner.live_sink().is_none() {
            return;
        }
        let mut fields: Vec<(&str, Value<'_>)> = Vec::with_capacity(3 + args.len());
        fields.push(("name", Value::Str(name)));
        fields.push(("dur_ns", Value::U64(dur_ns)));
        if let Some(label) = label {
            fields.push(("label", Value::Str(label)));
        }
        fields.extend(args.iter().map(|&(k, v)| (k, Value::U64(v))));
        inner.write_event(self.start, "span", &fields);
    }

    /// Emits every counter, gauge and span aggregate as `counter`/`gauge`/
    /// `span_total` events — the closing dump of a JSONL log.
    pub fn emit_final_dump(&self) {
        let snapshot = self.snapshot();
        for (name, value) in &snapshot.counters {
            self.emit(
                "counter",
                &[("name", Value::Str(name)), ("value", Value::U64(*value))],
            );
        }
        for (name, value) in &snapshot.gauges {
            self.emit(
                "gauge",
                &[("name", Value::Str(name)), ("value", Value::I64(*value))],
            );
        }
        for (name, stat) in &snapshot.spans {
            self.emit(
                "span_total",
                &[
                    ("name", Value::Str(name)),
                    ("count", Value::U64(stat.count)),
                    ("total_ns", Value::U64(stat.total_ns)),
                    ("max_ns", Value::U64(stat.max_ns)),
                ],
            );
        }
        for (name, h) in &snapshot.histograms {
            self.emit(
                "histogram",
                &[
                    ("name", Value::Str(name)),
                    ("count", Value::U64(h.count)),
                    ("sum", Value::U64(h.sum)),
                    ("p50", Value::U64(h.quantile(0.5).unwrap_or(0))),
                    ("p99", Value::U64(h.quantile(0.99).unwrap_or(0))),
                ],
            );
        }
    }

    /// A point-in-time copy of every metric and span aggregate.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            elapsed_ns: self.elapsed_ns(),
            counters: inner
                .counters
                .iter()
                .map(|(&k, v)| (k.to_owned(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(&k, v)| (k.to_owned(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(&k, v)| (k.to_owned(), v.snapshot()))
                .collect(),
            spans: inner
                .spans
                .iter()
                .map(|(&k, &v)| (k.to_owned(), v))
                .collect(),
        }
    }
}

/// Frozen state of a [`Registry`] — what the Prometheus snapshot renders.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Nanoseconds since the registry was created.
    pub elapsed_ns: u64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram cells by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span aggregates by name.
    pub spans: BTreeMap<String, SpanStat>,
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        prom::render(self)
    }
}

/// One timed stage, marked once for every armed sink.
///
/// Opened by the [`span!`](crate::span) macro on the global sinks, or by
/// [`Registry::span`] / [`Timeline::span`](timeline::Timeline::span) on one
/// private sink. On drop it records one execution into the registry
/// aggregate — which feeds the JSONL `span` event and the Prometheus
/// `_seconds_total`/`_calls_total` pair — and one complete event on the
/// calling thread's timeline lane. A guard opened with no sink armed is
/// inert: it reads no clock, allocates nothing and formats no label.
#[derive(Debug)]
#[must_use = "a span times the region until the guard drops"]
pub struct Span<'a> {
    open: Option<OpenSpan<'a>>,
}

#[derive(Debug)]
struct OpenSpan<'a> {
    registry: Option<&'a Registry>,
    timeline: Option<&'a timeline::Timeline>,
    name: &'static str,
    label: Option<String>,
    start: Instant,
    args: Vec<(&'static str, u64)>,
}

impl<'a> Span<'a> {
    /// Opens span `name` on the given sinks; inert when both are `None`.
    pub fn new(
        registry: Option<&'a Registry>,
        timeline: Option<&'a timeline::Timeline>,
        name: &'static str,
    ) -> Span<'a> {
        let open = (registry.is_some() || timeline.is_some()).then(|| OpenSpan {
            registry,
            timeline,
            name,
            label: None,
            start: Instant::now(),
            args: Vec::new(),
        });
        Span { open }
    }

    /// Gives the span a dynamic label (the timeline slice name and the JSONL
    /// `label` field; `name` stays the aggregation key). `label` runs only
    /// when a sink is armed.
    pub fn labeled(mut self, label: impl FnOnce() -> String) -> Span<'a> {
        if let Some(open) = &mut self.open {
            open.label = Some(label());
        }
        self
    }

    /// Attaches a scalar arg, carried by the JSONL event and the timeline
    /// slice (e.g. records decoded inside the span).
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if let Some(open) = &mut self.open {
            open.args.push((key, value));
        }
    }

    /// Whether this guard will record anything (false when no sink was
    /// armed at creation).
    pub fn is_active(&self) -> bool {
        self.open.is_some()
    }
}

impl Span<'static> {
    /// Opens span `name` on every armed global sink — what
    /// [`span!`](crate::span) expands to.
    #[inline]
    pub fn global(name: &'static str) -> Span<'static> {
        Span::new(active(), timeline::timeline_active(), name)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let dur_ns = u64::try_from(open.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(registry) = open.registry {
            registry.record_span(open.name, dur_ns, open.label.as_deref(), &open.args);
        }
        if let Some(timeline) = open.timeline {
            timeline.complete(open.name, open.label, open.start, dur_ns, open.args);
        }
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry backing the macros. Created disabled on first
/// use; call [`Registry::enable`] to start collecting.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// The global registry, only if it exists *and* is enabled — the macro fast
/// path (two relaxed loads). Compiled to a constant `None` when the
/// `telemetry` feature is off, which dead-code-eliminates every macro body.
#[inline]
pub fn active() -> Option<&'static Registry> {
    #[cfg(feature = "telemetry")]
    {
        let registry = GLOBAL.get()?;
        registry.is_enabled().then_some(registry)
    }
    #[cfg(not(feature = "telemetry"))]
    {
        None
    }
}

/// Whether the global registry is collecting (false when compiled out).
#[inline]
pub fn enabled() -> bool {
    active().is_some()
}

/// Whether any global sink — the registry or the timeline — is armed.
#[inline]
pub(crate) fn armed() -> bool {
    active().is_some() || timeline::timeline_active().is_some()
}

/// Names the calling thread's lane on the global timeline (`worker-3`),
/// the Perfetto track title. A no-op, formatting nothing, when the
/// timeline is disarmed.
pub fn name_lane(name: std::fmt::Arguments<'_>) {
    if let Some(timeline) = timeline::timeline_active() {
        timeline.set_thread_name(&name.to_string());
    }
}

/// Adds to a named counter on the global registry.
///
/// Safe in hot loops: when telemetry is compiled out or disabled this is a
/// constant branch; when enabled, the call site caches its counter handle in
/// a `OnceLock` so steady-state cost is one saturating atomic add.
#[macro_export]
macro_rules! counter {
    ($name:literal, $delta:expr) => {{
        if let Some(__registry) = $crate::telemetry::active() {
            static __SLOT: ::std::sync::OnceLock<::std::sync::Arc<$crate::telemetry::Counter>> =
                ::std::sync::OnceLock::new();
            __SLOT.get_or_init(|| __registry.counter($name)).add($delta);
        }
    }};
}

/// Sets a named gauge on the global registry (see [`counter!`](crate::counter)
/// for the cost model).
#[macro_export]
macro_rules! gauge {
    ($name:literal, $value:expr) => {{
        if let Some(__registry) = $crate::telemetry::active() {
            static __SLOT: ::std::sync::OnceLock<::std::sync::Arc<$crate::telemetry::Gauge>> =
                ::std::sync::OnceLock::new();
            __SLOT.get_or_init(|| __registry.gauge($name)).set($value);
        }
    }};
}

/// Records an observation in a named histogram on the global registry (see
/// [`counter!`](crate::counter) for the cost model).
#[macro_export]
macro_rules! histogram {
    ($name:literal, $value:expr) => {{
        if let Some(__registry) = $crate::telemetry::active() {
            static __SLOT: ::std::sync::OnceLock<::std::sync::Arc<$crate::telemetry::Histogram>> =
                ::std::sync::OnceLock::new();
            __SLOT
                .get_or_init(|| __registry.histogram($name))
                .observe($value);
        }
    }};
}

/// Opens a [`Span`] on every armed global sink; bind the result to keep it
/// alive for the region being timed. A second form labels the span,
/// formatting the label only when a sink is armed:
///
/// ```
/// let mut span = paragraph_core::span!("decode");
/// span.arg("records", 4096);
/// // ... timed work ...
/// let (workload, config) = ("xlisp", "w64");
/// let _cell = paragraph_core::span!("sweep.cell", "{workload}@{config}");
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::telemetry::Span::global($name)
    };
    ($name:literal, $($label:tt)+) => {
        $crate::telemetry::Span::global($name).labeled(|| ::std::format!($($label)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
        c.add(1);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn counter_merge_is_additive_and_saturating() {
        let a = Counter::new();
        let b = Counter::new();
        a.add(40);
        b.add(2);
        a.merge(&b);
        assert_eq!(a.get(), 42);
        b.add(u64::MAX - 2);
        a.merge(&b);
        assert_eq!(a.get(), u64::MAX);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_observe_and_quantiles() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.quantile(0.0), Some(0));
        // p99 lands in the bucket holding 1000: [512, 1024).
        assert_eq!(s.quantile(0.99), Some(1023));
        assert!(s.mean() > 0.0);
    }

    #[test]
    fn histogram_overflow_saturates_count_sum_and_cells() {
        let h = Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, u64::MAX, "sum must saturate, not wrap");
        assert_eq!(s.buckets[64], 2);
    }

    #[test]
    fn histogram_merge_adds_cell_by_cell() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.observe(1);
        a.observe(1000);
        b.observe(1);
        b.observe(0);
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.sum, 1002);
        // Merging a saturated histogram saturates the target.
        let big = Histogram::new();
        big.observe(u64::MAX);
        a.merge(&big);
        assert_eq!(a.snapshot().sum, u64::MAX);
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        assert_eq!(Histogram::new().snapshot().quantile(0.5), None);
    }

    #[test]
    fn registry_names_are_stable_handles() {
        let registry = Registry::new();
        registry.counter("x").add(1);
        registry.counter("x").add(2);
        assert_eq!(registry.counter("x").get(), 3);
        registry.gauge("g").set(-7);
        assert_eq!(registry.gauge("g").get(), -7);
    }

    #[test]
    fn spans_aggregate_and_emit_events() {
        let registry = Registry::new();
        registry.enable();
        let sink: Arc<Mutex<Vec<u8>>> = Arc::default();
        registry.set_event_sink(Box::new(SharedSink(Arc::clone(&sink))));
        {
            let mut guard = registry.span("stage");
            guard.arg("records", 17);
        }
        {
            let _guard = registry.span("stage");
        }
        let snapshot = registry.snapshot();
        let stat = snapshot.spans["stage"];
        assert_eq!(stat.count, 2);
        assert!(stat.total_ns >= stat.max_ns);
        let log = String::from_utf8(sink.lock().unwrap().clone()).unwrap();
        assert_eq!(log.lines().count(), 2);
        assert!(log.contains("\"event\":\"span\""));
        assert!(log.contains("\"records\":17"));
    }

    #[test]
    fn one_span_feeds_the_registry_and_the_timeline() {
        let registry = Registry::new();
        registry.enable();
        let sink: Arc<Mutex<Vec<u8>>> = Arc::default();
        registry.set_event_sink(Box::new(SharedSink(Arc::clone(&sink))));
        let timeline = timeline::Timeline::new();
        timeline.enable();
        {
            let mut span = Span::new(Some(&registry), Some(&timeline), "sweep.cell")
                .labeled(|| "xlisp@w64".to_owned());
            span.arg("records", 9);
        }
        assert_eq!(registry.snapshot().spans["sweep.cell"].count, 1);
        let log = String::from_utf8(sink.lock().unwrap().clone()).unwrap();
        let events = summary::parse_jsonl(&log).unwrap();
        let label = events[0].field("label").and_then(|v| v.as_str());
        assert_eq!(label, Some("xlisp@w64"));
        assert_eq!(events[0].field("records").and_then(|v| v.as_u64()), Some(9));
        let lanes = timeline.snapshot();
        let event = &lanes[0].events[0];
        assert_eq!(event.name, "sweep.cell");
        assert_eq!(event.label.as_deref(), Some("xlisp@w64"));
        assert_eq!(event.args, vec![("records", 9)]);
    }

    #[test]
    fn an_unarmed_span_formats_no_label() {
        let span = Span::new(None, None, "idle").labeled(|| unreachable!("no sink is armed"));
        assert!(!span.is_active());
    }

    #[test]
    fn disabled_registry_spans_are_inert() {
        let registry = Registry::new();
        {
            let guard = registry.span("nothing");
            assert!(!guard.is_active());
        }
        assert!(registry.snapshot().spans.is_empty());
    }

    #[test]
    fn events_are_one_json_object_per_line() {
        let registry = Registry::new();
        registry.enable();
        let sink: Arc<Mutex<Vec<u8>>> = Arc::default();
        registry.set_event_sink(Box::new(SharedSink(Arc::clone(&sink))));
        registry.emit(
            "run_start",
            &[
                ("command", Value::Str("analyze")),
                ("records", Value::U64(5)),
                ("rate", Value::F64(1.5)),
                ("floor", Value::I64(-1)),
                ("quote", Value::Str("a\"b\\c\nd")),
            ],
        );
        let log = String::from_utf8(sink.lock().unwrap().clone()).unwrap();
        let line = log.lines().next().unwrap();
        assert!(line.starts_with("{\"ts_ns\":"));
        assert!(line.contains("\"command\":\"analyze\""));
        assert!(line.contains("\"rate\":1.500000"));
        assert!(line.contains("\"floor\":-1"));
        assert!(line.contains("\\\"b\\\\c\\n"));
        // The parser in `summary` accepts what `emit` writes.
        let events = summary::parse_jsonl(&log).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event, "run_start");
    }

    #[test]
    fn final_dump_covers_every_metric_kind() {
        let registry = Registry::new();
        registry.enable();
        let sink: Arc<Mutex<Vec<u8>>> = Arc::default();
        registry.set_event_sink(Box::new(SharedSink(Arc::clone(&sink))));
        registry.counter("c").add(1);
        registry.gauge("g").set(2);
        registry.histogram("h").observe(3);
        registry.record_span("s", 10, None, &[]);
        registry.emit_final_dump();
        let log = String::from_utf8(sink.lock().unwrap().clone()).unwrap();
        for needle in [
            "\"counter\"",
            "\"gauge\"",
            "\"histogram\"",
            "\"span_total\"",
        ] {
            assert!(log.contains(needle), "missing {needle} in {log}");
        }
    }

    /// Serializes the tests that flip the process-global registry, which
    /// would otherwise enable and disable it under each other.
    static GLOBAL_REGISTRY: Mutex<()> = Mutex::new(());

    #[test]
    fn macros_are_inert_without_an_enabled_global_registry() {
        let _serial = GLOBAL_REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        // Never enabled in this test binary unless another test enabled it;
        // either way the macros must not panic, and with the registry
        // disabled they must record nothing new.
        global().disable();
        counter!("test.macro.counter", 1);
        gauge!("test.macro.gauge", 1);
        histogram!("test.macro.histogram", 1);
        let _span = span!("test.macro.span");
        assert!(!enabled());
    }

    #[test]
    fn macros_record_through_the_global_registry_when_enabled() {
        let _serial = GLOBAL_REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        global().enable();
        counter!("test.macro.live_counter", 2);
        counter!("test.macro.live_counter", 3);
        histogram!("test.macro.live_hist", 9);
        {
            let _span = span!("test.macro.live_span");
        }
        global().disable();
        let snapshot = global().snapshot();
        assert_eq!(snapshot.counters["test.macro.live_counter"], 5);
        assert_eq!(snapshot.histograms["test.macro.live_hist"].count, 1);
        assert_eq!(snapshot.spans["test.macro.live_span"].count, 1);
    }

    /// Test sink sharing its buffer with the asserting test.
    struct SharedSink(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}
