//! Chrome trace-event JSON: parsing, validation, and profile analysis.
//!
//! The read side of the flight recorder ([`timeline`](super::timeline)
//! is the write side): a dependency-free parser for the Chrome
//! trace-event format, a validator used by tests and CI smoke jobs, and
//! the analysis behind `paragraph profile` — per-stage self-time,
//! per-lane utilization, slowest slices, and timeline diffing.
//!
//! The format reference is the Trace Event Format spec (the
//! `chrome://tracing` / Perfetto interchange): an object with a
//! `traceEvents` array (or a bare array) of event objects carrying
//! `ph` (phase), `ts`/`dur` (microseconds), `pid`/`tid` lanes, and
//! free-form `args`. Unlike the flat JSONL parser in
//! [`summary`](super::summary), this one handles nested objects and
//! arrays, so it gets a small recursive-descent JSON parser of its own
//! (depth-capped — timelines can come from outside the process).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum JSON nesting depth accepted by the parser. Trace files are
/// at most ~4 levels deep; the cap keeps hostile input from recursing
/// the stack away.
const MAX_DEPTH: usize = 64;

/// Spans shorter than this (in µs) are still distinct from their
/// neighbors; used when deciding whether one slice nests in another.
const EPS_US: f64 = 1e-9;

/// A parsed JSON value. Only what trace files need — numbers are `f64`,
/// objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source key order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects (first match); `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(&format!("unexpected byte 0x{b:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(self.err("truncated \\u escape"));
        };
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid utf-8 in \\u escape"))?;
        let code =
            u32::from_str_radix(digits, 16).map_err(|_| self.err("bad \\u escape digits"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9' => self.pos += 1,
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    0x10000 + ((hi - 0xd800) << 10) + (lo.wrapping_sub(0xdc00))
                                } else {
                                    0xfffd
                                }
                            } else {
                                hi
                            };
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(self.err(&format!("bad escape '\\{}'", other as char))),
                    }
                }
                _ => {
                    // A run of plain bytes up to the next quote or escape,
                    // validated once: both delimiters are ASCII, so the run
                    // ends on a char boundary of valid input.
                    self.pos -= 1;
                    let start = self.pos;
                    let len = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    let run = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(run);
                    self.pos = start + len;
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses one complete JSON document (used for trace files and for the
/// bench-log rows in `profile --bench-compare`).
///
/// # Errors
///
/// Returns a message with the failing byte offset on malformed input.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut parser = Parser::new(text);
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing data after document"));
    }
    Ok(value)
}

/// One Chrome trace event, flattened to the fields the profiler uses.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Display name (for recorder output: the label, or the category).
    pub name: String,
    /// Category (for recorder output: the static event name).
    pub cat: String,
    /// Phase: `X` complete, `i`/`I` instant, `s`/`f` flow, `C` counter,
    /// `M` metadata, `B`/`E` begin/end.
    pub ph: String,
    /// Start timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds (complete events only).
    pub dur_us: f64,
    /// Process lane.
    pub pid: i64,
    /// Thread lane.
    pub tid: i64,
    /// Flow/async identity, when present.
    pub id: Option<i64>,
    /// `args` payload, numeric members only (others are dropped).
    pub args: BTreeMap<String, f64>,
    /// `args.name`, kept for metadata events (thread names).
    pub arg_name: Option<String>,
}

fn event_from_json(value: &JsonValue, index: usize) -> Result<TraceEvent, String> {
    let obj = match value {
        JsonValue::Obj(_) => value,
        _ => return Err(format!("event {index}: not an object")),
    };
    let ph = obj
        .get("ph")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("event {index}: missing \"ph\""))?
        .to_owned();
    let name = obj
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("event {index}: missing \"name\""))?
        .to_owned();
    let ts_us = obj.get("ts").and_then(JsonValue::as_f64).unwrap_or(0.0);
    if ph != "M" && obj.get("ts").is_none() {
        return Err(format!("event {index} ({name}): missing \"ts\""));
    }
    let dur_us = obj.get("dur").and_then(JsonValue::as_f64).unwrap_or(0.0);
    if ph == "X" && obj.get("dur").is_none() {
        return Err(format!(
            "event {index} ({name}): complete event missing \"dur\""
        ));
    }
    if ts_us < 0.0 || dur_us < 0.0 {
        return Err(format!("event {index} ({name}): negative ts/dur"));
    }
    let mut args = BTreeMap::new();
    let mut arg_name = None;
    if let Some(JsonValue::Obj(members)) = obj.get("args") {
        for (key, member) in members {
            match member {
                JsonValue::Num(n) => {
                    args.insert(key.clone(), *n);
                }
                JsonValue::Str(s) if key == "name" => arg_name = Some(s.clone()),
                _ => {}
            }
        }
    }
    Ok(TraceEvent {
        name,
        cat: obj
            .get("cat")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_owned(),
        ph,
        ts_us,
        dur_us,
        pid: obj.get("pid").and_then(JsonValue::as_f64).unwrap_or(0.0) as i64,
        tid: obj.get("tid").and_then(JsonValue::as_f64).unwrap_or(0.0) as i64,
        id: obj.get("id").and_then(JsonValue::as_f64).map(|n| n as i64),
        args,
        arg_name,
    })
}

/// Parses a Chrome trace-event file: either the object form
/// (`{"traceEvents": [...]}`) or a bare event array.
///
/// # Errors
///
/// Returns a message naming the offending byte or event on input that is
/// not valid trace-event JSON.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let doc = parse_json(text)?;
    let events = match &doc {
        JsonValue::Arr(items) => items,
        JsonValue::Obj(_) => match doc.get("traceEvents") {
            Some(JsonValue::Arr(items)) => items,
            Some(_) => return Err("\"traceEvents\" is not an array".to_owned()),
            None => return Err("missing \"traceEvents\" array".to_owned()),
        },
        _ => return Err("trace document is neither object nor array".to_owned()),
    };
    events
        .iter()
        .enumerate()
        .map(|(i, e)| event_from_json(e, i))
        .collect()
}

/// Validates `text` as Chrome trace-event JSON and returns the event
/// count — the check behind `paragraph profile` and the CI smoke job.
///
/// # Errors
///
/// Returns the parse or structural error for anything Perfetto would
/// reject (unknown phase, missing `ts`/`dur`, non-object events).
pub fn validate(text: &str) -> Result<usize, String> {
    let events = parse_chrome_trace(text)?;
    for (i, event) in events.iter().enumerate() {
        match event.ph.as_str() {
            "X" | "B" | "E" | "i" | "I" | "s" | "t" | "f" | "C" | "M" | "b" | "e" | "n" => {}
            other => {
                return Err(format!(
                    "event {i} ({}): unknown phase {other:?}",
                    event.name
                ))
            }
        }
        if (event.ph == "s" || event.ph == "f") && event.id.is_none() {
            return Err(format!(
                "event {i} ({}): flow event missing \"id\"",
                event.name
            ));
        }
    }
    Ok(events.len())
}

/// Per-stage aggregate (stages are event categories).
#[derive(Debug, Clone, Default)]
pub struct StageRow {
    /// Number of slices.
    pub slices: u64,
    /// Sum of slice durations, µs.
    pub total_us: f64,
    /// Total minus time spent in nested child slices, µs.
    pub self_us: f64,
    /// Longest single slice, µs.
    pub max_us: f64,
}

/// Per-lane (thread) aggregate.
#[derive(Debug, Clone, Default)]
pub struct LaneRow {
    /// Lane display name from `thread_name` metadata.
    pub name: String,
    /// Sum of top-level (non-nested) slice durations, µs.
    pub busy_us: f64,
    /// Slices recorded on this lane.
    pub slices: u64,
}

/// One complete slice, for the top-N table.
#[derive(Debug, Clone)]
pub struct SliceRow {
    /// Display name.
    pub name: String,
    /// Stage (category).
    pub cat: String,
    /// Lane.
    pub tid: i64,
    /// Start, µs.
    pub ts_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

/// Everything `paragraph profile` prints, precomputed.
#[derive(Debug, Clone, Default)]
pub struct ProfileSummary {
    /// Total parsed events (including metadata).
    pub events: usize,
    /// Wall-clock extent: last slice end minus first event start, µs.
    pub wall_us: f64,
    /// Stage → aggregate, keyed by category (name when no category).
    pub stages: BTreeMap<String, StageRow>,
    /// Lane id → aggregate.
    pub lanes: BTreeMap<i64, LaneRow>,
    /// Instant-event counts by name.
    pub instants: BTreeMap<String, u64>,
    /// Counter name → (last sample, maximum sample).
    pub counters: BTreeMap<String, (f64, f64)>,
    /// Flow arrows (start/finish pairs counted once by start).
    pub flows: u64,
    /// Ring-buffer drops reported by `timeline.dropped` markers.
    pub dropped: u64,
    /// All slices, longest first.
    pub slowest: Vec<SliceRow>,
}

/// Aggregates parsed events into a [`ProfileSummary`]. Self-time uses a
/// per-lane stack sweep: each slice's duration is subtracted from its
/// immediate enclosing slice on the same lane.
pub fn summarize(events: &[TraceEvent]) -> ProfileSummary {
    let mut summary = ProfileSummary {
        events: events.len(),
        ..ProfileSummary::default()
    };
    let mut min_ts = f64::INFINITY;
    let mut max_end = f64::NEG_INFINITY;

    // Lane names from metadata; instants, counters, flows in one pass.
    let mut by_tid: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        match event.ph.as_str() {
            "M" => {
                if event.name == "thread_name" {
                    if let Some(name) = &event.arg_name {
                        summary.lanes.entry(event.tid).or_default().name = name.clone();
                    }
                }
                continue;
            }
            "X" => {
                by_tid.entry(event.tid).or_default().push(i);
            }
            "i" | "I" | "n" => {
                if event.name == "timeline.dropped" {
                    summary.dropped +=
                        event.args.get("dropped").copied().unwrap_or(0.0).max(0.0) as u64;
                } else {
                    *summary.instants.entry(event.name.clone()).or_insert(0) += 1;
                }
            }
            "s" => summary.flows += 1,
            "C" => {
                let value = event.args.get("value").copied().unwrap_or(0.0);
                let entry = summary
                    .counters
                    .entry(event.name.clone())
                    .or_insert((0.0, 0.0));
                entry.0 = value;
                entry.1 = entry.1.max(value);
            }
            _ => {}
        }
        min_ts = min_ts.min(event.ts_us);
        max_end = max_end.max(event.ts_us + event.dur_us);
    }

    // Per-lane nesting sweep for self-time and top-level busy time.
    for (tid, mut indices) in by_tid {
        indices.sort_by(|&a, &b| {
            events[a]
                .ts_us
                .partial_cmp(&events[b].ts_us)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    events[b]
                        .dur_us
                        .partial_cmp(&events[a].dur_us)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });
        let lane = summary.lanes.entry(tid).or_default();
        // (end_us, index into `self_us`) for open ancestors.
        let mut stack: Vec<(f64, usize)> = Vec::new();
        let mut self_us: Vec<f64> = Vec::with_capacity(indices.len());
        for (local, &i) in indices.iter().enumerate() {
            let event = &events[i];
            while let Some(&(end, _)) = stack.last() {
                if end <= event.ts_us + EPS_US {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(_, parent)) = stack.last() {
                self_us[parent] -= event.dur_us;
            } else {
                lane.busy_us += event.dur_us;
            }
            lane.slices += 1;
            self_us.push(event.dur_us);
            stack.push((event.ts_us + event.dur_us, local));
        }
        for (local, &i) in indices.iter().enumerate() {
            let event = &events[i];
            let stage = if event.cat.is_empty() {
                event.name.clone()
            } else {
                event.cat.clone()
            };
            let row = summary.stages.entry(stage).or_default();
            row.slices += 1;
            row.total_us += event.dur_us;
            row.self_us += self_us[local].max(0.0);
            row.max_us = row.max_us.max(event.dur_us);
            summary.slowest.push(SliceRow {
                name: event.name.clone(),
                cat: event.cat.clone(),
                tid,
                ts_us: event.ts_us,
                dur_us: event.dur_us,
            });
        }
    }
    summary.slowest.sort_by(|a, b| {
        b.dur_us
            .partial_cmp(&a.dur_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                a.ts_us
                    .partial_cmp(&b.ts_us)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    });
    if min_ts.is_finite() && max_end.is_finite() && max_end > min_ts {
        summary.wall_us = max_end - min_ts;
    }
    summary
}

/// Human-readable duration from microseconds.
pub fn fmt_us(us: f64) -> String {
    let abs = us.abs();
    if abs >= 1_000_000.0 {
        format!("{:.2}s", us / 1_000_000.0)
    } else if abs >= 1_000.0 {
        format!("{:.1}ms", us / 1_000.0)
    } else {
        format!("{us:.0}us")
    }
}

fn signed_us(us: f64) -> String {
    if us >= 0.0 {
        format!("+{}", fmt_us(us))
    } else {
        format!("-{}", fmt_us(-us))
    }
}

/// Renders the `paragraph profile` report: per-stage self-time table,
/// lane utilization, slowest slices, instants and final counters.
pub fn render_profile(summary: &ProfileSummary, top_n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeline: {} events, {} lanes, wall {}",
        summary.events,
        summary.lanes.len(),
        fmt_us(summary.wall_us),
    );
    if summary.dropped > 0 {
        let _ = writeln!(
            out,
            "warning: {} events dropped by ring wrap",
            summary.dropped
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<24} {:>7} {:>10} {:>10} {:>10} {:>7}",
        "stage", "slices", "total", "self", "max", "%wall"
    );
    let mut stages: Vec<(&String, &StageRow)> = summary.stages.iter().collect();
    stages.sort_by(|a, b| {
        b.1.self_us
            .partial_cmp(&a.1.self_us)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for (stage, row) in stages {
        let pct = if summary.wall_us > 0.0 {
            100.0 * row.self_us / summary.wall_us
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{stage:<24} {:>7} {:>10} {:>10} {:>10} {pct:>6.1}%",
            row.slices,
            fmt_us(row.total_us),
            fmt_us(row.self_us),
            fmt_us(row.max_us),
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "lanes:");
    for (tid, lane) in &summary.lanes {
        let pct = if summary.wall_us > 0.0 {
            100.0 * lane.busy_us / summary.wall_us
        } else {
            0.0
        };
        let name = if lane.name.is_empty() {
            format!("tid-{tid}")
        } else {
            lane.name.clone()
        };
        let _ = writeln!(
            out,
            "  {name:<20} {:>10} busy  {pct:>5.1}%  {} slices",
            fmt_us(lane.busy_us),
            lane.slices,
        );
    }
    if !summary.slowest.is_empty() && top_n > 0 {
        let _ = writeln!(out);
        let _ = writeln!(out, "slowest slices:");
        for slice in summary.slowest.iter().take(top_n) {
            let _ = writeln!(
                out,
                "  {:<28} {:>10}  (tid {}, ts {})",
                slice.name,
                fmt_us(slice.dur_us),
                slice.tid,
                fmt_us(slice.ts_us),
            );
        }
    }
    if !summary.instants.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "instants:");
        for (name, count) in &summary.instants {
            let _ = writeln!(out, "  {name:<28} {count}");
        }
    }
    if summary.flows > 0 {
        let _ = writeln!(out, "flows: {}", summary.flows);
    }
    if !summary.counters.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "counters (final / peak):");
        for (name, (last, peak)) in &summary.counters {
            let _ = writeln!(out, "  {name:<28} {last:.0} / {peak:.0}");
        }
    }
    out
}

/// Renders a stage-by-stage diff of two summaries (`a` the baseline,
/// `b` the candidate) for regression hunting.
pub fn render_diff(a: &ProfileSummary, b: &ProfileSummary) -> String {
    let mut out = String::new();
    let wall_delta = if a.wall_us > 0.0 {
        100.0 * (b.wall_us - a.wall_us) / a.wall_us
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "timeline diff: wall {} -> {} ({wall_delta:+.1}%)",
        fmt_us(a.wall_us),
        fmt_us(b.wall_us),
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>10} {:>10} {:>7}",
        "stage", "self A", "self B", "delta", "ratio"
    );
    let mut names: Vec<&String> = a.stages.keys().chain(b.stages.keys()).collect();
    names.sort();
    names.dedup();
    let mut rows: Vec<(&String, f64, f64)> = names
        .into_iter()
        .map(|name| {
            let sa = a.stages.get(name).map_or(0.0, |r| r.self_us);
            let sb = b.stages.get(name).map_or(0.0, |r| r.self_us);
            (name, sa, sb)
        })
        .collect();
    rows.sort_by(|x, y| {
        (y.2 - y.1)
            .abs()
            .partial_cmp(&(x.2 - x.1).abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for (name, sa, sb) in rows {
        let ratio = if sa > 0.0 {
            format!("{:.2}x", sb / sa)
        } else {
            "-".to_owned()
        };
        let _ = writeln!(
            out,
            "{name:<24} {:>10} {:>10} {:>10} {ratio:>7}",
            fmt_us(sa),
            fmt_us(sb),
            signed_us(sb - sa),
        );
    }
    out
}

/// Canonicalizes a timeline for cross-run comparison: drops metadata and
/// all timing/lane identity (`ts`, `dur`, `tid`, `pid`), reduces each
/// counter series to its peak value, and sorts the remaining event
/// descriptors. Two runs of the same work — regardless of `--jobs`,
/// scheduling, or wall time — normalize to the same list.
///
/// # Errors
///
/// Propagates parse errors from [`parse_chrome_trace`].
pub fn normalized_events(text: &str) -> Result<Vec<String>, String> {
    let events = parse_chrome_trace(text)?;
    let mut lines = Vec::new();
    let mut counters: BTreeMap<String, f64> = BTreeMap::new();
    for event in &events {
        match event.ph.as_str() {
            "M" => continue,
            "C" => {
                let value = event.args.get("value").copied().unwrap_or(0.0);
                let entry = counters.entry(event.name.clone()).or_insert(f64::MIN);
                *entry = entry.max(value);
                continue;
            }
            _ => {}
        }
        if event.name == "timeline.dropped" {
            return Err("timeline dropped events; raise the lane capacity".to_owned());
        }
        let args: Vec<String> = event
            .args
            .iter()
            .map(|(k, v)| format!("{k}={v:.0}"))
            .collect();
        let id = event.id.map(|id| format!(" id={id}")).unwrap_or_default();
        lines.push(format!(
            "{}|{}|{}{id}|{}",
            event.ph,
            event.cat,
            event.name,
            args.join(","),
        ));
    }
    for (name, peak) in counters {
        lines.push(format!("C|{name}|peak={peak:.0}"));
    }
    lines.sort();
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"traceEvents":[
        {"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"paragraph"}},
        {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"main"}},
        {"name":"analyze","cat":"analyze","ph":"X","ts":0.0,"dur":100.0,"pid":1,"tid":0,"args":{}},
        {"name":"decode","cat":"decode","ph":"X","ts":10.0,"dur":40.0,"pid":1,"tid":0,"args":{"records":64}},
        {"name":"save","cat":"checkpoint","ph":"i","s":"t","ts":60.0,"pid":1,"tid":0,"args":{}},
        {"name":"retry","ph":"s","id":7,"ts":70.0,"pid":1,"tid":0,"args":{}},
        {"name":"retry","ph":"f","bp":"e","id":7,"ts":80.0,"pid":1,"tid":0,"args":{}},
        {"name":"arena.hits","ph":"C","ts":90.0,"pid":1,"tid":0,"args":{"value":3}}
    ]}"#;

    #[test]
    fn parses_object_and_array_forms() {
        let events = parse_chrome_trace(SAMPLE).expect("object form parses");
        assert_eq!(events.len(), 8);
        let bare = r#"[{"name":"a","ph":"i","ts":1.5,"pid":1,"tid":0}]"#;
        let events = parse_chrome_trace(bare).expect("bare array parses");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ts_us, 1.5);
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let doc = parse_json(r#"{"a":[1,-2.5,"xA\n"],"b":{"c":null,"d":true}}"#)
            .expect("document parses");
        assert_eq!(
            doc.get("a"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(-2.5),
                JsonValue::Str("xA\n".to_owned()),
            ]))
        );
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")),
            Some(&JsonValue::Null)
        );
    }

    #[test]
    fn validate_rejects_malformed_input() {
        assert!(validate("not json").is_err());
        assert!(validate(r#"{"traceEvents": 5}"#).is_err());
        assert!(
            validate(r#"[{"ph":"X","name":"a","ts":0}]"#).is_err(),
            "X without dur"
        );
        assert!(
            validate(r#"[{"ph":"??","name":"a","ts":0}]"#).is_err(),
            "unknown phase"
        );
        assert!(
            validate(r#"[{"ph":"s","name":"a","ts":0}]"#).is_err(),
            "flow without id"
        );
        assert_eq!(validate(SAMPLE), Ok(8));
    }

    #[test]
    fn strings_keep_multibyte_characters() {
        let doc = parse_json(r#"["héllo \u00e9 ∑ 🦀", "a\"b→c"]"#).expect("document parses");
        assert_eq!(
            doc,
            JsonValue::Arr(vec![
                JsonValue::Str("héllo é ∑ 🦀".to_owned()),
                JsonValue::Str("a\"b→c".to_owned()),
            ])
        );
        assert!(parse_json("\"unterminated ∑").is_err());
    }

    #[test]
    fn invalid_utf8_in_a_string_is_a_typed_error() {
        // `parse_json` takes `&str`; the byte-level parser still refuses
        // invalid sequences rather than panicking or mis-slicing.
        let mut parser = Parser {
            bytes: b"\"ab\xff\xfecd\"",
            pos: 0,
        };
        let err = parser.string().expect_err("invalid utf-8 must not parse");
        assert!(err.contains("invalid utf-8 in string"), "{err}");
    }

    #[test]
    fn a_multi_megabyte_string_parses_in_linear_time() {
        // Re-validating the rest of the document per character made this
        // quadratic: minutes for a few megabytes.
        let body = "ab∑".repeat(1 << 20);
        let doc = format!("{{\"name\":\"{body}\"}}");
        assert!(doc.len() >= 4 << 20);
        let started = std::time::Instant::now();
        let parsed = parse_json(&doc).expect("document parses");
        assert_eq!(
            parsed.get("name").and_then(JsonValue::as_str),
            Some(body.as_str())
        );
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
    }

    #[test]
    fn depth_cap_rejects_hostile_nesting() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse_json(&deep).is_err());
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let events = parse_chrome_trace(SAMPLE).expect("sample parses");
        let summary = summarize(&events);
        let analyze = &summary.stages["analyze"];
        assert_eq!(analyze.slices, 1);
        assert!((analyze.total_us - 100.0).abs() < 1e-9);
        assert!(
            (analyze.self_us - 60.0).abs() < 1e-9,
            "100us minus the 40us nested decode, got {}",
            analyze.self_us
        );
        let decode = &summary.stages["decode"];
        assert!((decode.self_us - 40.0).abs() < 1e-9);
        // Lane busy time counts only the top-level slice.
        assert!((summary.lanes[&0].busy_us - 100.0).abs() < 1e-9);
        assert_eq!(summary.lanes[&0].name, "main");
        assert_eq!(summary.instants.get("save"), Some(&1));
        assert_eq!(summary.flows, 1);
        assert_eq!(summary.counters.get("arena.hits"), Some(&(3.0, 3.0)));
        assert_eq!(summary.slowest[0].name, "analyze");
    }

    #[test]
    fn profile_and_diff_render() {
        let events = parse_chrome_trace(SAMPLE).expect("sample parses");
        let summary = summarize(&events);
        let report = render_profile(&summary, 5);
        assert!(report.contains("stage"));
        assert!(report.contains("analyze"));
        assert!(report.contains("slowest slices:"));
        let diff = render_diff(&summary, &summary);
        assert!(diff.contains("1.00x"));
    }

    #[test]
    fn normalization_erases_time_and_lanes_but_not_work() {
        let a = r#"[{"name":"cell","cat":"sweep.cell","ph":"X","ts":0,"dur":5,"pid":1,"tid":3,"args":{"records":7}},
                    {"name":"hits","ph":"C","ts":1,"pid":1,"tid":3,"args":{"value":1}},
                    {"name":"hits","ph":"C","ts":2,"pid":1,"tid":3,"args":{"value":2}}]"#;
        let b = r#"[{"name":"hits","ph":"C","ts":9,"pid":1,"tid":0,"args":{"value":2}},
                    {"name":"cell","cat":"sweep.cell","ph":"X","ts":100,"dur":50,"pid":1,"tid":0,"args":{"records":7}},
                    {"name":"hits","ph":"C","ts":4,"pid":1,"tid":0,"args":{"value":1}}]"#;
        let na = normalized_events(a).expect("a normalizes");
        let nb = normalized_events(b).expect("b normalizes");
        assert_eq!(na, nb);
        let c = r#"[{"name":"cell","cat":"sweep.cell","ph":"X","ts":0,"dur":5,"pid":1,"tid":3,"args":{"records":8}}]"#;
        assert_ne!(na, normalized_events(c).expect("c normalizes"));
    }

    #[test]
    fn fmt_us_picks_sensible_units() {
        assert_eq!(fmt_us(12.0), "12us");
        assert_eq!(fmt_us(12_345.0), "12.3ms");
        assert_eq!(fmt_us(2_500_000.0), "2.50s");
    }
}
