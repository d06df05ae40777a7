//! JSONL telemetry log parsing and per-stage summarization.
//!
//! The event log written via [`Registry::emit`](super::Registry::emit) is a
//! deliberately flat dialect of JSON — one object per line, scalar fields
//! only. [`parse_jsonl_lossy`] reads each line with the one JSON parser,
//! [`parse_json`], and rejects what the writer never produces; [`summarize`]/
//! [`render_table`] turn a log into the per-stage time/throughput table
//! behind `paragraph stats --telemetry`.

use super::tracefmt::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One parsed telemetry event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Nanoseconds since the run's registry was created.
    pub ts_ns: u64,
    /// Event kind (`span`, `progress`, `run_start`, ...).
    pub event: String,
    /// Remaining fields, each a scalar (string, number, bool or null).
    pub fields: BTreeMap<String, JsonValue>,
}

impl Event {
    /// Field accessor.
    pub fn field(&self, key: &str) -> Option<&JsonValue> {
        self.fields.get(key)
    }
}

/// Parses one log line: a flat JSON object with a `ts_ns` and an `event`.
fn parse_line(line: &str) -> Result<Event, String> {
    let JsonValue::Obj(members) = parse_json(line)? else {
        return Err("expected a JSON object".to_owned());
    };
    let mut fields = BTreeMap::new();
    for (key, value) in members {
        if matches!(value, JsonValue::Arr(_) | JsonValue::Obj(_)) {
            return Err(format!("nested value in field {key:?}"));
        }
        fields.insert(key, value);
    }
    let ts_ns = fields
        .remove("ts_ns")
        .and_then(|v| v.as_u64())
        .ok_or("missing ts_ns")?;
    let Some(JsonValue::Str(event)) = fields.remove("event") else {
        return Err("missing event".to_owned());
    };
    Ok(Event {
        ts_ns,
        event,
        fields,
    })
}

/// Parses a JSONL telemetry log into events: [`parse_jsonl_lossy`], failing
/// on the first line it would skip. Blank lines are skipped.
///
/// # Errors
///
/// Returns `line N: description` for the first malformed line, a line that
/// is not a flat object, or a line missing `ts_ns`/`event`.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let (events, skipped) = parse_jsonl_lossy(text);
    match skipped.first() {
        Some(bad) => Err(format!("line {}: {}", bad.line, bad.reason)),
        None => Ok(events),
    }
}

/// One line `parse_jsonl_lossy` could not parse: its 1-based line number
/// and the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedLine {
    /// 1-based line number in the log.
    pub line: usize,
    /// Why the line was rejected.
    pub reason: String,
}

/// Parses a JSONL telemetry log, recording and skipping each malformed line
/// instead of failing the whole log. A telemetry log's tail is routinely
/// truncated mid-line by a crash or a full disk — the readable prefix is
/// still worth summarizing, which is exactly when the summary matters most.
pub fn parse_jsonl_lossy(text: &str) -> (Vec<Event>, Vec<SkippedLine>) {
    let mut events = Vec::new();
    let mut skipped = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(event) => events.push(event),
            Err(reason) => skipped.push(SkippedLine {
                line: lineno + 1,
                reason,
            }),
        }
    }
    (events, skipped)
}

/// Aggregated view of one span stage within a log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageSummary {
    /// Completed span executions.
    pub count: u64,
    /// Total time in the stage, nanoseconds.
    pub total_ns: u64,
    /// Longest single execution, nanoseconds.
    pub max_ns: u64,
    /// Sum of per-span `records` fields (0 when the stage carries none).
    pub records: u64,
}

/// Whole-log summary produced by [`summarize`].
#[derive(Debug, Clone, Default)]
pub struct LogSummary {
    /// Per-stage aggregates, by span name.
    pub stages: BTreeMap<String, StageSummary>,
    /// Final counter values from the closing dump, by name.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge values from the closing dump, by name.
    pub gauges: BTreeMap<String, i64>,
    /// Timestamp of the last event, nanoseconds.
    pub last_ts_ns: u64,
    /// Total events parsed.
    pub events: usize,
    /// Last `progress` event's records/sec, if any heartbeat was logged.
    pub last_records_per_sec: Option<f64>,
}

/// Folds a parsed log into per-stage aggregates.
///
/// Individual `span` events accumulate into stages; a closing `span_total`
/// dump (which repeats the same executions in aggregate) *replaces* the
/// accumulated figures for its stage rather than double-counting them.
pub fn summarize(events: &[Event]) -> LogSummary {
    let mut summary = LogSummary {
        events: events.len(),
        ..LogSummary::default()
    };
    for event in events {
        summary.last_ts_ns = summary.last_ts_ns.max(event.ts_ns);
        let name = |e: &Event| e.field("name").and_then(|v| v.as_str().map(str::to_owned));
        match event.event.as_str() {
            "span" => {
                let Some(name) = name(event) else { continue };
                let dur = event.field("dur_ns").and_then(|v| v.as_u64()).unwrap_or(0);
                let stage = summary.stages.entry(name).or_default();
                stage.count = stage.count.saturating_add(1);
                stage.total_ns = stage.total_ns.saturating_add(dur);
                stage.max_ns = stage.max_ns.max(dur);
                if let Some(records) = event.field("records").and_then(|v| v.as_u64()) {
                    stage.records = stage.records.saturating_add(records);
                }
            }
            "span_total" => {
                let Some(name) = name(event) else { continue };
                let stage = summary.stages.entry(name).or_default();
                stage.count = event.field("count").and_then(|v| v.as_u64()).unwrap_or(0);
                stage.total_ns = event
                    .field("total_ns")
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0);
                stage.max_ns = event.field("max_ns").and_then(|v| v.as_u64()).unwrap_or(0);
            }
            "counter" => {
                if let (Some(name), Some(value)) =
                    (name(event), event.field("value").and_then(|v| v.as_u64()))
                {
                    summary.counters.insert(name, value);
                }
            }
            "gauge" => {
                if let (Some(name), Some(value)) =
                    (name(event), event.field("value").and_then(|v| v.as_f64()))
                {
                    summary.gauges.insert(name, value as i64);
                }
            }
            "progress" => {
                summary.last_records_per_sec =
                    event.field("records_per_sec").and_then(|v| v.as_f64());
            }
            _ => {}
        }
    }
    summary
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the per-stage time/throughput table plus counter footers — the
/// human output of `paragraph stats --telemetry`.
pub fn render_table(summary: &LogSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "telemetry summary: {} events, last ts {}",
        summary.events,
        fmt_ns(summary.last_ts_ns)
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>12} {:>12} {:>12} {:>14}",
        "stage", "calls", "total", "mean", "max", "records/s"
    );
    let wall = summary.last_ts_ns.max(1);
    for (name, stage) in &summary.stages {
        let mean = stage.total_ns.checked_div(stage.count).unwrap_or(0);
        let throughput = if stage.records > 0 && stage.total_ns > 0 {
            format!(
                "{:.0}",
                stage.records as f64 / (stage.total_ns as f64 / 1e9)
            )
        } else {
            "-".to_owned()
        };
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>12} {:>12} {:>12} {:>14}  ({:.1}% wall)",
            name,
            stage.count,
            fmt_ns(stage.total_ns),
            fmt_ns(mean),
            fmt_ns(stage.max_ns),
            throughput,
            100.0 * stage.total_ns as f64 / wall as f64,
        );
    }
    if summary.stages.is_empty() {
        let _ = writeln!(out, "(no span events in log)");
    }
    if !summary.counters.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "final counters:");
        for (name, value) in &summary.counters {
            let _ = writeln!(out, "  {name:<30} {value}");
        }
    }
    if !summary.gauges.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "final gauges:");
        for (name, value) in &summary.gauges {
            let _ = writeln!(out, "  {name:<30} {value}");
        }
    }
    if let Some(rate) = summary.last_records_per_sec {
        let _ = writeln!(out);
        let _ = writeln!(out, "last observed rate: {:.2}M records/s", rate / 1e6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects_with_all_scalar_types() {
        let events = parse_jsonl(
            "{\"ts_ns\":1,\"event\":\"x\",\"s\":\"a\\nb\",\"n\":-2.5,\"t\":true,\"z\":null}\n\n",
        )
        .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ts_ns, 1);
        assert_eq!(events[0].field("s").unwrap().as_str(), Some("a\nb"));
        assert_eq!(events[0].field("n").unwrap().as_f64(), Some(-2.5));
        assert_eq!(events[0].field("t"), Some(&JsonValue::Bool(true)));
        assert_eq!(events[0].field("z"), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_nested_and_malformed_lines() {
        assert!(parse_jsonl("{\"ts_ns\":1,\"event\":\"x\",\"o\":{}}").is_err());
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl("{\"event\":\"x\"}").is_err(), "missing ts_ns");
        assert!(parse_jsonl("{\"ts_ns\":1}").is_err(), "missing event");
        assert!(parse_jsonl("{\"ts_ns\":1,\"event\":\"x\"} trailing").is_err());
        let err = parse_jsonl("{\"ts_ns\":1,\"event\":\"x\"}\n[1,2]\n").unwrap_err();
        assert!(err.starts_with("line 2: "), "{err}");
    }

    #[test]
    fn summarize_accumulates_spans_and_prefers_totals() {
        let log = concat!(
            "{\"ts_ns\":10,\"event\":\"span\",\"name\":\"decode\",\"dur_ns\":100,\"records\":5}\n",
            "{\"ts_ns\":20,\"event\":\"span\",\"name\":\"decode\",\"dur_ns\":300,\"records\":7}\n",
            "{\"ts_ns\":30,\"event\":\"span\",\"name\":\"analyze\",\"dur_ns\":50}\n",
            "{\"ts_ns\":40,\"event\":\"counter\",\"name\":\"evictions\",\"value\":3}\n",
            "{\"ts_ns\":50,\"event\":\"progress\",\"records_per_sec\":123.0}\n",
            // Closing dump repeats decode in aggregate; must replace, not add.
            "{\"ts_ns\":60,\"event\":\"span_total\",\"name\":\"decode\",\"count\":2,\"total_ns\":400,\"max_ns\":300}\n",
        );
        let summary = summarize(&parse_jsonl(log).unwrap());
        let decode = summary.stages["decode"];
        assert_eq!(decode.count, 2);
        assert_eq!(decode.total_ns, 400);
        assert_eq!(decode.max_ns, 300);
        assert_eq!(decode.records, 12);
        assert_eq!(summary.stages["analyze"].count, 1);
        assert_eq!(summary.counters["evictions"], 3);
        assert_eq!(summary.last_records_per_sec, Some(123.0));
        assert_eq!(summary.last_ts_ns, 60);

        let table = render_table(&summary);
        assert!(table.contains("decode"));
        assert!(table.contains("evictions"));
        assert!(table.contains("last observed rate"));
    }

    #[test]
    fn render_table_handles_empty_log() {
        let table = render_table(&summarize(&[]));
        assert!(table.contains("no span events"));
    }

    #[test]
    fn lossy_parse_skips_bad_lines_and_keeps_the_rest() {
        // A crash-truncated tail and a garbage line: both are skipped with
        // their line numbers, the well-formed lines still parse.
        let log = concat!(
            "{\"ts_ns\":10,\"event\":\"span\",\"name\":\"decode\",\"dur_ns\":100}\n",
            "not json at all\n",
            "{\"ts_ns\":20,\"event\":\"span\",\"name\":\"decode\",\"dur_ns\":50}\n",
            "{\"ts_ns\":30,\"event\":\"span\",\"na", // truncated mid-line
        );
        let (events, skipped) = parse_jsonl_lossy(log);
        assert_eq!(events.len(), 2);
        assert_eq!(skipped.len(), 2);
        assert_eq!(skipped[0].line, 2);
        assert_eq!(skipped[1].line, 4);
        // The same log fails outright under the strict parser.
        assert!(parse_jsonl(log).is_err());
    }

    #[test]
    fn lossy_parse_of_a_clean_log_skips_nothing() {
        let log = "{\"ts_ns\":1,\"event\":\"x\"}\n\n{\"ts_ns\":2,\"event\":\"y\"}\n";
        let (events, skipped) = parse_jsonl_lossy(log);
        assert_eq!(events.len(), 2);
        assert!(skipped.is_empty());
    }
}
