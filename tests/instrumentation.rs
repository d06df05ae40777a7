//! The one instrumentation API end to end: each stage of a `Run`, and the
//! rendering of its report, is marked by one `span!`, and the three sinks that one call feeds — the JSONL
//! event log, the registry aggregate behind Prometheus, and the timeline —
//! must agree on what ran, without moving a byte of the report.
//!
//! The sinks are process-global, so everything runs in one `#[test]`.

use paragraph::core::run::{self, RunSink};
use paragraph::core::telemetry::timeline::{self, EventKind};
use paragraph::core::telemetry::{self, summary};
use paragraph::core::{analyze_refs, AnalysisConfig, LiveWell, Policy, Run};
use paragraph::trace::binary::{TraceReader, TraceWriter};
use paragraph::trace::{synthetic, SegmentMap, TraceRecord, TraceSource};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

const RECORDS: usize = 60_000;
const EVERY: u64 = 7_000;

/// An in-memory JSONL sink the test reads back.
struct SharedLog(Arc<Mutex<Vec<u8>>>);

impl Write for SharedLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("log lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Serializes each checkpoint it is handed, as the CLI's file sink does.
#[derive(Default)]
struct Saves(u64);

impl RunSink for Saves {
    fn checkpoint(&mut self, well: &LiveWell) {
        let mut bytes = Vec::new();
        well.save_checkpoint(&mut bytes).expect("in-memory save");
        self.0 += 1;
    }
}

fn encode(records: &[TraceRecord]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut writer = TraceWriter::with_chunk_records(&mut bytes, SegmentMap::all_data(), 4096)
        .expect("in-memory header");
    for record in records {
        writer.write_record(record).expect("in-memory record");
    }
    writer.finish().expect("in-memory finish");
    bytes
}

#[test]
fn every_sink_sees_each_stage_once() {
    let config = AnalysisConfig::dataflow_limit().with_segments(SegmentMap::all_data());
    let records = synthetic::random_trace(RECORDS, 18);
    let expected = analyze_refs(&records, &config).to_json();

    let log = Arc::new(Mutex::new(Vec::new()));
    let registry = telemetry::global();
    registry.set_event_sink(Box::new(SharedLog(Arc::clone(&log))));
    registry.enable();
    timeline::timeline().enable();

    // A resident slice at two jobs: cut at the trace's syscalls, the
    // segments analyzed on a worker and merged back.
    let mut well = LiveWell::new(config.clone());
    let mut slice = Run::new(
        &mut well,
        Policy {
            jobs: 2,
            ..Policy::default()
        },
    );
    slice.slice(&records).expect("slice run");
    let stats = slice.stats();
    assert_eq!(stats.one_thread, None, "the slice run must fan out");
    let mut analyzed = stats.analyzed;
    assert_eq!(run::report(well).to_json(), expected);

    // The same records as trace bytes, streamed through decode-ahead with
    // a checkpoint every EVERY records.
    let reader =
        TraceReader::from_source(TraceSource::from_bytes(encode(&records))).expect("trace header");
    let mut saves = Saves::default();
    let mut well = LiveWell::new(config);
    let mut stream = Run::new(
        &mut well,
        Policy {
            checkpoint_every: Some(EVERY),
            ..Policy::with_sink(&mut saves)
        },
    );
    stream.stream(reader).expect("stream run");
    analyzed += stream.stats().analyzed;
    assert_eq!(run::report(well).to_json(), expected);
    assert_eq!(saves.0, RECORDS as u64 / EVERY);

    registry.disable();
    timeline::timeline().disable();
    registry.emit_final_dump();
    let text = String::from_utf8(log.lock().expect("log lock").clone()).expect("utf-8 log");
    let events = summary::parse_jsonl(&text).expect("the log parses strictly");

    let mut logged: BTreeMap<String, u64> = BTreeMap::new();
    let mut records_by_stage: BTreeMap<String, u64> = BTreeMap::new();
    for event in events.iter().filter(|e| e.event == "span") {
        let name = event.field("name").and_then(|v| v.as_str()).expect("name");
        *logged.entry(name.to_owned()).or_default() += 1;
        if let Some(records) = event.field("records").and_then(|v| v.as_u64()) {
            *records_by_stage.entry(name.to_owned()).or_default() += records;
        }
    }
    let aggregated: BTreeMap<String, u64> = registry
        .snapshot()
        .spans
        .into_iter()
        .map(|(name, stat)| (name, stat.count))
        .collect();
    let mut recorded: BTreeMap<String, u64> = BTreeMap::new();
    for lane in timeline::timeline().snapshot() {
        assert_eq!(lane.dropped, 0, "lane {} overflowed", lane.name);
        for event in &lane.events {
            if matches!(event.kind, EventKind::Complete { .. }) {
                *recorded.entry(event.name.to_owned()).or_default() += 1;
            }
        }
    }
    assert_eq!(logged, aggregated, "JSONL events vs registry totals");
    assert_eq!(logged, recorded, "JSONL events vs timeline slices");
    for stage in [
        "livewell",
        "segment",
        "merge",
        "checkpoint.save",
        "decode.block",
        "report",
        "report.render",
    ] {
        assert!(logged.contains_key(stage), "no {stage} span: {logged:?}");
    }
    assert_eq!(logged["merge"], 1);
    assert_eq!(logged["checkpoint.save"], RECORDS as u64 / EVERY);
    assert_eq!(logged["report"], 2);
    // Each run's report was rendered once, to JSON.
    assert_eq!(logged["report.render"], 2);
    // Segment workers analyze their records under `segment`; every other
    // record passes through the driver's one `livewell` span.
    assert_eq!(
        records_by_stage["livewell"] + records_by_stage["segment"],
        analyzed
    );
    assert_eq!(records_by_stage["decode.block"], RECORDS as u64);
}
