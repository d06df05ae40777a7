//! One table-driven harness for the `Run` driver, the single loop that
//! feeds the live well.
//!
//! Every input (clean, bit-flipped, truncated and governor-limited trace
//! bytes, a legacy v1 file, the clean trace as a resident slice, and a
//! workload's trace as a slice and straight from the VM) crosses every
//! policy (plain, checkpoints every k, resume from a mid-run checkpoint,
//! a resume past the input's end, skip/take, `--recover`, a progress
//! sink, a zero deadline, and `jobs` 1 and 2). Each run must end exactly
//! as the sequential reference says: the report of
//! [`analyze_refs`] over the same window of records (itself pinned to the
//! brute-force oracle of `tests/oracle.rs`), or the same typed stop. Every
//! checkpoint the driver saves must be byte-identical to one taken by a
//! plain `process_slice` reference at the same record.

use paragraph::core::run::{RunSink, BEAT_STRIDE};
use paragraph::core::{
    analyze_refs, AnalysisConfig, LiveWell, Policy, RenameSet, Run, Stop, WindowSize,
};
use paragraph::trace::binary::{TraceReader, TraceWriter};
use paragraph::trace::{
    synthetic, Limits, ResourceGovernor, SegmentMap, TraceError, TraceRecord, TraceSource,
};
use paragraph::workloads::{Workload, WorkloadId};
use std::time::{Duration, Instant};

/// Long enough for a heartbeat at [`BEAT_STRIDE`] records.
const RECORDS: usize = 70_000;
const WORKLOAD_FUEL: u64 = 200_000;

/// How an input reaches the driver.
enum Feed {
    /// Trace bytes, streamed through decode-ahead under these limits.
    Bytes(Vec<u8>, Limits),
    /// A resident trace.
    Slice(Vec<TraceRecord>),
    /// A workload, traced by the VM into the driver's callback.
    Vm(Workload),
}

struct Input {
    name: &'static str,
    feed: Feed,
}

/// One policy of the matrix. Counts are fractions of the reference's
/// record count, so one table serves inputs of any length.
#[derive(Debug, Clone, Copy, Default)]
struct Case {
    name: &'static str,
    every: Option<u64>,
    /// Resume from a checkpoint after this share (in percent) of the
    /// window.
    resume_pct: Option<usize>,
    skip_pct: usize,
    take_pct: Option<usize>,
    recover: bool,
    progress: bool,
    zero_deadline: bool,
    jobs: usize,
}

fn cases() -> Vec<Case> {
    let plain = Case {
        name: "plain",
        jobs: 1,
        ..Case::default()
    };
    vec![
        plain,
        Case {
            name: "checkpoint every 3000",
            every: Some(3000),
            ..plain
        },
        Case {
            name: "resume mid-run",
            resume_pct: Some(40),
            ..plain
        },
        Case {
            name: "resume past the end",
            resume_pct: Some(80),
            take_pct: Some(50),
            ..plain
        },
        Case {
            name: "skip and take",
            skip_pct: 3,
            take_pct: Some(60),
            ..plain
        },
        Case {
            name: "recover",
            recover: true,
            ..plain
        },
        Case {
            name: "progress sink",
            progress: true,
            ..plain
        },
        Case {
            name: "zero deadline",
            zero_deadline: true,
            ..plain
        },
        Case {
            name: "jobs 2",
            jobs: 2,
            ..plain
        },
        Case {
            name: "jobs 2, resumed, windowed",
            jobs: 2,
            resume_pct: Some(30),
            skip_pct: 1,
            take_pct: Some(90),
            ..plain
        },
        Case {
            name: "jobs 2, checkpoint every 2000",
            jobs: 2,
            every: Some(2000),
            ..plain
        },
    ]
}

fn config() -> AnalysisConfig {
    AnalysisConfig::dataflow_limit()
        .with_renames(RenameSet::none())
        .with_window(WindowSize::bounded(64))
        .with_segments(SegmentMap::all_data())
}

fn encode(records: &[TraceRecord], v1: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    let segments = SegmentMap::all_data();
    let mut writer = if v1 {
        TraceWriter::v1(&mut bytes, segments)
    } else {
        TraceWriter::with_chunk_records(&mut bytes, segments, 1000)
    }
    .expect("in-memory header");
    for record in records {
        writer.write_record(record).expect("in-memory record");
    }
    writer.finish().expect("in-memory finish");
    bytes
}

fn workload() -> Workload {
    Workload::new(WorkloadId::Eqntott).with_size(8)
}

fn inputs() -> Vec<Input> {
    let trace = synthetic::random_trace(RECORDS, 71);
    let clean = encode(&trace, false);
    let mut flipped = clean.clone();
    let at = flipped.len() * 3 / 4;
    flipped[at] ^= 0x10;
    let truncated = clean[..clean.len() * 2 / 3].to_vec();
    let governed = Limits {
        max_records: RECORDS as u64 - 1,
        ..Limits::default()
    };
    let (workload_records, _) = workload()
        .collect_trace(WORKLOAD_FUEL)
        .expect("workload runs");
    vec![
        Input {
            name: "clean bytes",
            feed: Feed::Bytes(clean.clone(), Limits::default()),
        },
        Input {
            name: "bit-flipped bytes",
            feed: Feed::Bytes(flipped, Limits::default()),
        },
        Input {
            name: "truncated bytes",
            feed: Feed::Bytes(truncated, Limits::default()),
        },
        Input {
            name: "governor-limited bytes",
            feed: Feed::Bytes(clean, governed),
        },
        Input {
            name: "v1 bytes",
            feed: Feed::Bytes(encode(&trace, true), Limits::default()),
        },
        Input {
            name: "clean slice",
            feed: Feed::Slice(trace),
        },
        Input {
            name: "workload slice",
            feed: Feed::Slice(workload_records),
        },
        Input {
            name: "workload vm",
            feed: Feed::Vm(workload()),
        },
    ]
}

fn reader(bytes: &[u8], recover: bool, limits: Limits) -> TraceReader<TraceSource> {
    let source = TraceSource::from_bytes(bytes.to_vec());
    let reader = if recover {
        TraceReader::from_source_with_recovery(source)
    } else {
        TraceReader::from_source(source)
    };
    reader
        .expect("header")
        .with_governor(ResourceGovernor::new(limits))
}

/// What a whole-file sequential read yields: the records of every block
/// delivered before any fault, and the fault.
fn sequential(input: &Input, recover: bool) -> (Vec<TraceRecord>, Option<TraceError>) {
    match &input.feed {
        Feed::Bytes(bytes, limits) => {
            let mut reader = reader(bytes, recover, *limits);
            let (mut records, mut block) = (Vec::new(), Vec::new());
            loop {
                block.clear();
                match reader.read_block(&mut block) {
                    Ok(0) => return (records, None),
                    Ok(_) => records.extend_from_slice(&block),
                    Err(e) => return (records, Some(e)),
                }
            }
        }
        Feed::Slice(records) => (records.clone(), None),
        Feed::Vm(workload) => (
            workload
                .collect_trace(WORKLOAD_FUEL)
                .expect("workload runs")
                .0,
            None,
        ),
    }
}

/// Keeps every checkpoint it is handed, with the record it was taken at,
/// and counts heartbeats.
#[derive(Default)]
struct Recorder {
    saved: Vec<(u64, Vec<u8>)>,
    beats: u64,
}

impl RunSink for Recorder {
    fn checkpoint(&mut self, well: &LiveWell) {
        let mut bytes = Vec::new();
        well.save_checkpoint(&mut bytes).expect("in-memory save");
        self.saved.push((well.records_processed(), bytes));
    }

    fn beat(&mut self, _: &LiveWell, _: u64, _: u64) {
        self.beats += 1;
    }
}

fn checkpoint_of(records: &[TraceRecord]) -> Vec<u8> {
    let mut well = LiveWell::new(config());
    well.process_slice(records);
    let mut bytes = Vec::new();
    well.save_checkpoint(&mut bytes).expect("in-memory save");
    bytes
}

/// How a run ended, in a comparable form.
#[derive(Debug, PartialEq)]
enum End {
    Report(String),
    Deadline,
    ShortInput { processed: u64, available: u64 },
    Trace(String),
}

fn run(input: &Input, case: &Case, policy: Policy<&mut Recorder>, start: &[u8]) -> (End, u64) {
    let mut well = if start.is_empty() {
        LiveWell::new(config())
    } else {
        LiveWell::resume_from(start, config()).expect("reference checkpoint resumes")
    };
    let before = well.records_processed();
    let mut driver = Run::new(&mut well, policy);
    let outcome = match &input.feed {
        Feed::Bytes(bytes, limits) => driver.stream(reader(bytes, case.recover, *limits)),
        Feed::Slice(records) => driver.slice(records),
        Feed::Vm(workload) => {
            let mut vm = workload.vm();
            driver.vm(|push| vm.run_traced(WORKLOAD_FUEL, push)).1
        }
    };
    let end = match outcome {
        Ok(_) => End::Report(well.finish().to_json()),
        Err(Stop::Deadline) => {
            assert_eq!(well.records_processed(), before, "a stop keeps progress");
            End::Deadline
        }
        Err(Stop::ShortInput {
            processed,
            available,
        }) => End::ShortInput {
            processed,
            available,
        },
        Err(Stop::Trace(e)) => End::Trace(e.to_string()),
        Err(Stop::Spawn(e)) => panic!("decode-ahead failed to start: {e}"),
    };
    (end, before)
}

#[test]
fn every_input_under_every_policy_matches_the_sequential_reference() {
    for input in inputs() {
        for case in cases() {
            let what = format!("{} / {}", input.name, case.name);
            let (records, fault) = sequential(&input, case.recover);
            let len = records.len();
            let skip = len * case.skip_pct / 100;
            let take = case.take_pct.map_or(len, |pct| len * pct / 100);
            let window = &records[skip.min(len)..];
            let window = &window[..take.min(window.len())];
            let resume_at = case.resume_pct.map_or(0, |pct| len * pct / 100);
            let start = match case.resume_pct {
                Some(_) => checkpoint_of(&records[skip..skip + resume_at]),
                None => Vec::new(),
            };

            let mut recorder = Recorder::default();
            let policy = Policy {
                checkpoint_every: case.every,
                deadline: case
                    .zero_deadline
                    .then(|| Instant::now().checked_sub(Duration::from_millis(1)))
                    .flatten(),
                skip: skip as u64,
                take: case.take_pct.map_or(u64::MAX, |_| take as u64),
                jobs: case.jobs,
                sink: &mut recorder,
            };
            let (end, before) = run(&input, &case, policy, &start);

            let expected = if case.zero_deadline && !window.is_empty() {
                End::Deadline
            } else if let Some(fault) = &fault {
                End::Trace(fault.to_string())
            } else if resume_at > window.len() {
                End::ShortInput {
                    processed: resume_at as u64,
                    available: window.len() as u64,
                }
            } else {
                End::Report(analyze_refs(window, &config()).to_json())
            };
            assert_eq!(end, expected, "{what}");

            // Checkpoints: one per boundary the analyzer crossed, each the
            // bytes a plain process_slice pass saves at that record.
            let analyzed_to = match &end {
                End::Report(_) => window.len(),
                End::Trace(_) => window.len().max(resume_at),
                _ => resume_at,
            };
            let expected_saves: Vec<u64> = match case.every {
                Some(every) => ((resume_at as u64 / every + 1) * every..=analyzed_to as u64)
                    .step_by(every as usize)
                    .collect(),
                None => Vec::new(),
            };
            let at: Vec<u64> = recorder.saved.iter().map(|(at, _)| *at).collect();
            assert_eq!(at, expected_saves, "{what}: checkpoint positions");
            for (at, bytes) in &recorder.saved {
                assert!(
                    *bytes == checkpoint_of(&window[..*at as usize]),
                    "{what}: checkpoint at {at} differs from the process_slice reference"
                );
            }

            if case.progress {
                let crossed = analyzed_to as u64 / BEAT_STRIDE - before / BEAT_STRIDE;
                assert_eq!(recorder.beats, crossed, "{what}: heartbeats");
                if matches!(input.feed, Feed::Bytes(..)) && fault.is_none() {
                    assert!(recorder.beats > 0, "{what}: no heartbeat");
                }
            }
        }
    }
}
