//! Differential suite for `--jobs N` over a trace image.
//!
//! Two paths analyze a trace at `--jobs N`. A trace file streams: a
//! decode-ahead helper thread decodes chunk N+1 while one live well
//! consumes chunk N ([`streamed`], the `Run` driver's stream source). A
//! resident trace is cut: here the chunks decode in parallel straight into
//! one record vector ([`decode_all_parallel`], which the benchmark's
//! ledger still measures), which is then cut at conservative-syscall
//! firewalls and analyzed segment by segment ([`analyze_parallel`], the
//! driver's slice source). Both must match the sequential oracle byte for
//! byte on the JSON report, for every job count, chunk size, syscall
//! placement and configuration. The parallel decode must decline (`None`)
//! whenever it could not reproduce the sequential reader exactly, so the
//! sequential reader owns every error.

use paragraph_core::branch::BranchPolicy;
use paragraph_core::{
    analyze_parallel, analyze_refs, AnalysisConfig, LiveWell, MemoryModel, Policy, RenameSet, Run,
    WindowSize,
};
use paragraph_isa::OpClass;
use paragraph_trace::binary::{TraceReader, TraceWriter};
use paragraph_trace::source::decode_all_parallel;
use paragraph_trace::{synthetic, Limits, Loc, SegmentMap, TraceRecord, TraceSource};
use std::time::Duration;

const JOBS: [usize; 3] = [2, 3, 8];
const CHUNKS: [u64; 3] = [1, 7, 4096];

/// The engine-level configuration set of `crates/core/src/parallel.rs`.
fn configs() -> Vec<AnalysisConfig> {
    vec![
        AnalysisConfig::dataflow_limit(),
        AnalysisConfig::dataflow_limit().with_renames(RenameSet::none()),
        AnalysisConfig::dataflow_limit().with_window(WindowSize::bounded(64)),
        AnalysisConfig::dataflow_limit().with_issue_limit(4),
        AnalysisConfig::dataflow_limit().with_memory_model(MemoryModel::NoDisambiguation),
        AnalysisConfig::dataflow_limit()
            .with_branch_policy(BranchPolicy::StallAlways)
            .with_window(WindowSize::bounded(256)),
    ]
}

/// Writes `records` as a v2 stream with `chunk` records per frame.
fn encode(records: &[TraceRecord], chunk: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut writer = TraceWriter::with_chunk_records(&mut bytes, SegmentMap::all_data(), chunk)
        .expect("in-memory header");
    for record in records {
        writer.write_record(record).expect("in-memory record");
    }
    writer.finish().expect("in-memory finish");
    bytes
}

/// The sequential oracle's JSON for `records` as written by [`encode`].
fn reference(records: &[TraceRecord], config: &AnalysisConfig) -> String {
    let config = config.clone().with_segments(SegmentMap::all_data());
    analyze_refs(records, &config).to_json()
}

/// The `analyze --trace` path: a `Run` streaming decode-ahead into one
/// live well, configured with the trace header's segment map.
fn streamed(bytes: &[u8], config: &AnalysisConfig) -> String {
    let reader = TraceReader::from_source(TraceSource::from_bytes(bytes.to_vec())).expect("header");
    let mut analyzer = LiveWell::new(config.clone().with_segments(reader.segment_map()));
    let policy = Policy {
        jobs: 8,
        ..Policy::default()
    };
    Run::new(&mut analyzer, policy)
        .stream(reader)
        .expect("clean stream");
    analyzer.finish().to_json()
}

/// The parallel whole-stream decode, or `None` when it declines.
fn decoded(bytes: &[u8], jobs: usize, limits: &Limits) -> Option<(Vec<TraceRecord>, SegmentMap)> {
    let shared = TraceSource::from_bytes(bytes.to_vec())
        .shared_bytes()
        .expect("in-memory source shares bytes");
    decode_all_parallel(&shared, jobs, limits).map(|d| (d.records, d.segments))
}

/// The resident-trace path: parallel decode, then firewall cuts.
fn loaded(bytes: &[u8], config: &AnalysisConfig, jobs: usize) -> String {
    let (records, segments) =
        decoded(bytes, jobs, &Limits::default()).expect("pristine stream decodes in parallel");
    analyze_parallel(&records, &config.clone().with_segments(segments), jobs).to_json()
}

fn assert_paths_identical(records: &[TraceRecord], config: &AnalysisConfig, what: &str) {
    let expected = reference(records, config);
    for chunk in CHUNKS {
        let bytes = encode(records, chunk);
        assert_eq!(
            streamed(&bytes, config),
            expected,
            "{what}: streamed, chunk {chunk} config {config:?}"
        );
        for jobs in JOBS {
            assert_eq!(
                loaded(&bytes, config, jobs),
                expected,
                "{what}: loaded, chunk {chunk} jobs {jobs} config {config:?}"
            );
        }
    }
}

fn syscall(pc: u64) -> TraceRecord {
    TraceRecord::syscall(pc, &[Loc::int(4)], Some(Loc::int(2)))
}

/// `random_trace(n, seed)` with every syscall replaced by a plain ALU op,
/// then syscalls placed wherever `at(index)` says.
fn placed(n: usize, seed: u64, at: impl Fn(usize) -> bool) -> Vec<TraceRecord> {
    synthetic::random_trace(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            if at(i) {
                syscall(r.pc())
            } else if r.class() == OpClass::Syscall {
                TraceRecord::compute(r.pc(), OpClass::IntAlu, &[Loc::int(3)], Loc::int(5))
            } else {
                r
            }
        })
        .collect()
}

#[test]
fn both_paths_match_the_oracle_across_configs_jobs_and_chunk_sizes() {
    // random_trace emits ~2% syscalls: plenty of cut points in every range.
    let trace = synthetic::random_trace(10_000, 41);
    for config in configs() {
        assert_paths_identical(&trace, &config, "random trace");
    }
}

#[test]
fn both_paths_match_the_oracle_for_every_syscall_placement() {
    const N: usize = 9_000;
    let placements: Vec<(&str, Vec<TraceRecord>)> = vec![
        ("no syscall", placed(N, 3, |_| false)),
        ("only the last record", placed(N, 5, |i| i == N - 1)),
        // Multiples of 7 start every 7-record (and 1-record) chunk;
        // multiples of 4096 start every 4096-record chunk.
        (
            "first record of a chunk",
            placed(N, 7, |i| i % 4096 == 0 || i % 7 == 0),
        ),
        (
            "every record",
            (0..N as u64).map(|i| syscall(4 * i)).collect(),
        ),
        // Syscalls only in the outer quarters: the middle of the trace
        // offers no cut point.
        (
            "a range with no syscall",
            placed(N, 9, |i| !(N / 4..=3 * N / 4).contains(&i) && i % 50 == 0),
        ),
    ];
    let configs = [
        AnalysisConfig::dataflow_limit(),
        AnalysisConfig::dataflow_limit()
            .with_renames(RenameSet::none())
            .with_window(WindowSize::bounded(64)),
    ];
    for (what, trace) in &placements {
        for config in &configs {
            assert_paths_identical(trace, config, what);
        }
    }
}

#[test]
fn empty_and_single_chunk_traces_match_the_oracle() {
    let config = AnalysisConfig::dataflow_limit();
    assert_paths_identical(&[], &config, "empty trace");
    assert_paths_identical(&synthetic::random_trace(3, 1), &config, "three records");
}

/// A syscall-rich trace (so every range has cut points) as a stream with
/// small chunks, so damage lands mid-stream.
fn clean_stream() -> (Vec<TraceRecord>, Vec<u8>) {
    let trace = synthetic::random_trace(6_000, 13);
    let bytes = encode(&trace, 64);
    (trace, bytes)
}

fn assert_declines(bytes: &[u8], limits: &Limits, what: &str) {
    for jobs in JOBS {
        assert!(
            decoded(bytes, jobs, limits).is_none(),
            "{what}: jobs {jobs} must decline"
        );
    }
}

#[test]
fn damaged_streams_are_declined() {
    let (_, bytes) = clean_stream();
    // A payload bit flip late in the stream: the structural scan passes,
    // the chunk's CRC does not, and every worker stops.
    let mut flipped = bytes.clone();
    let at = flipped.len() * 9 / 10;
    flipped[at] ^= 0x10;
    assert_declines(&flipped, &Limits::default(), "bit flip");
    assert_declines(&bytes[..bytes.len() - 5], &Limits::default(), "truncation");
}

#[test]
fn legacy_v1_streams_are_declined() {
    let (trace, _) = clean_stream();
    let mut bytes = Vec::new();
    let mut writer = TraceWriter::v1(&mut bytes, SegmentMap::all_data()).expect("v1 header");
    for record in &trace {
        writer.write_record(record).expect("v1 record");
    }
    writer.finish().expect("v1 finish");
    assert_declines(&bytes, &Limits::default(), "v1");
}

#[test]
fn governor_limits_are_declined() {
    let (trace, bytes) = clean_stream();
    let deadline = Limits {
        deadline: Some(Duration::from_secs(3600)),
        ..Limits::default()
    };
    assert_declines(&bytes, &deadline, "deadline");
    let tight = Limits {
        max_records: trace.len() as u64 - 1,
        ..Limits::default()
    };
    assert_declines(&bytes, &tight, "max_records");
    // Exactly at the limit the stream is admitted, and exact.
    let exact = Limits {
        max_records: trace.len() as u64,
        ..Limits::default()
    };
    let (records, _) = decoded(&bytes, 2, &exact).expect("at the limit");
    assert_eq!(records, trace);
}

#[test]
fn ineligible_configs_fall_back_to_the_same_report() {
    let (trace, _) = clean_stream();
    for config in [
        AnalysisConfig::dataflow_limit().with_value_stats(true),
        AnalysisConfig::dataflow_limit().with_live_well_cap(32),
        AnalysisConfig::dataflow_limit()
            .with_syscall_policy(paragraph_core::SyscallPolicy::Optimistic),
    ] {
        assert_paths_identical(&trace, &config, "ineligible config");
    }
}

#[test]
fn stall_always_memory_sourced_branches_fall_back_in_any_segment() {
    let stall = AnalysisConfig::dataflow_limit().with_branch_policy(BranchPolicy::StallAlways);
    let (trace, _) = clean_stream();
    for at in [10, trace.len() / 2, trace.len() - 1] {
        let mut trace = trace.clone();
        trace[at] = TraceRecord::branch(trace[at].pc(), &[Loc::mem(77)]);
        assert_paths_identical(&trace, &stall, "stall-always memory-sourced branch");
        // Perfect branching places such a branch normally.
        assert_paths_identical(
            &trace,
            &AnalysisConfig::dataflow_limit(),
            "perfect branches",
        );
    }
}

#[test]
fn the_trace_headers_segment_map_configures_the_analysis() {
    // Renaming the stack but not data makes the report depend on where
    // the header puts the segment boundaries.
    let trace = synthetic::random_trace(8_000, 17);
    let addrs: Vec<u64> = trace.iter().filter_map(TraceRecord::mem_addr).collect();
    let (lo, hi) = (addrs.iter().min().copied(), addrs.iter().max().copied());
    let (lo, hi) = (lo.expect("memory ops"), hi.expect("memory ops"));
    let segments = SegmentMap::new(lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3);
    let mut bytes = Vec::new();
    let mut writer =
        TraceWriter::with_chunk_records(&mut bytes, segments, 64).expect("in-memory header");
    for record in &trace {
        writer.write_record(record).expect("in-memory record");
    }
    writer.finish().expect("in-memory finish");

    let config = AnalysisConfig::dataflow_limit().with_renames(RenameSet::registers_and_stack());
    let expected = analyze_refs(&trace, &config.clone().with_segments(segments)).to_json();
    assert_ne!(expected, reference(&trace, &config), "segments must matter");
    assert_eq!(streamed(&bytes, &config), expected, "streamed");
    for jobs in JOBS {
        assert_eq!(
            loaded(&bytes, &config, jobs),
            expected,
            "loaded, jobs {jobs}"
        );
    }
}
