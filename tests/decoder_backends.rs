//! Differential suite for the trace input backends.
//!
//! The contract of [`TraceSource`] is that the decode pipeline cannot tell
//! the backends apart: a memory-mapped trace, a buffered-file trace, and
//! an in-memory trace must produce identical records, identical typed
//! errors (same kind, same byte offset, same record index), and identical
//! recovery accounting over clean, truncated, bit-flipped, and
//! governor-rejected streams. The decode-ahead pipeline and the parallel
//! whole-file decode must in turn match whatever the sequential reader
//! produces, record for record. End to end, a 400,000-record synthetic
//! trace analyzed through the CLI's stream and through the per-record
//! oracle must both reproduce a committed golden report byte for byte.

use paragraph_core::{AnalysisConfig, LiveWell, Policy, RenameSet, Run};
use paragraph_isa::OpClass;
use paragraph_trace::binary::{RecoveryStats, TraceReader, TraceWriter};
use paragraph_trace::faultinject::{frame_spans, reseal_chunks, FaultPlan};
use paragraph_trace::govern::{Limits, ResourceGovernor};
use paragraph_trace::source::{decode_all_parallel, DecodeAhead};
use paragraph_trace::{
    synthetic, Loc, SegmentMap, TraceError, TraceErrorKind, TraceRecord, TraceSource,
};
use std::path::{Path, PathBuf};

/// A deterministic v2 trace with small chunks (so damage and truncation
/// land mid-stream, not in one giant frame), written to a buffer.
fn trace_bytes(records: usize, seed: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut writer =
        TraceWriter::with_chunk_records(&mut buf, SegmentMap::all_data(), 256).expect("header");
    for record in synthetic::random_trace(records, seed) {
        writer.write_record(&record).expect("record");
    }
    writer.finish().expect("finish");
    buf
}

/// Writes `bytes` to a scratch file and returns its path.
fn scratch_file(name: &str, bytes: &[u8]) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("paragraph-backends-{}-{name}", std::process::id()));
    std::fs::write(&path, bytes).expect("scratch write");
    path
}

/// Everything one read of a stream produces: the records delivered, the
/// terminating fault (if any), and the recovery tallies.
#[derive(Debug)]
struct Drained {
    records: Vec<TraceRecord>,
    fault: Option<TraceError>,
    stats: RecoveryStats,
}

/// Drains `reader` through the block path.
fn drain(mut reader: TraceReader<TraceSource>) -> Drained {
    let mut records = Vec::new();
    let fault = loop {
        match reader.read_block(&mut records) {
            Ok(0) => break None,
            Ok(_) => {}
            Err(e) => break Some(e),
        }
    };
    Drained {
        records,
        fault,
        stats: reader.recovery_stats(),
    }
}

/// Opens `path` through every backend (plus the owned-memory source) and
/// drains each; `recover` selects recovery mode; `strict` arms the strict
/// governor.
fn drain_all_backends(path: &Path, bytes: &[u8], recover: bool, strict: bool) -> Vec<Drained> {
    let sources = [
        TraceSource::buffered_file(path).expect("buffered open"),
        TraceSource::mapped_file(path).expect("mapped open"),
        TraceSource::from_bytes(bytes.to_vec()),
    ];
    sources
        .into_iter()
        .map(|source| {
            let opened = if recover {
                TraceReader::from_source_with_recovery(source)
            } else {
                TraceReader::from_source(source)
            };
            let reader = match opened {
                Ok(reader) => reader,
                // A header-level fault must also be backend-independent;
                // surface it as a drained stream with zero records.
                Err(e) => {
                    return Drained {
                        records: Vec::new(),
                        fault: Some(e),
                        stats: RecoveryStats::default(),
                    }
                }
            };
            let reader = if strict {
                reader.with_governor(ResourceGovernor::new(Limits::strict()))
            } else {
                reader
            };
            drain(reader)
        })
        .collect()
}

/// Asserts every drain in `all` is identical to the first: same records,
/// same fault (by debug rendering, which carries kind, offsets, and
/// indexes), same recovery tallies.
fn assert_drains_agree(all: &[Drained], what: &str) {
    let first = &all[0];
    for (i, other) in all.iter().enumerate().skip(1) {
        assert_eq!(
            first.records, other.records,
            "{what}: backend {i} records diverged"
        );
        assert_eq!(
            format!("{:?}", first.fault),
            format!("{:?}", other.fault),
            "{what}: backend {i} fault diverged"
        );
        assert_eq!(
            first.stats, other.stats,
            "{what}: backend {i} recovery accounting diverged"
        );
    }
}

#[test]
fn backends_agree_on_clean_traces() {
    let bytes = trace_bytes(3_000, 11);
    let path = scratch_file("clean", &bytes);
    let all = drain_all_backends(&path, &bytes, false, false);
    assert_eq!(all[0].records.len(), 3_000);
    assert!(all[0].fault.is_none());
    assert_drains_agree(&all, "clean");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn backends_agree_on_truncated_traces() {
    let bytes = trace_bytes(2_000, 13);
    for keep in [bytes.len() / 3, bytes.len() / 2, bytes.len() - 7] {
        let cut = &bytes[..keep];
        let path = scratch_file(&format!("trunc-{keep}"), cut);
        // Strict mode: truncation is a typed fault, identical everywhere.
        let all = drain_all_backends(&path, cut, false, false);
        assert!(all[0].fault.is_some(), "keep {keep} must fault");
        assert_drains_agree(&all, &format!("truncated at {keep}"));
        // Recovery mode: identical salvage and identical skip accounting.
        let all = drain_all_backends(&path, cut, true, false);
        assert_drains_agree(&all, &format!("recovered truncation at {keep}"));
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn backends_agree_on_bit_flipped_traces() {
    let bytes = trace_bytes(4_000, 17);
    for seed in 1..=6u64 {
        let (damaged, _) = FaultPlan::new(seed).bit_flip_rate(0.0004).apply(&bytes);
        let path = scratch_file(&format!("flip-{seed}"), &damaged);
        let strictly = drain_all_backends(&path, &damaged, false, false);
        assert_drains_agree(&strictly, &format!("bit flips seed {seed}, strict"));
        let recovered = drain_all_backends(&path, &damaged, true, false);
        assert_drains_agree(&recovered, &format!("bit flips seed {seed}, recovery"));
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn backends_agree_on_governor_rejection() {
    // 70k records overflow Limits::strict()'s record cap, so every
    // backend must surface the same typed rejection at the same point.
    let bytes = trace_bytes(70_000, 19);
    let path = scratch_file("governed", &bytes);
    let all = drain_all_backends(&path, &bytes, false, true);
    let fault = all[0].fault.as_ref().expect("strict limits must reject");
    assert!(
        fault.limit_violation().is_some(),
        "rejection must be a limit violation, got {fault:?}"
    );
    assert_drains_agree(&all, "governor rejection");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn decode_ahead_and_parallel_decode_match_sequential_on_both_backends() {
    let bytes = trace_bytes(5_000, 23);
    let path = scratch_file("matrix", &bytes);
    let sequential = drain(
        TraceReader::from_source(TraceSource::buffered_file(&path).expect("open")).expect("parse"),
    );
    assert!(sequential.fault.is_none());

    for mapped in [false, true] {
        // Decode-ahead over this backend.
        let source = if mapped {
            TraceSource::mapped_file(&path).expect("mapped open")
        } else {
            TraceSource::buffered_file(&path).expect("buffered open")
        };
        let reader = TraceReader::from_source(source).expect("parse");
        let mut pipeline = DecodeAhead::spawn(reader, None).expect("spawn");
        let mut streamed = Vec::new();
        while let Some(batch) = pipeline.next_batch() {
            let batch = batch.expect("clean stream");
            streamed.extend_from_slice(&batch);
            pipeline.recycle(batch);
        }
        pipeline.finish();
        assert_eq!(
            sequential.records, streamed,
            "decode-ahead diverged (mapped: {mapped})"
        );
    }

    // Parallel whole-file decode from the shared map, at several widths.
    let source = TraceSource::mapped_file(&path).expect("mapped open");
    let shared = source.shared_bytes().expect("mapped source shares bytes");
    for jobs in [1, 2, 4] {
        let decoded = decode_all_parallel(&shared, jobs, &Limits::default())
            .expect("pristine stream must decode in parallel");
        assert_eq!(
            sequential.records, decoded.records,
            "parallel decode diverged at {jobs} jobs"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// One CRC-valid but inconsistent record: a `carrier` record the writer
/// encodes as `carrier_bytes`, overwritten in place by `bad_bytes` (same
/// length) and resealed, so only the record contract can reject it.
struct Inconsistent {
    what: &'static str,
    carrier: fn(u64) -> TraceRecord,
    carrier_bytes: fn() -> Vec<u8>,
    bad_bytes: fn() -> Vec<u8>,
    message: &'static str,
}

const INCONSISTENT: &[Inconsistent] = &[
    Inconsistent {
        what: "store with no operands",
        carrier: |pc| TraceRecord::new(pc, OpClass::Nop, &[], None),
        carrier_bytes: || vec![OpClass::Nop.id(), 0, 0],
        bad_bytes: || vec![7, 0, 0],
        message: "store must name its memory destination",
    },
    Inconsistent {
        what: "destination on a branch",
        carrier: |pc| TraceRecord::new(pc, OpClass::IntAlu, &[], Some(Loc::int(5))),
        carrier_bytes: || vec![OpClass::IntAlu.id(), 0x80, 0, 0, 5],
        bad_bytes: || vec![OpClass::Branch.id(), 0x80, 0, 0, 5],
        message: "class branch cannot name a destination",
    },
    Inconsistent {
        what: "memory destination on int-alu",
        carrier: |pc| TraceRecord::new(pc, OpClass::Store, &[], Some(Loc::mem(8))),
        carrier_bytes: || vec![OpClass::Store.id(), 0x80, 0, 2, 8],
        bad_bytes: || vec![OpClass::IntAlu.id(), 0x80, 0, 2, 8],
        message: "memory destinations are exactly the store class",
    },
    Inconsistent {
        what: "load with no memory source",
        carrier: |pc| TraceRecord::load(pc, 8, None, Loc::int(4)),
        carrier_bytes: || vec![OpClass::Load.id(), 0x81, 0, 2, 8, 0, 4],
        bad_bytes: || vec![OpClass::Load.id(), 0x81, 0, 0, 8, 0, 4],
        message: "load must name its memory source",
    },
];

/// Records before the inconsistent one: it closes the second 64-record
/// chunk, so its bytes end that chunk's frame.
const BAD_INDEX: usize = 127;

/// A v2 stream (64-record chunks) whose record `BAD_INDEX` is `case`'s
/// inconsistent record inside a chunk with a valid CRC.
fn inconsistent_trace(case: &Inconsistent) -> Vec<u8> {
    let mut records = synthetic::random_trace(200, 41);
    // The carrier repeats its predecessor's pc, so its pc delta is 0.
    records[BAD_INDEX] = (case.carrier)(records[BAD_INDEX - 1].pc());
    let mut bytes = Vec::new();
    let mut writer =
        TraceWriter::with_chunk_records(&mut bytes, SegmentMap::all_data(), 64).expect("header");
    for record in &records {
        writer.write_record(record).expect("record");
    }
    writer.finish().expect("finish");
    // Spans: file header, chunk 0, chunk 1, ...
    let (start, len) = frame_spans(&bytes)[2];
    let (carrier, bad) = ((case.carrier_bytes)(), (case.bad_bytes)());
    let at = start + len - carrier.len();
    assert_eq!(
        bytes[at..start + len],
        carrier,
        "{}: carrier encoding",
        case.what
    );
    bytes[at..start + len].copy_from_slice(&bad);
    assert_eq!(
        reseal_chunks(&mut bytes),
        5,
        "{}: every frame resealed",
        case.what
    );
    bytes
}

/// The per-record oracle's decode of a stream with intact framing, with
/// the tallies a strict read of it keeps: every record delivered counted,
/// nothing skipped.
fn oracle(bytes: &[u8]) -> Drained {
    let decoded = paragraph_trace::oracle::decode(bytes).expect("intact framing");
    Drained {
        stats: RecoveryStats {
            records_read: decoded.records.len() as u64,
            ..RecoveryStats::default()
        },
        records: decoded.records,
        fault: decoded.fault,
    }
}

/// Drains `reader` through the decode-ahead pipeline.
fn drain_decode_ahead(reader: TraceReader<TraceSource>) -> Drained {
    let mut pipeline = DecodeAhead::spawn(reader, None).expect("spawn");
    let mut records = Vec::new();
    let fault = loop {
        match pipeline.next_batch() {
            None => break None,
            Some(Ok(batch)) => {
                records.extend_from_slice(&batch);
                pipeline.recycle(batch);
            }
            Some(Err(e)) => break Some(e),
        }
    };
    let stats = pipeline.finish().stats;
    Drained {
        records,
        fault,
        stats,
    }
}

#[test]
fn every_decoder_rejects_crc_valid_inconsistent_records_alike() {
    for case in INCONSISTENT {
        let bytes = inconsistent_trace(case);
        let path = scratch_file(
            &format!("inconsistent-{}", case.what.replace(' ', "-")),
            &bytes,
        );
        let open = |source: TraceSource| TraceReader::from_source(source).expect("header");
        let memory = || TraceSource::from_bytes(bytes.clone());
        let all = [
            oracle(&bytes),
            drain(open(memory())),
            drain(open(TraceSource::mapped_file(&path).expect("mapped open"))),
            drain(open(
                TraceSource::buffered_file(&path).expect("buffered open"),
            )),
            drain_decode_ahead(open(TraceSource::mapped_file(&path).expect("mapped open"))),
        ];
        assert_drains_agree(&all, case.what);
        assert_eq!(all[0].records.len(), BAD_INDEX, "{}", case.what);
        let fault = all[0]
            .fault
            .as_ref()
            .expect("inconsistent record must fault");
        assert_eq!(fault.record_index(), BAD_INDEX as u64, "{}", case.what);
        match fault.kind() {
            TraceErrorKind::Corrupt(why) => {
                assert!(why.contains(case.message), "{}: {why}", case.what);
            }
            other => panic!("{}: expected Corrupt, got {other:?}", case.what),
        }
        let shared = TraceSource::mapped_file(&path)
            .expect("mapped open")
            .shared_bytes()
            .expect("mapped source shares bytes");
        assert!(
            decode_all_parallel(&shared, 2, &Limits::default()).is_none(),
            "{}: parallel decode must decline",
            case.what
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// Records in the golden trace: enough to cross many chunk and page
/// boundaries.
const GOLDEN_RECORDS: u64 = 400_000;

/// Segment boundaries of the golden trace, in word addresses like the
/// VM's: data below `HEAP_BASE`, heap above it, stack above
/// `STACK_FLOOR`.
const HEAP_BASE: u64 = 1 << 22;
const STACK_FLOOR: u64 = 1 << 26;

/// SplitMix64, the golden trace's PRNG.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Writes the golden trace to `path`, shaped like the word-addressed
/// traces the VM emits: a stack frame whose base moves on call/return but
/// whose spills land on a handful of nearby words, sequential heap array
/// walks with loads biased to recent words, and a sprinkle of sparse far
/// pointers, interleaved with register compute and branches. It has no
/// system calls. Returns the records written.
fn write_golden_trace(path: &Path, records: u64, seed: u64) -> std::io::Result<u64> {
    let file = std::fs::File::create(path)?;
    let mut writer = TraceWriter::new(
        std::io::BufWriter::new(file),
        SegmentMap::new(HEAP_BASE, STACK_FLOOR),
    )?;
    let mut rng = SplitMix64(seed);
    let mut heap_cursor = HEAP_BASE;
    let mut sp = STACK_FLOOR + (1 << 12);
    let reg = |rng: &mut SplitMix64| Loc::int(1 + (rng.next() % 8) as u8);
    for i in 0..records {
        let pc = 0x400_000 + i * 4;
        // Spills cluster on the first couple dozen words of the frame.
        let stack_addr = sp + rng.next() % 24;
        let record = match rng.next() % 100 {
            0..=34 => {
                let a = reg(&mut rng);
                let b = reg(&mut rng);
                TraceRecord::compute(pc, OpClass::IntAlu, &[a, b], reg(&mut rng))
            }
            35..=49 => TraceRecord::load(pc, stack_addr, Some(reg(&mut rng)), reg(&mut rng)),
            50..=62 => TraceRecord::store(pc, stack_addr, reg(&mut rng), Some(reg(&mut rng))),
            63..=72 => {
                // Sequential array walk: one word at a time, densely
                // filling pages as the table grows.
                heap_cursor += 1;
                TraceRecord::store(pc, heap_cursor, reg(&mut rng), None)
            }
            73..=80 => {
                let back = 1 + rng.next() % 512;
                TraceRecord::load(
                    pc,
                    heap_cursor.saturating_sub(back).max(HEAP_BASE),
                    None,
                    reg(&mut rng),
                )
            }
            81..=82 => {
                // Sparse far pointers: single-occupant pages.
                let far = HEAP_BASE + rng.next() % (1 << 22);
                TraceRecord::load(pc, far, None, reg(&mut rng))
            }
            83..=92 => {
                // Branches double as call/return sites: every few of them
                // push or pop a frame, moving the hot window.
                match rng.next() % 8 {
                    0 => sp = (sp - (16 + rng.next() % 16)).max(STACK_FLOOR + 64),
                    1 => sp = (sp + 16 + rng.next() % 16).min(STACK_FLOOR + (1 << 14)),
                    _ => {}
                }
                TraceRecord::branch(pc, &[reg(&mut rng)])
            }
            _ => {
                let a = Loc::fp((rng.next() % 8) as u8);
                let b = Loc::fp((rng.next() % 8) as u8);
                TraceRecord::compute(pc, OpClass::FpMul, &[a, b], Loc::fp((rng.next() % 8) as u8))
            }
        };
        writer.write_record(&record)?;
    }
    writer.finish()
}

#[test]
fn stream_and_oracle_reproduce_the_golden_report() {
    let golden = include_str!("../crates/bench/golden/hotpath.quick.report.json");
    let path =
        std::env::temp_dir().join(format!("paragraph-backends-{}-golden", std::process::id()));
    let written = write_golden_trace(&path, GOLDEN_RECORDS, 0x9e37_79b9).expect("trace write");
    assert_eq!(written, GOLDEN_RECORDS);
    // No renaming: every store's Ddest term forces a live-well lookup, the
    // worst realistic case for the memory table.
    let config = AnalysisConfig::dataflow_limit()
        .with_renames(RenameSet::none())
        .with_segments(SegmentMap::new(HEAP_BASE, STACK_FLOOR));

    // The CLI's path: the source `analyze --trace` opens, streamed through
    // decode-ahead into one analyzer.
    let source = TraceSource::auto_file(&path).expect("trace open");
    let reader = TraceReader::from_source(source).expect("trace header");
    let mut well = LiveWell::new(config.clone());
    Run::new(&mut well, Policy::default())
        .stream(reader)
        .expect("clean trace");
    let streamed = format!("{}\n", well.finish().to_json());

    // The oracle's path: per-record decode, one record at a time.
    let bytes = std::fs::read(&path).expect("trace read");
    let decoded = paragraph_trace::oracle::decode(&bytes).expect("intact framing");
    assert!(decoded.fault.is_none(), "golden trace must decode");
    let mut well = LiveWell::new(config);
    for record in &decoded.records {
        well.process(record);
    }
    let oracle = format!("{}\n", well.finish().to_json());
    let _ = std::fs::remove_file(&path);

    assert!(
        streamed == golden,
        "Run::stream diverged from the golden report"
    );
    assert!(
        oracle == golden,
        "the oracle path diverged from the golden report"
    );
}
