//! Hot-path benchmark: block trace decode + paged live well, end to end.
//!
//! Measures the single-cell analyze pipeline — decode a binary v2 trace
//! from disk and stream it through the live well — in its two
//! implementations:
//!
//! * **before** — the pre-block-decode shape: the per-record decoder
//!   ([`oracle::decode`]) feeding [`LiveWell::process`] one record at a
//!   time.
//! * **after** — block decode ([`TraceReader::read_block`]) feeding
//!   [`LiveWell::process_slice`] in chunk-sized slices.
//!
//! Every repetition asserts the two reports are byte-identical before any
//! timing is kept, so the speedup can never come from computing something
//! different. Results go three places: a human summary on stdout, the
//! canonical report JSON under `PARAGRAPH_OUT` (quick mode writes
//! `hotpath.quick.report.json`, diffed against the committed golden in CI;
//! the full run writes `hotpath.report.json`), and an appended line in
//! `BENCH.hotpath.json` — the perf trajectory.
//!
//! Usage: `cargo run --release -p paragraph-bench --bin hotpath [-- --quick]`

use paragraph_bench::{thousands, Study};
use paragraph_core::{analyze_parallel, AnalysisConfig, AnalysisReport, LiveWell, RenameSet};
use paragraph_isa::OpClass;
use paragraph_trace::binary::{TraceReader, TraceWriter};
use paragraph_trace::source::DecodeAhead;
use paragraph_trace::{oracle, Loc, SegmentMap, TraceRecord, TraceSource};
use std::fs::{self, File};
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Records in the full benchmark trace (the acceptance floor is 10M).
const FULL_RECORDS: u64 = 12_000_000;

/// Records in the quick (CI smoke) trace: big enough to cross many chunk
/// and page boundaries, small enough for a debug-pool runner.
const QUICK_RECORDS: u64 = 400_000;

/// Segment boundaries of the synthetic trace. The repo's VM (like the
/// paper's DECstation traces) is **word**-addressed, so these are word
/// addresses: data below `HEAP_BASE`, heap above it, stack above
/// `STACK_FLOOR`.
const HEAP_BASE: u64 = 1 << 22;
const STACK_FLOOR: u64 = 1 << 26;

/// SplitMix64, the same minimal PRNG the synthetic trace module uses.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Writes a deterministic synthetic trace shaped like the word-addressed
/// traces the VM emits: a stack frame whose base moves on call/return but
/// whose spills land on a handful of nearby words, sequential heap array
/// walks with loads biased to recent words, and a sprinkle of sparse far
/// pointers, interleaved with register compute and branches.
///
/// `syscall_every: Some(n)` additionally emits a conservative system call
/// every `n` records — the firewall cut points the parallel-analyze leg
/// shards at. `None` leaves the byte stream exactly as before the
/// parameter existed, keeping the committed golden report stable.
fn write_trace(
    path: &Path,
    records: u64,
    seed: u64,
    syscall_every: Option<u64>,
) -> std::io::Result<u64> {
    let file = File::create(path)?;
    let mut writer = TraceWriter::new(
        BufWriter::new(file),
        SegmentMap::new(HEAP_BASE, STACK_FLOOR),
    )?;
    let mut rng = Rng(seed);
    let mut heap_cursor = HEAP_BASE;
    let mut sp = STACK_FLOOR + (1 << 12);
    let reg = |rng: &mut Rng| Loc::int(1 + (rng.next() % 8) as u8);
    for i in 0..records {
        let pc = 0x400_000 + i * 4;
        if let Some(every) = syscall_every {
            if (i + 1) % every == 0 {
                writer.write_record(&TraceRecord::syscall(pc, &[], None))?;
                continue;
            }
        }
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

/// The pre-block-decode pipeline: the per-record oracle decodes the
/// trace, and the live well takes it one record at a time.
fn run_before(path: &Path, config: &AnalysisConfig) -> AnalysisReport {
    let bytes = fs::read(path).expect("benchmark trace must read");
    let decoded = oracle::decode(&bytes).expect("benchmark trace must parse");
    assert!(decoded.fault.is_none(), "benchmark trace must decode");
    let mut analyzer = LiveWell::new(config.clone());
    for record in &decoded.records {
        analyzer.process(record);
    }
    analyzer.finish()
}

/// The decode-ahead pipeline: the trace is memory-mapped, and a helper
/// thread CRC-checks and decodes chunk N+1 while the analyzer consumes
/// chunk N.
fn run_decode_after(path: &Path, config: &AnalysisConfig) -> AnalysisReport {
    let source = TraceSource::mapped_file(path).expect("benchmark trace must map");
    let reader = TraceReader::from_source(source).expect("benchmark trace must parse");
    let mut analyzer = LiveWell::new(config.clone());
    let mut pipeline = DecodeAhead::spawn(reader, None).expect("decode-ahead thread must spawn");
    while let Some(batch) = pipeline.next_batch() {
        let batch = batch.expect("benchmark trace must decode");
        analyzer.process_slice(&batch);
        pipeline.recycle(batch);
    }
    pipeline.finish();
    analyzer.finish()
}

/// The block pipeline: buffered reads, block decode feeding
/// `process_slice` back to back on one thread. The "after" leg of the
/// block-decode row and the "before" leg of the decode row.
fn run_after(path: &Path, config: &AnalysisConfig) -> AnalysisReport {
    let file = File::open(path).expect("benchmark trace must open");
    let mut reader = TraceReader::new(BufReader::new(file)).expect("benchmark trace must parse");
    let mut analyzer = LiveWell::new(config.clone());
    let mut block = Vec::new();
    loop {
        block.clear();
        let n = reader
            .read_block(&mut block)
            .expect("benchmark trace must decode");
        if n == 0 {
            break;
        }
        analyzer.process_slice(&block);
    }
    analyzer.finish()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let records = if quick { QUICK_RECORDS } else { FULL_RECORDS };
    let reps = if quick { 2 } else { 5 };
    let study = Study::from_env();
    fs::create_dir_all(study.out_dir()).expect("out dir must be creatable");

    let trace_path: PathBuf = study.out_dir().join(if quick {
        "hotpath.quick.trace"
    } else {
        "hotpath.trace"
    });
    let written = write_trace(&trace_path, records, 0x9e37_79b9, None).expect("trace write");
    assert_eq!(written, records);
    let bytes = fs::metadata(&trace_path).expect("trace metadata").len();
    println!(
        "hotpath: {} records, {} MB on disk, {} reps per leg{}",
        thousands(records),
        bytes / (1024 * 1024),
        reps,
        if quick { " (quick)" } else { "" }
    );

    // No renaming: every store's Ddest term forces a live-well lookup, the
    // worst realistic case for the memory table.
    let config = AnalysisConfig::dataflow_limit()
        .with_renames(RenameSet::none())
        .with_segments(SegmentMap::new(HEAP_BASE, STACK_FLOOR));

    // Alternate the legs and keep each one's minimum: single-shot wall
    // clocks on a shared box swing by 2x.
    let mut before_ns = u64::MAX;
    let mut after_ns = u64::MAX;
    let mut report_json = String::new();
    for rep in 0..reps {
        let start = Instant::now();
        let before = run_before(&trace_path, &config);
        let before_elapsed = start.elapsed().as_nanos() as u64;

        let start = Instant::now();
        let after = run_after(&trace_path, &config);
        let after_elapsed = start.elapsed().as_nanos() as u64;

        let before_json = before.to_json();
        let after_json = after.to_json();
        assert_eq!(
            before_json, after_json,
            "paged/block pipeline must produce a byte-identical report"
        );
        report_json = after_json;
        before_ns = before_ns.min(before_elapsed);
        after_ns = after_ns.min(after_elapsed);
        println!(
            "  rep {}: before {:>8.1} ms   after {:>8.1} ms",
            rep + 1,
            before_elapsed as f64 / 1e6,
            after_elapsed as f64 / 1e6,
        );
    }

    let speedup = before_ns as f64 / after_ns.max(1) as f64;
    println!(
        "hotpath: before {:.1} ms, after {:.1} ms — {speedup:.2}x",
        before_ns as f64 / 1e6,
        after_ns as f64 / 1e6,
    );

    let report_name = if quick {
        "hotpath.quick.report.json"
    } else {
        "hotpath.report.json"
    };
    let report_path = study.out_dir().join(report_name);
    paragraph_core::artifact::write_atomic_bytes(
        &report_path,
        format!("{report_json}\n").as_bytes(),
    )
    .expect("report artifact write");
    println!("report: {}", report_path.display());

    let line = format!(
        concat!(
            "{{\"bench\":\"hotpath-block-decode\",\"mode\":\"{}\",\"records\":{},",
            "\"trace_bytes\":{},\"jobs\":1,\"before_ns\":{},\"after_ns\":{},\"speedup\":{:.2}}}\n"
        ),
        if quick { "quick" } else { "full" },
        records,
        bytes,
        before_ns,
        after_ns,
        speedup,
    );
    paragraph_bench::append_bench_row(Path::new("BENCH.hotpath.json"), &line)
        .expect("bench log append");

    // ---- decoder data path leg -----------------------------------------
    // Same trace, two ways to feed the live well: buffered reads with
    // decode and analysis back to back versus an mmap with decode-ahead
    // overlapping analysis. Byte-identical reports are asserted every
    // rep before any timing is kept.
    let mut dec_before_ns = u64::MAX;
    let mut dec_after_ns = u64::MAX;
    for rep in 0..reps {
        let start = Instant::now();
        let before = run_after(&trace_path, &config);
        let before_elapsed = start.elapsed().as_nanos() as u64;

        let start = Instant::now();
        let after = run_decode_after(&trace_path, &config);
        let after_elapsed = start.elapsed().as_nanos() as u64;

        assert_eq!(
            before.to_json(),
            after.to_json(),
            "mmap/decode-ahead pipeline must produce a byte-identical report"
        );
        dec_before_ns = dec_before_ns.min(before_elapsed);
        dec_after_ns = dec_after_ns.min(after_elapsed);
        println!(
            "  rep {}: buffered {:>8.1} ms   mmap+ahead {:>8.1} ms",
            rep + 1,
            before_elapsed as f64 / 1e6,
            after_elapsed as f64 / 1e6,
        );
    }
    let dec_speedup = dec_before_ns as f64 / dec_after_ns.max(1) as f64;
    println!(
        "hotpath-decode: before {:.1} ms, after {:.1} ms — {dec_speedup:.2}x",
        dec_before_ns as f64 / 1e6,
        dec_after_ns as f64 / 1e6,
    );
    let line = format!(
        concat!(
            "{{\"bench\":\"hotpath-decode\",\"mode\":\"{}\",\"records\":{},",
            "\"trace_bytes\":{},\"jobs\":1,\"before_ns\":{},\"after_ns\":{},\"speedup\":{:.2}}}\n"
        ),
        if quick { "quick" } else { "full" },
        records,
        bytes,
        dec_before_ns,
        dec_after_ns,
        dec_speedup,
    );
    paragraph_bench::append_bench_row(Path::new("BENCH.hotpath.json"), &line)
        .expect("bench log append");
    if !quick {
        let _ = fs::remove_file(&trace_path);
    }

    // ---- parallel analyze leg ------------------------------------------
    // A second trace with a conservative-syscall cadence: syscalls are the
    // firewall cut points `analyze_parallel` shards at (the block-decode
    // trace above has none and stays byte-stable for the committed
    // golden). Decoded once up front — this leg measures analysis only.
    let par_path: PathBuf = study.out_dir().join(if quick {
        "hotpath.parallel.quick.trace"
    } else {
        "hotpath.parallel.trace"
    });
    let written =
        write_trace(&par_path, records, 0x51ed_270b, Some(10_000)).expect("parallel trace write");
    assert_eq!(written, records);
    let mut all: Vec<TraceRecord> = Vec::with_capacity(records as usize);
    {
        let file = File::open(&par_path).expect("parallel trace must open");
        let mut reader = TraceReader::new(BufReader::new(file)).expect("parallel trace must parse");
        let mut block = Vec::new();
        loop {
            block.clear();
            let n = reader
                .read_block(&mut block)
                .expect("parallel trace must decode");
            if n == 0 {
                break;
            }
            all.extend_from_slice(&block);
        }
    }

    let mut seq_ns = u64::MAX;
    let mut par_ns = [u64::MAX; 2];
    const PAR_JOBS: [usize; 2] = [4, 8];
    for rep in 0..reps {
        let start = Instant::now();
        let sequential = {
            let mut analyzer = LiveWell::new(config.clone());
            analyzer.process_slice(&all);
            analyzer.finish()
        };
        let seq_elapsed = start.elapsed().as_nanos() as u64;
        seq_ns = seq_ns.min(seq_elapsed);
        let seq_json = sequential.to_json();

        print!(
            "  rep {}: seq {:>8.1} ms",
            rep + 1,
            seq_elapsed as f64 / 1e6
        );
        for (slot, jobs) in PAR_JOBS.iter().enumerate() {
            let start = Instant::now();
            let parallel = analyze_parallel(&all, &config, *jobs);
            let elapsed = start.elapsed().as_nanos() as u64;
            par_ns[slot] = par_ns[slot].min(elapsed);
            assert_eq!(
                seq_json,
                parallel.to_json(),
                "--jobs {jobs} must produce a byte-identical report"
            );
            print!("   jobs{jobs} {:>8.1} ms", elapsed as f64 / 1e6);
        }
        println!();
    }

    let par4_ns = par_ns[0];
    let par_speedup = seq_ns as f64 / par4_ns.max(1) as f64;
    println!(
        "hotpath-parallel: seq {:.1} ms, jobs4 {:.1} ms, jobs8 {:.1} ms — {par_speedup:.2}x at 4 jobs",
        seq_ns as f64 / 1e6,
        par4_ns as f64 / 1e6,
        par_ns[1] as f64 / 1e6,
    );

    let line = format!(
        concat!(
            "{{\"bench\":\"hotpath-parallel-analyze\",\"mode\":\"{}\",\"records\":{},",
            "\"jobs\":4,\"before_ns\":{},\"after_ns\":{},\"speedup\":{:.2}}}\n"
        ),
        if quick { "quick" } else { "full" },
        records,
        seq_ns,
        par4_ns,
        par_speedup,
    );
    paragraph_bench::append_bench_row(Path::new("BENCH.hotpath.json"), &line)
        .expect("bench log append");
    if !quick {
        let _ = fs::remove_file(&par_path);
    }
}
