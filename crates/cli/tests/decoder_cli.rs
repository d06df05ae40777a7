//! End-to-end byte-identity checks for the trace input backends.
//!
//! `--mmap` / `--no-mmap` select *how* trace bytes reach the decoder,
//! never *what* is decoded: for every combination of {buffered, mapped}
//! × {--jobs 1, 4}, over clean and damaged (`--recover`) traces,
//! analyze/sweep/ingest output must be byte-identical. These tests drive the built `paragraph`
//! binary; the engine-level differentials live in `paragraph-trace`'s
//! `source` module and the root `decoder_backends` suite.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use paragraph_isa::OpClass;
use paragraph_trace::binary::TraceWriter;
use paragraph_trace::faultinject::{frame_spans, reseal_chunks};
use paragraph_trace::{synthetic, SegmentMap, TraceRecord};

fn paragraph(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paragraph"))
        .args(args)
        .output()
        .expect("failed to spawn the paragraph binary")
}

fn scratch(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("paragraph-decoder-{}-{name}", std::process::id()));
    path
}

/// Writes `n` records of the deterministic random trace (which includes
/// conservative syscalls, so `--jobs` has cut points) to a scratch file.
fn write_random_trace(name: &str, n: usize, seed: u64) -> PathBuf {
    let path = scratch(name);
    let file = File::create(&path).expect("create scratch trace");
    let mut writer =
        TraceWriter::new(BufWriter::new(file), SegmentMap::all_data()).expect("trace header");
    for record in synthetic::random_trace(n, seed) {
        writer.write_record(&record).expect("trace record");
    }
    writer.finish().expect("trace finish");
    path
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Runs `analyze` on `trace` with extra flags, returning stdout bytes.
fn analyze_stdout(trace: &Path, extra: &[&str]) -> Vec<u8> {
    let trace_str = trace.to_str().expect("utf-8 path");
    let mut args = vec!["analyze", "--trace", trace_str];
    args.extend_from_slice(extra);
    let out = paragraph(&args);
    assert_ok(&out, &format!("analyze {extra:?}"));
    out.stdout
}

#[test]
fn analyze_report_is_byte_identical_across_the_backend_matrix() {
    let trace = write_random_trace("matrix", 30_000, 42);
    let reference = analyze_stdout(&trace, &["--no-mmap", "--jobs", "1"]);
    assert!(!reference.is_empty());
    for backend in [&["--mmap"][..], &["--no-mmap"][..], &[][..]] {
        for jobs in [&["--jobs", "1"][..], &["--jobs", "4"][..], &[][..]] {
            let mut extra: Vec<&str> = Vec::new();
            extra.extend_from_slice(backend);
            extra.extend_from_slice(jobs);
            let stdout = analyze_stdout(&trace, &extra);
            assert_eq!(reference, stdout, "analyze stdout diverged under {extra:?}");
        }
    }
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn recover_mode_matches_across_backends() {
    let trace = write_random_trace("recover", 20_000, 43);
    // Flip one byte mid-file: recovery skips the damaged chunk the same
    // way no matter how the bytes were read.
    let mut bytes = std::fs::read(&trace).expect("read trace");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&trace, &bytes).expect("write damaged trace");

    let trace_str = trace.to_str().expect("utf-8 path");
    let mut outputs = Vec::new();
    for backend in [&["--mmap"][..], &["--no-mmap"][..]] {
        let mut args = vec!["analyze", "--trace", trace_str, "--recover"];
        args.extend_from_slice(backend);
        let out = paragraph(&args);
        assert_ok(&out, &format!("analyze --recover {backend:?}"));
        outputs.push((out.stdout, out.stderr));
    }
    assert_eq!(outputs[0], outputs[1], "recovery output diverged");
    // The damage warning itself must appear, with identical accounting.
    let stderr = String::from_utf8_lossy(&outputs[0].1);
    assert!(
        stderr.contains("trace damage"),
        "expected a damage warning, got: {stderr}"
    );
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn corrupt_trace_fails_identically_across_backends() {
    let trace = write_random_trace("corrupt", 20_000, 44);
    let mut bytes = std::fs::read(&trace).expect("read trace");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&trace, &bytes).expect("write damaged trace");

    let trace_str = trace.to_str().expect("utf-8 path");
    let mut outputs = Vec::new();
    for backend in [&["--mmap"][..], &["--no-mmap"][..]] {
        let mut args = vec!["analyze", "--trace", trace_str];
        args.extend_from_slice(backend);
        let out = paragraph(&args);
        assert_eq!(
            out.status.code(),
            Some(4),
            "corrupt trace must exit 4 under {backend:?}"
        );
        outputs.push(out.stderr);
    }
    assert_eq!(
        outputs[0], outputs[1],
        "corruption error diverged (mmap vs buffered)"
    );
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn sweep_is_byte_identical_across_backends() {
    let trace = write_random_trace("sweep", 12_000, 45);
    let trace_str = trace.to_str().expect("utf-8 path");
    let mut outputs = Vec::new();
    for backend in [&["--mmap"][..], &["--no-mmap"][..]] {
        let mut args = vec!["sweep", "--trace", trace_str, "--windows", "10,1000"];
        args.extend_from_slice(backend);
        let out = paragraph(&args);
        assert_ok(&out, &format!("sweep {backend:?}"));
        outputs.push(out.stdout);
    }
    assert_eq!(outputs[0], outputs[1], "sweep output diverged");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn ingested_traces_analyze_identically_on_both_backends() {
    // Render a text trace, ingest it to binary, then analyze the result
    // through both backends: the whole conversion pipeline must be
    // backend-agnostic end to end.
    let records = synthetic::random_trace(2_000, 46);
    let text = paragraph_trace::ingest::render_trace(&records, SegmentMap::all_data());
    let text_path = scratch("ingest.txt");
    std::fs::write(&text_path, text).expect("write text trace");
    let bin_path = scratch("ingest.pgtr");

    let out = paragraph(&[
        "ingest",
        "--text",
        text_path.to_str().expect("utf-8 path"),
        "--out",
        bin_path.to_str().expect("utf-8 path"),
    ]);
    assert_ok(&out, "ingest");

    let mapped = analyze_stdout(&bin_path, &["--mmap"]);
    let buffered = analyze_stdout(&bin_path, &["--no-mmap"]);
    assert_eq!(mapped, buffered, "ingested trace analysis diverged");
    let _ = std::fs::remove_file(&text_path);
    let _ = std::fs::remove_file(&bin_path);
}

#[test]
fn run_accepts_the_backend_flags_inertly() {
    // `run` consumes assembly, not a binary trace; the backend flags must
    // parse and change nothing.
    let asm_path = scratch("run.s");
    std::fs::write(&asm_path, ".text\nmain: li r8, 3\nhalt\n").expect("write asm");
    let asm_str = asm_path.to_str().expect("utf-8 path");
    let plain = paragraph(&["run", "--asm", asm_str]);
    assert_ok(&plain, "run");
    let flagged = paragraph(&["run", "--asm", asm_str, "--mmap"]);
    assert_ok(&flagged, "run with backend flags");
    assert_eq!(plain.stdout, flagged.stdout, "run output diverged");
    let _ = std::fs::remove_file(&asm_path);
}

#[test]
fn crc_valid_inconsistent_record_exits_4_identically_on_every_path() {
    // Record 4999 closes the fifth 1000-record chunk. It is written as a
    // nop at its predecessor's pc (payload bytes [nop, 0, 0]) and turned
    // into a store with no operands ([7, 0, 0]) under a resealed CRC, so
    // only the record contract can reject it.
    let mut records = synthetic::random_trace(10_000, 47);
    records[4999] = TraceRecord::new(records[4998].pc(), OpClass::Nop, &[], None);
    let mut bytes = Vec::new();
    let mut writer =
        TraceWriter::with_chunk_records(&mut bytes, SegmentMap::all_data(), 1000).expect("header");
    for record in &records {
        writer.write_record(record).expect("record");
    }
    writer.finish().expect("finish");
    let (start, len) = frame_spans(&bytes)[5];
    let payload = &mut bytes[start + len - 3..start + len];
    assert_eq!(payload, [OpClass::Nop.id(), 0, 0]);
    payload[0] = OpClass::Store.id();
    reseal_chunks(&mut bytes);
    let trace = scratch("inconsistent.pgtr");
    std::fs::write(&trace, &bytes).expect("write inconsistent trace");

    let trace_str = trace.to_str().expect("utf-8 path");
    let mut outputs = Vec::new();
    for extra in [
        &["--jobs", "1"][..],
        &["--jobs", "2"][..],
        &["--no-mmap"][..],
    ] {
        let mut args = vec!["analyze", "--trace", trace_str];
        args.extend_from_slice(extra);
        let out = paragraph(&args);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(4), "{extra:?}: {stderr}");
        assert!(
            stderr.contains("store must name its memory destination"),
            "{extra:?}: {stderr}"
        );
        outputs.push(stderr);
    }
    for (i, stderr) in outputs.iter().enumerate().skip(1) {
        assert_eq!(&outputs[0], stderr, "path {i} reported a different error");
    }
    let _ = std::fs::remove_file(&trace);
}
