//! End-to-end byte-identity checks for the trace input backends.
//!
//! A trace file is mapped where it can be and read through a buffer where
//! it cannot; that choice changes *how* trace bytes reach the decoder,
//! never *what* is decoded. A pipe cannot be mapped, so
//! `--trace /dev/stdin` fed by a pipe takes the buffered fallback: over
//! clean and damaged (`--recover`) traces, under `--jobs 1` and `4`,
//! analyze/sweep/ingest output must be byte-identical to the mapped
//! file's. These tests drive the built `paragraph` binary; the
//! engine-level differentials live in `paragraph-trace`'s `source` module
//! and the root `decoder_backends` suite.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

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

/// Runs `paragraph` with a pipe as stdin, fed `input` by a thread. A pipe
/// cannot be mapped, so `--trace /dev/stdin` reads through the buffered
/// fallback.
fn paragraph_piped(args: &[&str], input: Vec<u8>) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_paragraph"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn the paragraph binary");
    let mut stdin = child.stdin.take().expect("piped stdin");
    // A command that fails early stops reading; the write error is moot.
    let feeder = std::thread::spawn(move || {
        let _ = stdin.write_all(&input);
    });
    let out = child.wait_with_output().expect("paragraph must finish");
    feeder.join().expect("stdin feeder must not panic");
    out
}

/// `args` with every `--trace PATH` pointed at `/dev/stdin`, and the
/// bytes of that trace to pipe in.
fn through_pipe<'a>(args: &[&'a str]) -> (Vec<&'a str>, Vec<u8>) {
    let at = args
        .iter()
        .position(|&a| a == "--trace")
        .expect("a --trace argument");
    let bytes = std::fs::read(args[at + 1]).expect("read trace");
    let mut piped = args.to_vec();
    piped[at + 1] = "/dev/stdin";
    (piped, bytes)
}

/// Runs `args` over the trace file (mapped) and again over the same bytes
/// through a pipe (buffered), returning both outputs.
fn mapped_and_piped(args: &[&str]) -> (Output, Output) {
    let (piped, bytes) = through_pipe(args);
    (paragraph(args), paragraph_piped(&piped, bytes))
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
fn analyze_report_is_byte_identical_across_jobs_and_the_pipe() {
    let trace = write_random_trace("matrix", 30_000, 42);
    let reference = analyze_stdout(&trace, &["--jobs", "1"]);
    assert!(!reference.is_empty());
    for jobs in [&["--jobs", "4"][..], &[][..]] {
        let stdout = analyze_stdout(&trace, jobs);
        assert_eq!(reference, stdout, "analyze stdout diverged under {jobs:?}");
    }
    let trace_str = trace.to_str().expect("utf-8 path");
    let (_, piped) = mapped_and_piped(&["analyze", "--trace", trace_str]);
    assert_ok(&piped, "analyze from a pipe");
    assert_eq!(reference, piped.stdout, "analyze from a pipe diverged");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn recover_mode_matches_through_a_pipe() {
    let trace = write_random_trace("recover", 20_000, 43);
    // Flip one byte mid-file: recovery skips the damaged chunk the same
    // way no matter how the bytes were read.
    let mut bytes = std::fs::read(&trace).expect("read trace");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&trace, &bytes).expect("write damaged trace");

    let trace_str = trace.to_str().expect("utf-8 path");
    let (mapped, piped) = mapped_and_piped(&["analyze", "--trace", trace_str, "--recover"]);
    assert_ok(&mapped, "analyze --recover");
    assert_ok(&piped, "analyze --recover from a pipe");
    assert_eq!(mapped.stdout, piped.stdout, "recovery report diverged");
    // The damage warning itself must appear, with identical accounting.
    let recovery_line = |out: &Output| {
        String::from_utf8_lossy(&out.stderr)
            .lines()
            .find(|line| line.contains("trace damage"))
            .map(|line| {
                line.replace(trace_str, "TRACE")
                    .replace("/dev/stdin", "TRACE")
            })
    };
    let line = recovery_line(&mapped).expect("a damage warning");
    assert_eq!(Some(line), recovery_line(&piped), "recovery line diverged");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn corrupt_trace_fails_identically_through_a_pipe() {
    let trace = write_random_trace("corrupt", 20_000, 44);
    let mut bytes = std::fs::read(&trace).expect("read trace");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&trace, &bytes).expect("write damaged trace");

    let trace_str = trace.to_str().expect("utf-8 path");
    let (mapped, piped) = mapped_and_piped(&["analyze", "--trace", trace_str]);
    assert_eq!(mapped.status.code(), Some(4), "corrupt trace must exit 4");
    assert_eq!(piped.status.code(), Some(4), "corrupt pipe must exit 4");
    assert_eq!(
        String::from_utf8_lossy(&mapped.stderr).replace(trace_str, "TRACE"),
        String::from_utf8_lossy(&piped.stderr).replace("/dev/stdin", "TRACE"),
        "corruption error diverged (mapped vs buffered)"
    );
    let _ = std::fs::remove_file(&trace);
}

/// A checkpointed run reads its trace twice, once to count it for the
/// checkpoint's identity and once to analyze it, and a pipe gives its bytes
/// only once. So `--checkpoint-every` and `--resume` over a piped trace are
/// usage errors that name the flag (exit 2), not a bogus "not a Paragraph
/// trace" (exit 4), and no checkpoint is written. The same bytes from a
/// file still checkpoint and resume.
#[test]
fn checkpoints_refuse_a_piped_trace() {
    let trace = write_random_trace("checkpoint-pipe", 2_000, 47);
    let trace_str = trace.to_str().expect("utf-8 path");
    let ck = scratch("pipe.pgcp");
    let ck_str = ck.to_str().expect("utf-8 path");
    let analyze = ["analyze", "--trace", trace_str];
    for flags in [
        &["--checkpoint-every", "300", "--checkpoint", ck_str][..],
        &["--resume", ck_str][..],
    ] {
        let (piped, bytes) = through_pipe(&[&analyze[..], flags].concat());
        let out = paragraph_piped(&piped, bytes);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(flags[0]), "{flags:?}: {stderr}");
        assert!(!ck.exists(), "{flags:?} wrote a checkpoint");
    }

    let saved = paragraph(
        &[
            &analyze[..],
            &["--checkpoint-every", "300", "--checkpoint", ck_str],
        ]
        .concat(),
    );
    assert_ok(&saved, "analyze --checkpoint-every from a file");
    let resumed = paragraph(&[&analyze[..], &["--resume", ck_str]].concat());
    assert_ok(&resumed, "analyze --resume from a file");
    assert_eq!(saved.stdout, resumed.stdout, "resumed report diverged");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&ck);
}

/// `--trace /dev/stdin` redirected from a trace file passes the flag
/// table (the file behind it is regular), but no checkpoint path derives
/// from `/dev/stdin`: without `--checkpoint` the run is a usage error
/// (exit 2) that asks for one, and with it the run checkpoints.
#[test]
fn a_checkpoint_path_never_derives_from_dev_stdin() {
    let trace = write_random_trace("checkpoint-stdin", 2_000, 53);
    let ck = scratch("stdin.pgcp");
    let ck_str = ck.to_str().expect("utf-8 path");
    let from_file = |extra: &[&str]| {
        let args = "analyze --trace /dev/stdin --checkpoint-every 300".split(' ');
        Command::new(env!("CARGO_BIN_EXE_paragraph"))
            .args(args.chain(extra.iter().copied()))
            .stdin(File::open(&trace).expect("open trace"))
            .output()
            .expect("failed to spawn the paragraph binary")
    };
    let refused = from_file(&[]);
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert_eq!(refused.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--checkpoint FILE"), "{stderr}");
    let named = from_file(&["--checkpoint", ck_str]);
    assert_ok(&named, "analyze --trace /dev/stdin --checkpoint FILE");
    assert!(ck.exists(), "no checkpoint at the named path");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&ck);
}

#[test]
fn sweep_is_byte_identical_through_a_pipe() {
    let trace = write_random_trace("sweep", 12_000, 45);
    let trace_str = trace.to_str().expect("utf-8 path");
    let (mapped, piped) =
        mapped_and_piped(&["sweep", "--trace", trace_str, "--windows", "10,1000"]);
    assert_ok(&mapped, "sweep");
    assert_ok(&piped, "sweep from a pipe");
    assert!(!mapped.stdout.is_empty());
    assert_eq!(mapped.stdout, piped.stdout, "sweep output diverged");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn ingested_traces_analyze_identically_through_a_pipe() {
    // Render a text trace, ingest it to binary, then analyze the result
    // mapped and through a pipe: the whole conversion pipeline must be
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

    let bin_str = bin_path.to_str().expect("utf-8 path");
    let (mapped, piped) = mapped_and_piped(&["analyze", "--trace", bin_str]);
    assert_ok(&mapped, "analyze");
    assert_ok(&piped, "analyze from a pipe");
    assert_eq!(
        mapped.stdout, piped.stdout,
        "ingested trace analysis diverged"
    );
    let _ = std::fs::remove_file(&text_path);
    let _ = std::fs::remove_file(&bin_path);
}

#[test]
fn analyze_and_run_reject_the_backend_flags() {
    // The input backend is chosen from what can be observed (a regular
    // file maps, anything else is buffered); there is no flag to force it.
    let trace = write_random_trace("flags", 100, 48);
    let asm_path = scratch("run.s");
    std::fs::write(&asm_path, ".text\nmain: li r8, 3\nhalt\n").expect("write asm");
    let trace_str = trace.to_str().expect("utf-8 path");
    let asm_str = asm_path.to_str().expect("utf-8 path");
    for flag in ["--mmap", "--no-mmap"] {
        for args in [["analyze", "--trace", trace_str], ["run", "--asm", asm_str]] {
            let out = paragraph(&[&args[..], &[flag]].concat());
            assert_eq!(out.status.code(), Some(2), "{args:?} {flag}");
            assert!(out.stdout.is_empty(), "{args:?} {flag}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(flag), "{args:?} {flag}: {stderr}");
        }
    }
    let _ = std::fs::remove_file(&trace);
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
    let args = ["analyze", "--trace", trace_str];
    let (piped, piped_bytes) = through_pipe(&args);
    let runs = [
        (
            "--jobs 1",
            paragraph(&[&args[..], &["--jobs", "1"]].concat()),
        ),
        (
            "--jobs 2",
            paragraph(&[&args[..], &["--jobs", "2"]].concat()),
        ),
        ("pipe", paragraph_piped(&piped, piped_bytes)),
    ];
    let mut outputs = Vec::new();
    for (what, out) in runs {
        let stderr = String::from_utf8_lossy(&out.stderr)
            .replace(trace_str, "TRACE")
            .replace("/dev/stdin", "TRACE");
        assert_eq!(out.status.code(), Some(4), "{what}: {stderr}");
        assert!(
            stderr.contains("store must name its memory destination"),
            "{what}: {stderr}"
        );
        outputs.push(stderr);
    }
    for (i, stderr) in outputs.iter().enumerate().skip(1) {
        assert_eq!(&outputs[0], stderr, "path {i} reported a different error");
    }
    let _ = std::fs::remove_file(&trace);
}
