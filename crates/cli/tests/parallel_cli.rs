//! End-to-end byte-identity checks for `analyze --jobs N`.
//!
//! The contract of intra-trace parallel analysis is absolute: for every
//! job count, over clean, damaged (`--recover`), and checkpoint-resumed
//! traces, the report written by the CLI is *byte-identical* to the
//! `--jobs 1` report. These tests drive the built `paragraph` binary —
//! the engine-level differentials live in `paragraph-core`'s `parallel`
//! module and the root `run_driver` harness; this file covers the
//! orchestration the CLI adds on top (flag plumbing, heartbeats,
//! checkpoint interplay, fallbacks). A trace file always streams through
//! one analyzer; a workload's collected trace is cut across `--jobs`.

use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::{Command, Output};

use paragraph_trace::binary::TraceWriter;
use paragraph_trace::{synthetic, SegmentMap};

fn paragraph(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paragraph"))
        .args(args)
        .output()
        .expect("failed to spawn the paragraph binary")
}

fn scratch(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("paragraph-parallel-{}-{name}", std::process::id()));
    path
}

/// Writes `n` records of the deterministic random trace (~2% conservative
/// syscalls — plenty of cut points) to a fresh scratch file.
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

/// Runs `analyze` with the given extra flags and returns the JSON report
/// bytes.
fn analyze_json(trace: &PathBuf, tag: &str, extra: &[&str]) -> Vec<u8> {
    let json = scratch(tag);
    let trace_str = trace.to_str().expect("utf-8 path");
    let json_str = json.to_str().expect("utf-8 path");
    let mut args = vec!["analyze", "--trace", trace_str, "--json", json_str];
    args.extend_from_slice(extra);
    let out = paragraph(&args);
    assert_ok(&out, tag);
    let bytes = std::fs::read(&json).expect("read report json");
    let _ = std::fs::remove_file(&json);
    bytes
}

#[test]
fn clean_trace_reports_are_byte_identical_across_jobs() {
    let trace = write_random_trace("clean.pgtr", 20_000, 11);
    let oracle = analyze_json(&trace, "clean-seq.json", &["--jobs", "1"]);
    for jobs in ["2", "4", "8"] {
        let parallel = analyze_json(&trace, "clean-par.json", &["--jobs", jobs]);
        assert_eq!(
            oracle, parallel,
            "--jobs {jobs} diverged from the sequential report"
        );
    }
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn constrained_configs_stay_byte_identical_across_jobs() {
    let trace = write_random_trace("constrained.pgtr", 20_000, 23);
    // A bounded window plus finite issue width plus no renaming — the
    // harshest configuration the cut rule still reproduces exactly.
    let flags = [
        "--rename",
        "none",
        "--window",
        "64",
        "--units",
        "4",
        "--no-disambiguation",
    ];
    let mut seq: Vec<&str> = vec!["--jobs", "1"];
    seq.extend_from_slice(&flags);
    let oracle = analyze_json(&trace, "con-seq.json", &seq);
    let mut par: Vec<&str> = vec!["--jobs", "4"];
    par.extend_from_slice(&flags);
    let parallel = analyze_json(&trace, "con-par.json", &par);
    assert_eq!(oracle, parallel);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn damaged_trace_recovery_is_byte_identical_across_jobs() {
    let trace = write_random_trace("damaged.pgtr", 20_000, 17);
    // Stomp a stretch in the middle of the file: the CRC check discards
    // the damaged chunk(s) and `--recover` resynchronizes past them. Both
    // runs then analyze the same surviving record stream.
    let mut bytes = std::fs::read(&trace).expect("read trace");
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 256] {
        *b ^= 0x5a;
    }
    std::fs::write(&trace, bytes).expect("rewrite damaged trace");

    let oracle = analyze_json(&trace, "dmg-seq.json", &["--recover", "--jobs", "1"]);
    for jobs in ["2", "8"] {
        let parallel = analyze_json(&trace, "dmg-par.json", &["--recover", "--jobs", jobs]);
        assert_eq!(
            oracle, parallel,
            "--jobs {jobs} diverged on the recovered trace"
        );
    }
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn resumed_checkpoint_reports_are_byte_identical_across_jobs() {
    let trace = write_random_trace("resumed.pgtr", 20_000, 29);
    let ckpt = scratch("resumed.pgcp");
    let trace_str = trace.to_str().expect("utf-8 path");
    let ckpt_str = ckpt.to_str().expect("utf-8 path");
    // Analyze a prefix under `--take` with checkpointing: the trace
    // identity is taken before `--take` truncates, so the checkpoint is
    // valid for resuming over the full trace.
    let out = paragraph(&[
        "analyze",
        "--trace",
        trace_str,
        "--take",
        "8000",
        "--checkpoint-every",
        "8000",
        "--checkpoint",
        ckpt_str,
    ]);
    assert_ok(&out, "prefix run");
    assert!(ckpt.exists(), "prefix run must leave a checkpoint");

    let oracle = analyze_json(
        &trace,
        "res-seq.json",
        &["--resume", ckpt_str, "--jobs", "1"],
    );
    // The resumed analyzer becomes chunk 0; cuts are planned after it.
    for jobs in ["2", "4"] {
        let parallel = analyze_json(
            &trace,
            "res-par.json",
            &["--resume", ckpt_str, "--jobs", jobs],
        );
        assert_eq!(
            oracle, parallel,
            "--jobs {jobs} diverged on the resumed trace"
        );
    }
    // A full sequential run with no checkpoint in play agrees too: the
    // resume machinery changed where analysis started, not its answer.
    let fresh = analyze_json(&trace, "res-fresh.json", &["--jobs", "4"]);
    assert_eq!(oracle, fresh);
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn ineligible_config_falls_back_to_one_thread_with_a_note() {
    let trace = write_random_trace("ineligible.pgtr", 10_000, 31);
    let trace_str = trace.to_str().expect("utf-8 path");
    // --value-stats retires values across cut points, and a trace file
    // streams through one analyzer anyway. The answer matches --jobs 1,
    // and with --progress a note says why one thread ran.
    let oracle = analyze_json(&trace, "inel-seq.json", &["--value-stats", "--jobs", "1"]);
    let parallel = analyze_json(&trace, "inel-par.json", &["--value-stats", "--jobs", "8"]);
    assert_eq!(oracle, parallel);

    let json = scratch("inel-note.json");
    let out = paragraph(&[
        "analyze",
        "--trace",
        trace_str,
        "--json",
        json.to_str().expect("utf-8 path"),
        "--value-stats",
        "--jobs",
        "8",
        "--progress=0",
    ]);
    assert_ok(&out, "fallback note run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("analyzing on one thread"),
        "expected a fallback note, got: {stderr}"
    );
    let _ = std::fs::remove_file(&json);
    let _ = std::fs::remove_file(&trace);
}

/// A checkpointing run uses one analyzer whatever `--jobs` says, so its
/// checkpoints are sequential states: resumed under `--jobs 2`, they
/// finish to the uninterrupted `--jobs 1` report, for a streamed trace
/// and for a workload's collected trace alike.
#[test]
fn checkpoints_written_under_jobs_2_resume_to_the_jobs_1_report() {
    let trace = write_random_trace("ckpt.pgtr", 10_000, 37);
    let trace_str = trace.to_str().expect("utf-8 path");
    let ckpt = scratch("ckpt.pgcp");
    let ckpt_str = ckpt.to_str().expect("utf-8 path");
    let json = scratch("ckpt.json");
    let json_str = json.to_str().expect("utf-8 path");
    let inputs: [&[&str]; 2] = [
        &["--trace", trace_str],
        &["--workload", "eqntott", "--size", "8"],
    ];
    for input in inputs {
        let run = |extra: &[&str]| {
            let mut args = vec!["analyze"];
            args.extend_from_slice(input);
            args.extend_from_slice(extra);
            let out = paragraph(&args);
            assert_ok(&out, &format!("{args:?}"));
            out
        };
        let _ = std::fs::remove_file(&ckpt);
        let prefix = run(&[
            "--take",
            "2500",
            "--checkpoint-every",
            "1000",
            "--checkpoint",
            ckpt_str,
            "--jobs",
            "2",
        ]);
        assert!(
            !String::from_utf8_lossy(&prefix.stderr).contains("disabled"),
            "{input:?}: checkpoints must not be refused"
        );
        assert!(
            ckpt.exists(),
            "{input:?}: no checkpoint written under --jobs 2"
        );
        run(&["--json", json_str, "--jobs", "1"]);
        let oracle = std::fs::read(&json).expect("read --jobs 1 report");
        run(&["--resume", ckpt_str, "--json", json_str, "--jobs", "2"]);
        let resumed = std::fs::read(&json).expect("read resumed report");
        assert_eq!(oracle, resumed, "{input:?}: resumed report diverged");
    }
    for path in [&trace, &ckpt, &json] {
        let _ = std::fs::remove_file(path);
    }
}

/// Runs `analyze --trace F` with `extra` flags and `env` overrides.
fn analyze_env(trace: &std::path::Path, extra: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paragraph"))
        .args(["analyze", "--trace", trace.to_str().expect("utf-8 path")])
        .args(extra)
        .envs(env.iter().copied())
        .output()
        .expect("failed to spawn the paragraph binary")
}

/// A plain `--jobs N` run over a trace file streams it like `--jobs 1`,
/// so damaged, legacy and governed inputs must be indistinguishable from
/// `--jobs 1`: same exit code, same stdout, same stderr.
#[test]
fn damaged_and_governed_trace_runs_match_jobs_1_exactly() {
    let clean = write_random_trace("fallback.pgtr", 20_000, 43);
    let bytes = std::fs::read(&clean).expect("read trace");
    let mut flipped = bytes.clone();
    let at = flipped.len() * 3 / 4;
    flipped[at] ^= 0x08;
    let flipped_path = scratch("fallback-flipped.pgtr");
    std::fs::write(&flipped_path, &flipped).expect("write flipped");
    let truncated_path = scratch("fallback-truncated.pgtr");
    std::fs::write(&truncated_path, &bytes[..bytes.len() * 2 / 3]).expect("write truncated");
    let v1_path = scratch("fallback-v1.pgtr");
    {
        let file = File::create(&v1_path).expect("create v1 trace");
        let mut writer =
            TraceWriter::v1(BufWriter::new(file), SegmentMap::all_data()).expect("v1 header");
        for record in synthetic::random_trace(20_000, 43) {
            writer.write_record(&record).expect("v1 record");
        }
        writer.finish().expect("v1 finish");
    }
    // (what, trace, environment, expected exit code)
    type Case<'a> = (&'a str, &'a PathBuf, &'a [(&'a str, &'a str)], i32);
    let cases: [Case; 6] = [
        ("bit flip", &flipped_path, &[], 4),
        // A malformed override warns exactly once.
        (
            "bit flip, malformed limit",
            &flipped_path,
            &[("PARAGRAPH_MAX_RECORDS", "1e6")],
            4,
        ),
        ("truncation", &truncated_path, &[], 4),
        ("v1 stream", &v1_path, &[], 0),
        (
            "deadline",
            &clean,
            &[("PARAGRAPH_DEADLINE_MS", "600000")],
            0,
        ),
        (
            "max records",
            &clean,
            &[("PARAGRAPH_MAX_RECORDS", "19999")],
            7,
        ),
    ];
    for (what, trace, env, code) in cases {
        let oracle = analyze_env(trace, &["--jobs", "1"], env);
        assert_eq!(oracle.status.code(), Some(code), "{what} at --jobs 1");
        for jobs in ["2", "8"] {
            let parallel = analyze_env(trace, &["--jobs", jobs], env);
            assert_eq!(
                parallel.status.code(),
                oracle.status.code(),
                "{what} --jobs {jobs}"
            );
            assert_eq!(
                parallel.stdout, oracle.stdout,
                "{what} --jobs {jobs} stdout"
            );
            assert_eq!(
                parallel.stderr, oracle.stderr,
                "{what} --jobs {jobs} stderr"
            );
        }
    }
    for path in [&clean, &flipped_path, &truncated_path, &v1_path] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn stall_branches_with_memory_sources_fall_back_to_the_same_report() {
    let path = scratch("stall-mem.pgtr");
    {
        let file = File::create(&path).expect("create trace");
        let mut writer =
            TraceWriter::new(BufWriter::new(file), SegmentMap::all_data()).expect("header");
        for (i, record) in synthetic::random_trace(20_000, 47).into_iter().enumerate() {
            let record = if i == 15_000 {
                paragraph_trace::TraceRecord::branch(record.pc(), &[paragraph_trace::Loc::mem(9)])
            } else {
                record
            };
            writer.write_record(&record).expect("record");
        }
        writer.finish().expect("finish");
    }
    let oracle = analyze_json(
        &path,
        "stall-seq.json",
        &["--branch", "stall", "--jobs", "1"],
    );
    let flags = ["--branch", "stall", "--jobs", "2"];
    assert_eq!(oracle, analyze_json(&path, "stall-par.json", &flags));
    let _ = std::fs::remove_file(&path);
}

/// Returns the `--timeline-out` recording of `analyze --jobs 2` over
/// `input`.
fn jobs_2_timeline(input: &[&str]) -> String {
    let timeline = scratch("lanes.json");
    let mut args = vec!["analyze"];
    args.extend_from_slice(input);
    args.extend_from_slice(&[
        "--jobs",
        "2",
        "--timeline-out",
        timeline.to_str().expect("utf-8 path"),
    ]);
    let out = paragraph(&args);
    assert_ok(&out, "--jobs 2 run with a timeline");
    let text = std::fs::read_to_string(&timeline).expect("read timeline");
    let _ = std::fs::remove_file(&timeline);
    text
}

#[test]
fn timelines_show_which_jobs_path_ran() {
    let trace = write_random_trace("lanes.pgtr", 20_000, 53);
    // A trace file streams: one decode-ahead lane feeding one analyzer,
    // no segment workers, whatever the flags.
    for extra in [&[][..], &["--progress=0", "--take", "15000"][..]] {
        let mut input = vec!["--trace", trace.to_str().expect("utf-8 path")];
        input.extend_from_slice(extra);
        let streamed = jobs_2_timeline(&input);
        for needle in ["\"decode-ahead\"", "\"decode.block\"", "\"livewell\""] {
            assert!(
                streamed.contains(needle),
                "{extra:?}: timeline lacks {needle}"
            );
        }
        assert!(
            !streamed.contains("\"analyze-1\""),
            "{extra:?}: unexpected worker lane"
        );
    }
    // A workload's collected trace is cut: one lane per segment worker.
    let cut = jobs_2_timeline(&["--workload", "matrix300", "--size", "4"]);
    for needle in ["\"analyze-1\"", "\"segment\"", "\"merge\""] {
        assert!(cut.contains(needle), "timeline lacks {needle}");
    }
    let _ = std::fs::remove_file(&trace);
}
