//! End-to-end telemetry checks against the built `paragraph` binary.
//!
//! The key property (ISSUE satellite): instrumenting a run must not change
//! the analysis. A run with telemetry disabled and a run with the full
//! instrumentation enabled (`--progress`, `--telemetry-out`,
//! `--metrics-out`) must produce byte-identical reports on stdout, and the
//! artifacts the instrumented run leaves behind must parse through the
//! `paragraph stats` validators.

use std::path::PathBuf;
use std::process::{Command, Output};

fn paragraph(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paragraph"))
        .args(args)
        .output()
        .expect("failed to spawn the paragraph binary")
}

fn scratch(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("paragraph-telemetry-{}-{name}", std::process::id()));
    path
}

#[test]
fn instrumented_report_is_byte_identical_and_artifacts_parse() {
    let jsonl = scratch("run.jsonl");
    let prom = scratch("metrics.prom");

    let plain = paragraph(&["analyze", "--workload", "matrix300", "--size", "4"]);
    assert!(
        plain.status.success(),
        "plain analyze failed: {}",
        String::from_utf8_lossy(&plain.stderr)
    );

    let instrumented = paragraph(&[
        "analyze",
        "--workload",
        "matrix300",
        "--size",
        "4",
        "--progress=0",
        "--telemetry-out",
        jsonl.to_str().expect("utf-8 temp path"),
        "--metrics-out",
        prom.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        instrumented.status.success(),
        "instrumented analyze failed: {}",
        String::from_utf8_lossy(&instrumented.stderr)
    );

    // Telemetry must be invisible on stdout: the report bytes are identical
    // whether or not the run was instrumented.
    assert_eq!(
        plain.stdout, instrumented.stdout,
        "instrumentation changed the report on stdout"
    );
    // The heartbeat and artifact notices land on stderr only, and each
    // heartbeat carries throughput and the critical-path cursor.
    let stderr = String::from_utf8_lossy(&instrumented.stderr);
    assert!(stderr.contains("progress:"), "missing heartbeat: {stderr}");
    assert!(
        stderr.contains("rec/s"),
        "heartbeat lacks throughput: {stderr}"
    );
    assert!(
        stderr.contains("cp="),
        "heartbeat lacks critical path: {stderr}"
    );

    // Both artifacts must survive their own validators.
    let stats = paragraph(&[
        "stats",
        "--telemetry",
        jsonl.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        stats.status.success(),
        "stats --telemetry rejected the event log: {}",
        String::from_utf8_lossy(&stats.stderr)
    );
    let table = String::from_utf8_lossy(&stats.stdout);
    assert!(
        table.contains("analyze"),
        "stage table lacks analyze: {table}"
    );

    let metrics = paragraph(&[
        "stats",
        "--metrics",
        prom.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        metrics.status.success(),
        "stats --metrics rejected the snapshot: {}",
        String::from_utf8_lossy(&metrics.stderr)
    );
    let verdict = String::from_utf8_lossy(&metrics.stdout);
    assert!(
        verdict.contains("valid Prometheus exposition"),
        "unexpected verdict: {verdict}"
    );

    let _ = std::fs::remove_file(&jsonl);
    let _ = std::fs::remove_file(&prom);
}

/// Checks the artifacts of one instrumented command: the log parses
/// strictly and ends with the final dump, its stage table lists `stage`
/// with `calls` calls, and the metrics snapshot (when written) validates.
fn assert_complete_artifacts(
    jsonl: &PathBuf,
    prom: Option<&PathBuf>,
    stage: &str,
    calls: u64,
) -> String {
    let log = std::fs::read_to_string(jsonl).expect("read the event log");
    assert!(
        log.lines()
            .last()
            .is_some_and(|l| l.contains("\"event\":\"span_total\"")),
        "the log must end with the final dump: {log}"
    );
    let stats = paragraph(&[
        "stats",
        "--strict",
        "--telemetry",
        jsonl.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        stats.status.success(),
        "stats --strict rejected the log: {}",
        String::from_utf8_lossy(&stats.stderr)
    );
    let table = String::from_utf8_lossy(&stats.stdout).into_owned();
    let row = table
        .lines()
        .find(|l| l.split_whitespace().next() == Some(stage))
        .unwrap_or_else(|| panic!("stage table lacks {stage}: {table}"));
    assert_eq!(
        row.split_whitespace().nth(1),
        Some(calls.to_string().as_str()),
        "{stage} calls: {row}"
    );
    if let Some(prom) = prom {
        let metrics = paragraph(&[
            "stats",
            "--metrics",
            prom.to_str().expect("utf-8 temp path"),
        ]);
        assert!(
            metrics.status.success(),
            "stats --metrics rejected the snapshot: {}",
            String::from_utf8_lossy(&metrics.stderr)
        );
    }
    table
}

#[test]
fn every_instrumented_command_writes_complete_artifacts() {
    let jsonl = scratch("sweep.jsonl");
    let prom = scratch("sweep.prom");
    let grid = paragraph(&[
        "sweep",
        "--workloads",
        "xlisp,eqntott",
        "--windows",
        "64",
        "--fuel",
        "30000",
        "--jobs",
        "2",
        "--telemetry-out",
        jsonl.to_str().expect("utf-8 temp path"),
        "--metrics-out",
        prom.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        grid.status.success(),
        "grid sweep failed: {}",
        String::from_utf8_lossy(&grid.stderr)
    );
    assert_complete_artifacts(&jsonl, Some(&prom), "sweep.cell", 4);

    let ladder = paragraph(&[
        "sweep",
        "--workload",
        "matrix300",
        "--size",
        "4",
        "--windows",
        "1,10",
        "--telemetry-out",
        jsonl.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        ladder.status.success(),
        "window ladder failed: {}",
        String::from_utf8_lossy(&ladder.stderr)
    );
    // The full-window pass plus one per window.
    assert_complete_artifacts(&jsonl, None, "sweep.window", 3);

    let asm = scratch("run.s");
    std::fs::write(&asm, ".text\nmain: li r8, 3\nhalt\n").expect("write asm");
    let run = paragraph(&[
        "run",
        "--asm",
        asm.to_str().expect("utf-8 temp path"),
        "--telemetry-out",
        jsonl.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        run.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let table = assert_complete_artifacts(&jsonl, None, "vm.run", 1);
    assert!(
        table.contains("assemble"),
        "stage table lacks assemble: {table}"
    );

    for path in [&jsonl, &prom, &asm] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn malformed_artifacts_are_rejected() {
    let bad = scratch("bad.jsonl");
    std::fs::write(&bad, "{\"ts_ns\":1,\"event\":\"run_start\"\nnot json\n")
        .expect("write scratch file");

    // `--strict` fails fast on the first bad line (the CI contract).
    let stats = paragraph(&[
        "stats",
        "--strict",
        "--telemetry",
        bad.to_str().expect("utf-8 temp path"),
    ]);
    assert!(!stats.status.success(), "truncated JSONL accepted");

    // The default is lossy: the readable lines are summarized, each bad
    // line is warned about, and the skip count is reported.
    let lossy = paragraph(&[
        "stats",
        "--telemetry",
        bad.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        lossy.status.success(),
        "lossy stats failed: {}",
        String::from_utf8_lossy(&lossy.stderr)
    );
    let stderr = String::from_utf8_lossy(&lossy.stderr);
    assert!(
        stderr.contains("skipped_lines: 2"),
        "missing skip count: {stderr}"
    );

    std::fs::write(&bad, "paragraph_bad{le=\"nope\" 1\n").expect("write scratch file");
    let metrics = paragraph(&["stats", "--metrics", bad.to_str().expect("utf-8 temp path")]);
    assert!(!metrics.status.success(), "malformed exposition accepted");

    let _ = std::fs::remove_file(&bad);
}

#[test]
fn report_json_flags_bounded_live_well() {
    let json_path = scratch("report.json");
    let out = paragraph(&[
        "analyze",
        "--workload",
        "matrix300",
        "--size",
        "4",
        "--json",
        json_path.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        out.status.success(),
        "analyze --json failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&json_path).expect("read report json");
    assert!(json.contains("\"live_well_evictions\":0"));
    assert!(json.contains("\"live_well_cap\":null"));
    assert!(json.contains("\"parallelism_is_upper_bound\":false"));
    let _ = std::fs::remove_file(&json_path);
}

#[test]
fn commands_that_arm_no_sinks_refuse_instrumentation_flags() {
    let log = scratch("refused.jsonl");
    let log_str = log.to_str().expect("utf-8 temp path");
    let workload = ["--workload", "matrix300", "--size", "4"];
    for flag in ["--telemetry-out", "--metrics-out", "--timeline-out"] {
        let _ = std::fs::remove_file(&log);
        let out = paragraph(&[&["compare"][..], &workload, &[flag, log_str]].concat());
        assert_eq!(out.status.code(), Some(2), "compare {flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "compare {flag}: {stderr}");
        assert!(!log.exists(), "compare {flag} created {log_str}");
    }
    // `--progress` is a heartbeat of `analyze` alone.
    for command in ["compare", "sweep"] {
        let out = paragraph(&[&[command][..], &workload, &["--progress"]].concat());
        assert_eq!(out.status.code(), Some(2), "{command} --progress");
    }
    let out = paragraph(&[&["analyze"][..], &workload, &["--telemetry-out", log_str]].concat());
    assert!(
        out.status.success(),
        "analyze --telemetry-out failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stats = paragraph(&["stats", "--strict", "--telemetry", log_str]);
    assert!(
        stats.status.success(),
        "the analyze log must parse: {}",
        String::from_utf8_lossy(&stats.stderr)
    );
    let _ = std::fs::remove_file(&log);
}
