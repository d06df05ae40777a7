//! End-to-end flight-recorder checks against the built `paragraph` binary.
//!
//! The ISSUE's acceptance bar, verified from the outside: `--timeline-out`
//! emits valid Chrome trace-event JSON without perturbing stdout by a
//! single byte; the timeline a sweep emits is deterministic across worker
//! counts once timestamps and lane identity are normalized away; and the
//! `profile` subcommand summarizes, diffs, and gates bench history.

use paragraph_core::telemetry::tracefmt;
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
    path.push(format!("paragraph-timeline-{}-{name}", std::process::id()));
    path
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn analyze_timeline_is_valid_and_stdout_is_unchanged() {
    let timeline = scratch("analyze.json");

    let plain = paragraph(&["analyze", "--workload", "matrix300", "--size", "4"]);
    assert!(
        plain.status.success(),
        "plain analyze failed: {}",
        String::from_utf8_lossy(&plain.stderr)
    );

    let recorded = paragraph(&[
        "analyze",
        "--workload",
        "matrix300",
        "--size",
        "4",
        "--timeline-out",
        timeline.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        recorded.status.success(),
        "recorded analyze failed: {}",
        String::from_utf8_lossy(&recorded.stderr)
    );
    // The recorder must be invisible on stdout: report bytes identical.
    assert_eq!(
        plain.stdout, recorded.stdout,
        "--timeline-out changed the report on stdout"
    );
    let stderr = String::from_utf8_lossy(&recorded.stderr);
    assert!(
        stderr.contains("timeline written to"),
        "missing timeline notice: {stderr}"
    );

    // The artifact is well-formed Chrome trace-event JSON with the analyze
    // stages attributed: generation (or decode), the live-well loop, and
    // report finishing each get a slice.
    let text = read(&timeline);
    tracefmt::validate(&text).expect("timeline must validate");
    let events = tracefmt::parse_chrome_trace(&text).expect("timeline must parse");
    let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
    for stage in ["generate", "livewell", "report"] {
        assert!(names.contains(&stage), "missing {stage} slice: {names:?}");
    }

    let _ = std::fs::remove_file(&timeline);
}

#[test]
fn sweep_timeline_normalizes_identically_across_job_counts() {
    let one = scratch("sweep-j1.json");
    let eight = scratch("sweep-j8.json");
    for (jobs, path) in [("1", &one), ("8", &eight)] {
        let out = paragraph(&[
            "sweep",
            "--workloads",
            "xlisp,eqntott",
            "--windows",
            "16,64",
            "--fuel",
            "20000",
            "--jobs",
            jobs,
            "--timeline-out",
            path.to_str().expect("utf-8 temp path"),
        ]);
        assert!(
            out.status.success(),
            "sweep --jobs {jobs} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let a = tracefmt::normalized_events(&read(&one)).expect("jobs=1 timeline normalizes");
    let b = tracefmt::normalized_events(&read(&eight)).expect("jobs=8 timeline normalizes");
    assert_eq!(
        a, b,
        "sweep timelines must be identical after normalization"
    );
    // Sanity: the normalized stream still carries the per-cell slices (2
    // workloads x (2 windows + full) = 6) and both grid boundary markers.
    let cells = a.iter().filter(|l| l.contains("|sweep.cell|")).count();
    assert_eq!(cells, 6, "expected 6 cell slices: {a:?}");
    assert!(a.iter().any(|l| l.starts_with("i|sweep.start|")));
    assert!(a.iter().any(|l| l.starts_with("i|sweep.done|")));

    // A worker-count-dependent artifact (lane names, timestamps, counter
    // interleavings) sneaking back in would show up here first: profile
    // must also read both files.
    for path in [&one, &eight] {
        let profile = paragraph(&["profile", path.to_str().expect("utf-8 temp path")]);
        assert!(
            profile.status.success(),
            "profile failed: {}",
            String::from_utf8_lossy(&profile.stderr)
        );
        let table = String::from_utf8_lossy(&profile.stdout);
        assert!(table.contains("sweep.cell"), "missing stage row: {table}");
        assert!(table.contains("arena.hits"), "missing counters: {table}");
    }

    let _ = std::fs::remove_file(&one);
    let _ = std::fs::remove_file(&eight);
}

#[test]
fn profile_diffs_two_timelines() {
    let first = scratch("diff-a.json");
    let second = scratch("diff-b.json");
    for path in [&first, &second] {
        let out = paragraph(&[
            "analyze",
            "--workload",
            "matrix300",
            "--size",
            "4",
            "--timeline-out",
            path.to_str().expect("utf-8 temp path"),
        ]);
        assert!(out.status.success());
    }
    let diff = paragraph(&[
        "profile",
        first.to_str().expect("utf-8 temp path"),
        "--diff",
        second.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        diff.status.success(),
        "profile --diff failed: {}",
        String::from_utf8_lossy(&diff.stderr)
    );
    let out = String::from_utf8_lossy(&diff.stdout);
    assert!(out.contains("wall"), "diff lacks wall delta: {out}");
    assert!(out.contains("livewell"), "diff lacks stage rows: {out}");

    let _ = std::fs::remove_file(&first);
    let _ = std::fs::remove_file(&second);
}

#[test]
fn profile_rejects_malformed_timelines() {
    let bad = scratch("bad.json");
    std::fs::write(&bad, "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"x\"}]}")
        .expect("write scratch file");
    let out = paragraph(&["profile", bad.to_str().expect("utf-8 temp path")]);
    assert_eq!(out.status.code(), Some(4), "malformed timeline must exit 4");
    let _ = std::fs::remove_file(&bad);
}
