//! End-to-end determinism checks for the parallel grid sweep.
//!
//! The key property (ISSUE satellite): `paragraph sweep --jobs 8` must be
//! indistinguishable from `--jobs 1`. For a 3-workload × 3-configuration
//! grid, the stdout table, every per-cell report JSON, and every profile
//! CSV must be byte-identical — scheduling and work-stealing may change
//! *when* a cell runs, never *what* it produces.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn paragraph(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paragraph"))
        .args(args)
        .output()
        .expect("failed to spawn the paragraph binary")
}

fn scratch(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("paragraph-sweep-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&path);
    path
}

fn run_grid(jobs: &str, out: &Path) -> Output {
    paragraph(&[
        "sweep",
        "--workloads",
        "xlisp,eqntott,matrix300",
        "--windows",
        "64,1024",
        "--fuel",
        "30000",
        "--jobs",
        jobs,
        "--out",
        out.to_str().expect("utf-8 temp path"),
    ])
}

#[test]
fn grid_sweep_is_byte_identical_across_job_counts() {
    let dir_seq = scratch("jobs1");
    let dir_par = scratch("jobs8");

    let seq = run_grid("1", &dir_seq);
    assert!(
        seq.status.success(),
        "--jobs 1 sweep failed: {}",
        String::from_utf8_lossy(&seq.stderr)
    );
    let par = run_grid("8", &dir_par);
    assert!(
        par.status.success(),
        "--jobs 8 sweep failed: {}",
        String::from_utf8_lossy(&par.stderr)
    );

    assert_eq!(
        seq.stdout, par.stdout,
        "job count changed the sweep table on stdout"
    );

    // Every artifact — 9 report JSONs + 9 profile CSVs (+ the manifest,
    // compared below after masking its timing fields) — must match.
    let mut names: Vec<String> = fs::read_dir(&dir_seq)
        .expect("read --jobs 1 output dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    names.sort();
    let mut par_names: Vec<String> = fs::read_dir(&dir_par)
        .expect("read --jobs 8 output dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    par_names.sort();
    assert_eq!(
        names, par_names,
        "the two runs produced different artifacts"
    );
    assert_eq!(
        names.iter().filter(|n| n.ends_with(".report.json")).count(),
        9,
        "expected 3 workloads x 3 configurations of report JSON"
    );
    assert_eq!(
        names.iter().filter(|n| n.ends_with(".profile.csv")).count(),
        9
    );

    for name in &names {
        let a = fs::read(dir_seq.join(name)).expect("read sequential artifact");
        let b = fs::read(dir_par.join(name)).expect("read parallel artifact");
        if name == "sweep.json" {
            // The manifest records wall-clock timings, the job count and
            // the arena's peak residency, which depends on how many traces
            // the workers hold at once. One worker holds one trace at a
            // time, so its peak is never above eight workers' peak. Mask
            // the volatile fields, then demand identity.
            let (peak_seq, peak_par) = (peak_resident(&a), peak_resident(&b));
            assert!(
                0 < peak_seq && peak_seq <= peak_par,
                "peak resident bytes {peak_seq} at --jobs 1, {peak_par} at --jobs 8"
            );
            assert_eq!(mask_timings(&a), mask_timings(&b), "{name} differs");
        } else {
            assert_eq!(a, b, "{name} differs between --jobs 1 and --jobs 8");
        }
    }

    let _ = fs::remove_dir_all(&dir_seq);
    let _ = fs::remove_dir_all(&dir_par);
}

/// The manifest's `"peak_resident_bytes":...` value.
fn peak_resident(bytes: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(bytes);
    let key = "\"peak_resident_bytes\":";
    let at = text.find(key).expect("the manifest reports the arena peak") + key.len();
    text[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|digits| digits.parse().ok())
        .expect("a byte count")
}

/// Zeroes `"wall_ns":...`, `"jobs":...` and `"peak_resident_bytes":...`
/// values so manifests from runs with different job counts can be
/// compared structurally.
fn mask_timings(bytes: &[u8]) -> String {
    let text = String::from_utf8_lossy(bytes);
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_ref();
    while let Some(pos) = ["\"wall_ns\":", "\"jobs\":", "\"peak_resident_bytes\":"]
        .iter()
        .filter_map(|k| rest.find(k).map(|i| i + k.len()))
        .min()
    {
        out.push_str(&rest[..pos]);
        out.push('0');
        rest = rest[pos..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn grid_sweep_rejects_trace_and_window_flags() {
    let with_trace = paragraph(&["sweep", "--workloads", "xlisp", "--trace", "whatever.pgtr"]);
    assert_eq!(with_trace.status.code(), Some(2), "usage error expected");

    let with_window = paragraph(&["sweep", "--workloads", "xlisp", "--window", "64"]);
    assert_eq!(with_window.status.code(), Some(2), "usage error expected");
}
