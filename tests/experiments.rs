//! The experiment engine reproduces the analyzer.
//!
//! Every multi-configuration table and study is a grid of `SweepCell`s run
//! by `run_sweep`: decode-once interned traces, supervised cells and
//! restartable stage markers. These tests hold the engine to the plain
//! streaming analyzer, `analyze_refs` over `collect_trace`'s records, kept
//! here as the oracle:
//!
//! - a mixed grid over every switch the studies use gives the oracle's
//!   report JSON, cell by cell, at one and two workers;
//! - a phase cell (`SweepCell::with_part`) gives the oracle's report over
//!   that slice of the trace, analyzed as a trace of its own;
//! - a quarantined cell leaves every sibling's result unchanged;
//! - a stage marker left by a run with other inputs (scale, fuel, seed) is
//!   never restored: the cell is recomputed;
//! - each workload's trace is generated once per sweep, retries included,
//!   and held only while one of its cells is pending.
//!
//! `run_sweep` reads its fault injector from `PARAGRAPH_FAULT_CELL`, so
//! every sweep here holds one lock, and the test that sets the variable
//! clears it before releasing the lock.

use paragraph::core::branch::{BranchPolicy, PredictorKind};
use paragraph::core::machine::Machine;
use paragraph::core::{
    analyze_refs, AnalysisConfig, MemoryModel, RenameSet, SyscallPolicy, WindowSize,
};
use paragraph::workloads::WorkloadId;
use paragraph_bench::{run_sweep, CellOutcome, CellResult, Study, SweepCell, SweepOptions};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

static SWEEPS: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SWEEPS.lock().unwrap_or_else(PoisonError::into_inner)
}

const WORKLOADS: [WorkloadId; 3] = [
    WorkloadId::Xlisp,
    WorkloadId::Eqntott,
    WorkloadId::Matrix300,
];

/// A fresh output directory for one test.
fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "paragraph-experiments-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn study(tag: &str) -> Study {
    Study::new(200_000, 5, out_dir(tag))
}

fn options(jobs: usize) -> SweepOptions {
    SweepOptions {
        jobs,
        reuse_stages: false,
        retries: 0,
        retry_backoff_ms: 0,
        ..SweepOptions::default()
    }
}

fn ok(cell: &CellResult) -> &CellOutcome {
    cell.outcome()
        .unwrap_or_else(|| panic!("{}@{}: {:?}", cell.workload, cell.label, cell.error))
}

/// The oracle: the streaming analyzer over the records the VM emits.
fn oracle(study: &Study, cell: &SweepCell) -> String {
    let (records, segments) = study
        .workload(cell.workload)
        .collect_trace(study.fuel())
        .unwrap();
    analyze_refs(&records, &cell.config.clone().with_segments(segments)).to_json()
}

/// Every switch the tables and studies sweep.
fn mixed_configs() -> Vec<(String, AnalysisConfig)> {
    let base = AnalysisConfig::dataflow_limit;
    let mut configs = vec![
        ("dataflow".to_owned(), base()),
        (
            "renames-none".to_owned(),
            base().with_renames(RenameSet::none()),
        ),
        (
            "renames-regs".to_owned(),
            base().with_renames(RenameSet::registers_only()),
        ),
        (
            "optimistic".to_owned(),
            base().with_syscall_policy(SyscallPolicy::Optimistic),
        ),
        (
            "no-dis".to_owned(),
            base().with_memory_model(MemoryModel::NoDisambiguation),
        ),
        (
            "stall".to_owned(),
            base().with_branch_policy(BranchPolicy::StallAlways),
        ),
        (
            "gshare-12".to_owned(),
            base().with_branch_policy(BranchPolicy::Predict(PredictorKind::Gshare {
                index_bits: 12,
            })),
        ),
        (
            "w64".to_owned(),
            base().with_window(WindowSize::bounded(64)),
        ),
    ];
    for machine in Machine::generations() {
        configs.push((format!("machine-{}", machine.name()), machine.configure()));
    }
    configs
}

fn grid(configs: &[(String, AnalysisConfig)]) -> Vec<SweepCell> {
    WORKLOADS
        .into_iter()
        .flat_map(|id| {
            configs
                .iter()
                .map(move |(label, config)| SweepCell::new(id, label.clone(), config.clone()))
        })
        .collect()
}

#[test]
fn a_mixed_grid_reports_what_the_streaming_analyzer_reports() {
    let _lock = serialize();
    let study = study("mixed");
    let cells = grid(&mixed_configs());
    let one = run_sweep(&study, "mixed", &cells, &options(1));
    let two = run_sweep(&study, "mixed", &cells, &options(2));
    assert_eq!(one.quarantined() + two.quarantined(), 0);
    for ((cell, a), b) in cells.iter().zip(&one.cells).zip(&two.cells) {
        let expected = oracle(&study, cell);
        assert_eq!(
            ok(a).report_json,
            expected,
            "{}@{}",
            cell.workload,
            cell.label
        );
        assert_eq!(
            ok(b).report_json,
            expected,
            "{}@{} at two workers",
            cell.workload,
            cell.label
        );
    }
    assert!(
        one.cells
            .iter()
            .any(|c| ok(c).report_json.contains("\"branch_mispredictions\"")),
        "the gshare cells report their predictor"
    );
    let _ = std::fs::remove_dir_all(study.out_dir());
}

#[test]
fn phase_cells_report_what_their_slice_of_the_trace_reports() {
    let _lock = serialize();
    // The last study's fuel cuts every trace to 5 records, fewer than the
    // parts, so some parts are empty.
    for (study, parts) in [
        (study("phases"), 6),
        (study("phases7"), 7),
        (Study::new(5, 5, out_dir("phases-short")), 6),
    ] {
        let config = AnalysisConfig::dataflow_limit();
        let cells: Vec<SweepCell> = WORKLOADS
            .into_iter()
            .flat_map(|id| {
                let config = config.clone();
                (0..parts).map(move |p| {
                    SweepCell::new(id, format!("phase{p}"), config.clone()).with_part(p, parts)
                })
            })
            .collect();
        let outcome = run_sweep(&study, "phases", &cells, &options(2));
        let mut empty = 0;
        for (id, row) in WORKLOADS.into_iter().zip(outcome.cells.chunks(parts)) {
            let (records, segments) = study.workload(id).collect_trace(study.fuel()).unwrap();
            let config = config.clone().with_segments(segments);
            let chunk = (records.len() / parts).max(1);
            let slices: Vec<&[_]> = records.chunks(chunk).take(parts).collect();
            for (p, cell) in row.iter().enumerate() {
                let cell = ok(cell);
                match slices.get(p) {
                    Some(slice) => {
                        assert_eq!(
                            cell.report_json,
                            analyze_refs(*slice, &config).to_json(),
                            "{id} part {p} of {parts}"
                        )
                    }
                    None => {
                        assert_eq!(cell.metrics.records, 0, "{id} part {p} past the trace");
                        empty += 1;
                    }
                }
            }
        }
        assert_eq!(empty > 0, study.fuel() < parts as u64);
        let _ = std::fs::remove_dir_all(study.out_dir());
    }
}

#[test]
fn a_quarantined_cell_leaves_every_sibling_unchanged() {
    let _lock = serialize();
    let study = study("quarantine");
    let cells = grid(&mixed_configs()[..4]);
    let clean = run_sweep(&study, "quarantine", &cells, &options(2));
    std::env::set_var("PARAGRAPH_FAULT_CELL", "eqntott@optimistic:4294967295:vm");
    let faulted = run_sweep(&study, "quarantine", &cells, &options(2));
    std::env::remove_var("PARAGRAPH_FAULT_CELL");
    assert_eq!(faulted.quarantined(), 1);
    for (a, b) in clean.cells.iter().zip(&faulted.cells) {
        if b.workload == WorkloadId::Eqntott && b.label == "optimistic" {
            assert!(b.is_quarantined() && b.outcome().is_none());
        } else {
            assert_eq!(
                ok(a).report_json,
                ok(b).report_json,
                "{}@{}",
                b.workload,
                b.label
            );
            assert_eq!(ok(a).profile, ok(b).profile);
        }
    }
    let _ = std::fs::remove_dir_all(study.out_dir());
}

/// A degraded sweep keeps its healthy cells' stage markers for a rerun.
/// A rerun with other inputs must not restore them: the markers hold
/// another trace's results.
#[test]
fn stage_markers_left_under_other_inputs_are_recomputed() {
    let _lock = serialize();
    let dir = out_dir("stale");
    let cells = grid(&mixed_configs()[..2]);
    let stages = SweepOptions {
        reuse_stages: true,
        ..options(2)
    };
    let small = Study::new(200_000, 2, dir.clone());
    std::env::set_var("PARAGRAPH_FAULT_CELL", "xlisp@dataflow:4294967295:vm");
    let degraded = run_sweep(&small, "stale", &cells, &stages);
    std::env::remove_var("PARAGRAPH_FAULT_CELL");
    assert_eq!(degraded.quarantined(), 1);

    // A size none of the workloads has at this scale.
    let size = WORKLOADS
        .map(|id| small.workload(id).size())
        .into_iter()
        .max()
        .unwrap()
        + 1;
    for (what, other) in [
        ("scale", Study::new(200_000, 5, dir.clone())),
        ("fuel", Study::new(150_000, 2, dir.clone())),
        ("seed", small.clone().with_seed_override(Some(7))),
        ("size", small.clone().with_size_override(Some(size))),
    ] {
        let fresh = run_sweep(&other, "stale-fresh", &cells, &options(2));
        let rerun = run_sweep(&other, "stale", &cells, &stages);
        for ((cell, a), b) in cells.iter().zip(&fresh.cells).zip(&rerun.cells) {
            assert!(
                !ok(b).from_stage,
                "{what}: {}@{} restored a stale marker",
                cell.workload,
                cell.label
            );
            assert_eq!(
                ok(a).report_json,
                ok(b).report_json,
                "{what}: {}@{}",
                cell.workload,
                cell.label
            );
        }
        // The rerun was healthy, so it cleared the markers: leave them
        // again for the next input.
        std::env::set_var("PARAGRAPH_FAULT_CELL", "xlisp@dataflow:4294967295:vm");
        run_sweep(&small, "stale", &cells, &stages);
        std::env::remove_var("PARAGRAPH_FAULT_CELL");
    }

    // Under the same inputs the markers restore: only the quarantined cell
    // is recomputed.
    let rerun = run_sweep(&small, "stale", &cells, &stages);
    for (cell, result) in cells.iter().zip(&rerun.cells) {
        let recomputed = cell.workload == WorkloadId::Xlisp && cell.label == "dataflow";
        assert_eq!(
            ok(result).from_stage,
            !recomputed,
            "{}@{}",
            cell.workload,
            cell.label
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The arena holds a trace exactly while a cell of its workload is
/// pending. One worker finishes xlisp before it opens eqntott, so the peak
/// is the larger trace, not the two together. With two workers, a
/// workload whose cells sit in two separate blocks and a cell that fails
/// once and is retried still generate each trace once.
#[test]
fn each_trace_is_generated_once_and_held_only_while_a_cell_needs_it() {
    let _lock = serialize();
    let study = study("residency");
    let configs = mixed_configs();
    let cells: Vec<SweepCell> = grid(&configs[..3])
        .into_iter()
        .filter(|cell| cell.workload != WorkloadId::Matrix300)
        .collect();
    let one = run_sweep(&study, "residency", &cells, &options(1));
    assert_eq!(one.quarantined(), 0);
    assert_eq!(one.arena.misses, 2);
    let bytes = [WorkloadId::Xlisp, WorkloadId::Eqntott]
        .map(|id| study.collect_interned(id).unwrap().resident_bytes() as u64);
    assert_eq!(
        one.arena.peak_resident_bytes,
        bytes[0].max(bytes[1]),
        "one trace at a time, not {} + {}",
        bytes[0],
        bytes[1]
    );

    // [xlisp…, eqntott…, xlisp…]: xlisp stays resident across the gap.
    let split: Vec<SweepCell> = [
        (WorkloadId::Xlisp, &configs[..4]),
        (WorkloadId::Eqntott, &configs[..4]),
        (WorkloadId::Xlisp, &configs[4..8]),
    ]
    .into_iter()
    .flat_map(|(id, configs)| {
        configs
            .iter()
            .map(move |(label, config)| SweepCell::new(id, label.clone(), config.clone()))
    })
    .collect();
    let retry = SweepOptions {
        retries: 1,
        ..options(2)
    };
    let clean = run_sweep(&study, "residency-split", &split, &retry);
    let faulted_label = &configs[7].0;
    std::env::set_var(
        "PARAGRAPH_FAULT_CELL",
        format!("xlisp@{faulted_label}:1:vm"),
    );
    let retried = run_sweep(&study, "residency-split", &split, &retry);
    std::env::remove_var("PARAGRAPH_FAULT_CELL");
    for outcome in [&clean, &retried] {
        assert_eq!(outcome.quarantined(), 0);
        assert_eq!(outcome.arena.misses, 2, "one generation per workload");
    }
    for (a, b) in clean.cells.iter().zip(&retried.cells) {
        assert_eq!(
            ok(a).report_json,
            ok(b).report_json,
            "{}@{}",
            b.workload,
            b.label
        );
        assert_eq!(ok(a).profile, ok(b).profile);
        let was_faulted = b.workload == WorkloadId::Xlisp && &b.label == faulted_label;
        assert_eq!(b.attempts, if was_faulted { 2 } else { 1 });
    }
    let _ = std::fs::remove_dir_all(study.out_dir());
}
