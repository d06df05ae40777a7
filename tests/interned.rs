//! The interned analyzer is the streaming analyzer.
//!
//! `InternedWell` runs the live-well kernel over an `InternedTrace` (dense
//! slots into one flat table); `LiveWell` runs it over packed records into
//! a register file and a paged memory table. Every observable output must
//! be byte-identical: the report's JSON and text, and the checkpoint bytes
//! both mid-trace and at the end, under every configuration switch that
//! touches the slot space (renaming over a three-segment map, windows,
//! value statistics, branch prediction, disambiguation, issue limits,
//! syscall policies and a live-well cap small enough to evict on nearly
//! every record). A capped pass runs the streaming analyzer over records
//! rebuilt from the interned trace, so under a cap this checks the
//! rebuild. The critical path also matches the explicit graph.

use paragraph::core::branch::{BranchPolicy, PredictorKind};
use paragraph::core::{
    AnalysisConfig, Ddg, InternedWell, LiveWell, MemoryModel, RenameSet, SyscallPolicy, WindowSize,
};
use paragraph::trace::{InternedTrace, Loc, SegmentMap, TraceRecord};
use proptest::prelude::*;

mod common;
use common::arb_trace;

/// Data below 4, heap from 4, stack from 8: the generator's words 0..12
/// land in all three segments.
fn segments() -> SegmentMap {
    SegmentMap::new(4, 8)
}

fn save(checkpoint: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut bytes = Vec::new();
    checkpoint(&mut bytes);
    bytes
}

/// Runs both analyzers over `trace` under `config`, checkpointing both
/// after `split` records and at the end, and asserts every output equal.
fn assert_identical(trace: &[TraceRecord], config: &AnalysisConfig, split: usize) {
    let interned = InternedTrace::from_records(trace, segments());
    let split = split.min(trace.len());

    let mut streaming = LiveWell::new(config.clone());
    let mut flat = InternedWell::new(&interned, config.clone());
    streaming.process_slice(&trace[..split]);
    assert_eq!(flat.process_next(split), split);
    let mid_streaming = save(|w| streaming.save_checkpoint(w).unwrap());
    let mid_flat = save(|w| flat.save_checkpoint(w).unwrap());
    assert_eq!(mid_streaming, mid_flat, "checkpoints after {split} records");

    streaming.process_slice(&trace[split..]);
    assert_eq!(flat.process_next(usize::MAX), trace.len() - split);
    assert_eq!(flat.process_next(1), 0, "the trace is exhausted");
    let end_streaming = save(|w| streaming.save_checkpoint(w).unwrap());
    let end_flat = save(|w| flat.save_checkpoint(w).unwrap());
    assert_eq!(end_streaming, end_flat, "checkpoints at the end");
    assert_eq!(streaming.live_well_size(), flat.live_well_size());
    assert_eq!(streaming.window_stalls(), flat.window_stalls());

    let a = streaming.finish();
    let b = flat.finish();
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_string(), b.to_string());
    if config.live_well_cap().is_none() {
        // The explicit graph keeps every value; a capped live well forgets.
        let ddg = Ddg::from_records(trace, config);
        assert_eq!(b.critical_path_length(), ddg.height());
    }
}

fn arb_config() -> impl Strategy<Value = AnalysisConfig> {
    let switches = (
        prop_oneof![
            Just(RenameSet::none()),
            Just(RenameSet::registers_only()),
            Just(RenameSet::registers_and_stack()),
            Just(RenameSet::all()),
        ],
        prop_oneof![
            Just(WindowSize::bounded(1)),
            Just(WindowSize::bounded(7)),
            Just(WindowSize::Infinite),
        ],
        prop_oneof![
            Just(BranchPolicy::Perfect),
            Just(BranchPolicy::StallAlways),
            Just(BranchPolicy::Predict(PredictorKind::Gshare {
                index_bits: 4
            })),
        ],
        any::<bool>(),
        any::<bool>(),
    );
    let more = (any::<bool>(), any::<bool>(), any::<bool>());
    (switches, more).prop_map(
        |(
            (renames, window, branches, value_stats, no_disambiguation),
            (issue, optimistic, cap),
        )| {
            let mut config = AnalysisConfig::dataflow_limit()
                .with_segments(segments())
                .with_renames(renames)
                .with_window(window)
                .with_branch_policy(branches)
                .with_value_stats(value_stats);
            if no_disambiguation {
                config = config.with_memory_model(MemoryModel::NoDisambiguation);
            }
            if issue {
                config = config.with_issue_limit(2);
            }
            if optimistic {
                config = config.with_syscall_policy(SyscallPolicy::Optimistic);
            }
            if cap {
                config = config.with_live_well_cap(4);
            }
            config
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interned_analysis_is_byte_identical_to_streaming(
        trace in arb_trace(),
        config in arb_config(),
        split in 0usize..80,
    ) {
        assert_identical(&trace, &config, split);
    }

    /// A pass started at record `start` is a fresh analyzer over the
    /// records from there on: what the earlier records wrote is
    /// preexisting to it (the sweep's phase cells).
    #[test]
    fn a_pass_started_mid_trace_analyzes_the_rest_as_a_trace_of_its_own(
        trace in arb_trace(),
        config in arb_config(),
        start in 0usize..80,
    ) {
        let start = start.min(trace.len());
        let interned = InternedTrace::from_records(&trace, segments());
        let mut flat = InternedWell::starting_at(&interned, config.clone(), start);
        let mut streaming = LiveWell::new(config);
        streaming.process_slice(&trace[start..]);
        prop_assert_eq!(flat.process_next(usize::MAX), trace.len() - start);
        prop_assert_eq!(
            save(|w| streaming.save_checkpoint(w).unwrap()),
            save(|w| flat.save_checkpoint(w).unwrap())
        );
        prop_assert_eq!(streaming.finish().to_json(), flat.finish().to_json());
    }
}

/// Words first read by a mispredicted branch after the last placement are
/// held by the live well but not part of its peak, which is taken at
/// placements: the interned analyzer derives the peak from its table and
/// must leave them out, capped or not.
#[test]
fn words_read_by_trailing_mispredicted_branches_do_not_raise_the_peak() {
    let trace = vec![
        TraceRecord::load(0, 3, None, Loc::int(1)),
        TraceRecord::branch_outcome(1, &[Loc::int(1), Loc::mem(5)], true, 0),
        TraceRecord::branch_outcome(2, &[Loc::mem(5), Loc::mem(6)], false, 0),
        TraceRecord::branch_outcome(3, &[Loc::mem(7)], true, 0),
    ];
    for config in [
        AnalysisConfig::dataflow_limit().with_branch_policy(BranchPolicy::StallAlways),
        AnalysisConfig::dataflow_limit()
            .with_branch_policy(BranchPolicy::StallAlways)
            .with_live_well_cap(64),
    ] {
        for split in 0..=trace.len() {
            assert_identical(&trace, &config, split);
        }
        let interned = InternedTrace::from_records(&trace, segments());
        let mut flat = InternedWell::new(&interned, config.clone());
        flat.process_next(trace.len());
        assert_eq!(flat.live_well_size(), 1 + 4);
        assert_eq!(flat.peak_live_values(), 64 + 1);
    }
}

/// A trace with nothing placed has an empty peak, even when branches
/// entered words into the live well.
#[test]
fn a_trace_with_no_placement_has_no_peak() {
    let trace = vec![TraceRecord::branch_outcome(0, &[Loc::mem(9)], true, 0)];
    let config = AnalysisConfig::dataflow_limit().with_branch_policy(BranchPolicy::StallAlways);
    assert_identical(&trace, &config, 0);
    let interned = InternedTrace::from_records(&trace, segments());
    let mut flat = InternedWell::new(&interned, config);
    flat.process_next(1);
    assert_eq!(flat.peak_live_values(), 0);
}

/// Workload traces, as the sweep runs them: every Figure 8 style
/// configuration of a real trace, plus the switches a sweep can add.
#[test]
fn workload_traces_analyze_identically() {
    use paragraph::workloads::{Workload, WorkloadId};
    for id in [WorkloadId::Xlisp, WorkloadId::Espresso, WorkloadId::Tomcatv] {
        let (records, segments) = Workload::new(id)
            .with_size(4)
            .collect_trace(30_000)
            .unwrap();
        let interned = Workload::new(id)
            .with_size(4)
            .collect_interned(30_000)
            .unwrap();
        let base = AnalysisConfig::dataflow_limit().with_segments(segments);
        for config in [
            base.clone(),
            base.clone().with_window(WindowSize::bounded(64)),
            base.clone()
                .with_renames(RenameSet::none())
                .with_value_stats(true)
                .with_branch_policy(BranchPolicy::Predict(PredictorKind::Gshare {
                    index_bits: 10,
                })),
            base.clone().with_live_well_cap(256),
        ] {
            let mut streaming = LiveWell::new(config.clone());
            streaming.process_slice(&records);
            let mut flat = InternedWell::new(&interned, config.clone());
            flat.process_next(interned.len());
            let mut a = Vec::new();
            let mut b = Vec::new();
            streaming.save_checkpoint(&mut a).unwrap();
            flat.save_checkpoint(&mut b).unwrap();
            assert_eq!(a, b, "{id}");
            assert_eq!(
                streaming.finish().to_json(),
                flat.finish().to_json(),
                "{id}"
            );
        }
    }
}
