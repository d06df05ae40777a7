//! Differential testing against an independent oracle.
//!
//! `LiveWell` and `DdgBuilder` share design decisions, so agreeing with
//! each other does not rule out a shared misunderstanding of the paper.
//! This oracle is a third implementation written from the paper's prose in
//! the most naive possible way — per-record O(n) backward scans over the
//! raw trace, no live well, no incremental state beyond the firewall floor
//! — and the production analyzer must reproduce its placements exactly.

use paragraph::core::{analyze_refs, AnalysisConfig, Ddg, LatencyModel, RenameSet, SyscallPolicy};
use paragraph::isa::OpClass;
use paragraph::trace::{Loc, SegmentMap, TraceRecord};
use proptest::prelude::*;

mod common;
use common::arb_trace;

/// Completion level of every record (None when not placed), computed by
/// brute force.
fn oracle_levels(
    records: &[TraceRecord],
    renames: RenameSet,
    segments: &SegmentMap,
    latency: &LatencyModel,
    syscalls: SyscallPolicy,
) -> Vec<Option<i64>> {
    let mut levels: Vec<Option<i64>> = Vec::with_capacity(records.len());
    let mut floor = -1i64;

    // The completion level of the value held by `loc` just before record
    // `i`: the level of the last earlier record writing `loc`, or -1 if the
    // value is preexisting.
    let avail = |levels: &[Option<i64>], i: usize, loc: Loc| -> i64 {
        for j in (0..i).rev() {
            if records[j].dest() == Some(loc) {
                if let Some(level) = levels[j] {
                    return level;
                }
            }
        }
        -1
    };

    for (i, record) in records.iter().enumerate() {
        let class = record.class();
        let placed = class.creates_value()
            && !(class == OpClass::Syscall && syscalls == SyscallPolicy::Optimistic);
        if !placed {
            levels.push(None);
            continue;
        }

        let mut base = floor;
        for src in record.srcs() {
            base = base.max(avail(&levels, i, src));
        }
        if let Some(dest) = record.dest() {
            if !renames.renames(dest, segments) {
                // Ddest: the deepest level at which the previous value in
                // `dest` was used — its creation (WAW) and every read of it
                // since the last write (WAR).
                let last_write = (0..i)
                    .rev()
                    .find(|&j| records[j].dest() == Some(dest) && levels[j].is_some());
                let scan_from = last_write.map_or(0, |j| j + 1);
                let mut ddest = last_write.and_then(|j| levels[j]).unwrap_or(-1);
                for j in scan_from..i {
                    if records[j].srcs().contains(&dest) {
                        if let Some(level) = levels[j] {
                            ddest = ddest.max(level);
                        }
                    }
                }
                base = base.max(ddest);
            }
        }
        let level = base + i64::from(latency.latency(class));
        levels.push(Some(level));

        if class == OpClass::Syscall && syscalls == SyscallPolicy::Conservative {
            // Firewall immediately after the deepest computation yet used.
            let deepest = levels.iter().flatten().copied().max().unwrap_or(-1);
            floor = floor.max(deepest);
        }
    }
    levels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The production analyzer reproduces the oracle's critical path,
    /// placed-op count and per-level profile, across renaming conditions,
    /// latency models and syscall policies.
    #[test]
    fn livewell_matches_the_prose_oracle(
        trace in arb_trace(),
        renames in prop_oneof![
            Just(RenameSet::none()),
            Just(RenameSet::registers_only()),
            Just(RenameSet::registers_and_stack()),
            Just(RenameSet::all()),
        ],
        unit_latency in any::<bool>(),
        optimistic in any::<bool>(),
    ) {
        let segments = SegmentMap::new(4, 8);
        let latency = if unit_latency {
            LatencyModel::unit()
        } else {
            LatencyModel::paper()
        };
        let policy = if optimistic {
            SyscallPolicy::Optimistic
        } else {
            SyscallPolicy::Conservative
        };
        let oracle = oracle_levels(&trace, renames, &segments, &latency, policy);

        let config = AnalysisConfig::dataflow_limit()
            .with_segments(segments)
            .with_renames(renames)
            .with_latency(latency)
            .with_syscall_policy(policy)
            .with_value_stats(true);
        let report = analyze_refs(&trace, &config);

        // Same placed-op count.
        let oracle_placed = oracle.iter().flatten().count() as u64;
        prop_assert_eq!(report.placed_ops(), oracle_placed);

        // Same critical path.
        let oracle_cp = oracle
            .iter()
            .flatten()
            .copied()
            .max()
            .map_or(0, |m| (m + 1) as u64);
        prop_assert_eq!(
            report.critical_path_length(),
            oracle_cp,
            "critical paths diverge (oracle levels: {:?})",
            oracle
        );

        // Same per-level histogram.
        let mut oracle_profile = vec![0u64; oracle_cp as usize];
        for level in oracle.iter().flatten() {
            oracle_profile[*level as usize] += 1;
        }
        prop_assert_eq!(
            report.profile().exact_counts().unwrap_or_default(),
            oracle_profile
        );

        // Same value lifetimes and degrees of sharing as the explicit
        // graph, which counts one reader per source occurrence: a reader
        // count is where resolving an operand once per record could drop
        // or double a read.
        let ddg = Ddg::from_records(&trace, &config);
        prop_assert_eq!(report.value_lifetimes(), Some(ddg.value_lifetimes()));
        prop_assert_eq!(report.sharing_degrees(), Some(&ddg.sharing_degrees()));
    }
}

/// A deterministic pinned case exercising every dependency type at once,
/// worked out by hand from the paper's rules.
#[test]
fn oracle_hand_worked_case() {
    let segments = SegmentMap::all_data();
    let trace = vec![
        TraceRecord::compute(0, OpClass::IntAlu, &[], Loc::int(1)), // @0
        TraceRecord::compute(1, OpClass::IntDiv, &[Loc::int(1)], Loc::int(2)), // @12
        TraceRecord::compute(2, OpClass::IntAlu, &[], Loc::int(1)), // WAR vs use@12 -> @13
        TraceRecord::syscall(3, &[Loc::int(2)], Some(Loc::int(2))), // @13, firewall@13
        TraceRecord::compute(4, OpClass::IntAlu, &[], Loc::int(3)), // floored -> @14
    ];
    let no_rename = RenameSet::none();
    let oracle = oracle_levels(
        &trace,
        no_rename,
        &segments,
        &LatencyModel::paper(),
        SyscallPolicy::Conservative,
    );
    assert_eq!(
        oracle,
        vec![Some(0), Some(12), Some(13), Some(13), Some(14)]
    );
    let config = AnalysisConfig::dataflow_limit().with_renames(no_rename);
    let report = analyze_refs(&trace, &config);
    assert_eq!(report.critical_path_length(), 15);
}
