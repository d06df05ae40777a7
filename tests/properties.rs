//! Property-based tests over randomly generated traces: invariants of the
//! placement algorithm, the renaming/window lattices, and the binary trace
//! format.

use paragraph::core::branch::{BranchPolicy, PredictorKind};
use paragraph::core::{
    analyze_refs, AnalysisConfig, AnalysisReport, Ddg, InternedWell, LatencyModel, MemoryModel,
    RenameSet, SyscallPolicy, WindowSize,
};
use paragraph::isa::OpClass;
use paragraph::trace::binary::{TraceReader, TraceWriter};
use paragraph::trace::{InternedTrace, Loc, SegmentMap, TraceRecord};
use proptest::prelude::*;

/// Strategy: one arbitrary (valid) trace record at `pc`.
fn arb_record(pc: u64) -> impl Strategy<Value = TraceRecord> {
    // Sources may include the hardwired zero register (the record
    // constructor drops it); destinations must be real registers.
    let reg = || (0u8..12).prop_map(Loc::int);
    let dest = || (1u8..12).prop_map(Loc::int);
    let fpreg = || (0u8..8).prop_map(Loc::fp);
    let addr = || 0u64..48;
    prop_oneof![
        // Integer ALU with 0-2 register sources.
        (proptest::collection::vec(reg(), 0..=2), dest()).prop_map(move |(srcs, dest)| {
            TraceRecord::compute(pc, OpClass::IntAlu, &srcs, dest)
        }),
        // Long-latency integer ops.
        (reg(), reg(), dest())
            .prop_map(move |(a, b, d)| { TraceRecord::compute(pc, OpClass::IntMul, &[a, b], d) }),
        // Floating point.
        (fpreg(), fpreg(), fpreg())
            .prop_map(move |(a, b, d)| { TraceRecord::compute(pc, OpClass::FpDiv, &[a, b], d) }),
        // Loads and stores.
        (addr(), reg(), dest()).prop_map(move |(a, base, d)| TraceRecord::load(
            pc,
            a,
            Some(base),
            d
        )),
        (addr(), reg(), reg()).prop_map(move |(a, v, base)| TraceRecord::store(
            pc,
            a,
            v,
            Some(base)
        )),
        // Control, with and without recorded outcomes.
        (reg(), reg()).prop_map(move |(a, b)| TraceRecord::branch(pc, &[a, b])),
        (reg(), any::<bool>(), 0u64..64).prop_map(move |(a, taken, target)| {
            TraceRecord::branch_outcome(pc, &[a], taken, target)
        }),
        Just(TraceRecord::jump(pc, &[])),
        // Rare syscalls.
        Just(TraceRecord::syscall(pc, &[Loc::int(2)], Some(Loc::int(2)))),
    ]
}

fn arb_trace(max_len: usize) -> impl Strategy<Value = Vec<TraceRecord>> {
    proptest::collection::vec(any::<u8>(), 1..max_len).prop_flat_map(|seeds| {
        seeds
            .into_iter()
            .enumerate()
            .map(|(i, _)| arb_record(i as u64))
            .collect::<Vec<_>>()
    })
}

fn segments() -> SegmentMap {
    SegmentMap::new(16, 32)
}

/// Every location a record names.
fn locations(record: &TraceRecord) -> Vec<Loc> {
    record.srcs().iter().copied().chain(record.dest()).collect()
}

/// Whether two adjacent records may trade places without changing the
/// schedule: they name no common location, and neither is a syscall or a
/// control instruction (whose firewalls and predictor state are ordered).
fn commute(a: &TraceRecord, b: &TraceRecord) -> bool {
    let plain = |r: &TraceRecord| {
        !matches!(
            r.class(),
            OpClass::Syscall | OpClass::Branch | OpClass::Jump
        )
    };
    let la = locations(a);
    plain(a) && plain(b) && !locations(b).iter().any(|l| la.contains(l))
}

/// The report of `trace` on both record forms, which must agree.
fn analyze_both(trace: &[TraceRecord], config: &AnalysisConfig) -> AnalysisReport {
    let streaming = analyze_refs(trace, config);
    let interned = InternedTrace::from_records(trace, segments());
    let mut well = InternedWell::new(&interned, config.clone());
    well.process_next(interned.len());
    let report = well.finish();
    assert_eq!(streaming.to_json(), report.to_json());
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The critical path is bounded below by the longest single-op latency
    /// and above by the sum of all placed latencies.
    #[test]
    fn critical_path_bounds(trace in arb_trace(120)) {
        let config = AnalysisConfig::dataflow_limit().with_segments(segments());
        let report = analyze_refs(&trace, &config);
        let latency = LatencyModel::paper();
        let max_top: u64 = trace
            .iter()
            .filter(|r| r.creates_value())
            .map(|r| u64::from(latency.latency(r.class())))
            .max()
            .unwrap_or(0);
        let sum_top: u64 = trace
            .iter()
            .filter(|r| r.creates_value())
            .map(|r| u64::from(latency.latency(r.class())))
            .sum();
        prop_assert!(report.critical_path_length() >= max_top);
        prop_assert!(report.critical_path_length() <= sum_top);
    }

    /// Every value-creating record is placed exactly once; profiles conserve
    /// operations.
    #[test]
    fn op_conservation(trace in arb_trace(120)) {
        let config = AnalysisConfig::dataflow_limit().with_segments(segments());
        let report = analyze_refs(&trace, &config);
        let expected = trace.iter().filter(|r| r.creates_value()).count() as u64;
        prop_assert_eq!(report.placed_ops(), expected);
        prop_assert_eq!(report.profile().total_ops(), expected);
        prop_assert_eq!(report.total_records(), trace.len() as u64);
    }

    /// Renaming more storage classes never lengthens the critical path.
    #[test]
    fn renaming_is_monotone(trace in arb_trace(120)) {
        let base = AnalysisConfig::dataflow_limit().with_segments(segments());
        let conditions = RenameSet::table4_conditions();
        let mut last = u64::MAX;
        for renames in conditions {
            let cp = analyze_refs(&trace, &base.clone().with_renames(renames))
                .critical_path_length();
            prop_assert!(
                cp <= last,
                "renaming {} lengthened the critical path ({} > {})",
                renames, cp, last
            );
            last = cp;
        }
    }

    /// Growing the window never lengthens the critical path, and the
    /// infinite window is the limit.
    #[test]
    fn window_is_monotone(trace in arb_trace(120)) {
        let base = AnalysisConfig::dataflow_limit().with_segments(segments());
        let mut last = u64::MAX;
        for w in [1usize, 2, 4, 8, 16, 64, 256] {
            let cp = analyze_refs(&trace, &base.clone().with_window(WindowSize::bounded(w)))
                .critical_path_length();
            prop_assert!(cp <= last);
            last = cp;
        }
        let unbounded = analyze_refs(&trace, &base).critical_path_length();
        prop_assert!(unbounded <= last);
    }

    /// A window of W instructions bounds every level at W operations.
    #[test]
    fn window_bounds_level_width(trace in arb_trace(120), w in 1usize..12) {
        let config = AnalysisConfig::dataflow_limit()
            .with_segments(segments())
            .with_window(WindowSize::bounded(w));
        let report = analyze_refs(&trace, &config);
        if let Some(counts) = report.profile().exact_counts() {
            prop_assert!(counts.iter().all(|&c| c <= w as u64));
        }
    }

    /// The optimistic syscall policy never lengthens the critical path.
    #[test]
    fn optimistic_syscalls_only_help(trace in arb_trace(120)) {
        let base = AnalysisConfig::dataflow_limit().with_segments(segments());
        let cons = analyze_refs(&trace, &base).critical_path_length();
        let opt = analyze_refs(
            &trace,
            &base.with_syscall_policy(SyscallPolicy::Optimistic),
        )
        .critical_path_length();
        prop_assert!(opt <= cons);
    }

    /// The streaming live well and the explicit graph agree exactly, under
    /// arbitrary switch combinations.
    #[test]
    fn livewell_matches_explicit_graph(
        trace in arb_trace(100),
        renames in prop_oneof![
            Just(RenameSet::none()),
            Just(RenameSet::registers_only()),
            Just(RenameSet::registers_and_stack()),
            Just(RenameSet::all()),
        ],
        window in prop_oneof![Just(WindowSize::Infinite), (1usize..40).prop_map(WindowSize::bounded)],
        optimistic in any::<bool>(),
        branches in prop_oneof![
            Just(BranchPolicy::Perfect),
            Just(BranchPolicy::StallAlways),
            Just(BranchPolicy::Predict(PredictorKind::Btfn)),
            Just(BranchPolicy::Predict(PredictorKind::Bimodal { index_bits: 4 })),
            Just(BranchPolicy::Predict(PredictorKind::Gshare { index_bits: 4 })),
        ],
        issue_limit in prop_oneof![Just(None), (1usize..8).prop_map(Some)],
        memory in prop_oneof![Just(MemoryModel::Perfect), Just(MemoryModel::NoDisambiguation)],
    ) {
        let mut config = AnalysisConfig::dataflow_limit()
            .with_segments(segments())
            .with_renames(renames)
            .with_branch_policy(branches)
            .with_memory_model(memory)
            .with_window(window);
        if let Some(limit) = issue_limit {
            config = config.with_issue_limit(limit);
        }
        if optimistic {
            config = config.with_syscall_policy(SyscallPolicy::Optimistic);
        }
        let report = analyze_refs(&trace, &config);
        let ddg = Ddg::from_records(&trace, &config);
        prop_assert_eq!(ddg.height(), report.critical_path_length());
        prop_assert_eq!(ddg.len() as u64, report.placed_ops());
        prop_assert_eq!(
            ddg.parallelism_profile().exact_counts(),
            report.profile().exact_counts()
        );
    }

    /// Metamorphic: with an unbounded window, swapping two adjacent
    /// records that share no location, with no syscall or branch between
    /// them, leaves the critical path and the profile unchanged, on both
    /// record forms.
    #[test]
    fn swapping_independent_neighbours_keeps_the_schedule(
        trace in arb_trace(120),
        start in any::<usize>(),
        renames in prop_oneof![
            Just(RenameSet::none()),
            Just(RenameSet::registers_only()),
            Just(RenameSet::all()),
        ],
    ) {
        let config = AnalysisConfig::dataflow_limit()
            .with_segments(segments())
            .with_renames(renames);
        let n = trace.len();
        let pair = (0..n.saturating_sub(1))
            .map(|k| (start % n + k) % (n - 1))
            .find(|&i| commute(&trace[i], &trace[i + 1]));
        if let Some(i) = pair {
            let mut swapped = trace.clone();
            swapped.swap(i, i + 1);
            let before = analyze_both(&trace, &config);
            let after = analyze_both(&swapped, &config);
            prop_assert_eq!(before.critical_path_length(), after.critical_path_length());
            prop_assert_eq!(before.profile().exact_counts(), after.profile().exact_counts());
        }
    }

    /// The binary trace format round-trips arbitrary traces exactly.
    #[test]
    fn binary_format_round_trips(trace in arb_trace(150)) {
        let mut buf = Vec::new();
        let mut writer = TraceWriter::new(&mut buf, segments()).unwrap();
        for r in &trace {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        let decoded: Vec<_> = TraceReader::new(buf.as_slice())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        prop_assert_eq!(decoded, trace);
    }

    /// Perfect disambiguation never produces a longer critical path than
    /// the conservative no-disambiguation model.
    #[test]
    fn disambiguation_only_helps(trace in arb_trace(120)) {
        let base = AnalysisConfig::dataflow_limit().with_segments(segments());
        let perfect = analyze_refs(&trace, &base).critical_path_length();
        let conservative = analyze_refs(
            &trace,
            &base.with_memory_model(MemoryModel::NoDisambiguation),
        )
        .critical_path_length();
        prop_assert!(perfect <= conservative);
    }

    /// Unit latencies never produce a longer critical path than Table 1
    /// latencies.
    #[test]
    fn unit_latency_is_a_lower_bound(trace in arb_trace(120)) {
        let base = AnalysisConfig::dataflow_limit().with_segments(segments());
        let table1 = analyze_refs(&trace, &base).critical_path_length();
        let unit = analyze_refs(&trace, &base.with_latency(LatencyModel::unit()))
            .critical_path_length();
        prop_assert!(unit <= table1);
    }
}
