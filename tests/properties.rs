//! Property-based tests over randomly generated traces: invariants of the
//! placement algorithm, the renaming/window lattices, and the binary trace
//! format.

use paragraph::core::branch::{BranchPolicy, PredictorKind};
use paragraph::core::decimal::{push_fixed, push_u64};
use paragraph::core::{
    analyze_refs, AnalysisConfig, AnalysisReport, Ddg, InternedWell, LatencyModel, MemoryModel,
    ParallelismProfile, RenameSet, SyscallPolicy, WindowSize,
};
use paragraph::isa::OpClass;
use paragraph::trace::binary::{TraceReader, TraceWriter};
use paragraph::trace::faultinject::SplitMix64;
use paragraph::trace::{InternedTrace, Loc, SegmentMap, TraceRecord};
use paragraph::workloads::{Workload, WorkloadId};
use proptest::prelude::*;
use std::io::Write as _;

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

/// `push_fixed` against std's `{:.N}`, the writer's specification.
fn assert_fixed_is_std(v: f64, decimals: &[usize]) {
    for &d in decimals {
        let mut out = String::new();
        push_fixed(&mut out, v, d);
        assert_eq!(
            out,
            format!("{v:.d$}"),
            "{v:e} (bits {:#x}) at {d}",
            v.to_bits()
        );
    }
}

/// The report writer renders every float exactly as `{:.4}`/`{:.6}` would:
/// random bit patterns and random bin ratios, every ratio over a small grid,
/// exact ties (which round half to even), zero and subnormals, rounding
/// that carries into the integer part, and the values std renders itself
/// (negative, non-finite, 2^64 and past).
#[test]
fn fixed_decimal_writer_matches_std() {
    let mut rng = SplitMix64::new(0x00f1_2ed0);
    for _ in 0..100_000 {
        assert_fixed_is_std(f64::from_bits(rng.next_u64()), &[4, 6]);
        let ops = rng.below(10_000_000) as f64;
        assert_fixed_is_std(ops / (1 + rng.below(1 << 20)) as f64, &[4, 6]);
    }
    for width in 1..=200u32 {
        for ops in 0..2_000u32 {
            assert_fixed_is_std(f64::from(ops) / f64::from(width), &[4, 6]);
        }
    }
    let every = [0, 1, 4, 6, 17, 18, 19];
    for n in 1..=40 {
        for odd in (1..200u32).step_by(2) {
            assert_fixed_is_std(f64::from(odd) / 2f64.powi(n), &every);
        }
    }
    for tie in [
        1.0 / 32.0,
        3.0 / 32.0,
        5.0 / 32.0,
        0.5,
        1.5,
        2.5,
        0.125,
        0.375,
    ] {
        assert_fixed_is_std(tie, &every);
    }
    let two64 = 2f64.powi(64);
    for v in [
        0.0,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 3.0,
        f64::from_bits(1),
        f64::from_bits((1 << 52) - 1),
        0.99999995,
        9.999995,
        99.99995,
        0.9999999999,
        2f64.powi(53) + 2.0,
        two64 - 2048.0,
        two64,
        1e20,
        f64::MAX,
        -0.0,
        -1.5,
        -1.0 / 32.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        assert_fixed_is_std(v, &every);
    }
    let mut out = String::new();
    for v in [
        0,
        9,
        10,
        99,
        100,
        4_096,
        u64::from(u32::MAX),
        u64::MAX - 1,
        u64::MAX,
    ] {
        out.clear();
        push_u64(&mut out, v);
        assert_eq!(out, v.to_string());
    }
}

/// `AnalysisReport::to_json` as it was rendered through `format!`: the
/// oracle for the fixed-point writer at report level.
fn json_by_format(report: &AnalysisReport) -> String {
    let mut out = format!(
        "{{\"config\":\"{}\",",
        report
            .config()
            .to_string()
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
    );
    out += &format!("\"total_records\":{},", report.total_records());
    out += &format!("\"placed_ops\":{},", report.placed_ops());
    out += &format!("\"syscalls\":{},", report.syscalls());
    out += &format!("\"firewalls\":{},", report.firewalls());
    out += &format!("\"branch_firewalls\":{},", report.branch_firewalls());
    out += &format!("\"live_well_evictions\":{},", report.live_well_evictions());
    match report.config().live_well_cap() {
        Some(cap) => out += &format!("\"live_well_cap\":{cap},"),
        None => out += "\"live_well_cap\":null,",
    }
    out += &format!(
        "\"parallelism_is_upper_bound\":{},",
        report.live_well_evictions() > 0
    );
    out += &format!("\"peak_live_values\":{},", report.peak_live_values());
    if let Some(p) = report.predictor() {
        out += &format!(
            "\"branch_predictions\":{},\"branch_mispredictions\":{},",
            p.predictions(),
            p.mispredictions()
        );
    }
    out += &format!(
        "\"critical_path_length\":{},",
        report.critical_path_length()
    );
    out += &format!(
        "\"available_parallelism\":{:.6},",
        report.available_parallelism()
    );
    if let (Some(lifetimes), Some(sharing)) = (report.value_lifetimes(), report.sharing_degrees()) {
        out += &format!(
            "\"value_lifetime_mean\":{:.6},\"sharing_mean\":{:.6},",
            lifetimes.mean(),
            sharing.mean()
        );
    }
    let bins: Vec<String> = report
        .profile()
        .bins()
        .map(|bin| format!("[{},{:.4}]", bin.first_level, bin.avg_ops_per_level))
        .collect();
    out + "\"profile\":[" + &bins.join(",") + "]}"
}

/// `ParallelismProfile::write_csv` as it was rendered through `writeln!`.
fn csv_by_format(profile: &ParallelismProfile) -> Vec<u8> {
    let mut out = b"level,ops_per_level\n".to_vec();
    for bin in profile.bins() {
        writeln!(out, "{},{:.4}", bin.first_level, bin.avg_ops_per_level).unwrap();
    }
    out
}

/// Real workload reports under every switch the report renders — rename
/// all/none, a window, value statistics, a gshare predictor, a live-well
/// cap — and a chain whose critical path outgrows the 4,096-bin budget
/// (merged bins, exact ties, a partial last bin) render the same bytes as
/// `format!`.
#[test]
fn report_renderers_match_format() {
    let mut reports = Vec::new();
    for (id, size) in [(WorkloadId::Xlisp, 2), (WorkloadId::Matrix300, 4)] {
        let (records, segments) = Workload::new(id)
            .with_size(size)
            .collect_trace(400_000)
            .unwrap();
        let base = AnalysisConfig::dataflow_limit().with_segments(segments);
        for config in [
            base.clone(),
            base.clone().with_renames(RenameSet::none()),
            base.clone().with_window(WindowSize::bounded(128)),
            base.clone().with_value_stats(true),
            base.clone()
                .with_branch_policy(BranchPolicy::Predict(PredictorKind::Gshare {
                    index_bits: 8,
                })),
            base.clone().with_live_well_cap(64),
        ] {
            reports.push(analyze_refs(&records, &config));
        }
    }
    // A chain of 100,001 levels merges bins 32 levels wide, and one extra
    // op per bin makes each average 33/32 = 1.03125: an exact tie at four
    // decimals, which rounds to even. The last bin covers one level.
    let mut tied = Vec::new();
    for i in 0..100_001 {
        tied.push(TraceRecord::compute(
            i,
            OpClass::IntAlu,
            &[Loc::int(1)],
            Loc::int(1),
        ));
        if i % 32 == 5 {
            tied.push(TraceRecord::compute(
                i,
                OpClass::IntAlu,
                &[Loc::int(1)],
                Loc::int(2),
            ));
        }
    }
    let report = analyze_refs(&tied, &AnalysisConfig::dataflow_limit());
    assert_eq!(report.profile().bin_width(), 32);
    assert!(report.to_json().contains("[32,1.0312]"));
    reports.push(report);
    for report in &reports {
        assert_eq!(
            report.to_json(),
            json_by_format(report),
            "{}",
            report.config()
        );
        let mut csv = Vec::new();
        report.profile().write_csv(&mut csv).unwrap();
        assert_eq!(csv, csv_by_format(report.profile()), "{}", report.config());
    }
}
