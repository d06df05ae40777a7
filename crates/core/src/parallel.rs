//! Intra-trace parallel analysis: one trace, many cores, one answer.
//!
//! The sweep engine parallelizes *across* analyses; this module
//! parallelizes *within* one. The trace is cut at **firewall points** —
//! immediately after each conservative system call — and the resulting
//! segments are analyzed concurrently by fresh [`LiveWell`] instances,
//! then spliced back together with
//! [`merge_segment`](crate::LiveWellImpl::merge_segment).
//!
//! # Why a firewall cut is exact
//!
//! A conservative system call raises the placement floor to the deepest
//! level yet used, *after* its own placement. At that instant every level
//! the analyzer still remembers — value availabilities, deepest uses,
//! resident window slots, memory-ordering bounds, issue-ledger counters —
//! is at or below the floor. The placement rule
//! `Ldest = MAX(Lsrc..., floor [, Ddest]) + top` therefore absorbs all of
//! that state into its `floor` term: from the cut onward, the only thing
//! the past contributes is a single number. A fresh analyzer starting at
//! floor `-1` over the remaining records consequently places every
//! operation exactly `floor_at_cut + 1` levels lower than the sequential
//! pass would (preexisting `-1` sources behave as "at or below the floor"
//! in both systems), and the segment's relative levels splice back with a
//! constant shift. The merged report is **byte-identical** to the
//! sequential oracle — the same differential discipline the paged live
//! well and the sweep scheduler established — which the tests below
//! enforce for every jobs count.
//!
//! Contrast with the warm-up-prefix idiom (replay W records and discard
//! their placements): a fixed warm-up only *approximates* the floor at a
//! segment start, because the sequential floor is a running maximum over
//! every displaced record, computed from placements that themselves depend
//! on earlier state. The firewall cut needs no warm-up and no
//! approximation; the trade-off is that cut points exist only where the
//! trace makes syscalls. Traces without interior syscalls (and the
//! configurations below) fall back to the sequential path.
//!
//! # Eligibility
//!
//! A configuration is segment-parallel when its merged state is exactly
//! reconstructible from per-segment outcomes. [`eligibility`] rejects:
//!
//! * **value statistics** — a value created in one segment retires in a
//!   later one; per-segment lifetime/sharing distributions cannot see it;
//! * **branch prediction** — predictor counters and history carry across
//!   cuts;
//! * **a live-well cap** — eviction decisions depend on global occupancy;
//! * **optimistic syscalls** — no firewalls, so no cut points;
//! * **stall-always branching over memory-sourced branches** — such a
//!   branch materializes live-well entries on the skip path, which skews
//!   the peak-live-values accounting across a cut.
//!
//! Everything else — any window size, any renaming set, either memory
//! model, issue limits, perfect or stall-always branches — parallelizes
//! exactly.

use crate::branch::BranchPolicy;
use crate::config::{AnalysisConfig, SyscallPolicy};
use crate::livewell::{LiveWell, SegmentOutcome};
use crate::report::AnalysisReport;
use crate::run::{Policy, Run, Stop};
use paragraph_isa::OpClass;
use paragraph_trace::{Loc, TraceRecord};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Records between shared-progress updates inside a segment worker.
const PROGRESS_STRIDE: usize = 1 << 16;

/// Resolves a user-facing jobs count: `0` means "all cores".
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        jobs
    }
}

/// Whether `config` can analyze `records` segment-parallel with an exactly
/// reconstructible merge. `Err` carries the reason for the sequential
/// fallback (surfaced by the CLI under `--progress`).
///
/// # Errors
///
/// Returns the human-readable reason parallel analysis would not be
/// byte-identical to the sequential oracle.
pub fn eligibility(records: &[TraceRecord], config: &AnalysisConfig) -> Result<(), &'static str> {
    if config.syscall_policy() != SyscallPolicy::Conservative {
        return Err("optimistic syscalls insert no firewalls to cut at");
    }
    if config.value_stats() {
        return Err("value lifetime/sharing statistics retire values across cuts");
    }
    if matches!(config.branch_policy(), BranchPolicy::Predict(_)) {
        return Err("branch predictor state carries across cuts");
    }
    if config.live_well_cap().is_some() {
        return Err("live-well eviction depends on global occupancy");
    }
    if matches!(config.branch_policy(), BranchPolicy::StallAlways)
        && records.iter().any(|r| {
            r.class() == OpClass::Branch && r.srcs().iter().any(|s| matches!(s, Loc::Mem(_)))
        })
    {
        return Err("stall-always branches with memory sources touch the live well unplaced");
    }
    Ok(())
}

/// Plans firewall cuts over `records[start..]` for `jobs` workers: returns
/// strictly increasing segment boundaries in `(start, records.len())`,
/// each immediately after a system-call record. Segment `i` is
/// `[boundary[i-1], boundary[i])` (with `start` before the first and
/// `records.len()` after the last). Boundaries track the ideal equal-size
/// split as closely as the trace's syscalls allow; an empty result means
/// there is nothing to parallelize.
pub fn plan_cuts(records: &[TraceRecord], start: usize, jobs: usize) -> Vec<usize> {
    let len = records.len();
    if jobs < 2 || start >= len {
        return Vec::new();
    }
    // Candidate cut points: one past each syscall, excluding a cut that
    // would leave an empty final segment.
    let candidates: Vec<usize> = records[start..len.saturating_sub(1)]
        .iter()
        .enumerate()
        .filter(|(_, r)| r.class() == OpClass::Syscall)
        .map(|(i, _)| start + i + 1)
        .collect();
    let mut boundaries = Vec::new();
    let span = len - start;
    for k in 1..jobs {
        let target = start + span * k / jobs;
        let from = candidates.partition_point(|&c| c < target);
        let Some(&cut) = candidates.get(from) else {
            break;
        };
        if boundaries.last().is_none_or(|&prev| cut > prev) {
            boundaries.push(cut);
        }
    }
    boundaries
}

/// The segment workers' configuration: identical placement behaviour, but
/// an effectively unbounded profile-bin budget so per-level counts stay
/// exact (bin width 1) for the splice. The primary analyzer keeps the
/// caller's binning; merged levels re-bin identically to the sequential
/// pass because coarsening is a pure function of the level/count multiset.
pub fn segment_config(config: &AnalysisConfig) -> AnalysisConfig {
    config.clone().with_profile_bins(usize::MAX)
}

/// Analyzes one segment with a fresh live well and exports its outcome.
/// `progress` accumulates records processed (shared across workers for
/// heartbeat reporting). Returns `None` only on an internal invariant
/// break (an inexact segment profile), which callers treat as "redo
/// sequentially".
pub fn run_segment(
    segment: &[TraceRecord],
    config: &AnalysisConfig,
    progress: &AtomicU64,
) -> Option<SegmentOutcome> {
    run_segment_until(segment, config, progress, None).unwrap_or(None)
}

/// [`run_segment`] that gives up with [`Stop::Deadline`] once `deadline`
/// has passed, checked between [`PROGRESS_STRIDE`]-record chunks.
pub(crate) fn run_segment_until(
    segment: &[TraceRecord],
    config: &AnalysisConfig,
    progress: &AtomicU64,
    deadline: Option<Instant>,
) -> Result<Option<SegmentOutcome>, Stop> {
    let mut analyzer = LiveWell::new(segment_config(config));
    for slice in segment.chunks(PROGRESS_STRIDE) {
        if deadline.is_some_and(|at| Instant::now() > at) {
            return Err(Stop::Deadline);
        }
        analyzer.process_slice(slice);
        progress.fetch_add(slice.len() as u64, Ordering::Relaxed);
    }
    Ok(analyzer.into_segment_outcome())
}

/// Analyzes `records` across up to `jobs` threads (0 = all cores) and
/// returns a report byte-identical to the sequential
/// [`analyze_refs`](crate::analyze_refs): a [`Run`] over the slice.
/// Ineligible configurations, traces without interior syscalls, and
/// `jobs < 2` all run sequentially on the calling thread; segment `0`
/// always runs on the calling thread so the caller's thread-local
/// instrumentation attributes it naturally.
pub fn analyze_parallel(
    records: &[TraceRecord],
    config: &AnalysisConfig,
    jobs: usize,
) -> AnalysisReport {
    let mut analyzer = LiveWell::new(config.clone());
    let policy = Policy {
        jobs,
        ..Policy::default()
    };
    // No deadline, no skip or take, and a fresh analyzer: nothing can
    // stop this run.
    let _ = Run::new(&mut analyzer, policy).slice(records);
    analyzer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_refs;
    use crate::config::{RenameSet, WindowSize};
    use crate::MemoryModel;
    use paragraph_trace::synthetic;

    /// Every differential check is on the serialized report: byte equality
    /// or nothing.
    fn assert_identical(records: &[TraceRecord], config: &AnalysisConfig, jobs: usize) {
        let sequential = analyze_refs(records, config);
        let parallel = analyze_parallel(records, config, jobs);
        assert_eq!(
            sequential.to_json(),
            parallel.to_json(),
            "jobs={jobs} config={config:?}"
        );
    }

    fn configs() -> Vec<AnalysisConfig> {
        vec![
            AnalysisConfig::dataflow_limit(),
            AnalysisConfig::dataflow_limit().with_renames(RenameSet::none()),
            AnalysisConfig::dataflow_limit().with_window(WindowSize::bounded(64)),
            AnalysisConfig::dataflow_limit().with_issue_limit(4),
            AnalysisConfig::dataflow_limit().with_memory_model(MemoryModel::NoDisambiguation),
            AnalysisConfig::dataflow_limit()
                .with_branch_policy(BranchPolicy::StallAlways)
                .with_window(WindowSize::bounded(256)),
        ]
    }

    #[test]
    fn parallel_report_is_byte_identical_across_jobs_and_configs() {
        // random_trace emits ~2% syscalls — plenty of cut points.
        let trace = synthetic::random_trace(20_000, 11);
        for config in configs() {
            for jobs in [2, 4, 8] {
                assert_identical(&trace, &config, jobs);
            }
        }
    }

    #[test]
    fn parallel_report_is_byte_identical_across_seeds() {
        let config = AnalysisConfig::dataflow_limit().with_renames(RenameSet::none());
        for seed in 0..6 {
            let trace = synthetic::random_trace(5_000, seed);
            assert_identical(&trace, &config, 4);
        }
    }

    #[test]
    fn ineligible_configs_fall_back_to_the_sequential_answer() {
        let trace = synthetic::random_trace(4_000, 5);
        let gated = vec![
            AnalysisConfig::dataflow_limit().with_value_stats(true),
            AnalysisConfig::dataflow_limit().with_live_well_cap(32),
            AnalysisConfig::dataflow_limit().with_syscall_policy(SyscallPolicy::Optimistic),
        ];
        for config in gated {
            assert!(eligibility(&trace, &config).is_err());
            // The fallback still answers, and still matches.
            assert_identical(&trace, &config, 8);
        }
    }

    #[test]
    fn traces_without_syscalls_run_sequentially() {
        let trace = synthetic::interleaved_chains(8, 500);
        assert!(plan_cuts(&trace, 0, 8).is_empty());
        assert_identical(&trace, &AnalysisConfig::dataflow_limit(), 8);
    }

    #[test]
    fn cuts_land_after_syscalls_and_balance_segments() {
        let trace = synthetic::random_trace(50_000, 3);
        let cuts = plan_cuts(&trace, 0, 4);
        assert!(!cuts.is_empty() && cuts.len() <= 3);
        for window in cuts.windows(2) {
            assert!(window[0] < window[1]);
        }
        for &cut in &cuts {
            assert!(cut > 0 && cut < trace.len());
            assert_eq!(trace[cut - 1].class(), OpClass::Syscall);
        }
        // With ~2% syscalls the realized segment sizes should be within a
        // few percent of the ideal quarter.
        let ideal = trace.len() / 4;
        for (i, &cut) in cuts.iter().enumerate() {
            let target = ideal * (i + 1);
            assert!(
                cut.abs_diff(target) < trace.len() / 10,
                "cut {cut} vs {target}"
            );
        }
    }

    #[test]
    fn resumed_primary_merges_identically() {
        // Simulate the CLI's checkpoint-resume path: analyze a prefix,
        // round-trip through a checkpoint, then finish the rest through
        // the segment-parallel splice. The result must equal the
        // uninterrupted sequential pass byte for byte.
        let trace = synthetic::random_trace(20_000, 7);
        let config = AnalysisConfig::dataflow_limit().with_window(WindowSize::bounded(128));
        let sequential = analyze_refs(&trace, &config);

        let resume_at = 6_000;
        let mut prefix = LiveWell::new(config.clone());
        prefix.process_slice(&trace[..resume_at]);
        let mut saved = Vec::new();
        prefix.save_checkpoint(&mut saved).unwrap();
        let mut primary = LiveWell::resume_from(saved.as_slice(), config.clone()).unwrap();

        let cuts = plan_cuts(&trace, resume_at, 4);
        assert!(!cuts.is_empty());
        let progress = AtomicU64::new(0);
        primary.process_slice(&trace[resume_at..cuts[0]]);
        let ends: Vec<usize> = cuts[1..].iter().copied().chain([trace.len()]).collect();
        for (&from, &to) in cuts.iter().zip(&ends) {
            let outcome = run_segment(&trace[from..to], &config, &progress).unwrap();
            primary.merge_segment(&outcome);
        }
        assert_eq!(
            progress.load(Ordering::Relaxed),
            (trace.len() - cuts[0]) as u64
        );
        assert_eq!(primary.finish().to_json(), sequential.to_json());
    }

    #[test]
    fn effective_jobs_resolves_zero_to_cores() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }
}
