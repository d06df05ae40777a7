//! Results of one trace analysis.

use crate::branch::Predictor;
use crate::config::AnalysisConfig;
use crate::decimal::{push_fixed, push_u64};
use crate::dist::Distribution;
use crate::profile::ParallelismProfile;
use paragraph_isa::OpClass;
use std::fmt;

/// The metrics produced by one pass of the analyzer over a trace.
///
/// "Every trace analysis produces two metrics: the parallelism profile, and
/// the critical path length" — plus the bookkeeping needed to report them the
/// way the paper's tables do (placed operation counts, system call counts,
/// available parallelism).
///
/// # Examples
///
/// ```
/// use paragraph_core::{analyze, AnalysisConfig};
/// use paragraph_trace::synthetic;
///
/// let report = analyze(synthetic::chain(10), &AnalysisConfig::dataflow_limit());
/// assert_eq!(report.critical_path_length(), 10);
/// assert_eq!(report.available_parallelism(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    config: AnalysisConfig,
    profile: ParallelismProfile,
    total_records: u64,
    placed_ops: u64,
    syscalls: u64,
    firewalls: u64,
    branch_firewalls: u64,
    evictions: u64,
    peak_live_values: usize,
    predictor: Option<Predictor>,
    value_stats: Option<(Distribution, Distribution)>,
    class_placed: [u64; OpClass::ALL.len()],
}

impl AnalysisReport {
    #[allow(clippy::too_many_arguments)] // crate-private constructor fed by LiveWell::finish
    pub(crate) fn new(
        config: AnalysisConfig,
        profile: ParallelismProfile,
        total_records: u64,
        placed_ops: u64,
        syscalls: u64,
        firewalls: u64,
        branch_firewalls: u64,
        evictions: u64,
        peak_live_values: usize,
        predictor: Option<Predictor>,
        value_stats: Option<(Distribution, Distribution)>,
        class_placed: [u64; OpClass::ALL.len()],
    ) -> AnalysisReport {
        debug_assert_eq!(profile.total_ops(), placed_ops);
        AnalysisReport {
            config,
            profile,
            total_records,
            placed_ops,
            syscalls,
            firewalls,
            branch_firewalls,
            evictions,
            peak_live_values,
            predictor,
            value_stats,
            class_placed,
        }
    }

    /// The configuration this analysis ran under.
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The parallelism profile (operations per DDG level).
    pub fn profile(&self) -> &ParallelismProfile {
        &self.profile
    }

    /// The critical path length: the height of the topologically sorted DDG,
    /// i.e. the minimum number of abstract machine steps required to execute
    /// the traced computation under the configured constraints.
    pub fn critical_path_length(&self) -> u64 {
        self.profile.levels()
    }

    /// Total dynamic instructions observed, including control instructions
    /// that are never placed in the DDG.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Operations placed in the DDG (value-creating instructions).
    pub fn placed_ops(&self) -> u64 {
        self.placed_ops
    }

    /// Operations of one class placed in the DDG.
    pub fn placed_of_class(&self, class: OpClass) -> u64 {
        self.class_placed[class as usize]
    }

    /// System calls observed in the trace (Table 3's "Number of System
    /// Calls"), counted under both syscall policies.
    pub fn syscalls(&self) -> u64 {
        self.syscalls
    }

    /// Firewalls inserted (conservative system calls).
    pub fn firewalls(&self) -> u64 {
        self.firewalls
    }

    /// Firewalls inserted by mispredicted branches (zero under the perfect
    /// branch policy).
    pub fn branch_firewalls(&self) -> u64 {
        self.branch_firewalls
    }

    /// Memory locations evicted from the live well under
    /// [`AnalysisConfig::live_well_cap`]. When non-zero, the reported
    /// parallelism is an upper bound: an evicted location read again looks
    /// preexisting, so some true dependences were dropped.
    pub fn live_well_evictions(&self) -> u64 {
        self.evictions
    }

    /// Peak number of live-well entries during the pass — the analyzer's
    /// working set (the paper needed "a very large memory (32 MBytes)" for
    /// its runs).
    pub fn peak_live_values(&self) -> usize {
        self.peak_live_values
    }

    /// The branch predictor's final state, when the branch policy used one:
    /// prediction counts and accuracy.
    pub fn predictor(&self) -> Option<&Predictor> {
        self.predictor.as_ref()
    }

    /// Distribution of value lifetimes (levels from creation to last use),
    /// when the configuration enabled value statistics. §2.3: "useful in
    /// determining the amount of temporary storage required to exploit the
    /// parallelism in the DDG."
    pub fn value_lifetimes(&self) -> Option<&Distribution> {
        self.value_stats.as_ref().map(|(l, _)| l)
    }

    /// Distribution of the degree of sharing (consumers per created value),
    /// when the configuration enabled value statistics.
    pub fn sharing_degrees(&self) -> Option<&Distribution> {
        self.value_stats.as_ref().map(|(_, s)| s)
    }

    /// The available parallelism: placed operations divided by the critical
    /// path length. This is the speedup attainable by an abstract machine
    /// that extracts and executes the DDG directly.
    ///
    /// Returns 0 for an empty trace.
    pub fn available_parallelism(&self) -> f64 {
        self.profile.mean_ops_per_level()
    }
}

impl AnalysisReport {
    /// Serializes the report as a small, self-describing JSON object —
    /// convenient for scripting over CLI runs without pulling a JSON
    /// dependency into downstream tooling.
    ///
    /// The profile is included in binned form (`first_level`,
    /// `avg_ops_per_level` pairs); value statistics appear when they were
    /// collected.
    pub fn to_json(&self) -> String {
        use fmt::Write as _;
        let bins = self.profile.bin_count();
        let mut span = crate::span!("report.render");
        span.arg("bins", bins as u64);
        // A bin takes ~20 bytes (`[level,ops.dddd],`); the scalar fields
        // fit in the rest.
        let mut out = String::with_capacity(512 + 24 * bins);
        let _ = write!(
            out,
            "{{\"config\":\"{}\",\"total_records\":{},\"placed_ops\":{},\"syscalls\":{},\
             \"firewalls\":{},\"branch_firewalls\":{},\"live_well_evictions\":{},",
            self.config
                .to_string()
                .replace('\\', "\\\\")
                .replace('"', "\\\""),
            self.total_records,
            self.placed_ops,
            self.syscalls,
            self.firewalls,
            self.branch_firewalls,
            self.evictions
        );
        match self.config.live_well_cap() {
            Some(cap) => _ = write!(out, "\"live_well_cap\":{cap},"),
            None => out.push_str("\"live_well_cap\":null,"),
        }
        // Evictions drop true dependences, so the parallelism figures become
        // an upper bound; downstream tooling can branch on this flag instead
        // of re-deriving the caveat from the eviction count.
        let _ = write!(
            out,
            "\"parallelism_is_upper_bound\":{},\"peak_live_values\":{},",
            self.evictions > 0,
            self.peak_live_values
        );
        if let Some(p) = &self.predictor {
            let _ = write!(
                out,
                "\"branch_predictions\":{},\"branch_mispredictions\":{},",
                p.predictions(),
                p.mispredictions()
            );
        }
        let _ = write!(
            out,
            "\"critical_path_length\":{},\"available_parallelism\":",
            self.critical_path_length()
        );
        push_fixed(&mut out, self.available_parallelism(), 6);
        if let Some((lifetimes, sharing)) = &self.value_stats {
            out.push_str(",\"value_lifetime_mean\":");
            push_fixed(&mut out, lifetimes.mean(), 6);
            out.push_str(",\"sharing_mean\":");
            push_fixed(&mut out, sharing.mean(), 6);
        }
        out.push_str(",\"profile\":[");
        for (i, bin) in self.profile.bins().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            push_u64(&mut out, bin.first_level);
            out.push(',');
            push_fixed(&mut out, bin.avg_ops_per_level, 4);
            out.push(']');
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "analysis: {}", self.config)?;
        writeln!(f, "  instructions analyzed : {:>14}", self.total_records)?;
        writeln!(f, "  operations placed     : {:>14}", self.placed_ops)?;
        writeln!(f, "  system calls          : {:>14}", self.syscalls)?;
        writeln!(f, "  firewalls             : {:>14}", self.firewalls)?;
        if let Some(p) = &self.predictor {
            writeln!(
                f,
                "  branch accuracy       : {:>13.2}% ({} mispredict firewalls)",
                100.0 * p.accuracy(),
                self.branch_firewalls
            )?;
        }
        writeln!(
            f,
            "  critical path length  : {:>14}",
            self.critical_path_length()
        )?;
        writeln!(
            f,
            "  available parallelism : {:>14.2}",
            self.available_parallelism()
        )?;
        if self.evictions > 0 {
            writeln!(
                f,
                "  CAVEAT: {} live-well evictions under the memory cap; \
                 parallelism is an upper bound",
                self.evictions
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use paragraph_trace::synthetic;

    #[test]
    fn display_contains_headline_metrics() {
        let report = analyze(synthetic::figure1(), &AnalysisConfig::dataflow_limit());
        let text = report.to_string();
        assert!(text.contains("critical path length"));
        assert!(text.contains("available parallelism"));
        assert!(text.contains('8'));
    }

    #[test]
    fn class_counts_sum_to_placed() {
        let report = analyze(
            synthetic::random_trace(1000, 3),
            &AnalysisConfig::dataflow_limit(),
        );
        let by_class: u64 = OpClass::ALL
            .iter()
            .map(|&c| report.placed_of_class(c))
            .sum();
        assert_eq!(by_class, report.placed_ops());
    }

    #[test]
    fn json_export_is_well_formed() {
        let report = analyze(synthetic::figure1(), &AnalysisConfig::dataflow_limit());
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"placed_ops\":8"));
        assert!(json.contains("\"critical_path_length\":"));
        assert!(json.contains("\"profile\":[[0,"));
        // Balanced braces/brackets (a cheap well-formedness check).
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_exposes_live_well_accuracy_fields() {
        let exact = analyze(synthetic::figure1(), &AnalysisConfig::dataflow_limit());
        let json = exact.to_json();
        assert!(json.contains("\"live_well_evictions\":0"));
        assert!(json.contains("\"live_well_cap\":null"));
        assert!(json.contains("\"parallelism_is_upper_bound\":false"));

        // A cap of 1 on a trace with more than one live location forces
        // evictions, which must flip the upper-bound flag.
        let capped_config = AnalysisConfig::dataflow_limit().with_live_well_cap(1);
        let capped = analyze(synthetic::random_trace(1000, 3), &capped_config);
        assert!(capped.live_well_evictions() > 0);
        let json = capped.to_json();
        assert!(json.contains("\"live_well_cap\":1"));
        assert!(json.contains("\"parallelism_is_upper_bound\":true"));
    }

    #[test]
    fn empty_trace_reports_zeroes() {
        let report = analyze(Vec::new(), &AnalysisConfig::dataflow_limit());
        assert_eq!(report.critical_path_length(), 0);
        assert_eq!(report.available_parallelism(), 0.0);
        assert_eq!(report.placed_ops(), 0);
    }
}
