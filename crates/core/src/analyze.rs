//! Convenience drivers over the streaming analyzer.

use crate::config::AnalysisConfig;
use crate::livewell::LiveWell;
use crate::report::AnalysisReport;
use paragraph_trace::TraceRecord;

/// Analyzes an owned iterator of trace records under `config`.
///
/// # Examples
///
/// ```
/// use paragraph_core::{analyze, AnalysisConfig};
/// use paragraph_trace::synthetic;
///
/// let report = analyze(synthetic::diamond(8), &AnalysisConfig::dataflow_limit());
/// assert!(report.available_parallelism() > 1.0);
/// ```
pub fn analyze<I>(records: I, config: &AnalysisConfig) -> AnalysisReport
where
    I: IntoIterator<Item = TraceRecord>,
{
    let mut analyzer = LiveWell::new(config.clone());
    for record in records {
        analyzer.process(&record);
    }
    analyzer.finish()
}

/// Analyzes a borrowed slice/iterator of trace records under `config`.
pub fn analyze_refs<'a, I>(records: I, config: &AnalysisConfig) -> AnalysisReport
where
    I: IntoIterator<Item = &'a TraceRecord>,
{
    let mut analyzer = LiveWell::new(config.clone());
    analyzer.process_all(records);
    analyzer.finish()
}

/// Analyzes a contiguous slice of records under `config` — the sweep
/// engine's entry point: one arena-resident decode (`Arc<[TraceRecord]>`)
/// feeds any number of analyzer passes without per-pass iterator plumbing.
pub fn analyze_slice(records: &[TraceRecord], config: &AnalysisConfig) -> AnalysisReport {
    let mut analyzer = LiveWell::new(config.clone());
    analyzer.process_slice(records);
    analyzer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragraph_trace::synthetic;

    #[test]
    fn analyze_and_analyze_refs_agree() {
        let trace = synthetic::random_trace(500, 9);
        let config = AnalysisConfig::dataflow_limit();
        let a = analyze(trace.clone(), &config);
        let b = analyze_refs(&trace, &config);
        assert_eq!(a.critical_path_length(), b.critical_path_length());
        assert_eq!(a.placed_ops(), b.placed_ops());
    }

    #[test]
    fn stats_and_report_agree_on_counts() {
        let trace = synthetic::random_trace(500, 10);
        let report = analyze_refs(&trace, &AnalysisConfig::dataflow_limit());
        let mut stats = paragraph_trace::TraceStats::new();
        trace.iter().for_each(|record| stats.observe(record));
        assert_eq!(report.total_records(), stats.total());
        assert_eq!(report.placed_ops(), stats.placed());
        assert_eq!(report.syscalls(), stats.syscalls());
    }
}
