//! Program-phase study: the paper's open question.
//!
//! "Of course, later phases of a program could be very much unlike earlier
//! phases, possibly exhibiting much more, or much less parallelism. This
//! issue remains to be investigated." — §4.
//!
//! This study investigates it: each workload's trace is cut into
//! [`PHASES`] equal windows, each analyzed independently at the dataflow
//! limit, and the per-phase available parallelism is reported beside the
//! whole-trace value. A flat row means the whole-trace number is
//! representative; a bursty row (large max/min ratio) is the phase effect
//! the paper anticipated.
//!
//! Each workload is a whole-trace cell plus one cell per phase on the
//! sweep engine, all over the one trace.

use paragraph_bench::{exit_if_degraded, healthy, parallelism, run_grid, Study, SweepCell};
use paragraph_core::AnalysisConfig;
use paragraph_workloads::WorkloadId;

/// Number of equal trace windows.
const PHASES: usize = 6;

fn main() {
    let study = Study::from_env();
    let config = AnalysisConfig::dataflow_limit();
    let mut cells = Vec::new();
    for id in WorkloadId::ALL {
        cells.push(SweepCell::new(id, "whole", config.clone()));
        cells.extend((0..PHASES).map(|p| {
            SweepCell::new(id, format!("phase{}", p + 1), config.clone()).with_part(p, PHASES)
        }));
    }
    let outcome = run_grid(&study, "phase_study", &cells);

    println!("Program Phase Study: per-phase available parallelism (dataflow limit)");
    println!();
    print!("{:<11} {:>11}", "Benchmark", "whole");
    for p in 0..PHASES {
        print!(" {:>10}", format!("phase {}", p + 1));
    }
    println!(" {:>8}", "max/min");
    println!("{:-<100}", "");
    for (id, row) in WorkloadId::ALL
        .into_iter()
        .zip(outcome.cells.chunks(1 + PHASES))
    {
        let Some(row) = healthy(row) else { continue };
        print!(
            "{:<11} {:>11}",
            id.name(),
            parallelism(row[0].metrics.parallelism)
        );
        // A trace shorter than PHASES records has fewer (one-record) phases.
        let phase_values: Vec<f64> = row[1..]
            .iter()
            .filter(|phase| phase.metrics.records > 0)
            .map(|phase| phase.metrics.parallelism)
            .collect();
        for &par in &phase_values {
            print!(" {:>10}", parallelism(par));
        }
        let max = phase_values.iter().cloned().fold(0.0f64, f64::max);
        let min = phase_values
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            .max(1e-9);
        println!(" {:>8.1}", max / min);
    }
    println!();
    println!(
        "Each phase is analyzed as an independent trace (live well reset at the\n\
         cut), so phase values can exceed the whole-trace value when the cut\n\
         breaks a long recurrence, and high-ILP benchmarks lose parallelism\n\
         per-phase because parallelism accumulates with trace length."
    );
    exit_if_degraded("phase_study", outcome.quarantined());
}
