//! Input-sensitivity study: how robust are the analogues' parallelism
//! numbers to their random inputs?
//!
//! The paper ran each SPEC benchmark on one input (Table 2); a fair
//! question for the reproduction is whether the analogue results are a
//! property of the program structure or of the particular seeded input.
//! This study re-runs every workload with [`SEEDS`] different input seeds
//! and reports the spread of the dataflow-limit available parallelism.
//! Tight spreads mean the dependence structure, not the data, carries the
//! result.
//!
//! Each seed is one sweep of the ten workloads on the sweep engine, under
//! its own sweep name.

use paragraph_bench::{exit_if_degraded, parallelism, run_grid, Study, SweepCell};
use paragraph_core::AnalysisConfig;
use paragraph_workloads::WorkloadId;

/// Seeds per workload.
const SEEDS: u64 = 5;

fn main() {
    let study = Study::from_env();
    let cells: Vec<SweepCell> = WorkloadId::ALL
        .into_iter()
        .map(|id| SweepCell::new(id, "dataflow", AnalysisConfig::dataflow_limit()))
        .collect();
    let sweeps: Vec<_> = (0..SEEDS)
        .map(|seed| {
            let seeded = study.clone().with_seed_override(Some(0xBEEF + seed));
            run_grid(&seeded, &format!("seed_study-{seed}"), &cells)
        })
        .collect();

    println!("Seed Sensitivity Study: dataflow-limit parallelism over {SEEDS} input seeds");
    println!();
    println!(
        "{:<11} {:>12} {:>12} {:>12} {:>10}",
        "Benchmark", "min", "mean", "max", "spread"
    );
    println!("{:-<62}", "");
    for (i, id) in WorkloadId::ALL.into_iter().enumerate() {
        let values: Option<Vec<f64>> = sweeps
            .iter()
            .map(|sweep| Some(sweep.cells[i].outcome()?.metrics.parallelism))
            .collect();
        let Some(values) = values else { continue };
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(0.0f64, f64::max);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        println!(
            "{:<11} {:>12} {:>12} {:>12} {:>9.1}%",
            id.name(),
            parallelism(min),
            parallelism(mean),
            parallelism(max),
            100.0 * (max - min) / mean,
        );
    }
    println!();
    println!("(spread = (max - min) / mean; small values mean the analogue's");
    println!(" parallelism is structural, not an artifact of one input)");
    exit_if_degraded(
        "seed_study",
        sweeps.iter().map(|sweep| sweep.quarantined()).sum(),
    );
}
