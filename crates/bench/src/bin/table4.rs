//! Regenerates Table 4 of the paper: available parallelism under the four
//! renaming conditions (none / registers / registers+stack / registers+
//! memory).
//!
//! Each workload's trace is captured once and re-analyzed under all four
//! conditions, exactly as Paragraph re-ran trace files with different
//! switch settings: a grid of four cells per workload on the sweep
//! engine. System calls are conservative and the window infinite,
//! matching the paper's setup for this table.

use paragraph_bench::{exit_if_degraded, healthy, parallelism, run_grid, Study, SweepCell};
use paragraph_core::{AnalysisConfig, RenameSet};
use paragraph_workloads::WorkloadId;

fn main() {
    let study = Study::from_env();
    let conditions = ["none", "regs", "regs-stack", "regs-mem"]
        .into_iter()
        .zip(RenameSet::table4_conditions());
    let cells: Vec<SweepCell> = WorkloadId::ALL
        .into_iter()
        .flat_map(|id| {
            conditions.clone().map(move |(label, renames)| {
                SweepCell::new(
                    id,
                    label,
                    AnalysisConfig::dataflow_limit().with_renames(renames),
                )
            })
        })
        .collect();
    let outcome = run_grid(&study, "table4", &cells);

    println!("Table 4: SPEC Benchmarks under Different Renaming Conditions");
    println!();
    println!(
        "{:<11} {:>13} {:>13} {:>19} {:>17}",
        "Benchmark", "No Renaming", "Regs Renamed", "Regs/Stack Renamed", "Reg/Mem Renamed"
    );
    println!("{:-<78}", "");
    for (id, row) in WorkloadId::ALL.into_iter().zip(outcome.cells.chunks(4)) {
        let Some(row) = healthy(row) else { continue };
        print!("{:<11}", id.name());
        for (cell, width) in row.iter().zip([13usize, 13, 19, 17]) {
            print!("{:>width$}", parallelism(cell.metrics.parallelism));
        }
        println!();
    }
    println!();
    println!("(conservative system calls, window = entire trace, no functional unit limits)");
    exit_if_degraded("table4", outcome.quarantined());
}
