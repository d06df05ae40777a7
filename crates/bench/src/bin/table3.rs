//! Regenerates Table 3 of the paper: SPEC benchmark dataflow results.
//!
//! For each benchmark, the dataflow limit (all renaming on, infinite
//! window) is measured twice: with **conservative** system calls (each call
//! firewalls the graph) and with **optimistic** system calls (calls are
//! ignored). The paper's "Maximum Measurement Error" column is the relative
//! gap between the two available-parallelism figures — the uncertainty band
//! within which the true value lies.
//!
//! The grid is two cells per workload on the sweep engine; a row with a
//! quarantined cell is left out and the run exits 6.

use paragraph_bench::{
    exit_if_degraded, healthy, parallelism, report_count, run_grid, thousands, Study, SweepCell,
};
use paragraph_core::{AnalysisConfig, SyscallPolicy};
use paragraph_workloads::WorkloadId;

fn main() {
    let study = Study::from_env();
    let cells: Vec<SweepCell> = WorkloadId::ALL
        .into_iter()
        .flat_map(|id| {
            [
                SweepCell::new(id, "conservative", AnalysisConfig::dataflow_limit()),
                SweepCell::new(
                    id,
                    "optimistic",
                    AnalysisConfig::dataflow_limit().with_syscall_policy(SyscallPolicy::Optimistic),
                ),
            ]
        })
        .collect();
    let outcome = run_grid(&study, "table3", &cells);
    println!("Table 3: SPEC Benchmark Dataflow Results");
    println!();
    println!(
        "{:<11} {:>8} | {:>14} {:>12} | {:>14} {:>12} | {:>7}",
        "Benchmark", "System", "Conservative", "", "Optimistic", "", "Max"
    );
    println!(
        "{:<11} {:>8} | {:>14} {:>12} | {:>14} {:>12} | {:>7}",
        "Name", "Calls", "Crit Path", "Avail Par", "Crit Path", "Avail Par", "Error"
    );
    println!("{:-<92}", "");
    for (id, pair) in WorkloadId::ALL.into_iter().zip(outcome.cells.chunks(2)) {
        let Some(&[conservative, optimistic]) = healthy(pair).as_deref() else {
            continue;
        };
        let cons_par = conservative.metrics.parallelism;
        let opt_par = optimistic.metrics.parallelism;
        let error = if opt_par > 0.0 {
            (opt_par - cons_par).abs() / opt_par
        } else {
            0.0
        };
        println!(
            "{:<11} {:>8} | {:>14} {:>12} | {:>14} {:>12} | {:>7.2}",
            id.name(),
            thousands(report_count(conservative, "syscalls").unwrap_or(0)),
            thousands(conservative.metrics.critical_path),
            parallelism(cons_par),
            thousands(optimistic.metrics.critical_path),
            parallelism(opt_par),
            error
        );
    }
    println!();
    println!("(all renaming enabled, window = entire trace, no functional unit limits)");
    exit_if_degraded("table3", outcome.quarantined());
}
