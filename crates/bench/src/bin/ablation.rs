//! Ablation studies beyond the paper's tables, for the design choices
//! DESIGN.md calls out:
//!
//! 1. **Latency model** — Table 1 latencies vs. unit latencies: how much of
//!    the critical path is operation latency rather than graph shape.
//! 2. **Syscall policy under a bounded window** — firewalls interact with
//!    the window; this quantifies the conservative-policy cost at realistic
//!    window sizes.
//! 3. **Functional-unit throttling (Figure 4 generalized)** — list-schedule
//!    each workload's explicit DDG onto 1..64 generic units and report the
//!    achieved operations/cycle, locating the knee where resources stop
//!    mattering. Uses reduced problem sizes (the explicit graph is
//!    materialized in memory).
//!
//! Parts 1 and 2 are one grid of four cells per workload on the sweep
//! engine; part 3 needs the explicit graph and builds it directly.

use paragraph_bench::{exit_if_degraded, healthy, parallelism, run_grid, Study, SweepCell};
use paragraph_core::schedule::{schedule, ResourceModel};
use paragraph_core::{AnalysisConfig, Ddg, LatencyModel, SyscallPolicy, WindowSize};
use paragraph_workloads::{Workload, WorkloadId};

fn main() {
    let study = Study::from_env();
    let cells: Vec<SweepCell> = WorkloadId::ALL
        .into_iter()
        .flat_map(|id| {
            let base = AnalysisConfig::dataflow_limit();
            let windowed = base.clone().with_window(WindowSize::bounded(1024));
            [
                SweepCell::new(id, "table1", base.clone()),
                SweepCell::new(id, "unit", base.with_latency(LatencyModel::unit())),
                SweepCell::new(id, "w1k-conservative", windowed.clone()),
                SweepCell::new(
                    id,
                    "w1k-optimistic",
                    windowed.with_syscall_policy(SyscallPolicy::Optimistic),
                ),
            ]
        })
        .collect();
    let outcome = run_grid(&study, "ablation", &cells);
    // Workloads with a quarantined cell are left out of both parts.
    let rows: Vec<_> = WorkloadId::ALL
        .into_iter()
        .zip(outcome.cells.chunks(4))
        .filter_map(|(id, row)| Some((id, healthy(row)?)))
        .collect();

    println!("Ablation 1: Table 1 latencies vs unit latencies (dataflow limit)");
    println!();
    println!(
        "{:<11} {:>14} {:>14} {:>14} {:>14}",
        "Benchmark", "CP (table1)", "CP (unit)", "Par (table1)", "Par (unit)"
    );
    println!("{:-<72}", "");
    for (id, row) in &rows {
        println!(
            "{:<11} {:>14} {:>14} {:>14} {:>14}",
            id.name(),
            row[0].metrics.critical_path,
            row[1].metrics.critical_path,
            parallelism(row[0].metrics.parallelism),
            parallelism(row[1].metrics.parallelism),
        );
    }

    println!();
    println!("Ablation 2: syscall policy at window 1024 (conservative vs optimistic)");
    println!();
    println!(
        "{:<11} {:>16} {:>16} {:>9}",
        "Benchmark", "Par (conserv.)", "Par (optim.)", "Ratio"
    );
    println!("{:-<56}", "");
    for (id, row) in &rows {
        let cons = row[2].metrics.parallelism;
        let opt = row[3].metrics.parallelism;
        println!(
            "{:<11} {:>16} {:>16} {:>9.3}",
            id.name(),
            parallelism(cons),
            parallelism(opt),
            if cons > 0.0 { opt / cons } else { 0.0 }
        );
    }

    println!();
    println!("Ablation 3: functional-unit throttling (ops/cycle on K generic units,");
    println!("            explicit DDG at reduced size, Table 1 latencies)");
    println!();
    let units = [1usize, 2, 4, 8, 16, 32, 64];
    print!("{:<11}", "Benchmark");
    for u in units {
        print!(" {:>8}", format!("{u}u"));
    }
    println!(" {:>9}", "dataflow");
    println!("{:-<84}", "");
    for id in WorkloadId::ALL {
        let size = (id.default_size() / 4).max(2);
        let workload = Workload::new(id).with_size(size);
        let (records, segments) = workload
            .collect_trace(400_000)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let config = AnalysisConfig::dataflow_limit().with_segments(segments);
        let ddg = Ddg::from_records(&records, &config);
        print!("{:<11}", id.name());
        for u in units {
            let result = schedule(&ddg, ResourceModel::units(u), &LatencyModel::paper());
            print!(" {:>8.2}", result.ops_per_cycle());
        }
        println!(" {:>9.2}", ddg.available_parallelism());
    }
    println!();
    println!("(each row should rise with K and saturate at the dataflow limit)");
    exit_if_degraded("ablation", outcome.quarantined());
}
