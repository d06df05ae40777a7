//! Machine-generation study (extension).
//!
//! The paper closes by asking what "the next several generations of
//! superscalar processors" can exploit of the parallelism it measures.
//! This study answers with the toolkit's machine presets: a ladder from a
//! scalar in-order pipeline through progressively wider out-of-order cores
//! up to the abstract dataflow machine, each a bundle of window size,
//! issue width, renaming, branch prediction and memory disambiguation.

use paragraph_bench::{exit_if_degraded, healthy, parallelism, run_grid, Study, SweepCell};
use paragraph_core::machine::Machine;
use paragraph_workloads::WorkloadId;

fn main() {
    let study = Study::from_env();
    let machines = Machine::generations();
    let cells: Vec<SweepCell> = WorkloadId::ALL
        .into_iter()
        .flat_map(|id| {
            machines
                .iter()
                .map(move |machine| SweepCell::new(id, machine.name(), machine.configure()))
        })
        .collect();
    let outcome = run_grid(&study, "machine_study", &cells);
    println!("Machine Generation Study: sustained operations per cycle");
    println!();
    for machine in &machines {
        println!("  {machine}");
    }
    println!();
    print!("{:<11}", "Benchmark");
    for machine in &machines {
        print!(" {:>10}", machine.name());
    }
    println!();
    println!("{:-<78}", "");
    for (id, row) in WorkloadId::ALL
        .into_iter()
        .zip(outcome.cells.chunks(machines.len()))
    {
        let Some(row) = healthy(row) else { continue };
        print!("{:<11}", id.name());
        for cell in row {
            print!(" {:>10}", parallelism(cell.metrics.parallelism));
        }
        println!();
    }
    println!();
    println!(
        "Each column is a machine generation; each row should rise toward the\n\
         dataflow limit. The gap between the widest practical machine and the\n\
         dataflow column is the paper's headline: exposing the measured\n\
         parallelism needs mechanisms beyond bigger windows."
    );
    exit_if_degraded("machine_study", outcome.quarantined());
}
