//! Window × renaming interaction study (extension).
//!
//! Figure 8 sweeps the window with *all* renaming enabled, and Table 4
//! sweeps renaming with an *infinite* window. This study crosses the two
//! axes: at practical window sizes, does memory renaming still matter, or
//! does the window bind first? The paper's conclusion — that exposing the
//! big numbers "requires large instruction windows as well as the ability
//! to rename both registers and memory" — implies both constraints must be
//! relaxed together; this table shows the interaction explicitly.

use paragraph_bench::{exit_if_degraded, healthy, parallelism, run_grid, Study, SweepCell};
use paragraph_core::{AnalysisConfig, RenameSet, WindowSize};
use paragraph_workloads::WorkloadId;

const WINDOWS: [usize; 3] = [32, 1024, 32_768];

fn main() {
    let study = Study::from_env();
    let mut cells = Vec::new();
    for id in WorkloadId::ALL {
        for window in WINDOWS
            .iter()
            .map(|&w| WindowSize::bounded(w))
            .chain([WindowSize::Infinite])
        {
            for (renaming, renames) in
                [("r", RenameSet::registers_only()), ("rm", RenameSet::all())]
            {
                cells.push(SweepCell::new(
                    id,
                    format!("{window}-{renaming}"),
                    AnalysisConfig::dataflow_limit()
                        .with_window(window)
                        .with_renames(renames),
                ));
            }
        }
    }
    let outcome = run_grid(&study, "window_renaming_study", &cells);
    println!("Window x Renaming Interaction: available parallelism");
    println!("(conservative syscalls; r = registers renamed, rm = registers+memory)");
    println!();
    print!("{:<11}", "Benchmark");
    for w in WINDOWS {
        print!(" {:>9} {:>9}", format!("{w} r"), format!("{w} rm"));
    }
    println!(" {:>9} {:>9}", "inf r", "inf rm");
    println!("{:-<96}", "");
    for (id, row) in WorkloadId::ALL
        .into_iter()
        .zip(outcome.cells.chunks(2 * (WINDOWS.len() + 1)))
    {
        let Some(row) = healthy(row) else { continue };
        print!("{:<11}", id.name());
        for cell in row {
            print!(" {:>9}", parallelism(cell.metrics.parallelism));
        }
        println!();
    }
    println!();
    println!(
        "Reading across a row: at small windows the r and rm columns agree —\n\
         the window binds before storage reuse does — and the renaming gap\n\
         only opens once the window is large. Both constraints must be\n\
         relaxed together, as the paper's summary says."
    );
    exit_if_degraded("window_renaming_study", outcome.quarantined());
}
