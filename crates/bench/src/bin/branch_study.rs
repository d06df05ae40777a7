//! Branch prediction study (extension; §3.2 of the paper).
//!
//! The paper's tables assume perfect control flow and note that "the branch
//! predictors currently available are not accurate enough to expose even
//! hundreds of instructions"; its firewall mechanism "can also be used to
//! represent the effect of a mispredicted conditional branch". This study
//! runs that mechanism: each workload is analyzed under a ladder of branch
//! policies from serial fetch (stall on every branch) through static and
//! dynamic predictors up to perfect control flow, with all renaming enabled
//! and an infinite window — the bridge between this paper's limits and the
//! branch-limited results of Wall (ASPLOS 1991) that it cites.

use paragraph_bench::{
    exit_if_degraded, healthy, parallelism, report_count, run_grid, Study, SweepCell,
};
use paragraph_core::branch::{BranchPolicy, PredictorKind};
use paragraph_core::AnalysisConfig;
use paragraph_workloads::WorkloadId;

fn policies() -> Vec<(&'static str, BranchPolicy)> {
    vec![
        ("stall", BranchPolicy::StallAlways),
        (
            "never-taken",
            BranchPolicy::Predict(PredictorKind::NeverTaken),
        ),
        (
            "always-taken",
            BranchPolicy::Predict(PredictorKind::AlwaysTaken),
        ),
        ("btfn", BranchPolicy::Predict(PredictorKind::Btfn)),
        (
            "bimodal-12",
            BranchPolicy::Predict(PredictorKind::Bimodal { index_bits: 12 }),
        ),
        (
            "gshare-12",
            BranchPolicy::Predict(PredictorKind::Gshare { index_bits: 12 }),
        ),
        ("perfect", BranchPolicy::Perfect),
    ]
}

fn main() {
    let study = Study::from_env();
    let policies = policies();
    let cells: Vec<SweepCell> = WorkloadId::ALL
        .into_iter()
        .flat_map(|id| {
            policies.iter().map(move |&(name, policy)| {
                SweepCell::new(
                    id,
                    name,
                    AnalysisConfig::dataflow_limit().with_branch_policy(policy),
                )
            })
        })
        .collect();
    let outcome = run_grid(&study, "branch_study", &cells);

    println!("Branch Prediction Study: available parallelism under branch policies");
    println!("(all renaming enabled, infinite window, conservative syscalls)");
    println!();
    print!("{:<11}", "Benchmark");
    for (name, _) in &policies {
        print!(" {:>12}", name);
    }
    println!(" {:>10}", "accuracy*");
    println!("{:-<114}", "");
    let gshare = policies.iter().position(|&(name, _)| name == "gshare-12");
    for (id, row) in WorkloadId::ALL
        .into_iter()
        .zip(outcome.cells.chunks(policies.len()))
    {
        let Some(row) = healthy(row) else { continue };
        print!("{:<11}", id.name());
        for cell in &row {
            print!(" {:>12}", parallelism(cell.metrics.parallelism));
        }
        // The predictor's accuracy, as `Predictor::accuracy` computes it.
        let accuracy = gshare.and_then(|i| {
            let predictions = report_count(row[i], "branch_predictions")?;
            let mispredictions = report_count(row[i], "branch_mispredictions")?;
            Some(if predictions == 0 {
                1.0
            } else {
                1.0 - mispredictions as f64 / predictions as f64
            })
        });
        match accuracy {
            Some(acc) => println!(" {:>9.2}%", 100.0 * acc),
            None => println!(" {:>10}", "-"),
        }
    }
    println!();
    println!("* prediction accuracy of the gshare-12 predictor on that benchmark");
    println!();
    println!(
        "The expected shape: the stall column collapses everything toward the\n\
         per-branch-resolution serial bound; accuracy buys parallelism back in\n\
         order (static < bimodal < gshare < perfect), and the gap between the\n\
         best predictor and perfect control flow is the paper's point that\n\
         \"other methods of exposing independent instructions ... will be\n\
         required\"."
    );
    exit_if_degraded("branch_study", outcome.quarantined());
}
