//! Regenerates Figure 8 of the paper: window size vs. percent of total
//! available parallelism, one curve per benchmark, both axes logarithmic.
//!
//! Each point is a full DDG extraction with the instruction window bounded
//! at W contiguous trace instructions ("each point in the graph represents
//! a full DDG extraction and analysis"); the percent is relative to that
//! benchmark's unbounded dataflow limit. Conservative system calls, all
//! renaming enabled, as in the paper.
//!
//! A CSV matrix is written to `$PARAGRAPH_OUT/fig8.csv`.
//!
//! The (workload × window) grid — ten workloads, thirteen windows plus the
//! unbounded limit — runs through the sweep engine: each trace is decoded
//! once into the shared arena and the 140 cells fan out across
//! `PARAGRAPH_JOBS` worker threads. The sweep is restartable at cell
//! granularity (stage markers under `$PARAGRAPH_OUT/checkpoints/`, cleared
//! once the full sweep lands), and telemetry manifests go to
//! `$PARAGRAPH_OUT/fig8/telemetry/`.

use paragraph_bench::scheduler::{cell_manifest_json, sweep_manifest_json};
use paragraph_bench::{exit_if_degraded, run_grid, Study, SweepCell};
use paragraph_core::{AnalysisConfig, WindowSize};
use paragraph_workloads::WorkloadId;
use std::fs;
use std::io::Write as _;

/// Window sizes swept (powers of ten with intermediate points, as the
/// paper's log-scale x axis).
const WINDOWS: [usize; 13] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 1_024, 4_096, 16_384, 65_536,
];

/// Cells per workload: the window ladder plus the unbounded limit.
const LADDER: usize = WINDOWS.len() + 1;

fn main() -> std::io::Result<()> {
    let study = Study::from_env();
    fs::create_dir_all(study.out_dir())?;
    let telemetry_dir = study.out_dir().join("fig8").join("telemetry");
    fs::create_dir_all(&telemetry_dir)?;

    // Workload-major cell order: a worker chews through one workload's
    // ladder against one arena-resident trace before moving on.
    let mut cells = Vec::with_capacity(WorkloadId::ALL.len() * LADDER);
    for id in WorkloadId::ALL {
        for &w in &WINDOWS {
            cells.push(SweepCell::new(
                id,
                format!("w{w}"),
                AnalysisConfig::dataflow_limit().with_window(WindowSize::bounded(w)),
            ));
        }
        cells.push(SweepCell::new(id, "full", AnalysisConfig::dataflow_limit()));
    }
    let outcome = run_grid(&study, "fig8", &cells);

    let csv_path = study.out_dir().join("fig8.csv");
    let mut csv = fs::File::create(&csv_path)?;
    write!(csv, "window")?;
    for id in WorkloadId::ALL {
        write!(csv, ",{id}")?;
    }
    writeln!(csv)?;

    println!("Figure 8: Window Size vs Percent of Total Available Parallelism");
    println!();
    print!("{:>8}", "window");
    for id in WorkloadId::ALL {
        print!(" {:>9}", id.name());
    }
    println!();
    println!("{:-<108}", "");

    let mut percents = vec![Vec::new(); WorkloadId::ALL.len()];
    let mut absolutes = vec![Vec::new(); WorkloadId::ALL.len()];
    for (w_idx, id) in WorkloadId::ALL.into_iter().enumerate() {
        let ladder = &outcome.cells[w_idx * LADDER..(w_idx + 1) * LADDER];
        // Quarantined cells hole-punch the curve with NaN instead of
        // sinking the whole figure; the exit code reports the degradation.
        let full = ladder[LADDER - 1]
            .outcome()
            .map_or(f64::NAN, |c| c.metrics.parallelism);
        for result in ladder {
            let par = result.outcome().map_or(f64::NAN, |c| c.metrics.parallelism);
            absolutes[w_idx].push(par);
            percents[w_idx].push(100.0 * par / full);
        }
        // Per-workload telemetry: one manifest for the unbounded cell (the
        // workload's headline numbers) — the sweep manifest carries every
        // cell's timing.
        let manifest = telemetry_dir.join(format!("{id}.json"));
        if let Some(unbounded) = ladder[LADDER - 1].outcome() {
            paragraph_core::artifact::write_atomic_bytes(
                &manifest,
                cell_manifest_json(unbounded).as_bytes(),
            )?;
        }
        let ladder_wall: u64 = ladder
            .iter()
            .filter_map(|c| c.outcome())
            .map(|c| c.metrics.wall_ns)
            .sum();
        let analyzed = ladder[LADDER - 1]
            .outcome()
            .map_or(0, |c| c.metrics.records)
            * LADDER as u64;
        eprintln!(
            "fig8/{id}: {:.2}M records/s across the window ladder, telemetry manifest {}",
            if ladder_wall == 0 {
                0.0
            } else {
                analyzed as f64 / (ladder_wall as f64 / 1e9) / 1e6
            },
            manifest.display()
        );
    }

    for (row, &window) in WINDOWS.iter().enumerate() {
        print!("{window:>8}");
        write!(csv, "{window}")?;
        for col in 0..WorkloadId::ALL.len() {
            print!(" {:>8.2}%", percents[col][row]);
            write!(csv, ",{:.4}", percents[col][row])?;
        }
        println!();
        writeln!(csv)?;
    }
    print!("{:>8}", "inf");
    write!(csv, "inf")?;
    for _ in 0..WorkloadId::ALL.len() {
        print!(" {:>8.2}%", 100.0);
        write!(csv, ",100.0")?;
    }
    println!();
    writeln!(csv)?;
    csv.flush()?;

    println!();
    println!("absolute operations/cycle at window 128 (the paper: \"modest levels of");
    println!("parallelism ... can be obtained for all benchmarks with window sizes as");
    println!("small as 100 instructions\"):");
    let w128 = WINDOWS.iter().position(|&w| w == 128).unwrap();
    for (w_idx, id) in WorkloadId::ALL.into_iter().enumerate() {
        println!("  {:<11} {:>8.2}", id.name(), absolutes[w_idx][w128]);
    }
    println!();
    paragraph_core::artifact::write_atomic_bytes(
        &telemetry_dir.join("sweep.json"),
        sweep_manifest_json("fig8", &outcome).as_bytes(),
    )?;
    // Artifact-path diagnostics go to stderr, keeping stdout as the figure.
    eprintln!(
        "fig8: {} cells on {} worker(s) in {:.2}s (arena: {} decode(s), {} hit(s)); CSV matrix {}",
        outcome.cells.len(),
        outcome.jobs,
        outcome.wall_ns as f64 / 1e9,
        outcome.arena.misses,
        outcome.arena.hits,
        csv_path.display()
    );
    exit_if_degraded("fig8", outcome.quarantined());
    Ok(())
}
