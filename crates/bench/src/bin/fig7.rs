//! Regenerates Figure 7 of the paper: parallelism profiles for all ten
//! benchmarks (operations available per level of the topologically sorted
//! DDG, conservative system calls, all renaming enabled).
//!
//! One CSV series per benchmark is written to `$PARAGRAPH_OUT/fig7/`
//! (default `results/fig7/`), and a compact ASCII rendering of each profile
//! is printed — enough to see the paper's headline observation that
//! "parallelism is bursty, with periods of lots of parallelism followed by
//! periods of much less parallelism".
//!
//! The ten workloads run through the sweep engine: each trace is generated
//! once into the shared arena and the per-workload analysis cells fan out
//! across `PARAGRAPH_JOBS` worker threads (default: all cores). The sweep
//! is restartable at cell granularity — each completed workload leaves a
//! stage marker under `$PARAGRAPH_OUT/checkpoints/`, and a rerun after an
//! interrupt reuses it byte-for-byte instead of re-analyzing. Telemetry
//! manifests (per workload and for the sweep as a whole) land under
//! `$PARAGRAPH_OUT/fig7/telemetry/`.

use paragraph_bench::scheduler::{cell_manifest_json, sweep_manifest_json};
use paragraph_bench::{exit_if_degraded, parallelism, run_grid, Study, SweepCell};
use paragraph_core::AnalysisConfig;
use paragraph_workloads::WorkloadId;
use std::fs;
use std::io::BufWriter;

fn main() -> std::io::Result<()> {
    let study = Study::from_env();
    let dir = study.out_dir().join("fig7");
    let telemetry_dir = dir.join("telemetry");
    fs::create_dir_all(&dir)?;
    fs::create_dir_all(&telemetry_dir)?;

    let cells: Vec<SweepCell> = WorkloadId::ALL
        .into_iter()
        .map(|id| SweepCell::new(id, "dataflow", AnalysisConfig::dataflow_limit()))
        .collect();
    let outcome = run_grid(&study, "fig7", &cells);

    println!("Figure 7: Parallelism Profiles for the SPEC Benchmarks");
    // Quarantined cells are not rendered: every healthy workload's figure
    // still lands, and the exit code says the run was degraded.
    for cell in outcome.ok_cells() {
        let id = cell.workload;
        let path = dir.join(format!("{id}.csv"));
        cell.profile
            .write_csv(BufWriter::new(fs::File::create(&path)?))?;
        let manifest = telemetry_dir.join(format!("{id}.json"));
        paragraph_core::artifact::write_atomic_bytes(
            &manifest,
            cell_manifest_json(cell).as_bytes(),
        )?;
        // Diagnostics (throughput, artifact paths) go to stderr; stdout is
        // the figure itself.
        eprintln!(
            "fig7/{id}: {:.2}M records/s{}, telemetry manifest {}",
            records_per_sec(cell.metrics.records, cell.metrics.wall_ns) / 1e6,
            if cell.from_stage { " (restored)" } else { "" },
            manifest.display()
        );
        println!();
        println!(
            "{id} — {} levels, mean {} ops/level, burstiness (cv) {:.2}  [{}]",
            cell.metrics.critical_path,
            parallelism(cell.metrics.parallelism),
            cell.profile.burstiness(),
            path.display()
        );
        print!("{}", cell.profile.ascii_plot(72, 10));
    }
    paragraph_core::artifact::write_atomic_bytes(
        &telemetry_dir.join("sweep.json"),
        sweep_manifest_json("fig7", &outcome).as_bytes(),
    )?;
    eprintln!(
        "fig7: {} cells on {} worker(s) in {:.2}s (arena: {} decode(s), {} hit(s))",
        outcome.cells.len(),
        outcome.jobs,
        outcome.wall_ns as f64 / 1e9,
        outcome.arena.misses,
        outcome.arena.hits,
    );
    exit_if_degraded("fig7", outcome.quarantined());
    Ok(())
}

fn records_per_sec(records: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        records as f64 / (wall_ns as f64 / 1e9)
    }
}
