//! Shared harness for the table/figure regeneration binaries.
//!
//! Every table and figure of the paper's evaluation section has a dedicated
//! binary in `src/bin/`:
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table 1 — instruction class operation times |
//! | `table2` | Table 2 — benchmark inventory and trace lengths |
//! | `table3` | Table 3 — dataflow limit (conservative vs. optimistic syscalls) |
//! | `table4` | Table 4 — available parallelism under renaming conditions |
//! | `fig7`   | Figure 7 — parallelism profiles (CSV series + ASCII plots) |
//! | `fig8`   | Figure 8 — window size vs. percent of available parallelism |
//! | `ablation` | extra studies: latency model, firewalls, functional units |
//! | `branch_study` | extension — branch policies from serial fetch to perfect |
//! | `alias_study` | extension — perfect vs. no memory disambiguation |
//! | `machine_study` | extension — named machine generations, scalar → dataflow |
//! | `lifetime_study` | §2.3 — value lifetime and sharing distributions |
//! | `storage_study` | §2.3 — storage occupancy of the dataflow execution |
//! | `phase_study` | the paper's open question — per-phase parallelism |
//! | `seed_study` | reproduction methodology — input-seed sensitivity |
//! | `growth_study` | parallelism accumulation vs. trace length |
//! | `window_renaming_study` | window × renaming interaction |
//!
//! Run them with `cargo run --release -p paragraph-bench --bin table3`.
//! Environment knobs:
//!
//! * `PARAGRAPH_FUEL` — dynamic-instruction cap per run (default 100M, the
//!   paper's trace cap; the default workloads run to completion well below
//!   it).
//! * `PARAGRAPH_SCALE` — percentage applied to every workload's default
//!   problem size (e.g. `50` halves them; useful for quick smoke runs).
//! * `PARAGRAPH_OUT` — directory for CSV artifacts (default `results`).
//! * `PARAGRAPH_JOBS` — sweep worker threads (default: all cores).
//!
//! Every experiment that analyzes one trace under several configurations
//! is a grid of [`SweepCell`]s run by [`run_grid`] on the sweep engine
//! ([`run_sweep`]: decode once, supervised cells, restartable stages),
//! plus a renderer that reads the cells in order. `table2` and
//! `lifetime_study` measure one configuration through [`Study::measure`];
//! `growth_study` samples one streaming pass; `storage_study` and the
//! scheduling part of `ablation` build the explicit `Ddg`.

use paragraph_core::telemetry::tracefmt;
use paragraph_core::{AnalysisConfig, AnalysisReport, LiveWell, Policy, Run};
use paragraph_trace::InternedTrace;
use paragraph_vm::RunOutcome;
use paragraph_workloads::{Workload, WorkloadId};
use std::fs;
use std::path::PathBuf;

pub mod arena;
pub mod scheduler;
pub mod supervisor;

pub use arena::{ArenaStats, ArenaTrace, TraceArena};
pub use scheduler::{
    run_sweep, CellMetrics, CellOutcome, CellResult, SweepCell, SweepOptions, SweepOutcome,
};
pub use supervisor::{CellError, CellStatus, FaultSpec};

/// Study-wide settings, read from the environment.
#[derive(Debug, Clone)]
pub struct Study {
    fuel: u64,
    scale_percent: u32,
    out_dir: PathBuf,
    size_override: Option<u32>,
    seed_override: Option<u64>,
}

impl Study {
    /// Reads `PARAGRAPH_FUEL`, `PARAGRAPH_SCALE` and `PARAGRAPH_OUT`.
    pub fn from_env() -> Study {
        let fuel = std::env::var("PARAGRAPH_FUEL")
            .ok()
            .and_then(|v| v.replace('_', "").parse().ok())
            .unwrap_or(paragraph_vm::DEFAULT_FUEL);
        let scale_percent = std::env::var("PARAGRAPH_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(100)
            .max(1);
        let out_dir = std::env::var("PARAGRAPH_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        Study::new(fuel, scale_percent, out_dir)
    }

    /// Builds a study with explicit settings (the CLI front end parses its
    /// own flags instead of the environment).
    pub fn new(fuel: u64, scale_percent: u32, out_dir: PathBuf) -> Study {
        Study {
            fuel,
            scale_percent: scale_percent.max(1),
            out_dir,
            size_override: None,
            seed_override: None,
        }
    }

    /// Forces every workload to problem size `size` (the CLI's `--size`),
    /// instead of the scaled per-workload default.
    #[must_use]
    pub fn with_size_override(mut self, size: Option<u32>) -> Study {
        self.size_override = size;
        self
    }

    /// Forces every workload's input seed (the CLI's `--seed`).
    #[must_use]
    pub fn with_seed_override(mut self, seed: Option<u64>) -> Study {
        self.seed_override = seed;
        self
    }

    /// The dynamic-instruction cap per run.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// Directory CSV artifacts are written to.
    pub fn out_dir(&self) -> &PathBuf {
        &self.out_dir
    }

    /// The workload instance this study uses for `id`.
    pub fn workload(&self, id: WorkloadId) -> Workload {
        let size = self.size_override.unwrap_or_else(|| {
            (u64::from(id.default_size()) * u64::from(self.scale_percent) / 100).max(1) as u32
        });
        let workload = Workload::new(id).with_size(size);
        match self.seed_override {
            Some(seed) => workload.with_seed(seed),
            None => workload,
        }
    }

    /// Runs `id` once, feeding its VM trace through the [`Run`] driver into
    /// an analyzer configured by `config` (with the workload's segment map
    /// applied). Returns the analysis report and the run outcome.
    ///
    /// # Panics
    ///
    /// Panics on VM faults — the workloads are deterministic and fault-free,
    /// so a fault is a generator bug the test suite would catch.
    pub fn measure(&self, id: WorkloadId, config: &AnalysisConfig) -> (AnalysisReport, RunOutcome) {
        let workload = self.workload(id);
        let mut vm = workload.vm();
        let config = config.clone().with_segments(vm.segment_map());
        let mut analyzer = LiveWell::new(config);
        let (outcome, _) = Run::new(&mut analyzer, Policy::default())
            .vm(|record| vm.run_traced(self.fuel, record));
        let outcome = outcome.unwrap_or_else(|e| panic!("{id}: {e}"));
        (analyzer.finish(), outcome)
    }

    /// Captures `id`'s trace in memory, interned, for multi-configuration
    /// studies, so the VM runs once per workload instead of once per
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`CellError::Vm`] on a VM fault. The workloads are deterministic and
    /// fault-free, so in practice this only fires under fault injection or
    /// a generator bug — but a sweep must degrade to a quarantined cell
    /// either way, never die.
    pub fn collect_interned(&self, id: WorkloadId) -> Result<InternedTrace, CellError> {
        self.workload(id)
            .collect_interned(self.fuel)
            .map_err(|e| CellError::Vm(format!("{id}: {e}")))
    }

    /// The directory sweep stage markers live in.
    pub(crate) fn checkpoints_dir(&self) -> PathBuf {
        self.out_dir.join("checkpoints")
    }

    /// Path of a completed-stage marker for `study`/`key` (used to make
    /// multi-workload sweeps restartable at workload granularity).
    fn stage_file(&self, study: &str, key: &str) -> PathBuf {
        self.checkpoints_dir().join(format!("{study}-{key}.row"))
    }

    /// Loads a previously stored stage result, if one exists.
    pub fn load_stage(&self, study: &str, key: &str) -> Option<String> {
        fs::read_to_string(self.stage_file(study, key)).ok()
    }

    /// Stores a completed stage result so an interrupted sweep can skip the
    /// stage on restart. Written through the shared crash-consistent helper
    /// ([`paragraph_core::artifact`]): unique temp name, synced, renamed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn store_stage(&self, study: &str, key: &str, data: &str) -> std::io::Result<()> {
        paragraph_core::artifact::write_atomic_bytes(&self.stage_file(study, key), data.as_bytes())
    }

    /// Deletes every stage marker of `study` after a sweep completes, so the
    /// next full run starts fresh.
    pub fn clear_stages(&self, study: &str) {
        let Ok(entries) = fs::read_dir(self.out_dir.join("checkpoints")) else {
            return;
        };
        let prefix = format!("{study}-");
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(&prefix) && name.ends_with(".row") {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

impl Default for Study {
    fn default() -> Study {
        Study::from_env()
    }
}

/// Worker-thread count for the sweep drivers: `PARAGRAPH_JOBS`, or `0`
/// (auto: all cores) when unset or unparsable.
pub fn jobs_from_env() -> usize {
    std::env::var("PARAGRAPH_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Runs one experiment's grid as the sweep `name` on [`jobs_from_env`]
/// workers, with the engine's default supervision and stage markers; the
/// engine names each quarantined cell on stderr. The results are in cell
/// order; the renderer reads them a row at a time through [`healthy`],
/// and the binary ends with [`exit_if_degraded`].
pub fn run_grid(study: &Study, name: &str, cells: &[SweepCell]) -> SweepOutcome {
    let opts = SweepOptions {
        jobs: jobs_from_env(),
        ..SweepOptions::default()
    };
    run_sweep(study, name, cells, &opts)
}

/// The outcomes of one row of a grid, or `None` when a cell of it was
/// quarantined: a degraded table leaves that row out.
pub fn healthy(row: &[CellResult]) -> Option<Vec<&CellOutcome>> {
    row.iter().map(CellResult::outcome).collect()
}

/// Exits with status 6, the degraded-sweep code, when `quarantined` cells
/// of `name`'s grids were left out of its output (`docs/supervision.md`).
pub fn exit_if_degraded(name: &str, quarantined: usize) {
    if quarantined > 0 {
        eprintln!("{name}: {quarantined} cell(s) quarantined; the output is incomplete");
        std::process::exit(6);
    }
}

/// A count from a cell's report JSON (`syscalls`, `branch_predictions`,
/// ...); `None` when the report lacks it.
pub fn report_count(cell: &CellOutcome, key: &str) -> Option<u64> {
    tracefmt::parse_json(&cell.report_json)
        .ok()?
        .get(key)?
        .as_u64()
}

/// Formats `n` with thousands separators, as the paper's tables do.
pub fn thousands(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats an available-parallelism value in the paper's style (two decimal
/// places, thousands separators on the integer part).
pub fn parallelism(p: f64) -> String {
    let scaled = (p * 100.0).round() as u64;
    format!("{}.{:02}", thousands(scaled / 100), scaled % 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_grouping() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1000), "1,000");
        assert_eq!(thousands(23302), "23,302");
        assert_eq!(thousands(1234567890), "1,234,567,890");
    }

    #[test]
    fn parallelism_formatting() {
        assert_eq!(parallelism(13.28), "13.28");
        assert_eq!(parallelism(23302.6), "23,302.60");
        assert_eq!(parallelism(0.5), "0.50");
        assert_eq!(parallelism(0.999), "1.00");
    }

    fn temp_study(tag: &str) -> Study {
        let out =
            std::env::temp_dir().join(format!("paragraph-bench-test-{tag}-{}", std::process::id()));
        Study::new(200_000, 5, out)
    }

    #[test]
    fn stages_store_and_clear() {
        let study = temp_study("stage");
        assert!(study.load_stage("s", "a").is_none());
        study.store_stage("s", "a", "1,2,3").unwrap();
        assert_eq!(study.load_stage("s", "a").as_deref(), Some("1,2,3"));
        study.clear_stages("s");
        assert!(study.load_stage("s", "a").is_none());
        let _ = fs::remove_dir_all(study.out_dir());
    }

    #[test]
    fn study_workload_uses_default_size_at_full_scale() {
        let study = Study::new(1000, 100, PathBuf::from("results"));
        assert_eq!(
            study.workload(WorkloadId::Xlisp).size(),
            WorkloadId::Xlisp.default_size()
        );
        let half = Study::new(1000, 50, PathBuf::from("results"));
        assert_eq!(
            half.workload(WorkloadId::Xlisp).size(),
            WorkloadId::Xlisp.default_size() / 2
        );
        let forced = study.with_size_override(Some(7));
        assert_eq!(forced.workload(WorkloadId::Xlisp).size(), 7);
    }
}
