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
//!
//! The `benches/` directory holds Criterion performance benchmarks of the
//! toolkit itself (analyzer and VM throughput), not paper experiments.

use paragraph_core::run::RunSink;
use paragraph_core::{analyze_refs, AnalysisConfig, AnalysisReport, LiveWell, Policy, Run};
use paragraph_trace::{InternedTrace, SegmentMap, TraceRecord};
use paragraph_vm::RunOutcome;
use paragraph_workloads::{Workload, WorkloadId};
use std::fs;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod arena;
pub mod scheduler;
pub mod supervisor;

pub use arena::{ArenaStats, ArenaTrace, TraceArena};
pub use scheduler::{
    run_sweep, CellMetrics, CellOutcome, CellResult, SweepCell, SweepOptions, SweepOutcome,
};
pub use supervisor::{CellError, CellStatus, FaultSpec};

/// Records between harness checkpoints in [`Study::measure_restartable`].
pub const CHECKPOINT_EVERY: u64 = 1_000_000;

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

    /// Runs `id` once, streaming the trace through an analyzer configured by
    /// `config` (with the workload's segment map applied). Returns the
    /// analysis report and the run outcome.
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
        let outcome = vm
            .run_traced(self.fuel, |record| {
                analyzer.process(record);
            })
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        (analyzer.finish(), outcome)
    }

    /// Captures `id`'s trace in memory for multi-configuration studies, so
    /// the VM runs once per workload instead of once per configuration.
    ///
    /// # Errors
    ///
    /// [`CellError::Vm`] on a VM fault, as for
    /// [`collect_interned`](Study::collect_interned).
    pub fn collect(&self, id: WorkloadId) -> Result<(Vec<TraceRecord>, SegmentMap), CellError> {
        self.workload(id)
            .collect_trace(self.fuel)
            .map_err(|e| CellError::Vm(format!("{id}: {e}")))
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

    fn checkpoint_file(&self, study: &str, id: WorkloadId) -> PathBuf {
        self.checkpoints_dir().join(format!("{study}-{id}.pgcp"))
    }

    /// The directory harness checkpoints and stage markers live in.
    pub(crate) fn checkpoints_dir(&self) -> PathBuf {
        self.out_dir.join("checkpoints")
    }

    /// Like [`Study::measure`], but restartable: analyzer state is
    /// checkpointed every [`CHECKPOINT_EVERY`] records under
    /// `<out_dir>/checkpoints/`, and a run that finds a matching checkpoint
    /// resumes from it instead of re-analyzing from the start (the workload
    /// replays deterministically; already-analyzed records are skipped).
    /// The checkpoint is deleted on successful completion. A checkpoint that
    /// fails to load — e.g. taken under a different configuration — is
    /// ignored and the analysis starts over.
    ///
    /// # Panics
    ///
    /// Panics on VM faults, as for [`Study::measure`].
    pub fn measure_restartable(
        &self,
        study: &str,
        id: WorkloadId,
        config: &AnalysisConfig,
    ) -> (AnalysisReport, RunOutcome) {
        let (report, outcome, _) = self.measure_restartable_instrumented(study, id, config);
        (report, outcome)
    }

    /// [`Study::measure_restartable`] plus a [`RunTelemetry`] record of how
    /// the run itself went — wall time, throughput, checkpoint activity —
    /// for the sweeps' per-workload telemetry manifests.
    ///
    /// # Panics
    ///
    /// Panics on VM faults, as for [`Study::measure`].
    pub fn measure_restartable_instrumented(
        &self,
        study: &str,
        id: WorkloadId,
        config: &AnalysisConfig,
    ) -> (AnalysisReport, RunOutcome, RunTelemetry) {
        let workload = self.workload(id);
        let mut vm = workload.vm();
        let config = config.clone().with_segments(vm.segment_map());
        let path = self.checkpoint_file(study, id);

        let mut analyzer = None;
        if let Ok(file) = fs::File::open(&path) {
            match LiveWell::resume_from(BufReader::new(file), config.clone()) {
                Ok(resumed) => {
                    eprintln!(
                        "{study}/{id}: resuming from {} at record {}",
                        path.display(),
                        resumed.records_processed()
                    );
                    analyzer = Some(resumed);
                }
                Err(e) => {
                    eprintln!("{study}/{id}: ignoring checkpoint {}: {e}", path.display());
                }
            }
        }
        let mut analyzer = analyzer.unwrap_or_else(|| LiveWell::new(config));
        let skip = analyzer.records_processed();

        let started = Instant::now();
        let mut checkpoints = CheckpointFile {
            path: &path,
            scope: format!("{study}/{id}"),
            written: 0,
            failed: false,
        };
        let policy = Policy {
            checkpoint_every: Some(CHECKPOINT_EVERY),
            ..Policy::with_sink(&mut checkpoints)
        };
        // The workload replays deterministically: the driver drops the
        // records a resumed analyzer has already seen.
        let (outcome, _) =
            Run::new(&mut analyzer, policy).vm(|record| vm.run_traced(self.fuel, record));
        let outcome = outcome.unwrap_or_else(|e| panic!("{id}: {e}"));
        let checkpoints_written = checkpoints.written;
        let _ = fs::remove_file(&path);
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let analyzed = analyzer.records_processed().saturating_sub(skip);
        let telemetry = RunTelemetry {
            records_analyzed: analyzed,
            wall_ns,
            records_per_sec: if wall_ns == 0 {
                0.0
            } else {
                analyzed as f64 / (wall_ns as f64 / 1e9)
            },
            checkpoints_written,
            resumed_at: (skip > 0).then_some(skip),
            window_stalls: analyzer.window_stalls(),
        };
        (analyzer.finish(), outcome, telemetry)
    }

    /// Writes a per-workload telemetry manifest under
    /// `<out_dir>/<study>/telemetry/<id>.json` and returns its path. The
    /// manifest joins the run's [`RunTelemetry`] with the report's headline
    /// figures, so sweep throughput can be compared run over run.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_run_manifest(
        &self,
        study: &str,
        id: WorkloadId,
        report: &AnalysisReport,
        telemetry: &RunTelemetry,
    ) -> std::io::Result<PathBuf> {
        let dir = self.out_dir.join(study).join("telemetry");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{id}.json"));
        fs::write(&path, run_manifest_json(id, report, telemetry))?;
        Ok(path)
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

/// How one instrumented harness run went: wall time, throughput, and
/// checkpoint/resume activity. Produced by
/// [`Study::measure_restartable_instrumented`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunTelemetry {
    /// Records analyzed by *this* process (excludes records skipped after a
    /// resume).
    pub records_analyzed: u64,
    /// Wall-clock nanoseconds of the trace-and-analyze loop.
    pub wall_ns: u64,
    /// Analysis throughput in records per second.
    pub records_per_sec: f64,
    /// Checkpoints successfully written during the run.
    pub checkpoints_written: u64,
    /// Record index a prior checkpoint resumed from, if any.
    pub resumed_at: Option<u64>,
    /// Times the instruction window constrained placement (since start or
    /// resume; see [`LiveWell::window_stalls`]).
    pub window_stalls: u64,
}

/// Renders a per-workload telemetry manifest as a single JSON object.
pub fn run_manifest_json(
    id: WorkloadId,
    report: &AnalysisReport,
    telemetry: &RunTelemetry,
) -> String {
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"records\":{},\"placed\":{},",
            "\"critical_path\":{},\"parallelism\":{:.6},",
            "\"live_well_evictions\":{},\"records_analyzed\":{},",
            "\"wall_ns\":{},\"records_per_sec\":{:.2},",
            "\"checkpoints_written\":{},\"resumed_at\":{},",
            "\"window_stalls\":{}}}\n"
        ),
        id.name(),
        report.total_records(),
        report.placed_ops(),
        report.critical_path_length(),
        report.available_parallelism(),
        report.live_well_evictions(),
        telemetry.records_analyzed,
        telemetry.wall_ns,
        telemetry.records_per_sec,
        telemetry.checkpoints_written,
        telemetry
            .resumed_at
            .map_or("null".to_owned(), |v| v.to_string()),
        telemetry.window_stalls,
    )
}

/// The harness's checkpoint sink. Checkpointing is best-effort: after the
/// first failed save the analysis continues without.
struct CheckpointFile<'a> {
    path: &'a Path,
    scope: String,
    written: u64,
    failed: bool,
}

impl RunSink for CheckpointFile<'_> {
    fn checkpoint(&mut self, well: &LiveWell) {
        if self.failed {
            return;
        }
        match write_checkpoint_atomic(well, self.path) {
            Ok(()) => self.written += 1,
            Err(e) => {
                eprintln!("{}: checkpoint failed, continuing without: {e}", self.scope);
                self.failed = true;
            }
        }
    }
}

/// Writes a checkpoint to `path` through the shared crash-consistent
/// helper: unique temp name, `sync_all`, rename, parent-directory fsync.
/// One implementation serves the harness and the CLI — see
/// [`paragraph_core::artifact::write_atomic`].
fn write_checkpoint_atomic(analyzer: &LiveWell, path: &Path) -> std::io::Result<()> {
    paragraph_core::artifact::write_atomic(path, |out| {
        analyzer
            .save_checkpoint(out)
            .map_err(|e| std::io::Error::other(e.to_string()))
    })
}

impl Default for Study {
    fn default() -> Study {
        Study::from_env()
    }
}

/// Analyzes one captured trace under many configurations concurrently,
/// one OS thread per configuration (the trace is shared read-only). Order
/// of the results matches `configs`.
///
/// Multi-configuration studies (Table 4's four renaming conditions, Figure
/// 8's window ladder) are embarrassingly parallel across configurations;
/// this keeps the harness wall-clock close to the slowest single analysis.
pub fn analyze_many(records: &[TraceRecord], configs: &[AnalysisConfig]) -> Vec<AnalysisReport> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = configs
            .iter()
            .map(|config| scope.spawn(move || analyze_refs(records, config)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(report) => report,
                // Surface the analysis panic on the caller's thread with
                // its original payload instead of a generic message.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

/// Worker-thread count for the sweep drivers: `PARAGRAPH_JOBS`, or `0`
/// (auto: all cores) when unset or unparsable.
pub fn jobs_from_env() -> usize {
    std::env::var("PARAGRAPH_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The core count visible to this process, as recorded in bench rows.
/// Wall-clock numbers from differently-sized boxes are not comparable —
/// `paragraph profile --bench-compare` only gates rows whose core counts
/// match — so every row carries where it came from.
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Appends one JSONL row to a bench history file (`BENCH.hotpath.json`,
/// `BENCH.sweep.json`). Each harness run adds a row; the files are the
/// repo's perf trajectory and feed `paragraph profile --bench-compare`.
/// A trailing newline is added when the row lacks one, and an `"nproc"`
/// field recording [`nproc`] is injected when the row does not already
/// carry one, so the compare gate can refuse cross-machine comparisons.
///
/// # Errors
///
/// Propagates any I/O error from opening or appending to the file.
pub fn append_bench_row(path: &Path, row: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut line = row.trim_end().to_owned();
    if !line.contains("\"nproc\"") {
        if let Some(stripped) = line.strip_suffix('}') {
            let sep = if stripped.ends_with('{') { "" } else { "," };
            line = format!("{stripped}{sep}\"nproc\":{}}}", nproc());
        }
    }
    line.push('\n');
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(line.as_bytes())?;
    Ok(())
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
    fn analyze_many_matches_sequential() {
        use paragraph_core::{RenameSet, WindowSize};
        use paragraph_trace::synthetic;
        let trace = synthetic::random_trace(2000, 5);
        let configs = vec![
            AnalysisConfig::dataflow_limit(),
            AnalysisConfig::dataflow_limit().with_renames(RenameSet::none()),
            AnalysisConfig::dataflow_limit().with_window(WindowSize::bounded(64)),
        ];
        let parallel = analyze_many(&trace, &configs);
        for (config, report) in configs.iter().zip(&parallel) {
            let sequential = analyze_refs(&trace, config);
            assert_eq!(
                report.critical_path_length(),
                sequential.critical_path_length()
            );
            assert_eq!(report.placed_ops(), sequential.placed_ops());
        }
    }

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
    fn restartable_measure_matches_plain_measure() {
        let study = temp_study("match");
        let config = AnalysisConfig::dataflow_limit();
        let (plain, _) = study.measure(WorkloadId::Xlisp, &config);
        let (restartable, _) = study.measure_restartable("t", WorkloadId::Xlisp, &config);
        assert_eq!(plain.to_json(), restartable.to_json());
        // The checkpoint is cleaned up after completion.
        assert!(!study.checkpoint_file("t", WorkloadId::Xlisp).exists());
        let _ = fs::remove_dir_all(study.out_dir());
    }

    #[test]
    fn restartable_measure_resumes_from_a_mid_run_checkpoint() {
        let study = temp_study("resume");
        let config = AnalysisConfig::dataflow_limit();
        let (full, _) = study.measure(WorkloadId::Eqntott, &config);

        // Simulate an interrupted run: analyze the first half, checkpoint,
        // then let measure_restartable pick it up.
        let workload = study.workload(WorkloadId::Eqntott);
        let mut vm = workload.vm();
        let segmented = config.clone().with_segments(vm.segment_map());
        let mut half = LiveWell::new(segmented);
        let mut seen = 0u64;
        let target = full.total_records() / 2;
        vm.run_traced(study.fuel(), |record| {
            if seen < target {
                half.process(record);
                seen += 1;
            }
        })
        .unwrap();
        let path = study.checkpoint_file("t", WorkloadId::Eqntott);
        write_checkpoint_atomic(&half, &path).unwrap();

        let (resumed, _) = study.measure_restartable("t", WorkloadId::Eqntott, &config);
        assert_eq!(full.to_json(), resumed.to_json());
        assert!(!path.exists());
        let _ = fs::remove_dir_all(study.out_dir());
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
