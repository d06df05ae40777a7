//! Bounded work-stealing scheduler for (workload × configuration) sweeps.
//!
//! A sweep is a grid of independent **cells**: one analysis pass of one
//! workload's trace under one configuration. Cells sharing a workload share
//! a single decode through the [`TraceArena`], which holds the trace only
//! while one of those cells is not final; the scheduler fans the cells
//! out across `jobs` worker threads and collects results **by cell index**,
//! so the output is byte-identical no matter how many workers ran or how
//! work was stolen.
//!
//! Each completed cell is persisted as a *stage marker* (an exact textual
//! encoding of the cell's artifacts) via the study's checkpoint directory,
//! so an interrupted sweep resumes at cell granularity: restored cells are
//! not recomputed, and their artifacts are byte-identical to a fresh run's.
//! A marker records the cell's inputs and restores only into a cell with
//! the same ones.
//!
//! Cells are **supervised** (see `docs/supervision.md`): every cell runs
//! inside a `catch_unwind` boundary, failures become typed
//! [`CellError`]s, failed cells are retried with bounded deterministic
//! backoff, and cells that exhaust their retries are *quarantined* — the
//! sweep completes with every healthy cell's artifacts byte-identical to a
//! fault-free run's, plus a per-cell [`CellStatus`] degradation report.

use crate::arena::{ArenaStats, TraceArena};
use crate::supervisor::{backoff_delay, panic_message, CellError, CellStatus, FaultSpec};
use crate::Study;
use paragraph_core::telemetry::{self, timeline};
use paragraph_core::{AnalysisConfig, InternedWell, ParallelismProfile};
use paragraph_workloads::WorkloadId;
use std::collections::VecDeque;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One unit of sweep work: analyze `workload`'s trace under `config`.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Workload whose trace this cell analyzes.
    pub workload: WorkloadId,
    /// Short configuration label, unique within the workload (names the
    /// stage marker and output artifacts; e.g. `w64` or `dataflow`).
    pub label: String,
    /// Analysis configuration; the workload's segment map is applied by
    /// the scheduler, so build it segment-free.
    pub config: AnalysisConfig,
    /// The records analyzed: `Some((p, n))` is the `p`-th of `n` equal
    /// parts of the trace, `None` the whole trace.
    part: Option<(usize, usize)>,
}

impl SweepCell {
    /// Creates a cell over the whole trace.
    pub fn new(
        workload: WorkloadId,
        label: impl Into<String>,
        config: AnalysisConfig,
    ) -> SweepCell {
        SweepCell {
            workload,
            label: label.into(),
            config,
            part: None,
        }
    }

    /// Restricts the cell to part `index` of `parts` of the trace: with
    /// `chunk = max(len / parts, 1)`, records `index * chunk` up to
    /// `(index + 1) * chunk`, cut at the trace's end. The analysis starts
    /// fresh at the cut, as if that slice were the whole trace; the
    /// `len % parts` records past the last full part belong to no part.
    #[must_use]
    pub fn with_part(mut self, index: usize, parts: usize) -> SweepCell {
        self.part = Some((index, parts.max(1)));
        self
    }

    /// The record range this cell analyzes in a trace of `len` records.
    fn records(&self, len: usize) -> Range<usize> {
        match self.part {
            None => 0..len,
            Some((index, parts)) => {
                let chunk = (len / parts).max(1);
                let start = index.saturating_mul(chunk).min(len);
                start..start.saturating_add(chunk).min(len)
            }
        }
    }

    /// Stage-marker key: workload plus label, filename-safe.
    fn stage_key(&self) -> String {
        let mut key = format!("{}@{}", self.workload.name(), self.label);
        key.retain(|c| c.is_ascii_alphanumeric() || matches!(c, '@' | '-' | '_' | '.'));
        key
    }

    /// Everything the cell's result depends on: the workload instance,
    /// the fuel, the record range and the configuration. A stage marker
    /// restores only into a cell with the same identity.
    fn identity(&self, study: &Study) -> String {
        let workload = study.workload(self.workload);
        format!(
            "{} size {} seed {} fuel {} part {:?}: {}",
            self.workload.name(),
            workload.size(),
            workload.seed(),
            study.fuel(),
            self.part,
            self.config,
        )
    }
}

/// Headline numbers of one analyzed cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// Trace records processed.
    pub records: u64,
    /// Operations placed in the DDG.
    pub placed: u64,
    /// Critical path length (levels).
    pub critical_path: u64,
    /// Available parallelism (placed / critical path).
    pub parallelism: f64,
    /// Live-well evictions (accuracy caveat when non-zero).
    pub live_well_evictions: u64,
    /// Times the instruction window constrained placement.
    pub window_stalls: u64,
    /// Wall-clock nanoseconds of the analysis pass (from the original
    /// computation, even when the cell was restored from a stage marker).
    pub wall_ns: u64,
}

/// A completed cell: exact artifacts plus provenance.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's workload.
    pub workload: WorkloadId,
    /// The cell's configuration label.
    pub label: String,
    /// Headline metrics.
    pub metrics: CellMetrics,
    /// The exact parallelism profile (drives CSVs and ASCII plots).
    pub profile: ParallelismProfile,
    /// The full report as JSON, byte-identical across runs.
    pub report_json: String,
    /// True if this cell was restored from a stage marker instead of
    /// recomputed.
    pub from_stage: bool,
}

/// Scheduler knobs.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Worker threads; `0` means [`std::thread::available_parallelism`].
    pub jobs: usize,
    /// Load completed cells from stage markers and store new ones, making
    /// interrupted sweeps restartable at cell granularity.
    pub reuse_stages: bool,
    /// Failed-cell retries before quarantine (`0` quarantines on the first
    /// failure).
    pub retries: u32,
    /// Base backoff between retries, in milliseconds; see
    /// [`backoff_delay`] for the growth and jitter rules.
    pub retry_backoff_ms: u64,
    /// Write each successful cell's artifacts ([`write_cell_artifacts`])
    /// into the study's output directory as soon as the cell completes,
    /// from the worker that ran it.
    pub write_artifacts: bool,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            jobs: 0,
            reuse_stages: true,
            retries: 2,
            retry_backoff_ms: 25,
            write_artifacts: false,
        }
    }
}

/// One supervised cell's final state: its outcome when it succeeded, its
/// error when it was quarantined, and the supervision provenance either
/// way.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell's workload.
    pub workload: WorkloadId,
    /// The cell's configuration label.
    pub label: String,
    /// How supervision left the cell.
    pub status: CellStatus,
    /// Attempts consumed (0 when restored from a stage marker).
    pub attempts: u32,
    /// The final error, for quarantined cells.
    pub error: Option<String>,
    /// The artifacts, for successful cells.
    pub outcome: Option<CellOutcome>,
}

impl CellResult {
    /// The successful outcome, if the cell was not quarantined.
    pub fn outcome(&self) -> Option<&CellOutcome> {
        self.outcome.as_ref()
    }

    /// True when the cell exhausted its retries.
    pub fn is_quarantined(&self) -> bool {
        self.status == CellStatus::Quarantined
    }
}

/// Everything a sweep produced, in the exact order of the input cells.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per-cell results, index-aligned with the input cells.
    pub cells: Vec<CellResult>,
    /// Wall-clock nanoseconds for the whole sweep.
    pub wall_ns: u64,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Arena traffic (misses count trace generations).
    pub arena: ArenaStats,
    /// The first artifact write that failed under
    /// [`SweepOptions::write_artifacts`], with the file it was writing.
    pub artifact_error: Option<(PathBuf, io::Error)>,
}

impl SweepOutcome {
    /// Number of quarantined cells (0 for a fully healthy sweep).
    pub fn quarantined(&self) -> usize {
        self.cells.iter().filter(|c| c.is_quarantined()).count()
    }

    /// The successful outcomes, index-aligned gaps skipped.
    pub fn ok_cells(&self) -> impl Iterator<Item = &CellOutcome> {
        self.cells.iter().filter_map(|c| c.outcome.as_ref())
    }
}

/// Version tag of the stage-marker format; markers with any other first
/// line are ignored and the cell is recomputed.
const MARKER_MAGIC: &str = "PGSWEEP2";

/// A marker is the magic line, the cell's [identity](SweepCell::identity),
/// the metrics, the encoded profile and the report JSON.
fn encode_marker(identity: &str, outcome: &CellOutcome) -> String {
    let m = &outcome.metrics;
    format!(
        "{MARKER_MAGIC}\n{identity}\n{} {} {} {} {} {} {}\n{}\n{}",
        m.records,
        m.placed,
        m.critical_path,
        m.live_well_evictions,
        m.window_stalls,
        m.parallelism.to_bits(),
        m.wall_ns,
        outcome.profile.encode(),
        outcome.report_json,
    )
}

/// Decodes a marker written for a cell of identity `identity`; `None`
/// when it is damaged, of another format, or written for another cell.
fn decode_marker(cell: &SweepCell, identity: &str, text: &str) -> Option<CellOutcome> {
    let mut lines = text.splitn(5, '\n');
    if lines.next()? != MARKER_MAGIC || lines.next()? != identity {
        return None;
    }
    let mut fields = lines.next()?.split_ascii_whitespace();
    let records = fields.next()?.parse().ok()?;
    let placed = fields.next()?.parse().ok()?;
    let critical_path = fields.next()?.parse().ok()?;
    let live_well_evictions = fields.next()?.parse().ok()?;
    let window_stalls = fields.next()?.parse().ok()?;
    let parallelism = f64::from_bits(fields.next()?.parse().ok()?);
    let wall_ns = fields.next()?.parse().ok()?;
    if fields.next().is_some() {
        return None;
    }
    let profile = ParallelismProfile::decode(lines.next()?)?;
    let report_json = lines.next()?.to_owned();
    if report_json.is_empty() {
        return None;
    }
    Some(CellOutcome {
        workload: cell.workload,
        label: cell.label.clone(),
        metrics: CellMetrics {
            records,
            placed,
            critical_path,
            parallelism,
            live_well_evictions,
            window_stalls,
            wall_ns,
        },
        profile,
        report_json,
        from_stage: true,
    })
}

fn analyze_cell(
    study: &Study,
    cell: &SweepCell,
    arena: &TraceArena,
) -> Result<CellOutcome, CellError> {
    let trace = arena.get(study, cell.workload)?;
    let config = cell.config.clone().with_segments(trace.segments());
    let records = cell.records(trace.len());
    let started = Instant::now();
    // The span covers the analysis only (not the arena fetch, which may
    // block on another worker's decode — attributing that wait to the cell
    // would make identical cells look slower under contention).
    let mut span = paragraph_core::span!("sweep.cell", "{}@{}", cell.workload.name(), cell.label);
    let mut analyzer = InternedWell::starting_at(&trace, config, records.start);
    analyzer.process_next(records.len());
    let window_stalls = analyzer.window_stalls();
    let report = analyzer.finish();
    let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let metrics = CellMetrics {
        records: report.total_records(),
        placed: report.placed_ops(),
        critical_path: report.critical_path_length(),
        parallelism: report.available_parallelism(),
        live_well_evictions: report.live_well_evictions(),
        window_stalls,
        wall_ns,
    };
    span.arg("records", metrics.records);
    span.arg("critical_path", metrics.critical_path);
    drop(span);
    paragraph_core::counter!("sweep.cells_analyzed", 1);
    Ok(CellOutcome {
        workload: cell.workload,
        label: cell.label.clone(),
        metrics,
        profile: report.profile().clone(),
        report_json: report.to_json(),
        from_stage: false,
    })
}

/// One supervised attempt at a cell: the fault injector (if armed) and the
/// analysis run inside a `catch_unwind` boundary, so a panicking cell —
/// analyzer bug, VM bug, injected fault — becomes a typed
/// [`CellError::Panic`] instead of taking down the worker and its queued
/// siblings.
fn run_cell(
    study: &Study,
    cell: &SweepCell,
    arena: &TraceArena,
    fault: Option<&FaultSpec>,
    attempt: u32,
) -> Result<CellOutcome, CellError> {
    let attempt_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(spec) = fault {
            spec.inject(cell.workload.name(), &cell.label, attempt)?;
        }
        analyze_cell(study, cell, arena)
    }));
    match attempt_result {
        Ok(result) => result,
        Err(payload) => Err(CellError::Panic(panic_message(payload))),
    }
}

/// Writes a successful cell's artifacts into `dir`, each atomically:
/// `<workload>@<label>.report.json` (the report JSON) and
/// `<workload>@<label>.profile.csv` (the parallelism profile).
///
/// # Errors
///
/// The file that failed, with the I/O error.
pub fn write_cell_artifacts(dir: &Path, cell: &CellOutcome) -> Result<(), (PathBuf, io::Error)> {
    let _span = paragraph_core::span!("artifact.write");
    let stem = format!("{}@{}", cell.workload.name(), cell.label);
    let json_path = dir.join(format!("{stem}.report.json"));
    paragraph_core::artifact::write_atomic_bytes(&json_path, cell.report_json.as_bytes())
        .map_err(|e| (json_path, e))?;
    let csv_path = dir.join(format!("{stem}.profile.csv"));
    paragraph_core::artifact::write_atomic(&csv_path, |out| cell.profile.write_csv(out))
        .map_err(|e| (csv_path, e))
}

fn effective_jobs(requested: usize, cells: usize) -> usize {
    let jobs = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    jobs.clamp(1, cells.max(1))
}

/// One cell's supervision state: how many attempts it has consumed and how
/// the last one ended.
#[derive(Debug, Default)]
struct CellSlot {
    attempts: u32,
    result: Option<Result<CellOutcome, CellError>>,
}

/// Runs `cells` under `study`, fanning them across worker threads, and
/// returns the results in input order (deterministic for any job count).
///
/// `name` scopes the stage markers (and should match the driver: `fig7`,
/// `fig8`, `sweep`, ...). On a sweep that completes with no quarantined
/// cell the markers are cleared, so the next run starts fresh; an
/// interrupted or degraded sweep leaves the completed cells' markers
/// behind for the next attempt to reuse.
///
/// Cells never panic the sweep: each attempt runs inside `catch_unwind`,
/// failures are retried up to [`SweepOptions::retries`] times with
/// deterministic backoff, and cells that exhaust their retries come back
/// as [`CellStatus::Quarantined`] entries with their error attached.
/// `PARAGRAPH_FAULT_CELL` (see [`FaultSpec`]) injects a deliberate fault
/// into one cell for testing.
pub fn run_sweep(
    study: &Study,
    name: &str,
    cells: &[SweepCell],
    opts: &SweepOptions,
) -> SweepOutcome {
    run_sweep_supervised(study, name, cells, opts, FaultSpec::from_env().as_ref())
}

/// [`run_sweep`] with an explicit fault injector (tests construct
/// [`FaultSpec`]s directly instead of racing on the environment).
fn run_sweep_supervised(
    study: &Study,
    name: &str,
    cells: &[SweepCell],
    opts: &SweepOptions,
    fault: Option<&FaultSpec>,
) -> SweepOutcome {
    let started = Instant::now();
    let jobs = effective_jobs(opts.jobs, cells.len());
    if opts.reuse_stages {
        // Sweep temp files orphaned by a previous crash; completed markers
        // (already renamed into place) are untouched.
        paragraph_core::artifact::clean_orphaned_tmp(&study.checkpoints_dir());
    }

    // Restore stage-cached cells up front; only the rest are scheduled.
    let identities: Vec<String> = cells.iter().map(|cell| cell.identity(study)).collect();
    let results: Vec<Mutex<CellSlot>> = cells
        .iter()
        .zip(&identities)
        .map(|(cell, identity)| {
            let restored = opts
                .reuse_stages
                .then(|| study.load_stage(name, &cell.stage_key()))
                .flatten()
                .and_then(|marker| decode_marker(cell, identity, &marker));
            Mutex::new(CellSlot {
                attempts: 0,
                result: restored.map(Ok),
            })
        })
        .collect();
    let pending: Vec<usize> = (0..cells.len())
        .filter(|&i| lock_poison_ok(&results[i]).result.is_none())
        .collect();
    // The arena holds a workload's trace while one of its pending cells is
    // not final; restored cells never ask for it.
    let arena = TraceArena::new(pending.iter().map(|&i| cells[i].workload));
    let artifact_error: Mutex<Option<(PathBuf, io::Error)>> = Mutex::new(None);
    let write_artifacts = |outcome: &CellOutcome| {
        if !opts.write_artifacts {
            return;
        }
        if let Err(failed) = write_cell_artifacts(study.out_dir(), outcome) {
            artifact_error
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(failed);
        }
    };
    for slot in &results {
        if let Some(Ok(outcome)) = &lock_poison_ok(slot).result {
            write_artifacts(outcome);
        }
    }
    paragraph_core::counter!("sweep.cells_restored", (cells.len() - pending.len()) as u64);

    // Deal contiguous chunks: cells are workload-major, so each worker
    // starts on its own workload and few traces are resident at once;
    // stealing rebalances from the back of a victim's chunk.
    let queues: Vec<Mutex<VecDeque<usize>>> = {
        let chunk = pending.len().div_ceil(jobs.max(1)).max(1);
        let mut queues: Vec<VecDeque<usize>> = (0..jobs).map(|_| VecDeque::new()).collect();
        for (slot, indices) in pending.chunks(chunk).enumerate() {
            queues[slot % jobs].extend(indices.iter().copied());
        }
        queues.into_iter().map(Mutex::new).collect()
    };

    std::thread::scope(|scope| {
        for me in 0..jobs {
            let queues = &queues;
            let results = &results;
            let identities = &identities;
            let arena = &arena;
            let write_artifacts = &write_artifacts;
            scope.spawn(move || {
                telemetry::name_lane(format_args!("worker-{me}"));
                loop {
                    // Release the own queue's lock before trying a victim's:
                    // two workers each holding theirs while reaching for the
                    // other's would deadlock once both queues run dry.
                    let own = lock_poison_ok_deque(&queues[me]).pop_front();
                    let next = own.or_else(|| {
                        (1..jobs)
                            .map(|step| (me + step) % jobs)
                            .find_map(|victim| lock_poison_ok_deque(&queues[victim]).pop_back())
                    });
                    let Some(index) = next else {
                        break;
                    };
                    let cell = &cells[index];
                    let attempt = {
                        let mut slot = lock_poison_ok(&results[index]);
                        slot.attempts += 1;
                        slot.attempts
                    };
                    if attempt > 1 {
                        // Close the flow arrow opened when the previous attempt
                        // chose to retry; Perfetto draws it from the failing
                        // worker's lane into this attempt's slice.
                        if let Some(tl) = timeline::timeline_active() {
                            tl.flow_finish("sweep.retry", retry_flow_id(index, attempt - 1));
                        }
                    }
                    match run_cell(study, cell, arena, fault, attempt) {
                        Ok(outcome) => {
                            if opts.reuse_stages {
                                if let Err(e) = study.store_stage(
                                    name,
                                    &cell.stage_key(),
                                    &encode_marker(&identities[index], &outcome),
                                ) {
                                    // Stage persistence is best-effort, like
                                    // harness checkpoints: the sweep itself
                                    // must not die because the disk did.
                                    eprintln!(
                                        "{name}: stage marker for {} failed: {e}",
                                        cell.stage_key()
                                    );
                                }
                            }
                            write_artifacts(&outcome);
                            lock_poison_ok(&results[index]).result = Some(Ok(outcome));
                            arena.cell_done(cell.workload);
                            if let Some(tl) = timeline::timeline_active() {
                                // Arena counters sampled at cell boundaries:
                                // Perfetto renders them as a stepped
                                // counter-over-time track per sweep.
                                let stats = arena.stats();
                                tl.counter("arena.hits", stats.hits);
                                tl.counter("arena.misses", stats.misses);
                            }
                        }
                        Err(err) if attempt <= opts.retries => {
                            eprintln!(
                                "{name}: cell {} attempt {attempt} failed ({err}); retrying",
                                cell.stage_key()
                            );
                            paragraph_core::counter!("sweep.cell_retries", 1);
                            if let Some(tl) = timeline::timeline_active() {
                                tl.instant_with_args(
                                    "sweep.retry",
                                    Some(&cell.stage_key()),
                                    &[("attempt", u64::from(attempt))],
                                );
                                tl.flow_start("sweep.retry", retry_flow_id(index, attempt));
                            }
                            // Sleep the backoff here, then requeue: the cell is
                            // never parked in a queue while its backoff runs,
                            // so no sibling burns a slot waiting on it.
                            std::thread::sleep(backoff_delay(
                                opts.retry_backoff_ms,
                                attempt,
                                index,
                            ));
                            lock_poison_ok_deque(&queues[me]).push_back(index);
                        }
                        Err(err) => {
                            eprintln!(
                                "{name}: cell {} quarantined after {attempt} attempt(s): {err}",
                                cell.stage_key()
                            );
                            paragraph_core::counter!("sweep.cells_quarantined", 1);
                            if let Some(tl) = timeline::timeline_active() {
                                tl.instant_with_args(
                                    "sweep.quarantine",
                                    Some(&cell.stage_key()),
                                    &[("attempts", u64::from(attempt))],
                                );
                            }
                            lock_poison_ok(&results[index]).result = Some(Err(err));
                            arena.cell_done(cell.workload);
                        }
                    }
                }
            });
        }
    });

    let cells_out: Vec<CellResult> = results
        .into_iter()
        .zip(cells)
        .map(|(slot, cell)| {
            let slot = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            let attempts = slot.attempts;
            match slot.result {
                Some(Ok(outcome)) => CellResult {
                    workload: cell.workload,
                    label: cell.label.clone(),
                    status: if attempts > 1 {
                        CellStatus::Retried
                    } else {
                        CellStatus::Ok
                    },
                    attempts,
                    error: None,
                    outcome: Some(outcome),
                },
                Some(Err(err)) => CellResult {
                    workload: cell.workload,
                    label: cell.label.clone(),
                    status: CellStatus::Quarantined,
                    attempts,
                    error: Some(err.to_string()),
                    outcome: None,
                },
                // Unreachable in practice — every dequeued index stores a
                // result — but a lost cell must degrade like any other
                // failure, never panic the collection.
                None => CellResult {
                    workload: cell.workload,
                    label: cell.label.clone(),
                    status: CellStatus::Quarantined,
                    attempts,
                    error: Some("cell finished without a result (worker lost)".to_owned()),
                    outcome: None,
                },
            }
        })
        .collect();
    // Only a fully healthy sweep clears its markers: after a degraded one,
    // the healthy cells' markers let the next attempt recompute just the
    // quarantined cells.
    if opts.reuse_stages && !cells_out.iter().any(CellResult::is_quarantined) {
        study.clear_stages(name);
    }
    SweepOutcome {
        cells: cells_out,
        wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        jobs,
        arena: arena.stats(),
        artifact_error: artifact_error
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
    }
}

/// Deterministic flow-event id tying a retry decision to the attempt it
/// spawns. Depends only on cell index and attempt number, so traces from
/// different job counts normalize identically.
fn retry_flow_id(index: usize, attempt: u32) -> u64 {
    (index as u64) << 8 | u64::from(attempt & 0xff)
}

fn lock_poison_ok<'a>(slot: &'a Mutex<CellSlot>) -> std::sync::MutexGuard<'a, CellSlot> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lock_poison_ok_deque<'a>(
    queue: &'a Mutex<VecDeque<usize>>,
) -> std::sync::MutexGuard<'a, VecDeque<usize>> {
    queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders one cell's telemetry manifest, key-compatible with the
/// per-workload manifests the pre-sweep harness wrote (plus the cell's
/// configuration label and stage provenance).
pub fn cell_manifest_json(cell: &CellOutcome) -> String {
    let m = &cell.metrics;
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"config\":\"{}\",\"records\":{},",
            "\"placed\":{},\"critical_path\":{},\"parallelism\":{:.6},",
            "\"live_well_evictions\":{},\"records_analyzed\":{},",
            "\"wall_ns\":{},\"records_per_sec\":{:.2},",
            "\"window_stalls\":{},\"from_stage\":{}}}\n"
        ),
        cell.workload.name(),
        cell.label,
        m.records,
        m.placed,
        m.critical_path,
        m.parallelism,
        m.live_well_evictions,
        m.records,
        m.wall_ns,
        if m.wall_ns == 0 {
            0.0
        } else {
            m.records as f64 / (m.wall_ns as f64 / 1e9)
        },
        m.window_stalls,
        cell.from_stage,
    )
}

/// Renders a sweep-level telemetry manifest: grid shape, wall time,
/// per-cell timings and supervision status, and arena traffic. Written
/// by the drivers next to their CSV artifacts.
pub fn sweep_manifest_json(name: &str, outcome: &SweepOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"sweep\":\"{name}\",\"jobs\":{},\"cells\":{},\"quarantined\":{},\"wall_ns\":{},",
        outcome.jobs,
        outcome.cells.len(),
        outcome.quarantined(),
        outcome.wall_ns,
    ));
    out.push_str(&format!(
        "\"arena\":{{\"hits\":{},\"misses\":{},\"peak_resident_bytes\":{}}},",
        outcome.arena.hits, outcome.arena.misses, outcome.arena.peak_resident_bytes,
    ));
    out.push_str("\"cell_results\":[");
    for (i, cell) in outcome.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Quarantined cells report zeroed metrics so the manifest schema
        // stays rectangular for downstream readers.
        let (records, critical_path, parallelism, wall_ns, from_stage) = match &cell.outcome {
            Some(c) => (
                c.metrics.records,
                c.metrics.critical_path,
                c.metrics.parallelism,
                c.metrics.wall_ns,
                c.from_stage,
            ),
            None => (0, 0, 0.0, 0, false),
        };
        out.push_str(&format!(
            concat!(
                "{{\"workload\":\"{}\",\"config\":\"{}\",\"status\":\"{}\",",
                "\"attempts\":{},\"error\":{},\"records\":{},",
                "\"critical_path\":{},\"parallelism\":{:.6},\"wall_ns\":{},",
                "\"from_stage\":{}}}"
            ),
            cell.workload.name(),
            cell.label,
            cell.status,
            cell.attempts,
            match &cell.error {
                Some(e) => format!("\"{}\"", escape_json(e)),
                None => "null".to_owned(),
            },
            records,
            critical_path,
            parallelism,
            wall_ns,
            from_stage,
        ));
    }
    out.push_str("]}\n");
    out
}

/// Minimal JSON string escaping for error messages embedded in the
/// manifest (quotes, backslashes, and control characters).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragraph_core::analyze_slice;
    use std::fs;

    fn temp_study(tag: &str) -> Study {
        let out =
            std::env::temp_dir().join(format!("paragraph-sched-test-{tag}-{}", std::process::id()));
        Study::new(100_000, 2, out)
    }

    /// Unwraps a cell that the test expects to have succeeded.
    fn ok(cell: &CellResult) -> &CellOutcome {
        cell.outcome.as_ref().unwrap_or_else(|| {
            panic!(
                "cell {}@{} was quarantined: {:?}",
                cell.workload, cell.label, cell.error
            )
        })
    }

    fn grid(workloads: &[WorkloadId]) -> Vec<SweepCell> {
        use paragraph_core::WindowSize;
        let mut cells = Vec::new();
        for &id in workloads {
            cells.push(SweepCell::new(
                id,
                "dataflow",
                AnalysisConfig::dataflow_limit(),
            ));
            cells.push(SweepCell::new(
                id,
                "w64",
                AnalysisConfig::dataflow_limit().with_window(WindowSize::bounded(64)),
            ));
            cells.push(SweepCell::new(
                id,
                "renone",
                AnalysisConfig::dataflow_limit().with_renames(paragraph_core::RenameSet::none()),
            ));
        }
        cells
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential() {
        let study = temp_study("det");
        let cells = grid(&[
            WorkloadId::Xlisp,
            WorkloadId::Eqntott,
            WorkloadId::Matrix300,
        ]);
        let opts_seq = SweepOptions {
            jobs: 1,
            reuse_stages: false,
            ..SweepOptions::default()
        };
        let opts_par = SweepOptions {
            jobs: 8,
            reuse_stages: false,
            ..SweepOptions::default()
        };
        let sequential = run_sweep(&study, "t-det", &cells, &opts_seq);
        let parallel = run_sweep(&study, "t-det", &cells, &opts_par);
        assert_eq!(sequential.jobs, 1);
        for (a, b) in sequential.cells.iter().zip(&parallel.cells) {
            let (a, b) = (ok(a), ok(b));
            assert_eq!(a.report_json, b.report_json, "{}@{}", a.workload, a.label);
            assert_eq!(a.profile, b.profile);
            let mut csv_a = Vec::new();
            let mut csv_b = Vec::new();
            a.profile.write_csv(&mut csv_a).unwrap();
            b.profile.write_csv(&mut csv_b).unwrap();
            assert_eq!(csv_a, csv_b);
        }
        let _ = fs::remove_dir_all(study.out_dir());
    }

    #[test]
    fn sweep_matches_direct_analysis() {
        let study = temp_study("direct");
        let cells = grid(&[WorkloadId::Xlisp]);
        let opts = SweepOptions {
            jobs: 2,
            reuse_stages: false,
            ..SweepOptions::default()
        };
        let outcome = run_sweep(&study, "t-direct", &cells, &opts);
        let (records, segments) = study
            .workload(WorkloadId::Xlisp)
            .collect_trace(study.fuel())
            .unwrap();
        for (cell, result) in cells.iter().zip(&outcome.cells) {
            let config = cell.config.clone().with_segments(segments);
            let direct = analyze_slice(&records, &config);
            assert_eq!(ok(result).report_json, direct.to_json());
        }
        assert_eq!(outcome.arena.misses, 1, "one workload, one decode");
        let _ = fs::remove_dir_all(study.out_dir());
    }

    #[test]
    fn stage_markers_resume_without_recomputation() {
        let study = temp_study("stage");
        let cells = grid(&[WorkloadId::Eqntott]);
        let opts = SweepOptions {
            jobs: 2,
            ..SweepOptions::default()
        };
        let fresh = run_sweep(&study, "t-stage", &cells, &opts);
        assert!(fresh.cells.iter().all(|c| !ok(c).from_stage));

        // Simulate an interrupted sweep: pre-store one cell's marker, then
        // re-run. The restored cell must be byte-identical and flagged.
        study
            .store_stage(
                "t-stage",
                &cells[0].stage_key(),
                &encode_marker(&cells[0].identity(&study), ok(&fresh.cells[0])),
            )
            .unwrap();
        let resumed = run_sweep(&study, "t-stage", &cells, &opts);
        assert!(ok(&resumed.cells[0]).from_stage);
        assert_eq!(resumed.cells[0].attempts, 0, "restored cells run nothing");
        assert!(!ok(&resumed.cells[1]).from_stage);
        for (a, b) in fresh.cells.iter().zip(&resumed.cells) {
            let (a, b) = (ok(a), ok(b));
            assert_eq!(a.report_json, b.report_json);
            assert_eq!(a.metrics.records, b.metrics.records);
            assert_eq!(a.profile, b.profile);
        }
        // A completed sweep clears its markers.
        assert!(study.load_stage("t-stage", &cells[0].stage_key()).is_none());
        let _ = fs::remove_dir_all(study.out_dir());
    }

    #[test]
    fn marker_round_trips_and_rejects_damage() {
        let study = temp_study("marker");
        let cells = grid(&[WorkloadId::Matrix300]);
        let opts = SweepOptions {
            jobs: 1,
            reuse_stages: false,
            ..SweepOptions::default()
        };
        let outcome = run_sweep(&study, "t-marker", &cells[..1], &opts);
        let first = ok(&outcome.cells[0]);
        let identity = cells[0].identity(&study);
        let marker = encode_marker(&identity, first);
        let decoded = decode_marker(&cells[0], &identity, &marker).unwrap();
        assert_eq!(decoded.report_json, first.report_json);
        assert_eq!(decoded.profile, first.profile);
        assert_eq!(decoded.metrics, {
            let mut m = first.metrics;
            m.wall_ns = decoded.metrics.wall_ns;
            m
        });
        assert!(decoded.from_stage);

        assert!(decode_marker(&cells[0], &identity, "JUNK\n1 2 3").is_none());
        assert!(decode_marker(
            &cells[0],
            &identity,
            &marker.replace(MARKER_MAGIC, "PGSWEEP9")
        )
        .is_none());
        // A marker written for another cell (here: another fuel) is refused.
        let other = Study::new(study.fuel() + 1, 2, study.out_dir().clone());
        assert!(decode_marker(&cells[0], &cells[0].identity(&other), &marker).is_none());
        let truncated = &marker[..marker.len() / 2];
        // Truncation lands either in the profile or the json; both reject
        // or round-trip to a prefix that fails validation.
        if let Some(bad) = decode_marker(&cells[0], &identity, truncated) {
            assert_ne!(bad.report_json, first.report_json);
        }
        let _ = fs::remove_dir_all(study.out_dir());
    }

    #[test]
    fn manifest_mentions_every_cell() {
        let study = temp_study("manifest");
        let cells = grid(&[WorkloadId::Xlisp]);
        let opts = SweepOptions {
            jobs: 3,
            reuse_stages: false,
            ..SweepOptions::default()
        };
        let outcome = run_sweep(&study, "t-manifest", &cells, &opts);
        let manifest = sweep_manifest_json("t-manifest", &outcome);
        assert!(manifest.contains("\"sweep\":\"t-manifest\""));
        assert!(manifest.contains("\"misses\":1"));
        assert!(manifest.contains("\"quarantined\":0"));
        for cell in &outcome.cells {
            assert!(manifest.contains(&format!("\"config\":\"{}\"", cell.label)));
            assert_eq!(cell.status, CellStatus::Ok);
            assert_eq!(cell.attempts, 1);
        }
        assert!(manifest.contains("\"status\":\"ok\""));
        assert!(manifest.contains("\"error\":null"));
        let _ = fs::remove_dir_all(study.out_dir());
    }

    #[test]
    fn quarantined_cell_leaves_siblings_byte_identical() {
        use crate::supervisor::FaultKind;
        let study = temp_study("quarantine");
        let cells = grid(&[WorkloadId::Xlisp, WorkloadId::Eqntott]);
        let opts = SweepOptions {
            jobs: 4,
            reuse_stages: false,
            retries: 1,
            retry_backoff_ms: 0,
            ..SweepOptions::default()
        };
        let clean = run_sweep_supervised(&study, "t-quar", &cells, &opts, None);
        assert_eq!(clean.quarantined(), 0);

        // Permanently fault one cell (always panics) and re-run.
        let fault = FaultSpec {
            workload: "xlisp".to_owned(),
            label: "w64".to_owned(),
            fails: u32::MAX,
            kind: FaultKind::Panic,
        };
        let faulted = run_sweep_supervised(&study, "t-quar", &cells, &opts, Some(&fault));
        assert_eq!(faulted.quarantined(), 1);
        for (a, b) in clean.cells.iter().zip(&faulted.cells) {
            if fault.targets(b.workload.name(), &b.label) {
                assert!(b.is_quarantined());
                assert_eq!(b.status, CellStatus::Quarantined);
                assert_eq!(b.attempts, opts.retries + 1, "retries are bounded");
                assert!(b.outcome.is_none());
                let err = b.error.as_deref().unwrap();
                assert!(
                    err.contains("injected"),
                    "error should carry the cause: {err}"
                );
            } else {
                assert_eq!(b.status, CellStatus::Ok);
                assert_eq!(ok(a).report_json, ok(b).report_json);
                assert_eq!(ok(a).profile, ok(b).profile);
            }
        }
        let manifest = sweep_manifest_json("t-quar", &faulted);
        assert!(manifest.contains("\"quarantined\":1"));
        assert!(manifest.contains("\"status\":\"quarantined\""));
        let _ = fs::remove_dir_all(study.out_dir());
    }

    #[test]
    fn transient_fault_retries_then_succeeds() {
        use crate::supervisor::FaultKind;
        let study = temp_study("retry");
        let cells = grid(&[WorkloadId::Matrix300]);
        let opts = SweepOptions {
            jobs: 2,
            reuse_stages: false,
            retries: 2,
            retry_backoff_ms: 0,
            ..SweepOptions::default()
        };
        let clean = run_sweep_supervised(&study, "t-retry", &cells, &opts, None);
        // Fault the first attempt only: the retry must succeed and produce
        // the exact same artifacts a fault-free run does.
        let fault = FaultSpec {
            workload: "matrix300".to_owned(),
            label: "dataflow".to_owned(),
            fails: 1,
            kind: FaultKind::Vm,
        };
        let retried = run_sweep_supervised(&study, "t-retry", &cells, &opts, Some(&fault));
        assert_eq!(retried.quarantined(), 0);
        let target = retried
            .cells
            .iter()
            .find(|c| fault.targets(c.workload.name(), &c.label))
            .unwrap();
        assert_eq!(target.status, CellStatus::Retried);
        assert_eq!(target.attempts, 2);
        assert!(target.error.is_none());
        for (a, b) in clean.cells.iter().zip(&retried.cells) {
            assert_eq!(ok(a).report_json, ok(b).report_json);
        }
        let manifest = sweep_manifest_json("t-retry", &retried);
        assert!(manifest.contains("\"status\":\"retried\""));
        let _ = fs::remove_dir_all(study.out_dir());
    }

    #[test]
    fn degraded_sweep_keeps_markers_so_reruns_only_recompute_failures() {
        use crate::supervisor::FaultKind;
        let study = temp_study("degraded");
        let cells = grid(&[WorkloadId::Xlisp]);
        let opts = SweepOptions {
            jobs: 2,
            reuse_stages: true,
            retries: 0,
            retry_backoff_ms: 0,
            ..SweepOptions::default()
        };
        let fault = FaultSpec {
            workload: "xlisp".to_owned(),
            label: "renone".to_owned(),
            fails: u32::MAX,
            kind: FaultKind::Vm,
        };
        let degraded = run_sweep_supervised(&study, "t-degraded", &cells, &opts, Some(&fault));
        assert_eq!(degraded.quarantined(), 1);
        // Healthy cells' markers survive a degraded sweep...
        assert!(study
            .load_stage("t-degraded", &cells[0].stage_key())
            .is_some());
        // ...so a healthy rerun restores them and recomputes only the
        // formerly quarantined cell, then clears the markers.
        let rerun = run_sweep_supervised(&study, "t-degraded", &cells, &opts, None);
        assert_eq!(rerun.quarantined(), 0);
        for cell in &rerun.cells {
            if fault.targets(cell.workload.name(), &cell.label) {
                assert!(!ok(cell).from_stage, "quarantined cell must recompute");
            } else {
                assert!(ok(cell).from_stage, "healthy cells must restore");
            }
        }
        assert!(study
            .load_stage("t-degraded", &cells[0].stage_key())
            .is_none());
        let _ = fs::remove_dir_all(study.out_dir());
    }

    #[test]
    fn zero_jobs_defaults_to_available_parallelism() {
        assert!(effective_jobs(0, 100) >= 1);
        assert_eq!(effective_jobs(16, 4), 4, "jobs are bounded by cells");
        assert_eq!(effective_jobs(3, 100), 3);
        assert_eq!(effective_jobs(0, 0), 1);
    }
}
