//! The traced run: the per-layer ledger.
//!
//! The benchmark replays each workload's calls in-process, in the order
//! the CLI (or the sweep, or the daemon) makes them, with a span around
//! every call into a layer's public functions:
//!
//! * `TraceSource` → `DecodeAhead`/`TraceReader::read_block` →
//!   `LiveWell::process_slice` → `finish` → `to_json`/`render_report_text`
//!   → the crash-consistent artifact writer;
//! * `decode_all_parallel` → `plan_cuts` → `run_segment` ×N →
//!   `merge_segment` for `--jobs` runs;
//! * `Workload::collect_trace` and per-cell analyses for the sweep;
//! * `save_checkpoint` / `resume_from` for daemon sessions.
//!
//! The replay runs once untraced and once traced; the difference is the
//! tracing overhead. Kernel legs then time the kernels hidden inside
//! `read_block` over the workload's own trace bytes. Per-layer self times
//! come from the spans through `paragraph profile`'s summarizer.

use crate::e2e::{self, PoolTrace, SERVE_CONFIGS};
use crate::inputs::{self, TraceFile};
use crate::spans::{self, span};
use crate::stats::median;
use crate::{http, sys, Ctx, Outcome, Workload};
use paragraph_core::parallel::{eligibility, plan_cuts, run_segment};
use paragraph_core::telemetry::tracefmt::{self, JsonValue};
use paragraph_core::{AnalysisConfig, LiveWell};
use paragraph_trace::binary::{scan_chunks, TraceReader};
use paragraph_trace::source::{decode_all_parallel, DecodeAhead, DecodeEvent, DecodeObserver};
use paragraph_trace::{wire, Limits, ResourceGovernor, TraceError, TraceRecord, TraceSource};
use paragraph_workloads::{Workload as Program, WorkloadId};
use std::fs;
use std::io::{self, Read};
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

/// Counts the replay makes at layer boundaries.
#[derive(Debug, Default)]
struct Ledger {
    vm_records: u64,
    livewell_records: u64,
    peak_live_values: usize,
    live_well_size: usize,
    window_stalls: u64,
    segments: u64,
    imbalance: Vec<f64>,
    fallbacks: u64,
    checkpoint_bytes: u64,
    artifact_writes: u64,
    govern_rejections: u64,
}

fn trace_err(e: TraceError, l: &mut Ledger) -> io::Error {
    if e.limit_violation().is_some() {
        l.govern_rejections += 1;
    }
    io::Error::other(e.to_string())
}

/// The workload's inputs, generated once for both replays.
enum Inputs {
    Spec(Vec<(TraceFile, [String; 2])>),
    Memwalk(TraceFile, String),
    Fig8(Vec<TraceFile>),
    Serve(Vec<PoolTrace>),
}

impl Inputs {
    fn build(workload: Workload, ctx: &Ctx, dir: &Path) -> io::Result<Inputs> {
        Ok(match workload {
            Workload::SpecSuite => Inputs::Spec(inputs::spec_suite(dir, ctx.seed)?),
            Workload::MemwalkJobs => {
                let (file, reference) = inputs::memwalk(dir, ctx.seed)?;
                Inputs::Memwalk(file, reference)
            }
            Workload::Fig8Sweep => {
                // The sweep traces, written only for the kernel legs (the
                // sweep itself never decodes a file); untraced, because the
                // replay's `collect_trace` is where the sweep runs the VM.
                let was = spans::enabled();
                spans::set_enabled(false);
                let files = WorkloadId::ALL
                    .iter()
                    .map(|&id| {
                        let path = dir.join(format!("{}.trace", id.name()));
                        let w = Program::new(id).with_seed(inputs::fig8_seed(ctx.seed));
                        let (records, _) = inputs::trace_workload(&w, Some(&path), &[], u64::MAX)?;
                        Ok(TraceFile {
                            label: id.name().to_owned(),
                            bytes: fs::metadata(&path)?.len(),
                            path,
                            records,
                        })
                    })
                    .collect::<io::Result<Vec<_>>>();
                spans::set_enabled(was);
                Inputs::Fig8(files?)
            }
            Workload::ServeMixed => Inputs::Serve(e2e::serve_pool(ctx, dir)?),
        })
    }

    fn files(&self) -> Vec<&TraceFile> {
        match self {
            Inputs::Spec(s) => s.iter().map(|(f, _)| f).collect(),
            Inputs::Memwalk(f, _) => vec![f],
            Inputs::Fig8(fs) => fs.iter().collect(),
            Inputs::Serve(p) => p.iter().map(|t| &t.file).collect(),
        }
    }

    fn vm_records(&self) -> u64 {
        match self {
            Inputs::Spec(_) | Inputs::Serve(_) => self.files().iter().map(|f| f.records).sum(),
            Inputs::Memwalk(..) | Inputs::Fig8(_) => 0,
        }
    }
}

/// Passes over the serve pool per replay: one pass is too short to time.
const SERVE_REPLAYS: usize = 10;

/// Runs the traced ledger for `workload`.
pub fn run(workload: Workload, ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let dir = ctx.dir("inputs")?;
    let art = ctx.dir("artifacts")?;
    // Set-up, traced: the VM layer runs here on every workload but the
    // sweep (whose replay runs it) and the memory walk (no VM at all).
    spans::set_enabled(true);
    spans::name_lane("main");
    let inputs = Inputs::build(workload, ctx, &dir)?;
    let setup_spans = spans::drain();
    spans::set_enabled(false);

    let mut fig8_cells: Vec<Vec<(String, String)>> = Vec::new();
    let mut replay = |l: &mut Ledger, out: &mut Outcome| -> io::Result<f64> {
        let started = Instant::now();
        let _root = span("bench.replay");
        match &inputs {
            Inputs::Spec(suite) => {
                for (file, refs) in suite {
                    let all = inputs::cli_config(true, None);
                    let none = inputs::cli_config(false, None);
                    let a = analyze_stream(&file.path, all.clone(), &art, l)?;
                    out.op(a == refs[0], || format!("replay {} rename all", file.label));
                    let b = analyze_stream(&file.path, none, &art, l)?;
                    out.op(b == refs[1], || {
                        format!("replay {} rename none", file.label)
                    });
                    let c = analyze_jobs(&file.path, all, ctx.jobs, &art, l)?;
                    out.op(c == refs[0], || {
                        format!("replay {} rename all --jobs", file.label)
                    });
                }
            }
            Inputs::Memwalk(file, reference) => {
                let none = inputs::cli_config(false, None);
                let a = analyze_stream(&file.path, none.clone(), &art, l)?;
                out.op(&a == reference, || "replay memwalk --jobs 1".to_owned());
                let b = analyze_jobs(&file.path, none, ctx.jobs, &art, l)?;
                out.op(&b == reference, || "replay memwalk --jobs N".to_owned());
            }
            Inputs::Fig8(_) => fig8_cells.push(sweep_replay(ctx, &art, l)?),
            Inputs::Serve(pool) => {
                for _ in 0..SERVE_REPLAYS {
                    serve_replay(pool, &art, l, out)?;
                }
            }
        }
        Ok(started.elapsed().as_secs_f64())
    };

    // Untraced and traced replays alternate, twice each; each figure is
    // the median of its two. Spans and counts come from the last traced
    // replay.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut l = Ledger::default();
    let (mut replay_spans, mut from, mut to) = (Vec::new(), 0, 0);
    for _ in 0..2 {
        untraced.push(replay(&mut Ledger::default(), &mut out)?);
        spans::set_enabled(true);
        l = Ledger::default();
        from = spans::now_ns();
        traced.push(replay(&mut l, &mut out)?);
        to = spans::now_ns();
        spans::set_enabled(false);
        replay_spans = spans::drain();
    }
    let (untraced, traced) = (median(&untraced), median(&traced));
    let coverage = spans::coverage(
        &replay_spans
            .iter()
            .filter(|s| !s.name.starts_with("bench."))
            .cloned()
            .collect::<Vec<_>>(),
        from,
        to,
    );
    // The kernel legs (and their spans) run after the replay.
    spans::set_enabled(true);
    let kernel = kernels(&inputs.files(), &mut out)?;
    let kernel_spans = spans::drain();
    spans::set_enabled(false);

    let mut all = setup_spans.clone();
    all.extend(replay_spans.iter().cloned());
    all.extend(kernel_spans);
    let spans_path = ctx.work.join("spans.json");
    fs::write(&spans_path, spans::chrome_trace(&all))?;
    let table_path = ctx.work.join("profile.txt");
    let summary = spans::summarize(&all);
    fs::write(&table_path, tracefmt::render_profile(&summary, 10))?;
    let replay_summary = spans::summarize(&replay_spans);
    let setup_summary = spans::summarize(&setup_spans);
    let self_s = |name: &str| {
        replay_summary
            .stages
            .get(name)
            .map_or(0.0, |r| r.self_us / 1e6)
    };
    let total_s = |name: &str| {
        replay_summary
            .stages
            .get(name)
            .map_or(0.0, |r| r.total_us / 1e6)
    };

    // vm
    let (vm_s, vm_records) = match workload {
        Workload::Fig8Sweep => (self_s("vm"), l.vm_records),
        _ => (
            setup_summary
                .stages
                .get("vm")
                .map_or(0.0, |r| r.self_us / 1e6),
            inputs.vm_records(),
        ),
    };
    out.metric("vm.records", vm_records as f64, "count");
    out.metric("vm.busy_s", vm_s, "s");
    out.metric("vm.ns_per_record", ns_per(vm_s, vm_records), "ns/record");
    // trace.*
    for (name, value, unit) in kernel {
        out.metric(name, value, unit);
    }
    let wait = self_s("trace.decode_ahead.wait");
    out.metric("trace.decode_ahead.wait_s", wait, "s");
    out.metric(
        "trace.decode_ahead.wait_frac",
        ratio(wait, total_s("bench.analyze.stream")),
        "fraction",
    );
    out.metric(
        "trace.decode_parallel.busy_s",
        total_s("trace.decode_parallel"),
        "s",
    );
    out.metric(
        "trace.govern.rejections",
        l.govern_rejections as f64,
        "count",
    );
    // core.*
    let livewell = self_s("core.livewell");
    out.metric("core.livewell.busy_s", livewell, "s");
    out.metric(
        "core.livewell.ns_per_record",
        ns_per(livewell, l.livewell_records),
        "ns/record",
    );
    out.metric("core.livewell.records", l.livewell_records as f64, "count");
    out.metric(
        "core.livewell.peak_live_values",
        l.peak_live_values as f64,
        "count",
    );
    out.metric(
        "core.livewell.live_well_size",
        l.live_well_size as f64,
        "count",
    );
    out.metric("core.window.stalls", l.window_stalls as f64, "count");
    out.metric("core.report.finish_s", self_s("core.report.finish"), "s");
    out.metric("core.report.render_s", self_s("core.report.render"), "s");
    out.metric("core.parallel.plan_s", self_s("core.parallel.plan"), "s");
    out.metric("core.parallel.segments", l.segments as f64, "count");
    out.metric(
        "core.parallel.segment_busy_s",
        total_s("core.parallel.segment"),
        "s",
    );
    let imbalance = if l.imbalance.is_empty() {
        0.0
    } else {
        median(&l.imbalance)
    };
    out.metric("core.parallel.segment_imbalance", imbalance, "ratio");
    out.metric("core.parallel.merge_s", self_s("core.parallel.merge"), "s");
    out.metric("core.parallel.fallbacks", l.fallbacks as f64, "count");
    out.metric(
        "core.checkpoint.save_s",
        self_s("core.checkpoint.save"),
        "s",
    );
    out.metric(
        "core.checkpoint.resume_s",
        self_s("core.checkpoint.resume"),
        "s",
    );
    out.metric("core.checkpoint.bytes", l.checkpoint_bytes as f64, "bytes");
    out.metric("core.artifact.writes", l.artifact_writes as f64, "count");
    out.metric("core.artifact.write_s", self_s("core.artifact.write"), "s");

    // Workload-specific legs measured from outside.
    let mut arena = [0.0; 4];
    let mut sched = [0.0; 4];
    let mut serve = [0.0; 6];
    match workload {
        Workload::Fig8Sweep => {
            let (a, s) = fig8_cli(ctx, &fig8_cells, &mut out)?;
            (arena, sched) = (a, s);
        }
        Workload::ServeMixed => serve = serve_loop(ctx, &mut out)?,
        Workload::SpecSuite | Workload::MemwalkJobs => {}
    }
    for (name, v, unit) in [
        ("bench.arena.hits", arena[0], "count"),
        ("bench.arena.misses", arena[1], "count"),
        ("bench.arena.hit_ratio", arena[2], "ratio"),
        ("bench.arena.peak_resident_mb", arena[3], "MB"),
        ("bench.scheduler.cell_busy_s", sched[0], "s"),
        ("bench.scheduler.idle_frac", sched[1], "fraction"),
        ("bench.scheduler.slowest_cell_s", sched[2], "s"),
        ("bench.scheduler.cells", sched[3], "count"),
        ("serve.http.ttfb_ms", serve[0], "ms"),
        ("serve.pool.queue_depth_max", serve[1], "count"),
        ("serve.shed", serve[2], "count"),
        ("serve.workers_recycled", serve[3], "count"),
        ("serve.session.evicted", serve[4], "count"),
        ("serve.session.resumed", serve[5], "count"),
    ] {
        out.metric(name, v, unit);
    }
    let one = inputs::one_record(&dir)?;
    out.metric("cli.startup_ms", e2e::cli_startup_ms(ctx, &one, 15)?, "ms");
    out.metric("bench.replay_untraced_s", untraced, "s");
    out.metric("bench.replay_traced_s", traced, "s");
    out.metric(
        "bench.trace_overhead_frac",
        (traced - untraced) / untraced,
        "fraction",
    );
    out.metric("bench.span_coverage_frac", coverage, "fraction");
    out.notes.push(format!(
        "spans: {} written to {}; self-time table (paragraph profile's) in {}",
        all.len(),
        spans_path.display(),
        table_path.display()
    ));
    Ok(out)
}

fn ns_per(seconds: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        seconds * 1e9 / n as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Renders a finished analysis (JSON or the CLI's text) and writes it
/// through the crash-consistent artifact writer, as `--json` does.
fn finish_report(well: LiveWell, text: bool, art: &Path, l: &mut Ledger) -> io::Result<String> {
    l.peak_live_values = l.peak_live_values.max(well.peak_live_values());
    l.live_well_size = l.live_well_size.max(well.live_well_size());
    l.window_stalls += well.window_stalls();
    let report = {
        let _s = span("core.report.finish");
        well.finish()
    };
    let body = {
        let _s = span("core.report.render");
        if text {
            paragraph_serve::render_report_text(&report)
        } else {
            report.to_json()
        }
    };
    write_artifact(&art.join("report.json"), body.as_bytes(), l)?;
    Ok(body)
}

fn write_artifact(path: &Path, bytes: &[u8], l: &mut Ledger) -> io::Result<()> {
    let _s = span("core.artifact.write");
    l.artifact_writes += 1;
    paragraph_core::artifact::write_atomic_bytes(path, bytes)
}

fn open_reader(path: &Path, limits: Limits) -> io::Result<TraceReader<TraceSource>> {
    let _s = span("trace.source.open");
    let source = TraceSource::auto_file(path)?;
    let reader = TraceReader::from_source(source).map_err(|e| io::Error::other(e.to_string()))?;
    Ok(reader.with_governor(ResourceGovernor::new(limits)))
}

/// `analyze --trace F` on one thread: decode-ahead feeding the live well.
fn analyze_stream(
    path: &Path,
    config: AnalysisConfig,
    art: &Path,
    l: &mut Ledger,
) -> io::Result<String> {
    let op = span("bench.analyze.stream");
    let reader = open_reader(path, Limits::default())?;
    let mut well = LiveWell::new(config.with_segments(reader.segment_map()));
    let observer = spans::enabled().then(|| {
        let parent = op.id();
        let mut block = None;
        Box::new(move |event: DecodeEvent| match event {
            DecodeEvent::ThreadStart => spans::name_lane("decode-ahead"),
            DecodeEvent::BlockStart => {
                drop(block.replace(spans::child_of("trace.binary.read_block", parent)))
            }
            DecodeEvent::BlockEnd { .. } => drop(block.take()),
        }) as DecodeObserver
    });
    let mut ahead = DecodeAhead::spawn(reader, observer)?;
    loop {
        let next = {
            let _w = span("trace.decode_ahead.wait");
            ahead.next_batch()
        };
        match next {
            None => break,
            Some(Ok(batch)) => {
                {
                    let _s = span("core.livewell");
                    well.process_slice(&batch);
                }
                l.livewell_records += batch.len() as u64;
                ahead.recycle(batch);
            }
            Some(Err(e)) => {
                ahead.finish();
                return Err(trace_err(e, l));
            }
        }
    }
    ahead.finish();
    finish_report(well, false, art, l)
}

/// Sequential block decode of a whole trace (the `--jobs` fallback).
fn read_all(reader: &mut TraceReader<TraceSource>, l: &mut Ledger) -> io::Result<Vec<TraceRecord>> {
    let mut records = Vec::new();
    loop {
        let n = {
            let _s = span("trace.binary.read_block");
            reader.read_block(&mut records)
        };
        match n {
            Ok(0) => return Ok(records),
            Ok(_) => {}
            Err(e) => return Err(trace_err(e, l)),
        }
    }
}

/// `analyze --trace F --jobs N`: whole-file parallel decode, firewall
/// cuts, segment workers, merge.
fn analyze_jobs(
    path: &Path,
    config: AnalysisConfig,
    jobs: usize,
    art: &Path,
    l: &mut Ledger,
) -> io::Result<String> {
    let op = span("bench.analyze.jobs");
    let limits = Limits::default();
    let source = {
        let _s = span("trace.source.open");
        TraceSource::auto_file(path)?
    };
    let decoded = {
        let _s = span("trace.decode_parallel");
        source
            .shared_bytes()
            .and_then(|b| decode_all_parallel(&b, jobs, &limits))
    };
    let (records, segments) = match decoded {
        Some(d) => (d.records, d.segments),
        None => {
            let mut reader = open_reader(path, limits)?;
            let segments = reader.segment_map();
            (read_all(&mut reader, l)?, segments)
        }
    };
    let config = config.with_segments(segments);
    let cuts = {
        let _s = span("core.parallel.plan");
        if jobs > 1 && eligibility(&records, &config).is_ok() {
            plan_cuts(&records, 0, jobs)
        } else {
            Vec::new()
        }
    };
    let mut well = LiveWell::new(config.clone());
    if cuts.is_empty() {
        l.fallbacks += 1;
        let _s = span("core.livewell");
        well.process_slice(&records);
    } else {
        let parent = op.id();
        let progress = AtomicU64::new(0);
        let (primary_s, outcomes) = std::thread::scope(|scope| {
            let ends = cuts.iter().skip(1).copied().chain([records.len()]);
            let handles: Vec<_> = cuts
                .iter()
                .copied()
                .zip(ends)
                .map(|(lo, hi)| {
                    let (records, config, progress) = (&records, &config, &progress);
                    scope.spawn(move || {
                        spans::name_lane("segment");
                        let started = Instant::now();
                        let _g = spans::child_of("core.parallel.segment", parent);
                        let outcome = run_segment(&records[lo..hi], config, progress);
                        (outcome, started.elapsed().as_secs_f64())
                    })
                })
                .collect();
            let started = Instant::now();
            {
                let _s = span("core.livewell");
                well.process_slice(&records[..cuts[0]]);
            }
            let primary = started.elapsed().as_secs_f64();
            let outcomes: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect();
            (primary, outcomes)
        });
        let mut busy = vec![primary_s];
        busy.extend(outcomes.iter().map(|(_, s)| *s));
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        l.imbalance
            .push(busy.iter().copied().fold(0.0, f64::max) / mean);
        l.segments += busy.len() as u64;
        let _s = span("core.parallel.merge");
        for (outcome, _) in &outcomes {
            let seg = outcome
                .as_ref()
                .ok_or_else(|| io::Error::other("a parallel segment returned no outcome"))?;
            well.merge_segment(seg);
        }
    }
    l.livewell_records += records.len() as u64;
    finish_report(well, false, art, l)
}

/// The sweep's calls: each workload's trace collected once (the arena
/// miss), then its ladder of cells analyzed on `nproc` threads, each cell
/// writing its report and profile artifacts. Returns (stem, report JSON)
/// per cell in grid order.
fn sweep_replay(ctx: &Ctx, art: &Path, l: &mut Ledger) -> io::Result<Vec<(String, String)>> {
    let ladder = inputs::fig8_ladder();
    let mut cells = Vec::new();
    for id in WorkloadId::ALL {
        let program = Program::new(id).with_seed(inputs::fig8_seed(ctx.seed));
        let (records, segments) = {
            let _s = span("vm");
            program
                .collect_trace(paragraph_vm::DEFAULT_FUEL)
                .map_err(|e| io::Error::other(format!("{id}: {e}")))?
        };
        l.vm_records += records.len() as u64;
        let parent = spans::enabled().then(|| span("bench.workload"));
        let parent_id = parent.as_ref().map_or(0, spans::Guard::id);
        let results: Vec<io::Result<(usize, String, Ledger)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ctx.jobs)
                .map(|t| {
                    let (records, ladder) = (&records, &ladder);
                    scope.spawn(move || {
                        spans::name_lane("sweep-worker");
                        let mut out = Vec::new();
                        for (i, (label, window)) in
                            ladder.iter().enumerate().filter(|(i, _)| i % ctx.jobs == t)
                        {
                            let mut cl = Ledger::default();
                            let _c = spans::child_of("bench.cell", parent_id);
                            let config = inputs::fig8_config(*window).with_segments(segments);
                            let mut well = LiveWell::new(config);
                            {
                                let _s = span("core.livewell");
                                well.process_slice(records);
                            }
                            cl.livewell_records += records.len() as u64;
                            let stem = format!("{}@{label}", id.name());
                            let json = finish_report_cell(well, art, &stem, &mut cl);
                            out.push(json.map(|j| (i, j, cl)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let mut row = Vec::new();
        for r in results {
            let (i, json, cl) = r?;
            l.livewell_records += cl.livewell_records;
            l.peak_live_values = l.peak_live_values.max(cl.peak_live_values);
            l.live_well_size = l.live_well_size.max(cl.live_well_size);
            l.window_stalls += cl.window_stalls;
            l.artifact_writes += cl.artifact_writes;
            row.push((i, format!("{}@{}", id.name(), ladder[i].0), json));
        }
        row.sort_by_key(|(i, ..)| *i);
        cells.extend(row.into_iter().map(|(_, stem, json)| (stem, json)));
    }
    Ok(cells)
}

/// A sweep cell's report: `report.json` and `profile.csv` artifacts.
fn finish_report_cell(
    well: LiveWell,
    art: &Path,
    stem: &str,
    l: &mut Ledger,
) -> io::Result<String> {
    l.peak_live_values = l.peak_live_values.max(well.peak_live_values());
    l.live_well_size = l.live_well_size.max(well.live_well_size());
    l.window_stalls += well.window_stalls();
    let report = {
        let _s = span("core.report.finish");
        well.finish()
    };
    let json = {
        let _s = span("core.report.render");
        report.to_json()
    };
    write_artifact(&art.join(format!("{stem}.report.json")), json.as_bytes(), l)?;
    {
        let _s = span("core.artifact.write");
        l.artifact_writes += 1;
        paragraph_core::artifact::write_atomic(&art.join(format!("{stem}.profile.csv")), |out| {
            report.profile().write_csv(out)
        })?;
    }
    Ok(json)
}

/// The daemon's calls over the pool: each upload decoded under the strict
/// governor and spooled, every analysis configuration in both formats,
/// and a session advanced in thirds with a checkpoint save and resume
/// between advances (what eviction under `--max-live-sessions 1` does).
fn serve_replay(
    pool: &[PoolTrace],
    art: &Path,
    l: &mut Ledger,
    out: &mut Outcome,
) -> io::Result<()> {
    for t in pool {
        let (records, segments) = {
            let _u = span("bench.upload");
            let mut reader = {
                let _s = span("trace.source.open");
                TraceReader::from_source(TraceSource::from_bytes(t.bytes.clone()))
                    .map_err(|e| io::Error::other(e.to_string()))?
                    .with_governor(ResourceGovernor::new(Limits::strict()))
            };
            let segments = reader.segment_map();
            let records = read_all(&mut reader, l)?;
            write_artifact(&art.join("upload.trace"), &t.bytes, l)?;
            (records, segments)
        };
        out.op(records.len() as u64 == t.file.records, || {
            format!("replay upload {}", t.file.label)
        });
        for (c, &(rename_all, window)) in SERVE_CONFIGS.iter().enumerate() {
            for text in [false, true] {
                let _r = span("bench.request");
                let mut well =
                    LiveWell::new(inputs::cli_config(rename_all, window).with_segments(segments));
                {
                    let _s = span("core.livewell");
                    well.process_slice(&records);
                }
                l.livewell_records += records.len() as u64;
                let body = finish_report(well, text, art, l)?;
                let want = if text { &t.refs[c].1 } else { &t.refs[c].0 };
                out.op(&body == want, || {
                    format!("replay analyze {} config {c}", t.file.label)
                });
            }
        }
        let _s = span("bench.session");
        let config = inputs::cli_config(true, None).with_segments(segments);
        let mut well = LiveWell::new(config.clone());
        let third = records.len() / 3;
        for part in [&records[..third], &records[third..2 * third]] {
            {
                let _s = span("core.livewell");
                well.process_slice(part);
            }
            let mut buf = Vec::new();
            {
                let _s = span("core.checkpoint.save");
                well.save_checkpoint(&mut buf)
                    .map_err(|e| io::Error::other(e.to_string()))?;
            }
            l.checkpoint_bytes += buf.len() as u64;
            write_artifact(&art.join("session.pgcp"), &buf, l)?;
            well = {
                let _s = span("core.checkpoint.resume");
                LiveWell::resume_from(&buf[..], config.clone())
                    .map_err(|e| io::Error::other(e.to_string()))?
            };
        }
        {
            let _s = span("core.livewell");
            well.process_slice(&records[2 * third..]);
        }
        l.livewell_records += records.len() as u64;
        let body = finish_report(well, false, art, l)?;
        out.op(body == t.refs[0].0, || {
            format!("replay session {}", t.file.label)
        });
    }
    Ok(())
}

/// Best-effort read of a whole file through a `TraceSource` backend.
fn read_source(mut source: TraceSource, buf: &mut [u8]) -> io::Result<u64> {
    let mut n = 0u64;
    loop {
        match source.read(buf)? {
            0 => return Ok(n),
            k => n += k as u64,
        }
    }
}

/// Repetitions of each kernel leg; each metric is the median.
const KERNEL_REPS: usize = 5;

/// Records per trace whose fields feed the varint legs.
const VARINT_RECORDS: usize = 1 << 20;

/// The kernels inside `read_block`, timed over the workload's own trace
/// bytes: source read (mmap vs buffered), CRC32 over the chunk payloads,
/// SWAR vs scalar varint decode, and `read_block` itself.
fn kernels(
    files: &[&TraceFile],
    out: &mut Outcome,
) -> io::Result<Vec<(&'static str, f64, &'static str)>> {
    let mut buf = vec![0u8; 1 << 20];
    let (mut mmap, mut buffered, mut crc, mut swar, mut scalar, mut block) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let total_bytes: u64 = files.iter().map(|f| f.bytes).sum();
    let (mut records_decoded, mut varints) = (0u64, 0u64);
    let mut payload_bytes = 0u64;
    let encoded = files
        .iter()
        .map(|f| {
            Ok(varint_stream(&first_records(
                &fs::read(&f.path)?,
                VARINT_RECORDS,
            )?))
        })
        .collect::<io::Result<Vec<_>>>()?;
    for rep in 0..KERNEL_REPS {
        let (mut t_mmap, mut t_buf, mut t_crc, mut t_swar, mut t_scalar, mut t_block) =
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        for (f, encoded) in files.iter().zip(&encoded) {
            let started = Instant::now();
            let n = {
                let _s = span("kernel.source.mmap");
                read_source(TraceSource::mapped_file(&f.path)?, &mut buf)?
            };
            t_mmap += started.elapsed().as_secs_f64();
            let started = Instant::now();
            let m = {
                let _s = span("kernel.source.buffered");
                read_source(TraceSource::buffered_file(&f.path)?, &mut buf)?
            };
            t_buf += started.elapsed().as_secs_f64();
            out.check(
                n == f.bytes && m == f.bytes,
                format!("{}: source read size", f.label),
            );

            let bytes = fs::read(&f.path)?;
            let scan = scan_chunks(&bytes)
                .ok_or_else(|| io::Error::other(format!("{}: not a pristine v2 trace", f.label)))?;
            let payloads: Vec<&[u8]> = scan
                .chunks
                .iter()
                .map(|c| &bytes[c.offset + c.header_len..c.offset + c.frame_len])
                .collect();
            let started = Instant::now();
            let mut acc = 0u32;
            {
                let _s = span("kernel.crc32");
                for p in &payloads {
                    acc ^= paragraph_trace::crc32::crc32(p);
                }
            }
            t_crc += started.elapsed().as_secs_f64();
            std::hint::black_box(acc);

            let mut reader = TraceReader::from_source(TraceSource::from_bytes(bytes.clone()))
                .map_err(|e| io::Error::other(e.to_string()))?
                .with_governor(ResourceGovernor::new(Limits::default()));
            let mut batch = Vec::new();
            let mut decoded = 0u64;
            let started = Instant::now();
            {
                let _s = span("kernel.read_block");
                loop {
                    batch.clear();
                    let k = reader
                        .read_block(&mut batch)
                        .map_err(|e| io::Error::other(e.to_string()))?;
                    if k == 0 {
                        break;
                    }
                    decoded += k as u64;
                }
            }
            t_block += started.elapsed().as_secs_f64();
            out.check(
                decoded == f.records,
                format!("{}: read_block record count", f.label),
            );

            let started = Instant::now();
            let (a, na) = {
                let _s = span("kernel.varint.swar");
                decode_varints(encoded, wire::read_varint_swar)?
            };
            t_swar += started.elapsed().as_secs_f64();
            let started = Instant::now();
            let (b, nb) = {
                let _s = span("kernel.varint.scalar");
                decode_varints(encoded, wire::read_varint_slice)?
            };
            t_scalar += started.elapsed().as_secs_f64();
            out.check(
                a == b && na == nb,
                format!("{}: SWAR and scalar varints disagree", f.label),
            );
            if rep == 0 {
                records_decoded += decoded;
                varints += na;
                payload_bytes += payloads.iter().map(|p| p.len() as u64).sum::<u64>();
            }
        }
        mmap.push(total_bytes as f64 / t_mmap / 1e9);
        buffered.push(total_bytes as f64 / t_buf / 1e9);
        crc.push(payload_bytes as f64 / t_crc / 1e9);
        block.push(t_block * 1e9 / records_decoded as f64);
        swar.push(t_swar * 1e9 / varints as f64);
        scalar.push(t_scalar * 1e9 / varints as f64);
    }
    Ok(vec![
        ("trace.source.mmap_gbps", median(&mmap), "GB/s"),
        ("trace.source.buffered_gbps", median(&buffered), "GB/s"),
        ("trace.crc32.gbps", median(&crc), "GB/s"),
        ("trace.wire.swar_ns_per_varint", median(&swar), "ns/varint"),
        (
            "trace.wire.scalar_ns_per_varint",
            median(&scalar),
            "ns/varint",
        ),
        ("trace.wire.varints", varints as f64, "count"),
        (
            "trace.binary.read_block_ns_per_record",
            median(&block),
            "ns/record",
        ),
        ("trace.binary.records", records_decoded as f64, "count"),
        ("trace.binary.bytes", total_bytes as f64, "bytes"),
    ])
}

fn first_records(bytes: &[u8], n: usize) -> io::Result<Vec<TraceRecord>> {
    let mut reader = TraceReader::from_source(TraceSource::from_bytes(bytes.to_vec()))
        .map_err(|e| io::Error::other(e.to_string()))?;
    let mut records = Vec::new();
    while records.len() < n {
        if reader
            .read_block(&mut records)
            .map_err(|e| io::Error::other(e.to_string()))?
            == 0
        {
            break;
        }
    }
    records.truncate(n);
    Ok(records)
}

/// Varints re-encoded from record fields: zigzag pc and address deltas,
/// the class, and each source location's register index or address.
fn varint_stream(records: &[TraceRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * 6);
    let (mut pc, mut addr) = (0u64, 0u64);
    for r in records {
        let _ = wire::write_varint(&mut out, wire::zigzag(r.pc().wrapping_sub(pc) as i64));
        pc = r.pc();
        let _ = wire::write_varint(&mut out, r.class() as u64);
        if let Some(a) = r.mem_addr() {
            let _ = wire::write_varint(&mut out, wire::zigzag(a.wrapping_sub(addr) as i64));
            addr = a;
        }
        for s in r.srcs() {
            let _ = wire::write_varint(&mut out, s.addr().unwrap_or(0));
        }
    }
    out
}

fn decode_varints(
    buf: &[u8],
    read: impl Fn(&[u8], &mut usize) -> io::Result<u64>,
) -> io::Result<(u64, u64)> {
    let (mut pos, mut sum, mut n) = (0usize, 0u64, 0u64);
    while pos < buf.len() {
        sum = sum.wrapping_add(read(buf, &mut pos)?);
        n += 1;
    }
    Ok((std::hint::black_box(sum), n))
}

/// Runs the CLI sweep once, checks its cells against the replay's, and
/// reads the arena and scheduler figures from `sweep.json`.
fn fig8_cli(
    ctx: &Ctx,
    replays: &[Vec<(String, String)>],
    out: &mut Outcome,
) -> io::Result<([f64; 4], [f64; 4])> {
    let dir = ctx.work.join("sweep");
    let _ = fs::remove_dir_all(&dir);
    let exit = sys::run(&mut e2e::sweep_cmd(ctx, &dir))?;
    out.check(exit.ok(), format!("paragraph sweep exited {:?}", exit.code));
    let text = fs::read_to_string(dir.join("sweep.json"))?;
    let manifest = tracefmt::parse_json(&text).map_err(io::Error::other)?;
    let num = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let mut cli_cells = Vec::new();
    let mut cell_walls = Vec::new();
    if let Some(JsonValue::Arr(cells)) = manifest.get("cell_results") {
        for cell in cells {
            cell_walls.push(num(cell, "wall_ns") / 1e9);
            let stem = format!(
                "{}@{}",
                cell.get("workload")
                    .and_then(JsonValue::as_str)
                    .unwrap_or(""),
                cell.get("config").and_then(JsonValue::as_str).unwrap_or("")
            );
            let json =
                fs::read_to_string(dir.join(format!("{stem}.report.json"))).unwrap_or_default();
            cli_cells.push((stem, json));
        }
    }
    // Every replayed cell (untraced and traced) must equal the CLI's.
    for replay in replays {
        out.check(
            replay.len() == cli_cells.len(),
            format!("{} replayed cells, {} swept", replay.len(), cli_cells.len()),
        );
        for (mine, theirs) in replay.iter().zip(&cli_cells) {
            out.op(mine == theirs, || {
                format!("replayed cell {} differs from the CLI sweep's", mine.0)
            });
        }
    }
    let arena = manifest.get("arena").cloned().unwrap_or(JsonValue::Null);
    let (hits, misses) = (num(&arena, "hits"), num(&arena, "misses"));
    let wall = num(&manifest, "wall_ns") / 1e9;
    let jobs = num(&manifest, "jobs").max(1.0);
    let busy: f64 = cell_walls.iter().sum();
    let _ = fs::remove_dir_all(&dir);
    Ok((
        [
            hits,
            misses,
            ratio(hits, hits + misses),
            num(&arena, "peak_resident_bytes") / (1024.0 * 1024.0),
        ],
        [
            busy,
            1.0 - ratio(busy, jobs * wall),
            cell_walls.iter().copied().fold(0.0, f64::max),
            cell_walls.len() as f64,
        ],
    ))
}

/// A short closed loop against the daemon for the `serve.*` figures:
/// client-side time to first byte, the queue depth sampled from
/// `/healthz`, and the daemon's own counters at the end.
fn serve_loop(ctx: &Ctx, out: &mut Outcome) -> io::Result<[f64; 6]> {
    let short = Ctx {
        paragraph: ctx.paragraph.clone(),
        work: ctx.work.join("loop"),
        seed: ctx.seed,
        seconds: (ctx.seconds / 2.0).max(1.0),
        jobs: ctx.jobs,
    };
    let (loop_out, run) = e2e::serve_mixed(&short, true)?;
    out.attempted += loop_out.attempted;
    out.failed += loop_out.failed;
    out.checks_failed += loop_out.checks_failed;
    out.notes.extend(loop_out.notes);
    let h = |k: &str| http::number(&run.healthz, k).unwrap_or(0) as f64;
    Ok([
        median(&run.stats.ttfb_ms),
        run.stats.queue_depth_max as f64,
        h("shed"),
        h("workers_recycled"),
        h("sessions_evicted"),
        h("sessions_resumed"),
    ])
}
