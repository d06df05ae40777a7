//! `paragraph` — command-line front end for the Paragraph toolkit.
//!
//! ```text
//! paragraph list
//! paragraph analyze --workload matrix300 [--size N] [--fuel N]
//!                   [--rename none|regs|regs-stack|all] [--optimistic]
//!                   [--window N] [--unit-latency] [--profile out.csv] [--plot]
//! paragraph analyze --trace trace.pgtr [...]
//! paragraph trace --workload eqntott --out trace.pgtr [--size N] [--fuel N]
//! paragraph run --asm file.s [--input 1,2,3] [--fuel N]
//! paragraph disasm --workload xlisp [--size N]
//! paragraph dot --workload cc1 --out ddg.dot [--size N] [--fuel N]
//! paragraph sweep --workload doduc --windows 1,10,100,1000 [--size N]
//! ```

use paragraph_core::branch::{BranchPolicy, PredictorKind};
use paragraph_core::run::RunSink;
use paragraph_core::telemetry::progress::ProgressReporter;
use paragraph_core::telemetry::{self, Value};
use paragraph_core::{
    analyze_refs, AnalysisConfig, AnalysisReport, LiveWell, MemoryModel, Policy, RenameSet, Run,
    Stop, SyscallPolicy, TraceIdentity, WindowSize,
};
use paragraph_isa::LatencyModel;
use paragraph_trace::binary::{scan_chunks, RecoveryStats, TraceReader, TraceWriter};
use paragraph_trace::govern::{Limits, ResourceGovernor};
use paragraph_trace::{SegmentMap, TraceError, TraceErrorKind, TraceRecord, TraceSource};
use paragraph_vm::Vm;
use paragraph_workloads::{Workload, WorkloadId};
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;
use std::time::Duration;

/// A CLI failure, classified so scripts can dispatch on the exit code:
/// 2 usage, 3 I/O, 4 corrupt trace/checkpoint input, 5 analysis failure,
/// 6 degraded sweep (some cells quarantined, the rest completed),
/// 7 input rejected by a resource governor (well-formed-looking input that
/// *declares* more than policy allows; distinct from damage).
#[derive(Debug)]
enum CliError {
    /// Bad command line: unknown flag, missing argument, invalid value.
    Usage(String),
    /// The filesystem failed (open, create, read, write).
    Io(String),
    /// A trace or checkpoint file exists but its contents are damaged.
    CorruptTrace(String),
    /// The workload or VM run itself failed.
    Analysis(String),
    /// A sweep completed but quarantined one or more cells; the healthy
    /// cells' artifacts are intact and byte-identical to a fault-free run.
    Quarantined(String),
    /// Untrusted input tripped a resource-governor limit. Carries both the
    /// human-readable message and a machine-readable JSON report (one
    /// object: `error`, `path`, `limit`, `what`, `actual`, `cap`) that is
    /// printed to stderr so supervisors can parse the rejection.
    InputRejected {
        /// Human-readable diagnostic, printed like every other error.
        message: String,
        /// One-line JSON rejection report, printed to stderr after the
        /// diagnostic (and written to `--reject-report FILE` if given).
        report: String,
    },
    /// `client` only: the daemon answered 429 (queue full) or 503
    /// (draining) — a retryable back-pressure condition, not a failure of
    /// the request itself. Distinct code so supervisors can retry with
    /// backoff instead of alerting.
    ServerBusy(String),
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        ExitCode::from(match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::CorruptTrace(_) => 4,
            CliError::Analysis(_) => 5,
            CliError::Quarantined(_) => 6,
            CliError::InputRejected { .. } => 7,
            CliError::ServerBusy(_) => 8,
        })
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m)
            | CliError::Io(m)
            | CliError::CorruptTrace(m)
            | CliError::Analysis(m)
            | CliError::Quarantined(m)
            | CliError::ServerBusy(m) => f.write_str(m),
            CliError::InputRejected { message, .. } => f.write_str(message),
        }
    }
}

/// Minimal JSON string escaping for the rejection report (paths may contain
/// quotes or backslashes; limit names never do, but escape uniformly).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// Builds the typed rejection: message for humans, JSON for machines.
fn input_rejected(
    path: &str,
    limit: &'static str,
    what: &'static str,
    actual: u64,
    cap: u64,
    detail: impl fmt::Display,
) -> CliError {
    CliError::InputRejected {
        message: format!("{path}: input rejected: {detail}"),
        report: format!(
            "{{\"error\":\"input-rejected\",\"path\":\"{}\",\"limit\":\"{}\",\
             \"what\":\"{}\",\"actual\":{actual},\"cap\":{cap}}}",
            json_escape(path),
            json_escape(limit),
            json_escape(what),
        ),
    }
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn io_err(path: &str, e: impl fmt::Display) -> CliError {
    CliError::Io(format!("{path}: {e}"))
}

/// Classifies a trace-format error: damaged bytes are distinct from a
/// failing disk, and a governor rejection is distinct from both.
fn trace_err(path: &str, e: TraceError) -> CliError {
    if let Some(v) = e.limit_violation() {
        return input_rejected(path, v.limit, v.what, v.actual, v.cap, v);
    }
    match e.kind() {
        TraceErrorKind::Io(_) => CliError::Io(format!("{path}: {e}")),
        _ => CliError::CorruptTrace(format!("{path}: {e}")),
    }
}

/// Classifies a checkpoint-loader error the same way: I/O, governor
/// rejection, or damage.
fn checkpoint_err(path: &str, e: paragraph_core::CheckpointError) -> CliError {
    use paragraph_core::CheckpointError;
    match e {
        CheckpointError::LimitExceeded(v) => {
            input_rejected(path, v.limit, v.what, v.actual, v.cap, v)
        }
        CheckpointError::Io(_) => CliError::Io(format!("{path}: {e}")),
        _ => CliError::CorruptTrace(format!("{path}: {e}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("paragraph: {e}");
            if let CliError::InputRejected { report, .. } = &e {
                // Machine-readable rejection on its own stderr line, so a
                // supervisor can parse what was refused and why.
                eprintln!("{report}");
            }
            e.exit_code()
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(());
    };
    let opts = Options::parse(&args[1..]).map_err(CliError::Usage)?;
    // Only `profile` (timeline/bench-log files) and `client`
    // (METHOD PATH) take positional arguments; everywhere else a stray
    // word is a typo, not an input.
    if command != "profile" && command != "client" && !opts.positional.is_empty() {
        return Err(usage_err(format!(
            "unexpected argument `{}`",
            opts.positional[0]
        )));
    }
    let result = match command.as_str() {
        "list" => cmd_list(),
        "analyze" => instrumented(&opts, "analysis", |sinks, failures| {
            cmd_analyze(&opts, sinks, failures)
        }),
        "trace" => cmd_trace(&opts),
        "ingest" => cmd_ingest(&opts),
        "run" => instrumented(&opts, "run", |_, _| cmd_run(&opts)),
        "disasm" => cmd_disasm(&opts),
        "dot" => cmd_dot(&opts),
        "sweep" => instrumented(&opts, "sweep", |_, _| cmd_sweep(&opts)),
        "compare" => cmd_compare(&opts),
        "stats" => cmd_stats(&opts),
        "report" => cmd_report(&opts),
        "profile" => cmd_profile(&opts),
        "serve" => cmd_serve(&opts),
        "client" => cmd_client(&opts),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(usage_err(format!(
            "unknown command `{other}` (try `paragraph help`)"
        ))),
    };
    if let (Err(CliError::InputRejected { report, .. }), Some(path)) =
        (&result, &opts.reject_report)
    {
        if let Err(e) = std::fs::write(path, format!("{report}\n")) {
            eprintln!("warning: reject report failed ({path}: {e})");
        }
    }
    result
}

fn print_usage() {
    println!(
        "paragraph — dynamic dependency analysis of ordinary programs (ISCA 1992)

usage: paragraph <command> [options]

commands:
  list      show the available workloads (the paper's Table 2 inventory)
  analyze   run the live-well analyzer over a workload or a trace file
  trace     capture a workload's execution trace to a binary file
  ingest    convert an external text trace (--text FILE, see docs/ingest.md)
            into the binary trace format (--out FILE); streaming, governed
  run       execute an assembly file on the VM
  disasm    print a workload's generated assembly
  dot       export a (small) workload's explicit DDG in Graphviz format
  sweep     window-size sweep: one workload (Figure 8, one curve), or a
            parallel (workload x window) grid with --workloads [--jobs N]
  compare   one workload under the standard ladder of machine conditions
  stats     first-order operation frequencies of a workload or trace file
  report    full Section-2.3 analysis: lifetimes, sharing, slack, storage
  profile   summarize a --timeline-out recording: per-stage self-time,
            lane utilization, slowest slices; --diff B compares two
            timelines; --bench-compare BASELINE checks bench-log rows
  serve     run the multi-tenant analysis daemon (see docs/serve.md):
            trace uploads and analysis over HTTP on --addr or --uds, a
            bounded worker pool with panic isolation, load shedding, and
            graceful drain on SIGTERM/SIGINT
  client    one request against a running daemon:
            client ENDPOINT METHOD PATH [--body FILE]; the response body
            goes to stdout and the status maps onto the exit codes below

common options:
  --workload NAME   one of the ten benchmark analogues
  --trace FILE      read a binary trace instead of running a workload
  --size N          workload problem size (default per workload)
  --fuel N          dynamic instruction cap (default 100,000,000)
  --rename MODE     none | regs | regs-stack | all   (default all)
  --optimistic      ignore system calls (default: conservative firewalls)
  --window N        instruction window size (default infinite)
  --branch MODE     perfect | stall | always-taken | never-taken | btfn |
                    bimodal:N | gshare:N   (default perfect)
  --units N         at most N operations may start per level (default inf)
  --no-disambiguation  conservative memory aliasing (loads wait for all
                    earlier stores; stores for all earlier memory ops)
  --value-stats     report value lifetime and sharing distributions
  --unit-latency    all operations take one level (default: Table 1)
  --seed N          workload input seed
  --skip N          drop the first N trace records before analyzing
  --take N          analyze at most N trace records (after --skip)
  --input A,B,C     read_int inputs for `run`
  --out FILE        output file (trace/dot)
  --format FMT      trace output format: binary (default) | csv
  --profile FILE    write the parallelism profile as CSV
  --json FILE       write the analysis report as JSON
  --plot            print an ASCII parallelism profile
  --windows A,B,C   window sizes for `sweep`
  --workloads LIST  grid sweep: comma-separated workloads, or `all`; each
                    trace is decoded once into a shared arena and the
                    (workload x window) cells run on --jobs workers
  --jobs N          worker threads. For `sweep --workloads`: cells of the
                    grid fan out across N workers (0 or absent: all cores;
                    also PARAGRAPH_JOBS). For `analyze --workload`: the
                    trace is cut at conservative-syscall firewalls into N
                    segments analyzed concurrently; the report is
                    byte-identical to --jobs 1 (see docs/hotpath.md).
                    Configurations the cut rule cannot split exactly, and
                    checkpointing runs, use one thread. `analyze --trace`
                    always streams the file through the decode-ahead
                    pipeline (one decode thread, one analysis thread)
  --mmap / --no-mmap  force the trace input backend: memory-mapped or
                    buffered reads (default: map regular files, fall back
                    to buffered reads; identical records, errors, and
                    recovery accounting either way — see docs/hotpath.md)
  --retries N       grid sweep: failed-cell retries before quarantine
                    (default 2; see docs/supervision.md)
  --retry-backoff-ms N  base backoff between cell retries (default 25;
                    exponential growth, deterministic jitter)

fault tolerance (analyze):
  --recover             read a damaged trace: resynchronize past corrupt
                        chunks and report how many records were lost
  --checkpoint-every N  save analyzer state every N records
  --checkpoint FILE     checkpoint path (default: <trace>.pgcp)
  --resume FILE         resume an interrupted analysis from a checkpoint
  --live-well-cap N     bound the live-well table to N memory locations,
                        evicting the coldest (reported as a caveat)

instrumentation (analyze / run / sweep; see docs/telemetry.md): every
stage is one span, recorded by whichever sinks are armed
  --telemetry-out FILE  write a JSONL structured event log
  --metrics-out FILE    write a Prometheus text snapshot at exit (and, for
                        analyze, at every checkpoint)
  --timeline-out FILE   record a per-thread span timeline and export it as
                        Chrome trace-event JSON (open in ui.perfetto.dev);
                        lane capacity via PARAGRAPH_TIMELINE_EVENTS
  --progress[=SECS]     analyze: heartbeat line to stderr every SECS seconds
                        (default 2): records, %done, MB/s, critical path, ETA
  stats --telemetry FILE   summarize a JSONL log (per-stage table); bad
                        lines are skipped with a warning (--strict: fail)
  stats --metrics FILE     validate a Prometheus snapshot
  profile T.json [--top N]        per-stage self-time, lanes, slow slices
  profile A.json --diff B.json    stage-by-stage timeline comparison
  profile CUR --bench-compare BASE [--bench-threshold PCT]
                        compare bench-log rows (BENCH.*.json); exit 5 when
                        any row slows down more than PCT% (default 20)

daemon (serve / client; see docs/serve.md):
  --addr HOST:PORT      TCP bind address (default 127.0.0.1:7307)
  --uds PATH            bind a unix-domain socket instead of TCP
  --workers N           worker threads (default 4)
  --queue N             admission queue capacity; beyond it, shed with
                        429 + Retry-After (default 64)
  --max-live-sessions N analyzers resident at once; beyond it, idle
                        sessions are checkpointed to disk and resumed on
                        touch (default 8)
  --spool DIR           trace + session spool (default paragraph-serve)
  --deadline-ms N       per-request analysis deadline (default none)
  --max-body-mb N       largest accepted request body (default 256)
  --ready-file FILE     write one line with the bound endpoint once
                        listening, crash-consistently, for launchers
  --body FILE           client: request body ('-' reads stdin)
  uploads decode under Limits::strict(); PARAGRAPH_MAX_* overrides are
  honored, but serve refuses to start on a malformed override (exit 2)
  where the one-shot commands warn and fall back to defaults
  PARAGRAPH_FAULT_REQUEST=<METHOD|*>@<path-prefix>[:fails[:kind]]
  injects request faults (panic|reject|corrupt|deadline|disconnect|stall)

untrusted input (see docs/ingest.md):
  resource governors cap what a trace, checkpoint, ingest, or asm file may
  declare or allocate (PARAGRAPH_MAX_* env overrides); a violation exits 7
  with a one-line JSON rejection report on stderr
  --reject-report FILE  also write the JSON rejection report to FILE

exit codes: 0 ok, 2 usage, 3 I/O, 4 corrupt trace, 5 analysis failure,
            6 degraded sweep (cells quarantined; healthy cells intact),
            7 input rejected by a resource governor,
            8 daemon busy or draining (client; retry with backoff)
            (HTTP mapping for the daemon: see the README table)"
    );
}

#[derive(Debug, Default)]
struct Options {
    workload: Option<WorkloadId>,
    trace: Option<String>,
    asm: Option<String>,
    size: Option<u32>,
    seed: Option<u64>,
    fuel: Option<u64>,
    rename: Option<RenameSet>,
    optimistic: bool,
    window: Option<usize>,
    branch: Option<BranchPolicy>,
    units: Option<usize>,
    skip: Option<usize>,
    take: Option<usize>,
    no_disambiguation: bool,
    value_stats: bool,
    unit_latency: bool,
    out: Option<String>,
    profile: Option<String>,
    json: Option<String>,
    format: Option<String>,
    plot: bool,
    inputs: Vec<i64>,
    windows: Vec<usize>,
    recover: bool,
    /// Trace input backend: `Some(true)` forces the memory-mapped backend
    /// (`--mmap`), `Some(false)` forces buffered reads (`--no-mmap`),
    /// `None` maps regular files and silently falls back to buffered
    /// reads where mapping is unavailable.
    mmap: Option<bool>,
    checkpoint_every: Option<u64>,
    checkpoint: Option<String>,
    resume: Option<String>,
    live_well_cap: Option<usize>,
    /// Heartbeat interval in seconds (`--progress[=N]`).
    progress: Option<f64>,
    telemetry_out: Option<String>,
    metrics_out: Option<String>,
    /// `stats --telemetry FILE`: summarize a JSONL telemetry log.
    stats_telemetry: Option<String>,
    /// `stats --metrics FILE`: validate a Prometheus snapshot.
    stats_metrics: Option<String>,
    /// `sweep --workloads a,b,c|all`: multi-workload grid sweep through the
    /// parallel sweep engine instead of the single-workload ladder.
    workloads: Vec<WorkloadId>,
    /// Worker threads for the grid sweep (`0`/absent = all cores).
    jobs: Option<usize>,
    /// Failed-cell retries before quarantine (grid sweep).
    retries: Option<u32>,
    /// Base backoff between cell retries, in milliseconds (grid sweep).
    retry_backoff_ms: Option<u64>,
    /// `ingest --text FILE`: external text trace to convert.
    text: Option<String>,
    /// Where to also write the JSON rejection report on exit code 7.
    reject_report: Option<String>,
    /// `stats --telemetry`: fail on the first malformed JSONL line instead
    /// of warning and skipping it.
    strict: bool,
    /// `--timeline-out FILE`: record a flight-recorder timeline and export
    /// it as Chrome trace-event JSON (analyze / run / sweep).
    timeline_out: Option<String>,
    /// `profile A --diff B`: compare two timelines stage by stage.
    diff: Option<String>,
    /// `profile --top N`: how many slowest slices to list (default 10).
    top: Option<usize>,
    /// `profile CURRENT --bench-compare BASELINE`: compare bench-log rows
    /// against a baseline instead of profiling a timeline.
    bench_compare: Option<String>,
    /// `--bench-threshold PCT`: allowed slowdown before the compare fails
    /// (default 20).
    bench_threshold: Option<f64>,
    /// `serve --addr HOST:PORT`: TCP bind address.
    addr: Option<String>,
    /// `serve --uds PATH`: unix-domain socket path instead of TCP.
    uds: Option<String>,
    /// `serve --workers N`: worker threads.
    workers: Option<usize>,
    /// `serve --queue N`: admission queue capacity.
    queue: Option<usize>,
    /// `serve --max-live-sessions N`: resident analyzer budget.
    max_live_sessions: Option<usize>,
    /// `serve --spool DIR`: trace + session spool directory.
    spool: Option<String>,
    /// `serve --deadline-ms N`: per-request analysis deadline.
    deadline_ms: Option<u64>,
    /// `serve --max-body-mb N`: largest accepted request body.
    max_body_mb: Option<u64>,
    /// `serve --ready-file FILE`: readiness line for launchers.
    ready_file: Option<String>,
    /// `client --body FILE`: request body source (`-` reads stdin).
    body: Option<String>,
    /// Non-flag arguments (only `profile` and `client` accept them).
    positional: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    opts.workload = Some(
                        WorkloadId::by_name(&name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    );
                }
                "--trace" => opts.trace = Some(value()?),
                "--asm" => opts.asm = Some(value()?),
                "--size" => opts.size = Some(parse_num(&value()?)?),
                "--seed" => opts.seed = Some(parse_num(&value()?)?),
                "--fuel" => opts.fuel = Some(parse_num(&value()?)?),
                "--rename" => {
                    let mode = value()?;
                    opts.rename = Some(match mode.as_str() {
                        "none" => RenameSet::none(),
                        "regs" => RenameSet::registers_only(),
                        "regs-stack" => RenameSet::registers_and_stack(),
                        "all" => RenameSet::all(),
                        _ => return Err(format!("unknown rename mode `{mode}`")),
                    });
                }
                "--optimistic" => opts.optimistic = true,
                "--window" => opts.window = Some(parse_num(&value()?)?),
                "--branch" => {
                    let mode = value()?;
                    opts.branch = Some(parse_branch_policy(&mode)?);
                }
                "--units" => opts.units = Some(parse_num(&value()?)?),
                "--skip" => opts.skip = Some(parse_num(&value()?)?),
                "--take" => opts.take = Some(parse_num(&value()?)?),
                "--no-disambiguation" => opts.no_disambiguation = true,
                "--value-stats" => opts.value_stats = true,
                "--unit-latency" => opts.unit_latency = true,
                "--out" => opts.out = Some(value()?),
                "--profile" => opts.profile = Some(value()?),
                "--json" => opts.json = Some(value()?),
                "--format" => opts.format = Some(value()?),
                "--plot" => opts.plot = true,
                "--input" => {
                    opts.inputs = parse_list(&value()?)?;
                }
                "--windows" => {
                    opts.windows = parse_list(&value()?)?
                        .into_iter()
                        .map(|v| v as usize)
                        .collect();
                }
                "--workloads" => {
                    let list = value()?;
                    if list == "all" {
                        opts.workloads = WorkloadId::ALL.to_vec();
                    } else {
                        for name in list.split(',').filter(|s| !s.is_empty()) {
                            opts.workloads.push(
                                WorkloadId::by_name(name)
                                    .ok_or_else(|| format!("unknown workload `{name}`"))?,
                            );
                        }
                    }
                    if opts.workloads.is_empty() {
                        return Err("--workloads requires at least one workload".into());
                    }
                }
                "--jobs" => opts.jobs = Some(parse_num(&value()?)?),
                "--retries" => opts.retries = Some(parse_num(&value()?)?),
                "--retry-backoff-ms" => opts.retry_backoff_ms = Some(parse_num(&value()?)?),
                "--recover" => opts.recover = true,
                "--mmap" => opts.mmap = Some(true),
                "--no-mmap" => opts.mmap = Some(false),
                "--checkpoint-every" => {
                    let n: u64 = parse_num(&value()?)?;
                    if n == 0 {
                        return Err("--checkpoint-every requires a positive count".into());
                    }
                    opts.checkpoint_every = Some(n);
                }
                "--checkpoint" => opts.checkpoint = Some(value()?),
                "--resume" => opts.resume = Some(value()?),
                "--live-well-cap" => {
                    let n: usize = parse_num(&value()?)?;
                    if n == 0 {
                        return Err("--live-well-cap requires a positive size".into());
                    }
                    opts.live_well_cap = Some(n);
                }
                "--progress" => opts.progress = Some(2.0),
                "--telemetry-out" => opts.telemetry_out = Some(value()?),
                "--metrics-out" => opts.metrics_out = Some(value()?),
                "--telemetry" => opts.stats_telemetry = Some(value()?),
                "--metrics" => opts.stats_metrics = Some(value()?),
                "--text" => opts.text = Some(value()?),
                "--reject-report" => opts.reject_report = Some(value()?),
                "--strict" => opts.strict = true,
                "--timeline-out" => opts.timeline_out = Some(value()?),
                "--diff" => opts.diff = Some(value()?),
                "--top" => opts.top = Some(parse_num(&value()?)?),
                "--bench-compare" => opts.bench_compare = Some(value()?),
                "--addr" => opts.addr = Some(value()?),
                "--uds" => opts.uds = Some(value()?),
                "--workers" => {
                    let n: usize = parse_num(&value()?)?;
                    if n == 0 {
                        return Err("--workers requires a positive count".into());
                    }
                    opts.workers = Some(n);
                }
                "--queue" => opts.queue = Some(parse_num(&value()?)?),
                "--max-live-sessions" => {
                    let n: usize = parse_num(&value()?)?;
                    if n == 0 {
                        return Err("--max-live-sessions requires a positive count".into());
                    }
                    opts.max_live_sessions = Some(n);
                }
                "--spool" => opts.spool = Some(value()?),
                "--deadline-ms" => opts.deadline_ms = Some(parse_num(&value()?)?),
                "--max-body-mb" => opts.max_body_mb = Some(parse_num(&value()?)?),
                "--ready-file" => opts.ready_file = Some(value()?),
                "--body" => opts.body = Some(value()?),
                "--bench-threshold" => {
                    let pct: f64 = parse_num(&value()?)?;
                    if !pct.is_finite() || pct < 0.0 {
                        return Err("--bench-threshold must be a non-negative percent".into());
                    }
                    opts.bench_threshold = Some(pct);
                }
                flag if flag.starts_with("--progress=") => {
                    let secs: f64 = flag["--progress=".len()..]
                        .parse()
                        .map_err(|_| format!("invalid progress interval `{flag}`"))?;
                    if !secs.is_finite() || secs < 0.0 {
                        return Err("--progress interval must be a non-negative number".into());
                    }
                    opts.progress = Some(secs);
                }
                other if !other.starts_with('-') => opts.positional.push(other.to_owned()),
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(opts)
    }

    fn config(&self, segments: SegmentMap) -> AnalysisConfig {
        let mut config = AnalysisConfig::dataflow_limit().with_segments(segments);
        if let Some(renames) = self.rename {
            config = config.with_renames(renames);
        }
        if self.optimistic {
            config = config.with_syscall_policy(SyscallPolicy::Optimistic);
        }
        if let Some(w) = self.window {
            config = config.with_window(WindowSize::bounded(w));
        }
        if let Some(policy) = self.branch {
            config = config.with_branch_policy(policy);
        }
        if let Some(units) = self.units {
            config = config.with_issue_limit(units);
        }
        if self.no_disambiguation {
            config = config.with_memory_model(MemoryModel::NoDisambiguation);
        }
        if self.value_stats {
            config = config.with_value_stats(true);
        }
        if self.unit_latency {
            config = config.with_latency(LatencyModel::unit());
        }
        if let Some(cap) = self.live_well_cap {
            config = config.with_live_well_cap(cap);
        }
        config
    }

    fn build_workload(&self) -> Result<Workload, String> {
        let id = self
            .workload
            .ok_or("this command needs --workload (see `paragraph list`)")?;
        let mut workload = Workload::new(id);
        if let Some(size) = self.size {
            workload = workload.with_size(size);
        }
        if let Some(seed) = self.seed {
            workload = workload.with_seed(seed);
        }
        Ok(workload)
    }

    fn fuel(&self) -> u64 {
        self.fuel.unwrap_or(paragraph_vm::DEFAULT_FUEL)
    }
}

fn parse_branch_policy(mode: &str) -> Result<BranchPolicy, String> {
    Ok(match mode {
        "perfect" => BranchPolicy::Perfect,
        "stall" => BranchPolicy::StallAlways,
        "always-taken" => BranchPolicy::Predict(PredictorKind::AlwaysTaken),
        "never-taken" => BranchPolicy::Predict(PredictorKind::NeverTaken),
        "btfn" => BranchPolicy::Predict(PredictorKind::Btfn),
        other => {
            let (kind, bits) = other
                .split_once(':')
                .ok_or_else(|| format!("unknown branch policy `{other}`"))?;
            let index_bits: u8 = bits
                .parse()
                .map_err(|_| format!("invalid predictor size `{bits}`"))?;
            match kind {
                "bimodal" => BranchPolicy::Predict(PredictorKind::Bimodal { index_bits }),
                "gshare" => BranchPolicy::Predict(PredictorKind::Gshare { index_bits }),
                _ => return Err(format!("unknown branch policy `{other}`")),
            }
        }
    })
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.replace('_', "")
        .parse()
        .map_err(|_| format!("invalid number `{s}`"))
}

fn parse_list(s: &str) -> Result<Vec<i64>, String> {
    s.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(parse_num)
        .collect()
}

fn cmd_list() -> Result<(), CliError> {
    println!(
        "{:<12} {:<9} {:<11} {:>6}  description",
        "name", "language", "type", "size"
    );
    for id in WorkloadId::ALL {
        println!(
            "{:<12} {:<9} {:<11} {:>6}  {}",
            id.name(),
            id.source_language(),
            id.benchmark_type(),
            id.default_size(),
            id.description()
        );
    }
    Ok(())
}

/// The decoded input of one command: records, segment map, and recovery
/// tallies (under `--recover`).
struct LoadedTrace {
    records: Vec<TraceRecord>,
    segments: SegmentMap,
    recovery: Option<RecoveryStats>,
}

/// Opens the trace input through the backend `--mmap`/`--no-mmap` asks
/// for: forced mapped, forced buffered, or (by default) mapped with a
/// silent fallback to buffered reads. Decode semantics are identical
/// across backends; only how bytes reach the decoder differs.
fn open_trace_source(path: &str, mmap: Option<bool>) -> Result<TraceSource, CliError> {
    let p = std::path::Path::new(path);
    match mmap {
        Some(true) => TraceSource::mapped_file(p),
        Some(false) => TraceSource::buffered_file(p),
        None => TraceSource::auto_file(p),
    }
    .map_err(|e| io_err(path, e))
}

/// A reader over `source`, in recovery mode under `--recover`. Every
/// length the file declares is checked against the governor before
/// anything is allocated for it; violations exit 7.
fn trace_reader(
    opts: &Options,
    path: &str,
    source: TraceSource,
    limits: Limits,
) -> Result<TraceReader<TraceSource>, CliError> {
    let reader = if opts.recover {
        TraceReader::from_source_with_recovery(source)
    } else {
        TraceReader::from_source(source)
    };
    reader
        .map(|r| r.with_governor(ResourceGovernor::new(limits)))
        .map_err(|e| trace_err(path, e))
}

/// Runs the workload on the VM and collects its trace.
fn generate(opts: &Options) -> Result<(Vec<TraceRecord>, SegmentMap), CliError> {
    let mut span = paragraph_core::span!("generate");
    let workload = opts.build_workload().map_err(usage_err)?;
    let (records, segments) = workload
        .collect_trace(opts.fuel())
        .map_err(|e| CliError::Analysis(format!("{}: {e}", workload.id())))?;
    span.arg("records", records.len() as u64);
    Ok((records, segments))
}

/// Loads the records of a command that needs them all at once (`dot`,
/// `stats`, `report`, `compare`, `sweep`): a whole binary trace or a
/// workload run, then the `--skip`/`--take` phase window. Under
/// `--recover` a damaged trace is read in recovery mode; the returned
/// stats say what was lost. `analyze` streams instead (see
/// [`cmd_analyze`]).
fn load_records(opts: &Options) -> Result<LoadedTrace, CliError> {
    let mut loaded = if let Some(path) = &opts.trace {
        let mut span = paragraph_core::span!("decode");
        let source = open_trace_source(path, opts.mmap)?;
        let mut reader = trace_reader(opts, path, source, Limits::from_env())?;
        let segments = reader.segment_map();
        // Block decode: whole chunk payloads at a time, no per-record
        // iterator dispatch.
        let mut records = Vec::new();
        while reader
            .read_block(&mut records)
            .map_err(|e| trace_err(path, e))?
            > 0
        {}
        let recovery = opts.recover.then(|| reader.recovery_stats());
        span.arg("records", reader.records_read());
        span.arg("bytes", reader.bytes_read());
        paragraph_core::counter!("decode.records", reader.records_read());
        paragraph_core::counter!("decode.bytes", reader.bytes_read());
        if let Some(stats) = &recovery {
            span.arg("resyncs", stats.resyncs);
            paragraph_core::counter!("decode.resyncs", stats.resyncs);
            paragraph_core::counter!("decode.records_skipped", stats.records_skipped);
        }
        LoadedTrace {
            records,
            segments,
            recovery,
        }
    } else {
        let (records, segments) = generate(opts)?;
        LoadedTrace {
            records,
            segments,
            recovery: None,
        }
    };
    if let Some(skip) = opts.skip {
        loaded.records.drain(..skip.min(loaded.records.len()));
    }
    if let Some(take) = opts.take {
        loaded.records.truncate(take);
    }
    Ok(loaded)
}

/// Prints what recovery-mode reading had to discard, if anything.
fn print_recovery_stats(stats: &RecoveryStats) {
    if stats.records_skipped == 0 && stats.resyncs == 0 {
        return;
    }
    eprintln!(
        "warning: trace damage — {} records lost, {} corrupt chunks skipped, \
         {} duplicate chunks dropped, {} resyncs over {} bytes; \
         {} records recovered",
        stats.records_skipped,
        stats.chunks_skipped,
        stats.duplicate_chunks,
        stats.resyncs,
        stats.bytes_skipped,
        stats.records_read,
    );
}

/// Prints the analysis report and writes the requested artifacts. Artifact
/// write failures (a full disk under `--profile`/`--json`) degrade: the
/// report still reaches stdout, the failure lands in `artifact_failures`,
/// and the caller turns a non-empty ledger into exit code 3 at the end.
fn print_report(report: &AnalysisReport, opts: &Options, artifact_failures: &mut Vec<String>) {
    // The text rendering is shared with the daemon (`format=text`
    // responses call the same function), so serve/CLI byte-identity holds
    // by construction rather than by keeping two format strings in sync.
    print!("{}", paragraph_serve::render_report_text(report));
    if let Some(path) = &opts.profile {
        match paragraph_core::artifact::write_atomic(std::path::Path::new(path), |out| {
            report.profile().write_csv(out)
        }) {
            // Diagnostics go to stderr; stdout carries only the report
            // itself, so piping/redirecting it never picks up status noise.
            Ok(()) => eprintln!("profile written to {path}"),
            Err(e) => {
                eprintln!("warning: profile CSV failed ({path}: {e})");
                artifact_failures.push(format!("profile {path}: {e}"));
            }
        }
    }
    if let Some(path) = &opts.json {
        match paragraph_core::artifact::write_atomic_bytes(
            std::path::Path::new(path),
            report.to_json().as_bytes(),
        ) {
            Ok(()) => eprintln!("report written to {path}"),
            Err(e) => {
                eprintln!("warning: report JSON failed ({path}: {e})");
                artifact_failures.push(format!("report {path}: {e}"));
            }
        }
    }
    if opts.plot {
        println!("{}", report.profile().ascii_plot(72, 12));
    }
}

/// The checkpoint path for this run: `--checkpoint FILE`, or derived from
/// the trace file name.
fn checkpoint_path(opts: &Options) -> String {
    opts.checkpoint.clone().unwrap_or_else(|| {
        opts.trace
            .as_deref()
            .map(|t| format!("{t}.pgcp"))
            .unwrap_or_else(|| "paragraph.pgcp".to_owned())
    })
}

/// Saves a checkpoint through the shared crash-consistent writer: unique
/// temp name, `sync_all`, rename, parent-directory fsync — an interrupt or
/// power cut mid-save never destroys the previous checkpoint, and two
/// concurrent processes checkpointing the same path never collide on the
/// temp file.
fn save_checkpoint_atomic(analyzer: &LiveWell, path: &str) -> Result<(), CliError> {
    paragraph_core::artifact::write_atomic(std::path::Path::new(path), |out| {
        analyzer
            .save_checkpoint(out)
            .map_err(|e| std::io::Error::other(e.to_string()))
    })
    .map_err(|e| io_err(path, e))
}

/// The instrumentation sinks of one command. `--telemetry-out`,
/// `--metrics-out` and `--progress` arm the global registry, and
/// `--timeline-out` the flight recorder; with none of them every span stays
/// inert. [`instrumented`] arms them before a command and closes them after
/// it, the same way for every command that takes them.
struct Sinks {
    registry: bool,
    telemetry_out: Option<String>,
    metrics_out: Option<String>,
    timeline_out: Option<String>,
}

impl Sinks {
    fn arm(opts: &Options) -> Result<Sinks, CliError> {
        let registry =
            opts.progress.is_some() || opts.telemetry_out.is_some() || opts.metrics_out.is_some();
        if registry {
            let global = telemetry::global();
            global.enable();
            if let Some(path) = &opts.telemetry_out {
                let file = File::create(path).map_err(|e| io_err(path, e))?;
                global.set_event_sink(Box::new(BufWriter::new(file)));
            }
        }
        if opts.timeline_out.is_some() {
            let timeline = telemetry::timeline::timeline();
            // Events per thread lane.
            if let Some(cap) = std::env::var("PARAGRAPH_TIMELINE_EVENTS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
            {
                timeline.set_lane_capacity(cap);
            }
            timeline.enable();
            telemetry::name_lane(format_args!("main"));
        }
        Ok(Sinks {
            registry,
            telemetry_out: opts.telemetry_out.clone(),
            metrics_out: opts.metrics_out.clone(),
            timeline_out: opts.timeline_out.clone(),
        })
    }

    /// Closes every armed sink: the log's final dump and flush, the metrics
    /// snapshot, the timeline export. Each failure warns and lands in
    /// `failures`. Touches only the sink files and stderr — never stdout,
    /// so instrumented output stays byte-identical to a plain run's.
    fn finish(&self, failures: &mut Vec<String>) {
        if self.registry {
            let registry = telemetry::global();
            registry.emit_final_dump();
            match registry.flush_sink() {
                Err(e) => {
                    eprintln!("warning: telemetry log failed ({e})");
                    failures.push(format!("telemetry log: {e}"));
                }
                Ok(()) => {
                    if let Some(path) = &self.telemetry_out {
                        eprintln!("telemetry log written to {path}");
                    }
                }
            }
            if let Some(path) = &self.metrics_out {
                match write_metrics_snapshot(path) {
                    Ok(()) => eprintln!("metrics snapshot written to {path}"),
                    Err(e) => {
                        eprintln!("warning: metrics snapshot failed ({e})");
                        failures.push(format!("metrics {path}: {e}"));
                    }
                }
            }
        }
        if let Some(path) = &self.timeline_out {
            let timeline = telemetry::timeline::timeline();
            match paragraph_core::artifact::write_atomic(std::path::Path::new(path), |out| {
                timeline.export_chrome_trace(out)
            }) {
                Ok(()) => eprintln!("timeline written to {path}"),
                Err(e) => {
                    eprintln!("warning: timeline export failed ({path}: {e})");
                    failures.push(format!("timeline {path}: {e}"));
                }
            }
        }
    }
}

/// Runs one instrumented command: arms the sinks, runs `body`, and closes
/// the sinks whether or not it succeeded, so even a failed run leaves a
/// complete log. The artifact-failure ledger (`body`'s own failures, then
/// the sinks') never aborts the work: each failure warns, the command runs
/// to completion, and a non-empty ledger becomes exit code 3 — unless
/// `body` failed, whose error wins.
fn instrumented(
    opts: &Options,
    what: &str,
    body: impl FnOnce(&Sinks, &mut Vec<String>) -> Result<(), CliError>,
) -> Result<(), CliError> {
    let sinks = Sinks::arm(opts)?;
    let mut failures = Vec::new();
    let result = body(&sinks, &mut failures);
    sinks.finish(&mut failures);
    result?;
    if failures.is_empty() {
        return Ok(());
    }
    Err(CliError::Io(format!(
        "{what} completed, but {} artifact(s) failed: {}",
        failures.len(),
        failures.join("; ")
    )))
}

/// Writes the current global metrics as a Prometheus text snapshot.
fn write_metrics_snapshot(path: &str) -> Result<(), CliError> {
    let text = telemetry::global().snapshot().to_prometheus();
    std::fs::write(path, text).map_err(|e| io_err(path, e))
}

/// The sink of an `analyze` run. Checkpoints are saved crash-consistently
/// to one path, each followed by a fresh Prometheus snapshot so an
/// external watcher never sees state older than the last checkpoint; the
/// first failed save warns, lands in the artifact-failure ledger, and
/// turns checkpointing off while the analysis runs on. Heartbeats refresh
/// the telemetry gauges and the timeline counters, and print a
/// `--progress` line (also logged as a `progress` event) when one is due.
struct AnalyzeSink<'a> {
    checkpoint_path: String,
    checkpointing: bool,
    failures: Vec<String>,
    sinks: &'a Sinks,
    reporter: Option<ProgressReporter>,
}

impl AnalyzeSink<'_> {
    fn write_checkpoint(&self, well: &LiveWell) -> Result<(), CliError> {
        save_checkpoint_atomic(well, &self.checkpoint_path)?;
        if self.sinks.registry {
            well.publish_telemetry(telemetry::global());
            if let Some(metrics_path) = &self.sinks.metrics_out {
                write_metrics_snapshot(metrics_path)?;
            }
        }
        Ok(())
    }

    /// One beat; `force` prints a line even when none is due (the final
    /// one, so short runs still show a heartbeat).
    fn tick(&mut self, well: &LiveWell, workers: u64, bytes: u64, force: bool) {
        let instrumented = telemetry::enabled();
        if instrumented {
            well.publish_telemetry(telemetry::global());
        }
        let (seen, _, cp, _) = well.snapshot();
        let seen = seen.saturating_add(workers);
        if let Some(timeline) = telemetry::timeline::timeline_active() {
            timeline.counter("livewell.records", seen);
            timeline.counter("livewell.critical_path", cp);
        }
        let Some(reporter) = self.reporter.as_mut() else {
            return;
        };
        if !force && !reporter.is_due() {
            return;
        }
        let tick = reporter.force_tick(seen, bytes, cp);
        eprintln!("{}", tick.line);
        if instrumented {
            telemetry::global().emit(
                "progress",
                &[
                    ("records", Value::U64(tick.records)),
                    ("records_per_sec", Value::F64(tick.records_per_sec)),
                    ("bytes_per_sec", Value::F64(tick.bytes_per_sec)),
                    ("mb_per_sec", Value::F64(tick.mb_per_sec)),
                    ("critical_path", Value::U64(cp)),
                    ("eta_secs", Value::F64(tick.eta_secs.unwrap_or(-1.0))),
                ],
            );
        }
    }
}

impl RunSink for AnalyzeSink<'_> {
    fn checkpoint(&mut self, well: &LiveWell) {
        if !self.checkpointing {
            return;
        }
        if let Err(e) = self.write_checkpoint(well) {
            eprintln!("warning: checkpoint save failed ({e}); continuing without checkpoints");
            let path = &self.checkpoint_path;
            self.failures.push(format!("checkpoint {path}: {e}"));
            self.checkpointing = false;
        }
    }

    fn beat(&mut self, well: &LiveWell, workers: u64, bytes: u64) {
        self.tick(well, workers, bytes, false);
    }
}

/// What `analyze` runs over.
enum Source {
    /// A trace file, streamed through decode-ahead.
    Stream(Box<TraceReader<TraceSource>>),
    /// A workload's trace, collected from the VM.
    Slice(Vec<TraceRecord>),
}

/// An opened `analyze` input.
struct AnalyzeInput {
    source: Source,
    segments: SegmentMap,
    /// Records after `--skip` (before `--take`), when known up front.
    total: Option<u64>,
    /// The trace file's size on disk (0 for a workload).
    bytes: u64,
    /// The identity checkpoints embed, so `--resume` against the wrong
    /// trace fails as typed corruption instead of producing silently
    /// wrong numbers. Taken after `--skip` but before `--take`: `--take`
    /// bounds how far this run analyzes, it does not make the trace a
    /// different one, so a checkpoint saved under `--take N` resumes over
    /// the full stream. `None` when no checkpoint is in play.
    identity: Option<TraceIdentity>,
}

/// Opens what `analyze` runs over. A trace file streams, and its record
/// total is read up front only when a checkpoint or telemetry needs it:
/// the chunk headers of a pristine mapped v2 file give it without
/// decoding; any other file (v1, damaged, `--recover`, unmappable) is
/// counted by one extra pass of the same reader, and only when
/// checkpoints are in play. No pass keeps the records.
fn open_input(opts: &Options, sinks: &Sinks) -> Result<AnalyzeInput, CliError> {
    let checkpointing = opts.checkpoint_every.is_some() || opts.resume.is_some();
    let skip = opts.skip.unwrap_or(0);
    let Some(path) = &opts.trace else {
        let (records, segments) = generate(opts)?;
        let rest = &records[skip.min(records.len())..];
        return Ok(AnalyzeInput {
            total: Some(rest.len() as u64),
            identity: checkpointing.then(|| TraceIdentity::of_records(rest)),
            source: Source::Slice(records),
            segments,
            bytes: 0,
        });
    };
    let limits = Limits::from_env();
    let source = open_trace_source(path, opts.mmap)?;
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    let scanned = (!opts.recover && (checkpointing || sinks.registry))
        .then(|| source.shared_bytes())
        .flatten()
        .and_then(|bytes| scan_chunks(&bytes))
        .map(|scan| scan.total);
    let reader = trace_reader(opts, path, source, limits)?;
    let identity = if checkpointing {
        let source = open_trace_source(path, opts.mmap)?;
        let mut counter = trace_reader(opts, path, source, limits)?;
        let identity = TraceIdentity::of_stream(&mut counter, skip as u64, scanned)
            .map_err(|e| trace_err(path, e))?;
        Some(identity)
    } else {
        None
    };
    Ok(AnalyzeInput {
        segments: reader.segment_map(),
        total: identity
            .map(|i| i.records)
            .or(scanned.map(|t| t.saturating_sub(skip as u64))),
        source: Source::Stream(Box::new(reader)),
        bytes,
        identity,
    })
}

/// Classifies why a run stopped: a trace fault like a whole-file read's,
/// a decode thread that would not start as I/O, anything else (a
/// checkpoint ahead of its input) as corruption.
fn stop_err(path: &str, stop: Stop) -> CliError {
    match stop {
        Stop::Trace(e) => trace_err(path, e),
        Stop::Spawn(e) => io_err(path, e),
        other => CliError::CorruptTrace(other.to_string()),
    }
}

/// `analyze`: one [`Run`] of the live well. A trace file streams through
/// the decode-ahead pipeline into one analyzer, whatever the flags; a
/// workload's collected trace runs as a slice, cut at conservative-syscall
/// firewalls across `--jobs` threads (see docs/hotpath.md). The driver
/// owns the skip/take window, checkpoint cadence and heartbeats; this
/// function wires its sinks and renders what it returns.
fn cmd_analyze(
    opts: &Options,
    sinks: &Sinks,
    artifact_failures: &mut Vec<String>,
) -> Result<(), CliError> {
    let input = open_input(opts, sinks)?;
    let take = opts.take.map_or(u64::MAX, |t| t as u64);
    let total = input.total.map(|t| t.min(take));
    let name = opts
        .trace
        .clone()
        .or_else(|| opts.workload.map(|w| w.name().to_owned()))
        .unwrap_or_default();
    if sinks.registry {
        telemetry::global().emit(
            "run_start",
            &[
                ("command", Value::Str("analyze")),
                ("source", Value::Str(&name)),
                ("records", Value::U64(total.unwrap_or(0))),
                ("bytes", Value::U64(input.bytes)),
            ],
        );
    }

    let config = opts.config(input.segments);
    let mut analyzer = match &opts.resume {
        Some(path) => {
            let mut span = paragraph_core::span!("checkpoint.load");
            let file = File::open(path).map_err(|e| io_err(path, e))?;
            let analyzer = LiveWell::resume_from(BufReader::new(file), config)
                .map_err(|e| checkpoint_err(path, e))?;
            if let Some(current) = &input.identity {
                analyzer
                    .verify_trace_identity(current)
                    .map_err(|e| checkpoint_err(path, e))?;
            }
            span.arg("records", analyzer.records_processed());
            eprintln!(
                "resumed from {path} at record {}",
                analyzer.records_processed()
            );
            analyzer
        }
        None => LiveWell::new(config),
    };
    analyzer.set_trace_identity(input.identity);

    let mut sink = AnalyzeSink {
        checkpoint_path: checkpoint_path(opts),
        checkpointing: opts.checkpoint_every.is_some(),
        failures: Vec::new(),
        sinks,
        reporter: opts.progress.map(|secs| {
            ProgressReporter::new(Duration::from_secs_f64(secs), total)
                .with_total_bytes((input.bytes > 0).then_some(input.bytes))
                .with_resumed(analyzer.records_processed(), 0)
        }),
    };
    if sink.checkpointing {
        // Sweep temp files a crashed predecessor left next to the
        // checkpoint (scoped to this checkpoint's name, so nothing else in
        // a shared directory is touched).
        let path = &sink.checkpoint_path;
        let swept = paragraph_core::artifact::clean_orphaned_tmp_for(std::path::Path::new(path));
        if swept > 0 {
            eprintln!("removed {swept} orphaned checkpoint temp file(s) for {path}");
        }
    }
    let jobs = opts
        .jobs
        .map_or(1, paragraph_core::parallel::effective_jobs);
    let policy = Policy {
        checkpoint_every: opts.checkpoint_every,
        skip: opts.skip.map_or(0, |s| s as u64),
        take,
        jobs,
        ..Policy::with_sink(&mut sink)
    };
    let (outcome, stats) = {
        let mut span = paragraph_core::span!("analyze");
        let mut run = Run::new(&mut analyzer, policy);
        let outcome = match input.source {
            Source::Stream(reader) => run.stream(*reader),
            Source::Slice(records) => run.slice(&records),
        };
        let stats = run.stats();
        span.arg("records", stats.analyzed);
        span.arg("bytes", stats.bytes);
        (outcome, stats)
    };
    if let Some(decoded) = &stats.decode {
        paragraph_core::counter!("decode.records", decoded.stats.records_read);
        paragraph_core::counter!("decode.bytes", decoded.bytes_read);
        if opts.recover {
            paragraph_core::counter!("decode.resyncs", decoded.stats.resyncs);
            paragraph_core::counter!("decode.records_skipped", decoded.stats.records_skipped);
            if !matches!(outcome, Err(Stop::Trace(_))) {
                print_recovery_stats(&decoded.stats);
            }
        }
    }
    outcome.map_err(|stop| stop_err(&name, stop))?;
    if let Some(reason) = stats.one_thread.filter(|_| opts.progress.is_some()) {
        eprintln!("note: --jobs {jobs}: {reason}; analyzing on one thread");
    }

    if sink.checkpointing {
        paragraph_core::run::checkpoint(&mut sink, &analyzer);
        if sink.checkpointing {
            eprintln!("checkpoint written to {}", sink.checkpoint_path);
        }
    }
    sink.tick(&analyzer, 0, stats.bytes, true);
    artifact_failures.append(&mut sink.failures);

    let report = paragraph_core::run::report(analyzer);
    print_report(&report, opts, artifact_failures);
    if sinks.registry {
        telemetry::global().emit(
            "run_end",
            &[
                ("records", Value::U64(report.total_records())),
                ("placed", Value::U64(report.placed_ops())),
                ("critical_path", Value::U64(report.critical_path_length())),
            ],
        );
    }
    Ok(())
}

fn cmd_trace(opts: &Options) -> Result<(), CliError> {
    let workload = opts.build_workload().map_err(usage_err)?;
    let path = opts
        .out
        .as_deref()
        .ok_or_else(|| usage_err("trace needs --out FILE"))?;
    let file = File::create(path).map_err(|e| io_err(path, e))?;
    let mut vm = workload.vm();
    match opts.format.as_deref().unwrap_or("binary") {
        "binary" => {
            let mut writer = TraceWriter::new(BufWriter::new(file), vm.segment_map())
                .map_err(|e| io_err(path, e))?;
            let mut write_error = None;
            let outcome = vm
                .run_traced(opts.fuel(), |record| {
                    if write_error.is_none() {
                        if let Err(e) = writer.write_record(record) {
                            write_error = Some(e);
                        }
                    }
                })
                .map_err(|e| CliError::Analysis(format!("{}: {e}", workload.id())))?;
            if let Some(e) = write_error {
                return Err(io_err(path, e));
            }
            let written = writer.finish().map_err(|e| io_err(path, e))?;
            println!(
                "{}: {} records written to {path} ({:?})",
                workload.id(),
                written,
                outcome.reason()
            );
        }
        "csv" => {
            // Interop format: one row per record, for pandas/awk-style
            // downstream analysis. Sources are ';'-joined locations.
            use std::io::Write as _;
            let mut out = BufWriter::new(file);
            let mut write_error: Option<std::io::Error> = None;
            writeln!(out, "pc,class,srcs,dest,taken,target").map_err(|e| io_err(path, e))?;
            let mut written = 0u64;
            let outcome = vm
                .run_traced(opts.fuel(), |record| {
                    if write_error.is_some() {
                        return;
                    }
                    let srcs: Vec<String> = record.srcs().iter().map(|s| s.to_string()).collect();
                    let dest = record.dest().map(|d| d.to_string()).unwrap_or_default();
                    let (taken, target) = match record.branch_info() {
                        Some(info) => (
                            if info.taken { "1" } else { "0" }.to_owned(),
                            info.target.to_string(),
                        ),
                        None => (String::new(), String::new()),
                    };
                    if let Err(e) = writeln!(
                        out,
                        "{},{},{},{dest},{taken},{target}",
                        record.pc(),
                        record.class(),
                        srcs.join(";")
                    ) {
                        write_error = Some(e);
                    }
                    written += 1;
                })
                .map_err(|e| CliError::Analysis(format!("{}: {e}", workload.id())))?;
            if let Some(e) = write_error {
                return Err(io_err(path, e));
            }
            out.flush().map_err(|e| io_err(path, e))?;
            println!(
                "{}: {} records written to {path} as CSV ({:?})",
                workload.id(),
                written,
                outcome.reason()
            );
        }
        other => return Err(usage_err(format!("unknown trace format `{other}`"))),
    }
    Ok(())
}

/// `paragraph ingest --text FILE --out FILE`: converts an external
/// line-oriented text trace (docs/ingest.md) into the binary v2 format.
/// Streaming — the input is never buffered whole — and governed, so a
/// hostile file is rejected with exit 7 rather than exhausting memory.
fn cmd_ingest(opts: &Options) -> Result<(), CliError> {
    use paragraph_trace::ingest::{ingest_text, IngestError, IngestErrorKind};
    let text_path = opts
        .text
        .as_deref()
        .ok_or_else(|| usage_err("ingest needs --text FILE"))?;
    let out_path = opts
        .out
        .as_deref()
        .ok_or_else(|| usage_err("ingest needs --out FILE"))?;
    let input: Box<dyn std::io::BufRead> = if text_path == "-" {
        Box::new(BufReader::new(std::io::stdin()))
    } else {
        let file = File::open(text_path).map_err(|e| io_err(text_path, e))?;
        Box::new(BufReader::new(file))
    };
    let out = File::create(out_path).map_err(|e| io_err(out_path, e))?;
    let mut governor = ResourceGovernor::new(Limits::from_env());
    let classify = |e: IngestError| -> CliError {
        if let Some(v) = e.limit_violation() {
            return input_rejected(text_path, v.limit, v.what, v.actual, v.cap, &e);
        }
        match e.kind() {
            IngestErrorKind::Io(_) => CliError::Io(format!("{text_path}: {e}")),
            _ => CliError::CorruptTrace(format!("{text_path}: {e}")),
        }
    };
    let stats = ingest_text(input, BufWriter::new(out), &mut governor).map_err(classify)?;
    println!(
        "{text_path}: {} records from {} lines ({} comment/blank) written to {out_path}",
        stats.records, stats.lines, stats.skipped_lines
    );
    Ok(())
}

fn cmd_run(opts: &Options) -> Result<(), CliError> {
    let path = opts
        .asm
        .as_deref()
        .ok_or_else(|| usage_err("run needs --asm FILE"))?;
    let source = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    // Assembly files are front-door input too: assemble under limits so a
    // hostile `.space` declaration is a typed rejection, not an allocation.
    let program = {
        let _span = paragraph_core::span!("assemble");
        paragraph_asm::assemble_with_limits(
            &source,
            paragraph_asm::DEFAULT_DATA_BASE,
            &paragraph_asm::AsmLimits::from_env(),
        )
        .map_err(|e| {
            if let paragraph_asm::AsmErrorKind::LimitExceeded {
                limit,
                what,
                actual,
                cap,
            } = *e.kind()
            {
                input_rejected(path, limit, what, actual, cap, &e)
            } else {
                CliError::Analysis(format!("{path}: {e}"))
            }
        })?
    };
    let mut vm = Vm::new(program);
    vm.extend_input(opts.inputs.iter().copied());
    let outcome = {
        let mut span = paragraph_core::span!("vm.run");
        let outcome = vm
            .run(opts.fuel())
            .map_err(|e| CliError::Analysis(format!("{path}: {e}")))?;
        span.arg("instructions", outcome.executed());
        outcome
    };
    print!("{}", vm.output());
    println!(
        "[{} instructions, {:?}]",
        outcome.executed(),
        outcome.reason()
    );
    Ok(())
}

fn cmd_disasm(opts: &Options) -> Result<(), CliError> {
    let workload = opts.build_workload().map_err(usage_err)?;
    print!("{}", workload.source());
    Ok(())
}

fn cmd_dot(opts: &Options) -> Result<(), CliError> {
    let LoadedTrace {
        records, segments, ..
    } = load_records(opts)?;
    if records.len() > 200_000 {
        return Err(usage_err(format!(
            "{} records is too many for an explicit DDG export; lower --size/--fuel",
            records.len()
        )));
    }
    let config = opts.config(segments);
    let ddg = paragraph_core::Ddg::from_records(&records, &config);
    let dot = ddg.to_dot();
    match &opts.out {
        Some(path) => {
            std::fs::write(path, dot).map_err(|e| io_err(path, e))?;
            println!(
                "{} nodes, {} edges written to {path}",
                ddg.len(),
                ddg.edges().len()
            );
        }
        None => print!("{dot}"),
    }
    Ok(())
}

fn cmd_stats(opts: &Options) -> Result<(), CliError> {
    // Telemetry-artifact modes: summarize a JSONL event log, or validate a
    // Prometheus snapshot. Both exit non-zero on malformed input, so the CI
    // smoke job can use them as parsers.
    if let Some(path) = &opts.stats_telemetry {
        let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
        // Telemetry logs are routinely truncated mid-line by a crash or a
        // full disk; by default the readable prefix is still summarized and
        // each bad line is warned about. `--strict` restores fail-fast for
        // CI, which wants to prove a healthy run wrote a clean log.
        let events = if opts.strict {
            telemetry::summary::parse_jsonl(&text)
                .map_err(|e| CliError::CorruptTrace(format!("{path}: {e}")))?
        } else {
            let (events, skipped) = telemetry::summary::parse_jsonl_lossy(&text);
            for bad in &skipped {
                eprintln!("warning: {path}: line {} skipped: {}", bad.line, bad.reason);
            }
            if !skipped.is_empty() {
                eprintln!("skipped_lines: {}", skipped.len());
            }
            events
        };
        let summary = telemetry::summary::summarize(&events);
        print!("{}", telemetry::summary::render_table(&summary));
        return Ok(());
    }
    if let Some(path) = &opts.stats_metrics {
        let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
        let samples = telemetry::prom::validate(&text)
            .map_err(|e| CliError::CorruptTrace(format!("{path}: {e}")))?;
        println!("{path}: valid Prometheus exposition, {samples} samples");
        return Ok(());
    }

    let LoadedTrace {
        records,
        recovery: stats,
        ..
    } = load_records(opts)?;
    if let Some(stats) = &stats {
        print_recovery_stats(stats);
    }
    let stats = paragraph_trace::TraceStats::from_records(&records);
    print!("{stats}");
    println!(
        "type: {} ({:.1}% of placed operations are floating point)",
        stats.benchmark_type(),
        100.0 * stats.fp_fraction()
    );
    Ok(())
}

fn cmd_report(opts: &Options) -> Result<(), CliError> {
    let LoadedTrace {
        records, segments, ..
    } = load_records(opts)?;
    if records.len() > 500_000 {
        return Err(usage_err(format!(
            "{} records is too many to materialize; lower --size/--fuel or use --take",
            records.len()
        )));
    }
    let config = opts.config(segments);
    let ddg = paragraph_core::Ddg::from_records(&records, &config);
    let (true_e, storage_e, control_e) = ddg.edge_counts();
    println!("explicit DDG under: {config}");
    println!("  nodes                 : {}", ddg.len());
    println!("  edges                 : {true_e} true, {storage_e} storage, {control_e} control");
    println!("  height (crit path)    : {}", ddg.height());
    println!("  width                 : {}", ddg.width());
    println!(
        "  available parallelism : {:.2}",
        ddg.available_parallelism()
    );
    let lifetimes = ddg.value_lifetimes();
    println!(
        "  value lifetimes       : {} values, mean {:.2}, p50 {}, p99 {}, max {}",
        lifetimes.count(),
        lifetimes.mean(),
        lifetimes.percentile(0.5).unwrap_or(0),
        lifetimes.percentile(0.99).unwrap_or(0),
        lifetimes.max().unwrap_or(0)
    );
    let sharing = ddg.sharing_degrees();
    println!(
        "  degree of sharing     : mean {:.2}, p99 {}, max {}",
        sharing.mean(),
        sharing.percentile(0.99).unwrap_or(0),
        sharing.max().unwrap_or(0)
    );
    let slack = ddg.slack_distribution();
    println!(
        "  scheduling slack      : {:.1}% critical (slack 0), mean {:.2}, max {}",
        100.0 * slack.frequency(0) as f64 / slack.count().max(1) as f64,
        slack.mean(),
        slack.max().unwrap_or(0)
    );
    let occupancy = ddg.storage_occupancy();
    let peak = occupancy.iter().copied().max().unwrap_or(0);
    let mean = if occupancy.is_empty() {
        0.0
    } else {
        occupancy.iter().sum::<u64>() as f64 / occupancy.len() as f64
    };
    println!("  storage occupancy     : peak {peak} live values, mean {mean:.1}");
    Ok(())
}

/// `paragraph profile T.json`: summarize a flight-recorder timeline —
/// per-stage self-time, lane utilization, slowest slices. With `--diff B`
/// compares two timelines; with `--bench-compare BASELINE` switches to
/// bench-log regression checking instead.
fn cmd_profile(opts: &Options) -> Result<(), CliError> {
    use telemetry::tracefmt;
    if let Some(baseline) = &opts.bench_compare {
        return cmd_profile_bench_compare(opts, baseline);
    }
    let path = opts.positional.first().ok_or_else(|| {
        usage_err("profile needs a timeline file (paragraph profile t.json; see --timeline-out)")
    })?;
    let summary = load_timeline_summary(path)?;
    match &opts.diff {
        Some(other) => {
            let candidate = load_timeline_summary(other)?;
            println!("A: {path}");
            println!("B: {other}");
            print!("{}", tracefmt::render_diff(&summary, &candidate));
        }
        None => {
            println!("{path}:");
            print!(
                "{}",
                tracefmt::render_profile(&summary, opts.top.unwrap_or(10))
            );
        }
    }
    Ok(())
}

/// Reads, validates, and summarizes one timeline file. Malformed
/// trace-event JSON is typed corruption (exit 4), like every other
/// damaged artifact.
fn load_timeline_summary(path: &str) -> Result<telemetry::tracefmt::ProfileSummary, CliError> {
    use telemetry::tracefmt;
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    tracefmt::validate(&text).map_err(|e| CliError::CorruptTrace(format!("{path}: {e}")))?;
    let events = tracefmt::parse_chrome_trace(&text)
        .map_err(|e| CliError::CorruptTrace(format!("{path}: {e}")))?;
    Ok(tracefmt::summarize(&events))
}

/// `paragraph profile CURRENT --bench-compare BASELINE`: compares bench-log
/// rows (`BENCH.hotpath.json` / `BENCH.sweep.json` JSONL) keyed by
/// bench name + mode/grid, last row per key. Any key whose `after_ns`
/// slows down by more than `--bench-threshold` percent (default 20) fails
/// the check with exit 5 — the perf-regression gate.
fn cmd_profile_bench_compare(opts: &Options, baseline_path: &str) -> Result<(), CliError> {
    let current_path = opts.positional.first().ok_or_else(|| {
        usage_err("profile --bench-compare needs the current bench log as an argument")
    })?;
    let threshold_pct = opts.bench_threshold.unwrap_or(20.0);
    let baseline = read_bench_rows(baseline_path)?;
    let current = read_bench_rows(current_path)?;
    if baseline.is_empty() {
        return Err(CliError::CorruptTrace(format!(
            "{baseline_path}: no bench rows (expected JSONL with \"bench\" and \"after_ns\")"
        )));
    }
    println!("bench-compare: {current_path} vs {baseline_path} (threshold +{threshold_pct:.0}%)");
    let mut regressions: Vec<String> = Vec::new();
    let mut compared = 0usize;
    let mut skipped = 0usize;
    for (key, base) in &baseline {
        let Some(cur) = current.get(key) else {
            println!("  {key:<34} missing from current log");
            continue;
        };
        // Wall clocks from differently-sized boxes are not comparable:
        // a 0.71x parallel-analyze row from a single-core runner would
        // "regress" every multi-core run. Rows that recorded their core
        // count only gate against rows from a same-sized box; rows
        // predating the field still compare (nothing better exists).
        if let (Some(base_np), Some(cur_np)) = (base.nproc, cur.nproc) {
            if base_np != cur_np {
                skipped += 1;
                println!("  {key:<34} skipped (nproc {base_np} vs {cur_np}: different machines)");
                continue;
            }
        }
        compared += 1;
        let (base_ns, cur_ns) = (base.after_ns, cur.after_ns);
        let delta_pct = if base_ns > 0.0 {
            100.0 * (cur_ns - base_ns) / base_ns
        } else {
            0.0
        };
        let verdict = if delta_pct > threshold_pct {
            regressions.push(format!("{key} ({delta_pct:+.1}%)"));
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "  {key:<34} base {base_ns:>12.0}ns  cur {cur_ns:>12.0}ns  {delta_pct:>+7.1}%  {verdict}"
        );
    }
    for key in current.keys() {
        if !baseline.contains_key(key) {
            println!("  {key:<34} new (no baseline)");
        }
    }
    if compared == 0 {
        if skipped > 0 {
            // Every common key came from a differently-sized box; there is
            // nothing comparable, which is not a regression.
            println!("note: all {skipped} common key(s) skipped (core-count mismatch)");
            return Ok(());
        }
        return Err(CliError::Analysis(format!(
            "no common bench keys between {current_path} and {baseline_path}"
        )));
    }
    if !regressions.is_empty() {
        return Err(CliError::Analysis(format!(
            "bench regression above +{threshold_pct:.0}%: {}",
            regressions.join(", ")
        )));
    }
    Ok(())
}

/// One bench-log row as the compare gate sees it.
#[derive(Debug, Clone, Copy)]
struct BenchRow {
    /// The measured time being gated.
    after_ns: f64,
    /// Core count of the box the row was recorded on, when the row
    /// carries one (rows predate the field).
    nproc: Option<f64>,
}

/// Parses a bench log (JSONL, one row per run) into key → [`BenchRow`],
/// last row per key winning. Key = `bench/mode` or `bench/grid`.
fn read_bench_rows(path: &str) -> Result<std::collections::BTreeMap<String, BenchRow>, CliError> {
    use telemetry::tracefmt::{parse_json, JsonValue};
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    let mut rows = std::collections::BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let row = parse_json(line)
            .map_err(|e| CliError::CorruptTrace(format!("{path}: line {}: {e}", lineno + 1)))?;
        let Some(bench) = row.get("bench").and_then(JsonValue::as_str) else {
            return Err(CliError::CorruptTrace(format!(
                "{path}: line {}: missing \"bench\"",
                lineno + 1
            )));
        };
        let Some(after_ns) = row.get("after_ns").and_then(JsonValue::as_f64) else {
            return Err(CliError::CorruptTrace(format!(
                "{path}: line {}: missing \"after_ns\"",
                lineno + 1
            )));
        };
        let variant = row
            .get("mode")
            .or_else(|| row.get("grid"))
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        let nproc = row.get("nproc").and_then(JsonValue::as_f64);
        rows.insert(format!("{bench}/{variant}"), BenchRow { after_ns, nproc });
    }
    Ok(rows)
}

fn cmd_compare(opts: &Options) -> Result<(), CliError> {
    use paragraph_core::machine::Machine;
    let LoadedTrace {
        records, segments, ..
    } = load_records(opts)?;
    println!(
        "{:<9} {:>12} {:>14} {:>12}  configuration",
        "machine", "ops/cycle", "crit path", "% of limit"
    );
    let limit = analyze_refs(
        &records,
        &AnalysisConfig::dataflow_limit().with_segments(segments),
    )
    .available_parallelism();
    for machine in Machine::generations() {
        let config = machine.configure().with_segments(segments);
        let report = analyze_refs(&records, &config);
        println!(
            "{:<9} {:>12.2} {:>14} {:>11.2}%  {}",
            machine.name(),
            report.available_parallelism(),
            report.critical_path_length(),
            100.0 * report.available_parallelism() / limit,
            machine.description()
        );
    }
    Ok(())
}

fn cmd_sweep(opts: &Options) -> Result<(), CliError> {
    if !opts.workloads.is_empty() {
        return cmd_sweep_grid(opts);
    }
    let LoadedTrace {
        records, segments, ..
    } = load_records(opts)?;
    let windows = if opts.windows.is_empty() {
        vec![1, 10, 100, 1000, 10_000, 100_000]
    } else {
        opts.windows.clone()
    };
    let full = {
        let _span = paragraph_core::span!("sweep.window");
        analyze_refs(&records, &opts.config(segments))
    };
    let total = full.available_parallelism();
    println!(
        "{:>10}  {:>14}  {:>12}  {:>8}",
        "window", "critical path", "parallelism", "% of max"
    );
    for &w in &windows {
        let config = opts.config(segments).with_window(WindowSize::bounded(w));
        let report = {
            let mut span = paragraph_core::span!("sweep.window", "w{w}");
            span.arg("window", w as u64);
            analyze_refs(&records, &config)
        };
        println!(
            "{w:>10}  {:>14}  {:>12.2}  {:>7.2}%",
            report.critical_path_length(),
            report.available_parallelism(),
            100.0 * report.available_parallelism() / total
        );
    }
    println!(
        "{:>10}  {:>14}  {:>12.2}  {:>8}",
        "inf",
        full.critical_path_length(),
        total,
        "100.00%"
    );
    Ok(())
}

/// `sweep --workloads a,b,c`: the parallel (workload × window) grid on the
/// sweep engine. Each workload's trace is generated once into the shared
/// arena; the cells fan out across `--jobs` workers, and the results (and
/// any `--out` artifacts) are byte-identical for every job count.
fn cmd_sweep_grid(opts: &Options) -> Result<(), CliError> {
    use paragraph_bench::scheduler::sweep_manifest_json;
    use paragraph_bench::{run_sweep, Study, SweepCell, SweepOptions};
    use std::path::PathBuf;

    if opts.trace.is_some() {
        return Err(usage_err(
            "--trace cannot be combined with --workloads (the grid sweep \
             regenerates each workload's trace into the arena)",
        ));
    }
    if opts.window.is_some() {
        return Err(usage_err(
            "use --windows (the ladder) instead of --window with --workloads",
        ));
    }
    let windows = if opts.windows.is_empty() {
        vec![1, 10, 100, 1000, 10_000, 100_000]
    } else {
        opts.windows.clone()
    };
    // The scheduler applies each workload's own segment map; the base
    // config carries only the command-line machine model.
    let base = opts.config(SegmentMap::default());
    let mut cells = Vec::with_capacity(opts.workloads.len() * (windows.len() + 1));
    for &id in &opts.workloads {
        for &w in &windows {
            cells.push(SweepCell::new(
                id,
                format!("w{w}"),
                base.clone().with_window(WindowSize::bounded(w)),
            ));
        }
        cells.push(SweepCell::new(id, "full", base.clone()));
    }

    let out_dir = opts.out.as_deref().map(PathBuf::from);
    let study = Study::new(
        opts.fuel(),
        100,
        out_dir.clone().unwrap_or_else(|| PathBuf::from("results")),
    )
    .with_size_override(opts.size)
    .with_seed_override(opts.seed);
    let sweep_opts = SweepOptions {
        jobs: opts.jobs.unwrap_or_else(paragraph_bench::jobs_from_env),
        arena_budget_bytes: 0,
        // Stage markers key on (workload, label) only — safe for the fixed
        // fig7/fig8 grids, but an interrupted CLI sweep rerun with
        // different machine flags would alias. Each CLI sweep is
        // self-contained instead.
        reuse_stages: false,
        retries: opts.retries.unwrap_or(SweepOptions::default().retries),
        retry_backoff_ms: opts
            .retry_backoff_ms
            .unwrap_or(SweepOptions::default().retry_backoff_ms),
        // Each worker writes its cell's report and profile as soon as the
        // cell succeeds: atomically, and byte-identically to a fault-free
        // run; quarantined cells simply have no artifacts.
        write_artifacts: out_dir.is_some(),
    };
    // Cells are supervised inside run_sweep: a VM fault or analyzer panic
    // is caught, retried, and at worst quarantines that one cell — the
    // sweep itself always completes.
    if let Some(timeline) = telemetry::timeline::timeline_active() {
        timeline.instant_with_args("sweep.start", None, &[("cells", cells.len() as u64)]);
    }
    let mut outcome = run_sweep(&study, "sweep", &cells, &sweep_opts);
    if let Some(timeline) = telemetry::timeline::timeline_active() {
        timeline.instant_with_args("sweep.done", None, &[("cells", outcome.cells.len() as u64)]);
    }

    let ladder = windows.len() + 1;
    println!(
        "{:<11} {:>10}  {:>14}  {:>12}  {:>8}",
        "workload", "window", "critical path", "parallelism", "% of max"
    );
    for (w_idx, &id) in opts.workloads.iter().enumerate() {
        let row = &outcome.cells[w_idx * ladder..(w_idx + 1) * ladder];
        let total = row[ladder - 1]
            .outcome()
            .map_or(f64::NAN, |c| c.metrics.parallelism);
        let window_name = |i: usize| {
            if i == ladder - 1 {
                "inf".to_owned()
            } else {
                windows[i].to_string()
            }
        };
        for (i, result) in row.iter().enumerate() {
            match result.outcome() {
                Some(cell) => println!(
                    "{:<11} {:>10}  {:>14}  {:>12.2}  {:>7.2}%",
                    id.name(),
                    window_name(i),
                    cell.metrics.critical_path,
                    cell.metrics.parallelism,
                    100.0 * cell.metrics.parallelism / total
                ),
                None => println!(
                    "{:<11} {:>10}  {:>14}  {:>12}  {:>8}",
                    id.name(),
                    window_name(i),
                    "quarantined",
                    "-",
                    "-"
                ),
            }
        }
    }

    if let Some(dir) = &out_dir {
        if let Some((path, e)) = outcome.artifact_error.take() {
            return Err(io_err(&path.display().to_string(), e));
        }
        let manifest = dir.join("sweep.json");
        paragraph_core::artifact::write_atomic_bytes(
            &manifest,
            sweep_manifest_json("sweep", &outcome).as_bytes(),
        )
        .map_err(|e| io_err(&manifest.display().to_string(), e))?;
    }
    eprintln!(
        "sweep: {} cells on {} worker(s) in {:.2}s (arena: {} decode(s), {} hit(s), {} eviction(s))",
        outcome.cells.len(),
        outcome.jobs,
        outcome.wall_ns as f64 / 1e9,
        outcome.arena.misses,
        outcome.arena.hits,
        outcome.arena.evictions,
    );
    if outcome.quarantined() > 0 {
        let details: Vec<String> = outcome
            .cells
            .iter()
            .filter(|c| c.is_quarantined())
            .map(|c| {
                format!(
                    "{}@{} after {} attempt(s): {}",
                    c.workload.name(),
                    c.label,
                    c.attempts,
                    c.error.as_deref().unwrap_or("unknown error")
                )
            })
            .collect();
        return Err(CliError::Quarantined(format!(
            "sweep degraded — {} of {} cell(s) quarantined ({}); healthy cells' artifacts are complete",
            outcome.quarantined(),
            outcome.cells.len(),
            details.join("; ")
        )));
    }
    Ok(())
}

/// `paragraph serve` — the multi-tenant analysis daemon. Binds, installs
/// the signal handlers, runs the accept loop until SIGTERM/SIGINT or
/// `POST /shutdown`, then drains: in-flight work finishes, live sessions
/// are checkpointed crash-consistently, and the process exits 0.
fn cmd_serve(opts: &Options) -> Result<(), CliError> {
    // A daemon serving untrusted uploads must not silently weaken its
    // admission policy: where the one-shot commands warn and fall back on
    // a malformed PARAGRAPH_MAX_* / PARAGRAPH_DEADLINE_MS override, serve
    // refuses to start.
    let env_limits =
        Limits::from_env_checked().map_err(|e| usage_err(format!("refusing to start: {e}")))?;
    // Env overrides tighten/adjust the strict upload defaults only where
    // the operator actually set a variable; unset variables keep strict.
    let strict = Limits::strict();
    let defaults = Limits::default();
    let limits = Limits {
        max_records: pick_override(
            env_limits.max_records,
            defaults.max_records,
            strict.max_records,
        ),
        max_alloc_bytes: pick_override(
            env_limits.max_alloc_bytes,
            defaults.max_alloc_bytes,
            strict.max_alloc_bytes,
        ),
        max_decode_bytes: pick_override(
            env_limits.max_decode_bytes,
            defaults.max_decode_bytes,
            strict.max_decode_bytes,
        ),
        max_declared_len: pick_override(
            env_limits.max_declared_len,
            defaults.max_declared_len,
            strict.max_declared_len,
        ),
        deadline: if env_limits.deadline == defaults.deadline {
            strict.deadline
        } else {
            env_limits.deadline
        },
    };
    let fault = paragraph_serve::RequestFault::from_env()
        .map_err(|e| usage_err(format!("refusing to start: {e}")))?;
    let mut serve_opts = paragraph_serve::ServeOptions {
        limits,
        fault,
        external_shutdown: Some(Box::new(signal_lite::shutdown_requested)),
        ..paragraph_serve::ServeOptions::default()
    };
    serve_opts.addr = opts.addr.clone().unwrap_or_else(|| "127.0.0.1:7307".into());
    serve_opts.uds = opts.uds.clone().map(std::path::PathBuf::from);
    if let Some(n) = opts.workers {
        serve_opts.workers = n;
    }
    if let Some(n) = opts.queue {
        serve_opts.queue_capacity = n;
    }
    if let Some(n) = opts.max_live_sessions {
        serve_opts.max_live_sessions = n;
    }
    if let Some(dir) = &opts.spool {
        serve_opts.spool = std::path::PathBuf::from(dir);
    }
    serve_opts.deadline = opts.deadline_ms.map(Duration::from_millis);
    if let Some(mb) = opts.max_body_mb {
        serve_opts.max_body_bytes = mb.saturating_mul(1024 * 1024);
    }
    serve_opts.ready_file = opts.ready_file.clone().map(std::path::PathBuf::from);
    if !signal_lite::install_shutdown_handlers() {
        eprintln!("warning: signal handlers unavailable; use POST /shutdown to drain");
    }
    let server = paragraph_serve::Server::bind(serve_opts)
        .map_err(|e| CliError::Io(format!("serve: {e}")))?;
    eprintln!("listening on {}", server.endpoint());
    let summary = server
        .run()
        .map_err(|e| CliError::Io(format!("serve: {e}")))?;
    if let Some(sig) = signal_lite::shutdown_signal() {
        eprintln!("drained on signal {sig}");
    }
    eprintln!(
        "served {} request(s), shed {}, recycled {} worker(s), checkpointed {} session(s)",
        summary.requests, summary.shed, summary.workers_recycled, summary.sessions_checkpointed
    );
    if !summary.checkpoint_failures.is_empty() {
        return Err(CliError::Io(format!(
            "drain completed, but {} session checkpoint(s) failed: {}",
            summary.checkpoint_failures.len(),
            summary.checkpoint_failures.join("; ")
        )));
    }
    Ok(())
}

/// An env override for one limit field: `strict` unless the operator set
/// the variable (detected as: the checked env value differs from the
/// plain default).
fn pick_override(from_env: u64, default: u64, strict: u64) -> u64 {
    if from_env == default {
        strict
    } else {
        from_env
    }
}

/// `paragraph client ENDPOINT METHOD PATH [--body FILE]` — one request
/// against a running daemon. The response body goes to stdout; the HTTP
/// status maps back onto the CLI exit codes (see the README table), so a
/// script drives the daemon and the one-shot commands with one dispatch.
fn cmd_client(opts: &Options) -> Result<(), CliError> {
    let [endpoint, method, path] = opts.positional.as_slice() else {
        return Err(usage_err(
            "client needs ENDPOINT METHOD PATH (e.g. `client http://127.0.0.1:7307 GET /healthz`)",
        ));
    };
    let endpoint = paragraph_serve::Endpoint::parse(endpoint).map_err(usage_err)?;
    let body = match opts.body.as_deref() {
        None => Vec::new(),
        Some("-") => {
            use std::io::Read;
            let mut buf = Vec::new();
            std::io::stdin()
                .read_to_end(&mut buf)
                .map_err(|e| io_err("stdin", e))?;
            buf
        }
        Some(path) => std::fs::read(path).map_err(|e| io_err(path, e))?,
    };
    let resp = paragraph_serve::request(&endpoint, method, path, &body)
        .map_err(|e| CliError::Io(format!("request failed: {e}")))?;
    let text = resp.body_text();
    if (200..300).contains(&resp.status) {
        print!("{text}");
        if !text.is_empty() && !text.ends_with('\n') {
            println!();
        }
        return Ok(());
    }
    // Non-2xx: the body (a one-line JSON diagnostic) goes to stderr and
    // the status picks the exit code from the same taxonomy the one-shot
    // commands use.
    let message = format!("daemon answered {}: {}", resp.status, text.trim_end());
    Err(match resp.status {
        404 | 405 => usage_err(message),
        400 => CliError::CorruptTrace(message),
        413 | 422 => CliError::InputRejected {
            message,
            report: text.trim_end().to_owned(),
        },
        429 | 503 => {
            let retry = resp.retry_after.unwrap_or(1);
            CliError::ServerBusy(format!("{message} (retry after {retry}s)"))
        }
        _ => CliError::Analysis(message),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::parse(&owned)
    }

    #[test]
    fn parses_workload_and_switches() {
        let opts = parse(&[
            "--workload",
            "cc1",
            "--size",
            "12",
            "--rename",
            "regs",
            "--window",
            "1024",
            "--optimistic",
            "--units",
            "4",
            "--no-disambiguation",
            "--value-stats",
        ])
        .unwrap();
        assert_eq!(opts.workload, Some(WorkloadId::Cc1));
        assert_eq!(opts.size, Some(12));
        assert_eq!(opts.rename, Some(RenameSet::registers_only()));
        assert_eq!(opts.window, Some(1024));
        assert!(opts.optimistic);
        assert_eq!(opts.units, Some(4));
        assert!(opts.no_disambiguation);
        assert!(opts.value_stats);
    }

    #[test]
    fn config_reflects_options() {
        let opts = parse(&["--rename", "none", "--window", "64", "--units", "2"]).unwrap();
        let config = opts.config(SegmentMap::all_data());
        assert_eq!(config.renames(), RenameSet::none());
        assert_eq!(config.window(), WindowSize::bounded(64));
        assert_eq!(config.issue_limit(), Some(2));
    }

    #[test]
    fn branch_policies_parse() {
        assert_eq!(
            parse_branch_policy("perfect").unwrap(),
            BranchPolicy::Perfect
        );
        assert_eq!(
            parse_branch_policy("stall").unwrap(),
            BranchPolicy::StallAlways
        );
        assert_eq!(
            parse_branch_policy("btfn").unwrap(),
            BranchPolicy::Predict(PredictorKind::Btfn)
        );
        assert_eq!(
            parse_branch_policy("bimodal:12").unwrap(),
            BranchPolicy::Predict(PredictorKind::Bimodal { index_bits: 12 })
        );
        assert_eq!(
            parse_branch_policy("gshare:8").unwrap(),
            BranchPolicy::Predict(PredictorKind::Gshare { index_bits: 8 })
        );
        assert!(parse_branch_policy("oracle").is_err());
        assert!(parse_branch_policy("bimodal:x").is_err());
    }

    #[test]
    fn unknown_flags_and_values_error() {
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--workload", "gcc"]).is_err());
        assert!(parse(&["--size"]).is_err());
        assert!(parse(&["--rename", "everything"]).is_err());
    }

    #[test]
    fn numbers_accept_underscores() {
        let opts = parse(&["--fuel", "1_000_000"]).unwrap();
        assert_eq!(opts.fuel, Some(1_000_000));
    }

    #[test]
    fn skip_and_take_parse() {
        let opts = parse(&["--skip", "100", "--take", "50"]).unwrap();
        assert_eq!(opts.skip, Some(100));
        assert_eq!(opts.take, Some(50));
    }

    #[test]
    fn lists_parse() {
        let opts = parse(&["--input", "1, 2,3", "--windows", "10,100"]).unwrap();
        assert_eq!(opts.inputs, vec![1, 2, 3]);
        assert_eq!(opts.windows, vec![10, 100]);
    }

    #[test]
    fn fuel_defaults_to_the_paper_cap() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.fuel(), paragraph_vm::DEFAULT_FUEL);
    }

    #[test]
    fn workload_requires_flag() {
        let opts = parse(&[]).unwrap();
        assert!(opts.build_workload().is_err());
    }

    #[test]
    fn fault_tolerance_flags_parse() {
        let opts = parse(&[
            "--recover",
            "--checkpoint-every",
            "10_000",
            "--checkpoint",
            "state.pgcp",
            "--resume",
            "old.pgcp",
            "--live-well-cap",
            "4096",
        ])
        .unwrap();
        assert!(opts.recover);
        assert_eq!(opts.checkpoint_every, Some(10_000));
        assert_eq!(opts.checkpoint.as_deref(), Some("state.pgcp"));
        assert_eq!(opts.resume.as_deref(), Some("old.pgcp"));
        assert_eq!(opts.live_well_cap, Some(4096));
        let config = opts.config(SegmentMap::all_data());
        assert_eq!(config.live_well_cap(), Some(4096));
    }

    #[test]
    fn zero_counts_are_rejected() {
        assert!(parse(&["--checkpoint-every", "0"]).is_err());
        assert!(parse(&["--live-well-cap", "0"]).is_err());
    }

    #[test]
    fn checkpoint_path_derives_from_the_trace() {
        let opts = parse(&["--trace", "run.pgtr"]).unwrap();
        assert_eq!(checkpoint_path(&opts), "run.pgtr.pgcp");
        let opts = parse(&["--checkpoint", "x.pgcp"]).unwrap();
        assert_eq!(checkpoint_path(&opts), "x.pgcp");
        let opts = parse(&[]).unwrap();
        assert_eq!(checkpoint_path(&opts), "paragraph.pgcp");
    }

    #[test]
    fn exit_codes_are_distinct_by_class() {
        assert_eq!(
            CliError::Usage(String::new()).exit_code(),
            ExitCode::from(2)
        );
        assert_eq!(CliError::Io(String::new()).exit_code(), ExitCode::from(3));
        assert_eq!(
            CliError::CorruptTrace(String::new()).exit_code(),
            ExitCode::from(4)
        );
        assert_eq!(
            CliError::Analysis(String::new()).exit_code(),
            ExitCode::from(5)
        );
        assert_eq!(
            CliError::Quarantined(String::new()).exit_code(),
            ExitCode::from(6)
        );
        assert_eq!(
            CliError::InputRejected {
                message: String::new(),
                report: String::new()
            }
            .exit_code(),
            ExitCode::from(7)
        );
    }

    #[test]
    fn ingest_and_rejection_flags_parse() {
        let opts = parse(&[
            "--text",
            "in.pgtxt",
            "--out",
            "out.pgtr",
            "--reject-report",
            "why.json",
            "--strict",
        ])
        .unwrap();
        assert_eq!(opts.text.as_deref(), Some("in.pgtxt"));
        assert_eq!(opts.out.as_deref(), Some("out.pgtr"));
        assert_eq!(opts.reject_report.as_deref(), Some("why.json"));
        assert!(opts.strict);
        assert!(parse(&["--text"]).is_err());
    }

    #[test]
    fn rejection_report_is_one_json_object() {
        let err = input_rejected(
            "a \"b\"\\c.pgtr",
            "max-declared-len",
            "chunk payload length",
            9,
            4,
            "boom",
        );
        let CliError::InputRejected { message, report } = err else {
            panic!("wrong variant");
        };
        assert!(message.contains("input rejected"));
        assert!(report.starts_with('{') && report.ends_with('}'));
        assert!(report.contains("\"limit\":\"max-declared-len\""));
        assert!(report.contains("\"actual\":9"));
        assert!(report.contains("\"cap\":4"));
        assert!(report.contains("a \\\"b\\\"\\\\c.pgtr"));
    }

    #[test]
    fn supervision_flags_parse() {
        let opts = parse(&["--retries", "5", "--retry-backoff-ms", "100"]).unwrap();
        assert_eq!(opts.retries, Some(5));
        assert_eq!(opts.retry_backoff_ms, Some(100));
        assert!(parse(&["--retries"]).is_err());
        assert!(parse(&["--retry-backoff-ms", "fast"]).is_err());
    }
}
