//! `paragraph` — command-line front end for the Paragraph toolkit. Its
//! commands and flags are declared once, in the mode and flag tables
//! below, which also render `paragraph help`.

use paragraph_core::run::RunSink;
use paragraph_core::telemetry::progress::ProgressReporter;
use paragraph_core::telemetry::{self, Value};
use paragraph_core::{
    analyze_refs, parse_num, AnalysisConfig, AnalysisReport, LiveWell, Policy, Run, Stop,
    TraceIdentity, WindowSize,
};
use paragraph_trace::binary::{scan_chunks, RecoveryStats, TraceReader, TraceWriter};
use paragraph_trace::govern::{Limits, ResourceGovernor};
use paragraph_trace::{SegmentMap, TraceError, TraceErrorKind, TraceRecord, TraceSource};
use paragraph_vm::Vm;
use paragraph_workloads::{Workload, WorkloadId};
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
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
    let opts = Options::parse(args).map_err(CliError::Usage)?;
    let result = match opts.mode {
        Mode::List => cmd_list(),
        Mode::Analyze => instrumented(&opts, "analysis", |sinks, failures| {
            cmd_analyze(&opts, sinks, failures)
        }),
        Mode::Trace => cmd_trace(&opts),
        Mode::Ingest => cmd_ingest(&opts),
        Mode::Run => instrumented(&opts, "run", |_, _| cmd_run(&opts)),
        Mode::Disasm => cmd_disasm(&opts),
        Mode::Dot => cmd_dot(&opts),
        Mode::Sweep => instrumented(&opts, "sweep", |_, _| cmd_sweep(&opts)),
        Mode::SweepGrid => instrumented(&opts, "sweep", |_, _| cmd_sweep_grid(&opts)),
        Mode::Compare => cmd_compare(&opts),
        Mode::Stats | Mode::StatsLog | Mode::StatsSnapshot => cmd_stats(&opts),
        Mode::Report => cmd_report(&opts),
        Mode::Profile | Mode::ProfileDiff => cmd_profile(&opts),
        Mode::Serve => cmd_serve(&opts),
        Mode::Client => cmd_client(&opts),
        Mode::Help => {
            print!("{}", usage());
            Ok(())
        }
    };
    if let (Err(CliError::InputRejected { report, .. }), Some(path)) =
        (&result, opts.get("reject-report"))
    {
        if let Err(e) = std::fs::write(path, format!("{report}\n")) {
            eprintln!("warning: reject report failed ({path}: {e})");
        }
    }
    result
}

/// What a command line runs: a command, or one of the modes a command's
/// code branches on, selected by a flag of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[rustfmt::skip]
enum Mode {
    List, Analyze, Trace, Ingest, Run, Disasm, Dot, SweepGrid, Sweep, Compare,
    StatsLog, StatsSnapshot, Stats, Report, ProfileDiff, Profile, Serve, Client,
    #[default]
    Help,
}

/// A set of modes, one bit per [`Mode`].
type Modes = u32;

const fn modes(list: &[Mode]) -> Modes {
    let mut set = 0;
    let mut i = 0;
    while i < list.len() {
        set |= 1 << list[i] as u32;
        i += 1;
    }
    set
}

/// One mode: its command, the flag (without `--`) that selects it from the
/// command's other modes, its name in help text, the positional
/// arguments it takes, and its help.
#[rustfmt::skip]
struct ModeRow(Mode, &'static str, Option<&'static str>, &'static str, &'static str, &'static str);

/// The mode table: a command's selected modes come before its plain one.
#[rustfmt::skip]
const MODES: [ModeRow; 19] = {
    use Mode::*;
    [
        ModeRow(List, "list", None, "list", "", "show the available workloads (the paper's Table 2 inventory)"),
        ModeRow(Analyze, "analyze", None, "analyze", "", "run the live-well analyzer over a workload or a trace file"),
        ModeRow(Trace, "trace", None, "trace", "", "capture a workload's execution trace to a binary or CSV file"),
        ModeRow(Ingest, "ingest", None, "ingest", "", "convert an external text trace (docs/ingest.md) into the\nbinary trace format; streaming, governed"),
        ModeRow(Run, "run", None, "run", "", "execute an assembly file on the VM"),
        ModeRow(Disasm, "disasm", None, "disasm", "", "print a workload's generated assembly"),
        ModeRow(Dot, "dot", None, "dot", "", "export a (small) workload's explicit DDG in Graphviz format"),
        ModeRow(SweepGrid, "sweep", Some("workloads"), "sweep grid", "", "sweep over a workload list: a parallel (workload x window)\ngrid, each trace decoded once into a shared arena"),
        ModeRow(Sweep, "sweep", None, "sweep", "", "window-size sweep of one workload or trace (Figure 8, one curve)"),
        ModeRow(Compare, "compare", None, "compare", "", "one workload under the standard ladder of machine conditions"),
        ModeRow(StatsLog, "stats", Some("telemetry"), "stats log", "", "stats of a JSONL telemetry log: a per-stage table; bad lines\nare skipped with a warning unless strict"),
        ModeRow(StatsSnapshot, "stats", Some("metrics"), "stats snapshot", "", "stats of a Prometheus snapshot: validate it"),
        ModeRow(Stats, "stats", None, "stats", "", "first-order operation frequencies of a workload or trace file"),
        ModeRow(Report, "report", None, "report", "", "full Section-2.3 analysis: lifetimes, sharing, slack, storage"),
        ModeRow(ProfileDiff, "profile", Some("diff"), "profile diff", "TIMELINE", "compare a recorded timeline with a second one, stage by stage"),
        ModeRow(Profile, "profile", None, "profile", "TIMELINE", "summarize a recorded timeline: per-stage self-time, lane\nutilization, slowest slices"),
        ModeRow(Serve, "serve", None, "serve", "", "run the multi-tenant analysis daemon (docs/serve.md): uploads\nand analyses over HTTP, a bounded worker pool with panic\nisolation, load shedding, graceful drain on SIGTERM/SIGINT"),
        ModeRow(Client, "client", None, "client", "ENDPOINT METHOD PATH", "one request against a running daemon; the response body\ngoes to stdout and the status maps onto the exit codes"),
        ModeRow(Help, "help", None, "help", "", "print this help"),
    ]
};

/// How a flag takes its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arg {
    /// No value: an on/off flag.
    Off,
    /// The next argument, named for help text.
    Value(&'static str),
    /// An optional `=VALUE` suffix.
    Attached(&'static str),
}

/// What a flag needs of the command's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Need {
    Any,
    /// A workload run: the flag does nothing to a `--trace` file.
    Workload,
    /// A `--trace` input.
    TraceInput,
    /// Under `--trace`, a regular file: a checkpointed run counts the
    /// trace in a pass of its own, which a pipe cannot give twice.
    RegularTrace,
    /// Another flag, the only one that reads this one's value.
    Flag(&'static str),
}

/// A flag value's parser: it accepts or explains.
type Parser = fn(&str) -> Result<(), String>;

/// One flag: its name (without `--`), how it takes a value, the modes that
/// read it, what it needs of the input, its value's parser (`None` for an
/// analysis switch, whose grammar is [`AnalysisConfig::with_switch`]), and
/// its help.
struct Flag {
    name: &'static str,
    arg: Arg,
    reads: Modes,
    needs: Need,
    parse: Option<Parser>,
    help: &'static str,
}

#[rustfmt::skip]
fn flag(name: &'static str, arg: Arg, reads: Modes, needs: Need, parse: Parser, help: &'static str) -> Flag {
    Flag { name, arg, reads, needs, parse: Some(parse), help }
}

#[rustfmt::skip]
fn switch(name: &'static str, arg: Arg, reads: Modes, help: &'static str) -> Flag {
    Flag { name, arg, reads, needs: Need::Any, parse: None, help }
}

fn any(_: &str) -> Result<(), String> {
    Ok(())
}

fn num<T: std::str::FromStr>(s: &str) -> Result<(), String> {
    parse_num::<T>(s).map(drop)
}

/// `value` where `ok`, else the error `why`.
fn check<T>(value: T, ok: bool, why: &str) -> Result<T, String> {
    if ok {
        Ok(value)
    } else {
        Err(why.to_owned())
    }
}

fn positive<T: std::str::FromStr + PartialEq + Default>(s: &str) -> Result<(), String> {
    let n: T = parse_num(s)?;
    check((), n != T::default(), "not a positive count")
}

fn non_negative(s: &str) -> Result<f64, String> {
    let x: f64 = parse_num(s)?;
    check(x, x.is_finite() && x >= 0.0, "not a non-negative number")
}

fn parse_list<T: std::str::FromStr>(s: &str) -> Result<Vec<T>, String> {
    s.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(parse_num)
        .collect()
}

fn workload(name: &str) -> Result<WorkloadId, String> {
    WorkloadId::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

/// `--workloads`: a comma-separated list, or `all`.
fn workload_list(list: &str) -> Result<Vec<WorkloadId>, String> {
    let ids: Vec<WorkloadId> = match list {
        "all" => WorkloadId::ALL.to_vec(),
        _ => list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(workload)
            .collect::<Result<_, _>>()?,
    };
    let ok = !ids.is_empty();
    check(ids, ok, "requires at least one workload")
}

/// `--windows`: positive sizes.
fn window_list(list: &str) -> Result<Vec<usize>, String> {
    let sizes: Vec<usize> = parse_list(list)?;
    let ok = !sizes.contains(&0);
    check(sizes, ok, "window sizes must be positive")
}

/// `--progress[=SECS]`: seconds between heartbeats, 2 when bare.
fn progress_secs(value: &str) -> Result<f64, String> {
    match value {
        "" => Ok(2.0),
        secs => non_negative(secs),
    }
}

/// The flag table: the one place that says which modes read a flag.
#[rustfmt::skip]
fn flags() -> Vec<Flag> {
    use Arg::{Attached, Off, Value};
    use Mode::*;
    use Need::*;
    const RECORDS: Modes = modes(&[Analyze, Dot, Sweep, Compare, Stats, Report]);
    const VM: Modes = RECORDS | modes(&[Trace, SweepGrid]);
    const MACHINE: Modes = modes(&[Analyze, Dot, Report, Sweep, SweepGrid]);
    const SINKS: Modes = modes(&[Analyze, Run, Sweep, SweepGrid]);
    const ANALYZE: Modes = modes(&[Analyze]);
    const SERVE: Modes = modes(&[Serve]);
    vec![
        flag("workload", Value("NAME"), RECORDS | modes(&[Trace, Disasm]), Any, |v| workload(v).map(drop),
            "one of the ten benchmark analogues (see the list command)"),
        flag("workloads", Value("LIST"), modes(&[SweepGrid]), Any, |v| workload_list(v).map(drop),
            "comma-separated workloads, or `all`: the sweep grid"),
        flag("trace", Value("FILE"), RECORDS, Any, any, "read a binary trace instead of running a workload"),
        flag("asm", Value("FILE"), modes(&[Run]), Any, any, "the assembly file to run"),
        flag("text", Value("FILE"), modes(&[Ingest]), Any, any, "the external text trace to convert ('-' reads stdin)"),
        flag("size", Value("N"), VM | modes(&[Disasm]), Workload, num::<u32>, "workload problem size (default per workload)"),
        flag("seed", Value("N"), VM | modes(&[Disasm]), Workload, num::<u64>, "workload input seed"),
        flag("fuel", Value("N"), VM | modes(&[Run]), Workload, num::<u64>, "dynamic instruction cap (default 100,000,000)"),
        flag("input", Value("A,B,C"), modes(&[Run]), Any, |v| parse_list::<i64>(v).map(drop), "read_int inputs for the program"),
        flag("skip", Value("N"), RECORDS, Any, num::<usize>, "drop the first N trace records before analyzing"),
        flag("take", Value("N"), RECORDS, Any, num::<usize>, "analyze at most N trace records (after the skip)"),
        flag("recover", Off, RECORDS, TraceInput, any,
            "read a damaged trace: resynchronize past corrupt chunks\nand report how many records were lost"),
        switch("rename", Value("MODE"), MACHINE, "none | regs | regs-stack | all   (default all)"),
        switch("optimistic", Off, MACHINE, "ignore system calls (default: conservative firewalls)"),
        // The grid sets the window per cell; the one-workload sweep reads
        // it for its unbounded reference row.
        switch("window", Value("N"), MACHINE & !modes(&[SweepGrid]), "instruction window size (default infinite)"),
        switch("branch", Value("MODE"), MACHINE,
            "perfect | stall | always-taken | never-taken | btfn |\nbimodal:N | gshare:N   (N <= 28; default perfect)"),
        switch("units", Value("N"), MACHINE, "at most N operations may start per level (default inf)"),
        switch("no-disambiguation", Off, MACHINE,
            "conservative memory aliasing (loads wait for all\nearlier stores; stores for all earlier memory ops)"),
        // The explicit DDG collects no value statistics, and the ladder
        // prints none.
        switch("value-stats", Off, modes(&[Analyze, SweepGrid]), "report value lifetime and sharing distributions"),
        switch("unit-latency", Off, MACHINE, "all operations take one level (default: Table 1)"),
        // The explicit DDG keeps every value.
        switch("live-well-cap", Value("N"), modes(&[Analyze, Sweep, SweepGrid]),
            "bound the live-well table to N memory locations,\nevicting the coldest (reported as a caveat)"),
        flag("windows", Value("A,B,C"), modes(&[Sweep, SweepGrid]), Any, |v| window_list(v).map(drop),
            "window sizes to sweep (default 1,10,100,1000,10000,100000)"),
        flag("jobs", Value("N"), modes(&[Analyze, SweepGrid]), Any, num::<usize>,
            "worker threads. The sweep grid fans its cells out across N\n\
             workers (0 or absent: all cores; also PARAGRAPH_JOBS). A\n\
             workload's trace is cut at conservative-syscall firewalls\n\
             into N segments analyzed concurrently, byte-identical to one\n\
             (docs/hotpath.md); configurations the cut rule cannot split\n\
             exactly, and checkpointing runs, use one thread. A trace file\n\
             always streams through one decode thread into one analyzer"),
        flag("retries", Value("N"), modes(&[SweepGrid]), Any, num::<u32>,
            "failed-cell retries before quarantine (default 2;\nsee docs/supervision.md)"),
        flag("retry-backoff-ms", Value("N"), modes(&[SweepGrid]), Any, num::<u64>,
            "base backoff between cell retries (default 25;\nexponential growth, deterministic jitter)"),
        flag("out", Value("FILE"), modes(&[Trace, Ingest, Dot, SweepGrid]), Any, any,
            "output file; the sweep grid's artifact directory"),
        flag("format", Value("FMT"), modes(&[Trace]), Any, any, "trace output format: binary (default) | csv"),
        flag("profile", Value("FILE"), ANALYZE, Any, any, "write the parallelism profile as CSV"),
        flag("json", Value("FILE"), ANALYZE, Any, any, "write the analysis report as JSON"),
        flag("plot", Off, ANALYZE, Any, any, "print an ASCII parallelism profile"),
        flag("checkpoint-every", Value("N"), ANALYZE, RegularTrace, positive::<u64>, "save analyzer state every N records"),
        flag("checkpoint", Value("FILE"), ANALYZE, Flag("checkpoint-every"), any,
            "checkpoint path (default: <trace>.pgcp for a trace\nthat is a regular file; paragraph.pgcp for a workload)"),
        flag("resume", Value("FILE"), ANALYZE, RegularTrace, any, "resume an interrupted analysis from a checkpoint"),
        flag("telemetry-out", Value("FILE"), SINKS, Any, any, "write a JSONL structured event log (docs/telemetry.md)"),
        flag("metrics-out", Value("FILE"), SINKS, Any, any,
            "write a Prometheus text snapshot at exit (and, for\nanalyze, at every checkpoint)"),
        flag("timeline-out", Value("FILE"), SINKS, Any, any,
            "record a per-thread span timeline and export it as\nChrome trace-event JSON (open in ui.perfetto.dev);\nlane capacity via PARAGRAPH_TIMELINE_EVENTS"),
        flag("progress", Attached("SECS"), ANALYZE, Any, |v| progress_secs(v).map(drop),
            "heartbeat line to stderr every SECS seconds (default 2):\nrecords, %done, MB/s, critical path, ETA"),
        flag("telemetry", Value("FILE"), modes(&[StatsLog]), Any, any, "the JSONL log to summarize"),
        flag("strict", Off, modes(&[StatsLog]), Any, any, "fail on the first malformed line"),
        flag("metrics", Value("FILE"), modes(&[StatsSnapshot]), Any, any, "the Prometheus snapshot to validate"),
        flag("diff", Value("FILE"), modes(&[ProfileDiff]), Any, any, "the second timeline"),
        flag("top", Value("N"), modes(&[Profile]), Any, num::<usize>, "how many slowest slices to list (default 10)"),
        flag("addr", Value("HOST:PORT"), SERVE, Any, any, "TCP bind address (default 127.0.0.1:7307)"),
        flag("uds", Value("PATH"), SERVE, Any, any, "bind a unix-domain socket instead of TCP"),
        flag("workers", Value("N"), SERVE, Any, positive::<usize>, "worker threads (default 4)"),
        flag("queue", Value("N"), SERVE, Any, num::<usize>,
            "admission queue capacity; beyond it, shed with\n429 + Retry-After (default 64)"),
        flag("max-live-sessions", Value("N"), SERVE, Any, positive::<usize>,
            "analyzers resident at once; beyond it, idle\nsessions are checkpointed to disk and resumed on\ntouch (default 8)"),
        flag("spool", Value("DIR"), SERVE, Any, any, "trace + session spool (default paragraph-serve)"),
        flag("deadline-ms", Value("N"), SERVE, Any, num::<u64>, "per-request analysis deadline (default none)"),
        flag("max-body-mb", Value("N"), SERVE, Any, num::<u64>, "largest accepted request body (default 256)"),
        flag("ready-file", Value("FILE"), SERVE, Any, any,
            "write one line with the bound endpoint once\nlistening, crash-consistently, for launchers"),
        flag("body", Value("FILE"), modes(&[Client]), Any, any, "the request body ('-' reads stdin)"),
        flag("reject-report", Value("FILE"), RECORDS | modes(&[Ingest, Run, Client]), Any, any,
            "also write an exit 7's JSON rejection report to FILE"),
    ]
}

/// The help text: the modes, then every flag with the modes that read it.
fn usage() -> String {
    let mut text = String::from(
        "paragraph — dynamic dependency analysis of ordinary programs (ISCA 1992)\n\n\
         usage: paragraph <command> [options]\n\ncommands:\n",
    );
    for ModeRow(_, _, _, name, takes, help) in &MODES {
        column(&mut text, &format!("{name} {takes}"), help);
    }
    text.push_str("\noptions, with the commands that read them:\n");
    for flag in flags() {
        let arg = match flag.arg {
            Arg::Off => String::new(),
            Arg::Value(name) => format!(" {name}"),
            Arg::Attached(name) => format!("[={name}]"),
        };
        let readers: Vec<&str> = MODES
            .iter()
            .filter(|ModeRow(mode, ..)| flag.reads & (1 << *mode as u32) != 0)
            .map(|ModeRow(_, _, _, name, ..)| *name)
            .collect();
        let needs = match flag.needs {
            Need::Any => String::new(),
            Need::Workload => "; workload input".into(),
            Need::TraceInput => "; trace input".into(),
            Need::RegularTrace => "; a trace must be a regular file".into(),
            Need::Flag(other) => format!("; with {other}"),
        };
        let help = format!("{}\n[{}{needs}]", flag.help, readers.join(", "));
        column(&mut text, &format!("--{}{arg}", flag.name), &help);
    }
    text.push_str(
        "
environment: PARAGRAPH_MAX_* resource governors (docs/ingest.md): a violation exits 7
  with a one-line JSON rejection report on stderr, and serve refuses to start (exit 2)
  on a malformed one; PARAGRAPH_FAULT_REQUEST injects daemon request faults (docs/serve.md)

exit codes: 0 ok, 2 usage, 3 I/O, 4 corrupt trace, 5 analysis failure, 6 degraded sweep
  (healthy cells intact), 7 input rejected by a resource governor, 8 daemon busy or
  draining (retry with backoff); the README maps them onto the daemon's HTTP statuses
",
    );
    text
}

/// One help entry: `head` in a 22-column field (on a line of its own when
/// longer), then `help`, every line of it at column 24.
fn column(text: &mut String, head: &str, help: &str) {
    let head = if head.len() > 21 {
        format!("{head}\n{:22}", "")
    } else {
        head.to_owned()
    };
    let help = help.replace('\n', &format!("\n{:24}", ""));
    text.push_str(&format!("  {head:<22}{help}\n"));
}

/// A parsed command line.
#[derive(Debug, Default)]
struct Options {
    mode: Mode,
    /// Each flag given, with its value (`""` for an on/off flag) as its
    /// row's parser accepted it; the last of a repeated flag wins.
    values: Vec<(&'static str, String)>,
    /// The analysis switches given, over the dataflow limit.
    config: AnalysisConfig,
    /// Non-flag arguments, as many as the mode takes.
    positional: Vec<String>,
}

impl Options {
    /// Parses `COMMAND [ARGS...]` (no command: `help`) against the mode and
    /// flag tables: a flag outside its mode's row, or without the input it
    /// needs, is refused.
    fn parse(args: &[String]) -> Result<Options, String> {
        let (command, rest) = match args.split_first() {
            Some((c, rest)) if c != "--help" && c != "-h" => (c.as_str(), rest),
            _ => ("help", args.get(1..).unwrap_or_default()),
        };
        let selects = |by: &str| rest.iter().any(|a| a.strip_prefix("--") == Some(by));
        let ModeRow(mode, _, by, _, takes, _) = MODES
            .iter()
            .find(|ModeRow(_, c, by, ..)| *c == command && by.is_none_or(selects))
            .ok_or_else(|| format!("unknown command `{command}` (try `paragraph help`)"))?;
        let invocation = by.map_or(command.to_owned(), |by| format!("{command} --{by}"));
        let table = flags();
        let mut opts = Options {
            mode: *mode,
            ..Options::default()
        };
        let mut given = Vec::new();
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                opts.positional.push(arg.clone());
                continue;
            }
            let word = arg.strip_prefix("--").unwrap_or_default();
            let (name, attached) = word
                .split_once('=')
                .map_or((word, None), |(n, v)| (n, Some(v)));
            let flag = table
                .iter()
                .find(|f| f.name == name)
                .ok_or_else(|| format!("unknown option `{arg}`"))?;
            if flag.reads & (1 << *mode as u32) == 0 {
                return Err(format!(
                    "`--{name}` is not read by `{invocation}` (see `paragraph help`)"
                ));
            }
            let value = match (flag.arg, attached) {
                (Arg::Attached(_), value) => value.unwrap_or_default(),
                (Arg::Value(_), None) => it
                    .next()
                    .ok_or_else(|| format!("--{name} requires a value"))?,
                (Arg::Off, None) => "",
                (_, Some(_)) => return Err(format!("unknown option `{arg}`")),
            };
            match flag.parse {
                Some(parse) => parse(value),
                None => std::mem::take(&mut opts.config)
                    .with_switch(name, value)
                    .map(|config| opts.config = config),
            }
            .map_err(|e| format!("--{name}: {e}"))?;
            opts.values.push((flag.name, value.to_owned()));
            given.push(flag);
        }
        if let Some(extra) = opts.positional.get(takes.split_whitespace().count()) {
            return Err(format!("unexpected argument `{extra}`"));
        }
        for Flag { name, needs, .. } in given {
            match (needs, opts.get("trace")) {
                (Need::Workload, Some(_)) => {
                    return Err(format!(
                        "`--{name}` sets up a workload run; a --trace input has none"
                    ))
                }
                (Need::TraceInput, None) => {
                    return Err(format!("`--{name}` reads a --trace input"))
                }
                (Need::RegularTrace, Some(path))
                    if std::fs::metadata(path).is_ok_and(|m| !m.is_file()) =>
                {
                    return Err(format!(
                        "`--{name}` needs a regular trace file, read once to count it and \
                         once to analyze it; `{path}` is a pipe or device"
                    ))
                }
                (Need::Flag(other), _) if !opts.has(other) => {
                    return Err(format!("`--{name}` is read only beside `--{other}`"))
                }
                _ => {}
            }
        }
        Ok(opts)
    }

    /// The value of `--name`, if given.
    fn get(&self, name: &str) -> Option<&str> {
        debug_assert!(flags().iter().any(|f| f.name == name), "no flag --{name}");
        let mut given = self.values.iter().rev();
        given.find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// A numeric flag's value, in the type its row's parser checked.
    fn num<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.get(name).and_then(|v| parse_num(v).ok())
    }

    fn config(&self, segments: SegmentMap) -> AnalysisConfig {
        self.config.clone().with_segments(segments)
    }

    /// `--windows`, or the default ladder.
    fn windows(&self) -> Vec<usize> {
        self.get("windows")
            .and_then(|v| window_list(v).ok())
            .unwrap_or_else(|| vec![1, 10, 100, 1000, 10_000, 100_000])
    }

    fn build_workload(&self) -> Result<Workload, String> {
        let id = self
            .get("workload")
            .and_then(WorkloadId::by_name)
            .ok_or("this command needs --workload (see `paragraph list`)")?;
        let mut workload = Workload::new(id);
        if let Some(size) = self.num("size") {
            workload = workload.with_size(size);
        }
        if let Some(seed) = self.num("seed") {
            workload = workload.with_seed(seed);
        }
        Ok(workload)
    }

    fn fuel(&self) -> u64 {
        self.num("fuel").unwrap_or(paragraph_vm::DEFAULT_FUEL)
    }
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

/// Opens the trace input: mapped where the file can be mapped, buffered
/// reads otherwise (a pipe, say). Decode semantics are identical either
/// way; only how bytes reach the decoder differs.
fn open_trace_source(path: &str) -> Result<TraceSource, CliError> {
    TraceSource::auto_file(std::path::Path::new(path)).map_err(|e| io_err(path, e))
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
    let reader = if opts.has("recover") {
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
    let mut loaded = if let Some(path) = opts.get("trace") {
        let mut span = paragraph_core::span!("decode");
        let source = open_trace_source(path)?;
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
        let recovery = opts.has("recover").then(|| reader.recovery_stats());
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
    if let Some(skip) = opts.num::<usize>("skip") {
        loaded.records.drain(..skip.min(loaded.records.len()));
    }
    if let Some(take) = opts.num("take") {
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
    if let Some(path) = opts.get("profile") {
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
    if let Some(path) = opts.get("json") {
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
    if opts.has("plot") {
        println!("{}", report.profile().ascii_plot(72, 12));
    }
}

/// The checkpoint path for this run: `--checkpoint FILE`; else the trace
/// path plus `.pgcp` when the trace path itself names a regular file (not
/// a symlink such as `/dev/stdin`, a pipe or a device, beside which no
/// checkpoint belongs); else, for a workload run, `paragraph.pgcp`.
fn checkpoint_path(opts: &Options) -> Result<String, CliError> {
    if let Some(path) = opts.get("checkpoint") {
        return Ok(path.to_owned());
    }
    match opts.get("trace") {
        None => Ok("paragraph.pgcp".to_owned()),
        // A missing trace fails as an I/O error when it is opened.
        Some(trace) if std::fs::symlink_metadata(trace).is_ok_and(|m| !m.is_file()) => {
            Err(CliError::Usage(format!(
                "`{trace}` is not a regular file, so no checkpoint path derives from it; \
                 name one with --checkpoint FILE"
            )))
        }
        Some(trace) => Ok(format!("{trace}.pgcp")),
    }
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
        let registry = opts.has("progress") || opts.has("telemetry-out") || opts.has("metrics-out");
        if registry {
            let global = telemetry::global();
            global.enable();
            if let Some(path) = opts.get("telemetry-out") {
                let file = File::create(path).map_err(|e| io_err(path, e))?;
                global.set_event_sink(Box::new(BufWriter::new(file)));
            }
        }
        if opts.has("timeline-out") {
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
            telemetry_out: opts.get("telemetry-out").map(str::to_owned),
            metrics_out: opts.get("metrics-out").map(str::to_owned),
            timeline_out: opts.get("timeline-out").map(str::to_owned),
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
    let checkpointing = opts.has("checkpoint-every") || opts.has("resume");
    let skip = opts.num::<usize>("skip").unwrap_or(0);
    let Some(path) = opts.get("trace") else {
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
    let source = open_trace_source(path)?;
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    let scanned = (!opts.has("recover") && (checkpointing || sinks.registry))
        .then(|| source.shared_bytes())
        .flatten()
        .and_then(|bytes| scan_chunks(&bytes))
        .map(|scan| scan.total);
    let reader = trace_reader(opts, path, source, limits)?;
    let identity = if checkpointing {
        let source = open_trace_source(path)?;
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
    let checkpoint_path = if opts.has("checkpoint-every") {
        checkpoint_path(opts)?
    } else {
        String::new()
    };
    let input = open_input(opts, sinks)?;
    let take = opts.num::<usize>("take").map_or(u64::MAX, |t| t as u64);
    let total = input.total.map(|t| t.min(take));
    let workload = opts.build_workload().ok().map(|w| w.id().name());
    let name = opts
        .get("trace")
        .or(workload)
        .unwrap_or_default()
        .to_owned();
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
    let mut analyzer = match opts.get("resume") {
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
        checkpoint_path,
        checkpointing: opts.has("checkpoint-every"),
        failures: Vec::new(),
        sinks,
        reporter: opts
            .get("progress")
            .and_then(|v| progress_secs(v).ok())
            .map(|secs| {
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
        .num("jobs")
        .map_or(1, paragraph_core::parallel::effective_jobs);
    let policy = Policy {
        checkpoint_every: opts.num("checkpoint-every"),
        skip: opts.num::<usize>("skip").map_or(0, |s| s as u64),
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
        if opts.has("recover") {
            paragraph_core::counter!("decode.resyncs", decoded.stats.resyncs);
            paragraph_core::counter!("decode.records_skipped", decoded.stats.records_skipped);
            if !matches!(outcome, Err(Stop::Trace(_))) {
                print_recovery_stats(&decoded.stats);
            }
        }
    }
    outcome.map_err(|stop| stop_err(&name, stop))?;
    if let Some(reason) = stats.one_thread.filter(|_| opts.has("progress")) {
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
        .get("out")
        .ok_or_else(|| usage_err("trace needs --out FILE"))?;
    let file = File::create(path).map_err(|e| io_err(path, e))?;
    let mut vm = workload.vm();
    match opts.get("format").unwrap_or("binary") {
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
        .get("text")
        .ok_or_else(|| usage_err("ingest needs --text FILE"))?;
    let out_path = opts
        .get("out")
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
        .get("asm")
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
    vm.extend_input(parse_list::<i64>(opts.get("input").unwrap_or_default()).unwrap_or_default());
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
    match opts.get("out") {
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
    if let Some(path) = opts.get("telemetry") {
        let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
        // Telemetry logs are routinely truncated mid-line by a crash or a
        // full disk; by default the readable prefix is still summarized and
        // each bad line is warned about. `--strict` restores fail-fast for
        // CI, which wants to prove a healthy run wrote a clean log.
        let events = if opts.has("strict") {
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
    if let Some(path) = opts.get("metrics") {
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
/// compares two timelines.
fn cmd_profile(opts: &Options) -> Result<(), CliError> {
    use telemetry::tracefmt;
    let path = opts.positional.first().ok_or_else(|| {
        usage_err("profile needs a timeline file (paragraph profile t.json; see --timeline-out)")
    })?;
    let summary = load_timeline_summary(path)?;
    match opts.get("diff") {
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
                tracefmt::render_profile(&summary, opts.num("top").unwrap_or(10))
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
    let LoadedTrace {
        records, segments, ..
    } = load_records(opts)?;
    let windows = opts.windows();
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
    let windows = opts.windows();
    // The scheduler applies each workload's own segment map; the base
    // config carries only the command-line machine model.
    let base = opts.config(SegmentMap::default());
    let workloads = opts
        .get("workloads")
        .and_then(|v| workload_list(v).ok())
        .unwrap_or_default();
    let mut cells = Vec::with_capacity(workloads.len() * (windows.len() + 1));
    for &id in &workloads {
        for &w in &windows {
            cells.push(SweepCell::new(
                id,
                format!("w{w}"),
                base.clone().with_window(WindowSize::bounded(w)),
            ));
        }
        cells.push(SweepCell::new(id, "full", base.clone()));
    }

    let out_dir = opts.get("out").map(PathBuf::from);
    let study = Study::new(
        opts.fuel(),
        100,
        out_dir.clone().unwrap_or_else(|| PathBuf::from("results")),
    )
    .with_size_override(opts.num("size"))
    .with_seed_override(opts.num("seed"));
    let sweep_opts = SweepOptions {
        jobs: opts
            .num("jobs")
            .unwrap_or_else(paragraph_bench::jobs_from_env),
        // Each CLI sweep is self-contained: it writes no stage markers
        // into the output directory, and a rerun recomputes every cell.
        reuse_stages: false,
        retries: opts
            .num("retries")
            .unwrap_or(SweepOptions::default().retries),
        retry_backoff_ms: opts
            .num("retry-backoff-ms")
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
    for (w_idx, &id) in workloads.iter().enumerate() {
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
        "sweep: {} cells on {} worker(s) in {:.2}s (arena: {} decode(s), {} hit(s))",
        outcome.cells.len(),
        outcome.jobs,
        outcome.wall_ns as f64 / 1e9,
        outcome.arena.misses,
        outcome.arena.hits,
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
    let defaults = paragraph_serve::ServeOptions::default();
    let serve_opts = paragraph_serve::ServeOptions {
        addr: opts.get("addr").unwrap_or("127.0.0.1:7307").to_owned(),
        uds: opts.get("uds").map(PathBuf::from),
        workers: opts.num("workers").unwrap_or(defaults.workers),
        queue_capacity: opts.num("queue").unwrap_or(defaults.queue_capacity),
        max_live_sessions: opts
            .num("max-live-sessions")
            .unwrap_or(defaults.max_live_sessions),
        spool: opts
            .get("spool")
            .map_or(defaults.spool.clone(), PathBuf::from),
        deadline: opts.num("deadline-ms").map(Duration::from_millis),
        max_body_bytes: opts
            .num::<u64>("max-body-mb")
            .map_or(defaults.max_body_bytes, |mb| mb.saturating_mul(1024 * 1024)),
        ready_file: opts.get("ready-file").map(PathBuf::from),
        limits,
        fault,
        external_shutdown: Some(Box::new(signal_lite::shutdown_requested)),
        ..defaults
    };
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
    let body = match opts.get("body") {
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
    use paragraph_core::branch::{BranchPolicy, PredictorKind};
    use paragraph_core::{MemoryModel, RenameSet, SWITCHES};

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::parse(&owned)
    }

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_workload_and_switches() {
        let opts = parse(&[
            "analyze",
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
        assert_eq!(opts.mode, Mode::Analyze);
        assert_eq!(opts.build_workload().unwrap().id(), WorkloadId::Cc1);
        assert_eq!(opts.num::<u32>("size"), Some(12));
        let config = opts.config(SegmentMap::all_data());
        assert_eq!(config.renames(), RenameSet::registers_only());
        assert_eq!(config.window(), WindowSize::bounded(1024));
        assert_eq!(
            config.syscall_policy(),
            paragraph_core::SyscallPolicy::Optimistic
        );
        assert_eq!(config.issue_limit(), Some(4));
        assert_eq!(config.memory_model(), MemoryModel::NoDisambiguation);
        assert!(config.value_stats());
    }

    #[test]
    fn config_reflects_options() {
        let opts = parse(&[
            "analyze", "--rename", "none", "--window", "64", "--units", "2",
        ])
        .unwrap();
        let config = opts.config(SegmentMap::all_data());
        assert_eq!(config.renames(), RenameSet::none());
        assert_eq!(config.window(), WindowSize::bounded(64));
        assert_eq!(config.issue_limit(), Some(2));
    }

    /// The switches the daemon's query test spells as
    /// `branch=gshare:10&window=1_000&rename=regs-stack&units=4&no-disambiguation`
    /// build the same configuration as CLI flags.
    #[test]
    fn cli_switches_build_the_query_config() {
        let opts = parse(&[
            "analyze",
            "--branch",
            "gshare:10",
            "--window",
            "1_000",
            "--rename",
            "regs-stack",
            "--units",
            "4",
            "--no-disambiguation",
        ])
        .unwrap();
        let expected = AnalysisConfig::dataflow_limit()
            .with_branch_policy(BranchPolicy::Predict(PredictorKind::Gshare {
                index_bits: 10,
            }))
            .with_window(WindowSize::bounded(1000))
            .with_renames(RenameSet::registers_and_stack())
            .with_issue_limit(4)
            .with_memory_model(MemoryModel::NoDisambiguation);
        assert_eq!(opts.config(SegmentMap::all_data()), expected);
    }

    #[test]
    fn unknown_flags_and_values_error() {
        assert!(parse(&["analyze", "--frobnicate"]).is_err());
        assert!(parse(&["analyze", "--workload", "gcc"]).is_err());
        assert!(parse(&["analyze", "--size"]).is_err());
        assert!(parse(&["analyze", "--rename", "everything"]).is_err());
        assert!(parse(&["analyze", "--branch", "gshare:29"]).is_err());
        assert!(parse(&["analyze", "--plot=1"]).is_err());
        assert!(parse(&["analyze", "-x"]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
    }

    #[test]
    fn numbers_accept_underscores() {
        let opts = parse(&["analyze", "--fuel", "1_000_000"]).unwrap();
        assert_eq!(opts.fuel(), 1_000_000);
    }

    #[test]
    fn skip_and_take_parse() {
        let opts = parse(&["analyze", "--skip", "100", "--take", "50"]).unwrap();
        assert_eq!(opts.num::<usize>("skip"), Some(100));
        assert_eq!(opts.num::<usize>("take"), Some(50));
    }

    #[test]
    fn lists_parse() {
        let opts = parse(&["run", "--input", "1, 2,3"]).unwrap();
        assert_eq!(
            parse_list::<i64>(opts.get("input").unwrap()),
            Ok(vec![1, 2, 3])
        );
        let opts = parse(&["sweep", "--windows", "10,100"]).unwrap();
        assert_eq!(opts.windows(), vec![10, 100]);
        assert_eq!(parse(&["sweep"]).unwrap().windows().len(), 6);
        assert!(parse(&["sweep", "--windows", "10,0"]).is_err());
    }

    #[test]
    fn fuel_defaults_to_the_paper_cap() {
        let opts = parse(&["analyze"]).unwrap();
        assert_eq!(opts.fuel(), paragraph_vm::DEFAULT_FUEL);
    }

    #[test]
    fn workload_requires_flag() {
        let opts = parse(&["analyze"]).unwrap();
        assert!(opts.build_workload().is_err());
    }

    #[test]
    fn fault_tolerance_flags_parse() {
        let opts = parse(&[
            "analyze",
            "--trace",
            "missing.pgtr",
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
        assert!(opts.has("recover"));
        assert_eq!(opts.num::<u64>("checkpoint-every"), Some(10_000));
        assert_eq!(opts.get("checkpoint"), Some("state.pgcp"));
        assert_eq!(opts.get("resume"), Some("old.pgcp"));
        let config = opts.config(SegmentMap::all_data());
        assert_eq!(config.live_well_cap(), Some(4096));
    }

    #[test]
    fn zero_counts_are_rejected() {
        assert!(parse(&["analyze", "--checkpoint-every", "0"]).is_err());
        assert!(parse(&["analyze", "--live-well-cap", "0"]).is_err());
        assert!(parse(&["analyze", "--window", "0"]).is_err());
        assert!(parse(&["analyze", "--units", "0"]).is_err());
        assert!(parse(&["serve", "--workers", "0"]).is_err());
    }

    #[test]
    fn checkpoint_path_derives_from_the_trace() {
        let path = |line: &str| checkpoint_path(&Options::parse(&words(line)).unwrap());
        let every = "analyze --checkpoint-every 9";
        // A missing trace fails when it is opened; a symlink to a regular
        // file, as `/dev/stdin` is, is refused (crates/cli/tests).
        let derived = path(&format!("{every} --trace run.pgtr"));
        assert_eq!(derived.unwrap(), "run.pgtr.pgcp");
        let named = path(&format!("{every} --checkpoint x.pgcp"));
        assert_eq!(named.unwrap(), "x.pgcp");
        assert_eq!(path(every).unwrap(), "paragraph.pgcp");
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
            "ingest",
            "--text",
            "in.pgtxt",
            "--out",
            "out.pgtr",
            "--reject-report",
            "why.json",
        ])
        .unwrap();
        assert_eq!(opts.get("text"), Some("in.pgtxt"));
        assert_eq!(opts.get("out"), Some("out.pgtr"));
        assert_eq!(opts.get("reject-report"), Some("why.json"));
        assert!(parse(&["ingest", "--text"]).is_err());
        let opts = parse(&["stats", "--telemetry", "run.jsonl", "--strict"]).unwrap();
        assert_eq!(opts.mode, Mode::StatsLog);
        assert!(opts.has("strict"));
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
        let grid = ["sweep", "--workloads", "xlisp"];
        let opts =
            parse(&[&grid[..], &["--retries", "5", "--retry-backoff-ms", "100"]].concat()).unwrap();
        assert_eq!(opts.num::<u32>("retries"), Some(5));
        assert_eq!(opts.num::<u64>("retry-backoff-ms"), Some(100));
        assert!(parse(&[&grid[..], &["--retries"]].concat()).is_err());
        assert!(parse(&[&grid[..], &["--retry-backoff-ms", "fast"]].concat()).is_err());
    }

    /// A value each flag accepts.
    fn sample(flag: &Flag) -> Vec<String> {
        let value = match flag.name {
            "workload" | "workloads" => "xlisp",
            "rename" => "regs",
            "branch" => "gshare:4",
            "format" => "csv",
            "input" | "windows" => "4,8",
            "addr" => "127.0.0.1:0",
            "trace" => "missing.pgtr",
            _ => "3",
        };
        match flag.arg {
            Arg::Off => vec![format!("--{}", flag.name)],
            Arg::Attached(_) => vec![format!("--{}={value}", flag.name)],
            Arg::Value(_) => vec![format!("--{}", flag.name), value.to_owned()],
        }
    }

    /// The command line that selects `row`'s mode, before any other flag.
    fn invoke(ModeRow(_, command, by, ..): &ModeRow) -> Vec<String> {
        let mut args = vec![command.to_string()];
        if let Some(by) = by {
            let selector = flags().into_iter().find(|f| f.name == *by).unwrap();
            args.extend(sample(&selector));
        }
        args
    }

    #[test]
    fn every_flag_outside_its_row_is_a_usage_error() {
        let mut refused = 0;
        for row @ ModeRow(mode, command, by, ..) in &MODES {
            for flag in flags() {
                if flag.reads & (1 << *mode as u32) != 0 {
                    continue;
                }
                let args = [invoke(row), sample(&flag)].concat();
                // A flag that selects a sibling mode of the command is
                // read there.
                let sibling =
                    |ModeRow(_, c, b, ..): &ModeRow| c == command && *b == Some(flag.name);
                if by.is_none() && MODES.iter().any(sibling) {
                    assert_ne!(Options::parse(&args).unwrap().mode, *mode, "{args:?}");
                    continue;
                }
                let err = Options::parse(&args).map(|o| o.mode).unwrap_err();
                assert!(err.contains("is not read by"), "{args:?}: {err}");
                refused += 1;
            }
        }
        assert!(refused > 500, "{refused} pairs walked");
    }

    #[test]
    fn every_flag_in_its_row_parses() {
        for row @ ModeRow(mode, ..) in &MODES {
            for flag in flags() {
                if flag.reads & (1 << *mode as u32) == 0 {
                    continue;
                }
                let mut args = invoke(row);
                match flag.needs {
                    Need::TraceInput | Need::RegularTrace => {
                        args.extend(words("--trace missing.pgtr"))
                    }
                    Need::Flag(other) => {
                        let other = flags().into_iter().find(|f| f.name == other).unwrap();
                        args.extend(sample(&other));
                    }
                    Need::Any | Need::Workload => {}
                }
                args.extend(sample(&flag));
                let opts = Options::parse(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
                assert_eq!(opts.mode, *mode, "{args:?}");
            }
        }
    }

    #[test]
    fn every_analysis_switch_has_one_row() {
        let rows: Vec<Flag> = flags().into_iter().filter(|f| f.parse.is_none()).collect();
        assert_eq!(rows.len(), SWITCHES.len());
        for name in SWITCHES {
            let row = rows.iter().find(|f| f.name == name).unwrap();
            // Only an on/off switch takes the empty value.
            let bare = AnalysisConfig::default().with_switch(name, "");
            assert_eq!(row.arg == Arg::Off, bare.is_ok(), "{name}");
        }
    }

    #[test]
    fn input_needs_are_usage_errors() {
        for line in [
            "analyze --trace t.pgtr --size 9",
            "sweep --trace t.pgtr --seed 1",
            "analyze --workload xlisp --recover",
            "stats --recover",
            "analyze --trace /dev/null --checkpoint-every 300",
            "analyze --trace /dev/null --resume ck.pgcp",
            "analyze --workload matrix300 --size 2 --checkpoint x.pgcp",
            "analyze --trace t.pgtr --resume ck.pgcp --checkpoint x.pgcp",
            "profile a.json b.json",
            "client http://127.0.0.1:1 GET /healthz extra",
            "list extra",
        ] {
            assert!(Options::parse(&words(line)).is_err(), "{line}");
        }
        // A workload needs no regular file, and a missing trace is an I/O
        // error for the command to report.
        for line in [
            "analyze --workload xlisp --checkpoint-every 300",
            "analyze --trace missing.pgtr --checkpoint-every 300",
        ] {
            assert!(Options::parse(&words(line)).is_ok(), "{line}");
        }
    }

    /// Lines that each ran to exit 0 while ignoring a flag, or that name
    /// a flag no mode reads.
    #[test]
    fn probed_lines_are_usage_errors() {
        for line in [
            "compare --workload matrix300 --size 4 --rename none --checkpoint-every 10 --checkpoint F",
            "stats --workload matrix300 --resume missing.pgcp --window 3",
            "trace --workload matrix300 --out t --window 64 --skip 5",
            "sweep --workloads matrix300 --windows 64 --skip 100 --recover",
            "analyze --trace t.pgtr --size 9 --fuel 1",
            "profile x --bench-compare y",
        ] {
            let result = run(&words(line));
            assert!(matches!(result, Err(CliError::Usage(_))), "{line}: {result:?}");
        }
    }

    /// The command lines the benchmark driver issues.
    #[test]
    fn benchmark_command_lines_parse() {
        for line in [
            "analyze --trace T --rename all --json J",
            "analyze --trace T --rename none --window 64 --json J",
            "analyze --trace T --rename all --jobs 2 --json J",
            "analyze --trace T --rename none --jobs 1 --json J",
            "sweep --workloads all --windows 1,10,100 --jobs 2 --seed 7 --out D",
            "serve --addr 127.0.0.1:0 --max-live-sessions 1 --workers 2 --spool D --ready-file F",
        ] {
            if let Err(e) = Options::parse(&words(line)) {
                panic!("{line}: {e}");
            }
        }
    }

    #[test]
    fn readme_cli_lines_parse() {
        let readme = include_str!("../../../README.md");
        let block = readme
            .split("## The CLI\n\n```text\n")
            .nth(1)
            .and_then(|rest| rest.split("```").next())
            .unwrap();
        let mut lines = 0;
        for line in block.lines() {
            let line = line.split('#').next().unwrap();
            let args = words(line.trim().strip_prefix("paragraph").unwrap());
            if let Err(e) = Options::parse(&args) {
                panic!("{line}: {e}");
            }
            lines += 1;
        }
        assert!(lines >= 10);
    }

    #[test]
    fn usage_names_every_flag_once() {
        let text = usage();
        let mut named: Vec<&str> = text
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|w| w.strip_prefix("--"))
            .collect();
        named.sort_unstable();
        let mut table: Vec<&str> = flags().iter().map(|f| f.name).collect();
        table.sort_unstable();
        assert_eq!(named, table);
    }
}
