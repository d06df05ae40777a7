//! `perfbench` — the Paragraph benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --paragraph PATH --work DIR [--commit ID] [--rustc VERSION]
//! ```
//!
//! `--trace 0` runs the workload against the release `paragraph` binary
//! and reports its end-to-end metrics; `--trace 1` replays the workload's
//! calls in-process under spans and reports per-layer metrics. Both check
//! every output. The last line of stdout is one JSON object holding the
//! metrics `BENCHMARK.json` declares for that mode; `DIR/result.json`
//! holds every metric with the run's stamps. `perfbench/README.md` says
//! what each metric means. `perfbench/run.py` builds and runs this.

mod e2e;
mod http;
mod inputs;
mod ledger;
mod spans;
mod stats;
mod sys;

use paragraph_core::telemetry::tracefmt::{parse_json, JsonValue};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `paragraph analyze` over the ten SPEC89-analogue traces, three ways.
    SpecSuite,
    /// `paragraph analyze` over a 10M-record memory walk, `--jobs 1` and N.
    MemwalkJobs,
    /// `paragraph sweep` over the Figure 8 grid.
    Fig8Sweep,
    /// `paragraph serve` under a closed loop of mixed requests.
    ServeMixed,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("spec-suite", Workload::SpecSuite),
        ("memwalk-jobs", Workload::MemwalkJobs),
        ("fig8-sweep", Workload::Fig8Sweep),
        ("serve-mixed", Workload::ServeMixed),
    ];

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, w)| *w)
    }

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("?", |(n, _)| n)
    }
}

/// Settings shared by every workload run.
pub struct Ctx {
    /// The release `paragraph` binary.
    pub paragraph: PathBuf,
    /// This run's scratch directory.
    pub work: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// `nproc`: worker threads, `--jobs`, and client connections.
    pub jobs: usize,
}

impl Ctx {
    /// A subdirectory of the scratch directory, created if needed.
    pub fn dir(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.work.join(name);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// The measured phase's length.
    pub fn run_for(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (CLI invocations, sweep cells, requests,
    /// replayed analyses).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong output.
    pub failed: u64,
    /// Set-up and consistency checks that failed.
    pub checks_failed: u64,
    /// High-water memory of the process under test, MiB.
    pub peak_rss_mb: f64,
    /// Every metric, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes (latency summaries, first failures).
    pub notes: Vec<String>,
}

/// Failure notes kept per run.
const MAX_FAILURE_NOTES: usize = 5;

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        });
    }

    /// Counts one operation; `what` describes a failure.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed as usize <= MAX_FAILURE_NOTES {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// Records a set-up or consistency check.
    pub fn check(&mut self, ok: bool, what: String) {
        if !ok {
            self.checks_failed += 1;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    paragraph: PathBuf,
    work: PathBuf,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = need("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: need("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: need("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}`")),
        },
        paragraph: PathBuf::from(need("--paragraph")?),
        work: PathBuf::from(need("--work")?),
        commit: get("--commit").unwrap_or("unknown").to_owned(),
        rustc: get("--rustc").unwrap_or("unknown").to_owned(),
    })
}

/// The metric names `BENCHMARK.json` declares under `section`.
fn declared(benchmark: &JsonValue, section: &str) -> Vec<String> {
    match benchmark.get(section) {
        Some(JsonValue::Arr(items)) => items
            .iter()
            .filter_map(|m| m.get("name").and_then(JsonValue::as_str).map(str::to_owned))
            .collect(),
        _ => Vec::new(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn metrics_json(metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn run(args: &Args) -> Result<String, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let benchmark = parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let wanted = declared(
        &benchmark,
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
    );
    if !args.paragraph.is_file() {
        return Err(format!("{}: no such binary", args.paragraph.display()));
    }
    let _ = std::fs::remove_dir_all(&args.work);
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let ctx = Ctx {
        paragraph: args.paragraph.clone(),
        work: args.work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let ticks = sys::cpu_ticks();
    let mut outcome = if args.trace {
        ledger::run(args.workload, &ctx)
    } else {
        e2e::run(args.workload, &ctx)
    }
    .map_err(|e| format!("{}: {e}", args.workload.name()))?;
    outcome.metric("host.steal_frac", sys::steal_since(ticks), "fraction");

    let mut reported = Vec::new();
    for name in &wanted {
        reported.push(outcome.get(name).ok_or_else(|| {
            format!("BENCHMARK.json declares `{name}`, which this run did not measure")
        })?);
    }
    let correct = outcome.failed == 0 && outcome.checks_failed == 0;
    let attempted = outcome.attempted.max(1);
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{}}}",
        outcome.failed,
        metrics_json(&reported)
    );
    let all: Vec<&Metric> = outcome.metrics.iter().collect();
    let notes: Vec<String> = outcome.notes.iter().map(|n| json_str(n)).collect();
    let detail = format!(
        "{{\"workload\":{},\"trace\":{},\"seed\":{},\"seconds\":{},\"nproc\":{},\"commit\":{},\"rustc\":{},\
         \"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"failed_frac\":{},\"checks_failed\":{},\
         \"metrics\":{},\"notes\":[{}]}}\n",
        json_str(args.workload.name()),
        u8::from(args.trace),
        args.seed,
        json_num(args.seconds),
        ctx.jobs,
        json_str(&args.commit),
        json_str(&args.rustc),
        outcome.failed,
        json_num(outcome.failed as f64 / attempted as f64),
        outcome.checks_failed,
        metrics_json(&all),
        notes.join(",")
    );
    let detail_path = args.work.join("result.json");
    std::fs::write(&detail_path, &detail).map_err(|e| format!("{}: {e}", detail_path.display()))?;
    eprintln!(
        "perfbench {} seed={} trace={} nproc={} commit={} ({})",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        ctx.jobs,
        args.commit,
        args.rustc
    );
    for m in &outcome.metrics {
        eprintln!("  {:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &outcome.notes {
        eprintln!("  {n}");
    }
    eprintln!(
        "  ops attempted {attempted}, failed {} (failed_frac {}), checks failed {}; details in {}",
        outcome.failed,
        outcome.failed as f64 / attempted as f64,
        outcome.checks_failed,
        detail_path.display()
    );
    Ok(line)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
