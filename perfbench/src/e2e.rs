//! The untraced runs: each workload against the release `paragraph`
//! binary, timed from outside, every output checked.

use crate::http;
use crate::inputs::{self, TraceFile};
use crate::stats::{median, Summary};
use crate::sys;
use crate::{Ctx, Outcome, Workload};
use paragraph_core::telemetry::tracefmt::{parse_json, JsonValue};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Runs `workload` untraced and returns its end-to-end metrics.
pub fn run(workload: Workload, ctx: &Ctx) -> io::Result<Outcome> {
    match workload {
        Workload::SpecSuite => spec_suite(ctx),
        Workload::MemwalkJobs => memwalk_jobs(ctx),
        Workload::Fig8Sweep => fig8_sweep(ctx),
        Workload::ServeMixed => serve_mixed(ctx, false).map(|(o, _)| o),
    }
}

/// Repeats `setup` [`SETUP_REPS`] times and reports the median time as
/// `setup_s`. Each repetition's `fingerprint` (taken outside the timing)
/// must equal the first one's: set-up is a pure function of the seed. The
/// first repetition's value is kept; later ones go to `discard`.
fn repeat_setup<T, F: PartialEq>(
    out: &mut Outcome,
    mut setup: impl FnMut(usize) -> io::Result<T>,
    fingerprint: impl Fn(&T) -> io::Result<F>,
    mut discard: impl FnMut(T),
) -> io::Result<T> {
    let mut times = Vec::new();
    let mut first: Option<(T, F)> = None;
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let value = setup(rep)?;
        times.push(started.elapsed().as_secs_f64());
        let print = fingerprint(&value)?;
        match &first {
            None => first = Some((value, print)),
            Some((_, f)) => {
                out.check(
                    *f == print,
                    format!("set-up repetition {rep} differs from the first"),
                );
                discard(value);
            }
        }
    }
    out.metric("setup_s", median(&times), "s");
    first
        .map(|(v, _)| v)
        .ok_or_else(|| io::Error::other("no set-up ran"))
}

/// `paragraph analyze --trace T ARGS --json OUT`, output discarded.
fn analyze_cmd(ctx: &Ctx, trace: &Path, args: &[&str], json: &Path) -> Command {
    let mut cmd = Command::new(&ctx.paragraph);
    cmd.arg("analyze")
        .arg("--trace")
        .arg(trace)
        .args(args)
        .arg("--json")
        .arg(json)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

/// One `analyze` command line of a CLI workload: its leg name, its flags,
/// and which reference its report must equal.
struct Cmd<'a> {
    leg: &'static str,
    args: Vec<&'a str>,
    reference: usize,
}

/// Timings of one leg (one command line over every trace).
#[derive(Default, Clone)]
struct Leg {
    records: u64,
    wall: f64,
    cpu: f64,
}

/// The measured phase of a CLI workload: whole passes (every command on
/// every trace) until `--seconds` is reached, each report checked. Reports
/// records/s and invocations/s over the summed invocation wall time, and
/// the latency of a pass (the sum of its invocations' wall times).
fn cli_passes(
    ctx: &Ctx,
    out: &mut Outcome,
    traces: &[(&TraceFile, Vec<&str>)],
    cmds: &[Cmd],
) -> io::Result<()> {
    let json = ctx.work.join("report.json");
    // One unmeasured invocation first, so the binary is in the page cache.
    sys::run(&mut analyze_cmd(
        ctx,
        &traces[0].0.path,
        &cmds[0].args,
        &json,
    ))?;
    let mut legs = vec![Leg::default(); cmds.len()];
    let (mut pass_ms, mut invocation_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while pass_ms.is_empty() || started.elapsed() < ctx.run_for() {
        let mut pass = 0.0;
        for (file, refs) in traces {
            for (cmd, leg) in cmds.iter().zip(legs.iter_mut()) {
                let _ = fs::remove_file(&json);
                let exit = sys::run(&mut analyze_cmd(ctx, &file.path, &cmd.args, &json))?;
                let ok =
                    exit.ok() && fs::read_to_string(&json).is_ok_and(|j| j == refs[cmd.reference]);
                let wall = exit.wall.as_secs_f64();
                pass += wall;
                invocation_ms.push(wall * 1e3);
                leg.records += file.records;
                leg.wall += wall;
                leg.cpu += exit.cpu.as_secs_f64();
                out.peak_rss_mb = out.peak_rss_mb.max(exit.peak_rss_mb);
                out.op(ok, || {
                    format!(
                        "analyze {} {}: exit {:?} or report differs from the reference",
                        file.label, cmd.leg, exit.code
                    )
                });
            }
        }
        pass_ms.push(pass * 1e3);
    }
    let records: u64 = legs.iter().map(|l| l.records).sum();
    let wall: f64 = legs.iter().map(|l| l.wall).sum();
    out.metric("analyze_records_per_s", records as f64 / wall, "records/s");
    out.metric("ops_per_s", invocation_ms.len() as f64 / wall, "ops/s");
    let cpu: f64 = legs.iter().map(|l| l.cpu).sum();
    out.metric(
        "analyze_records_per_cpu_s",
        records as f64 / cpu,
        "records/s",
    );
    for (cmd, leg) in cmds.iter().zip(&legs) {
        out.metric(
            &format!("analyze_records_per_s.{}", cmd.leg),
            leg.records as f64 / leg.wall,
            "records/s",
        );
    }
    out.latency("op", "pass", &pass_ms);
    out.latency("invocation", "analyze invocation", &invocation_ms);
    out.metric("peak_rss_mb", out.peak_rss_mb, "MB");
    Ok(())
}

fn spec_suite(ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let dir = ctx.dir("inputs")?;
    let suite = repeat_setup(
        &mut out,
        |_| inputs::spec_suite(&dir, ctx.seed),
        |suite| {
            suite
                .iter()
                .map(|(f, refs)| Ok((file_print(f)?, refs.clone())))
                .collect::<io::Result<Vec<_>>>()
        },
        drop,
    )?;
    let jobs = ctx.jobs.to_string();
    let cmds = [
        Cmd {
            leg: "rename_all",
            args: vec!["--rename", "all"],
            reference: 0,
        },
        Cmd {
            leg: "rename_none",
            args: vec!["--rename", "none"],
            reference: 1,
        },
        Cmd {
            leg: "rename_all_jobsN",
            args: vec!["--rename", "all", "--jobs", &jobs],
            reference: 0,
        },
    ];
    let traces: Vec<_> = suite
        .iter()
        .map(|(f, [all, none])| (f, vec![all.as_str(), none.as_str()]))
        .collect();
    cli_passes(ctx, &mut out, &traces, &cmds)?;
    Ok(out)
}

/// What identifies a generated trace file: records, size and CRC32. The
/// file is flushed to disk first, so one set-up's writeback never overlaps
/// the next set-up or the measured phase.
fn file_print(file: &TraceFile) -> io::Result<(u64, u64, u32)> {
    fs::File::open(&file.path)?.sync_all()?;
    Ok((file.records, file.bytes, inputs::digest(&file.path)?))
}

fn memwalk_jobs(ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let dir = ctx.dir("inputs")?;
    let (file, reference) = repeat_setup(
        &mut out,
        |_| inputs::memwalk(&dir, ctx.seed),
        |(f, r)| Ok((file_print(f)?, r.clone())),
        drop,
    )?;
    let jobs = ctx.jobs.to_string();
    let cmds = [
        Cmd {
            leg: "jobs1",
            args: vec!["--rename", "none", "--jobs", "1"],
            reference: 0,
        },
        Cmd {
            leg: "jobsN",
            args: vec!["--rename", "none", "--jobs", &jobs],
            reference: 0,
        },
    ];
    cli_passes(ctx, &mut out, &[(&file, vec![reference.as_str()])], &cmds)?;
    Ok(out)
}

/// The `paragraph sweep` command line of the Figure 8 grid.
pub fn sweep_cmd(ctx: &Ctx, out_dir: &Path) -> Command {
    let windows: Vec<String> = inputs::FIG8_WINDOWS.iter().map(usize::to_string).collect();
    let mut cmd = Command::new(&ctx.paragraph);
    cmd.args(["sweep", "--workloads", "all", "--windows"])
        .arg(windows.join(","))
        .arg("--jobs")
        .arg(ctx.jobs.to_string())
        .arg("--seed")
        .arg(inputs::fig8_seed(ctx.seed).to_string())
        .arg("--out")
        .arg(out_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

/// Checks every cell of a finished sweep in `dir` (status, record count
/// and report artifact) and returns how many match their references.
fn check_sweep(dir: &Path, refs: &[inputs::CellRef]) -> io::Result<u64> {
    let text = fs::read_to_string(dir.join("sweep.json"))?;
    let manifest = parse_json(&text).map_err(io::Error::other)?;
    let mut good = 0;
    if let Some(JsonValue::Arr(cells)) = manifest.get("cell_results") {
        for (cell, r) in cells.iter().zip(refs) {
            let stem = format!(
                "{}@{}",
                cell.get("workload")
                    .and_then(JsonValue::as_str)
                    .unwrap_or(""),
                cell.get("config").and_then(JsonValue::as_str).unwrap_or("")
            );
            let ok = stem == r.stem
                && cell.get("status").and_then(JsonValue::as_str) == Some("ok")
                && cell.get("records").and_then(JsonValue::as_f64) == Some(r.records as f64)
                && fs::read_to_string(dir.join(format!("{stem}.report.json")))
                    .is_ok_and(|j| j == r.json);
            good += u64::from(ok);
        }
    }
    Ok(good)
}

fn fig8_sweep(ctx: &Ctx) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let refs = repeat_setup(
        &mut out,
        |_| inputs::fig8_refs(ctx.seed, ctx.jobs),
        |refs| {
            Ok(refs
                .iter()
                .map(|r| (r.records, r.json.clone()))
                .collect::<Vec<_>>())
        },
        drop,
    )?;
    let cells = refs.len() as u64;
    let records_per_sweep: u64 = refs.iter().map(|r| r.records).sum();
    let dir = ctx.dir("sweep")?;
    let mut lat_ms = Vec::new();
    let (mut wall, mut cpu) = (0.0, 0.0);
    let started = Instant::now();
    while lat_ms.is_empty() || started.elapsed() < ctx.run_for() {
        let _ = fs::remove_dir_all(&dir);
        let exit = sys::run(&mut sweep_cmd(ctx, &dir))?;
        lat_ms.push(exit.wall.as_secs_f64() * 1e3);
        wall += exit.wall.as_secs_f64();
        cpu += exit.cpu.as_secs_f64();
        out.peak_rss_mb = out.peak_rss_mb.max(exit.peak_rss_mb);
        let good = if exit.ok() {
            check_sweep(&dir, &refs).unwrap_or(0)
        } else {
            0
        };
        for i in 0..cells {
            out.op(i < good, || {
                format!(
                    "sweep exit {:?}: {} of {cells} cells match",
                    exit.code, good
                )
            });
        }
    }
    let _ = fs::remove_dir_all(&dir);
    let sweeps = lat_ms.len() as f64;
    out.metric(
        "analyze_records_per_s",
        records_per_sweep as f64 * sweeps / wall,
        "records/s",
    );
    out.metric("ops_per_s", cells as f64 * sweeps / wall, "ops/s");
    out.metric(
        "analyze_records_per_cpu_s",
        records_per_sweep as f64 * sweeps / cpu,
        "records/s",
    );
    out.metric("sweep_cells_per_s", cells as f64 * sweeps / wall, "cells/s");
    out.latency("op", "sweep", &lat_ms);
    out.metric("peak_rss_mb", out.peak_rss_mb, "MB");
    Ok(out)
}

/// Analysis configurations the daemon is asked for:
/// (`rename`, `window`), each in both `json` and `text` format.
pub const SERVE_CONFIGS: [(bool, Option<usize>); 4] = [
    (true, None),
    (false, None),
    (true, Some(128)),
    (false, Some(128)),
];

fn serve_query(rename_all: bool, window: Option<usize>) -> String {
    let mut q = format!("rename={}", if rename_all { "all" } else { "none" });
    if let Some(w) = window {
        q.push_str(&format!("&window={w}"));
    }
    q
}

/// A pool trace with its CLI references per [`SERVE_CONFIGS`] entry:
/// (`--json` artifact, stdout).
pub struct PoolTrace {
    pub file: TraceFile,
    pub bytes: Vec<u8>,
    pub refs: Vec<(String, String)>,
    pub id: String,
}

/// A running `paragraph serve`, stopped (and reaped) on drop.
pub struct Daemon {
    child: Option<Child>,
    started: Instant,
    /// `HOST:PORT`.
    pub addr: String,
}

impl Daemon {
    /// Starts the daemon with `nproc` workers and one live session, and
    /// waits for its ready file.
    pub fn start(ctx: &Ctx, dir: &Path) -> io::Result<Daemon> {
        let spool = dir.join("spool");
        let ready = dir.join("ready.txt");
        let _ = fs::remove_dir_all(&spool);
        let _ = fs::remove_file(&ready);
        let log = fs::File::create(dir.join("serve.log"))?;
        let started = Instant::now();
        let child = Command::new(&ctx.paragraph)
            .args(["serve", "--addr", "127.0.0.1:0", "--max-live-sessions", "1"])
            .arg("--workers")
            .arg(ctx.jobs.to_string())
            .arg("--spool")
            .arg(&spool)
            .arg("--ready-file")
            .arg(&ready)
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        let mut daemon = Daemon {
            child: Some(child),
            started,
            addr: String::new(),
        };
        while started.elapsed() < Duration::from_secs(60) {
            if let Ok(text) = fs::read_to_string(&ready) {
                if let Some(addr) = text.trim().strip_prefix("http://") {
                    daemon.addr = addr.to_owned();
                    return Ok(daemon);
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(io::Error::other("paragraph serve did not become ready"))
    }

    /// Drains the daemon through `POST /shutdown` and reaps it.
    pub fn shutdown(mut self) -> io::Result<sys::Exit> {
        let child = self
            .child
            .take()
            .ok_or_else(|| io::Error::other("daemon gone"))?;
        let _ = http::request(&self.addr, "POST", "/shutdown", b"");
        sys::reap(child, self.started)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = sys::reap(child, self.started);
        }
    }
}

/// The `serve-mixed` pool with its CLI references.
pub fn serve_pool(ctx: &Ctx, dir: &Path) -> io::Result<Vec<PoolTrace>> {
    let files = inputs::serve_pool(dir, ctx.seed)?;
    let json = dir.join("ref.json");
    let text = dir.join("ref.txt");
    let mut pool = Vec::new();
    for file in files {
        let mut refs = Vec::new();
        for (rename_all, window) in SERVE_CONFIGS {
            let mut args = vec!["--rename", if rename_all { "all" } else { "none" }];
            let w = window.map(|w| w.to_string());
            if let Some(w) = &w {
                args.extend(["--window", w]);
            }
            let mut cmd = analyze_cmd(ctx, &file.path, &args, &json);
            cmd.stdout(fs::File::create(&text)?);
            let exit = sys::run(&mut cmd)?;
            if !exit.ok() {
                return Err(io::Error::other(format!(
                    "reference analyze of {} failed",
                    file.label
                )));
            }
            refs.push((fs::read_to_string(&json)?, fs::read_to_string(&text)?));
        }
        let bytes = fs::read(&file.path)?;
        pool.push(PoolTrace {
            file,
            bytes,
            refs,
            id: String::new(),
        });
    }
    Ok(pool)
}

/// Set-up of `serve-mixed`: the pool, its CLI references, a ready daemon,
/// and the pool uploaded.
fn serve_setup(ctx: &Ctx, dir: &Path, rep: usize) -> io::Result<(Daemon, Vec<PoolTrace>)> {
    let mut pool = serve_pool(ctx, dir)?;
    let daemon_dir = dir.join(format!("daemon-{rep}"));
    fs::create_dir_all(&daemon_dir)?;
    let daemon = Daemon::start(ctx, &daemon_dir)?;
    for t in &mut pool {
        let reply = http::request(&daemon.addr, "POST", "/traces", &t.bytes)?;
        t.id = http::text(&reply.body, "id")
            .filter(|_| reply.status == 200)
            .ok_or_else(|| io::Error::other(format!("upload of {} failed", t.file.label)))?;
    }
    Ok((daemon, pool))
}

/// Client-side record of one closed-loop connection.
#[derive(Default)]
pub struct ClientStats {
    pub analyze_ms: Vec<f64>,
    pub upload_ms: Vec<f64>,
    pub session_ms: Vec<f64>,
    pub ttfb_ms: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
    pub analyzed_records: u64,
    pub queue_depth_max: u64,
    pub first_failure: Option<String>,
}

impl ClientStats {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }
}

/// Uploads per connection and run. The daemon keeps every upload (decoded,
/// up to its cache budget), so an unbounded count would make its memory
/// grow with throughput; once a connection reaches the cap its upload
/// slots become analyses.
const UPLOADS_PER_CLIENT: usize = 16;

/// One connection of the closed loop: of every twelve requests, two are
/// session calls, one is an upload (up to [`UPLOADS_PER_CLIENT`]), the
/// rest are analyses rotating over the pool, the configurations and both
/// formats.
fn client_loop(
    addr: &str,
    pool: &[PoolTrace],
    t: usize,
    clients: usize,
    until: Instant,
    probe_health: bool,
) -> ClientStats {
    let mut st = ClientStats::default();
    let (mut analyses, mut uploads, mut sessions) = (0usize, 0usize, 0usize);
    let mut session: Option<(String, usize, u8)> = None;
    let mut step = 0usize;
    while Instant::now() < until {
        let result: io::Result<()> = (|| {
            match step % 12 {
                2 | 8 => match session.take() {
                    None => {
                        let p = (sessions * clients + t) % pool.len();
                        sessions += 1;
                        let path = format!("/sessions?trace={}&rename=all", pool[p].id);
                        let r = http::request(addr, "POST", &path, b"")?;
                        st.ops += 1;
                        match http::text(&r.body, "id").filter(|_| r.status == 200) {
                            Some(id) => session = Some((id, p, 0)),
                            None => st.fail(format!("session open: status {}", r.status)),
                        }
                    }
                    Some((id, p, stage)) if stage < 2 => {
                        let n = pool[p].file.records / 3;
                        let path = format!("/sessions/{id}/advance?records={n}");
                        let r = http::request(addr, "POST", &path, b"")?;
                        st.ops += 1;
                        st.session_ms.push(r.latency.as_secs_f64() * 1e3);
                        if r.status == 200 {
                            session = Some((id, p, stage + 1));
                        } else {
                            st.fail(format!("session advance: status {}", r.status));
                        }
                    }
                    Some((id, p, _)) => {
                        let path = format!("/sessions/{id}/finish?format=json");
                        let r = http::request(addr, "POST", &path, b"")?;
                        st.ops += 1;
                        st.session_ms.push(r.latency.as_secs_f64() * 1e3);
                        if r.status != 200 || r.body != pool[p].refs[0].0.as_bytes() {
                            st.fail(format!(
                                "session finish on {}: status {}",
                                pool[p].file.label, r.status
                            ));
                        }
                    }
                },
                5 if uploads < UPLOADS_PER_CLIENT => {
                    let p = (uploads * clients + t) % pool.len();
                    uploads += 1;
                    let r = http::request(addr, "POST", "/traces", &pool[p].bytes)?;
                    st.ops += 1;
                    st.upload_ms.push(r.latency.as_secs_f64() * 1e3);
                    if r.status != 200
                        || http::number(&r.body, "records") != Some(pool[p].file.records)
                    {
                        st.fail(format!(
                            "upload of {}: status {}",
                            pool[p].file.label, r.status
                        ));
                    }
                }
                _ => {
                    let combos = pool.len() * SERVE_CONFIGS.len() * 2;
                    let k = (analyses * clients + t) % combos;
                    analyses += 1;
                    let (p, rest) = (k % pool.len(), k / pool.len());
                    let (c, text) = (rest % SERVE_CONFIGS.len(), rest / SERVE_CONFIGS.len() == 1);
                    let (rename_all, window) = SERVE_CONFIGS[c];
                    let path = format!(
                        "/analyze?trace={}&{}&format={}",
                        pool[p].id,
                        serve_query(rename_all, window),
                        if text { "text" } else { "json" }
                    );
                    let r = http::request(addr, "POST", &path, b"")?;
                    st.ops += 1;
                    st.analyze_ms.push(r.latency.as_secs_f64() * 1e3);
                    st.ttfb_ms.push(r.ttfb.as_secs_f64() * 1e3);
                    let want = if text {
                        &pool[p].refs[c].1
                    } else {
                        &pool[p].refs[c].0
                    };
                    if r.status == 200 && r.body == want.as_bytes() {
                        st.analyzed_records += pool[p].file.records;
                    } else {
                        st.fail(format!(
                            "analyze {path}: status {}, body differs from the CLI",
                            r.status
                        ));
                    }
                }
            }
            if probe_health && step % 12 == 11 {
                let r = http::request(addr, "GET", "/healthz", b"")?;
                if let Some(depth) = http::number(&r.body, "queue_depth") {
                    st.queue_depth_max = st.queue_depth_max.max(depth);
                }
            }
            Ok(())
        })();
        if let Err(e) = result {
            st.ops += 1;
            st.fail(format!("request failed: {e}"));
        }
        step += 1;
    }
    st
}

/// The closed loop's merged result plus the daemon's own counters.
pub struct ServeRun {
    pub stats: ClientStats,
    pub healthz: Vec<u8>,
}

/// Runs `serve-mixed`; with `probe_health` the first connection also
/// samples `/healthz` (queue depth) once per twelve requests.
pub fn serve_mixed(ctx: &Ctx, probe_health: bool) -> io::Result<(Outcome, ServeRun)> {
    let mut out = Outcome::default();
    let dir = ctx.dir("serve")?;
    let (daemon, pool) = repeat_setup(
        &mut out,
        |rep| serve_setup(ctx, &dir, rep),
        |(_, pool)| {
            Ok(pool
                .iter()
                .map(|t| (t.bytes.clone(), t.refs.clone()))
                .collect::<Vec<_>>())
        },
        |(daemon, _)| drop(daemon.shutdown()),
    )?;
    let started = Instant::now();
    let until = started + ctx.run_for();
    let clients = ctx.jobs;
    let per_client: Vec<ClientStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let (addr, pool) = (&daemon.addr, &pool);
                scope.spawn(move || {
                    client_loop(addr, pool, t, clients, until, probe_health && t == 0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut st = ClientStats::default();
    for c in per_client {
        st.analyze_ms.extend(c.analyze_ms);
        st.upload_ms.extend(c.upload_ms);
        st.session_ms.extend(c.session_ms);
        st.ttfb_ms.extend(c.ttfb_ms);
        st.ops += c.ops;
        st.failed += c.failed;
        st.analyzed_records += c.analyzed_records;
        st.queue_depth_max = st.queue_depth_max.max(c.queue_depth_max);
        if st.first_failure.is_none() {
            st.first_failure = c.first_failure;
        }
    }
    let healthz = http::request(&daemon.addr, "GET", "/healthz", b"")
        .map(|r| r.body)
        .unwrap_or_default();
    let exit = daemon.shutdown()?;
    out.peak_rss_mb = exit.peak_rss_mb;
    out.check(
        exit.ok(),
        format!("paragraph serve drained with exit {:?}", exit.code),
    );
    out.attempted += st.ops;
    out.failed += st.failed;
    if let Some(f) = &st.first_failure {
        out.notes.push(f.clone());
    }
    out.metric(
        "analyze_records_per_s",
        st.analyzed_records as f64 / wall,
        "records/s",
    );
    out.metric("ops_per_s", st.ops as f64 / wall, "ops/s");
    out.metric(
        "analyze_records_per_cpu_s",
        st.analyzed_records as f64 / exit.cpu.as_secs_f64(),
        "records/s",
    );
    out.metric("serve_requests_per_s", st.ops as f64 / wall, "requests/s");
    out.latency("op", "POST /analyze", &st.analyze_ms);
    out.latency("serve_analyze", "POST /analyze", &st.analyze_ms);
    out.latency("serve_upload", "POST /traces", &st.upload_ms);
    out.latency("serve_session", "session advance/finish", &st.session_ms);
    out.metric("peak_rss_mb", out.peak_rss_mb, "MB");
    Ok((out, ServeRun { stats: st, healthz }))
}

/// Median wall time of `paragraph analyze` over a one-record trace.
pub fn cli_startup_ms(ctx: &Ctx, trace: &Path, reps: usize) -> io::Result<f64> {
    let json: PathBuf = trace.with_extension("json");
    let mut ms = Vec::new();
    for _ in 0..reps {
        let exit = sys::run(&mut analyze_cmd(ctx, trace, &[], &json))?;
        if !exit.ok() {
            return Err(io::Error::other(
                "paragraph analyze of a one-record trace failed",
            ));
        }
        ms.push(exit.wall.as_secs_f64() * 1e3);
    }
    Ok(median(&ms))
}

/// A latency distribution as `<prefix>_p50_ms` and `<prefix>_tail_ms`
/// (plus its level and sample count in the detail report).
impl Outcome {
    pub fn latency(&mut self, prefix: &str, what: &str, samples_ms: &[f64]) {
        let s = Summary::of(samples_ms);
        if prefix == "op" {
            self.metric("op_p50_ms", s.p50, "ms");
            self.metric("op_tail_ms", s.tail, "ms");
        } else {
            self.metric(&format!("{prefix}_p50_ms"), s.p50, "ms");
            self.metric(&format!("{prefix}_{}_ms", s.tail_name()), s.tail, "ms");
        }
        self.notes.push(format!(
            "{prefix} latency ({what}): n={} p50={:.3} ms {}={:.3} ms",
            s.n,
            s.p50,
            s.tail_name(),
            s.tail
        ));
    }
}
