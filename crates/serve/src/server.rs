//! The daemon: listeners, routing, admission, drain.
//!
//! One [`Server`] owns a TCP or unix-domain listener, a bounded worker
//! [`Pool`], a governed [`TraceStore`], and a checkpoint-evicting
//! [`SessionStore`]. The accept loop is non-blocking so it can interleave
//! three duties: accepting connections, polling the shutdown signal, and
//! deciding when a drain is complete.
//!
//! Robustness properties, by construction:
//!
//! * Every handler runs under `catch_unwind`; a panic answers 500, the
//!   worker is recycled, and the process keeps serving.
//! * Admission is bounded: a full queue answers 429 + Retry-After from
//!   the accept thread without buffering the connection.
//! * Work requests during a drain answer 503 + Retry-After while
//!   `/healthz` and `/metrics` stay observable.
//! * A completed drain checkpoints every live session through the
//!   crash-consistent artifact writer and returns a [`ServeSummary`]; the
//!   CLI turns that into exit 0.

use crate::error::ServeError;
use crate::fault::{injected_error, RequestFault, RequestFaultKind};
use crate::http::{
    ack_continue, check_body_cap, parse_request_head, read_body, write_response, HttpError,
    Request, Response,
};
use crate::pool::Pool;
use crate::session::{SessionStatus, SessionStore};
use crate::store::TraceStore;
use paragraph_core::telemetry;
use paragraph_core::{
    parse_num, AnalysisConfig, AnalysisReport, LiveWell, Policy, Run, Stop, SWITCHES,
};
use paragraph_trace::Limits;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the daemon is configured. `Default` is a loopback TCP listener on
/// an ephemeral port with strict admission limits.
pub struct ServeOptions {
    /// TCP bind address (e.g. `127.0.0.1:0`). Ignored when `uds` is set.
    pub addr: String,
    /// Unix-domain socket path instead of TCP.
    pub uds: Option<PathBuf>,
    /// Worker threads.
    pub workers: usize,
    /// Admission queue capacity; beyond it, 429.
    pub queue_capacity: usize,
    /// Most analyzers resident at once; beyond it, checkpoint eviction.
    pub max_live_sessions: usize,
    /// Spool directory for uploaded traces and session checkpoints.
    pub spool: PathBuf,
    /// Admission limits for uploads ([`Limits::strict`] by default —
    /// every upload is untrusted input).
    pub limits: Limits,
    /// Per-request analysis deadline.
    pub deadline: Option<Duration>,
    /// Largest accepted request body.
    pub max_body_bytes: u64,
    /// Byte budget for decoded records held in memory. A record costs 48
    /// bytes, so the default 512 MiB holds about 11M records.
    pub cache_budget_bytes: u64,
    /// Written once the listener is bound: one line with the bound
    /// address (`http://IP:PORT` or `unix:PATH`), crash-consistently, so
    /// a launcher can poll for readiness.
    pub ready_file: Option<PathBuf>,
    /// Request fault injection (defaults from `PARAGRAPH_FAULT_REQUEST`).
    pub fault: Option<RequestFault>,
    /// Polled by the accept loop; `true` triggers the same graceful
    /// drain as `POST /shutdown`. The CLI wires the process signal flag
    /// in here, so the flag stays server-local and in-process tests
    /// never drain each other.
    pub external_shutdown: Option<Box<dyn Fn() -> bool + Send>>,
    /// Retry-After seconds suggested on 429/503.
    pub retry_after_secs: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            uds: None,
            workers: 4,
            queue_capacity: 64,
            max_live_sessions: 8,
            spool: PathBuf::from("paragraph-serve"),
            limits: Limits::strict(),
            deadline: None,
            max_body_bytes: 256 * 1024 * 1024,
            cache_budget_bytes: 512 * 1024 * 1024,
            ready_file: None,
            fault: None,
            external_shutdown: None,
            retry_after_secs: 1,
        }
    }
}

/// What a completed run reports back to the operator.
#[derive(Debug, Default)]
pub struct ServeSummary {
    /// Requests accepted (including those answered with errors).
    pub requests: u64,
    /// Connections shed with 429.
    pub shed: u64,
    /// Workers recycled after panicking handlers.
    pub workers_recycled: u64,
    /// Sessions checkpointed by the final drain.
    pub sessions_checkpointed: usize,
    /// Drain-time checkpoint failures (empty on a clean drain).
    pub checkpoint_failures: Vec<String>,
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// One accepted connection, unified over TCP and unix sockets.
pub(crate) enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

impl Conn {
    fn set_timeouts(&self, timeout: Duration) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.set_read_timeout(Some(timeout));
                let _ = s.set_write_timeout(Some(timeout));
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                let _ = s.set_read_timeout(Some(timeout));
                let _ = s.set_write_timeout(Some(timeout));
            }
        }
    }
}

/// Shared server state, visible to every worker.
struct ServerState {
    store: TraceStore,
    sessions: SessionStore,
    pool: Pool,
    fault: Option<RequestFault>,
    /// Server-local drain flag — deliberately not process-global, so two
    /// in-process servers (tests) never drain each other.
    draining: AtomicBool,
    requests: AtomicU64,
    shed: AtomicU64,
    max_body_bytes: u64,
    deadline: Option<Duration>,
    retry_after_secs: u64,
    started: Instant,
}

/// The daemon. [`Server::bind`] claims the listener (so the bound port is
/// knowable before serving); [`Server::run`] serves until drained.
pub struct Server {
    listener: Listener,
    state: Arc<ServerState>,
    external_shutdown: Option<Box<dyn Fn() -> bool + Send>>,
    ready_file: Option<PathBuf>,
    uds_path: Option<PathBuf>,
}

impl Server {
    /// Binds the listener and opens the stores. Nothing is served yet.
    pub fn bind(options: ServeOptions) -> Result<Server, ServeError> {
        let ServeOptions {
            addr,
            uds,
            workers,
            queue_capacity,
            max_live_sessions,
            spool,
            limits,
            deadline,
            max_body_bytes,
            cache_budget_bytes,
            ready_file,
            fault,
            external_shutdown,
            retry_after_secs,
        } = options;
        let (listener, uds_path) = match uds {
            #[cfg(unix)]
            Some(path) => {
                // A stale socket file from a crashed predecessor would
                // make bind fail; remove it (connect-refused proves no
                // live daemon owns it — and a live one would be serving).
                let _ = std::fs::remove_file(&path);
                let listener = UnixListener::bind(&path)
                    .map_err(|e| ServeError::Internal(format!("bind {}: {e}", path.display())))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| ServeError::Internal(format!("nonblocking: {e}")))?;
                (Listener::Unix(listener), Some(path))
            }
            #[cfg(not(unix))]
            Some(path) => {
                return Err(ServeError::Internal(format!(
                    "unix sockets are not supported on this platform ({})",
                    path.display()
                )))
            }
            None => {
                let listener = TcpListener::bind(&addr)
                    .map_err(|e| ServeError::Internal(format!("bind {addr}: {e}")))?;
                listener
                    .set_nonblocking(true)
                    .map_err(|e| ServeError::Internal(format!("nonblocking: {e}")))?;
                (Listener::Tcp(listener), None)
            }
        };
        let store = TraceStore::open(spool.join("traces"), limits, cache_budget_bytes)?;
        let sessions = SessionStore::open(spool.join("sessions"), max_live_sessions)?;
        let pool = Pool::new(workers, queue_capacity);
        // /metrics serves the global registry's Prometheus snapshot; flip
        // it on so the serve counters below actually count.
        telemetry::global().enable();
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                store,
                sessions,
                pool,
                fault,
                draining: AtomicBool::new(false),
                requests: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                max_body_bytes,
                deadline,
                retry_after_secs,
                started: Instant::now(),
            }),
            external_shutdown,
            ready_file,
            uds_path,
        })
    }

    /// The bound TCP address (`None` for unix sockets).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix(_) => None,
        }
    }

    /// The one-line endpoint description written to the ready file.
    pub fn endpoint(&self) -> String {
        match (&self.uds_path, self.local_addr()) {
            (Some(path), _) => format!("unix:{}", path.display()),
            (None, Some(addr)) => format!("http://{addr}"),
            (None, None) => "http://unknown".into(),
        }
    }

    /// Serves until a drain completes. The drain is triggered by
    /// `POST /shutdown` or by the `external_shutdown` hook (the CLI wires
    /// `SIGTERM`/`SIGINT` there); it stops admitting work, lets in-flight
    /// requests finish, checkpoints every live session, and returns.
    pub fn run(self) -> Result<ServeSummary, ServeError> {
        let Server {
            listener,
            state,
            external_shutdown,
            ready_file,
            uds_path,
        } = self;
        if let Some(path) = &ready_file {
            let line = format!(
                "{}\n",
                match (&uds_path, &listener) {
                    (Some(p), _) => format!("unix:{}", p.display()),
                    (None, Listener::Tcp(l)) => match l.local_addr() {
                        Ok(addr) => format!("http://{addr}"),
                        Err(_) => "http://unknown".into(),
                    },
                    #[cfg(unix)]
                    (None, Listener::Unix(_)) => "http://unknown".into(),
                }
            );
            paragraph_core::artifact::write_atomic_bytes(path, line.as_bytes())
                .map_err(|e| ServeError::Internal(format!("ready file {}: {e}", path.display())))?;
        }

        loop {
            if !state.draining.load(Ordering::Acquire) {
                if let Some(hook) = &external_shutdown {
                    if hook() {
                        state.draining.store(true, Ordering::Release);
                    }
                }
            } else if state.pool.idle() {
                // Drained: nothing queued, nothing running. In-flight
                // requests all completed; checkpoint what remains.
                break;
            }

            let conn = match &listener {
                Listener::Tcp(l) => match l.accept() {
                    Ok((stream, _)) => Some(Conn::Tcp(stream)),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(_) => None,
                },
                #[cfg(unix)]
                Listener::Unix(l) => match l.accept() {
                    Ok((stream, _)) => Some(Conn::Unix(stream)),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                    Err(_) => None,
                },
            };
            let Some(conn) = conn else {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            };
            let _ = match &conn {
                Conn::Tcp(s) => s.set_nonblocking(false),
                #[cfg(unix)]
                Conn::Unix(s) => s.set_nonblocking(false),
            };
            conn.set_timeouts(Duration::from_secs(30));
            // The connection rides in a shared slot so a refused submit
            // can take it back and answer 429 instead of dropping it.
            let slot = Arc::new(std::sync::Mutex::new(Some(conn)));
            let worker_state = Arc::clone(&state);
            let worker_slot = Arc::clone(&slot);
            let submitted = state.pool.try_submit(move || {
                if let Some(conn) = worker_slot.lock().ok().and_then(|mut s| s.take()) {
                    serve_connection(conn, worker_state);
                }
            });
            if !submitted {
                // Shed on the accept thread: a canned 429 and close. The
                // write is bounded by the socket timeout set above.
                if let Some(mut conn) = slot.lock().ok().and_then(|mut s| s.take()) {
                    state.shed.fetch_add(1, Ordering::Relaxed);
                    paragraph_core::counter!("serve.shed", 1);
                    let err = ServeError::Busy {
                        retry_after_secs: state.retry_after_secs,
                    };
                    let _ = write_response(&mut conn, &Response::from(&err));
                }
            }
        }

        // Final drain: checkpoint every live session crash-consistently.
        let mut summary = ServeSummary {
            requests: state.requests.load(Ordering::Relaxed),
            shed: state.shed.load(Ordering::Relaxed),
            workers_recycled: state.pool.recycled(),
            ..ServeSummary::default()
        };
        match state.sessions.checkpoint_all() {
            Ok(written) => summary.sessions_checkpointed = written,
            Err(failures) => summary.checkpoint_failures = failures,
        }
        state.pool.shutdown();
        summary.workers_recycled = state.pool.recycled();
        if let Some(path) = &uds_path {
            let _ = std::fs::remove_file(path);
        }
        if let Some(path) = &ready_file {
            let _ = std::fs::remove_file(path);
        }
        Ok(summary)
    }
}

/// One connection, on a worker thread: parse, route under `catch_unwind`,
/// answer. A panic answers 500 first, then re-raises so the pool recycles
/// this worker.
fn serve_connection(conn: Conn, state: Arc<ServerState>) {
    let mut reader = BufReader::new(conn);
    let mut req = match parse_request_head(&mut reader) {
        Ok(req) => req,
        Err(HttpError::Io(_)) => return, // peer vanished; nothing to answer
        Err(HttpError::Protocol(e)) => {
            let _ = write_response(reader.get_mut(), &Response::from(&e));
            return;
        }
    };
    state.requests.fetch_add(1, Ordering::Relaxed);
    paragraph_core::counter!("serve.requests", 1);

    // Body admission happens before fault arming so a 413 is deterministic
    // regardless of injected faults.
    if let Err(e) = check_body_cap(&req, state.max_body_bytes) {
        let _ = write_response(reader.get_mut(), &Response::from(&e));
        return;
    }
    if ack_continue(&req, reader.get_mut()).is_err() {
        return;
    }
    if read_body(&mut req, &mut reader).is_err() {
        // Mid-upload disconnect: the body never arrived; there is nobody
        // to answer. The daemon just moves on.
        return;
    }

    let fault = state
        .fault
        .as_ref()
        .and_then(|f| f.arm(&req.method, &req.path));
    if fault == Some(RequestFaultKind::Disconnect) {
        // Injected server-side disconnect: drop without a response.
        return;
    }
    if fault == Some(RequestFaultKind::Stall) {
        std::thread::sleep(Duration::from_secs(1));
    }

    let outcome = catch_unwind(AssertUnwindSafe(|| handle_request(&state, &req, fault)));
    let response = match outcome {
        Ok(Ok(response)) => response,
        Ok(Err(e)) => {
            count_status(e.status());
            Response::from(&e)
        }
        Err(payload) => {
            // The handler panicked. Answer 500, then re-raise so the pool
            // retires this worker's (tainted) thread and spawns a fresh
            // one. The daemon itself never dies.
            count_status(500);
            paragraph_core::counter!("serve.panics", 1);
            let detail = panic_message(payload.as_ref());
            let e = ServeError::Internal(format!("handler panicked: {detail}"));
            let _ = write_response(reader.get_mut(), &Response::from(&e));
            resume_unwind(payload);
        }
    };
    count_status(response.status);
    let _ = write_response(reader.get_mut(), &response);
}

/// Best-effort panic payload rendering (mirrors the sweep supervisor's).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

fn count_status(status: u16) {
    match status / 100 {
        2 => paragraph_core::counter!("serve.responses_2xx", 1),
        4 => paragraph_core::counter!("serve.responses_4xx", 1),
        5 => paragraph_core::counter!("serve.responses_5xx", 1),
        _ => {}
    }
}

/// Routes one fully-read request. Pure: takes the request, returns the
/// response; all stream handling stays in [`serve_connection`].
fn handle_request(
    state: &ServerState,
    req: &Request,
    fault: Option<RequestFaultKind>,
) -> Result<Response, ServeError> {
    if let Some(kind) = fault {
        if kind == RequestFaultKind::Panic {
            panic!("injected request fault: {} {}", req.method, req.path);
        }
        if let Some(err) = injected_error(kind, &req.path) {
            return Err(err);
        }
    }

    let draining = state.draining.load(Ordering::Acquire);
    let method = req.method.as_str();
    let path = req.path.as_str();

    match (method, path) {
        ("GET", "/healthz") => return Ok(healthz(state, draining)),
        ("GET", "/metrics") => {
            return Ok(Response::text(
                telemetry::global().snapshot().to_prometheus(),
            ))
        }
        ("POST", "/shutdown") => {
            state.draining.store(true, Ordering::Release);
            return Ok(Response::json("{\"status\":\"draining\"}"));
        }
        ("GET", "/healthz/") | ("GET", "/metrics/") => {
            return Err(ServeError::NotFound(format!("no route `{path}`")))
        }
        _ => {}
    }

    // Everything below is work; during a drain it is refused while the
    // observability routes above keep answering.
    if draining {
        return Err(ServeError::Draining {
            retry_after_secs: state.retry_after_secs,
        });
    }

    match (method, path) {
        ("POST", "/traces") => {
            read_query(req, &["format"], false)?;
            let text = match req.param("format") {
                None | Some("binary") => false,
                Some("text") => true,
                Some(other) => {
                    return Err(ServeError::BadRequest(format!(
                        "unknown upload format `{other}` (binary|text)"
                    )))
                }
            };
            let summary = state.store.upload(req.body.clone(), text)?;
            paragraph_core::counter!("serve.uploads", 1);
            Ok(Response::json(format!(
                "{{\"id\":\"{}\",\"records\":{},\"bytes\":{}}}",
                summary.id, summary.records, summary.bytes
            )))
        }
        ("POST", "/analyze") => analyze(state, req),
        ("POST", "/sessions") => {
            let config = read_query(req, &["trace"], true)?;
            let trace_id = req
                .param("trace")
                .ok_or_else(|| ServeError::BadRequest("`trace` parameter is required".into()))?;
            let trace = state.store.resolve(trace_id)?;
            let config = config.with_segments(trace.segments);
            let id = state.sessions.open_session(&trace, config)?;
            Ok(Response::json(format!(
                "{{\"id\":\"{id}\",\"trace\":\"{trace_id}\"}}"
            )))
        }
        ("GET", p) if p.starts_with("/sessions/") => {
            let id = &p["/sessions/".len()..];
            if id.is_empty() || id.contains('/') {
                return Err(ServeError::NotFound(format!("no route `{p}`")));
            }
            read_query(req, &[], false)?;
            let status = state.sessions.status(id, &state.store)?;
            Ok(Response::json(session_status_json(&status)))
        }
        ("POST", p) if p.starts_with("/sessions/") && p.ends_with("/advance") => {
            let id = &p["/sessions/".len()..p.len() - "/advance".len()];
            read_query(req, &["records", "deadline-ms"], false)?;
            let count = match req.param("records") {
                Some(n) => number("records", n)?,
                None => 4096,
            };
            let deadline = request_deadline(state, req)?;
            let status = state.sessions.advance(id, &state.store, count, deadline)?;
            Ok(Response::json(session_status_json(&status)))
        }
        ("POST", p) if p.starts_with("/sessions/") && p.ends_with("/finish") => {
            let id = &p["/sessions/".len()..p.len() - "/finish".len()];
            read_query(req, &["deadline-ms", "format"], false)?;
            let deadline = request_deadline(state, req)?;
            let report = state.sessions.finish(id, &state.store, deadline)?;
            report_response(&report, req)
        }
        ("DELETE", p) if p.starts_with("/sessions/") => {
            let id = &p["/sessions/".len()..];
            read_query(req, &[], false)?;
            state.sessions.delete(id)?;
            Ok(Response::json("{\"status\":\"deleted\"}"))
        }
        // Known routes under the wrong method answer 405, not 404, so a
        // client typo is distinguishable from a missing resource.
        (_, "/traces" | "/analyze" | "/sessions" | "/shutdown" | "/healthz" | "/metrics") => Err(
            ServeError::MethodNotAllowed(format!("`{path}` does not accept {method}")),
        ),
        (_, p) if p.starts_with("/sessions/") => Err(ServeError::MethodNotAllowed(format!(
            "`{path}` does not accept {method}"
        ))),
        _ => Err(ServeError::NotFound(format!("no route `{path}`"))),
    }
}

/// `POST /analyze?trace=tN[&config...][&jobs=N][&format=json|text]` — one
/// complete analysis, byte-identical to the CLI's output for the same
/// configuration (JSON bodies match `--json` artifacts, text bodies match
/// `analyze`'s stdout; `jobs` never changes the bytes, by the parallel
/// engine's determinism contract).
fn analyze(state: &ServerState, req: &Request) -> Result<Response, ServeError> {
    let config = read_query(req, &["trace", "jobs", "deadline-ms", "format"], true)?;
    let trace_id = req
        .param("trace")
        .ok_or_else(|| ServeError::BadRequest("`trace` parameter is required".into()))?;
    let trace = state.store.resolve(trace_id)?;
    let config = config.with_segments(trace.segments);
    let jobs = match req.param("jobs") {
        Some(n) => number("jobs", n)?,
        None => 1,
    };
    // The deadline is checked between batches, on the primary and on
    // every segment worker; batching never changes the bytes.
    let deadline = request_deadline(state, req)?;
    let started = Instant::now();
    let mut well = LiveWell::new(config);
    let policy = Policy {
        deadline: deadline.and_then(|cap| started.checked_add(cap)),
        jobs: jobs.max(1),
        ..Policy::default()
    };
    match (Run::new(&mut well, policy).slice(&trace.records), deadline) {
        (Ok(_), _) => {}
        (Err(Stop::Deadline), Some(cap)) => {
            let scope = format!("analyze {trace_id}");
            return Err(ServeError::deadline(scope, started.elapsed(), cap, ""));
        }
        (Err(stop), _) => return Err(ServeError::Internal(format!("analyze {trace_id}: {stop}"))),
    }
    let report = paragraph_core::run::report(well);
    paragraph_core::counter!("serve.analyses", 1);
    report_response(&report, req)
}

/// The analysis deadline for one request: `deadline-ms` in the query
/// overrides — and may only *tighten* — the server-wide deadline, so a
/// tenant can bound its own wait without loosening the operator's policy.
fn request_deadline(state: &ServerState, req: &Request) -> Result<Option<Duration>, ServeError> {
    let Some(raw) = req.param("deadline-ms") else {
        return Ok(state.deadline);
    };
    let requested = Duration::from_millis(number("deadline-ms", raw)?);
    Ok(Some(match state.deadline {
        Some(server) => server.min(requested),
        None => requested,
    }))
}

/// Renders a finished report in the requested format.
fn report_response(report: &AnalysisReport, req: &Request) -> Result<Response, ServeError> {
    match req.param("format") {
        None | Some("json") => Ok(Response::json(report.to_json())),
        Some("text") => Ok(Response::text(crate::render_report_text(report))),
        Some(other) => Err(ServeError::BadRequest(format!(
            "unknown format `{other}` (json|text)"
        ))),
    }
}

fn session_status_json(status: &SessionStatus) -> String {
    format!(
        "{{\"id\":\"{}\",\"trace\":\"{}\",\"records_processed\":{},\
         \"records_total\":{},\"critical_path\":{},\"parallelism\":{:.4},\
         \"resident\":{}}}",
        status.id,
        status.trace_id,
        status.records_processed,
        status.records_total,
        status.critical_path,
        status.parallelism,
        status.resident
    )
}

fn healthz(state: &ServerState, draining: bool) -> Response {
    let queue_depth = state.pool.queue_depth();
    paragraph_core::gauge!("serve.queue_depth", queue_depth as i64);
    Response::json(format!(
        "{{\"status\":\"{}\",\"draining\":{draining},\
         \"workers\":{},\"queue_depth\":{queue_depth},\"queue_capacity\":{},\
         \"active\":{},\"workers_recycled\":{},\
         \"traces\":{},\"cache_resident_bytes\":{},\"cache_evictions\":{},\
         \"sessions\":{},\"sessions_live\":{},\"sessions_evicted\":{},\
         \"sessions_resumed\":{},\"requests\":{},\"shed\":{},\"uptime_ms\":{}}}",
        if draining { "draining" } else { "ok" },
        state.pool.workers(),
        state.pool.capacity(),
        state.pool.active(),
        state.pool.recycled(),
        state.store.count(),
        state.store.resident_bytes(),
        state.store.evictions(),
        state.sessions.count(),
        state.sessions.live_count(),
        state.sessions.evicted(),
        state.sessions.resumed(),
        state.requests.load(Ordering::Relaxed),
        state.shed.load(Ordering::Relaxed),
        state.started.elapsed().as_millis()
    ))
}

/// Reads a route's query: each parameter must be one of `params` or,
/// where the route takes them (`switches`), an analysis switch; anything
/// else answers 400. Returns the configuration the switches describe, set
/// in order through the CLI's grammar ([`AnalysisConfig::with_switch`]), so
/// a request and a command line describe the same analysis.
fn read_query(
    req: &Request,
    params: &[&str],
    switches: bool,
) -> Result<AnalysisConfig, ServeError> {
    let bad = ServeError::BadRequest;
    let mut config = AnalysisConfig::dataflow_limit();
    for (name, value) in &req.query {
        let name = name.as_str();
        if params.contains(&name) {
            continue;
        }
        if !switches || !SWITCHES.contains(&name) {
            return Err(bad(format!(
                "`{}` does not read the parameter `{name}`",
                req.path
            )));
        }
        config = config
            .with_switch(name, value)
            .map_err(|e| bad(format!("`{name}`: {e}")))?;
    }
    Ok(config)
}

/// A numeric query parameter, in the CLI's number grammar.
fn number<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, ServeError> {
    parse_num(value).map_err(|e| ServeError::BadRequest(format!("`{name}`: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_request_head;
    use paragraph_core::branch::{BranchPolicy, PredictorKind};
    use paragraph_core::{MemoryModel, RenameSet, WindowSize};

    #[test]
    fn cli_flags_and_query_build_equal_configs() {
        let head = "POST /analyze?trace=t1&branch=gshare:10&window=1_000&rename=regs-stack\
                    &units=4&no-disambiguation HTTP/1.1\r\n\r\n";
        let req = parse_request_head(&mut head.as_bytes()).expect("well-formed request");
        let served = read_query(&req, &["trace"], true).expect("valid switches");
        // The same switches spelled as CLI flags: a value follows each one
        // that takes a value.
        let argv = "--branch gshare:10 --window 1_000 --rename regs-stack --units 4 \
                    --no-disambiguation";
        let mut argv = argv.split_whitespace().peekable();
        let mut flagged = AnalysisConfig::dataflow_limit();
        while let Some(flag) = argv.next() {
            let name = flag.trim_start_matches("--");
            assert!(SWITCHES.contains(&name), "{name}");
            let value = argv.next_if(|v| !v.starts_with("--")).unwrap_or_default();
            flagged = flagged.with_switch(name, value).expect("valid switch");
        }
        let expected = AnalysisConfig::dataflow_limit()
            .with_branch_policy(BranchPolicy::Predict(PredictorKind::Gshare {
                index_bits: 10,
            }))
            .with_window(WindowSize::bounded(1000))
            .with_renames(RenameSet::registers_and_stack())
            .with_issue_limit(4)
            .with_memory_model(MemoryModel::NoDisambiguation);
        assert_eq!(served, expected);
        assert_eq!(flagged, expected);
    }
}
