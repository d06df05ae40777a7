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
use paragraph_core::branch::{BranchPolicy, PredictorKind};
use paragraph_core::telemetry;
use paragraph_core::{
    AnalysisConfig, AnalysisReport, LatencyModel, LiveWell, MemoryModel, RenameSet, SyscallPolicy,
    WindowSize,
};
use paragraph_trace::{Limits, SegmentMap};
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
            let text = req.param("format") == Some("text");
            let summary = state.store.upload(req.body.clone(), text)?;
            paragraph_core::counter!("serve.uploads", 1);
            Ok(Response::json(format!(
                "{{\"id\":\"{}\",\"records\":{},\"bytes\":{}}}",
                summary.id, summary.records, summary.bytes
            )))
        }
        ("POST", "/analyze") => analyze(state, req),
        ("POST", "/sessions") => {
            let trace_id = req
                .param("trace")
                .ok_or_else(|| ServeError::BadRequest("`trace` parameter is required".into()))?;
            let trace = state.store.resolve(trace_id)?;
            let config = config_from_query(req, trace.segments)?;
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
            let status = state.sessions.status(id, &state.store)?;
            Ok(Response::json(session_status_json(&status)))
        }
        ("POST", p) if p.starts_with("/sessions/") && p.ends_with("/advance") => {
            let id = &p["/sessions/".len()..p.len() - "/advance".len()];
            let count: u64 = match req.param("records") {
                Some(n) => n
                    .parse()
                    .map_err(|_| ServeError::BadRequest(format!("bad record count `{n}`")))?,
                None => 4096,
            };
            let deadline = request_deadline(state, req)?;
            let status = state.sessions.advance(id, &state.store, count, deadline)?;
            Ok(Response::json(session_status_json(&status)))
        }
        ("POST", p) if p.starts_with("/sessions/") && p.ends_with("/finish") => {
            let id = &p["/sessions/".len()..p.len() - "/finish".len()];
            let deadline = request_deadline(state, req)?;
            let report = state.sessions.finish(id, &state.store, deadline)?;
            report_response(&report, req)
        }
        ("DELETE", p) if p.starts_with("/sessions/") => {
            let id = &p["/sessions/".len()..];
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
    let trace_id = req
        .param("trace")
        .ok_or_else(|| ServeError::BadRequest("`trace` parameter is required".into()))?;
    let trace = state.store.resolve(trace_id)?;
    let config = config_from_query(req, trace.segments)?;
    let jobs = match req.param("jobs") {
        Some(n) => n
            .parse()
            .map_err(|_| ServeError::BadRequest(format!("bad job count `{n}`")))?,
        None => 1,
    };
    let report = if let Some(deadline) = request_deadline(state, req)? {
        // Deadline-governed path: feed in slices, checking the clock
        // between batches. Slice size affects only check granularity —
        // the output bytes are identical to the one-shot path.
        let started = Instant::now();
        let mut well = LiveWell::new(config);
        for slice in trace.records.chunks(4096) {
            let elapsed = started.elapsed();
            if elapsed > deadline {
                return Err(ServeError::Rejected {
                    scope: format!("analyze {trace_id}"),
                    limit: "deadline".into(),
                    what: "analysis time".into(),
                    actual: elapsed.as_millis() as u64,
                    cap: deadline.as_millis() as u64,
                    detail: format!(
                        "analysis deadline exceeded after {}ms (cap {}ms)",
                        elapsed.as_millis(),
                        deadline.as_millis()
                    ),
                });
            }
            well.process_slice(slice);
        }
        well.finish()
    } else {
        paragraph_core::analyze_parallel(&trace.records, &config, jobs.max(1))
    };
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
    let ms: u64 = raw
        .parse()
        .map_err(|_| ServeError::BadRequest(format!("bad deadline `{raw}`")))?;
    let requested = Duration::from_millis(ms);
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

/// Builds the analysis configuration from query parameters, mirroring the
/// CLI's flags one-for-one (same names, same value grammars) so a request
/// and a command line describe the same analysis:
/// `window`, `rename`, `optimistic`, `branch`, `units`,
/// `no-disambiguation`, `value-stats`, `unit-latency`, `live-well-cap`.
fn config_from_query(req: &Request, segments: SegmentMap) -> Result<AnalysisConfig, ServeError> {
    let bad = |msg: String| ServeError::BadRequest(msg);
    let mut config = AnalysisConfig::dataflow_limit().with_segments(segments);
    if let Some(mode) = req.param("rename") {
        config = config.with_renames(match mode {
            "none" => RenameSet::none(),
            "regs" => RenameSet::registers_only(),
            "regs-stack" => RenameSet::registers_and_stack(),
            "all" => RenameSet::all(),
            _ => return Err(bad(format!("unknown rename mode `{mode}`"))),
        });
    }
    if req.flag("optimistic") {
        config = config.with_syscall_policy(SyscallPolicy::Optimistic);
    }
    if let Some(w) = req.param("window") {
        let w: usize = w.parse().map_err(|_| bad(format!("bad window `{w}`")))?;
        config = config.with_window(WindowSize::bounded(w));
    }
    if let Some(mode) = req.param("branch") {
        config = config.with_branch_policy(parse_branch_policy(mode).map_err(bad)?);
    }
    if let Some(units) = req.param("units") {
        let units: usize = units
            .parse()
            .map_err(|_| bad(format!("bad unit count `{units}`")))?;
        config = config.with_issue_limit(units);
    }
    if req.flag("no-disambiguation") {
        config = config.with_memory_model(MemoryModel::NoDisambiguation);
    }
    if req.flag("value-stats") {
        config = config.with_value_stats(true);
    }
    if req.flag("unit-latency") {
        config = config.with_latency(LatencyModel::unit());
    }
    if let Some(cap) = req.param("live-well-cap") {
        let cap: usize = cap
            .parse()
            .map_err(|_| bad(format!("bad live well cap `{cap}`")))?;
        if cap == 0 {
            return Err(bad("live-well-cap requires a positive size".into()));
        }
        config = config.with_live_well_cap(cap);
    }
    Ok(config)
}

/// The CLI's `--branch` grammar, accepted verbatim as the `branch` query
/// parameter.
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
