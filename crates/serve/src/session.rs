//! Multi-tenant analysis sessions with checkpoint eviction.
//!
//! A session is a [`LiveWell`] analyzing one uploaded trace incrementally:
//! `POST /sessions` opens it, `POST /sessions/<id>/advance` feeds it a
//! bounded number of records, `POST /sessions/<id>/finish` consumes the
//! rest and returns the report. Between requests a session is pure state;
//! the store keeps at most `max_live` of them resident. When the budget
//! overflows, the least-recently-touched idle session is **evicted by
//! checkpoint**: its live well is written through the crash-consistent
//! artifact writer as a standard PGCP checkpoint, the in-memory analyzer
//! is dropped, and the next request that touches the session resumes from
//! the checkpoint — verifying the trace identity, exactly like the CLI's
//! `--resume` path. Graceful drain uses the same mechanism on every live
//! session, so a `SIGTERM` never loses analysis progress.
//!
//! Every session operation holds only that session's lock; the store map
//! lock is held just long enough to clone the `Arc`. Busy sessions are
//! skipped by eviction (`try_lock`), never blocked on.

use crate::error::ServeError;
use crate::store::{ResolvedTrace, TraceStore};
use paragraph_core::{AnalysisConfig, CheckpointError, LiveWell, Policy, Run, Stop, TraceIdentity};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where a session's analyzer currently lives.
enum Analyzer {
    /// Resident in memory.
    Live(Box<LiveWell>),
    /// Checkpointed to disk; resumed on next touch.
    Evicted,
}

/// One analysis session.
struct Session {
    trace_id: String,
    config: AnalysisConfig,
    identity: TraceIdentity,
    checkpoint: PathBuf,
    analyzer: Analyzer,
    records_processed: u64,
}

/// What a status/advance request reports.
#[derive(Debug, Clone)]
pub struct SessionStatus {
    /// The session id.
    pub id: String,
    /// The trace under analysis.
    pub trace_id: String,
    /// Records fed so far.
    pub records_processed: u64,
    /// Total records in the trace.
    pub records_total: u64,
    /// Critical path length so far.
    pub critical_path: u64,
    /// Available parallelism so far.
    pub parallelism: f64,
    /// Whether the analyzer is resident (`live`) or checkpointed.
    pub resident: bool,
}

struct SessionMap {
    sessions: HashMap<String, Arc<Mutex<Session>>>,
    /// LRU clock: monotonically increasing touch stamps.
    order: HashMap<String, u64>,
    next_id: u64,
    clock: u64,
    evicted: u64,
    resumed: u64,
}

/// The shared session store.
pub struct SessionStore {
    dir: PathBuf,
    max_live: usize,
    state: Mutex<SessionMap>,
}

fn checkpoint_err(scope: &str, e: CheckpointError) -> ServeError {
    match e {
        CheckpointError::LimitExceeded(v) => ServeError::rejected(scope, &v),
        other => ServeError::Internal(format!("{scope}: {other}")),
    }
}

impl Session {
    /// Makes the analyzer resident, resuming from the checkpoint when
    /// evicted. Returns whether a resume happened.
    fn ensure_live(&mut self, scope: &str) -> Result<bool, ServeError> {
        match self.analyzer {
            Analyzer::Live(_) => Ok(false),
            Analyzer::Evicted => {
                let file = std::fs::File::open(&self.checkpoint).map_err(|e| {
                    ServeError::Internal(format!(
                        "{scope}: checkpoint {}: {e}",
                        self.checkpoint.display()
                    ))
                })?;
                let well =
                    LiveWell::resume_from(std::io::BufReader::new(file), self.config.clone())
                        .map_err(|e| checkpoint_err(scope, e))?;
                well.verify_trace_identity(&self.identity)
                    .map_err(|e| checkpoint_err(scope, e))?;
                self.records_processed = well.records_processed();
                self.analyzer = Analyzer::Live(Box::new(well));
                Ok(true)
            }
        }
    }

    fn live(&mut self) -> Result<&mut LiveWell, ServeError> {
        match &mut self.analyzer {
            Analyzer::Live(well) => Ok(well),
            Analyzer::Evicted => Err(ServeError::Internal(
                "session analyzer absent after ensure_live".into(),
            )),
        }
    }

    /// Checkpoints the live analyzer crash-consistently and drops it.
    fn evict(&mut self, scope: &str) -> Result<(), ServeError> {
        let well = match &self.analyzer {
            Analyzer::Live(well) => well,
            Analyzer::Evicted => return Ok(()),
        };
        paragraph_core::artifact::write_atomic(&self.checkpoint, |out| {
            well.save_checkpoint(out)
                .map_err(|e| std::io::Error::other(e.to_string()))
        })
        .map_err(|e| {
            ServeError::Internal(format!(
                "{scope}: checkpoint {}: {e}",
                self.checkpoint.display()
            ))
        })?;
        self.analyzer = Analyzer::Evicted;
        Ok(())
    }
}

impl SessionStore {
    /// Opens the store; checkpoints land under `dir`.
    pub fn open(dir: PathBuf, max_live: usize) -> Result<SessionStore, ServeError> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| ServeError::Internal(format!("sessions {}: {e}", dir.display())))?;
        paragraph_core::artifact::clean_orphaned_tmp(&dir);
        Ok(SessionStore {
            dir,
            max_live: max_live.max(1),
            state: Mutex::new(SessionMap {
                sessions: HashMap::new(),
                order: HashMap::new(),
                next_id: 0,
                clock: 0,
                evicted: 0,
                resumed: 0,
            }),
        })
    }

    fn lock(&self) -> Result<std::sync::MutexGuard<'_, SessionMap>, ServeError> {
        self.state
            .lock()
            .map_err(|_| ServeError::Internal("session store lock poisoned".into()))
    }

    /// Opens a session over `trace` with `config`.
    pub fn open_session(
        &self,
        trace: &ResolvedTrace,
        config: AnalysisConfig,
    ) -> Result<String, ServeError> {
        let mut well = LiveWell::new(config.clone());
        well.set_trace_identity(Some(trace.identity));
        let mut state = self.lock()?;
        state.next_id += 1;
        state.clock += 1;
        let id = format!("s{}", state.next_id);
        let session = Session {
            trace_id: trace.id.clone(),
            config,
            identity: trace.identity,
            checkpoint: self.dir.join(format!("{id}.pgcp")),
            analyzer: Analyzer::Live(Box::new(well)),
            records_processed: 0,
        };
        let clock = state.clock;
        state
            .sessions
            .insert(id.clone(), Arc::new(Mutex::new(session)));
        state.order.insert(id.clone(), clock);
        drop(state);
        self.evict_over_budget(&id)?;
        Ok(id)
    }

    /// Clones the session handle and stamps its LRU touch.
    fn handle(&self, id: &str) -> Result<Arc<Mutex<Session>>, ServeError> {
        let mut state = self.lock()?;
        state.clock += 1;
        let clock = state.clock;
        let handle = state
            .sessions
            .get(id)
            .cloned()
            .ok_or_else(|| ServeError::NotFound(format!("no session `{id}`")))?;
        state.order.insert(id.to_owned(), clock);
        Ok(handle)
    }

    fn note_resumed(&self) {
        if let Ok(mut state) = self.state.lock() {
            state.resumed += 1;
        }
    }

    /// Feeds up to `count` more records into the session, resuming it
    /// first if evicted. `deadline` bounds this request's analysis time;
    /// overruns reject with the governor taxonomy (422) without losing
    /// the session.
    pub fn advance(
        &self,
        id: &str,
        store: &TraceStore,
        count: u64,
        deadline: Option<std::time::Duration>,
    ) -> Result<SessionStatus, ServeError> {
        let handle = self.handle(id)?;
        let started = Instant::now();
        let mut session = handle
            .lock()
            .map_err(|_| ServeError::Internal(format!("session `{id}` lock poisoned")))?;
        if session.ensure_live(id)? {
            self.note_resumed();
        }
        let trace = store.resolve(&session.trace_id)?;
        let total = trace.records.len() as u64;
        let policy = Policy {
            deadline: deadline.and_then(|cap| started.checked_add(cap)),
            take: session.records_processed.saturating_add(count),
            ..Policy::default()
        };
        let ran = Run::new(session.live()?, policy).slice(&trace.records);
        session.records_processed = session.live()?.records_processed();
        match (ran, deadline) {
            (Ok(_), _) => {}
            (Err(Stop::Deadline), Some(cap)) => {
                self.evict_over_budget(id)?;
                let note = "; progress is preserved";
                return Err(ServeError::deadline(
                    format!("session {id}"),
                    started.elapsed(),
                    cap,
                    note,
                ));
            }
            (Err(stop), _) => return Err(ServeError::Internal(format!("session {id}: {stop}"))),
        }
        let (_, _, critical_path, parallelism) = session.live()?.snapshot();
        let status = SessionStatus {
            id: id.to_owned(),
            trace_id: session.trace_id.clone(),
            records_processed: session.records_processed,
            records_total: total,
            critical_path,
            parallelism,
            resident: true,
        };
        drop(session);
        self.evict_over_budget(id)?;
        Ok(status)
    }

    /// Reports a session's progress without advancing it.
    pub fn status(&self, id: &str, store: &TraceStore) -> Result<SessionStatus, ServeError> {
        let handle = self.handle(id)?;
        let session = handle
            .lock()
            .map_err(|_| ServeError::Internal(format!("session `{id}` lock poisoned")))?;
        let total = store
            .resolve(&session.trace_id)
            .map(|t| t.records.len() as u64)
            .unwrap_or(0);
        let (resident, critical_path, parallelism) = match &session.analyzer {
            Analyzer::Live(well) => {
                let (_, _, cp, par) = well.snapshot();
                (true, cp, par)
            }
            Analyzer::Evicted => (false, 0, 0.0),
        };
        Ok(SessionStatus {
            id: id.to_owned(),
            trace_id: session.trace_id.clone(),
            records_processed: session.records_processed,
            records_total: total,
            critical_path,
            parallelism,
            resident,
        })
    }

    /// Feeds any remaining records, closes the session, and returns the
    /// finished report. The checkpoint file, if any, is removed.
    pub fn finish(
        &self,
        id: &str,
        store: &TraceStore,
        deadline: Option<std::time::Duration>,
    ) -> Result<paragraph_core::AnalysisReport, ServeError> {
        // Drive to completion through the same governed path.
        let status = self.advance(id, store, u64::MAX, deadline)?;
        debug_assert_eq!(status.records_processed, status.records_total);
        let handle = {
            let mut state = self.lock()?;
            state.order.remove(id);
            state
                .sessions
                .remove(id)
                .ok_or_else(|| ServeError::NotFound(format!("no session `{id}`")))?
        };
        let mut session = handle
            .lock()
            .map_err(|_| ServeError::Internal(format!("session `{id}` lock poisoned")))?;
        session.ensure_live(id)?;
        let well = match std::mem::replace(&mut session.analyzer, Analyzer::Evicted) {
            Analyzer::Live(well) => well,
            Analyzer::Evicted => {
                return Err(ServeError::Internal(
                    "session analyzer absent at finish".into(),
                ))
            }
        };
        let _ = std::fs::remove_file(&session.checkpoint);
        Ok(paragraph_core::run::report(*well))
    }

    /// Closes a session without finishing it, discarding its state.
    pub fn delete(&self, id: &str) -> Result<(), ServeError> {
        let mut state = self.lock()?;
        state.order.remove(id);
        let handle = state
            .sessions
            .remove(id)
            .ok_or_else(|| ServeError::NotFound(format!("no session `{id}`")))?;
        drop(state);
        if let Ok(session) = handle.lock() {
            let _ = std::fs::remove_file(&session.checkpoint);
        }
        Ok(())
    }

    /// Evicts least-recently-touched idle sessions until at most
    /// `max_live` analyzers are resident. `just_touched` is exempt. Busy
    /// sessions (lock held by a request) are skipped, not blocked on.
    fn evict_over_budget(&self, just_touched: &str) -> Result<(), ServeError> {
        loop {
            let victim = {
                let state = self.lock()?;
                let mut live: Vec<(String, u64, Arc<Mutex<Session>>)> = Vec::new();
                for (id, handle) in &state.sessions {
                    if id == just_touched {
                        continue;
                    }
                    if let Ok(session) = handle.try_lock() {
                        if matches!(session.analyzer, Analyzer::Live(_)) {
                            let stamp = state.order.get(id).copied().unwrap_or(0);
                            live.push((id.clone(), stamp, Arc::clone(handle)));
                        }
                    }
                }
                // Count the exempt session as resident if it is.
                let exempt_live = state
                    .sessions
                    .get(just_touched)
                    .and_then(|h| {
                        h.try_lock()
                            .ok()
                            .map(|s| matches!(s.analyzer, Analyzer::Live(_)))
                    })
                    .unwrap_or(false);
                let resident = live.len() + usize::from(exempt_live);
                if resident <= self.max_live {
                    return Ok(());
                }
                live.sort_by_key(|(_, stamp, _)| *stamp);
                match live.into_iter().next() {
                    Some((id, _, handle)) => (id, handle),
                    None => return Ok(()),
                }
            };
            let (victim_id, handle) = victim;
            match handle.try_lock() {
                Ok(mut session) => {
                    session.evict(&victim_id)?;
                    if let Ok(mut state) = self.state.lock() {
                        state.evicted += 1;
                    }
                }
                Err(_) => {
                    // Became busy between scans; try again next touch.
                    return Ok(());
                }
            };
        }
    }

    /// Checkpoints every live session — the drain path. Returns how many
    /// sessions were written. Failures are collected, not short-circuited:
    /// one bad disk sector must not stop the rest of the drain.
    pub fn checkpoint_all(&self) -> Result<usize, Vec<String>> {
        let handles: Vec<(String, Arc<Mutex<Session>>)> = match self.state.lock() {
            Ok(state) => state
                .sessions
                .iter()
                .map(|(id, h)| (id.clone(), Arc::clone(h)))
                .collect(),
            Err(_) => return Err(vec!["session store lock poisoned".into()]),
        };
        let mut written = 0;
        let mut failures = Vec::new();
        for (id, handle) in handles {
            match handle.lock() {
                Ok(mut session) => {
                    let was_live = matches!(session.analyzer, Analyzer::Live(_));
                    match session.evict(&id) {
                        Ok(()) if was_live => written += 1,
                        Ok(()) => {}
                        Err(e) => failures.push(format!("{id}: {e}")),
                    }
                }
                Err(_) => failures.push(format!("{id}: lock poisoned")),
            }
        }
        if failures.is_empty() {
            Ok(written)
        } else {
            Err(failures)
        }
    }

    /// Sessions currently open.
    pub fn count(&self) -> usize {
        self.state.lock().map_or(0, |s| s.sessions.len())
    }

    /// Sessions with a resident analyzer right now.
    pub fn live_count(&self) -> usize {
        self.state.lock().map_or(0, |state| {
            state
                .sessions
                .values()
                .filter_map(|h| h.try_lock().ok())
                .filter(|s| matches!(s.analyzer, Analyzer::Live(_)))
                .count()
        })
    }

    /// Checkpoint evictions, cumulatively.
    pub fn evicted(&self) -> u64 {
        self.state.lock().map_or(0, |s| s.evicted)
    }

    /// Checkpoint resumes, cumulatively.
    pub fn resumed(&self) -> u64 {
        self.state.lock().map_or(0, |s| s.resumed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragraph_trace::binary::TraceWriter;
    use paragraph_trace::{synthetic, Limits, SegmentMap};
    use std::path::Path;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("paragraph-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store_with_chain(dir: &Path, len: usize) -> (TraceStore, String) {
        let records = synthetic::chain(len);
        let mut out = Vec::new();
        let mut writer = TraceWriter::new(&mut out, SegmentMap::default()).expect("header writes");
        for record in &records {
            writer.write_record(record).expect("record writes");
        }
        writer.finish().expect("trailer writes");
        let store =
            TraceStore::open(dir.join("spool"), Limits::default(), u64::MAX).expect("store opens");
        let id = store.upload(out, false).expect("upload admits").id;
        (store, id)
    }

    fn config() -> AnalysisConfig {
        AnalysisConfig::dataflow_limit().with_segments(SegmentMap::default())
    }

    #[test]
    fn advance_then_finish_matches_one_shot_analysis() {
        let dir = scratch("incremental");
        let (store, trace_id) = store_with_chain(&dir, 100);
        let sessions = SessionStore::open(dir.join("sessions"), 4).expect("sessions open");
        let trace = store.resolve(&trace_id).expect("resolve");
        let id = sessions.open_session(&trace, config()).expect("opens");
        let status = sessions.advance(&id, &store, 30, None).expect("advances");
        assert_eq!(status.records_processed, 30);
        assert_eq!(status.records_total, 100);
        let report = sessions.finish(&id, &store, None).expect("finishes");
        // A 100-op dependence chain has a critical path of 100 levels.
        assert_eq!(report.total_records(), 100);
        let oneshot = paragraph_core::analyze_refs(trace.records.iter(), &config());
        assert_eq!(
            report.to_json(),
            oneshot.to_json(),
            "incremental == one-shot"
        );
        assert_eq!(sessions.count(), 0, "finish closes the session");
    }

    #[test]
    fn eviction_checkpoints_and_resume_preserves_the_answer() {
        let dir = scratch("evict");
        let (store, trace_id) = store_with_chain(&dir, 200);
        // Budget of one live session: opening a second evicts the first.
        let sessions = SessionStore::open(dir.join("sessions"), 1).expect("sessions open");
        let trace = store.resolve(&trace_id).expect("resolve");
        let a = sessions.open_session(&trace, config()).expect("a opens");
        sessions.advance(&a, &store, 80, None).expect("a advances");
        let b = sessions.open_session(&trace, config()).expect("b opens");
        assert!(sessions.evicted() >= 1, "opening b must evict a");
        assert!(
            dir.join("sessions").join(format!("{a}.pgcp")).exists(),
            "eviction writes a's checkpoint"
        );
        // No orphaned temp files from the checkpoint write.
        let tmps = std::fs::read_dir(dir.join("sessions"))
            .expect("dir")
            .filter(|e| {
                e.as_ref()
                    .expect("entry")
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .count();
        assert_eq!(tmps, 0);
        // Touching a again resumes it from the checkpoint and the final
        // answer is identical to an uninterrupted run.
        let report = sessions.finish(&a, &store, None).expect("a finishes");
        assert!(sessions.resumed() >= 1, "a must have resumed");
        let oneshot = paragraph_core::analyze_refs(trace.records.iter(), &config());
        assert_eq!(report.to_json(), oneshot.to_json());
        let _ = sessions.delete(&b);
    }

    #[test]
    fn deadline_overrun_rejects_but_preserves_progress() {
        let dir = scratch("deadline");
        let (store, trace_id) = store_with_chain(&dir, 50_000);
        let sessions = SessionStore::open(dir.join("sessions"), 4).expect("sessions open");
        let trace = store.resolve(&trace_id).expect("resolve");
        let id = sessions.open_session(&trace, config()).expect("opens");
        let err = sessions
            .advance(&id, &store, u64::MAX, Some(std::time::Duration::ZERO))
            .expect_err("a zero deadline must overrun");
        assert_eq!(err.status(), 422);
        assert!(err.body_json().contains("\"limit\":\"deadline\""));
        // The session survives and can still finish.
        let report = sessions.finish(&id, &store, None).expect("finishes");
        assert_eq!(report.total_records(), 50_000);
    }

    #[test]
    fn delete_discards_the_session_and_its_checkpoint() {
        let dir = scratch("delete");
        let (store, trace_id) = store_with_chain(&dir, 10);
        let sessions = SessionStore::open(dir.join("sessions"), 4).expect("sessions open");
        let trace = store.resolve(&trace_id).expect("resolve");
        let id = sessions.open_session(&trace, config()).expect("opens");
        sessions.delete(&id).expect("deletes");
        assert_eq!(sessions.count(), 0);
        assert_eq!(
            sessions.status(&id, &store).expect_err("gone").status(),
            404
        );
    }

    #[test]
    fn checkpoint_all_drains_every_live_session() {
        let dir = scratch("drain");
        let (store, trace_id) = store_with_chain(&dir, 40);
        let sessions = SessionStore::open(dir.join("sessions"), 8).expect("sessions open");
        let trace = store.resolve(&trace_id).expect("resolve");
        let a = sessions.open_session(&trace, config()).expect("a");
        let b = sessions.open_session(&trace, config()).expect("b");
        sessions.advance(&a, &store, 10, None).expect("a advances");
        let written = sessions.checkpoint_all().expect("drain checkpoints");
        assert_eq!(written, 2);
        assert_eq!(sessions.live_count(), 0);
        // Both resume cleanly afterwards.
        for id in [a, b] {
            let report = sessions.finish(&id, &store, None).expect("finishes");
            assert_eq!(report.total_records(), 40);
        }
    }
}
