//! Decode-once trace arena for multi-configuration sweeps.
//!
//! The paper's headline figures re-analyze the *same* execution trace under
//! many machine models. Generating (or decoding) a workload's trace is a
//! serial, allocation-heavy stage; analyzing it under one configuration is
//! an independent, read-only pass. The arena separates the two: each
//! workload's trace is materialized exactly once, interned as the VM
//! produces it ([`InternedTrace`]: 24-byte records over one dense slot
//! space, so no full-width record buffer is ever held), into a shared
//! immutable allocation, and any number of concurrent analyzer passes walk
//! that one allocation.
//!
//! Residency is structural. The arena is built from the sweep's pending
//! cells, so it knows how many cells will ask for each workload. It holds
//! a workload's trace exactly while one of those cells is not final, and
//! drops its reference when [`TraceArena::cell_done`] reports the last
//! one. A retried cell is not final, so its trace stays resident and no
//! trace is ever generated twice. Passes still holding an [`ArenaTrace`]
//! keep the allocation alive until they finish.

use crate::supervisor::CellError;
use crate::Study;
use paragraph_trace::InternedTrace;
use paragraph_workloads::WorkloadId;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// One workload's resident trace, with the segment map it was generated
/// under. Cloning is cheap: clones share the same allocation.
pub type ArenaTrace = Arc<InternedTrace>;

/// Arena traffic counters, reported in sweep manifests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Requests served from a resident trace (including waits on a decode
    /// already in flight — the decode still happened once).
    pub hits: u64,
    /// Requests that had to generate the trace.
    pub misses: u64,
    /// High-water mark of resident bytes.
    pub peak_resident_bytes: u64,
}

enum Slot {
    /// A thread is generating this trace; waiters sleep on the condvar.
    Loading,
    Ready(ArenaTrace),
}

struct ArenaState {
    slots: HashMap<WorkloadId, Slot>,
    /// Cells per workload whose result is not final yet.
    pending: HashMap<WorkloadId, usize>,
    resident_bytes: usize,
    stats: ArenaStats,
    /// Threads asleep on a loading slot, waiting for another thread's load.
    parked: usize,
}

/// Shared, thread-safe trace store keyed by workload. One arena serves one
/// sweep of one [`Study`] (its fuel/scale settings determine the traces),
/// which callers pass to [`TraceArena::get`].
pub struct TraceArena {
    state: Mutex<ArenaState>,
    ready: Condvar,
}

impl TraceArena {
    /// Creates an arena for a sweep whose pending cells analyze `cells`:
    /// one entry per cell, so a workload listed `n` times keeps its trace
    /// until [`TraceArena::cell_done`] has reported it `n` times. A
    /// workload that is not listed is still served, and its trace stays
    /// until the arena drops.
    pub fn new(cells: impl IntoIterator<Item = WorkloadId>) -> TraceArena {
        let mut pending = HashMap::new();
        for id in cells {
            *pending.entry(id).or_insert(0) += 1;
        }
        TraceArena {
            state: Mutex::new(ArenaState {
                slots: HashMap::new(),
                pending,
                resident_bytes: 0,
                stats: ArenaStats::default(),
                parked: 0,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ArenaState> {
        // A poisoned lock means another worker panicked mid-update; the
        // state itself is only ever mutated to a consistent shape under
        // the lock, so continuing is safe (the panic is contained at the
        // scheduler's catch_unwind boundary and supervised).
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns `id`'s trace, generating it exactly once no matter how many
    /// threads ask concurrently: the first requester claims a loading slot
    /// and generates outside the lock; the rest sleep until it is ready.
    ///
    /// # Errors
    ///
    /// Propagates [`Study::collect_interned`]'s [`CellError`] (a VM fault). A failed
    /// or panicking load releases its claim, so waiting threads wake and
    /// retry the generation themselves rather than deadlock.
    pub fn get(&self, study: &Study, id: WorkloadId) -> Result<ArenaTrace, CellError> {
        self.get_with(id, || study.collect_interned(id))
    }

    /// [`TraceArena::get`] with an explicit loader, so embedders (and the
    /// fault-recovery tests) control how the trace is produced. The loader
    /// runs outside the arena lock; only the thread holding the loading
    /// claim invokes it.
    ///
    /// # Errors
    ///
    /// Propagates the loader's error; the loading claim is released first,
    /// so a waiting thread retries with its own loader.
    pub fn get_with(
        &self,
        id: WorkloadId,
        loader: impl FnOnce() -> Result<InternedTrace, CellError>,
    ) -> Result<ArenaTrace, CellError> {
        let mut state = self.lock();
        loop {
            match state.slots.get(&id) {
                Some(Slot::Ready(trace)) => {
                    let trace = trace.clone();
                    state.stats.hits += 1;
                    return Ok(trace);
                }
                Some(Slot::Loading) => {
                    state.parked += 1;
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                    state.parked -= 1;
                }
                None => {
                    state.slots.insert(id, Slot::Loading);
                    state.stats.misses += 1;
                    break;
                }
            }
        }
        drop(state);

        // Generate outside the lock; the guard clears the loading claim if
        // the loader fails or panics, so waiters wake and retry.
        let mut guard = LoadGuard {
            arena: self,
            id,
            armed: true,
        };
        let _span = paragraph_core::span!("arena.load");
        let trace = Arc::new(loader()?);
        self.install(id, Arc::clone(&trace));
        guard.armed = false;
        Ok(trace)
    }

    fn install(&self, id: WorkloadId, trace: ArenaTrace) {
        let bytes = trace.resident_bytes();
        let mut state = self.lock();
        state.slots.insert(id, Slot::Ready(trace));
        state.resident_bytes = state.resident_bytes.saturating_add(bytes);
        let peak = state.resident_bytes as u64;
        state.stats.peak_resident_bytes = state.stats.peak_resident_bytes.max(peak);
        drop(state);
        self.ready.notify_all();
    }

    /// Reports one of `id`'s cells final: it succeeded or was quarantined,
    /// and will not ask for the trace again. After the last of them the
    /// arena drops its reference to the trace.
    pub fn cell_done(&self, id: WorkloadId) {
        let mut state = self.lock();
        let Some(left) = state.pending.get_mut(&id) else {
            return;
        };
        *left -= 1;
        if *left > 0 {
            return;
        }
        state.pending.remove(&id);
        if let Some(Slot::Ready(trace)) = state.slots.get(&id) {
            let bytes = trace.resident_bytes();
            state.slots.remove(&id);
            state.resident_bytes = state.resident_bytes.saturating_sub(bytes);
        }
    }

    /// A snapshot of the arena's traffic counters.
    pub fn stats(&self) -> ArenaStats {
        self.lock().stats
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.lock().resident_bytes
    }

    /// Threads currently asleep on a loading slot.
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.lock().parked
    }
}

struct LoadGuard<'a> {
    arena: &'a TraceArena,
    id: WorkloadId,
    armed: bool,
}

impl Drop for LoadGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut state = self.arena.lock();
            if matches!(state.slots.get(&self.id), Some(Slot::Loading)) {
                state.slots.remove(&self.id);
            }
            drop(state);
            self.arena.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tiny_study() -> Study {
        Study::new(50_000, 2, PathBuf::from("results"))
    }

    #[test]
    fn decodes_each_workload_exactly_once() {
        let study = tiny_study();
        let arena = TraceArena::new([WorkloadId::Xlisp; 2]);
        let a = arena.get(&study, WorkloadId::Xlisp).unwrap();
        let b = arena.get(&study, WorkloadId::Xlisp).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "must share one decode");
        let stats = arena.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn concurrent_requests_share_one_decode() {
        let study = tiny_study();
        let arena = TraceArena::new([WorkloadId::Eqntott; 4]);
        let traces: Vec<ArenaTrace> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| arena.get(&study, WorkloadId::Eqntott)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(trace) => trace.unwrap(),
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        for pair in traces.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
        assert_eq!(arena.stats().misses, 1, "decode must happen exactly once");
    }

    #[test]
    fn a_trace_stays_resident_until_its_last_pending_cell_is_done() {
        let study = tiny_study();
        let arena = TraceArena::new([WorkloadId::Xlisp, WorkloadId::Eqntott, WorkloadId::Xlisp]);
        let first = arena.get(&study, WorkloadId::Xlisp).unwrap();
        let bytes = first.resident_bytes();
        drop(first);
        arena.cell_done(WorkloadId::Xlisp);
        // One xlisp cell is still pending: its trace stays, and a retry of
        // that cell (any number of attempts) is a hit, not a regeneration.
        assert_eq!(arena.resident_bytes(), bytes);
        let again = arena.get(&study, WorkloadId::Xlisp).unwrap();
        let retried = arena.get(&study, WorkloadId::Xlisp).unwrap();
        assert!(Arc::ptr_eq(&again, &retried));
        assert_eq!((arena.stats().misses, arena.stats().hits), (1, 2));
        // Another workload's cell does not release xlisp.
        arena.cell_done(WorkloadId::Eqntott);
        assert_eq!(arena.resident_bytes(), bytes);
        arena.cell_done(WorkloadId::Xlisp);
        assert_eq!(arena.resident_bytes(), 0, "the last cell releases it");
    }

    #[test]
    fn a_held_trace_stays_valid_after_the_release() {
        let study = tiny_study();
        let arena = TraceArena::new([WorkloadId::Xlisp]);
        let held = arena.get(&study, WorkloadId::Xlisp).unwrap();
        arena.cell_done(WorkloadId::Xlisp);
        assert_eq!(arena.resident_bytes(), 0);
        // The arena dropped its reference; the caller's handle keeps the
        // allocation alive and whole.
        assert_eq!(Arc::strong_count(&held), 1);
        assert_eq!(*held, study.collect_interned(WorkloadId::Xlisp).unwrap());
    }

    #[test]
    fn resident_bytes_return_to_zero_once_every_cell_is_done() {
        let study = tiny_study();
        let cells = [
            WorkloadId::Xlisp,
            WorkloadId::Eqntott,
            WorkloadId::Xlisp,
            WorkloadId::Eqntott,
        ];
        let arena = TraceArena::new(cells);
        let both: usize = cells[..2]
            .iter()
            .map(|&id| arena.get(&study, id).unwrap().resident_bytes())
            .sum();
        assert_eq!(arena.resident_bytes(), both);
        assert_eq!(arena.stats().peak_resident_bytes, both as u64);
        for id in cells {
            arena.cell_done(id);
        }
        assert_eq!(arena.resident_bytes(), 0);
        assert_eq!(arena.stats().peak_resident_bytes, both as u64);
        // Reports past the last cell change nothing.
        arena.cell_done(WorkloadId::Xlisp);
        assert_eq!(arena.resident_bytes(), 0);
    }

    fn tiny_trace() -> InternedTrace {
        InternedTrace::from_records(
            &paragraph_trace::synthetic::random_trace(50, 1),
            paragraph_trace::SegmentMap::new(1 << 20, 1 << 24),
        )
    }

    #[test]
    fn failing_loader_releases_the_claim_for_the_next_caller() {
        let arena = TraceArena::new([]);
        let err = arena.get_with(WorkloadId::Xlisp, || {
            Err(CellError::Vm("injected".to_owned()))
        });
        assert!(matches!(err, Err(CellError::Vm(_))));
        // The failed claim must be gone: a well-behaved loader succeeds.
        let trace = arena
            .get_with(WorkloadId::Xlisp, || Ok(tiny_trace()))
            .unwrap();
        assert_eq!(trace.len(), 50);
        let stats = arena.stats();
        assert_eq!(stats.misses, 2, "both claims count as misses");
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn panicking_loader_wakes_waiters_who_retry_and_succeed() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let arena = TraceArena::new([]);
        let attempts = AtomicUsize::new(0);

        // Four threads race for the same workload. Whichever claims the
        // loading slot first panics mid-generation (attempt 0); the claim
        // must be released so a waiter can claim, regenerate, and feed the
        // rest. The poisoned-lock path is exercised too: the panic unwinds
        // while other threads are blocked on the arena's mutex/condvar.
        let outcomes: Vec<Result<ArenaTrace, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let arena = &arena;
                    let attempts = &attempts;
                    scope.spawn(move || {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            arena.get_with(WorkloadId::Eqntott, || {
                                if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                                    panic!("injected generator panic");
                                }
                                Ok(tiny_trace())
                            })
                        }))
                        .map_err(|_| "panicked".to_owned())
                        .and_then(|r| r.map_err(|e| e.to_string()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("join failed".to_owned())))
                .collect()
        });

        let ok: Vec<&ArenaTrace> = outcomes.iter().filter_map(|r| r.as_ref().ok()).collect();
        let panicked = outcomes.iter().filter(|r| r.is_err()).count();
        assert_eq!(panicked, 1, "exactly the first claimer panics");
        let errors: Vec<&String> = outcomes.iter().filter_map(|r| r.as_ref().err()).collect();
        assert_eq!(ok.len(), 3, "every waiter must recover: {errors:?}");
        for pair in ok.windows(2) {
            assert!(
                Arc::ptr_eq(pair[0], pair[1]),
                "survivors share the retried decode"
            );
        }
        assert_eq!(attempts.load(Ordering::SeqCst), 2, "panic, then one retry");
        let stats = arena.stats();
        assert_eq!(stats.misses, 2, "failed claim + successful retry");
        // A later request is a plain hit on the recovered slot.
        let again = arena
            .get_with(WorkloadId::Eqntott, || Ok(tiny_trace()))
            .unwrap();
        assert!(Arc::ptr_eq(&again, ok[0]));
    }

    /// How the loader in [`park_waiters_on_one_load`] ends its load.
    #[derive(Debug, Clone, Copy)]
    enum LoadEnd {
        Succeed,
        Fail,
        Panic,
    }

    /// Forced interleaving of the loading slot: the loader holds its claim
    /// until `WAITERS` threads are asleep on it, then ends with `end`.
    /// Every waiter must wake and come back with the one shared trace. A
    /// failed or panicked load hands the claim to exactly one waiter, whose
    /// load feeds the rest. A watchdog fails the test after ten seconds
    /// instead of letting a lost wake-up hang it.
    fn park_waiters_on_one_load(end: LoadEnd) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc::{self, Receiver};
        use std::time::{Duration, Instant};

        const WAITERS: usize = 4;
        let deadline = Instant::now() + Duration::from_secs(10);
        // Threads are spawned detached and only joined once they reported,
        // so a thread stuck in the arena fails the test instead of hanging
        // it.
        fn recv<T>(rx: &Receiver<T>, deadline: Instant, what: &str) -> T {
            rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
                .unwrap_or_else(|_| panic!("{what} still blocked after 10 s: lost wake-up"))
        }
        let arena = Arc::new(TraceArena::new([]));
        let reloads = Arc::new(AtomicUsize::new(0));
        let (claimed_tx, claimed_rx) = mpsc::channel();
        let (loader_tx, loader_rx) = mpsc::channel();
        let (waiter_tx, waiter_rx) = mpsc::channel();

        let loader_arena = Arc::clone(&arena);
        let mut threads = vec![std::thread::spawn(move || {
            let arena = &loader_arena;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                arena.get_with(WorkloadId::Xlisp, || {
                    let _ = claimed_tx.send(());
                    // Hold the claim until every waiter sleeps on it.
                    while arena.parked() < WAITERS {
                        std::thread::yield_now();
                    }
                    match end {
                        LoadEnd::Succeed => Ok(tiny_trace()),
                        LoadEnd::Fail => Err(CellError::Vm("injected".to_owned())),
                        LoadEnd::Panic => panic!("injected generator panic"),
                    }
                })
            }));
            let _ = loader_tx.send(outcome.map(|r| r.map_err(|e| e.to_string())));
        })];
        recv(&claimed_rx, deadline, "loader claim");
        for _ in 0..WAITERS {
            let (arena, reloads, tx) =
                (Arc::clone(&arena), Arc::clone(&reloads), waiter_tx.clone());
            threads.push(std::thread::spawn(move || {
                let got = arena.get_with(WorkloadId::Xlisp, || {
                    reloads.fetch_add(1, Ordering::SeqCst);
                    Ok(tiny_trace())
                });
                let _ = tx.send(got.map_err(|e| e.to_string()));
            }));
        }

        let loaded = recv(&loader_rx, deadline, "loader");
        let traces: Vec<ArenaTrace> = (0..WAITERS)
            .map(|_| recv(&waiter_rx, deadline, "waiter").unwrap())
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        for pair in traces.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
        let stats = arena.stats();
        match end {
            LoadEnd::Succeed => {
                let trace = loaded.unwrap().unwrap();
                assert!(Arc::ptr_eq(&trace, &traces[0]));
                assert_eq!(reloads.load(Ordering::SeqCst), 0);
                assert_eq!((stats.misses, stats.hits), (1, WAITERS as u64));
            }
            LoadEnd::Fail | LoadEnd::Panic => {
                if matches!(end, LoadEnd::Fail) {
                    assert!(matches!(loaded, Ok(Err(_))), "the loader's error returns");
                } else {
                    assert!(loaded.is_err(), "the loader's panic unwinds");
                }
                assert_eq!(reloads.load(Ordering::SeqCst), 1, "one waiter reloads");
                assert_eq!((stats.misses, stats.hits), (2, WAITERS as u64 - 1));
            }
        }
        assert_eq!(arena.parked(), 0);
    }

    #[test]
    fn parked_waiters_wake_when_the_load_succeeds() {
        park_waiters_on_one_load(LoadEnd::Succeed);
    }

    #[test]
    fn parked_waiters_wake_and_reload_when_the_load_fails() {
        park_waiters_on_one_load(LoadEnd::Fail);
    }

    #[test]
    fn parked_waiters_wake_and_reload_when_the_loader_panics() {
        park_waiters_on_one_load(LoadEnd::Panic);
    }
}
