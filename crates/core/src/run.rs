//! The one driver that feeds the live well.
//!
//! The paper's analysis is a single streaming pass over the trace. A
//! [`Run`] is that pass: it borrows a [`LiveWell`], takes a [`Policy`],
//! and is fed records in batches from one of three sources:
//!
//! * [`Run::slice`] — a resident trace, cut into 4,096-record
//!   batches. With `jobs > 1` the records still to analyze are cut at
//!   conservative-syscall firewalls and the segments run on worker
//!   threads ([`parallel`]), then merge exactly.
//! * [`Run::stream`] — a trace file through the decode-ahead pipeline:
//!   one helper thread decodes chunk N+1 while the analyzer consumes
//!   chunk N. A stream runs one analyzer.
//! * [`Run::vm`] — a VM's trace callback, buffered 4,096 records at a
//!   time.
//!
//! The driver owns the per-batch policy, so callers do not repeat it: it
//! drops the records before `skip` and the ones a resumed analyzer has
//! already seen, stops analyzing at `take`, splits batches at checkpoint
//! boundaries, checks the deadline between batches, and offers a
//! heartbeat every [`BEAT_STRIDE`] records. What a checkpoint or a
//! heartbeat *does* is the injected [`RunSink`]'s business (`()` for
//! nothing), as a storage-generic interpreter injects its storage, never
//! chosen by a flag inside the loop. The driver emits the `livewell`, `checkpoint.save`, `segment`
//! and `merge` timeline spans, and [`report`] the `report` span.
//!
//! A run ends cleanly or with a typed [`Stop`]; [`Run::stats`] says what it
//! did either way. Every stop leaves
//! the analyzer holding exactly the records fed before it, so a session
//! that overran its deadline keeps its progress.

use crate::livewell::LiveWell;
use crate::parallel;
use crate::report::AnalysisReport;
use crate::telemetry::timeline::{timeline_active, timeline_span, TimelineSpan};
use paragraph_trace::binary::TraceReader;
use paragraph_trace::source::{DecodeAhead, DecodeEvent, DecodeFinal, DecodeObserver};
use paragraph_trace::{TraceError, TraceRecord, TraceSource};
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Records per batch cut from a slice or buffered from a VM callback: the
/// trace format's default chunk size, so every source checks its deadline
/// at about the same granularity.
const BATCH: usize = 4096;

/// Records between the heartbeats a run offers its [`RunSink`].
pub const BEAT_STRIDE: u64 = 1 << 16;

/// What a run does at its boundaries, injected as the run's `S`: a
/// checkpoint at each cadence boundary, a heartbeat every
/// [`BEAT_STRIDE`] records. Both do nothing by default, so `()` is the
/// sink of a run that needs neither.
pub trait RunSink {
    /// Persists `well`, which has just processed a multiple of the run's
    /// checkpoint cadence. Failures are the sink's to handle: a run never
    /// stops because a checkpoint could not be written.
    fn checkpoint(&mut self, _well: &LiveWell) {}

    /// Offers a heartbeat. `workers` counts records analyzed by segment
    /// workers and not yet merged into `well`; `bytes` counts input bytes
    /// consumed (0 when the source does not know).
    fn beat(&mut self, _well: &LiveWell, _workers: u64, _bytes: u64) {}
}

impl RunSink for () {}

impl<T: RunSink + ?Sized> RunSink for &mut T {
    fn checkpoint(&mut self, well: &LiveWell) {
        (**self).checkpoint(well);
    }

    fn beat(&mut self, well: &LiveWell, workers: u64, bytes: u64) {
        (**self).beat(well, workers, bytes);
    }
}

/// What a [`Run`] does besides analyzing.
pub struct Policy<S = ()> {
    /// Checkpoint each time the analyzer's record count reaches a multiple
    /// of this. A checkpointing run uses one analyzer: a merged state is
    /// not a sequential prefix of anything, so it cannot resume.
    pub checkpoint_every: Option<u64>,
    /// Stop with [`Stop::Deadline`] at the first batch (or worker chunk)
    /// boundary past this instant.
    pub deadline: Option<Instant>,
    /// Input records dropped before the analyzed stream begins.
    pub skip: u64,
    /// Analyze at most this many records after `skip`. Positions count
    /// from the start of the analyzed stream, so a resumed analyzer's
    /// records count against it.
    pub take: u64,
    /// Analyzer threads for a slice source (`0`: all cores).
    pub jobs: usize,
    /// Receives the checkpoints and heartbeats.
    pub sink: S,
}

impl<S> Policy<S> {
    /// The default policy reporting to `sink`: no checkpoints, no
    /// deadline, the whole input, one thread.
    pub fn with_sink(sink: S) -> Policy<S> {
        Policy {
            checkpoint_every: None,
            deadline: None,
            skip: 0,
            take: u64::MAX,
            jobs: 1,
            sink,
        }
    }
}

impl Default for Policy {
    fn default() -> Policy {
        Policy::with_sink(())
    }
}

/// Why a run stopped early. The analyzer keeps every record fed before
/// the stop.
#[derive(Debug)]
pub enum Stop {
    /// The policy's deadline passed.
    Deadline,
    /// A resumed analyzer has already seen more records than the input
    /// offers.
    ShortInput {
        /// Records the analyzer had processed.
        processed: u64,
        /// Records the input offered after `skip`, capped at `take`.
        available: u64,
    },
    /// The trace stream failed: damage, truncation, or a governor limit.
    Trace(TraceError),
    /// The decode-ahead thread could not start.
    Spawn(io::Error),
}

impl fmt::Display for Stop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stop::Deadline => f.write_str("analysis deadline exceeded"),
            Stop::ShortInput {
                processed,
                available,
            } => write!(
                f,
                "checkpoint is ahead of the input: {processed} records processed, \
                 {available} available"
            ),
            Stop::Trace(e) => write!(f, "{e}"),
            Stop::Spawn(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Stop {}

/// What a run did.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Records analyzed by this run, segment workers included.
    pub analyzed: u64,
    /// Input bytes consumed so far (streams only).
    pub bytes: u64,
    /// The decoder's final state (streams only).
    pub decode: Option<DecodeFinal>,
    /// Why a run asked for `jobs > 1` analyzed on one thread.
    pub one_thread: Option<&'static str>,
}

/// One streaming pass of a [`LiveWell`] under a [`Policy`].
pub struct Run<'w, S = ()> {
    well: &'w mut LiveWell,
    policy: Policy<S>,
    /// Checkpoint cadence; `u64::MAX` never comes round.
    every: u64,
    /// Input records offered to [`feed`](Run::feed) so far, `skip`
    /// included.
    offered: u64,
    /// Records the input offered after `skip`, capped at `take`, once
    /// known.
    available: u64,
    stats: RunStats,
}

impl<'w, S: RunSink> Run<'w, S> {
    /// A run of `well` under `policy`.
    pub fn new(well: &'w mut LiveWell, policy: Policy<S>) -> Run<'w, S> {
        let every = policy.checkpoint_every.unwrap_or(u64::MAX).max(1);
        Run {
            well,
            policy,
            every,
            offered: 0,
            available: 0,
            stats: RunStats::default(),
        }
    }

    /// The run's figures so far; after a [`Stop`], what it did before.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Analyzes a resident trace.
    ///
    /// # Errors
    ///
    /// [`Stop::Deadline`] or [`Stop::ShortInput`].
    pub fn slice(&mut self, records: &[TraceRecord]) -> Result<(), Stop> {
        let input = window(records, self.policy.skip, self.policy.take);
        self.available = input.len() as u64;
        let done = self.well.records_processed();
        let Some(start) = usize::try_from(done).ok().filter(|&d| d <= input.len()) else {
            return Err(self.short_input());
        };
        let cuts = self.cuts(input, start);
        match cuts.first() {
            Some(&first) => self.fan_out(input, start, first, &cuts)?,
            None => {
                for batch in input[start..].chunks(BATCH) {
                    self.analyze(batch, 0)?;
                }
            }
        }
        Ok(())
    }

    /// Analyzes a trace stream through the decode-ahead pipeline, with one
    /// analyzer. The stream is read to its end even past `take`, so damage
    /// anywhere in it fails the run as a whole-file read would, and the
    /// decoder's recovery tallies cover the whole file.
    ///
    /// # Errors
    ///
    /// [`Stop::Trace`] after every record decoded ahead of the fault has
    /// been analyzed, exactly where the sequential reader surfaces it;
    /// [`Stop::Spawn`], [`Stop::Deadline`] or [`Stop::ShortInput`].
    pub fn stream(&mut self, reader: TraceReader<TraceSource>) -> Result<(), Stop> {
        if parallel::effective_jobs(self.policy.jobs) > 1 {
            self.stats.one_thread = Some("a streamed trace runs one analyzer");
        }
        let mut ahead = DecodeAhead::spawn(reader, decode_observer()).map_err(Stop::Spawn)?;
        let mut fed = Ok(());
        while let Some(batch) = ahead.next_batch() {
            let batch = match batch {
                Ok(batch) => batch,
                Err(e) => {
                    fed = Err(Stop::Trace(e));
                    break;
                }
            };
            self.stats.bytes = ahead.bytes_read();
            fed = self.feed(&batch);
            ahead.recycle(batch);
            if fed.is_err() {
                break;
            }
        }
        let decoded = ahead.finish();
        self.stats.bytes = decoded.bytes_read;
        self.stats.decode = Some(decoded);
        fed?;
        self.end()
    }

    /// Runs `drive` (typically a VM's traced run) with a record callback
    /// that buffers 4,096 records at a time into the analyzer. The VM
    /// cannot be interrupted from the callback: after a stop, the rest of
    /// its records are dropped.
    ///
    /// # Errors
    ///
    /// The second half of the result carries [`Stop::Deadline`] or
    /// [`Stop::ShortInput`].
    pub fn vm<T>(
        &mut self,
        drive: impl FnOnce(&mut dyn FnMut(&TraceRecord)) -> T,
    ) -> (T, Result<(), Stop>) {
        let mut buffer = Vec::with_capacity(BATCH);
        let mut fed = Ok(());
        let out = drive(&mut |record: &TraceRecord| {
            buffer.push(*record);
            if buffer.len() == BATCH {
                if fed.is_ok() {
                    fed = self.feed(&buffer);
                }
                buffer.clear();
            }
        });
        if fed.is_ok() {
            fed = self.feed(&buffer);
        }
        (out, fed.and_then(|()| self.end()))
    }

    /// Takes the next batch of input records: the part of it past `skip`
    /// and past what the analyzer has seen, short of `take`, is analyzed.
    fn feed(&mut self, batch: &[TraceRecord]) -> Result<(), Stop> {
        let first = self.offered;
        self.offered += batch.len() as u64;
        let due = self
            .policy
            .skip
            .saturating_add(self.well.records_processed());
        let stop = self.policy.skip.saturating_add(self.policy.take);
        let at = |pos: u64| (pos.clamp(first, self.offered) - first) as usize;
        let (lo, hi) = (at(due), at(stop));
        if lo < hi {
            self.analyze(&batch[lo..hi], 0)?;
        }
        Ok(())
    }

    /// Closes a fed input: a resumed analyzer must not be ahead of it.
    fn end(&mut self) -> Result<(), Stop> {
        self.available = self
            .offered
            .saturating_sub(self.policy.skip)
            .min(self.policy.take);
        if self.well.records_processed() > self.available {
            return Err(self.short_input());
        }
        Ok(())
    }

    fn short_input(&self) -> Stop {
        Stop::ShortInput {
            processed: self.well.records_processed(),
            available: self.available,
        }
    }

    /// Analyzes one batch: checks the deadline, splits at checkpoint
    /// boundaries, and offers a heartbeat when a [`BEAT_STRIDE`] boundary
    /// was crossed.
    fn analyze(&mut self, batch: &[TraceRecord], workers: u64) -> Result<(), Stop> {
        if self.policy.deadline.is_some_and(|at| Instant::now() > at) {
            return Err(Stop::Deadline);
        }
        let before = self.well.records_processed();
        let mut rest = batch;
        while !rest.is_empty() {
            let to_boundary = self.every - self.well.records_processed() % self.every;
            let (now, later) = rest
                .split_at(usize::try_from(to_boundary).map_or(rest.len(), |n| n.min(rest.len())));
            process(self.well, now);
            if self.well.records_processed().is_multiple_of(self.every) {
                checkpoint(&mut self.policy.sink, self.well);
            }
            rest = later;
        }
        let after = self.well.records_processed();
        self.stats.analyzed += after - before;
        if before / BEAT_STRIDE != after / BEAT_STRIDE {
            self.policy.sink.beat(self.well, workers, self.stats.bytes);
        }
        Ok(())
    }

    /// Plans firewall cuts over `input[start..]`, or records why the run
    /// stays on one thread.
    fn cuts(&mut self, input: &[TraceRecord], start: usize) -> Vec<usize> {
        let jobs = parallel::effective_jobs(self.policy.jobs);
        if jobs < 2 {
            return Vec::new();
        }
        let reason = if self.policy.checkpoint_every.is_some() {
            "a checkpointing run needs one analyzer"
        } else if let Err(reason) = parallel::eligibility(input, self.well.config()) {
            reason
        } else {
            let cuts = parallel::plan_cuts(input, start, jobs);
            if !cuts.is_empty() {
                return cuts;
            }
            "no conservative-syscall cut points"
        };
        self.stats.one_thread = Some(reason);
        Vec::new()
    }

    /// Analyzes `input[start..first]` here while worker threads analyze
    /// the segments from each cut on, then splices their outcomes in.
    fn fan_out(
        &mut self,
        input: &[TraceRecord],
        start: usize,
        first: usize,
        cuts: &[usize],
    ) -> Result<(), Stop> {
        let config = self.well.config().clone();
        let deadline = self.policy.deadline;
        let workers = AtomicU64::new(0);
        let ends = cuts.iter().skip(1).copied().chain([input.len()]);
        let (primary, outcomes) = std::thread::scope(|scope| {
            let handles: Vec<_> = cuts
                .iter()
                .zip(ends)
                .enumerate()
                .map(|(i, (&lo, hi))| {
                    let (segment, config, workers) = (&input[lo..hi], &config, &workers);
                    scope.spawn(move || {
                        if let Some(timeline) = timeline_active() {
                            timeline.set_thread_name(&format!("analyze-{}", i + 1));
                        }
                        let mut tspan = timeline_span("segment");
                        tspan.arg("records", segment.len() as u64);
                        parallel::run_segment_until(segment, config, workers, deadline)
                    })
                })
                .collect();
            let primary = input[start..first]
                .chunks(BATCH)
                .try_for_each(|batch| self.analyze(batch, workers.load(Ordering::Relaxed)));
            let outcomes: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect();
            (primary, outcomes)
        });
        primary?;
        let outcomes = outcomes.into_iter().collect::<Result<Vec<_>, Stop>>()?;
        if outcomes.iter().all(Option::is_some) {
            self.stats.analyzed += workers.load(Ordering::Relaxed);
            let mut tspan = timeline_span("merge");
            tspan.arg("segments", outcomes.len() as u64);
            for segment in outcomes.iter().flatten() {
                self.well.merge_segment(segment);
            }
        } else {
            // Unreachable by construction (segment workers keep exact
            // profiles), but never leave a gap: the primary's state is
            // exactly the right starting point for the tail.
            for batch in input[first..].chunks(BATCH) {
                self.analyze(batch, 0)?;
            }
        }
        Ok(())
    }
}

/// Runs the kernel over `records` under a `livewell` span. Out of line so
/// the kernel loop compiles to one function whatever the sink type:
/// inlined into the driver's generic batch loop it measured about 5%
/// slower on the 10M-record memwalk trace (two cores, alternating runs).
#[inline(never)]
fn process(well: &mut LiveWell, records: &[TraceRecord]) {
    let mut tspan = timeline_span("livewell");
    tspan.arg("records", records.len() as u64);
    well.process_slice(records);
}

/// Hands a checkpoint of `well` to `sink` under a `checkpoint.save` span:
/// the driver's call at each boundary, and a caller's final save.
pub fn checkpoint<S: RunSink + ?Sized>(sink: &mut S, well: &LiveWell) {
    let records = well.records_processed();
    let mut span = crate::span!("checkpoint.save");
    span.field("records", records);
    let mut tspan = timeline_span("checkpoint.save");
    tspan.arg("records", records);
    sink.checkpoint(well);
}

/// Finishes `well` into its report under a `report` span.
pub fn report(well: LiveWell) -> AnalysisReport {
    let _span = crate::span!("report");
    let _tspan = timeline_span("report");
    well.finish()
}

/// `records[skip..]`, at most `take` long.
fn window(records: &[TraceRecord], skip: u64, take: u64) -> &[TraceRecord] {
    let skip = usize::try_from(skip).map_or(records.len(), |s| s.min(records.len()));
    let rest = &records[skip..];
    let take = usize::try_from(take).map_or(rest.len(), |t| t.min(rest.len()));
    &rest[..take]
}

/// Names the decode-ahead thread's timeline lane and gives each block
/// decode a `decode.block` slice, when the flight recorder is on.
fn decode_observer() -> Option<DecodeObserver> {
    let timeline = timeline_active()?;
    let mut block: Option<TimelineSpan<'static>> = None;
    Some(Box::new(move |event: DecodeEvent| match event {
        DecodeEvent::ThreadStart => timeline.set_thread_name("decode-ahead"),
        DecodeEvent::BlockStart => block = Some(timeline.span("decode.block")),
        DecodeEvent::BlockEnd { records } => {
            if let Some(mut span) = block.take() {
                span.arg("records", records as u64);
            }
        }
    }))
}
