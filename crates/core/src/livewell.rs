//! The live well: the paper's streaming DDG placement algorithm.

use crate::branch::{BranchPolicy, Predictor};
use crate::checkpoint::{self, CheckpointError, TraceIdentity};
use crate::config::{AnalysisConfig, SyscallPolicy};
use crate::dist::Distribution;
use crate::memmodel::MemOrdering;
use crate::profile::ParallelismProfile;
use crate::report::AnalysisReport;
use crate::slots::{FlatSlots, RecordView, SlotSpace, StreamSlots, REGS};
use crate::well::{MemTable, PagedWell, ValueRecord};
use crate::window::WindowLimiter;
use paragraph_isa::OpClass;
use paragraph_trace::crc32::crc32;
use paragraph_trace::fasthash::FastMap;
use paragraph_trace::govern::{LimitViolation, Limits, ResourceGovernor};
use paragraph_trace::wire;
use paragraph_trace::{InternedTrace, TraceRecord, MAX_SRCS};
use std::io::{Read, Write};

// Checkpoint body primitives. Writes go to a `Vec<u8>` (infallible); reads
// surface `Truncated` / `Io` through `CheckpointError`.

fn w_u64(buf: &mut Vec<u8>, v: u64) {
    // io::Write for Vec<u8> cannot fail.
    let _ = wire::write_varint(buf, v);
}

fn w_i64(buf: &mut Vec<u8>, v: i64) {
    w_u64(buf, wire::zigzag(v));
}

fn r_u64<R: Read>(r: &mut R) -> Result<u64, CheckpointError> {
    wire::read_varint(r).map_err(CheckpointError::from)
}

fn r_i64<R: Read>(r: &mut R) -> Result<i64, CheckpointError> {
    Ok(wire::unzigzag(r_u64(r)?))
}

fn r_usize<R: Read>(r: &mut R) -> Result<usize, CheckpointError> {
    usize::try_from(r_u64(r)?).map_err(|_| CheckpointError::Corrupt("count overflows usize"))
}

fn r_flag<R: Read>(r: &mut R) -> Result<bool, CheckpointError> {
    match r_u64(r)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CheckpointError::Corrupt("flag byte is neither 0 nor 1")),
    }
}

fn w_value_record(buf: &mut Vec<u8>, record: &ValueRecord) {
    w_u64(buf, u64::from(record.readers));
    w_i64(buf, record.avail);
    w_i64(buf, record.deepest_use);
}

fn r_value_record<R: Read>(r: &mut R) -> Result<ValueRecord, CheckpointError> {
    let readers = u32::try_from(r_u64(r)?)
        .map_err(|_| CheckpointError::Corrupt("reader count overflows u32"))?;
    let avail = r_i64(r)?;
    let deepest_use = r_i64(r)?;
    if deepest_use < avail {
        return Err(CheckpointError::Corrupt("value used before it was created"));
    }
    Ok(ValueRecord {
        readers,
        avail,
        deepest_use,
    })
}

fn w_dist(buf: &mut Vec<u8>, dist: &Distribution) {
    w_u64(buf, dist.distinct_values() as u64);
    for (value, count) in dist.iter() {
        w_u64(buf, value);
        w_u64(buf, count);
    }
}

/// Validates a declared entry count before anything is allocated for it:
/// first against the governor's declared-length cap (a hostile checkpoint
/// declaring a 4 GiB table is a policy rejection), then against the bytes
/// actually remaining in the body (every entry costs at least one byte, so
/// a count past the remainder is an impossible state — corruption).
fn check_declared_count(
    governor: &ResourceGovernor,
    what: &'static str,
    declared: usize,
    remaining: usize,
) -> Result<(), CheckpointError> {
    governor
        .check_declared_len(what, declared as u64)
        .map_err(CheckpointError::LimitExceeded)?;
    if declared > remaining {
        return Err(CheckpointError::Corrupt(
            "declared count exceeds the remaining body",
        ));
    }
    Ok(())
}

fn r_dist<R: Read>(r: &mut R) -> Result<Distribution, CheckpointError> {
    let distinct = r_usize(r)?;
    let mut dist = Distribution::new();
    let mut prev: Option<u64> = None;
    for _ in 0..distinct {
        let value = r_u64(r)?;
        if prev.is_some_and(|p| p >= value) {
            return Err(CheckpointError::Corrupt("distribution values not sorted"));
        }
        prev = Some(value);
        let count = r_u64(r)?;
        if count == 0 {
            return Err(CheckpointError::Corrupt("distribution entry with count 0"));
        }
        dist.record_many(value, count);
    }
    Ok(dist)
}

/// Raises a registry counter to `total` (the analyzer already counts these
/// in plain fields; publishing just mirrors the running total). Counters are
/// monotonic, so only the positive difference is added.
fn set_counter(registry: &crate::telemetry::Registry, name: &'static str, total: u64) {
    let counter = registry.counter(name);
    let current = counter.get();
    if total > current {
        counter.add(total - current);
    }
}

/// The streaming DDG analyzer (the paper's *Paragraph* algorithm, §3.2).
///
/// Processes a serial execution trace one record at a time, maintaining the
/// *live well* — a table recording, for every live value, the DDG level in
/// which it was created. Each value-creating instruction is placed at
///
/// ```text
/// Ldest = MAX(Lsrc1, Lsrc2, highestLevel [, Ddest]) + top
/// ```
///
/// where `Lsrc*` are the levels at which the source values become available,
/// `highestLevel` is the current placement floor (raised by firewalls and by
/// instruction-window displacement), `Ddest` is the deepest use of the
/// previous value in the destination location (only when that location's
/// storage class is not renamed), and `top` is the operation latency.
///
/// *Deviation note:* the paper's prose gives the storage-dependency term as
/// `Ddest + 1`, but its own worked example (Figure 2, critical path 6) is
/// only consistent with `Ddest` when levels are completion levels, so that
/// is what this implementation (and the explicit-graph builder, which is
/// cross-validated against it) uses. See `DESIGN.md` §1.
///
/// The analyzer is generic over its [`SlotSpace`]: [`LiveWell`] keeps a
/// register file and a paged memory table and reads [`TraceRecord`]s;
/// [`InternedWell`] keeps one flat table and reads an [`InternedTrace`].
/// Both run the one [`process`](LiveWellImpl::process) kernel.
///
/// # Examples
///
/// ```
/// use paragraph_core::{AnalysisConfig, LiveWell};
/// use paragraph_trace::synthetic;
///
/// let mut analyzer = LiveWell::new(AnalysisConfig::dataflow_limit());
/// for record in synthetic::figure1() {
///     analyzer.process(&record);
/// }
/// let report = analyzer.finish();
/// assert_eq!(report.critical_path_length(), 4);
/// ```
#[derive(Debug)]
pub struct LiveWellImpl<S: SlotSpace> {
    config: AnalysisConfig,
    /// The live well proper: the value record of every location.
    space: S,
    /// `highestLevel - 1` in the paper's terms: every newly placed operation
    /// completes at `floor + top` at the earliest.
    floor: i64,
    /// The paper's `deepestLevelYetUsed`: the deepest completion level of any
    /// placed operation; -1 before anything is placed.
    deepest: i64,
    window: WindowLimiter,
    profile: ParallelismProfile,
    predictor: Option<Predictor>,
    /// Operations started per level, when an issue limit is configured.
    issue: Option<IssueLedger>,
    value_stats: Option<ValueStats>,
    /// Conservative memory ordering, under `MemoryModel::NoDisambiguation`.
    mem_ordering: MemOrdering,
    total_records: u64,
    placed: u64,
    syscalls: u64,
    firewalls: u64,
    branch_firewalls: u64,
    /// Memory locations dropped from the live well under
    /// [`AnalysisConfig::live_well_cap`]; non-zero counts are an accuracy
    /// caveat (a read of an evicted location looks preexisting).
    evictions: u64,
    /// The running peak size as the slot space keeps it; read it through
    /// [`SlotSpace::peak`].
    peak_live_values: usize,
    class_placed: [u64; OpClass::ALL.len()],
    /// Times the instruction window displaced an instruction whose level was
    /// above the floor, i.e. the window actually constrained placement.
    /// Telemetry-only: deliberately *not* checkpointed (checkpoints are
    /// bit-identical to pre-telemetry builds), so after a resume it counts
    /// from the restart.
    window_stalls: u64,
    /// Fingerprint of the trace this analysis is running over, installed by
    /// the driver that materialized the records. Saved into version-2
    /// checkpoints and verified on resume; `None` (e.g. a streamed trace
    /// nobody fingerprinted, or a version-1 checkpoint) skips the check.
    trace_identity: Option<TraceIdentity>,
}

/// The default analyzer: the streaming algorithm over the paged memory
/// table ([`PagedWell`]) — hot-page lookups are a shift/mask plus one
/// pointer chase, and bounded-mode eviction is guided by per-page
/// summaries. See `docs/hotpath.md` for layout and measurements.
pub type LiveWell = LiveWellImpl<StreamSlots<PagedWell>>;

/// The analyzer over the legacy flat hash table (`FlatWell`): one hashed
/// probe per access. Compiled for tests only, as the executable reference
/// for the equivalence suite; it produces bit-identical reports and
/// checkpoints to [`LiveWell`].
#[cfg(test)]
pub(crate) type FlatLiveWell = LiveWellImpl<StreamSlots<crate::well::FlatWell>>;

/// The exported final state of one independently analyzed trace segment,
/// produced by a segment worker and spliced onto the preceding state with
/// [`LiveWellImpl::merge_segment`]. Levels inside are *relative* to the
/// segment's own fresh floor of -1; the merge shifts them by the absolute
/// floor at the cut. See [`crate::parallel`].
#[derive(Debug, Clone)]
pub struct SegmentOutcome {
    /// Relative placement floor at the segment's end.
    floor: i64,
    /// Relative deepest completion level placed in the segment.
    deepest: i64,
    /// Exact operations placed per relative level (index = level).
    level_counts: Vec<u64>,
    /// Memory addresses the segment touched, ascending.
    addrs: Vec<u64>,
    total_records: u64,
    placed: u64,
    syscalls: u64,
    firewalls: u64,
    branch_firewalls: u64,
    window_stalls: u64,
    class_placed: [u64; OpClass::ALL.len()],
}

impl SegmentOutcome {
    /// Trace records the segment covered.
    pub fn records(&self) -> u64 {
        self.total_records
    }
}

#[derive(Debug, Default)]
struct ValueStats {
    lifetimes: Distribution,
    sharing: Distribution,
}

impl ValueStats {
    fn retire(&mut self, record: &ValueRecord) {
        // Preexisting values (created before the program began) are not
        // counted; the paper's distributions cover created values.
        if record.avail >= 0 {
            self.lifetimes
                .record((record.deepest_use - record.avail) as u64);
            self.sharing.record(u64::from(record.readers));
        }
    }
}

/// Per-level operation-start counters for issue-limited runs.
///
/// Every free-slot scan begins at `base + 1 > floor`, and the floor only
/// rises, so counters at or below the floor can never be probed again —
/// they are pruned whenever the floor rises, which bounds the ledger to
/// the live band `(floor, deepest]` instead of the whole critical path.
///
/// `min_nonfull` is a scan cursor. Invariant: every level `L` with
/// `pruned_floor < L < min_nonfull` holds exactly `limit` starts. Counters
/// only increase, so the invariant is stable; scans starting below the
/// cursor jump straight to it instead of re-walking known-full levels.
#[derive(Debug)]
struct IssueLedger {
    starts: FastMap<i64, u32>,
    /// Smallest level above `pruned_floor` not known to be full.
    min_nonfull: i64,
    /// Counters at or below this level have been discarded.
    pruned_floor: i64,
}

impl Default for IssueLedger {
    fn default() -> IssueLedger {
        IssueLedger {
            starts: FastMap::default(),
            min_nonfull: 0,
            pruned_floor: -1,
        }
    }
}

impl IssueLedger {
    /// Finds the first level after `base` with a free start slot, claims
    /// it, and returns it. Identical placement to a plain linear scan from
    /// `base + 1`; the cursor only skips levels already proven full.
    fn place(&mut self, base: i64, limit: usize) -> i64 {
        let mut start = base + 1;
        if start < self.min_nonfull {
            start = self.min_nonfull;
        }
        while self.is_full(start, limit) {
            start += 1;
        }
        let count = self.starts.entry(start).or_insert(0);
        *count += 1;
        if *count as usize >= limit && start == self.min_nonfull {
            self.min_nonfull += 1;
            while self.is_full(self.min_nonfull, limit) {
                self.min_nonfull += 1;
            }
        }
        start
    }

    fn is_full(&self, level: i64, limit: usize) -> bool {
        self.starts
            .get(&level)
            .is_some_and(|&n| n as usize >= limit)
    }

    /// Discards counters at or below `floor`; they are unreachable because
    /// scans always start above the (monotone) floor. Small floor steps
    /// remove exact keys; large jumps fall back to one retain sweep.
    fn prune_to(&mut self, floor: i64) {
        if floor <= self.pruned_floor {
            return;
        }
        let span = i128::from(floor) - i128::from(self.pruned_floor);
        if span <= self.starts.len() as i128 {
            for level in (self.pruned_floor + 1)..=floor {
                self.starts.remove(&level);
            }
        } else {
            self.starts.retain(|&level, _| level > floor);
        }
        self.pruned_floor = floor;
        if self.min_nonfull <= floor {
            self.min_nonfull = floor + 1;
        }
    }

    /// Live counter count — the quantity the leak regression test bounds.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.starts.len()
    }
}

impl<M: MemTable> LiveWellImpl<StreamSlots<M>> {
    /// Creates an analyzer for one pass under `config`.
    pub fn new(config: AnalysisConfig) -> LiveWellImpl<StreamSlots<M>> {
        LiveWellImpl::with_space(config, StreamSlots::default())
    }

    /// Processes every record of an iterator.
    pub fn process_all<'a, I>(&mut self, records: I)
    where
        I: IntoIterator<Item = &'a TraceRecord>,
    {
        for record in records {
            self.process(record);
        }
    }

    /// Processes a contiguous slice of records — the entry point for a
    /// resident trace (`Arc<[TraceRecord]>` derefs straight to a slice, so
    /// many analyzer passes can walk one decode).
    pub fn process_slice(&mut self, records: &[TraceRecord]) {
        for record in records {
            self.process(record);
        }
    }
}

impl<S: SlotSpace> LiveWellImpl<S> {
    fn with_space(config: AnalysisConfig, space: S) -> LiveWellImpl<S> {
        let predictor = match config.branch_policy() {
            BranchPolicy::Predict(kind) => Some(Predictor::new(kind)),
            _ => None,
        };
        LiveWellImpl {
            window: WindowLimiter::new(config.window()),
            profile: ParallelismProfile::new(config.profile_bins()),
            predictor,
            issue: config.issue_limit().map(|_| IssueLedger::default()),
            value_stats: config.value_stats().then(ValueStats::default),
            mem_ordering: MemOrdering::default(),
            config,
            space,
            floor: -1,
            deepest: -1,
            total_records: 0,
            placed: 0,
            syscalls: 0,
            firewalls: 0,
            branch_firewalls: 0,
            evictions: 0,
            peak_live_values: 0,
            class_placed: [0; OpClass::ALL.len()],
            window_stalls: 0,
            trace_identity: None,
        }
    }

    /// The configuration this analyzer runs under.
    pub(crate) fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Installs the trace identity fingerprint to embed in checkpoints.
    /// Call it once, before analysis, from whichever driver materialized
    /// the trace; the analyzer itself never hashes records.
    pub fn set_trace_identity(&mut self, identity: Option<TraceIdentity>) {
        self.trace_identity = identity;
    }

    /// The trace identity carried by this analyzer (from
    /// [`set_trace_identity`](Self::set_trace_identity) or a resumed
    /// version-2 checkpoint), if any.
    pub fn trace_identity(&self) -> Option<TraceIdentity> {
        self.trace_identity
    }

    /// Checks a resumed checkpoint's trace identity against the trace
    /// offered for the rest of the run.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::TraceMismatch`] when the checkpoint carries an
    /// identity and it differs from `current`. A checkpoint without an
    /// identity (version 1, or a streamed save) passes unverified.
    pub fn verify_trace_identity(&self, current: &TraceIdentity) -> Result<(), CheckpointError> {
        match self.trace_identity {
            Some(saved) if saved != *current => Err(CheckpointError::TraceMismatch {
                saved,
                current: *current,
            }),
            _ => Ok(()),
        }
    }

    /// Processes one trace record; returns the completion level the record
    /// was placed at, or `None` if it was not placed in the DDG (control
    /// instructions; system calls under the optimistic policy).
    ///
    /// This is the one placement kernel: the streaming analyzer runs it
    /// over `&TraceRecord`s, the interned one over an [`InternedTrace`]'s
    /// records, each with its own [`SlotSpace`].
    pub fn process<R: RecordView<Key = S::Key>>(&mut self, record: R) -> Option<u64> {
        self.total_records += 1;
        let class = record.class();

        // The instruction enters the window, displacing the oldest visible
        // instruction; the displaced level becomes a firewall below which
        // this (and every later) instruction must be placed.
        if let Some((displaced, ())) = self.window.make_room() {
            if displaced > self.floor {
                self.raise_floor(displaced);
                self.window_stalls += 1;
            }
        }

        let skip = !class.creates_value()
            || (class == OpClass::Syscall
                && self.config.syscall_policy() == SyscallPolicy::Optimistic);
        if skip {
            if class == OpClass::Syscall {
                self.syscalls += 1;
            }
            if class == OpClass::Branch {
                self.observe_branch(record);
            }
            self.window.push(None);
            return None;
        }

        // Ldest = MAX(Lsrc..., highestLevel [, Ddest]) + top
        //
        // Each operand is resolved once, straight from the packed record:
        // the slots found here are the ones updated after placement. A
        // location read twice by one record keeps two slots, so it gains
        // two readers, as in the explicit graph.
        let nsrc = record.nsrc();
        let mut src_slots = [S::Handle::default(); MAX_SRCS];
        let mut base = self.floor;
        for (i, slot) in src_slots.iter_mut().enumerate().take(nsrc) {
            *slot = self.space.resolve(record.src(i));
            base = base.max(self.space.peek(*slot).avail);
        }
        let dest = record.dest().map(|dest| {
            let slot = self.space.resolve(dest);
            if !self.space.renames(dest, &self.config) {
                // A location never written holds the preexisting record,
                // whose deepest use (-1) never raises the base.
                base = base.max(self.space.peek(slot).deepest_use);
            }
            slot
        });
        if self.config.memory_model().is_conservative() {
            // Without disambiguation a load may alias any earlier store,
            // and a store any earlier load or store.
            let bound = match class {
                OpClass::Load => self.mem_ordering.load_floor(),
                OpClass::Store => self.mem_ordering.store_floor(),
                _ => None,
            };
            if let Some((level, _)) = bound {
                base = base.max(level);
            }
        }
        let top = i64::from(self.config.latency().latency(class));
        let ldest = if let Some(limit) = self.config.issue_limit() {
            // Resource dependency: at most `limit` operations may start in
            // any level; slide the start level down to the first free slot.
            let ledger = self.issue.get_or_insert_with(IssueLedger::default);
            ledger.place(base, limit) + top - 1
        } else {
            base + top
        };

        self.profile.record(ldest as u64);
        self.deepest = self.deepest.max(ldest);
        self.placed += 1;
        self.class_placed[class as usize] += 1;
        if self.config.memory_model().is_conservative() {
            match class {
                OpClass::Load => self.mem_ordering.observe_load(ldest, usize::MAX),
                OpClass::Store => self.mem_ordering.observe_store(ldest, usize::MAX),
                _ => {}
            }
        }

        for &slot in &src_slots[..nsrc] {
            let entry = self.space.entry(slot);
            entry.deepest_use = entry.deepest_use.max(ldest);
            // Saturating: a location read more than u32::MAX times pins at
            // the ceiling instead of wrapping the sharing distribution.
            entry.readers = entry.readers.saturating_add(1);
        }
        if let Some(slot) = dest {
            // A slot that held no value yields the preexisting record,
            // which retirement ignores.
            let old = self.space.replace(
                slot,
                ValueRecord {
                    readers: 0,
                    avail: ldest,
                    deepest_use: ldest,
                },
            );
            if let Some(stats) = self.value_stats.as_mut() {
                stats.retire(&old);
            }
        }

        if class == OpClass::Syscall {
            // Only the conservative policy places system calls. Place a
            // firewall immediately after the deepest computation: no later
            // instruction may be placed higher. The syscall was just
            // placed above the old floor, so this is always a raise.
            self.syscalls += 1;
            self.raise_floor(self.deepest);
            self.firewalls += 1;
        }

        self.window.push(Some((ldest, ())));

        // The paper's working-set concern: "a very large memory (32 MBytes)
        // was required to hold the working set of Paragraph". Track the peak
        // so reports can size the live well.
        self.space.note_placed(&mut self.peak_live_values);
        self.enforce_live_well_cap();

        Some(ldest as u64)
    }

    /// Bounded live-well mode: when the memory table exceeds the configured
    /// cap, evict the coldest locations (smallest `deepest_use`, address as
    /// tie-break, so eviction is deterministic). An evicted location that is
    /// read again looks preexisting (level -1), which can only shorten
    /// dependences — the eviction count is reported as an accuracy caveat.
    /// Eviction runs in batches (down to 7/8 of the cap) so a table sitting
    /// at the cap does not pay a full scan per record. The selection itself
    /// is the table's [`MemTable::evict_coldest`]: summary-guided on the
    /// paged layout, `select_nth_unstable` on the flat one — both evict the
    /// exact same set the old full sort chose.
    fn enforce_live_well_cap(&mut self) {
        let Some(cap) = self.config.live_well_cap() else {
            return;
        };
        let held = self.space.mem_len();
        if held <= cap {
            return;
        }
        let target = cap - cap / 8;
        let excess = held - target;
        let LiveWellImpl {
            space, value_stats, ..
        } = self;
        let evicted = space.evict_coldest(excess, &mut |old| {
            if let Some(stats) = value_stats.as_mut() {
                stats.retire(&old);
            }
        });
        self.evictions += evicted;
        // Eviction is a cold path (at most once per record, usually far
        // rarer), so the macros' enabled check is negligible here.
        crate::counter!("livewell.evictions", evicted);
        crate::histogram!("livewell.eviction_batch", evicted);
    }

    /// Raises the placement floor. Centralized so the issue ledger can
    /// drop counters the scan can no longer reach — pruning eagerly (rather
    /// than lazily at the next placement) keeps the serialized state a pure
    /// function of the records processed, which checkpoint bit-transparency
    /// depends on.
    fn raise_floor(&mut self, level: i64) {
        debug_assert!(level >= self.floor, "the floor only rises");
        self.floor = level;
        if let Some(ledger) = self.issue.as_mut() {
            ledger.prune_to(level);
        }
    }

    /// Number of values currently held in the live well (the paper's working
    /// set concern: "billions of values will be entered into the live well").
    pub fn live_well_size(&self) -> usize {
        self.space.live_size()
    }

    /// The deepest completion level placed so far, if anything was placed.
    pub fn deepest_level(&self) -> Option<u64> {
        (self.deepest >= 0).then_some(self.deepest as u64)
    }

    /// Handles a conditional branch under the configured branch policy: a
    /// mispredicted (or unpredicted, under [`BranchPolicy::StallAlways`])
    /// branch firewalls the graph at the branch's resolution level.
    fn observe_branch<R: RecordView<Key = S::Key>>(&mut self, record: R) {
        let mispredicted = match self.config.branch_policy() {
            BranchPolicy::Perfect => false,
            BranchPolicy::StallAlways => true,
            BranchPolicy::Predict(_) => match (record.branch_info(), self.predictor.as_mut()) {
                (Some(info), Some(predictor)) => {
                    !predictor.predict_and_train(record.pc(), info.taken, info.target)
                }
                // No recorded outcome: treated as correctly predicted.
                _ => false,
            },
        };
        if mispredicted {
            // The branch resolves one level after its operands are ready;
            // nothing fetched past it may execute earlier.
            let nsrc = record.nsrc();
            let mut src_slots = [S::Handle::default(); MAX_SRCS];
            let mut resolve = self.floor;
            for (i, slot) in src_slots.iter_mut().enumerate().take(nsrc) {
                *slot = self.space.resolve(record.src(i));
                resolve = resolve.max(self.space.peek(*slot).avail);
            }
            let resolve = resolve + 1;
            for &slot in &src_slots[..nsrc] {
                // The branch read the value (WAR now extends to the resolve
                // level) but is not a sharing consumer: sharing counts
                // value-creating operations fired by a token (§2.3).
                let entry = self.space.branch_entry(slot, self.placed);
                entry.deepest_use = entry.deepest_use.max(resolve);
            }
            if resolve > self.floor {
                self.raise_floor(resolve);
                self.branch_firewalls += 1;
            }
        }
    }

    /// Number of branch-misprediction firewalls inserted so far.
    pub fn branch_firewalls(&self) -> u64 {
        self.branch_firewalls
    }

    /// Peak number of entries the live well has held (the paper's
    /// working-set concern; §3.2 discusses value-death tracking to bound
    /// this, we simply report it).
    pub fn peak_live_values(&self) -> usize {
        self.space.peak(self.peak_live_values, self.placed)
    }

    /// The running branch predictor, if the policy uses one.
    pub fn predictor(&self) -> Option<&Predictor> {
        self.predictor.as_ref()
    }

    /// A cheap running snapshot: `(instructions seen, operations placed,
    /// critical path length, available parallelism)`. Lets callers trace
    /// how parallelism accumulates with trace length without finishing the
    /// pass.
    pub fn snapshot(&self) -> (u64, u64, u64, f64) {
        let cp = (self.deepest + 1).max(0) as u64;
        let par = if cp == 0 {
            0.0
        } else {
            self.placed as f64 / cp as f64
        };
        (self.total_records, self.placed, cp, par)
    }

    /// Number of trace records this analyzer has processed. After a
    /// [`resume_from`](LiveWell::resume_from), this is the number of records
    /// the driver must skip in the trace before feeding new ones.
    pub fn records_processed(&self) -> u64 {
        self.total_records
    }

    /// Memory locations evicted so far under
    /// [`AnalysisConfig::live_well_cap`]. Non-zero counts mean reported
    /// parallelism is an *upper bound*: a read of an evicted location looks
    /// like a preexisting value and drops the true dependence.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Times the instruction window displaced an instruction above the
    /// current floor (i.e. the window genuinely constrained placement).
    /// Telemetry-only and not checkpointed: counts since this analyzer was
    /// constructed or resumed.
    pub fn window_stalls(&self) -> u64 {
        self.window_stalls
    }

    /// Publishes the analyzer's current state into a telemetry registry:
    /// gauges for floor/deepest/live-well size, counters brought up to the
    /// analyzer's own totals, and an occupancy observation. Called
    /// periodically by drivers (per progress tick or checkpoint), so the hot
    /// loop itself carries no per-record instrumentation beyond its own
    /// plain fields.
    pub fn publish_telemetry(&self, registry: &crate::telemetry::Registry) {
        let (total, placed, cp, _) = self.snapshot();
        registry.gauge("livewell.records").set(total as i64);
        registry.gauge("livewell.placed").set(placed as i64);
        registry.gauge("livewell.critical_path").set(cp as i64);
        registry.gauge("livewell.floor").set(self.floor);
        registry
            .gauge("livewell.size")
            .set(self.live_well_size() as i64);
        registry
            .gauge("livewell.peak_size")
            .set(self.peak_live_values() as i64);
        if let Some(cap) = self.config.live_well_cap() {
            registry.gauge("livewell.cap").set(cap as i64);
            // Occupancy in tenths of a percent: integer-valued, histogram
            // buckets resolve the interesting 50%..100% range well. The
            // table may transiently exceed the cap between eviction beats
            // (eviction triggers strictly above the cap, and embedders can
            // publish mid-record), so clamp: occupancy is a fill fraction,
            // not an overshoot gauge.
            let permille =
                ((self.space.mem_len() as u64).saturating_mul(1000) / cap.max(1) as u64).min(1000);
            registry
                .histogram("livewell.occupancy_permille")
                .observe(permille);
        }
        registry
            .histogram("livewell.occupancy")
            .observe(self.live_well_size() as u64);
        set_counter(registry, "livewell.window_stalls", self.window_stalls);
        set_counter(registry, "livewell.firewalls", self.firewalls);
        set_counter(registry, "livewell.branch_firewalls", self.branch_firewalls);
        set_counter(registry, "livewell.syscalls", self.syscalls);
    }

    /// Serializes the complete analyzer state as a checkpoint file
    /// (see [`checkpoint`](crate::checkpoint) for the format).
    ///
    /// Identical states produce identical bytes: every map is written in
    /// sorted key order, so a checkpoint can be compared or content-hashed.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the writer fails.
    pub fn save_checkpoint<W: Write>(&self, mut out: W) -> Result<(), CheckpointError> {
        let mut body = Vec::new();
        w_u64(&mut body, checkpoint::config_fingerprint(&self.config));

        // Version 2: the trace identity, written right after the config
        // fingerprint so a wrong-trace resume is rejected before any state
        // is even parsed into an analyzer.
        match self.trace_identity {
            Some(identity) => {
                w_u64(&mut body, 1);
                w_u64(&mut body, u64::from(identity.prefix_crc));
                w_u64(&mut body, identity.records);
            }
            None => w_u64(&mut body, 0),
        }

        w_u64(&mut body, self.total_records);
        w_u64(&mut body, self.placed);
        w_u64(&mut body, self.syscalls);
        w_u64(&mut body, self.firewalls);
        w_u64(&mut body, self.branch_firewalls);
        w_u64(&mut body, self.evictions);
        w_u64(&mut body, self.peak_live_values() as u64);
        w_i64(&mut body, self.floor);
        w_i64(&mut body, self.deepest);

        w_u64(&mut body, self.class_placed.len() as u64);
        for &count in &self.class_placed {
            w_u64(&mut body, count);
        }

        for i in 0..REGS {
            match self.space.reg(i) {
                Some(record) => {
                    w_u64(&mut body, 1);
                    w_value_record(&mut body, record);
                }
                None => w_u64(&mut body, 0),
            }
        }

        // Sorted-address order: the bytes are independent of the table's
        // in-memory layout, which is what keeps PGCP stable across the
        // paged, flat and interned implementations.
        w_u64(&mut body, self.space.mem_len() as u64);
        self.space.for_each_mem_sorted(&mut |addr, record| {
            w_u64(&mut body, addr);
            w_value_record(&mut body, record);
        });

        let slots: Vec<Option<i64>> = self.window.slot_levels().collect();
        w_u64(&mut body, slots.len() as u64);
        for slot in slots {
            match slot {
                Some(level) => {
                    w_u64(&mut body, 1);
                    w_i64(&mut body, level);
                }
                None => w_u64(&mut body, 0),
            }
        }

        let (counts, bin_width, total_ops, max_level) = self.profile.raw_parts();
        w_u64(&mut body, counts.len() as u64);
        for &count in counts {
            w_u64(&mut body, count);
        }
        w_u64(&mut body, bin_width);
        w_u64(&mut body, total_ops);
        match max_level {
            Some(level) => {
                w_u64(&mut body, 1);
                w_u64(&mut body, level);
            }
            None => w_u64(&mut body, 0),
        }

        match &self.predictor {
            Some(predictor) => {
                let (counters, history, predictions, mispredictions) = predictor.raw_state();
                w_u64(&mut body, 1);
                w_u64(&mut body, counters.len() as u64);
                body.extend_from_slice(counters);
                w_u64(&mut body, history);
                w_u64(&mut body, predictions);
                w_u64(&mut body, mispredictions);
            }
            None => w_u64(&mut body, 0),
        }

        match &self.issue {
            Some(ledger) => {
                w_u64(&mut body, 1);
                let mut levels: Vec<i64> = ledger.starts.keys().copied().collect();
                levels.sort_unstable();
                w_u64(&mut body, levels.len() as u64);
                for level in levels {
                    w_i64(&mut body, level);
                    w_u64(
                        &mut body,
                        u64::from(ledger.starts.get(&level).copied().unwrap_or(0)),
                    );
                }
            }
            None => w_u64(&mut body, 0),
        }

        match &self.value_stats {
            Some(stats) => {
                w_u64(&mut body, 1);
                w_dist(&mut body, &stats.lifetimes);
                w_dist(&mut body, &stats.sharing);
            }
            None => w_u64(&mut body, 0),
        }

        // Node ids are only meaningful to the explicit-graph builder; the
        // streaming analyzer stores usize::MAX, so only levels persist.
        for bound in [
            self.mem_ordering.deepest_store,
            self.mem_ordering.deepest_load,
        ] {
            match bound {
                Some((level, _)) => {
                    w_u64(&mut body, 1);
                    w_i64(&mut body, level);
                }
                None => w_u64(&mut body, 0),
            }
        }

        out.write_all(checkpoint::MAGIC)
            .map_err(CheckpointError::Io)?;
        out.write_all(&[checkpoint::VERSION])
            .map_err(CheckpointError::Io)?;
        out.write_all(&body).map_err(CheckpointError::Io)?;
        out.write_all(&crc32(&body).to_le_bytes())
            .map_err(CheckpointError::Io)?;
        Ok(())
    }
}

impl<M: MemTable> LiveWellImpl<StreamSlots<M>> {
    /// Reconstructs an analyzer from a checkpoint written by
    /// [`save_checkpoint`](LiveWell::save_checkpoint). The supplied `config`
    /// must be the one the checkpoint was taken under (verified by
    /// fingerprint); feeding the resumed analyzer the remaining trace
    /// records produces a report identical to an uninterrupted pass.
    ///
    /// # Errors
    ///
    /// * [`CheckpointError::BadMagic`] / [`CheckpointError::UnsupportedVersion`]
    ///   — not a checkpoint this build can read.
    /// * [`CheckpointError::Truncated`] / [`CheckpointError::ChecksumMismatch`]
    ///   — the file was damaged in storage or transit.
    /// * [`CheckpointError::ConfigMismatch`] — `config` differs from the
    ///   checkpointed configuration.
    /// * [`CheckpointError::Corrupt`] — the bytes decode to an impossible
    ///   analyzer state.
    /// * [`CheckpointError::LimitExceeded`] — the file tripped a resource
    ///   governor limit (default limits with `PARAGRAPH_MAX_*` environment
    ///   overrides; see [`Limits::from_env`]).
    pub fn resume_from<R: Read>(
        input: R,
        config: AnalysisConfig,
    ) -> Result<LiveWellImpl<StreamSlots<M>>, CheckpointError> {
        let mut governor = ResourceGovernor::new(Limits::from_env());
        Self::resume_from_governed(input, config, &mut governor)
    }

    /// Like [`resume_from`](LiveWellImpl::resume_from) with an explicit
    /// [`ResourceGovernor`]. Every length the file *declares* is validated
    /// against the governor's caps before anything is allocated for it — a
    /// checkpoint claiming a multi-gigabyte live well is rejected while
    /// the claim is still just a varint.
    ///
    /// # Errors
    ///
    /// As [`resume_from`](LiveWellImpl::resume_from), with limit
    /// violations surfacing as [`CheckpointError::LimitExceeded`].
    pub fn resume_from_governed<R: Read>(
        mut input: R,
        config: AnalysisConfig,
        governor: &mut ResourceGovernor,
    ) -> Result<LiveWellImpl<StreamSlots<M>>, CheckpointError> {
        let mut magic = [0u8; 4];
        input.read_exact(&mut magic)?;
        if &magic != checkpoint::MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let mut version = [0u8; 1];
        input.read_exact(&mut version)?;
        if !(checkpoint::MIN_VERSION..=checkpoint::VERSION).contains(&version[0]) {
            return Err(CheckpointError::UnsupportedVersion(version[0]));
        }
        // The body is read through a hard cap so a hostile or runaway
        // stream cannot balloon the buffer past the allocation budget.
        let cap = governor.limits().max_alloc_bytes;
        let mut rest = Vec::new();
        input
            .by_ref()
            .take(cap.saturating_add(1))
            .read_to_end(&mut rest)
            .map_err(CheckpointError::from)?;
        if rest.len() as u64 > cap {
            return Err(CheckpointError::LimitExceeded(LimitViolation {
                limit: "max-alloc-bytes",
                what: "checkpoint body",
                actual: rest.len() as u64,
                cap,
            }));
        }
        governor
            .charge_alloc("checkpoint body", rest.len() as u64)
            .map_err(CheckpointError::LimitExceeded)?;
        if rest.len() < 4 {
            return Err(CheckpointError::Truncated);
        }
        let (body, crc_bytes) = rest.split_at(rest.len() - 4);
        let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        let computed = crc32(body);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }

        let mut r = body;
        let saved = r_u64(&mut r)?;
        let current = checkpoint::config_fingerprint(&config);
        if saved != current {
            return Err(CheckpointError::ConfigMismatch { saved, current });
        }

        // Version 1 predates the trace identity; it loads with none.
        let trace_identity = if version[0] >= 2 && r_flag(&mut r)? {
            let prefix_crc = r_u64(&mut r)?;
            let prefix_crc = u32::try_from(prefix_crc)
                .map_err(|_| CheckpointError::Corrupt("trace identity CRC exceeds 32 bits"))?;
            Some(TraceIdentity {
                prefix_crc,
                records: r_u64(&mut r)?,
            })
        } else {
            None
        };

        let total_records = r_u64(&mut r)?;
        let placed = r_u64(&mut r)?;
        let syscalls = r_u64(&mut r)?;
        let firewalls = r_u64(&mut r)?;
        let branch_firewalls = r_u64(&mut r)?;
        let evictions = r_u64(&mut r)?;
        let peak_live_values = r_usize(&mut r)?;
        let floor = r_i64(&mut r)?;
        let deepest = r_i64(&mut r)?;

        let class_count = r_usize(&mut r)?;
        if class_count != OpClass::ALL.len() {
            return Err(CheckpointError::Corrupt(
                "operation-class table has the wrong arity",
            ));
        }
        let mut class_placed = [0u64; OpClass::ALL.len()];
        for slot in &mut class_placed {
            *slot = r_u64(&mut r)?;
        }

        let mut regs = [ValueRecord::preexisting(); REGS];
        let mut live_regs = 0u64;
        for (i, slot) in regs.iter_mut().enumerate() {
            if r_flag(&mut r)? {
                *slot = r_value_record(&mut r)?;
                live_regs |= 1 << i;
            }
        }

        let mem_len = r_usize(&mut r)?;
        check_declared_count(governor, "memory table length", mem_len, r.len())?;
        let mut mem = M::default();
        let mut prev_addr: Option<u64> = None;
        for _ in 0..mem_len {
            let addr = r_u64(&mut r)?;
            if prev_addr.is_some_and(|p| p >= addr) {
                return Err(CheckpointError::Corrupt("memory table not sorted"));
            }
            prev_addr = Some(addr);
            mem.insert(addr, r_value_record(&mut r)?);
        }

        let slot_count = r_usize(&mut r)?;
        check_declared_count(governor, "window slot table length", slot_count, r.len())?;
        governor
            .charge_alloc("window slot table", (slot_count as u64).saturating_mul(16))
            .map_err(CheckpointError::LimitExceeded)?;
        let mut levels = Vec::with_capacity(slot_count.min(1 << 20));
        for _ in 0..slot_count {
            levels.push(if r_flag(&mut r)? {
                Some(r_i64(&mut r)?)
            } else {
                None
            });
        }
        let window = WindowLimiter::from_slot_levels(config.window(), levels)
            .ok_or(CheckpointError::Corrupt("window slots exceed window size"))?;

        let bin_count = r_usize(&mut r)?;
        check_declared_count(governor, "profile bin table length", bin_count, r.len())?;
        governor
            .charge_alloc("profile bin table", (bin_count as u64).saturating_mul(8))
            .map_err(CheckpointError::LimitExceeded)?;
        let mut counts = Vec::with_capacity(bin_count.min(1 << 20));
        for _ in 0..bin_count {
            counts.push(r_u64(&mut r)?);
        }
        let bin_width = r_u64(&mut r)?;
        let total_ops = r_u64(&mut r)?;
        let max_level = if r_flag(&mut r)? {
            Some(r_u64(&mut r)?)
        } else {
            None
        };
        let profile = ParallelismProfile::from_raw_parts(
            config.profile_bins(),
            counts,
            bin_width,
            total_ops,
            max_level,
        )
        .ok_or(CheckpointError::Corrupt(
            "parallelism profile is inconsistent",
        ))?;

        let predictor = if r_flag(&mut r)? {
            let BranchPolicy::Predict(kind) = config.branch_policy() else {
                return Err(CheckpointError::Corrupt(
                    "checkpoint has a predictor but the policy uses none",
                ));
            };
            let counter_len = r_usize(&mut r)?;
            check_declared_count(governor, "predictor counter length", counter_len, r.len())?;
            governor
                .charge_alloc("predictor counters", counter_len as u64)
                .map_err(CheckpointError::LimitExceeded)?;
            let mut counters = vec![0u8; counter_len];
            r.read_exact(&mut counters)?;
            let history = r_u64(&mut r)?;
            let predictions = r_u64(&mut r)?;
            let mispredictions = r_u64(&mut r)?;
            Some(
                Predictor::from_raw_state(kind, counters, history, predictions, mispredictions)
                    .ok_or(CheckpointError::Corrupt("predictor state is inconsistent"))?,
            )
        } else {
            if matches!(config.branch_policy(), BranchPolicy::Predict(_)) {
                return Err(CheckpointError::Corrupt(
                    "policy predicts branches but the checkpoint has no predictor",
                ));
            }
            None
        };

        let issue = if r_flag(&mut r)? {
            if config.issue_limit().is_none() {
                return Err(CheckpointError::Corrupt(
                    "checkpoint has issue counters but no issue limit is configured",
                ));
            }
            let entries = r_usize(&mut r)?;
            check_declared_count(governor, "issue counter table length", entries, r.len())?;
            let mut starts = FastMap::default();
            let mut prev: Option<i64> = None;
            for _ in 0..entries {
                let level = r_i64(&mut r)?;
                if prev.is_some_and(|p| p >= level) {
                    return Err(CheckpointError::Corrupt("issue counters not sorted"));
                }
                prev = Some(level);
                let count = u32::try_from(r_u64(&mut r)?)
                    .map_err(|_| CheckpointError::Corrupt("issue counter overflows u32"))?;
                starts.insert(level, count);
            }
            // Checkpoints from builds that predate ledger pruning may carry
            // counters at or below the floor; drop them so resumed and
            // uninterrupted runs converge to the same serialized state. On
            // checkpoints from pruning builds this is a no-op.
            starts.retain(|&level, _| level > floor);
            Some(IssueLedger {
                starts,
                // Cursor knowledge is not checkpointed — it is rebuilt
                // lazily and never changes placement results.
                min_nonfull: floor + 1,
                pruned_floor: floor,
            })
        } else {
            None
        };

        let value_stats = if r_flag(&mut r)? {
            if !config.value_stats() {
                return Err(CheckpointError::Corrupt(
                    "checkpoint has value statistics but they are not configured",
                ));
            }
            Some(ValueStats {
                lifetimes: r_dist(&mut r)?,
                sharing: r_dist(&mut r)?,
            })
        } else {
            if config.value_stats() {
                return Err(CheckpointError::Corrupt(
                    "value statistics configured but missing from the checkpoint",
                ));
            }
            None
        };

        let mut mem_ordering = MemOrdering::default();
        if r_flag(&mut r)? {
            mem_ordering.deepest_store = Some((r_i64(&mut r)?, usize::MAX));
        }
        if r_flag(&mut r)? {
            mem_ordering.deepest_load = Some((r_i64(&mut r)?, usize::MAX));
        }

        if !r.is_empty() {
            return Err(CheckpointError::Corrupt("trailing bytes after the state"));
        }

        Ok(LiveWellImpl {
            config,
            space: StreamSlots {
                regs,
                live_regs,
                mem,
            },
            floor,
            deepest,
            window,
            profile,
            predictor,
            issue,
            value_stats,
            mem_ordering,
            total_records,
            placed,
            syscalls,
            firewalls,
            branch_firewalls,
            evictions,
            peak_live_values,
            class_placed,
            // Deliberately not restored: telemetry-only, counts since resume.
            window_stalls: 0,
            trace_identity,
        })
    }

    /// Exports this analyzer's final state as a [`SegmentOutcome`] for the
    /// parallel analyzer (see [`crate::parallel`]): the segment's relative
    /// floor/deepest levels, its exact per-level placement counts, the
    /// memory addresses it touched, and its counter totals.
    ///
    /// Returns `None` when the profile has coarsened (bin width > 1) —
    /// per-level counts are no longer recoverable, so the segment cannot be
    /// spliced exactly. The parallel driver prevents this by configuring
    /// segment analyzers with an effectively unbounded bin budget
    /// ([`crate::parallel::segment_config`]).
    pub(crate) fn into_segment_outcome(self) -> Option<SegmentOutcome> {
        let (counts, bin_width, total_ops, _max_level) = self.profile.raw_parts();
        if bin_width != 1 {
            return None;
        }
        debug_assert_eq!(total_ops, self.placed);
        let level_counts = counts.to_vec();
        let mut addrs = Vec::with_capacity(self.space.mem.len());
        self.space.mem.for_each_sorted(|addr, _| addrs.push(addr));
        Some(SegmentOutcome {
            floor: self.floor,
            deepest: self.deepest,
            level_counts,
            addrs,
            total_records: self.total_records,
            placed: self.placed,
            syscalls: self.syscalls,
            firewalls: self.firewalls,
            branch_firewalls: self.branch_firewalls,
            window_stalls: self.window_stalls,
            class_placed: self.class_placed,
        })
    }

    /// Splices the outcome of the trace segment that followed this
    /// analyzer's records onto this analyzer's state.
    ///
    /// Correctness rests on the *firewall-cut* property: this analyzer's
    /// last processed record must be a conservative system call, whose
    /// firewall raised the floor to the deepest placed level. At that point
    /// every live level — value availabilities, deepest uses, window slots,
    /// memory-ordering bounds, issue-ledger counters — is at or below the
    /// floor, so the `MAX(..., floor, ...)` placement rule absorbs all of
    /// it and a fresh analyzer over the remaining records places every
    /// operation exactly `floor + 1` levels lower than the sequential pass
    /// would. Merging therefore shifts the segment's levels up by
    /// `delta = floor + 1` and adds its counters; the memory-address union
    /// reproduces the sequential peak live-well size. See
    /// [`crate::parallel`] for the eligibility conditions the driver
    /// enforces before cutting.
    pub fn merge_segment(&mut self, seg: &SegmentOutcome) {
        debug_assert_eq!(
            self.floor, self.deepest,
            "segments must be cut immediately after a conservative syscall"
        );
        let delta = self.floor + 1;
        debug_assert!(delta >= 0);
        for (level, &count) in seg.level_counts.iter().enumerate() {
            if count > 0 {
                // Binned identically to the sequential pass: profile
                // coarsening is a pure function of the level/count multiset,
                // independent of recording order (pairwise bin folding is an
                // exact rebin).
                self.profile
                    .record_many((delta + level as i64) as u64, count);
            }
        }
        self.deepest = self.deepest.max(delta + seg.deepest);
        self.floor = delta + seg.floor;
        self.total_records += seg.total_records;
        self.placed += seg.placed;
        self.syscalls += seg.syscalls;
        self.firewalls += seg.firewalls;
        self.branch_firewalls += seg.branch_firewalls;
        self.window_stalls += seg.window_stalls;
        for (mine, theirs) in self.class_placed.iter_mut().zip(seg.class_placed.iter()) {
            *mine += theirs;
        }
        // Under the parallel-eligible configurations the memory table only
        // grows (no cap, no evictions) and only within placed records, so
        // the sequential peak is 64 registers plus the final table size —
        // the union of every segment's touched addresses.
        for &addr in &seg.addrs {
            self.space.mem.get_or_insert_preexisting(addr);
        }
        if self.placed > 0 {
            self.space.note_placed(&mut self.peak_live_values);
        }
    }
}

impl<S: SlotSpace> LiveWellImpl<S> {
    /// Finishes the pass and produces the report.
    pub fn finish(mut self) -> AnalysisReport {
        // Retire every value still live so the distributions are complete.
        let peak_live_values = self.peak_live_values();
        if let Some(stats) = self.value_stats.as_mut() {
            self.space
                .for_each_value(&mut |record| stats.retire(record));
        }
        let value_stats = self.value_stats.map(|s| (s.lifetimes, s.sharing));
        AnalysisReport::new(
            self.config,
            self.profile,
            self.total_records,
            self.placed,
            self.syscalls,
            self.firewalls,
            self.branch_firewalls,
            self.evictions,
            peak_live_values,
            self.predictor,
            value_stats,
            self.class_placed,
        )
    }
}

/// The live well over an [`InternedTrace`]: the same kernel as
/// [`LiveWell`], run over dense slots into one flat table of value
/// records (see [`crate::slots`]). Its reports and checkpoints are
/// byte-identical to [`LiveWell`]'s over the records the trace was
/// interned from.
///
/// # Examples
///
/// ```
/// use paragraph_core::{AnalysisConfig, InternedWell};
/// use paragraph_trace::{synthetic, InternedTrace, SegmentMap};
///
/// let trace = InternedTrace::from_records(&synthetic::figure1(), SegmentMap::all_data());
/// let mut well = InternedWell::new(&trace, AnalysisConfig::dataflow_limit());
/// well.process_next(usize::MAX);
/// assert_eq!(well.finish().critical_path_length(), 4);
/// ```
#[derive(Debug)]
pub struct InternedWell<'t> {
    trace: &'t InternedTrace,
    pass: InternedPass<'t>,
}

/// A pass without a live-well cap runs over the flat table. A capped pass
/// needs an exact membership count and address-ordered eviction, which
/// the streaming analyzer already keeps, so it runs [`LiveWell`] over
/// records rebuilt from the trace. One lives per sweep cell and is never
/// moved while it runs, so neither variant is boxed: a box would put a
/// pointer in front of the flat kernel's state.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum InternedPass<'t> {
    Flat(LiveWellImpl<FlatSlots<'t>>),
    Capped(LiveWell),
}

impl<'t> InternedWell<'t> {
    /// Creates an analyzer for one pass over `trace` under `config`. As
    /// with [`LiveWell::new`], `config` carries the segment map; the
    /// trace's own is [`InternedTrace::segments`].
    pub fn new(trace: &'t InternedTrace, config: AnalysisConfig) -> InternedWell<'t> {
        let pass = if config.live_well_cap().is_some() {
            InternedPass::Capped(LiveWell::new(config))
        } else {
            let space = FlatSlots::new(trace, &config);
            InternedPass::Flat(LiveWellImpl::with_space(config, space))
        };
        InternedWell { trace, pass }
    }

    /// Processes the next `n` records of the trace (fewer at its end);
    /// returns how many were processed.
    pub fn process_next(&mut self, n: usize) -> usize {
        let trace = self.trace;
        let start = self.records_processed() as usize;
        let end = start.saturating_add(n).min(trace.len());
        match &mut self.pass {
            InternedPass::Flat(well) => {
                for record in trace.range(start..end) {
                    well.process(record);
                }
            }
            InternedPass::Capped(well) => {
                for record in &trace.records()[start..end] {
                    well.process(&trace.to_record(record));
                }
            }
        }
        end - start
    }

    fn records_processed(&self) -> u64 {
        match &self.pass {
            InternedPass::Flat(well) => well.records_processed(),
            InternedPass::Capped(well) => well.records_processed(),
        }
    }

    /// See [`LiveWellImpl::window_stalls`].
    pub fn window_stalls(&self) -> u64 {
        match &self.pass {
            InternedPass::Flat(well) => well.window_stalls(),
            InternedPass::Capped(well) => well.window_stalls(),
        }
    }

    /// See [`LiveWellImpl::live_well_size`].
    pub fn live_well_size(&self) -> usize {
        match &self.pass {
            InternedPass::Flat(well) => well.live_well_size(),
            InternedPass::Capped(well) => well.live_well_size(),
        }
    }

    /// See [`LiveWellImpl::peak_live_values`].
    pub fn peak_live_values(&self) -> usize {
        match &self.pass {
            InternedPass::Flat(well) => well.peak_live_values(),
            InternedPass::Capped(well) => well.peak_live_values(),
        }
    }

    /// Writes the checkpoint [`LiveWell::save_checkpoint`] would write
    /// after the same records.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] if the writer fails.
    pub fn save_checkpoint<W: Write>(&self, out: W) -> Result<(), CheckpointError> {
        match &self.pass {
            InternedPass::Flat(well) => well.save_checkpoint(out),
            InternedPass::Capped(well) => well.save_checkpoint(out),
        }
    }

    /// Finishes the pass and produces the report.
    pub fn finish(self) -> AnalysisReport {
        match self.pass {
            InternedPass::Flat(well) => well.finish(),
            InternedPass::Capped(well) => well.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RenameSet, WindowSize};
    use paragraph_isa::LatencyModel;
    use paragraph_trace::{synthetic, Loc};

    fn run(records: &[TraceRecord], config: AnalysisConfig) -> AnalysisReport {
        let mut lw = LiveWell::new(config);
        lw.process_all(records);
        lw.finish()
    }

    #[test]
    fn figure1_dataflow_profile() {
        // Figure 1 / §2.3: profile [4, 2, 1, 1], critical path 4.
        let report = run(&synthetic::figure1(), AnalysisConfig::dataflow_limit());
        assert_eq!(report.critical_path_length(), 4);
        assert_eq!(
            report.profile().exact_counts(),
            Some(vec![4, 2, 1, 1]),
            "parallelism profile must match the paper's worked example"
        );
    }

    #[test]
    fn figure2_storage_dependency_profile() {
        // Figure 2 / §2.3: profile [2, 1, 2, 1, 1, 1], critical path 6.
        let config = AnalysisConfig::dataflow_limit().with_renames(RenameSet::none());
        let report = run(&synthetic::figure2(), config);
        assert_eq!(report.critical_path_length(), 6);
        assert_eq!(
            report.profile().exact_counts(),
            Some(vec![2, 1, 2, 1, 1, 1])
        );
    }

    #[test]
    fn figure2_with_register_renaming_recovers_figure1() {
        let config = AnalysisConfig::dataflow_limit().with_renames(RenameSet::registers_only());
        let report = run(&synthetic::figure2(), config);
        assert_eq!(report.critical_path_length(), 4);
        assert_eq!(report.profile().exact_counts(), Some(vec![4, 2, 1, 1]));
    }

    #[test]
    fn chain_is_fully_serial() {
        let report = run(&synthetic::chain(100), AnalysisConfig::dataflow_limit());
        assert_eq!(report.critical_path_length(), 100);
        assert_eq!(report.available_parallelism(), 1.0);
    }

    #[test]
    fn independent_ops_all_land_in_level_zero() {
        let report = run(
            &synthetic::independent(50),
            AnalysisConfig::dataflow_limit(),
        );
        assert_eq!(report.critical_path_length(), 1);
        assert_eq!(report.available_parallelism(), 50.0);
    }

    #[test]
    fn interleaved_chains_have_chain_count_parallelism() {
        let report = run(
            &synthetic::interleaved_chains(8, 25),
            AnalysisConfig::dataflow_limit(),
        );
        assert_eq!(report.critical_path_length(), 25);
        assert_eq!(report.available_parallelism(), 8.0);
    }

    #[test]
    fn window_of_one_serializes_independent_ops() {
        let config = AnalysisConfig::dataflow_limit().with_window(WindowSize::bounded(1));
        let report = run(&synthetic::independent(20), config);
        assert_eq!(report.critical_path_length(), 20);
        assert_eq!(report.available_parallelism(), 1.0);
    }

    #[test]
    fn window_bounds_level_width() {
        for w in [2usize, 3, 7] {
            let config = AnalysisConfig::dataflow_limit().with_window(WindowSize::bounded(w));
            let report = run(&synthetic::independent(50), config);
            let counts = report.profile().exact_counts().unwrap();
            assert!(
                counts.iter().all(|&c| c <= w as u64),
                "window {w} must bound level width, got {counts:?}"
            );
            assert_eq!(counts.iter().sum::<u64>(), 50);
        }
    }

    #[test]
    fn window_monotonically_exposes_parallelism() {
        let trace = synthetic::random_trace(2000, 11);
        let mut last = 0.0;
        for w in [1usize, 4, 16, 64, 256, 1024, 4096] {
            let config = AnalysisConfig::dataflow_limit().with_window(WindowSize::bounded(w));
            let par = run(&trace, config).available_parallelism();
            assert!(
                par >= last - 1e-9,
                "parallelism should not decrease with window size ({w}: {par} < {last})"
            );
            last = par;
        }
        let unlimited = run(&trace, AnalysisConfig::dataflow_limit()).available_parallelism();
        assert!(unlimited >= last - 1e-9);
    }

    #[test]
    fn conservative_syscall_inserts_firewall() {
        // Two independent ops with a syscall between them: under the
        // conservative policy the second op must land below the syscall.
        let records = vec![
            TraceRecord::compute(0, OpClass::IntAlu, &[], Loc::int(1)),
            TraceRecord::syscall(1, &[], None),
            TraceRecord::compute(2, OpClass::IntAlu, &[], Loc::int(2)),
        ];
        let report = run(&records, AnalysisConfig::dataflow_limit());
        assert_eq!(report.firewalls(), 1);
        assert_eq!(report.critical_path_length(), 2);
        assert_eq!(report.profile().exact_counts(), Some(vec![2, 1]));

        let optimistic =
            AnalysisConfig::dataflow_limit().with_syscall_policy(SyscallPolicy::Optimistic);
        let report = run(&records, optimistic);
        assert_eq!(report.firewalls(), 0);
        assert_eq!(report.critical_path_length(), 1);
        assert_eq!(report.placed_ops(), 2); // the syscall is ignored
        assert_eq!(report.syscalls(), 1); // ...but still counted
    }

    #[test]
    fn optimistic_never_exceeds_conservative_critical_path() {
        let trace = synthetic::random_trace(3000, 5);
        let cons = run(&trace, AnalysisConfig::dataflow_limit());
        let opt = run(
            &trace,
            AnalysisConfig::dataflow_limit().with_syscall_policy(SyscallPolicy::Optimistic),
        );
        assert!(opt.critical_path_length() <= cons.critical_path_length());
    }

    #[test]
    fn latencies_stretch_the_critical_path() {
        // A chain of 3 multiplies: 3 * 6 = 18 levels under Table 1.
        let records = vec![
            TraceRecord::compute(0, OpClass::IntMul, &[], Loc::int(1)),
            TraceRecord::compute(1, OpClass::IntMul, &[Loc::int(1)], Loc::int(1)),
            TraceRecord::compute(2, OpClass::IntMul, &[Loc::int(1)], Loc::int(1)),
        ];
        let report = run(&records, AnalysisConfig::dataflow_limit());
        assert_eq!(report.critical_path_length(), 18);

        let unit = AnalysisConfig::dataflow_limit().with_latency(LatencyModel::unit());
        let report = run(&records, unit);
        assert_eq!(report.critical_path_length(), 3);
    }

    #[test]
    fn memory_war_dependency_without_renaming() {
        // load from addr 0, then store a new (independent) value to addr 0.
        // Without memory renaming the store must follow the load's use.
        let records = vec![
            TraceRecord::load(0, 0, None, Loc::int(1)),
            TraceRecord::compute(1, OpClass::IntAlu, &[Loc::int(1)], Loc::int(2)),
            TraceRecord::compute(2, OpClass::IntAlu, &[], Loc::int(3)),
            TraceRecord::store(3, 0, Loc::int(3), None),
        ];
        let no_rename = AnalysisConfig::dataflow_limit().with_renames(RenameSet::none());
        let report = run(&records, no_rename);
        // load@0, alu@1, li@0, store must wait for alu's use of the old
        // value? No: Ddest of mem[0] is max(load level)=0 ... the load reads
        // mem[0]; the *use* of mem[0]'s value is the load itself (level 0).
        // store: max(floor, src li@0, Ddest=0) + 1 = 1... but WAW with the
        // original value's creation (-1) is subsumed. Critical path is the
        // alu chain: 2.
        assert_eq!(report.critical_path_length(), 2);

        // Now make a later reader deepen the old value's use:
        let records = vec![
            TraceRecord::load(0, 0, None, Loc::int(1)), // reads mem[0] @0
            TraceRecord::compute(1, OpClass::IntAlu, &[Loc::int(1)], Loc::int(2)), // @1
            TraceRecord::load(2, 0, None, Loc::int(4)), // reads mem[0] @0
            TraceRecord::compute(3, OpClass::IntAlu, &[Loc::int(2)], Loc::int(5)), // @2
            TraceRecord::compute(4, OpClass::IntAlu, &[Loc::int(5), Loc::int(4)], Loc::int(6)), // @3 reads mem[0]-value via r4? no: reads r5,r4
            TraceRecord::store(5, 0, Loc::int(6), None), // overwrites mem[0]
        ];
        let no_rename = AnalysisConfig::dataflow_limit().with_renames(RenameSet::none());
        let report = run(&records, no_rename.clone());
        // The store depends on r6 (@4): placed at 5. The WAR on mem[0]
        // (deepest use @0 by the loads) is subsumed. Renaming changes nothing
        // here:
        let renamed = run(
            &records,
            AnalysisConfig::dataflow_limit().with_renames(RenameSet::all()),
        );
        assert_eq!(
            report.critical_path_length(),
            renamed.critical_path_length()
        );
    }

    #[test]
    fn war_on_register_delays_overwrite() {
        // r1 is created at level 0, read by a long-latency op completing at
        // level 12; overwriting r1 without renaming must land after 12.
        let records = vec![
            TraceRecord::compute(0, OpClass::IntAlu, &[], Loc::int(1)), // @0
            TraceRecord::compute(1, OpClass::IntDiv, &[Loc::int(1)], Loc::int(2)), // @12
            TraceRecord::compute(2, OpClass::IntAlu, &[], Loc::int(1)), // WAR
        ];
        let no_rename = AnalysisConfig::dataflow_limit().with_renames(RenameSet::none());
        let report = run(&records, no_rename);
        // Ldest(overwrite) = max(-1 floor, Ddest=12) + 1 = 13 -> CP 14.
        assert_eq!(report.critical_path_length(), 14);

        let renamed = run(&records, AnalysisConfig::dataflow_limit());
        assert_eq!(renamed.critical_path_length(), 13); // just the div chain
    }

    #[test]
    fn waw_without_intervening_read_still_orders() {
        // Two writes to r1, no reads. Without renaming the second write must
        // be placed after the first value's creation (deepest_use == avail).
        let records = vec![
            TraceRecord::compute(0, OpClass::IntDiv, &[], Loc::int(1)), // completes @11
            TraceRecord::compute(1, OpClass::IntAlu, &[], Loc::int(1)), // WAW
        ];
        let no_rename = AnalysisConfig::dataflow_limit().with_renames(RenameSet::none());
        let report = run(&records, no_rename);
        assert_eq!(report.critical_path_length(), 13); // placed @12, after the div
        let renamed = run(&records, AnalysisConfig::dataflow_limit());
        assert_eq!(renamed.critical_path_length(), 12); // just the div
    }

    #[test]
    fn stack_vs_data_renaming_is_segment_sensitive() {
        use paragraph_trace::SegmentMap;
        // A memory word is read *deep* in the graph (its load waits for a
        // divide chain), then overwritten by an independent store. With
        // registers+stack renamed, only the data-segment version orders.
        let mk = |addr: u64| {
            vec![
                TraceRecord::compute(0, OpClass::IntDiv, &[], Loc::int(1)), // @11
                TraceRecord::load(1, addr, Some(Loc::int(1)), Loc::int(2)), // @12, deep read
                TraceRecord::compute(2, OpClass::IntAlu, &[], Loc::int(3)), // @0
                TraceRecord::store(3, addr, Loc::int(3), None),             // WAR on mem[addr]
            ]
        };
        let segments = SegmentMap::new(100, 1000);
        let config = AnalysisConfig::dataflow_limit()
            .with_renames(RenameSet::registers_and_stack())
            .with_segments(segments);
        let stack_report = run(&mk(2000), config.clone());
        let data_report = run(&mk(50), config);
        assert!(
            data_report.critical_path_length() > stack_report.critical_path_length(),
            "data-segment WAR must order when only stack is renamed"
        );
    }

    #[test]
    fn preexisting_values_do_not_delay_computation() {
        // A load of a never-written DATA word is placed in the first level.
        let records = vec![TraceRecord::load(0, 77, None, Loc::int(1))];
        let report = run(&records, AnalysisConfig::dataflow_limit());
        assert_eq!(report.critical_path_length(), 1);
        assert_eq!(report.profile().exact_counts(), Some(vec![1]));
    }

    #[test]
    fn branches_are_observed_but_not_placed() {
        let records = vec![
            TraceRecord::compute(0, OpClass::IntAlu, &[], Loc::int(1)),
            TraceRecord::branch(1, &[Loc::int(1)]),
            TraceRecord::jump(2, &[]),
        ];
        let report = run(&records, AnalysisConfig::dataflow_limit());
        assert_eq!(report.total_records(), 3);
        assert_eq!(report.placed_ops(), 1);
    }

    #[test]
    fn live_well_size_tracks_locations() {
        let mut lw = LiveWell::new(AnalysisConfig::dataflow_limit());
        assert_eq!(lw.live_well_size(), 0);
        lw.process(&TraceRecord::compute(
            0,
            OpClass::IntAlu,
            &[Loc::int(3)],
            Loc::int(1),
        ));
        // r3 (preexisting) and r1 (created).
        assert_eq!(lw.live_well_size(), 2);
        lw.process(&TraceRecord::store(1, 9, Loc::int(1), None));
        assert_eq!(lw.live_well_size(), 3);
        assert_eq!(lw.deepest_level(), Some(1));
    }

    #[test]
    fn stall_always_branches_serialize_around_resolution() {
        use crate::branch::BranchPolicy;
        // Independent ops around a branch: with perfect control flow they
        // share level 0; stalling on every branch pushes the later one down.
        let records = vec![
            TraceRecord::compute(0, OpClass::IntAlu, &[], Loc::int(1)),
            TraceRecord::branch_outcome(1, &[Loc::int(1)], true, 0),
            TraceRecord::compute(2, OpClass::IntAlu, &[], Loc::int(2)),
        ];
        let perfect = run(&records, AnalysisConfig::dataflow_limit());
        assert_eq!(perfect.critical_path_length(), 1);
        assert_eq!(perfect.branch_firewalls(), 0);

        let stall = AnalysisConfig::dataflow_limit().with_branch_policy(BranchPolicy::StallAlways);
        let report = run(&records, stall);
        // Branch resolves at level 1 (its source completes at 0); the next
        // op lands at 2.
        assert_eq!(report.critical_path_length(), 3);
        assert_eq!(report.branch_firewalls(), 1);
    }

    #[test]
    fn predicted_branches_do_not_firewall() {
        use crate::branch::{BranchPolicy, PredictorKind};
        // A loop-like stream of always-taken branches: always-taken predicts
        // them all; never-taken misses them all.
        let mut records = Vec::new();
        for i in 0..20u64 {
            records.push(TraceRecord::compute(
                2 * i,
                OpClass::IntAlu,
                &[],
                Loc::int(1),
            ));
            records.push(TraceRecord::branch_outcome(
                2 * i + 1,
                &[Loc::int(1)],
                true,
                0,
            ));
        }
        let good = run(
            &records,
            AnalysisConfig::dataflow_limit()
                .with_branch_policy(BranchPolicy::Predict(PredictorKind::AlwaysTaken)),
        );
        assert_eq!(good.branch_firewalls(), 0);
        assert_eq!(good.predictor().unwrap().mispredictions(), 0);
        let bad = run(
            &records,
            AnalysisConfig::dataflow_limit()
                .with_branch_policy(BranchPolicy::Predict(PredictorKind::NeverTaken)),
        );
        assert_eq!(bad.predictor().unwrap().mispredictions(), 20);
        assert!(bad.critical_path_length() > good.critical_path_length());
    }

    #[test]
    fn branches_without_outcomes_are_treated_as_predicted() {
        use crate::branch::{BranchPolicy, PredictorKind};
        let records = vec![
            TraceRecord::compute(0, OpClass::IntAlu, &[], Loc::int(1)),
            TraceRecord::branch(1, &[Loc::int(1)]), // no outcome recorded
            TraceRecord::compute(2, OpClass::IntAlu, &[], Loc::int(2)),
        ];
        let report = run(
            &records,
            AnalysisConfig::dataflow_limit()
                .with_branch_policy(BranchPolicy::Predict(PredictorKind::NeverTaken)),
        );
        assert_eq!(report.branch_firewalls(), 0);
        assert_eq!(report.critical_path_length(), 1);
    }

    #[test]
    fn issue_limit_bounds_starts_per_level() {
        // 30 independent unit-latency ops on a 4-wide machine: ceil(30/4)
        // levels, at most 4 completions per level.
        let config = AnalysisConfig::dataflow_limit()
            .with_latency(LatencyModel::unit())
            .with_issue_limit(4);
        let report = run(&synthetic::independent(30), config);
        assert_eq!(report.critical_path_length(), 8); // ceil(30/4)
        let counts = report.profile().exact_counts().unwrap();
        assert!(counts.iter().all(|&c| c <= 4));
        assert_eq!(counts.iter().sum::<u64>(), 30);
    }

    #[test]
    fn issue_limit_one_fully_serializes() {
        let config = AnalysisConfig::dataflow_limit()
            .with_latency(LatencyModel::unit())
            .with_issue_limit(1);
        let report = run(&synthetic::independent(12), config);
        assert_eq!(report.critical_path_length(), 12);
        assert_eq!(report.available_parallelism(), 1.0);
    }

    #[test]
    fn issue_limit_is_monotone() {
        let trace = synthetic::random_trace(1500, 17);
        let mut last = u64::MAX;
        for limit in [1usize, 2, 4, 8, 16, 64] {
            let config = AnalysisConfig::dataflow_limit().with_issue_limit(limit);
            let cp = run(&trace, config).critical_path_length();
            assert!(cp <= last, "limit {limit}: {cp} > {last}");
            last = cp;
        }
        let unlimited = run(&trace, AnalysisConfig::dataflow_limit()).critical_path_length();
        assert!(unlimited <= last);
    }

    #[test]
    fn issue_ledger_stays_bounded_on_million_level_critical_paths() {
        // Regression: the per-level start counters used to grow one entry
        // per DDG level and were never pruned, so issue-limited runs leaked
        // memory linearly in critical-path length. A serial chain under a
        // bounded window drives the floor up right behind the frontier; the
        // ledger must track only the live band above the floor, not all
        // 10^6 levels.
        let n = 1_000_000usize;
        let window = 1024usize;
        let config = AnalysisConfig::dataflow_limit()
            .with_latency(LatencyModel::unit())
            .with_issue_limit(1)
            .with_window(WindowSize::bounded(window));
        let mut lw = LiveWell::new(config);
        let mut peak_entries = 0usize;
        for (i, record) in synthetic::chain(n).iter().enumerate() {
            lw.process(record);
            if i % 4096 == 0 {
                if let Some(ledger) = &lw.issue {
                    peak_entries = peak_entries.max(ledger.len());
                }
            }
        }
        if let Some(ledger) = &lw.issue {
            peak_entries = peak_entries.max(ledger.len());
        }
        // The live band is at most the window depth plus the in-flight
        // frontier; 4x leaves slack without letting a leak sneak through
        // (an unpruned ledger would hold ~10^6 entries here).
        assert!(
            peak_entries <= 4 * window,
            "issue ledger leaked: peak {peak_entries} entries for window {window}"
        );
        let report = lw.finish();
        assert_eq!(report.critical_path_length(), n as u64);
    }

    #[test]
    fn issue_ledger_cursor_matches_linear_scan_semantics() {
        // The cursor only skips levels already proven full, so placements
        // (and therefore the whole profile) must be identical to the naive
        // scan the tests above pin down. Mix firewalls (conservative
        // syscalls) into an issue-limited run so pruning and scanning
        // interleave, then cross-check against the explicit-graph-free
        // expectations: every level holds at most `limit` starts and the
        // op count is conserved.
        let mut records = Vec::new();
        for i in 0..600u64 {
            if i % 97 == 0 {
                records.push(TraceRecord::syscall(i, &[], None));
            } else {
                records.push(TraceRecord::compute(
                    i,
                    OpClass::IntAlu,
                    &[],
                    Loc::int((i % 30 + 1) as u8),
                ));
            }
        }
        let config = AnalysisConfig::dataflow_limit()
            .with_latency(LatencyModel::unit())
            .with_issue_limit(3)
            .with_syscall_policy(SyscallPolicy::Conservative);
        let report = run(&records, config);
        let counts = report.profile().exact_counts().unwrap();
        assert!(counts.iter().all(|&c| c <= 3), "issue limit violated");
        assert_eq!(counts.iter().sum::<u64>(), report.placed_ops());
    }

    #[test]
    fn occupancy_permille_is_clamped_to_1000() {
        use crate::telemetry::Registry;
        let config = AnalysisConfig::dataflow_limit().with_live_well_cap(64);
        let mut lw = LiveWell::new(config);
        // Force the table past its cap, as can happen transiently between
        // eviction beats: occupancy must still read as a fill fraction.
        for addr in 0..200u64 {
            lw.space.mem.insert(addr, ValueRecord::preexisting());
        }
        let registry = Registry::new();
        lw.publish_telemetry(&registry);
        let hist = registry.histogram("livewell.occupancy_permille");
        assert_eq!(hist.count(), 1);
        assert!(
            hist.sum() <= 1000,
            "occupancy_permille exceeded 1000: {}",
            hist.sum()
        );
    }

    #[test]
    fn value_stats_capture_lifetimes_and_sharing() {
        // One producer read by three consumers, all unit latency.
        let records = vec![
            TraceRecord::compute(0, OpClass::IntAlu, &[], Loc::int(1)), // @0
            TraceRecord::compute(1, OpClass::IntAlu, &[Loc::int(1)], Loc::int(2)), // @1
            TraceRecord::compute(2, OpClass::IntAlu, &[Loc::int(1)], Loc::int(3)), // @1
            TraceRecord::compute(3, OpClass::IntAlu, &[Loc::int(1)], Loc::int(4)), // @1
        ];
        let config = AnalysisConfig::dataflow_limit()
            .with_latency(LatencyModel::unit())
            .with_value_stats(true);
        let report = run(&records, config);
        let sharing = report.sharing_degrees().unwrap();
        assert_eq!(sharing.count(), 4);
        assert_eq!(sharing.frequency(3), 1); // the producer
        assert_eq!(sharing.frequency(0), 3); // the leaves
        let lifetimes = report.value_lifetimes().unwrap();
        assert_eq!(lifetimes.frequency(1), 1); // producer lives 1 level
        assert_eq!(lifetimes.frequency(0), 3); // leaves die at creation
    }

    #[test]
    fn value_stats_match_explicit_graph() {
        use crate::ddg::Ddg;
        let trace = synthetic::random_trace(800, 23);
        let config = AnalysisConfig::dataflow_limit().with_value_stats(true);
        let report = run(&trace, config.clone());
        let ddg = Ddg::from_records(&trace, &config);
        assert_eq!(
            report.value_lifetimes().unwrap(),
            ddg.value_lifetimes(),
            "streaming and explicit lifetimes must agree"
        );
        assert_eq!(
            report.sharing_degrees().unwrap(),
            &ddg.sharing_degrees(),
            "streaming and explicit sharing must agree"
        );
    }

    #[test]
    fn value_stats_disabled_by_default() {
        let report = run(&synthetic::chain(5), AnalysisConfig::dataflow_limit());
        assert!(report.value_lifetimes().is_none());
        assert!(report.sharing_degrees().is_none());
    }

    #[test]
    fn no_disambiguation_serializes_memory_traffic() {
        use crate::memmodel::MemoryModel;
        // Two loads and two stores at distinct addresses: independent under
        // perfect disambiguation, chained without it.
        let records = vec![
            TraceRecord::store(0, 10, Loc::int(1), None),
            TraceRecord::load(1, 20, None, Loc::int(2)),
            TraceRecord::store(2, 30, Loc::int(3), None),
            TraceRecord::load(3, 40, None, Loc::int(4)),
        ];
        let perfect = run(&records, AnalysisConfig::dataflow_limit());
        assert_eq!(perfect.critical_path_length(), 1);
        let config =
            AnalysisConfig::dataflow_limit().with_memory_model(MemoryModel::NoDisambiguation);
        let report = run(&records, config);
        // store@0; load waits for it @1; store waits for both @2; load @3.
        assert_eq!(report.critical_path_length(), 4);
        assert_eq!(report.profile().exact_counts(), Some(vec![1, 1, 1, 1]));
    }

    #[test]
    fn no_disambiguation_leaves_alu_traffic_alone() {
        use crate::memmodel::MemoryModel;
        let config =
            AnalysisConfig::dataflow_limit().with_memory_model(MemoryModel::NoDisambiguation);
        let report = run(&synthetic::independent(20), config);
        assert_eq!(report.critical_path_length(), 1);
    }

    #[test]
    fn loads_between_stores_may_overlap_without_disambiguation() {
        use crate::memmodel::MemoryModel;
        // Loads only conflict with stores, not each other.
        let records = vec![
            TraceRecord::load(0, 1, None, Loc::int(1)),
            TraceRecord::load(1, 2, None, Loc::int(2)),
            TraceRecord::load(2, 3, None, Loc::int(3)),
        ];
        let config =
            AnalysisConfig::dataflow_limit().with_memory_model(MemoryModel::NoDisambiguation);
        let report = run(&records, config);
        assert_eq!(report.critical_path_length(), 1);
        assert_eq!(report.available_parallelism(), 3.0);
    }

    #[test]
    fn snapshots_track_the_running_analysis() {
        let mut lw = LiveWell::new(AnalysisConfig::dataflow_limit());
        assert_eq!(lw.snapshot(), (0, 0, 0, 0.0));
        for record in synthetic::interleaved_chains(4, 10) {
            lw.process(&record);
        }
        let (seen, placed, cp, par) = lw.snapshot();
        assert_eq!(seen, 40);
        assert_eq!(placed, 40);
        assert_eq!(cp, 10);
        assert_eq!(par, 4.0);
        let report = lw.finish();
        assert_eq!(report.critical_path_length(), cp);
    }

    /// Checkpoint at `split`, resume, finish both ways: the reports (and the
    /// checkpoint bytes themselves) must be bit-identical.
    fn assert_checkpoint_transparent(
        records: &[TraceRecord],
        config: AnalysisConfig,
        split: usize,
    ) {
        let mut uninterrupted = LiveWell::new(config.clone());
        uninterrupted.process_all(records);

        let mut first = LiveWell::new(config.clone());
        first.process_all(&records[..split]);
        let mut bytes = Vec::new();
        first.save_checkpoint(&mut bytes).unwrap();
        let mut again = Vec::new();
        first.save_checkpoint(&mut again).unwrap();
        assert_eq!(bytes, again, "checkpointing must be deterministic");

        let mut resumed = LiveWell::resume_from(&bytes[..], config).unwrap();
        assert_eq!(resumed.records_processed(), split as u64);
        resumed.process_all(&records[split..]);

        let mut resumed_bytes = Vec::new();
        resumed.save_checkpoint(&mut resumed_bytes).unwrap();
        let mut direct_bytes = Vec::new();
        uninterrupted.save_checkpoint(&mut direct_bytes).unwrap();
        assert_eq!(
            resumed_bytes, direct_bytes,
            "resumed state must equal the uninterrupted state"
        );
        assert_eq!(resumed.finish().to_json(), uninterrupted.finish().to_json());
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_at_the_dataflow_limit() {
        let trace = synthetic::random_trace(1200, 41);
        assert_checkpoint_transparent(&trace, AnalysisConfig::dataflow_limit(), 700);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_under_every_feature() {
        use crate::branch::{BranchPolicy, PredictorKind};
        use crate::memmodel::MemoryModel;
        let trace = synthetic::random_trace(900, 7);
        let config = AnalysisConfig::dataflow_limit()
            .with_window(WindowSize::bounded(48))
            .with_issue_limit(4)
            .with_branch_policy(BranchPolicy::Predict(PredictorKind::Gshare {
                index_bits: 8,
            }))
            .with_value_stats(true)
            .with_memory_model(MemoryModel::NoDisambiguation)
            .with_renames(RenameSet::none());
        for split in [1, 450, 899] {
            assert_checkpoint_transparent(&trace, config.clone(), split);
        }
    }

    #[test]
    fn checkpoint_rejects_a_different_configuration() {
        let mut lw = LiveWell::new(AnalysisConfig::dataflow_limit());
        lw.process_all(&synthetic::chain(20));
        let mut bytes = Vec::new();
        lw.save_checkpoint(&mut bytes).unwrap();
        let other = AnalysisConfig::dataflow_limit().with_window(WindowSize::bounded(8));
        assert!(matches!(
            LiveWell::resume_from(&bytes[..], other),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn checkpoint_rejects_damage() {
        let mut lw = LiveWell::new(AnalysisConfig::dataflow_limit());
        lw.process_all(&synthetic::random_trace(100, 3));
        let mut bytes = Vec::new();
        lw.save_checkpoint(&mut bytes).unwrap();

        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            LiveWell::resume_from(&flipped[..], AnalysisConfig::dataflow_limit()),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            LiveWell::resume_from(&bytes[..bytes.len() - 9], AnalysisConfig::dataflow_limit()),
            Err(CheckpointError::ChecksumMismatch { .. } | CheckpointError::Truncated)
        ));

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            LiveWell::resume_from(&wrong_magic[..], AnalysisConfig::dataflow_limit()),
            Err(CheckpointError::BadMagic)
        ));

        let mut wrong_version = bytes;
        wrong_version[4] = 9;
        assert!(matches!(
            LiveWell::resume_from(&wrong_version[..], AnalysisConfig::dataflow_limit()),
            Err(CheckpointError::UnsupportedVersion(9))
        ));
    }

    /// Builds a checkpoint that is perfectly well-formed up to the memory
    /// table, then *declares* a table of `mem_len` entries it never
    /// supplies. The loader must reject the claim while it is still just a
    /// varint — before sizing any buffer from it.
    fn checkpoint_declaring_mem_len(config: &AnalysisConfig, mem_len: u64) -> Vec<u8> {
        let mut body = Vec::new();
        w_u64(&mut body, checkpoint::config_fingerprint(config));
        w_u64(&mut body, 0); // no trace identity
        for _ in 0..7 {
            w_u64(&mut body, 0); // totals and counters
        }
        w_i64(&mut body, 0); // floor
        w_i64(&mut body, 0); // deepest
        w_u64(&mut body, OpClass::ALL.len() as u64);
        for _ in OpClass::ALL {
            w_u64(&mut body, 0);
        }
        for _ in 0..64 {
            w_u64(&mut body, 0); // empty register files
        }
        w_u64(&mut body, mem_len);
        let mut file = Vec::new();
        file.extend_from_slice(checkpoint::MAGIC);
        file.push(checkpoint::VERSION);
        file.extend_from_slice(&body);
        file.extend_from_slice(&crc32(&body).to_le_bytes());
        file
    }

    #[test]
    fn checkpoint_declaring_a_huge_live_well_is_rejected_before_allocation() {
        use paragraph_trace::govern::{Limits, ResourceGovernor};
        let config = AnalysisConfig::dataflow_limit();
        let file = checkpoint_declaring_mem_len(&config, 1 << 32);
        let mut governor = ResourceGovernor::new(Limits::default());
        let err = LiveWell::resume_from_governed(&file[..], config, &mut governor).unwrap_err();
        let CheckpointError::LimitExceeded(v) = err else {
            panic!("expected LimitExceeded, got {err:?}");
        };
        assert_eq!(v.what, "memory table length");
        assert_eq!(v.actual, 1 << 32);
        // Nothing was ever allocated on the claim's behalf: the peak covers
        // only the (tiny) body buffer, not the declared four-billion-entry
        // table.
        assert!(
            governor.peak_alloc() < 4096,
            "peak {}",
            governor.peak_alloc()
        );
    }

    #[test]
    fn checkpoint_declared_count_past_the_body_is_corrupt_not_fatal() {
        // A declared count that fits the governor cap but exceeds the
        // remaining body is plain corruption, caught before the read loop.
        let config = AnalysisConfig::dataflow_limit();
        let file = checkpoint_declaring_mem_len(&config, 100_000);
        assert!(matches!(
            LiveWell::resume_from(&file[..], config),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn checkpoint_body_over_the_alloc_cap_is_rejected_without_buffering() {
        use paragraph_trace::govern::{Limits, ResourceGovernor};
        let mut lw = LiveWell::new(AnalysisConfig::dataflow_limit());
        lw.process_all(&synthetic::random_trace(200, 9));
        let mut bytes = Vec::new();
        lw.save_checkpoint(&mut bytes).unwrap();

        let mut governor = ResourceGovernor::new(Limits {
            max_alloc_bytes: 16,
            ..Limits::default()
        });
        let err = LiveWell::resume_from_governed(
            &bytes[..],
            AnalysisConfig::dataflow_limit(),
            &mut governor,
        )
        .unwrap_err();
        let CheckpointError::LimitExceeded(v) = err else {
            panic!("expected LimitExceeded, got {err:?}");
        };
        assert_eq!(v.what, "checkpoint body");
        assert_eq!(v.limit, "max-alloc-bytes");
    }

    #[test]
    fn governed_resume_accepts_a_legitimate_checkpoint() {
        use paragraph_trace::govern::{Limits, ResourceGovernor};
        let trace = synthetic::random_trace(400, 13);
        let mut lw = LiveWell::new(AnalysisConfig::dataflow_limit());
        lw.process_all(&trace[..200]);
        let mut bytes = Vec::new();
        lw.save_checkpoint(&mut bytes).unwrap();

        let mut governor = ResourceGovernor::new(Limits::default());
        let mut resumed = LiveWell::resume_from_governed(
            &bytes[..],
            AnalysisConfig::dataflow_limit(),
            &mut governor,
        )
        .unwrap();
        resumed.process_all(&trace[200..]);
        let mut uninterrupted = LiveWell::new(AnalysisConfig::dataflow_limit());
        uninterrupted.process_all(&trace);
        assert_eq!(resumed.finish().to_json(), uninterrupted.finish().to_json());
    }

    #[test]
    fn version_1_checkpoints_still_load() {
        // Forge a version-1 file from a version-2 save without an identity:
        // drop the identity flag byte after the config fingerprint, rewrite
        // the version byte, recompute the CRC. Old checkpoints must keep
        // loading — and resume with no identity to verify.
        let trace = synthetic::random_trace(300, 11);
        let mut lw = LiveWell::new(AnalysisConfig::dataflow_limit());
        lw.process_all(&trace[..150]);
        let mut v2 = Vec::new();
        lw.save_checkpoint(&mut v2).unwrap();

        let body = &v2[5..v2.len() - 4];
        let fp_len = 1 + body.iter().take_while(|b| **b & 0x80 != 0).count();
        assert_eq!(body[fp_len], 0, "no-identity save must write flag 0");
        let mut v1_body = body.to_vec();
        v1_body.remove(fp_len);
        let mut v1 = Vec::new();
        v1.extend_from_slice(checkpoint::MAGIC);
        v1.push(1);
        v1.extend_from_slice(&v1_body);
        v1.extend_from_slice(&crc32(&v1_body).to_le_bytes());

        let mut resumed = LiveWell::resume_from(&v1[..], AnalysisConfig::dataflow_limit()).unwrap();
        assert_eq!(resumed.trace_identity(), None);
        assert!(resumed
            .verify_trace_identity(&checkpoint::TraceIdentity::of_records(&trace))
            .is_ok());
        resumed.process_all(&trace[150..]);
        let mut direct = LiveWell::new(AnalysisConfig::dataflow_limit());
        direct.process_all(&trace);
        assert_eq!(resumed.finish().to_json(), direct.finish().to_json());
    }

    #[test]
    fn trace_identity_round_trips_and_rejects_the_wrong_trace() {
        let trace = synthetic::random_trace(400, 23);
        let other = synthetic::random_trace(400, 24);
        let identity = checkpoint::TraceIdentity::of_records(&trace);

        let mut lw = LiveWell::new(AnalysisConfig::dataflow_limit());
        lw.set_trace_identity(Some(identity));
        lw.process_all(&trace[..200]);
        let mut bytes = Vec::new();
        lw.save_checkpoint(&mut bytes).unwrap();

        let resumed = LiveWell::resume_from(&bytes[..], AnalysisConfig::dataflow_limit()).unwrap();
        assert_eq!(resumed.trace_identity(), Some(identity));
        assert!(resumed.verify_trace_identity(&identity).is_ok());
        let wrong = checkpoint::TraceIdentity::of_records(&other);
        assert!(matches!(
            resumed.verify_trace_identity(&wrong),
            Err(CheckpointError::TraceMismatch { saved, current })
                if saved == identity && current == wrong
        ));

        // The identity must survive a resume: a re-save is still guarded.
        let mut resave = Vec::new();
        resumed.save_checkpoint(&mut resave).unwrap();
        assert_eq!(bytes, resave);
    }

    #[test]
    fn live_well_cap_bounds_memory_and_reports_evictions() {
        // Stores to 500 distinct addresses under a cap of 64: the table must
        // stay bounded and the loss must be reported.
        let records: Vec<TraceRecord> = (0..500)
            .map(|i| TraceRecord::store(i, 8 * i, Loc::int(1), None))
            .collect();
        let config = AnalysisConfig::dataflow_limit().with_live_well_cap(64);
        let mut lw = LiveWell::new(config);
        lw.process_all(&records);
        assert!(
            lw.space.mem.len() <= 64,
            "table exceeded the cap: {}",
            lw.space.mem.len()
        );
        assert!(lw.evictions() > 0);
        let report = lw.finish();
        assert!(report.live_well_evictions() > 0);
        assert!(report.to_string().contains("CAVEAT"));
        assert!(report.to_json().contains("\"live_well_evictions\":"));
    }

    #[test]
    fn uncapped_runs_report_zero_evictions() {
        let report = run(
            &synthetic::random_trace(500, 9),
            AnalysisConfig::dataflow_limit(),
        );
        assert_eq!(report.live_well_evictions(), 0);
        assert!(!report.to_string().contains("CAVEAT"));
    }

    #[test]
    fn capped_analysis_still_checkpoints_transparently() {
        let records: Vec<TraceRecord> = (0..400)
            .map(|i| TraceRecord::store(i, 16 * (i % 200), Loc::int(1), None))
            .collect();
        let config = AnalysisConfig::dataflow_limit().with_live_well_cap(32);
        assert_checkpoint_transparent(&records, config, 250);
    }

    #[test]
    fn eviction_order_is_deterministic() {
        let records: Vec<TraceRecord> = (0..300)
            .map(|i| TraceRecord::store(i, 4 * i, Loc::int(1), None))
            .collect();
        let config = AnalysisConfig::dataflow_limit().with_live_well_cap(50);
        let run_once = || {
            let mut lw = LiveWell::new(config.clone());
            lw.process_all(&records);
            let mut bytes = Vec::new();
            lw.save_checkpoint(&mut bytes).unwrap();
            bytes
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn reader_counts_saturate_at_the_u32_boundary() {
        // Regression (satellite): a location read more than u32::MAX times
        // used to wrap to 0 and corrupt the sharing distribution. Pin the
        // counter one below the ceiling and read twice: the first read
        // reaches u32::MAX, the second must stay there.
        let config = AnalysisConfig::dataflow_limit().with_value_stats(true);
        let mut lw = LiveWell::new(config);
        lw.process(&TraceRecord::store(0, 40, Loc::int(1), None));
        lw.space.mem.get_or_insert_preexisting(40).readers = u32::MAX - 1;
        lw.process(&TraceRecord::load(1, 40, None, Loc::int(2)));
        assert_eq!(lw.space.mem.get(40).map(|r| r.readers), Some(u32::MAX));
        lw.process(&TraceRecord::load(2, 40, None, Loc::int(3)));
        assert_eq!(
            lw.space.mem.get(40).map(|r| r.readers),
            Some(u32::MAX),
            "reader count must saturate, not wrap"
        );
        let report = lw.finish();
        let sharing = report.sharing_degrees().unwrap();
        assert_eq!(
            sharing.frequency(u64::from(u32::MAX)),
            1,
            "the saturated value must land in the top sharing bucket, not 0"
        );
    }

    /// The paged (default) and flat (legacy) layouts must be externally
    /// indistinguishable: identical reports and identical PGCP bytes.
    fn assert_layouts_equivalent(records: &[TraceRecord], config: AnalysisConfig) {
        let mut paged = LiveWell::new(config.clone());
        let mut flat = FlatLiveWell::new(config.clone());
        paged.process_all(records);
        flat.process_all(records);
        assert_eq!(paged.live_well_size(), flat.live_well_size());
        assert_eq!(paged.evictions(), flat.evictions());

        let mut paged_bytes = Vec::new();
        paged.save_checkpoint(&mut paged_bytes).unwrap();
        let mut flat_bytes = Vec::new();
        flat.save_checkpoint(&mut flat_bytes).unwrap();
        assert_eq!(
            paged_bytes, flat_bytes,
            "PGCP bytes must be layout-independent"
        );
        assert_eq!(paged.finish().to_json(), flat.finish().to_json());
    }

    #[test]
    fn paged_and_flat_layouts_produce_identical_reports_and_checkpoints() {
        let trace = synthetic::random_trace(1500, 29);
        assert_layouts_equivalent(&trace, AnalysisConfig::dataflow_limit());
        assert_layouts_equivalent(
            &trace,
            AnalysisConfig::dataflow_limit()
                .with_renames(RenameSet::none())
                .with_value_stats(true)
                .with_window(WindowSize::bounded(64)),
        );
        // Bounded mode exercises eviction on both layouts.
        assert_layouts_equivalent(
            &trace,
            AnalysisConfig::dataflow_limit().with_live_well_cap(48),
        );
    }

    #[test]
    fn checkpoints_resume_across_layouts() {
        // A checkpoint written by one layout must resume under the other
        // (the PR's compatibility story for in-flight analyses): old flat
        // checkpoints resume into the paged analyzer and vice versa, and
        // both converge to the uninterrupted serialized state.
        let trace = synthetic::random_trace(1000, 31);
        let config = AnalysisConfig::dataflow_limit().with_value_stats(true);
        let split = 600;

        let mut flat = FlatLiveWell::new(config.clone());
        flat.process_all(&trace[..split]);
        let mut flat_ckpt = Vec::new();
        flat.save_checkpoint(&mut flat_ckpt).unwrap();

        let mut paged = LiveWell::resume_from(&flat_ckpt[..], config.clone()).unwrap();
        assert_eq!(paged.records_processed(), split as u64);
        paged.process_all(&trace[split..]);

        let mut uninterrupted = LiveWell::new(config.clone());
        uninterrupted.process_all(&trace);
        let mut resumed_bytes = Vec::new();
        paged.save_checkpoint(&mut resumed_bytes).unwrap();
        let mut direct_bytes = Vec::new();
        uninterrupted.save_checkpoint(&mut direct_bytes).unwrap();
        assert_eq!(resumed_bytes, direct_bytes);

        // And the mirror direction: paged checkpoint, flat resume.
        let mut paged_half = LiveWell::new(config.clone());
        paged_half.process_all(&trace[..split]);
        let mut paged_ckpt = Vec::new();
        paged_half.save_checkpoint(&mut paged_ckpt).unwrap();
        assert_eq!(paged_ckpt, flat_ckpt, "mid-run checkpoints must match too");
        let mut flat_resumed = FlatLiveWell::resume_from(&paged_ckpt[..], config).unwrap();
        flat_resumed.process_all(&trace[split..]);
        let mut flat_final = Vec::new();
        flat_resumed.save_checkpoint(&mut flat_final).unwrap();
        assert_eq!(flat_final, direct_bytes);
    }

    #[test]
    fn process_returns_placement_level() {
        let mut lw = LiveWell::new(AnalysisConfig::dataflow_limit());
        let l0 = lw.process(&TraceRecord::compute(0, OpClass::IntAlu, &[], Loc::int(1)));
        assert_eq!(l0, Some(0));
        let l1 = lw.process(&TraceRecord::compute(
            1,
            OpClass::IntMul,
            &[Loc::int(1)],
            Loc::int(2),
        ));
        assert_eq!(l1, Some(6));
        assert_eq!(lw.process(&TraceRecord::branch(2, &[Loc::int(2)])), None);
    }
}
