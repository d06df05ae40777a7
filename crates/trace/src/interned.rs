//! Interned traces: every operand as a dense `u32` slot.
//!
//! A sweep re-analyzes one resident trace under many configurations, so
//! whatever the analyzer does per operand is paid once per cell. An
//! [`InternedTrace`] pays the location lookup once per trace instead: each
//! operand is an index into a single slot space, where slots `0..64` are
//! the register file by flat index (integer registers `0..32`,
//! floating-point `32..64`) and each memory word gets a dense id from 64
//! up, in first-touch order. The analyzer then keeps one flat table of
//! value records indexed by slot, with no register/memory distinction and
//! no address lookup on its hot path.
//!
//! Everything that depends on the real addresses stays recoverable: the
//! trace carries the id-to-address table, the program counter and branch
//! target of every record (through a table of distinct pc/target pairs),
//! and the [`SegmentMap`] the trace ran under. An interned record weighs
//! 24 bytes, half a [`TraceRecord`].
//!
//! # Examples
//!
//! ```
//! use paragraph_trace::{InternedTrace, Loc, SegmentMap, TraceRecord};
//!
//! let records = [
//!     TraceRecord::load(0, 4096, Some(Loc::int(29)), Loc::int(4)),
//!     TraceRecord::store(1, 4096, Loc::int(4), Some(Loc::int(29))),
//! ];
//! let trace = InternedTrace::from_records(&records, SegmentMap::all_data());
//! assert_eq!(trace.addrs(), &[4096]);
//! assert_eq!(trace.records()[0].src(0), 64);
//! assert_eq!(trace.records()[1].dest(), Some(64));
//! assert_eq!(trace.to_record(&trace.records()[1]), records[1]);
//! ```

use crate::fasthash::FastMap;
use crate::loc::Loc;
use crate::record::{BranchInfo, Packed, TraceRecord, MAX_SRCS};
use crate::segment::SegmentMap;
use paragraph_isa::OpClass;
use std::ops::Range;

/// Slots `0..REG_SLOTS` are the register file; memory ids start here.
pub const REG_SLOTS: u32 = 64;

/// `flags` bit: the record names a destination (in `slots[MAX_SRCS]`).
const DEST: u8 = 1;
/// `flags` bit: a branch outcome is recorded.
const OUTCOME: u8 = 2;
/// `flags` bit: the recorded branch was taken.
const TAKEN: u8 = 4;

/// One trace record with its operands as slots of the trace's slot space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternedRecord {
    /// Three sources, then the destination; unused slots are zero.
    slots: [u32; MAX_SRCS + 1],
    /// Index into the trace's pc/target table.
    pc: u32,
    class: OpClass,
    nsrc: u8,
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<InternedRecord>() == 24);

impl InternedRecord {
    /// The operation's latency class.
    #[inline]
    pub fn class(&self) -> OpClass {
        self.class
    }

    /// Number of sources.
    #[inline]
    pub fn nsrc(&self) -> usize {
        usize::from(self.nsrc)
    }

    /// Source `i`'s slot. An index at or past [`nsrc`](Self::nsrc) reads
    /// slot 0, and `i` must be below [`MAX_SRCS`].
    #[inline]
    pub fn src(&self, i: usize) -> u32 {
        self.slots[i]
    }

    /// The destination's slot, if the record names one.
    #[inline]
    pub fn dest(&self) -> Option<u32> {
        (self.flags & DEST != 0).then_some(self.slots[MAX_SRCS])
    }

    /// Whether the branch was taken, if an outcome is recorded.
    #[inline]
    pub fn taken(&self) -> Option<bool> {
        (self.flags & OUTCOME != 0).then_some(self.flags & TAKEN != 0)
    }
}

/// A record of an [`InternedTrace`] together with the trace's pc/target
/// table, so it can answer for its program counter and branch outcome.
#[derive(Debug, Clone, Copy)]
pub struct InternedRef<'t> {
    record: &'t InternedRecord,
    pcs: &'t [(u64, u64)],
}

impl<'t> InternedRef<'t> {
    /// The interned record.
    #[inline]
    pub fn record(self) -> &'t InternedRecord {
        self.record
    }

    /// The program counter.
    #[inline]
    pub fn pc(self) -> u64 {
        self.pcs[self.record.pc as usize].0
    }

    /// The recorded branch outcome, as [`TraceRecord::branch_info`] gives it.
    #[inline]
    pub fn branch_info(self) -> Option<BranchInfo> {
        self.record.taken().map(|taken| BranchInfo {
            taken,
            target: self.pcs[self.record.pc as usize].1,
        })
    }
}

/// A whole trace in interned form: the records, the memory word behind
/// each memory slot, the distinct pc/target pairs, and the segment map.
///
/// Built by an [`Interner`] (straight from a trace source such as the VM's
/// trace callback) or by [`InternedTrace::from_records`]. Every slot a
/// record names is below [`slot_count`](Self::slot_count), and every pc id
/// indexes [`pcs`](Self::pcs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedTrace {
    records: Vec<InternedRecord>,
    addrs: Vec<u64>,
    pcs: Vec<(u64, u64)>,
    segments: SegmentMap,
}

impl InternedTrace {
    /// Interns a slice of records.
    pub fn from_records(records: &[TraceRecord], segments: SegmentMap) -> InternedTrace {
        let mut interner = Interner::with_capacity(records.len());
        for record in records {
            interner.push(record);
        }
        interner.finish(segments)
    }

    /// The records, in trace order.
    #[inline]
    pub fn records(&self) -> &[InternedRecord] {
        &self.records
    }

    /// The records in `range`, each paired with the pc/target table.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn range(&self, range: Range<usize>) -> impl Iterator<Item = InternedRef<'_>> + '_ {
        let pcs = self.pcs.as_slice();
        self.records[range]
            .iter()
            .map(move |record| InternedRef { record, pcs })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The memory word behind each memory slot: slot `64 + i` is
    /// `addrs()[i]`.
    #[inline]
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// The distinct (program counter, branch target) pairs; a record that
    /// is not a branch with an outcome has target 0.
    pub fn pcs(&self) -> &[(u64, u64)] {
        &self.pcs
    }

    /// Size of the slot space: the register file plus one slot per
    /// distinct memory word.
    #[inline]
    pub fn slot_count(&self) -> usize {
        REG_SLOTS as usize + self.addrs.len()
    }

    /// The segment map the trace was recorded under.
    pub fn segments(&self) -> SegmentMap {
        self.segments
    }

    /// The location behind `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not below [`slot_count`](Self::slot_count).
    pub fn loc(&self, slot: u32) -> Loc {
        match slot.checked_sub(REG_SLOTS) {
            Some(id) => Loc::Mem(self.addrs[id as usize]),
            None => Loc::flat_reg(u64::from(slot)),
        }
    }

    /// Rebuilds the [`TraceRecord`] a record was interned from.
    ///
    /// # Panics
    ///
    /// Panics if `record` is not one of this trace's records.
    pub fn to_record(&self, record: &InternedRecord) -> TraceRecord {
        let (pc, target) = self.pcs[record.pc as usize];
        let mut out = TraceRecord::bare(pc, record.class);
        for &slot in &record.slots[..record.nsrc()] {
            out.push_src(Packed::from(self.loc(slot)));
        }
        if let Some(dest) = record.dest() {
            out.set_dest(Packed::from(self.loc(dest)));
        }
        if let Some(taken) = record.taken() {
            out.set_outcome(taken, target);
        }
        out
    }

    /// Bytes the trace keeps resident.
    pub fn resident_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<InternedRecord>()
            + self.addrs.capacity() * std::mem::size_of::<u64>()
            + self.pcs.capacity() * std::mem::size_of::<(u64, u64)>()
    }
}

/// log2 of the words per interner page.
const PAGE_SHIFT: u32 = 6;

/// Builds an [`InternedTrace`] one record at a time, in trace order.
///
/// Memory ids are found through a page directory (one hash probe per
/// page change, not per operand) over pages of 64 ids, where 0 marks a
/// word not seen yet: no memory id is below [`REG_SLOTS`].
pub struct Interner {
    records: Vec<InternedRecord>,
    addrs: Vec<u64>,
    pcs: Vec<(u64, u64)>,
    pc_ids: FastMap<(u64, u64), u32>,
    dir: FastMap<u64, usize>,
    pages: Vec<[u32; 1 << PAGE_SHIFT]>,
    /// The page last looked up, and its index (`u64::MAX` before any:
    /// no page number reaches it).
    last_page: u64,
    last_index: usize,
}

impl Default for Interner {
    fn default() -> Interner {
        Interner::new()
    }
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::with_capacity(0)
    }

    /// An empty interner with room for `records` records.
    pub fn with_capacity(records: usize) -> Interner {
        Interner {
            records: Vec::with_capacity(records),
            addrs: Vec::new(),
            pcs: Vec::new(),
            pc_ids: FastMap::default(),
            dir: FastMap::default(),
            pages: Vec::new(),
            last_page: u64::MAX,
            last_index: 0,
        }
    }

    /// The memory slot of word `addr`, assigning the next id on first
    /// touch.
    #[inline]
    fn mem_slot(&mut self, addr: u64) -> u32 {
        let page_no = addr >> PAGE_SHIFT;
        if page_no != self.last_page {
            let next = self.pages.len();
            let index = *self.dir.entry(page_no).or_insert(next);
            if index == next {
                self.pages.push([0; 1 << PAGE_SHIFT]);
            }
            self.last_page = page_no;
            self.last_index = index;
        }
        let id = &mut self.pages[self.last_index][(addr & ((1 << PAGE_SHIFT) - 1)) as usize];
        if *id == 0 {
            *id = u32::try_from(self.addrs.len() + REG_SLOTS as usize)
                .unwrap_or_else(|_| ids_exhausted("memory words"));
            self.addrs.push(addr);
        }
        *id
    }

    #[inline]
    fn slot(&mut self, (is_mem, word): (bool, u64)) -> u32 {
        if is_mem {
            self.mem_slot(word)
        } else {
            // A register's flat index, below 64.
            word as u32
        }
    }

    /// Appends one record.
    ///
    /// # Panics
    ///
    /// Panics if the trace touches more than `u32::MAX - 64` distinct
    /// memory words, or has more than `u32::MAX` distinct pc/target pairs.
    #[inline]
    pub fn push(&mut self, record: &TraceRecord) {
        let mut slots = [0u32; MAX_SRCS + 1];
        let nsrc = record.nsrc();
        for (i, slot) in slots.iter_mut().enumerate().take(nsrc) {
            *slot = self.slot(record.operand_word(i));
        }
        let mut flags = 0;
        if record.has_dest() {
            slots[MAX_SRCS] = self.slot(record.operand_word(MAX_SRCS));
            flags |= DEST;
        }
        let (outcome, taken) = record.outcome_flags();
        if outcome {
            flags |= OUTCOME | if taken { TAKEN } else { 0 };
        }
        let key = (record.pc(), record.target_word());
        let pcs = &mut self.pcs;
        let pc = *self.pc_ids.entry(key).or_insert_with(|| {
            pcs.push(key);
            u32::try_from(pcs.len() - 1).unwrap_or_else(|_| ids_exhausted("pc/target pairs"))
        });
        self.records.push(InternedRecord {
            slots,
            pc,
            class: record.class(),
            nsrc: nsrc as u8,
            flags,
        });
    }

    /// Finishes the trace, recorded under `segments`.
    pub fn finish(mut self, segments: SegmentMap) -> InternedTrace {
        // Growth by doubling leaves up to half the record buffer unused;
        // a resident sweep trace should not carry it.
        self.records.shrink_to_fit();
        self.addrs.shrink_to_fit();
        self.pcs.shrink_to_fit();
        InternedTrace {
            records: self.records,
            addrs: self.addrs,
            pcs: self.pcs,
            segments,
        }
    }
}

#[cold]
#[inline(never)]
fn ids_exhausted(what: &str) -> ! {
    panic!("trace has more distinct {what} than u32 ids can number")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic;

    #[test]
    fn interning_round_trips_every_record() {
        let mut records = synthetic::random_trace(2_000, 7);
        records.push(TraceRecord::branch_outcome(
            9,
            &[Loc::int(3), Loc::mem(1 << 40)],
            true,
            77,
        ));
        records.push(TraceRecord::branch_outcome(9, &[Loc::int(3)], false, 78));
        records.push(TraceRecord::load(10, 3, Some(Loc::int(5)), Loc::int(0)));
        let trace = InternedTrace::from_records(&records, SegmentMap::new(4, 8));
        assert_eq!(trace.len(), records.len());
        for (interned, original) in trace.records().iter().zip(&records) {
            assert_eq!(trace.to_record(interned), *original);
        }
        for (r, original) in trace.range(0..trace.len()).zip(&records) {
            assert_eq!(r.pc(), original.pc());
            assert_eq!(r.branch_info(), original.branch_info());
        }
    }

    #[test]
    fn memory_ids_are_dense_in_first_touch_order() {
        let records = [
            TraceRecord::store(0, 900, Loc::int(1), Some(Loc::mem(5))),
            TraceRecord::load(1, 7, None, Loc::fp(1)),
            TraceRecord::store(2, 900, Loc::fp(1), None),
        ];
        let trace = InternedTrace::from_records(&records, SegmentMap::all_data());
        // Sources before the destination: m:5 (a source of the first
        // store), then m:900, then m:7.
        assert_eq!(trace.addrs(), &[5, 900, 7]);
        assert_eq!(trace.slot_count(), 67);
        assert_eq!(trace.records()[0].src(1), 64);
        assert_eq!(trace.records()[0].dest(), Some(65));
        assert_eq!(trace.records()[1].dest(), Some(33));
        assert_eq!(trace.records()[2].dest(), Some(65));
        assert_eq!(trace.loc(65), Loc::mem(900));
        assert_eq!(trace.loc(33), Loc::fp(1));
    }

    #[test]
    fn distant_words_on_the_same_page_boundary_stay_distinct() {
        let addrs = [0u64, 63, 64, u64::MAX, u64::MAX - 63, 1 << 63];
        let records: Vec<TraceRecord> = addrs
            .iter()
            .map(|&a| TraceRecord::load(0, a, None, Loc::int(1)))
            .collect();
        let trace = InternedTrace::from_records(&records, SegmentMap::all_data());
        assert_eq!(trace.addrs(), &addrs);
        let pcs = trace.pcs();
        assert_eq!(pcs, &[(0, 0)]);
    }
}
