//! What the live-well kernel reads and where it keeps its values.
//!
//! [`LiveWellImpl::process`](crate::LiveWellImpl::process) is written
//! once, over two abstractions:
//!
//! * a [`RecordView`]: one trace record's class, operands and branch
//!   outcome, with operands as the view's `Key`; and
//! * a [`SlotSpace`]: the table of value records those keys resolve to.
//!
//! Two pairings exist. The streaming one reads packed
//! [`TraceRecord`]s, whose operands are [`Operand`]s, into a register file
//! plus a memory table ([`StreamSlots`]); every operand pays a
//! register/memory match and memory operands a table lookup. The interned
//! one reads an [`InternedTrace`], whose operands are already dense slot
//! indices, into one flat vector of value records ([`FlatSlots`]); an
//! operand is an index and nothing else.
//!
//! Both spaces keep the same observable state: which registers and memory
//! words the live well holds, their records, and the peak size. The flat
//! space derives membership instead of tracking it per operand: every slot
//! the kernel resolves is modified before the record ends (a read adds a
//! reader, a write stores a completion level of at least 0, a branch read
//! raises the deepest use to at least 0), so a held slot is exactly a slot
//! whose record differs from `ValueRecord::preexisting()`. With no
//! live-well cap the held set only grows, and the size and peak are read
//! off the table when asked. A capped configuration needs the exact count
//! after every record and evicts by address, so it keeps the streaming
//! pairing, over records rebuilt from the interned trace.

use crate::config::AnalysisConfig;
use crate::well::{MemTable, ValueRecord};
use paragraph_isa::OpClass;
use paragraph_trace::REG_SLOTS;
use paragraph_trace::{BranchInfo, InternedRef, InternedTrace, Loc, Operand, TraceRecord};
use std::fmt::Debug;

/// Register-file slots: 32 integer then 32 floating-point registers.
pub(crate) const REGS: usize = REG_SLOTS as usize;

mod sealed {
    pub trait Sealed {}
    impl Sealed for &paragraph_trace::TraceRecord {}
    impl Sealed for paragraph_trace::InternedRef<'_> {}
    impl<M: crate::well::MemTable> Sealed for super::StreamSlots<M> {}
    impl Sealed for super::FlatSlots<'_> {}
}

/// One trace record as the kernel reads it. Sealed.
pub trait RecordView: sealed::Sealed + Copy {
    /// How the record names a location.
    type Key: Copy;
    /// The operation's latency class.
    fn class(self) -> OpClass;
    /// Number of sources.
    fn nsrc(self) -> usize;
    /// Source `i`, for `i` below [`nsrc`](Self::nsrc).
    fn src(self, i: usize) -> Self::Key;
    /// The destination, if any.
    fn dest(self) -> Option<Self::Key>;
    /// The program counter.
    fn pc(self) -> u64;
    /// The recorded branch outcome, if any.
    fn branch_info(self) -> Option<BranchInfo>;
}

impl RecordView for &TraceRecord {
    type Key = Operand;

    #[inline]
    fn class(self) -> OpClass {
        TraceRecord::class(self)
    }

    #[inline]
    fn nsrc(self) -> usize {
        TraceRecord::nsrc(self)
    }

    #[inline]
    fn src(self, i: usize) -> Operand {
        self.src_operand(i)
    }

    #[inline]
    fn dest(self) -> Option<Operand> {
        self.dest_operand()
    }

    #[inline]
    fn pc(self) -> u64 {
        TraceRecord::pc(self)
    }

    #[inline]
    fn branch_info(self) -> Option<BranchInfo> {
        TraceRecord::branch_info(self)
    }
}

impl RecordView for InternedRef<'_> {
    type Key = u32;

    #[inline]
    fn class(self) -> OpClass {
        self.record().class()
    }

    #[inline]
    fn nsrc(self) -> usize {
        self.record().nsrc()
    }

    #[inline]
    fn src(self, i: usize) -> u32 {
        self.record().src(i)
    }

    #[inline]
    fn dest(self) -> Option<u32> {
        self.record().dest()
    }

    #[inline]
    fn pc(self) -> u64 {
        InternedRef::pc(self)
    }

    #[inline]
    fn branch_info(self) -> Option<BranchInfo> {
        InternedRef::branch_info(self)
    }
}

/// The live well's value table, as the kernel and the checkpoint writer
/// use it. Sealed.
pub trait SlotSpace: sealed::Sealed + Debug {
    /// How records name a location (see [`RecordView::Key`]).
    type Key: Copy;
    /// A resolved location, valid until the next eviction.
    type Handle: Copy + Default;

    /// Resolves a key, entering a preexisting record for a location the
    /// live well does not hold.
    fn resolve(&mut self, key: Self::Key) -> Self::Handle;
    /// The record behind a handle.
    fn peek(&mut self, handle: Self::Handle) -> ValueRecord;
    /// The record behind a handle, to be modified.
    fn entry(&mut self, handle: Self::Handle) -> &mut ValueRecord;
    /// The record behind a handle, about to be read by a mispredicted
    /// branch after `placed` placements.
    #[inline]
    fn branch_entry(&mut self, handle: Self::Handle, placed: u64) -> &mut ValueRecord {
        let _ = placed;
        self.entry(handle)
    }
    /// Binds a new record, returning the one it replaces.
    fn replace(&mut self, handle: Self::Handle, record: ValueRecord) -> ValueRecord;
    /// Whether the location's storage class is renamed under `config`.
    fn renames(&self, key: Self::Key, config: &AnalysisConfig) -> bool;
    /// Called after every placement, to keep the running peak size.
    fn note_placed(&mut self, peak: &mut usize);
    /// The peak live-well size, given the running peak and the number of
    /// placements so far.
    fn peak(&self, noted: usize, placed: u64) -> usize;
    /// Memory words held.
    fn mem_len(&self) -> usize;
    /// Registers and memory words held.
    fn live_size(&self) -> usize;
    /// Register `i`'s record, if the live well holds it.
    fn reg(&self, i: usize) -> Option<&ValueRecord>;
    /// Visits every held memory word in ascending address order.
    fn for_each_mem_sorted(&self, f: &mut dyn FnMut(u64, &ValueRecord));
    /// Visits every held record, in no particular order.
    fn for_each_value(&self, f: &mut dyn FnMut(&ValueRecord));
    /// Drops the `excess` memory words with the smallest
    /// `(deepest_use, addr)`, retiring each; returns how many were dropped.
    fn evict_coldest(&mut self, excess: usize, retire: &mut dyn FnMut(ValueRecord)) -> u64;
}

/// A resolved streaming operand: an index into the register file, or a
/// memory-table handle from [`MemTable::resolve`].
#[derive(Debug, Clone, Copy)]
pub enum Slot {
    /// A register by flat index.
    Reg(usize),
    /// A memory-table handle.
    Mem(u64),
}

impl Default for Slot {
    #[inline]
    fn default() -> Slot {
        Slot::Reg(0)
    }
}

/// The streaming slot space: the register file and a memory table.
#[derive(Debug)]
pub struct StreamSlots<M: MemTable> {
    /// The register file. A register whose bit is clear in `live_regs`
    /// has never been touched and still holds the preexisting record, so
    /// reads need no presence test.
    pub(crate) regs: [ValueRecord; REGS],
    /// Bit `i` is set once `regs[i]` has been read or written: those are
    /// the registers the live well holds.
    pub(crate) live_regs: u64,
    pub(crate) mem: M,
}

impl<M: MemTable> Default for StreamSlots<M> {
    fn default() -> StreamSlots<M> {
        StreamSlots {
            regs: [ValueRecord::preexisting(); REGS],
            live_regs: 0,
            mem: M::default(),
        }
    }
}

impl<M: MemTable> SlotSpace for StreamSlots<M> {
    type Key = Operand;
    type Handle = Slot;

    /// Always inlined, so a register operand costs no call: only a memory
    /// operand reaches the (out-of-line) table lookup.
    #[inline(always)]
    fn resolve(&mut self, op: Operand) -> Slot {
        match op {
            Operand::Reg(flat) => Slot::Reg(flat),
            Operand::Mem(addr) => Slot::Mem(self.mem.resolve(addr)),
        }
    }

    #[inline]
    fn peek(&mut self, slot: Slot) -> ValueRecord {
        match slot {
            Slot::Reg(i) => self.regs[i],
            Slot::Mem(handle) => *self.mem.slot_mut(handle),
        }
    }

    /// Touching a register makes it live.
    #[inline]
    fn entry(&mut self, slot: Slot) -> &mut ValueRecord {
        match slot {
            Slot::Reg(i) => {
                self.live_regs |= 1 << i;
                &mut self.regs[i]
            }
            Slot::Mem(handle) => self.mem.slot_mut(handle),
        }
    }

    #[inline]
    fn replace(&mut self, slot: Slot, record: ValueRecord) -> ValueRecord {
        match slot {
            Slot::Reg(i) => {
                self.live_regs |= 1 << i;
                std::mem::replace(&mut self.regs[i], record)
            }
            Slot::Mem(handle) => self.mem.replace(handle, record),
        }
    }

    #[inline]
    fn renames(&self, op: Operand, config: &AnalysisConfig) -> bool {
        config.renames().renames(Loc::from(op), config.segments())
    }

    /// Memory entries dominate the size; the register files are a
    /// constant 64.
    #[inline]
    fn note_placed(&mut self, peak: &mut usize) {
        *peak = (*peak).max(self.mem.len() + REGS);
    }

    fn peak(&self, noted: usize, _placed: u64) -> usize {
        noted
    }

    fn mem_len(&self) -> usize {
        self.mem.len()
    }

    fn live_size(&self) -> usize {
        self.live_regs.count_ones() as usize + self.mem.len()
    }

    fn reg(&self, i: usize) -> Option<&ValueRecord> {
        (self.live_regs & (1 << i) != 0).then(|| &self.regs[i])
    }

    fn for_each_mem_sorted(&self, f: &mut dyn FnMut(u64, &ValueRecord)) {
        self.mem.for_each_sorted(f);
    }

    fn for_each_value(&self, f: &mut dyn FnMut(&ValueRecord)) {
        for i in 0..REGS {
            if let Some(record) = self.reg(i) {
                f(record);
            }
        }
        self.mem.for_each_value(f);
    }

    fn evict_coldest(&mut self, excess: usize, retire: &mut dyn FnMut(ValueRecord)) -> u64 {
        self.mem.evict_coldest(excess, retire)
    }
}

/// The interned slot space: one flat table of value records indexed by
/// an [`InternedTrace`]'s slots, and the rename decision of every slot.
///
/// Membership is derived from the table (see the module docs), so this
/// space serves only passes without a live-well cap: a capped pass runs
/// the streaming analyzer instead (see [`InternedWell`](crate::InternedWell)).
#[derive(Debug)]
pub struct FlatSlots<'t> {
    table: Vec<ValueRecord>,
    addrs: &'t [u64],
    renamed: Vec<bool>,
    /// Memory slots a mispredicted branch entered into the live well
    /// after placement number `branch_mark`. The peak is taken at
    /// placements, so words entered by branches since the last one do not
    /// count towards it.
    branch_mark: u64,
    branch_entered: usize,
}

impl<'t> FlatSlots<'t> {
    /// An empty live well over `trace`'s slots, with `config`'s rename
    /// decisions (under `config`'s segment map) resolved per slot.
    pub(crate) fn new(trace: &'t InternedTrace, config: &AnalysisConfig) -> FlatSlots<'t> {
        debug_assert!(config.live_well_cap().is_none(), "no cap on a flat pass");
        let slots = trace.slot_count();
        let renamed = (0..slots)
            .map(|slot| {
                config
                    .renames()
                    .renames(trace.loc(slot as u32), config.segments())
            })
            .collect();
        FlatSlots {
            table: vec![ValueRecord::preexisting(); slots],
            addrs: trace.addrs(),
            renamed,
            branch_mark: 0,
            branch_entered: 0,
        }
    }

    /// Held memory slots, in slot order.
    fn held_mem(&self) -> impl Iterator<Item = usize> + '_ {
        (REGS..self.table.len()).filter(|&s| self.table[s] != ValueRecord::preexisting())
    }
}

impl SlotSpace for FlatSlots<'_> {
    type Key = u32;
    type Handle = usize;

    #[inline]
    fn resolve(&mut self, key: u32) -> usize {
        key as usize
    }

    #[inline]
    fn peek(&mut self, slot: usize) -> ValueRecord {
        self.table[slot]
    }

    #[inline]
    fn entry(&mut self, slot: usize) -> &mut ValueRecord {
        &mut self.table[slot]
    }

    fn branch_entry(&mut self, slot: usize, placed: u64) -> &mut ValueRecord {
        let record = &mut self.table[slot];
        if slot >= REGS && *record == ValueRecord::preexisting() {
            if self.branch_mark != placed {
                self.branch_mark = placed;
                self.branch_entered = 0;
            }
            self.branch_entered += 1;
        }
        record
    }

    #[inline]
    fn replace(&mut self, slot: usize, record: ValueRecord) -> ValueRecord {
        std::mem::replace(&mut self.table[slot], record)
    }

    #[inline]
    fn renames(&self, key: u32, _config: &AnalysisConfig) -> bool {
        self.renamed[key as usize]
    }

    /// Nothing to do: the held set only grows, so [`peak`](Self::peak)
    /// reads it off the table.
    #[inline]
    fn note_placed(&mut self, _peak: &mut usize) {}

    fn peak(&self, noted: usize, placed: u64) -> usize {
        if placed == 0 {
            return noted;
        }
        let since_placed = if self.branch_mark == placed {
            self.branch_entered
        } else {
            0
        };
        noted.max(REGS + self.mem_len() - since_placed)
    }

    fn mem_len(&self) -> usize {
        self.held_mem().count()
    }

    fn live_size(&self) -> usize {
        (0..REGS).filter(|&i| self.reg(i).is_some()).count() + self.mem_len()
    }

    fn reg(&self, i: usize) -> Option<&ValueRecord> {
        let record = &self.table[i];
        (*record != ValueRecord::preexisting()).then_some(record)
    }

    fn for_each_mem_sorted(&self, f: &mut dyn FnMut(u64, &ValueRecord)) {
        let mut held: Vec<(u64, usize)> =
            self.held_mem().map(|s| (self.addrs[s - REGS], s)).collect();
        held.sort_unstable();
        for (addr, slot) in held {
            f(addr, &self.table[slot]);
        }
    }

    fn for_each_value(&self, f: &mut dyn FnMut(&ValueRecord)) {
        for record in &self.table {
            if *record != ValueRecord::preexisting() {
                f(record);
            }
        }
    }

    /// Never called: the kernel evicts only under a live-well cap, and a
    /// capped pass never runs over this space.
    fn evict_coldest(&mut self, _excess: usize, _retire: &mut dyn FnMut(ValueRecord)) -> u64 {
        unreachable!("a flat pass has no live-well cap")
    }
}
