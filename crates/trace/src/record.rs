//! One dynamic instruction as seen by the analyzer.

use crate::loc::{Loc, Operand};
use paragraph_isa::OpClass;
use std::fmt;
use std::ops::Deref;

/// Most sources a record carries once zero-register reads are dropped.
pub const MAX_SRCS: usize = 3;

/// Why a record's operands contradict its operation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OperandViolation {
    /// More than [`MAX_SRCS`] sources besides the zero register.
    TooManySources,
    /// A destination on a class that creates no value.
    DestOnControl(OpClass),
    /// A memory destination on a non-store, or a register one on a store.
    MemDestNotStore,
    /// A store with no memory destination.
    StoreWithoutMemDest,
    /// A load with no memory source.
    LoadWithoutMemSource,
    /// A branch outcome on a record whose class is not `branch`.
    OutcomeOnNonBranch,
}

impl fmt::Display for OperandViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperandViolation::TooManySources => write!(f, "more than {MAX_SRCS} sources"),
            OperandViolation::DestOnControl(class) => {
                write!(f, "class {class} cannot name a destination")
            }
            OperandViolation::MemDestNotStore => {
                f.write_str("memory destinations are exactly the store class")
            }
            OperandViolation::StoreWithoutMemDest => {
                f.write_str("store must name its memory destination")
            }
            OperandViolation::LoadWithoutMemSource => {
                f.write_str("load must name its memory source")
            }
            OperandViolation::OutcomeOnNonBranch => {
                f.write_str("branch outcome on a non-branch record")
            }
        }
    }
}

/// The constructors' panic on a contract violation, kept out of line.
#[cold]
#[inline(never)]
fn contract_panic(v: OperandViolation, pc: u64) -> ! {
    panic!("{v} (pc {pc})")
}

/// Operand slot of the destination (or, on a branch, the target) in
/// [`TraceRecord`]'s `words`; slots `0..MAX_SRCS` hold the sources.
const DEST: usize = MAX_SRCS;

/// Operand kinds, two bits per slot in [`TraceRecord`]'s `kinds` byte.
/// An unused slot is `KIND_NONE` over a zero word.
const KIND_NONE: u8 = 0;
const KIND_INT: u8 = 1;
const KIND_FP: u8 = 2;
const KIND_MEM: u8 = 3;

/// `flags` bit: a branch outcome is recorded.
const OUTCOME: u8 = 1;
/// `flags` bit: the recorded branch was taken.
const TAKEN: u8 = 2;

/// A location as a record slot holds it: its kind and payload word, a
/// register's flat index (integer `0..32`, floating-point `32..64`) or a
/// memory address. The zero register packs as an unused slot, so a
/// record drops it where it is stored.
#[derive(Clone, Copy)]
pub(crate) struct Packed {
    kind: u8,
    word: u64,
}

impl Packed {
    /// Integer register `index`, which is below 32.
    #[inline]
    pub(crate) fn int(index: u8) -> Packed {
        let kind = if index == 0 { KIND_NONE } else { KIND_INT };
        Packed {
            kind,
            word: u64::from(index),
        }
    }

    /// Floating-point register `index`, which is below 32.
    #[inline]
    pub(crate) fn fp(index: u8) -> Packed {
        Packed {
            kind: KIND_FP,
            word: 32 + u64::from(index),
        }
    }

    /// Memory word `addr`.
    #[inline]
    pub(crate) fn mem(addr: u64) -> Packed {
        Packed {
            kind: KIND_MEM,
            word: addr,
        }
    }
}

impl From<Loc> for Packed {
    #[inline]
    fn from(loc: Loc) -> Packed {
        match loc {
            Loc::IntReg(r) => Packed::int(r.index()),
            Loc::FpReg(r) => Packed::fp(r.index()),
            Loc::Mem(addr) => Packed::mem(addr),
        }
    }
}

/// A single dynamic instruction in an execution trace.
///
/// A record carries everything the dependency analyzer needs and nothing
/// else: the program counter (for diagnostics and DDG node labels), the
/// operation's latency class, the source [`Loc`]ations whose values it reads,
/// and the destination location it writes (if any).
///
/// Loads appear with their memory word among the sources and the target
/// register as destination (none for a load into the zero register);
/// stores appear with the stored register (and the address base register)
/// among the sources and the memory word as destination. Control instructions carry their register sources but no
/// destination and are never placed in the DDG.
///
/// The record is packed into 48 bytes, because whole traces stay resident
/// (the sweep arena, the daemon's upload cache): four payload words (three
/// sources, then the destination, or on a branch the target), a two-bit
/// kind per word, and the outcome flags. Unused slots stay zero, so the
/// derived equality and hash compare real operands only. [`srcs`],
/// [`dest`] and [`branch_info`] decode on demand; the analyzer's kernel
/// reads [`src_operand`] and [`dest_operand`] instead.
///
/// [`srcs`]: TraceRecord::srcs
/// [`dest`]: TraceRecord::dest
/// [`branch_info`]: TraceRecord::branch_info
/// [`src_operand`]: TraceRecord::src_operand
/// [`dest_operand`]: TraceRecord::dest_operand
///
/// # Examples
///
/// ```
/// use paragraph_trace::{Loc, TraceRecord};
///
/// // lw r4, 0(r29) where r29 holds 1000
/// let lw = TraceRecord::load(8, 1000, Some(Loc::int(29)), Loc::int(4));
/// assert_eq!(lw.dest(), Some(Loc::int(4)));
/// assert!(lw.srcs().contains(&Loc::mem(1000)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    pc: u64,
    words: [u64; MAX_SRCS + 1],
    class: OpClass,
    nsrc: u8,
    kinds: u8,
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<TraceRecord>() == 48);

/// Dynamic outcome of a conditional branch, carried on
/// [`OpClass::Branch`] records.
///
/// Used by the analyzer's branch-prediction models: a mispredicted branch
/// places a firewall at the branch's resolution level ("The firewall can
/// also be used to represent the effect of a mispredicted conditional
/// branch", §3.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Whether the branch was taken.
    pub taken: bool,
    /// The branch's static target instruction address.
    pub target: u64,
}

/// A record's source locations, returned by value by
/// [`TraceRecord::srcs`]. Derefs to a slice and iterates by value.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Srcs {
    locs: [Loc; MAX_SRCS],
    len: u8,
}

impl Deref for Srcs {
    type Target = [Loc];

    #[inline]
    fn deref(&self) -> &[Loc] {
        &self.locs[..usize::from(self.len)]
    }
}

impl IntoIterator for Srcs {
    type Item = Loc;
    type IntoIter = std::iter::Take<std::array::IntoIter<Loc, MAX_SRCS>>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.locs.into_iter().take(usize::from(self.len))
    }
}

impl fmt::Debug for Srcs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl TraceRecord {
    /// Creates a record from raw parts.
    ///
    /// Reads of the hardwired zero register are dropped from `srcs` (they
    /// create no dependency), and a write to the zero register is dropped
    /// from `dest`.
    ///
    /// # Panics
    ///
    /// Panics if the operands break the record contract
    /// (`docs/trace-format.md`): more than three sources, a destination on
    /// a control instruction, a memory destination on a non-store, a store
    /// without a memory destination, or a load without a memory source.
    pub fn new(pc: u64, class: OpClass, srcs: &[Loc], dest: Option<Loc>) -> TraceRecord {
        match TraceRecord::try_new(pc, class, srcs, dest, None) {
            Ok(record) => record,
            Err(v) => contract_panic(v, pc),
        }
    }

    /// Fallible [`TraceRecord::new`] that may also carry a branch outcome:
    /// builds the record, then checks it against the record contract.
    pub(crate) fn try_new(
        pc: u64,
        class: OpClass,
        srcs: &[Loc],
        dest: Option<Loc>,
        branch: Option<BranchInfo>,
    ) -> Result<TraceRecord, OperandViolation> {
        let mut record = TraceRecord::bare(pc, class);
        for &s in srcs {
            if s.is_zero_reg() {
                continue;
            }
            if record.nsrc() == MAX_SRCS {
                return Err(OperandViolation::TooManySources);
            }
            record.push_src(Packed::from(s));
        }
        if let Some(d) = dest {
            record.set_dest(Packed::from(d));
        }
        if let Some(info) = branch {
            record.set_outcome(info.taken, info.target);
        }
        record.check()?;
        Ok(record)
    }

    /// A record with no operands and no outcome, to be filled in place by
    /// [`push_src`](TraceRecord::push_src),
    /// [`set_dest`](TraceRecord::set_dest) and
    /// [`set_outcome`](TraceRecord::set_outcome), then passed through
    /// [`check`](TraceRecord::check). The block decoder builds every
    /// record this way, straight from the wire.
    #[inline]
    pub(crate) fn bare(pc: u64, class: OpClass) -> TraceRecord {
        TraceRecord {
            pc,
            words: [0; MAX_SRCS + 1],
            class,
            nsrc: 0,
            kinds: 0,
            flags: 0,
        }
    }

    /// Appends a source. The zero register is stored as an unused slot
    /// and not counted, so the next source overwrites it. The caller
    /// pushes no source once [`MAX_SRCS`] are kept.
    #[inline]
    pub(crate) fn push_src(&mut self, src: Packed) {
        let slot = self.nsrc();
        self.words[slot] = src.word;
        self.kinds |= src.kind << (2 * slot);
        self.nsrc += u8::from(src.kind != KIND_NONE);
    }

    /// Sets the destination of a record with neither a destination nor
    /// an outcome; the zero register leaves it without one.
    #[inline]
    pub(crate) fn set_dest(&mut self, dest: Packed) {
        self.words[DEST] = dest.word;
        self.kinds |= dest.kind << (2 * DEST);
    }

    /// Attaches a branch outcome. A branch names no destination, so the
    /// target takes the destination's word.
    #[inline]
    pub(crate) fn set_outcome(&mut self, taken: bool, target: u64) {
        self.words[DEST] = target;
        self.flags = OUTCOME | if taken { TAKEN } else { 0 };
    }

    /// The record contract, stated once, over the operands as the record
    /// keeps them (zero-register reads and writes already dropped):
    ///
    /// * a destination only on a value-creating class, and a memory
    ///   destination exactly on a store;
    /// * a store names its memory destination;
    /// * a load names a memory source (its register destination may be
    ///   the dropped zero register, just as `add r0, ...` has none);
    /// * a branch outcome only on a branch.
    ///
    /// At most [`MAX_SRCS`] sources is checked as they are pushed. The
    /// constructors panic on a violation; the text ingest parser and both
    /// binary decoders return it as a typed error. A record with both a
    /// destination and an outcome fails here, as only a branch carries an
    /// outcome and a branch names no destination.
    #[inline]
    pub(crate) fn check(&self) -> Result<(), OperandViolation> {
        let class = self.class;
        match self.kind(DEST) {
            KIND_NONE if class == OpClass::Store => {
                return Err(OperandViolation::StoreWithoutMemDest)
            }
            KIND_NONE => {}
            _ if !class.creates_value() => return Err(OperandViolation::DestOnControl(class)),
            kind if (kind == KIND_MEM) != (class == OpClass::Store) => {
                return Err(OperandViolation::MemDestNotStore)
            }
            _ => {}
        }
        if class == OpClass::Load && !self.reads_mem() {
            return Err(OperandViolation::LoadWithoutMemSource);
        }
        if self.flags & OUTCOME != 0 && class != OpClass::Branch {
            return Err(OperandViolation::OutcomeOnNonBranch);
        }
        Ok(())
    }

    /// Whether a source is a memory word: some source slot's kind has
    /// both bits set.
    #[inline]
    fn reads_mem(&self) -> bool {
        let srcs = self.kinds & ((1 << (2 * DEST)) - 1);
        srcs & (srcs >> 1) & 0b01_0101 != 0
    }

    /// Source `i`, or the destination at [`MAX_SRCS`], as the interner
    /// reads it: whether it is a memory word, and its payload word (a
    /// register's flat index or a memory address).
    #[inline]
    pub(crate) fn operand_word(&self, slot: usize) -> (bool, u64) {
        (self.kind(slot) == KIND_MEM, self.words[slot])
    }

    /// Whether the record names a destination.
    #[inline]
    pub(crate) fn has_dest(&self) -> bool {
        self.kind(DEST) != KIND_NONE
    }

    /// The destination word of a record without a destination: a
    /// branch's target, or zero.
    #[inline]
    pub(crate) fn target_word(&self) -> u64 {
        if self.has_dest() {
            0
        } else {
            self.words[DEST]
        }
    }

    /// The outcome flags: whether an outcome is recorded, and whether the
    /// branch was taken.
    #[inline]
    pub(crate) fn outcome_flags(&self) -> (bool, bool) {
        (self.flags & OUTCOME != 0, self.flags & TAKEN != 0)
    }

    /// The kind of operand slot `slot`.
    #[inline]
    fn kind(&self, slot: usize) -> u8 {
        (self.kinds >> (2 * slot)) & 3
    }

    /// Operand slot `slot`, which holds a kept operand.
    #[inline]
    fn operand(&self, slot: usize) -> Operand {
        let word = self.words[slot];
        if self.kind(slot) == KIND_MEM {
            Operand::Mem(word)
        } else {
            Operand::Reg(word as usize)
        }
    }

    /// Operand slot `slot` as a location; an unused slot reads as the
    /// zero register.
    #[inline]
    fn loc(&self, slot: usize) -> Loc {
        let word = self.words[slot];
        if self.kind(slot) == KIND_MEM {
            Loc::Mem(word)
        } else {
            Loc::flat_reg(word)
        }
    }

    /// A register-to-register computation (ALU, multiply, FP, ...).
    ///
    /// # Panics
    ///
    /// Panics if `class` is a memory, control, or non-value class, or on
    /// operand inconsistencies as for [`TraceRecord::new`].
    pub fn compute(pc: u64, class: OpClass, srcs: &[Loc], dest: Loc) -> TraceRecord {
        assert!(
            class.creates_value() && !class.is_mem() && class != OpClass::Syscall,
            "compute records take ALU/FP classes, got {class}"
        );
        TraceRecord::new(pc, class, srcs, Some(dest))
    }

    /// A load of memory word `addr` into register `dest`, optionally through
    /// an address `base` register.
    pub fn load(pc: u64, addr: u64, base: Option<Loc>, dest: Loc) -> TraceRecord {
        let mut srcs = [Loc::mem(addr); 2];
        let mut n = 1;
        if let Some(b) = base {
            srcs[1] = b;
            n = 2;
        }
        TraceRecord::new(pc, OpClass::Load, &srcs[..n], Some(dest))
    }

    /// A store of register `value` into memory word `addr`, optionally
    /// through an address `base` register.
    pub fn store(pc: u64, addr: u64, value: Loc, base: Option<Loc>) -> TraceRecord {
        let mut srcs = [value; 2];
        let mut n = 1;
        if let Some(b) = base {
            srcs[1] = b;
            n = 2;
        }
        TraceRecord::new(pc, OpClass::Store, &srcs[..n], Some(Loc::mem(addr)))
    }

    /// A system call. Sources are the argument registers actually read.
    pub fn syscall(pc: u64, srcs: &[Loc], dest: Option<Loc>) -> TraceRecord {
        TraceRecord::new(pc, OpClass::Syscall, srcs, dest)
    }

    /// A conditional branch reading the given registers, with unknown
    /// outcome (branch-prediction models treat it as perfectly predicted).
    pub fn branch(pc: u64, srcs: &[Loc]) -> TraceRecord {
        TraceRecord::new(pc, OpClass::Branch, srcs, None)
    }

    /// A conditional branch with its dynamic outcome recorded, enabling the
    /// analyzer's branch-prediction models.
    pub fn branch_outcome(pc: u64, srcs: &[Loc], taken: bool, target: u64) -> TraceRecord {
        let mut rec = TraceRecord::new(pc, OpClass::Branch, srcs, None);
        rec.set_outcome(taken, target);
        rec
    }

    /// An unconditional jump (no link-register write).
    pub fn jump(pc: u64, srcs: &[Loc]) -> TraceRecord {
        TraceRecord::new(pc, OpClass::Jump, srcs, None)
    }

    /// The program counter (instruction address) of this dynamic instruction.
    #[inline]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// The operation's latency class.
    #[inline]
    pub fn class(&self) -> OpClass {
        self.class
    }

    /// The locations read by this instruction (zero-register reads omitted).
    #[inline]
    pub fn srcs(&self) -> Srcs {
        Srcs {
            locs: [self.loc(0), self.loc(1), self.loc(2)],
            len: self.nsrc,
        }
    }

    /// The location written by this instruction, if any.
    #[inline]
    pub fn dest(&self) -> Option<Loc> {
        (self.kind(DEST) != KIND_NONE).then(|| self.loc(DEST))
    }

    /// Number of sources ([`srcs`](TraceRecord::srcs)`().len()`).
    #[inline]
    pub fn nsrc(&self) -> usize {
        usize::from(self.nsrc)
    }

    /// Source `i` as an [`Operand`], without building a [`Loc`].
    ///
    /// # Panics
    ///
    /// May panic, or return another operand, if `i` is not below
    /// [`nsrc`](TraceRecord::nsrc).
    #[inline]
    pub fn src_operand(&self, i: usize) -> Operand {
        debug_assert!(i < self.nsrc(), "source {i} of {}", self.nsrc);
        self.operand(i)
    }

    /// The destination as an [`Operand`], if any.
    #[inline]
    pub fn dest_operand(&self) -> Option<Operand> {
        (self.kind(DEST) != KIND_NONE).then(|| self.operand(DEST))
    }

    /// Whether the analyzer places this record in the DDG.
    #[inline]
    pub fn creates_value(&self) -> bool {
        self.class.creates_value()
    }

    /// The recorded branch outcome, if this is a conditional branch whose
    /// outcome the tracer captured.
    #[inline]
    pub fn branch_info(&self) -> Option<BranchInfo> {
        (self.flags & OUTCOME != 0).then(|| BranchInfo {
            taken: self.flags & TAKEN != 0,
            target: self.words[DEST],
        })
    }

    /// The memory word this instruction accesses, if any.
    #[inline]
    pub fn mem_addr(&self) -> Option<u64> {
        match self.class {
            OpClass::Load => (0..self.nsrc())
                .find(|&i| self.kind(i) == KIND_MEM)
                .map(|i| self.words[i]),
            OpClass::Store => Some(self.words[DEST]),
            _ => None,
        }
    }
}

impl fmt::Debug for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceRecord")
            .field("pc", &self.pc)
            .field("class", &self.class)
            .field("srcs", &self.srcs())
            .field("dest", &self.dest())
            .field("branch", &self.branch_info())
            .finish()
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>8}  {:<8}", self.pc, self.class)?;
        let mut first = true;
        for s in self.srcs() {
            if first {
                write!(f, " reads {s}")?;
                first = false;
            } else {
                write!(f, ", {s}")?;
            }
        }
        if let Some(d) = self.dest() {
            write!(f, " writes {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_reads_are_dropped() {
        let rec =
            TraceRecord::compute(0, OpClass::IntAlu, &[Loc::int(0), Loc::int(3)], Loc::int(4));
        assert_eq!(*rec.srcs(), [Loc::int(3)]);
    }

    #[test]
    fn zero_register_writes_are_dropped() {
        let rec = TraceRecord::new(0, OpClass::IntAlu, &[Loc::int(3)], Some(Loc::int(0)));
        assert_eq!(rec.dest(), None);
    }

    #[test]
    fn load_records_memory_source() {
        let rec = TraceRecord::load(4, 100, Some(Loc::int(29)), Loc::int(8));
        assert_eq!(rec.class(), OpClass::Load);
        assert_eq!(rec.mem_addr(), Some(100));
        assert_eq!(rec.srcs().len(), 2);
    }

    #[test]
    fn store_records_memory_destination() {
        let rec = TraceRecord::store(4, 100, Loc::int(8), Some(Loc::int(29)));
        assert_eq!(rec.class(), OpClass::Store);
        assert_eq!(rec.dest(), Some(Loc::mem(100)));
        assert_eq!(rec.mem_addr(), Some(100));
    }

    #[test]
    #[should_panic(expected = "cannot name a destination")]
    fn branch_with_destination_panics() {
        TraceRecord::new(0, OpClass::Branch, &[], Some(Loc::int(1)));
    }

    #[test]
    #[should_panic(expected = "memory destinations")]
    fn mem_dest_on_alu_panics() {
        TraceRecord::new(0, OpClass::IntAlu, &[], Some(Loc::mem(4)));
    }

    #[test]
    #[should_panic(expected = "must name its memory source")]
    fn load_without_mem_source_panics() {
        TraceRecord::new(0, OpClass::Load, &[Loc::int(1)], Some(Loc::int(2)));
    }

    #[test]
    fn load_into_the_zero_register_keeps_no_destination() {
        let rec = TraceRecord::load(0, 8, Some(Loc::int(10)), Loc::int(0));
        assert_eq!(rec.dest(), None);
        assert_eq!(rec.mem_addr(), Some(8));
    }

    #[test]
    #[should_panic(expected = "store must name its memory destination")]
    fn store_without_mem_dest_panics() {
        TraceRecord::new(0, OpClass::Store, &[Loc::int(1)], None);
    }

    #[test]
    fn unused_source_slots_are_canonical() {
        let a = TraceRecord::new(0, OpClass::IntAlu, &[Loc::int(0), Loc::int(3)], None);
        let b = TraceRecord::new(0, OpClass::IntAlu, &[Loc::int(3)], None);
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_informative() {
        let rec = TraceRecord::store(12, 40, Loc::int(8), Some(Loc::int(29)));
        let text = rec.to_string();
        assert!(text.contains("store"));
        assert!(text.contains("r8"));
        assert!(text.contains("[40]"));
    }

    #[test]
    fn debug_prints_logical_fields() {
        let rec = TraceRecord::branch_outcome(12, &[Loc::int(8), Loc::fp(2)], true, 40);
        assert_eq!(
            format!("{rec:?}"),
            "TraceRecord { pc: 12, class: Branch, srcs: [IntReg(IntReg(8)), FpReg(FpReg(2))], \
             dest: None, branch: Some(BranchInfo { taken: true, target: 40 }) }"
        );
    }

    #[test]
    fn operand_view_matches_locations() {
        let rec = TraceRecord::new(
            0,
            OpClass::Syscall,
            &[Loc::fp(31), Loc::mem(u64::MAX), Loc::int(31)],
            Some(Loc::fp(0)),
        );
        assert_eq!(rec.nsrc(), 3);
        assert_eq!(rec.src_operand(0), Operand::Reg(63));
        assert_eq!(rec.src_operand(1), Operand::Mem(u64::MAX));
        assert_eq!(rec.src_operand(2), Operand::Reg(31));
        assert_eq!(rec.dest_operand(), Some(Operand::Reg(32)));
        for (i, s) in rec.srcs().into_iter().enumerate() {
            assert_eq!(Loc::from(rec.src_operand(i)), s);
        }
    }

    #[test]
    fn syscall_records() {
        let rec = TraceRecord::syscall(0, &[Loc::int(2)], Some(Loc::int(2)));
        assert!(rec.creates_value());
        assert_eq!(rec.class(), OpClass::Syscall);
    }
}
