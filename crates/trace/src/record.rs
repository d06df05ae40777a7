//! One dynamic instruction as seen by the analyzer.

use crate::loc::Loc;
use paragraph_isa::OpClass;
use std::fmt;

/// Most sources a record carries once zero-register reads are dropped.
pub(crate) const MAX_SRCS: usize = 3;

/// The source array of a record with no sources; unused slots always hold
/// this filler, so records compare and hash by their real operands.
pub(crate) const NO_SRCS: [Loc; MAX_SRCS] = [Loc::IntReg(paragraph_isa::IntReg::ZERO); MAX_SRCS];

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

/// The record contract, stated once. The operands are described as the
/// record keeps them, with zero-register reads and writes already
/// dropped: `nsrc` sources, `reads_mem` if one of them is a memory word,
/// the destination `dest`, and whether a branch `outcome` is attached.
///
/// * at most [`MAX_SRCS`] sources;
/// * a destination only on a value-creating class, and a memory
///   destination exactly on a store;
/// * a store names its memory destination;
/// * a load names a memory source (its register destination may be the
///   dropped zero register, just as `add r0, ...` has none);
/// * a branch outcome only on a branch.
///
/// The constructors panic on a violation; the text ingest parser and both
/// binary decoders return it as a typed error.
#[inline]
pub(crate) fn check_operands(
    class: OpClass,
    nsrc: usize,
    reads_mem: bool,
    dest: Option<Loc>,
    outcome: bool,
) -> Result<(), OperandViolation> {
    if nsrc > MAX_SRCS {
        return Err(OperandViolation::TooManySources);
    }
    match dest {
        Some(_) if !class.creates_value() => return Err(OperandViolation::DestOnControl(class)),
        Some(d) if d.is_mem() != (class == OpClass::Store) => {
            return Err(OperandViolation::MemDestNotStore)
        }
        None if class == OpClass::Store => return Err(OperandViolation::StoreWithoutMemDest),
        _ => {}
    }
    if class == OpClass::Load && !reads_mem {
        return Err(OperandViolation::LoadWithoutMemSource);
    }
    if outcome && class != OpClass::Branch {
        return Err(OperandViolation::OutcomeOnNonBranch);
    }
    Ok(())
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    pc: u64,
    class: OpClass,
    nsrc: u8,
    srcs: [Loc; MAX_SRCS],
    dest: Option<Loc>,
    branch: Option<BranchInfo>,
}

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
        let dest = dest.filter(|d| !d.is_zero_reg());
        let mut packed = NO_SRCS;
        let mut nsrc = 0usize;
        let mut reads_mem = false;
        for &s in srcs {
            reads_mem |= s.is_mem();
            if s.is_zero_reg() {
                continue;
            }
            if nsrc == MAX_SRCS {
                contract_panic(OperandViolation::TooManySources, pc);
            }
            packed[nsrc] = s;
            nsrc += 1;
        }
        if let Err(v) = check_operands(class, nsrc, reads_mem, dest, false) {
            contract_panic(v, pc);
        }
        TraceRecord::from_parts(pc, class, nsrc as u8, packed, dest, None)
    }

    /// Fallible [`TraceRecord::new`] that may also carry a branch outcome:
    /// checks the operands against the record contract, then builds the
    /// record.
    pub(crate) fn try_new(
        pc: u64,
        class: OpClass,
        srcs: &[Loc],
        dest: Option<Loc>,
        branch: Option<BranchInfo>,
    ) -> Result<TraceRecord, OperandViolation> {
        let nsrc = srcs.iter().filter(|s| !s.is_zero_reg()).count();
        let reads_mem = srcs.iter().any(|s| s.is_mem());
        let kept_dest = dest.filter(|d| !d.is_zero_reg());
        check_operands(class, nsrc, reads_mem, kept_dest, branch.is_some())?;
        // The operands keep the contract, so `new` cannot panic.
        let mut record = TraceRecord::new(pc, class, srcs, dest);
        record.branch = branch;
        Ok(record)
    }

    /// Builds a record without checking it. The caller has dropped the
    /// zero-register operands, left the unused `srcs` slots at
    /// [`NO_SRCS`]'s filler, and passed `srcs[..nsrc]`, `dest` and
    /// `branch` through [`check_operands`].
    #[inline]
    pub(crate) fn from_parts(
        pc: u64,
        class: OpClass,
        nsrc: u8,
        srcs: [Loc; MAX_SRCS],
        dest: Option<Loc>,
        branch: Option<BranchInfo>,
    ) -> TraceRecord {
        TraceRecord {
            pc,
            class,
            nsrc,
            srcs,
            dest,
            branch,
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
        rec.branch = Some(BranchInfo { taken, target });
        rec
    }

    /// An unconditional jump (no link-register write).
    pub fn jump(pc: u64, srcs: &[Loc]) -> TraceRecord {
        TraceRecord::new(pc, OpClass::Jump, srcs, None)
    }

    /// The program counter (instruction address) of this dynamic instruction.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// The operation's latency class.
    pub fn class(&self) -> OpClass {
        self.class
    }

    /// The locations read by this instruction (zero-register reads omitted).
    pub fn srcs(&self) -> &[Loc] {
        &self.srcs[..self.nsrc as usize]
    }

    /// The location written by this instruction, if any.
    pub fn dest(&self) -> Option<Loc> {
        self.dest
    }

    /// Whether the analyzer places this record in the DDG.
    pub fn creates_value(&self) -> bool {
        self.class.creates_value()
    }

    /// The recorded branch outcome, if this is a conditional branch whose
    /// outcome the tracer captured.
    pub fn branch_info(&self) -> Option<BranchInfo> {
        self.branch
    }

    /// The memory word this instruction accesses, if any.
    pub fn mem_addr(&self) -> Option<u64> {
        match self.class {
            OpClass::Load => self.srcs().iter().find_map(|s| s.addr()),
            OpClass::Store => self.dest.and_then(Loc::addr),
            _ => None,
        }
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
        if let Some(d) = self.dest {
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
        assert_eq!(rec.srcs(), &[Loc::int(3)]);
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
    fn syscall_records() {
        let rec = TraceRecord::syscall(0, &[Loc::int(2)], Some(Loc::int(2)));
        assert!(rec.creates_value());
        assert_eq!(rec.class(), OpClass::Syscall);
    }
}
