//! Storage locations named by trace records.

use paragraph_isa::{FpReg, IntReg, RegRef};
use std::fmt;

/// A storage location: an architectural register or a memory word.
///
/// Locations are the keys of the analyzer's live well: every value created
/// during execution is bound to the location that holds it, and storage
/// dependencies arise when a location is reused for a new value.
///
/// Memory is word-addressed (one 64-bit value per address), matching the VM.
///
/// # Examples
///
/// ```
/// use paragraph_trace::Loc;
///
/// assert!(Loc::int(4).is_reg());
/// assert!(Loc::mem(0x1000).is_mem());
/// assert_eq!(Loc::fp(2).to_string(), "f2");
/// assert_eq!(Loc::mem(64).to_string(), "[64]");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Loc {
    /// An integer register.
    IntReg(IntReg),
    /// A floating-point register.
    FpReg(FpReg),
    /// A memory word at the given word address.
    Mem(u64),
}

impl Loc {
    /// An integer register location.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below 32.
    pub fn int(index: u8) -> Loc {
        match IntReg::new(index) {
            Some(reg) => Loc::IntReg(reg),
            None => panic!("integer register index {index} out of range"),
        }
    }

    /// A floating-point register location.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below 32.
    pub fn fp(index: u8) -> Loc {
        match FpReg::new(index) {
            Some(reg) => Loc::FpReg(reg),
            None => panic!("floating-point register index {index} out of range"),
        }
    }

    /// A memory-word location.
    #[inline]
    pub fn mem(addr: u64) -> Loc {
        Loc::Mem(addr)
    }

    /// Whether this location is a register (of either file).
    #[inline]
    pub fn is_reg(self) -> bool {
        matches!(self, Loc::IntReg(_) | Loc::FpReg(_))
    }

    /// Whether this location is a memory word.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, Loc::Mem(_))
    }

    /// The memory address, if this is a memory location.
    #[inline]
    pub fn addr(self) -> Option<u64> {
        match self {
            Loc::Mem(a) => Some(a),
            _ => None,
        }
    }

    /// Whether this is the hardwired integer zero register, which never
    /// carries a dependency.
    #[inline]
    pub fn is_zero_reg(self) -> bool {
        matches!(self, Loc::IntReg(r) if r.is_zero())
    }
}

/// An operand as the analyzer's kernel consumes it, read straight from a
/// packed [`TraceRecord`](crate::TraceRecord) without building a [`Loc`].
///
/// # Examples
///
/// ```
/// use paragraph_trace::{Loc, Operand};
///
/// assert_eq!(Loc::from(Operand::Reg(3)), Loc::int(3));
/// assert_eq!(Loc::from(Operand::Reg(32 + 3)), Loc::fp(3));
/// assert_eq!(Loc::from(Operand::Mem(64)), Loc::mem(64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register by flat index: integer registers are `0..32`,
    /// floating-point registers `32..64`.
    Reg(usize),
    /// A memory word at the given word address.
    Mem(u64),
}

/// Number of flat register indices: both register files.
const FLAT_REGS: usize = 64;

/// Every register location, by flat index.
const REG_LOCS: [Loc; FLAT_REGS] = {
    let mut locs = [Loc::IntReg(IntReg::ZERO); FLAT_REGS];
    let mut i = 0;
    while i < 32 {
        locs[i] = Loc::IntReg(IntReg::const_new(i as u8));
        locs[32 + i] = Loc::FpReg(FpReg::const_new(i as u8));
        i += 1;
    }
    locs
};

impl Loc {
    /// The register location at flat index `flat % 64` (integer registers
    /// `0..32`, floating-point registers `32..64`).
    #[inline]
    pub(crate) fn flat_reg(flat: u64) -> Loc {
        REG_LOCS[(flat % FLAT_REGS as u64) as usize]
    }
}

impl From<Operand> for Loc {
    /// # Panics
    ///
    /// Panics if a register's flat index is not below 64.
    #[inline]
    fn from(op: Operand) -> Loc {
        match op {
            Operand::Reg(flat) => REG_LOCS[flat],
            Operand::Mem(addr) => Loc::Mem(addr),
        }
    }
}

impl From<RegRef> for Loc {
    fn from(r: RegRef) -> Loc {
        match r {
            RegRef::Int(r) => Loc::IntReg(r),
            RegRef::Fp(r) => Loc::FpReg(r),
        }
    }
}

impl From<IntReg> for Loc {
    fn from(r: IntReg) -> Loc {
        Loc::IntReg(r)
    }
}

impl From<FpReg> for Loc {
    fn from(r: FpReg) -> Loc {
        Loc::FpReg(r)
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Loc::IntReg(r) => r.fmt(f),
            Loc::FpReg(r) => r.fmt(f),
            Loc::Mem(a) => write!(f, "[{a}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_predicates() {
        assert!(Loc::int(0).is_reg());
        assert!(Loc::int(0).is_zero_reg());
        assert!(!Loc::int(1).is_zero_reg());
        assert!(!Loc::fp(0).is_zero_reg());
        assert!(Loc::mem(7).is_mem());
        assert_eq!(Loc::mem(7).addr(), Some(7));
        assert_eq!(Loc::int(7).addr(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_reg_out_of_range_panics() {
        Loc::int(32);
    }

    #[test]
    fn reg_ref_conversion() {
        let r = RegRef::Int(IntReg::new(5).unwrap());
        assert_eq!(Loc::from(r), Loc::int(5));
        let f = RegRef::Fp(FpReg::new(6).unwrap());
        assert_eq!(Loc::from(f), Loc::fp(6));
    }

    #[test]
    fn ordering_groups_register_files() {
        // The derived ordering keeps int regs, fp regs and memory separate,
        // which report code relies on for stable grouping.
        assert!(Loc::int(31) < Loc::fp(0));
        assert!(Loc::fp(31) < Loc::mem(0));
    }
}
