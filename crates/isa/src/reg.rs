//! Register names for the integer and floating-point register files.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// Number of architectural integer registers.
pub const NUM_INT_REGS: usize = 32;
/// Number of architectural floating-point registers.
pub const NUM_FP_REGS: usize = 32;

/// An architectural integer register, `r0` through `r31`.
///
/// `r0` is hardwired to zero: writes to it are discarded by the VM and it is
/// never entered into the dependency analyzer's live well (reading a constant
/// zero creates no dependency).
///
/// # Examples
///
/// ```
/// use paragraph_isa::IntReg;
///
/// let sp: IntReg = "r29".parse()?;
/// assert_eq!(sp.index(), 29);
/// assert_eq!(sp.to_string(), "r29");
/// # Ok::<(), paragraph_isa::ParseRegError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntReg(u8);

/// An architectural floating-point register, `f0` through `f31`.
///
/// # Examples
///
/// ```
/// use paragraph_isa::FpReg;
///
/// let f2: FpReg = "f2".parse()?;
/// assert_eq!(f2.index(), 2);
/// # Ok::<(), paragraph_isa::ParseRegError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FpReg(u8);

impl IntReg {
    /// The hardwired zero register, `r0`.
    pub const ZERO: IntReg = IntReg(0);

    /// Creates an integer register from its index.
    ///
    /// Returns `None` if `index` is not below [`NUM_INT_REGS`].
    pub fn new(index: u8) -> Option<IntReg> {
        if (index as usize) < NUM_INT_REGS {
            Some(IntReg(index))
        } else {
            None
        }
    }

    /// Creates an integer register in const context.
    ///
    /// # Panics
    ///
    /// Panics at compile time if `index` is out of range.
    pub const fn const_new(index: u8) -> IntReg {
        assert!((index as usize) < NUM_INT_REGS);
        IntReg(index)
    }

    /// The register index, in `0..32`.
    #[inline]
    pub fn index(self) -> u8 {
        self.0
    }

    /// Whether this is the hardwired zero register.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Iterates over every integer register, `r0` first.
    pub fn all() -> impl Iterator<Item = IntReg> {
        (0..NUM_INT_REGS as u8).map(IntReg)
    }
}

impl FpReg {
    /// Creates a floating-point register from its index.
    ///
    /// Returns `None` if `index` is not below [`NUM_FP_REGS`].
    pub fn new(index: u8) -> Option<FpReg> {
        if (index as usize) < NUM_FP_REGS {
            Some(FpReg(index))
        } else {
            None
        }
    }

    /// Creates a floating-point register in const context.
    ///
    /// # Panics
    ///
    /// Panics at compile time if `index` is out of range.
    pub const fn const_new(index: u8) -> FpReg {
        assert!((index as usize) < NUM_FP_REGS);
        FpReg(index)
    }

    /// The register index, in `0..32`.
    #[inline]
    pub fn index(self) -> u8 {
        self.0
    }

    /// Iterates over every floating-point register, `f0` first.
    pub fn all() -> impl Iterator<Item = FpReg> {
        (0..NUM_FP_REGS as u8).map(FpReg)
    }
}

impl fmt::Display for IntReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for FpReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Error returned when parsing a register name fails.
///
/// # Examples
///
/// ```
/// use paragraph_isa::IntReg;
///
/// assert!("r32".parse::<IntReg>().is_err());
/// assert!("x1".parse::<IntReg>().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError {
    text: String,
}

impl ParseRegError {
    fn new(text: &str) -> ParseRegError {
        ParseRegError {
            text: text.to_owned(),
        }
    }
}

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid register name `{}`", self.text)
    }
}

impl Error for ParseRegError {}

fn parse_index(text: &str, prefix: char, limit: usize) -> Result<u8, ParseRegError> {
    let rest = text
        .strip_prefix(prefix)
        .ok_or_else(|| ParseRegError::new(text))?;
    // Reject forms such as `r01` and `r+1` that u8::from_str would accept or
    // that read ambiguously.
    if rest.is_empty() || rest.len() > 2 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return Err(ParseRegError::new(text));
    }
    if rest.len() == 2 && rest.starts_with('0') {
        return Err(ParseRegError::new(text));
    }
    let index: u8 = rest.parse().map_err(|_| ParseRegError::new(text))?;
    if (index as usize) < limit {
        Ok(index)
    } else {
        Err(ParseRegError::new(text))
    }
}

impl FromStr for IntReg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<IntReg, ParseRegError> {
        // Accept the numeric form `rN` plus the handful of ABI aliases used
        // in hand-written assembly.
        match s {
            "zero" => return Ok(IntReg(0)),
            "v0" => return Ok(IntReg(2)),
            "v1" => return Ok(IntReg(3)),
            "a0" => return Ok(IntReg(4)),
            "a1" => return Ok(IntReg(5)),
            "a2" => return Ok(IntReg(6)),
            "a3" => return Ok(IntReg(7)),
            "sp" => return Ok(IntReg(29)),
            "fp" => return Ok(IntReg(30)),
            "ra" => return Ok(IntReg(31)),
            _ => {}
        }
        parse_index(s, 'r', NUM_INT_REGS).map(IntReg)
    }
}

impl FromStr for FpReg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<FpReg, ParseRegError> {
        parse_index(s, 'f', NUM_FP_REGS).map(FpReg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_reg_bounds() {
        assert!(IntReg::new(0).is_some());
        assert!(IntReg::new(31).is_some());
        assert!(IntReg::new(32).is_none());
        assert!(IntReg::new(255).is_none());
    }

    #[test]
    fn fp_reg_bounds() {
        assert!(FpReg::new(31).is_some());
        assert!(FpReg::new(32).is_none());
    }

    #[test]
    fn zero_register_identity() {
        assert!(IntReg::ZERO.is_zero());
        assert!(!IntReg::new(1).unwrap().is_zero());
    }

    #[test]
    fn display_round_trips_through_from_str() {
        for r in IntReg::all() {
            let parsed: IntReg = r.to_string().parse().unwrap();
            assert_eq!(parsed, r);
        }
        for r in FpReg::all() {
            let parsed: FpReg = r.to_string().parse().unwrap();
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn abi_aliases_parse() {
        assert_eq!("sp".parse::<IntReg>().unwrap().index(), 29);
        assert_eq!("ra".parse::<IntReg>().unwrap().index(), 31);
        assert_eq!("v0".parse::<IntReg>().unwrap().index(), 2);
        assert_eq!("zero".parse::<IntReg>().unwrap(), IntReg::ZERO);
    }

    #[test]
    fn malformed_names_rejected() {
        for bad in [
            "", "r", "r-1", "r001", "r32", "r 1", "R1", "f32", "fa", "r1x",
        ] {
            assert!(bad.parse::<IntReg>().is_err(), "accepted {bad:?}");
        }
        assert!("r01".parse::<IntReg>().is_err());
        assert!("f01".parse::<FpReg>().is_err());
    }

    #[test]
    fn all_covers_every_register_once() {
        let ints: Vec<_> = IntReg::all().collect();
        assert_eq!(ints.len(), NUM_INT_REGS);
        assert_eq!(ints[0], IntReg::ZERO);
        assert_eq!(ints[31].index(), 31);
    }
}
