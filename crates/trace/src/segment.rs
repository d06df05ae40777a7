//! Memory segment classification.

use std::fmt;

/// The memory segment a word address belongs to.
///
/// The paper's renaming switches distinguish the register file, the stack
/// segment, and "non-stack segments" (static data plus heap). This enum
/// carries that classification for memory locations; registers are classified
/// directly from the [`Loc`](crate::Loc) variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Segment {
    /// Statically allocated data (the DATA segment).
    Data,
    /// Dynamically allocated (sbrk-style) heap storage.
    Heap,
    /// Procedure stack.
    Stack,
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Segment::Data => "data",
            Segment::Heap => "heap",
            Segment::Stack => "stack",
        })
    }
}

/// Classifies word addresses into [`Segment`]s.
///
/// The VM lays memory out as `[data | heap ... <gap> ... stack]` with the
/// stack growing down from the top of the address space, so two boundaries
/// suffice:
///
/// * addresses below `heap_base` are [`Segment::Data`],
/// * addresses from `heap_base` up to (but excluding) `stack_floor` are
///   [`Segment::Heap`], and
/// * addresses at or above `stack_floor` are [`Segment::Stack`].
///
/// # Examples
///
/// ```
/// use paragraph_trace::{Segment, SegmentMap};
///
/// let map = SegmentMap::new(0x1000, 0xf000);
/// assert_eq!(map.classify(0x10), Segment::Data);
/// assert_eq!(map.classify(0x2000), Segment::Heap);
/// assert_eq!(map.classify(0xff00), Segment::Stack);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentMap {
    heap_base: u64,
    stack_floor: u64,
}

impl SegmentMap {
    /// Creates a segment map from the two segment boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `heap_base > stack_floor`.
    pub fn new(heap_base: u64, stack_floor: u64) -> SegmentMap {
        assert!(
            heap_base <= stack_floor,
            "heap base {heap_base} must not exceed stack floor {stack_floor}"
        );
        SegmentMap {
            heap_base,
            stack_floor,
        }
    }

    /// A map that classifies every address as [`Segment::Data`].
    ///
    /// Appropriate for synthetic traces with no memory layout.
    pub fn all_data() -> SegmentMap {
        SegmentMap::new(u64::MAX, u64::MAX)
    }

    /// The first heap address.
    pub fn heap_base(&self) -> u64 {
        self.heap_base
    }

    /// The lowest address classified as stack.
    pub fn stack_floor(&self) -> u64 {
        self.stack_floor
    }

    /// The segment containing word address `addr`.
    #[inline]
    pub fn classify(&self, addr: u64) -> Segment {
        if addr >= self.stack_floor {
            Segment::Stack
        } else if addr >= self.heap_base {
            Segment::Heap
        } else {
            Segment::Data
        }
    }
}

impl Default for SegmentMap {
    /// Same as [`SegmentMap::all_data`].
    fn default() -> SegmentMap {
        SegmentMap::all_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_are_inclusive_exclusive() {
        let map = SegmentMap::new(100, 200);
        assert_eq!(map.classify(99), Segment::Data);
        assert_eq!(map.classify(100), Segment::Heap);
        assert_eq!(map.classify(199), Segment::Heap);
        assert_eq!(map.classify(200), Segment::Stack);
        assert_eq!(map.classify(u64::MAX), Segment::Stack);
    }

    #[test]
    fn all_data_classifies_everything_as_data() {
        let map = SegmentMap::all_data();
        assert_eq!(map.classify(0), Segment::Data);
        assert_eq!(map.classify(u64::MAX - 1), Segment::Data);
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn inverted_boundaries_panic() {
        SegmentMap::new(10, 5);
    }

    #[test]
    fn empty_heap_is_allowed() {
        let map = SegmentMap::new(50, 50);
        assert_eq!(map.classify(49), Segment::Data);
        assert_eq!(map.classify(50), Segment::Stack);
    }
}
