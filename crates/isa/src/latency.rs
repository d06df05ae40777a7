//! The operation latency model of Table 1.

use crate::class::OpClass;
use std::fmt;

/// Latencies, in DDG levels, for each [`OpClass`] (Table 1 of the paper).
///
/// The latency of an operation ("`top` ... the time in abstract machine steps
/// (or DDG levels) to complete the operation") determines how many levels the
/// operation spans in the dynamic dependency graph before the value it
/// creates is available to subsequent operations.
///
/// Control classes are carried with latency zero by convention: they are
/// never placed in the graph, so the value is unused, but keeping an entry
/// for every class lets the model be total.
///
/// # Examples
///
/// ```
/// use paragraph_isa::{LatencyModel, OpClass};
///
/// let model = LatencyModel::paper();
/// assert_eq!(model.latency(OpClass::IntAlu), 1);
/// assert_eq!(model.latency(OpClass::FpDiv), 12);
///
/// let unit = LatencyModel::unit();
/// assert_eq!(unit.latency(OpClass::FpDiv), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LatencyModel {
    levels: [u32; OpClass::ALL.len()],
}

impl LatencyModel {
    /// The latency model of Table 1 of the paper (MIPS R2000/R3000-era
    /// operation times).
    pub fn paper() -> LatencyModel {
        let mut model = LatencyModel::unit();
        model.set(OpClass::IntMul, 6);
        model.set(OpClass::IntDiv, 12);
        model.set(OpClass::FpAdd, 6);
        model.set(OpClass::FpMul, 6);
        model.set(OpClass::FpDiv, 12);
        model
    }

    /// A unit-latency model: every value-creating operation takes one level.
    ///
    /// Useful for isolating graph-shape effects from latency effects, and for
    /// checking analyses against hand-drawn graphs such as Figures 1-4 of the
    /// paper.
    pub fn unit() -> LatencyModel {
        let mut levels = [1; OpClass::ALL.len()];
        for class in [OpClass::Branch, OpClass::Jump, OpClass::Nop] {
            levels[class as usize] = 0;
        }
        LatencyModel { levels }
    }

    /// The latency, in DDG levels, of operations in `class`.
    #[inline]
    pub fn latency(&self, class: OpClass) -> u32 {
        self.levels[class as usize]
    }

    /// Overrides the latency of one class.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero for a value-creating class: the placement
    /// rule `Ldest = MAX(...) + top` requires every placed operation to
    /// advance at least one level, otherwise the graph would not be acyclic
    /// per level.
    pub fn set(&mut self, class: OpClass, levels: u32) -> &mut LatencyModel {
        assert!(
            levels > 0 || !class.creates_value(),
            "latency of value-creating class {class} must be positive"
        );
        self.levels[class as usize] = levels;
        self
    }

    /// Returns a copy with one class latency overridden.
    ///
    /// # Panics
    ///
    /// As for [`LatencyModel::set`].
    pub fn with(&self, class: OpClass, levels: u32) -> LatencyModel {
        let mut out = self.clone();
        out.set(class, levels);
        out
    }

    /// Iterates over `(class, latency)` pairs in Table 1 order.
    pub fn iter(&self) -> impl Iterator<Item = (OpClass, u32)> + '_ {
        OpClass::ALL
            .iter()
            .map(move |&class| (class, self.latency(class)))
    }
}

impl Default for LatencyModel {
    /// The paper's Table 1 model.
    fn default() -> LatencyModel {
        LatencyModel::paper()
    }
}

impl fmt::Display for LatencyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (class, latency) in self.iter() {
            if !class.creates_value() {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{class}={latency}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_matches_table_1() {
        let m = LatencyModel::paper();
        assert_eq!(m.latency(OpClass::IntAlu), 1);
        assert_eq!(m.latency(OpClass::IntMul), 6);
        assert_eq!(m.latency(OpClass::IntDiv), 12);
        assert_eq!(m.latency(OpClass::FpAdd), 6);
        assert_eq!(m.latency(OpClass::FpMul), 6);
        assert_eq!(m.latency(OpClass::FpDiv), 12);
        assert_eq!(m.latency(OpClass::Load), 1);
        assert_eq!(m.latency(OpClass::Store), 1);
        assert_eq!(m.latency(OpClass::Syscall), 1);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(LatencyModel::default(), LatencyModel::paper());
    }

    #[test]
    fn with_overrides_single_class() {
        let m = LatencyModel::paper().with(OpClass::Load, 3);
        assert_eq!(m.latency(OpClass::Load), 3);
        assert_eq!(m.latency(OpClass::Store), 1);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_latency_for_value_class_panics() {
        LatencyModel::paper().with(OpClass::IntAlu, 0);
    }

    #[test]
    fn control_classes_may_be_zero() {
        let m = LatencyModel::paper().with(OpClass::Branch, 0);
        assert_eq!(m.latency(OpClass::Branch), 0);
    }

    #[test]
    fn display_is_nonempty_and_lists_table_classes() {
        let text = LatencyModel::paper().to_string();
        assert!(text.contains("int-alu=1"));
        assert!(text.contains("fp-div=12"));
        assert!(!text.contains("branch"));
    }
}
