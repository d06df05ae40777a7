//! Branch prediction models for control-dependency studies.
//!
//! The paper's base analyses assume perfect control flow ("perfect control
//! flow and memory disambiguation is assumed in the dataflow analysis") but
//! §3.2 describes the extension implemented here: "The firewall can also be
//! used to represent the effect of a mispredicted conditional branch,
//! resulting in all operations after the conditional branch being placed
//! into the DDG with a control dependency to the firewall."
//!
//! Under [`BranchPolicy::Predict`], every conditional branch whose recorded
//! outcome the configured predictor misses raises the placement floor to
//! the branch's *resolution level* (the level at which its source operands
//! are available): nothing fetched after a mispredicted branch can execute
//! before the branch resolves. This is exactly the mechanism separating
//! this paper's "perfect" numbers from the branch-predicted limits of Wall
//! (ASPLOS 1991) and Smith/Johnson/Horowitz, which the paper cites for
//! comparison.
//!
//! # Examples
//!
//! ```
//! use paragraph_core::branch::{Predictor, PredictorKind};
//!
//! let mut predictor = Predictor::new(PredictorKind::Bimodal { index_bits: 4 });
//! // A loop back-edge: taken, taken, taken, ... trains quickly.
//! let mut misses = 0;
//! for _ in 0..8 {
//!     if !predictor.predict_and_train(0x40, true, 0x10) {
//!         misses += 1;
//!     }
//! }
//! assert!(misses <= 2);
//! ```

use std::fmt;

/// How conditional branches constrain the DDG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchPolicy {
    /// Perfect control flow: branches never constrain placement (the
    /// paper's setting for all of its tables and figures).
    #[default]
    Perfect,
    /// Model a predictor; each mispredicted branch firewalls the graph at
    /// the branch's resolution level. Branch records without a recorded
    /// outcome are treated as correctly predicted.
    Predict(PredictorKind),
    /// Every conditional branch firewalls the graph at its resolution
    /// level: the serial-fetch lower bound (no prediction at all).
    StallAlways,
}

impl fmt::Display for BranchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BranchPolicy::Perfect => f.write_str("perfect"),
            BranchPolicy::Predict(kind) => write!(f, "predict({kind})"),
            BranchPolicy::StallAlways => f.write_str("stall-always"),
        }
    }
}

/// The `branch` switch's grammar: `perfect | stall | always-taken |
/// never-taken | btfn | bimodal:N | gshare:N`, where `N` (at most 28) is
/// the log2 of the counter-table size.
impl std::str::FromStr for BranchPolicy {
    type Err = String;

    fn from_str(mode: &str) -> Result<BranchPolicy, String> {
        use PredictorKind::*;
        let predict = |kind| Ok(BranchPolicy::Predict(kind));
        let bits = |bits: &str| match bits.parse() {
            Ok(index_bits) if index_bits <= MAX_INDEX_BITS => Ok(index_bits),
            _ => Err(format!("invalid predictor size `{bits}` (0..=28)")),
        };
        match (mode, mode.split_once(':')) {
            ("perfect", _) => Ok(BranchPolicy::Perfect),
            ("stall", _) => Ok(BranchPolicy::StallAlways),
            ("always-taken", _) => predict(AlwaysTaken),
            ("never-taken", _) => predict(NeverTaken),
            ("btfn", _) => predict(Btfn),
            (_, Some(("bimodal", b))) => predict(Bimodal {
                index_bits: bits(b)?,
            }),
            (_, Some(("gshare", b))) => predict(Gshare {
                index_bits: bits(b)?,
            }),
            _ => Err(format!("unknown branch policy `{mode}`")),
        }
    }
}

/// The largest predictor table [`Predictor::new`] accepts, as log2 of its
/// counter count.
const MAX_INDEX_BITS: u8 = 28;

/// The predictor families available to [`BranchPolicy::Predict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Predict every branch taken.
    AlwaysTaken,
    /// Predict every branch not taken.
    NeverTaken,
    /// Static backward-taken/forward-not-taken (loop heuristic).
    Btfn,
    /// Two-bit saturating counters indexed by the low pc bits.
    Bimodal {
        /// log2 of the counter-table size.
        index_bits: u8,
    },
    /// Two-bit counters indexed by pc XOR a global history register.
    Gshare {
        /// log2 of the counter-table size; also the history length.
        index_bits: u8,
    },
}

impl fmt::Display for PredictorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictorKind::AlwaysTaken => f.write_str("always-taken"),
            PredictorKind::NeverTaken => f.write_str("never-taken"),
            PredictorKind::Btfn => f.write_str("btfn"),
            PredictorKind::Bimodal { index_bits } => write!(f, "bimodal-{index_bits}"),
            PredictorKind::Gshare { index_bits } => write!(f, "gshare-{index_bits}"),
        }
    }
}

/// A running branch predictor.
///
/// Deterministic, allocation-free after construction, and cheap enough to
/// sit on the analyzer's per-record path.
#[derive(Debug, Clone)]
pub struct Predictor {
    kind: PredictorKind,
    counters: Vec<u8>,
    history: u64,
    predictions: u64,
    mispredictions: u64,
}

impl Predictor {
    /// Creates a predictor of the given kind with cleared state.
    ///
    /// # Panics
    ///
    /// Panics if a table-based kind asks for more than 28 index bits.
    pub fn new(kind: PredictorKind) -> Predictor {
        let table_bits = match kind {
            PredictorKind::Bimodal { index_bits } | PredictorKind::Gshare { index_bits } => {
                assert!(index_bits <= MAX_INDEX_BITS, "predictor table too large");
                index_bits
            }
            _ => 0,
        };
        Predictor {
            kind,
            // Counters start weakly not-taken (01 pattern = 1).
            counters: vec![1u8; 1usize << table_bits],
            history: 0,
            predictions: 0,
            mispredictions: 0,
        }
    }

    /// The predictor kind.
    pub fn kind(&self) -> PredictorKind {
        self.kind
    }

    fn index(&self, pc: u64) -> usize {
        let mask = self.counters.len() as u64 - 1;
        let idx = match self.kind {
            PredictorKind::Gshare { .. } => (pc ^ self.history) & mask,
            _ => pc & mask,
        };
        idx as usize
    }

    /// Predicts the branch at `pc` (with static `target`), trains on the
    /// actual outcome, and returns whether the prediction was **correct**.
    pub fn predict_and_train(&mut self, pc: u64, taken: bool, target: u64) -> bool {
        self.predictions += 1;
        let predicted = match self.kind {
            PredictorKind::AlwaysTaken => true,
            PredictorKind::NeverTaken => false,
            PredictorKind::Btfn => target <= pc,
            PredictorKind::Bimodal { .. } | PredictorKind::Gshare { .. } => {
                self.counters[self.index(pc)] >= 2
            }
        };
        // Train.
        match self.kind {
            PredictorKind::Bimodal { .. } | PredictorKind::Gshare { .. } => {
                let idx = self.index(pc);
                let counter = &mut self.counters[idx];
                if taken {
                    *counter = (*counter + 1).min(3);
                } else {
                    *counter = counter.saturating_sub(1);
                }
            }
            _ => {}
        }
        if matches!(self.kind, PredictorKind::Gshare { .. }) {
            self.history = (self.history << 1) | u64::from(taken);
        }
        let correct = predicted == taken;
        if !correct {
            self.mispredictions += 1;
        }
        correct
    }

    /// Branches predicted so far.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Branches mispredicted so far.
    pub fn mispredictions(&self) -> u64 {
        self.mispredictions
    }

    /// Fraction of branches predicted correctly (1.0 when none seen).
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            1.0
        } else {
            1.0 - self.mispredictions as f64 / self.predictions as f64
        }
    }

    /// Mutable state for checkpointing: `(counters, history, predictions,
    /// mispredictions)`. The kind comes from the analysis configuration.
    pub(crate) fn raw_state(&self) -> (&[u8], u64, u64, u64) {
        (
            &self.counters,
            self.history,
            self.predictions,
            self.mispredictions,
        )
    }

    /// Rebuilds a predictor from checkpointed state; `None` if the counter
    /// table does not match the kind's table size.
    pub(crate) fn from_raw_state(
        kind: PredictorKind,
        counters: Vec<u8>,
        history: u64,
        predictions: u64,
        mispredictions: u64,
    ) -> Option<Predictor> {
        let fresh = Predictor::new(kind);
        if counters.len() != fresh.counters.len() || counters.iter().any(|&c| c > 3) {
            return None;
        }
        Some(Predictor {
            kind,
            counters,
            history,
            predictions,
            mispredictions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_and_never_taken_are_complementary() {
        let mut at = Predictor::new(PredictorKind::AlwaysTaken);
        let mut nt = Predictor::new(PredictorKind::NeverTaken);
        for (i, taken) in [true, false, true, true].into_iter().enumerate() {
            let a = at.predict_and_train(i as u64, taken, 0);
            let n = nt.predict_and_train(i as u64, taken, 0);
            assert_ne!(a, n);
        }
        assert_eq!(at.mispredictions() + nt.mispredictions(), 4);
    }

    #[test]
    fn btfn_uses_direction() {
        let mut p = Predictor::new(PredictorKind::Btfn);
        assert!(p.predict_and_train(100, true, 50)); // backward taken: correct
        assert!(p.predict_and_train(100, false, 150)); // forward not taken: correct
        assert!(!p.predict_and_train(100, false, 50)); // backward not taken: wrong
        assert!((p.accuracy() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bimodal_learns_a_biased_branch() {
        let mut p = Predictor::new(PredictorKind::Bimodal { index_bits: 6 });
        for _ in 0..50 {
            p.predict_and_train(8, true, 0);
        }
        // After warmup, it should track a fully biased branch perfectly.
        assert!(p.mispredictions() <= 2, "{} misses", p.mispredictions());
    }

    #[test]
    fn bimodal_counters_are_per_pc() {
        let mut p = Predictor::new(PredictorKind::Bimodal { index_bits: 6 });
        for _ in 0..10 {
            p.predict_and_train(1, true, 0);
            p.predict_and_train(2, false, 0);
        }
        // Both streams are learnable independently.
        assert!(p.predict_and_train(1, true, 0));
        assert!(p.predict_and_train(2, false, 0));
    }

    #[test]
    fn gshare_learns_an_alternating_pattern() {
        // T,N,T,N... defeats bimodal (counters oscillate around the
        // threshold) but gshare keys on history and locks on.
        let mut gshare = Predictor::new(PredictorKind::Gshare { index_bits: 8 });
        let mut bimodal = Predictor::new(PredictorKind::Bimodal { index_bits: 8 });
        for i in 0..400u64 {
            let taken = i % 2 == 0;
            gshare.predict_and_train(4, taken, 0);
            bimodal.predict_and_train(4, taken, 0);
        }
        assert!(
            gshare.accuracy() > 0.9,
            "gshare accuracy {}",
            gshare.accuracy()
        );
        assert!(gshare.accuracy() > bimodal.accuracy());
    }

    #[test]
    fn accuracy_of_fresh_predictor_is_one() {
        assert_eq!(Predictor::new(PredictorKind::Btfn).accuracy(), 1.0);
    }

    #[test]
    #[should_panic(expected = "predictor table too large")]
    fn oversized_table_panics() {
        Predictor::new(PredictorKind::Bimodal { index_bits: 40 });
    }

    #[test]
    fn branch_policies_parse() {
        let parse = |s: &str| s.parse::<BranchPolicy>();
        assert_eq!(parse("perfect"), Ok(BranchPolicy::Perfect));
        assert_eq!(parse("stall"), Ok(BranchPolicy::StallAlways));
        assert_eq!(
            parse("btfn"),
            Ok(BranchPolicy::Predict(PredictorKind::Btfn))
        );
        assert_eq!(
            parse("bimodal:12"),
            Ok(BranchPolicy::Predict(PredictorKind::Bimodal {
                index_bits: 12
            }))
        );
        assert_eq!(
            parse("gshare:8"),
            Ok(BranchPolicy::Predict(PredictorKind::Gshare {
                index_bits: 8
            }))
        );
        assert!(parse("oracle").is_err());
        assert!(parse("bimodal:x").is_err());
        // A table `Predictor::new` would refuse is a grammar error instead.
        assert!(parse("gshare:29").is_err());
    }
}
