//! Supervision primitives for fault-isolated sweeps: the typed per-cell
//! error taxonomy, per-cell result statuses, deterministic retry backoff,
//! and the environment-driven cell fault injector the CI smoke job uses.
//!
//! The scheduler (see [`run_sweep`](crate::scheduler::run_sweep)) wraps
//! every cell in `catch_unwind`, converts failures into [`CellError`],
//! retries with [`backoff_delay`], and quarantines cells that exhaust
//! their retries — the sweep itself always completes, reporting a
//! [`CellStatus`] per cell instead of dying on the first fault.

use std::fmt;
use std::time::Duration;

/// Why one sweep cell failed. The taxonomy follows the failure domains a
/// cell can actually die in: generating the trace (VM), or an
/// uncategorized panic captured at the `catch_unwind` boundary.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum CellError {
    /// The workload's VM faulted while generating the trace.
    Vm(String),
    /// The cell panicked; the payload was captured at the worker's
    /// `catch_unwind` boundary.
    Panic(String),
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Vm(msg) => write!(f, "VM fault: {msg}"),
            CellError::Panic(msg) => write!(f, "cell panicked: {msg}"),
        }
    }
}

impl std::error::Error for CellError {}

/// How one cell ended up after supervision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Succeeded on the first attempt (or was restored from a stage
    /// marker).
    Ok,
    /// Succeeded after at least one failed attempt.
    Retried,
    /// Exhausted its retries; the sweep completed without it.
    Quarantined,
}

impl CellStatus {
    /// The manifest encoding (`ok` | `retried` | `quarantined`).
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Retried => "retried",
            CellStatus::Quarantined => "quarantined",
        }
    }
}

impl fmt::Display for CellStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Longest single backoff the supervisor will sleep, whatever the
/// configured base and attempt count.
pub const MAX_BACKOFF_MS: u64 = 10_000;

/// The delay before retry number `attempt` (1-based: the delay after the
/// first failure is `attempt = 1`) of the cell at `cell_index`.
///
/// Bounded exponential backoff — `base_ms << (attempt - 1)` capped at
/// [`MAX_BACKOFF_MS`] — plus a jitter in `[0, base_ms]` derived from the
/// cell index through SplitMix64. The jitter decorrelates cells that fail
/// together (say, a full disk) without any wall-clock entropy: the same
/// sweep retries on the same schedule every run.
pub fn backoff_delay(base_ms: u64, attempt: u32, cell_index: usize) -> Duration {
    if base_ms == 0 {
        return Duration::ZERO;
    }
    let exp = attempt.saturating_sub(1).min(10);
    let scaled = base_ms.checked_shl(exp).unwrap_or(MAX_BACKOFF_MS);
    let jitter = splitmix64(cell_index as u64 ^ 0x5157_4545_5021) % (base_ms + 1);
    Duration::from_millis(scaled.min(MAX_BACKOFF_MS).saturating_add(jitter))
}

/// SplitMix64's output function: a high-quality 64-bit mix.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which [`CellError`] the fault injector raises (or `Panic`, raised as an
/// actual `panic!` so the `catch_unwind` boundary is exercised end to end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `panic!` inside the cell — the default, the worst case.
    Panic,
    /// A typed VM fault.
    Vm,
}

/// A deliberate per-cell fault, parsed from `PARAGRAPH_FAULT_CELL`:
///
/// ```text
/// PARAGRAPH_FAULT_CELL=<workload>@<label>[:<fails>[:<kind>]]
/// ```
///
/// The matching cell fails its first `fails` attempts (default: all of
/// them, i.e. guaranteed quarantine) with a fault of `kind`
/// (`panic` | `vm`, default `panic`).
/// This is the sweep-level companion of
/// [`FaultPlan`](paragraph_trace::faultinject::FaultPlan): it exists so
/// tests and the CI smoke job can force one cell down any failure path
/// and assert the siblings' artifacts never change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Workload name of the targeted cell.
    pub workload: String,
    /// Configuration label of the targeted cell.
    pub label: String,
    /// Number of leading attempts to fail.
    pub fails: u32,
    /// Failure mode to raise.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// Reads `PARAGRAPH_FAULT_CELL`; `None` when unset or unparsable (an
    /// unparsable spec also warns — a typo must not silently disable the
    /// fault the test meant to inject).
    pub fn from_env() -> Option<FaultSpec> {
        let raw = std::env::var("PARAGRAPH_FAULT_CELL").ok()?;
        let spec = FaultSpec::parse(&raw);
        if spec.is_none() {
            eprintln!("PARAGRAPH_FAULT_CELL: ignoring unparsable spec {raw:?}");
        }
        spec
    }

    /// Parses `<workload>@<label>[:<fails>[:<kind>]]`.
    pub fn parse(raw: &str) -> Option<FaultSpec> {
        let mut parts = raw.split(':');
        let target = parts.next()?;
        let (workload, label) = target.split_once('@')?;
        if workload.is_empty() || label.is_empty() {
            return None;
        }
        let fails = match parts.next() {
            Some(n) => n.parse().ok()?,
            None => u32::MAX,
        };
        let kind = match parts.next() {
            None => FaultKind::Panic,
            Some("panic") => FaultKind::Panic,
            Some("vm") => FaultKind::Vm,
            Some(_) => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(FaultSpec {
            workload: workload.to_owned(),
            label: label.to_owned(),
            fails,
            kind,
        })
    }

    /// Whether this spec targets the cell `workload@label`.
    pub fn targets(&self, workload: &str, label: &str) -> bool {
        self.workload == workload && self.label == label
    }

    /// Raises the configured fault if this spec targets the cell and
    /// `attempt` (1-based) is within the failing window. Called inside the
    /// worker's `catch_unwind` boundary, so the `panic` kind exercises the
    /// exact path a real analyzer bug would take.
    ///
    /// # Errors
    ///
    /// The configured [`CellError`] for a targeted attempt.
    ///
    /// # Panics
    ///
    /// With [`FaultKind::Panic`] on a targeted attempt (by design).
    pub fn inject(&self, workload: &str, label: &str, attempt: u32) -> Result<(), CellError> {
        if !self.targets(workload, label) || attempt > self.fails {
            return Ok(());
        }
        let at = format!("injected fault for {workload}@{label} attempt {attempt}");
        match self.kind {
            FaultKind::Panic => panic!("{at}"),
            FaultKind::Vm => Err(CellError::Vm(at)),
        }
    }
}

/// Renders a `catch_unwind` payload as a message: the `&str`/`String`
/// payloads real `panic!`s carry, or a placeholder for exotic payloads.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_owned()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let a = backoff_delay(25, 1, 3);
        assert_eq!(a, backoff_delay(25, 1, 3), "same inputs, same delay");
        assert!(backoff_delay(25, 2, 3) > a, "delay grows with attempts");
        assert_ne!(
            backoff_delay(25, 1, 3),
            backoff_delay(25, 1, 4),
            "jitter separates cells"
        );
        assert!(backoff_delay(25, 63, 0) <= Duration::from_millis(MAX_BACKOFF_MS + 25));
        assert_eq!(backoff_delay(0, 5, 9), Duration::ZERO);
    }

    #[test]
    fn fault_spec_parses_the_documented_grammar() {
        let full = FaultSpec::parse("eqntott@w64:2:vm").unwrap();
        assert_eq!(full.workload, "eqntott");
        assert_eq!(full.label, "w64");
        assert_eq!(full.fails, 2);
        assert_eq!(full.kind, FaultKind::Vm);

        let defaults = FaultSpec::parse("xlisp@dataflow").unwrap();
        assert_eq!(defaults.fails, u32::MAX);
        assert_eq!(defaults.kind, FaultKind::Panic);

        assert_eq!(FaultSpec::parse("xlisp@w64:1").unwrap().fails, 1);
        assert!(FaultSpec::parse("no-separator").is_none());
        assert!(FaultSpec::parse("@w64").is_none());
        assert!(FaultSpec::parse("x@").is_none());
        assert!(FaultSpec::parse("x@y:notanumber").is_none());
        assert!(FaultSpec::parse("x@y:1:plasma").is_none());
        assert!(FaultSpec::parse("x@y:1:decode").is_none());
        assert!(FaultSpec::parse("x@y:1:vm:extra").is_none());
    }

    #[test]
    fn inject_fails_only_the_leading_attempts_of_the_target() {
        let spec = FaultSpec::parse("eqntott@w64:2:vm").unwrap();
        assert!(spec.inject("xlisp", "w64", 1).is_ok(), "other workload");
        assert!(spec.inject("eqntott", "full", 1).is_ok(), "other label");
        assert!(matches!(
            spec.inject("eqntott", "w64", 1),
            Err(CellError::Vm(_))
        ));
        assert!(spec.inject("eqntott", "w64", 2).is_err());
        assert!(spec.inject("eqntott", "w64", 3).is_ok(), "past the window");
    }

    #[test]
    fn panic_kind_panics_and_is_catchable() {
        let spec = FaultSpec::parse("x@y").unwrap();
        let caught = std::panic::catch_unwind(|| spec.inject("x", "y", 1));
        let message = panic_message(caught.expect_err("must panic"));
        assert!(message.contains("injected fault for x@y"));
    }

    #[test]
    fn cell_error_display_names_the_domain() {
        assert!(CellError::Vm("boom".into())
            .to_string()
            .contains("VM fault"));
        assert!(CellError::Panic("p".into())
            .to_string()
            .contains("panicked"));
        assert_eq!(CellStatus::Quarantined.to_string(), "quarantined");
    }
}
