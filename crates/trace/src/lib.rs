//! Dynamic execution traces for the Paragraph toolkit.
//!
//! The paper's tool consumed serial execution traces captured with Pixie on
//! DECstation workstations. This crate defines the reproduction's equivalent
//! trace model:
//!
//! * [`TraceRecord`] — one dynamic instruction: its program counter, its
//!   [`OpClass`](paragraph_isa::OpClass), and the storage [`Loc`]ations it
//!   reads and writes (registers and word-addressed memory).
//! * [`InternedTrace`] — a trace with every operand as a dense slot of one
//!   register-and-memory slot space, for analyzers that walk a resident
//!   trace many times.
//! * [`SegmentMap`] — classifies memory addresses into data, heap and stack
//!   [`Segment`]s, which is what the analyzer's *Rename Stack* / *Rename
//!   Data* switches key on.
//! * [`TraceStats`] — first-order metrics (operation frequencies) of a trace.
//! * [`binary`] — a compact binary on-disk trace format with a streaming
//!   reader and writer, so traces can be captured once and re-analyzed under
//!   many machine models. Version 2 frames records into checksummed chunks
//!   so a reader can survive (and account for) corruption; see
//!   [`error::TraceError`] for the typed failures and [`faultinject`] for
//!   the harness that exercises them.
//! * [`synthetic`] — parametric trace generators with known dependency
//!   structure (chains, wide independent blocks, diamonds), used heavily by
//!   the analyzer's test suite.
//!
//! # Examples
//!
//! ```
//! use paragraph_trace::{Loc, TraceRecord};
//! use paragraph_isa::OpClass;
//!
//! // r5 <- r4 + r4 at pc 16
//! let rec = TraceRecord::compute(16, OpClass::IntAlu, &[Loc::int(4), Loc::int(4)], Loc::int(5));
//! assert_eq!(rec.srcs().len(), 2);
//! assert_eq!(rec.dest(), Some(Loc::int(5)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod crc32;
pub mod error;
#[doc(hidden)]
pub mod fasthash;
pub mod faultinject;
pub mod govern;
pub mod ingest;
mod interned;
mod loc;
mod record;
mod segment;
pub mod source;
mod stats;
pub mod synthetic;
pub mod wire;

pub use error::{TraceError, TraceErrorKind};
pub use govern::{EnvLimitErrors, LimitViolation, Limits, ResourceGovernor};
pub use interned::{InternedRecord, InternedRef, InternedTrace, Interner, REG_SLOTS};
pub use loc::{Loc, Operand};
pub use record::{BranchInfo, Srcs, TraceRecord, MAX_SRCS};
pub use segment::{Segment, SegmentMap};
pub use source::{SharedBytes, SourceBackend, TraceSource};
pub use stats::TraceStats;
