//! Dynamic dependency graph (DDG) construction and analysis.
//!
//! This crate is the reproduction of the contribution of Austin & Sohi,
//! *Dynamic Dependency Analysis of Ordinary Programs* (ISCA 1992): a
//! methodology for building and analyzing the dynamic dependency graph of a
//! program from a serial execution trace.
//!
//! Two implementations of the paper's placement algorithm are provided and
//! cross-validated against each other:
//!
//! * [`LiveWell`] — the paper's streaming, single-pass analyzer. It keeps
//!   only a hash table from storage location to DDG level (the *live well*)
//!   and produces the two metrics every trace analysis yields: the
//!   **parallelism profile** and the **critical path length**. It scales to
//!   arbitrarily long traces.
//! * [`Ddg`] / [`DdgBuilder`] — an explicit, materialized graph for bounded
//!   traces, with typed edges (true/storage/control), value-lifetime and
//!   degree-of-sharing distributions, storage-occupancy profiles, DOT
//!   export, and resource-constrained list scheduling ([`schedule`]).
//!
//! Analyses are configured by [`AnalysisConfig`], which exposes exactly the
//! paper's switches — system-call policy, the three renaming switches
//! (registers / stack / non-stack data), and the instruction window size —
//! plus the extensions the paper describes without tabling: branch
//! prediction with misprediction firewalls ([`branch`]), finite issue width
//! ([`AnalysisConfig::with_issue_limit`]), memory disambiguation models
//! ([`MemoryModel`]), streaming value-lifetime/sharing statistics, and
//! named machine presets ([`machine`]).
//!
//! # How placement works
//!
//! The analyzer walks the serial trace once. For each dynamic instruction
//! that creates a value it computes the *completion level*
//!
//! ```text
//! Ldest = MAX(Lsrc1, Lsrc2, highestLevel [, Ddest]) + top
//! ```
//!
//! 1. **Sources** — each source location is looked up in the live well. A
//!    location never written before holds a *preexisting* value (a
//!    pre-initialized register or DATA word) recorded at level -1, so it
//!    delays nothing.
//! 2. **Floor** — `highestLevel` is the placement floor. It rises when a
//!    conservative system call firewalls the graph (to the deepest level
//!    yet used), when the instruction window displaces an instruction (to
//!    the displaced instruction's level), and when a modelled branch
//!    mispredicts (to the branch's resolution level).
//! 3. **Storage** — if the destination's storage class is *not* renamed,
//!    `Ddest` (the deepest use of the value currently in the destination)
//!    joins the `MAX`: the overwrite must wait for the old value's last
//!    reader. Renaming a class simply deletes this term — that is the whole
//!    mechanism behind Table 4.
//! 4. **Latency** — `top` is the class latency from Table 1.
//!
//! The instruction is then recorded: the profile histogram counts it at
//! `Ldest`, its sources' `deepest_use` advance to `Ldest`, and the
//! destination's live-well entry is replaced with `{avail: Ldest,
//! deepest_use: Ldest}`. Critical path length is the deepest `Ldest` plus
//! one; available parallelism is placed operations divided by that.
//!
//! # Examples
//!
//! Analyze the paper's Figure 1 trace at the dataflow limit:
//!
//! ```
//! use paragraph_core::{analyze, AnalysisConfig};
//! use paragraph_trace::synthetic;
//!
//! let report = analyze(synthetic::figure1(), &AnalysisConfig::dataflow_limit());
//! assert_eq!(report.critical_path_length(), 4);
//! assert_eq!(report.placed_ops(), 8);
//! assert_eq!(report.available_parallelism(), 2.0);
//! ```
//!
//! The same trace with storage dependencies (no renaming) matches Figure 2:
//!
//! ```
//! use paragraph_core::{analyze, AnalysisConfig, RenameSet};
//! use paragraph_trace::synthetic;
//!
//! let config = AnalysisConfig::dataflow_limit().with_renames(RenameSet::none());
//! let report = analyze(synthetic::figure2(), &config);
//! assert_eq!(report.critical_path_length(), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
pub mod artifact;
pub mod branch;
pub mod checkpoint;
mod config;
mod ddg;
pub mod decimal;
mod dist;
mod error;
mod livewell;
pub mod machine;
mod memmodel;
pub mod parallel;
mod profile;
mod report;
pub mod run;
pub mod schedule;
pub mod slots;
pub mod telemetry;
mod well;
mod window;

pub use analyze::{analyze, analyze_refs, analyze_slice, analyze_with_stats};
pub use checkpoint::{CheckpointError, TraceIdentity};
pub use config::{parse_num, AnalysisConfig, RenameSet, SyscallPolicy, WindowSize, SWITCHES};
pub use ddg::{Ddg, DdgBuilder, DdgNode, DepKind, Edge, NodeId};
pub use dist::Distribution;
pub use error::AnalysisError;
pub use livewell::{InternedWell, LiveWell, LiveWellImpl, SegmentOutcome};
pub use memmodel::MemoryModel;
pub use parallel::analyze_parallel;
pub use profile::{ParallelismProfile, ProfileBin};
pub use report::AnalysisReport;
pub use run::{Policy, Run, RunStats, Stop};
pub use well::{MemTable, PagedWell};
pub use window::WindowLimiter;

/// The paper's latency model, re-exported for convenience (Table 1).
pub use paragraph_isa::LatencyModel;
