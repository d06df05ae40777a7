//! `paragraph serve` — a fault-isolated, load-shedding, gracefully
//! draining multi-tenant analysis daemon.
//!
//! The Paragraph toolkit's batch front end (`paragraph analyze`) pays the
//! trace decode on every invocation and serves one analysis per process.
//! This crate turns the same engine into a long-lived service: traces are
//! uploaded once, decoded once under strict admission limits, and
//! analyzed many times — concurrently, under different configurations,
//! incrementally through sessions — over plain HTTP/1.1 with **zero new
//! dependencies** (`std::net` sockets, a hand-rolled parser for a small
//! HTTP subset, and the vendored `signal-lite` shim on the CLI side for
//! `SIGTERM`/`SIGINT`).
//!
//! The module map mirrors the request lifecycle:
//!
//! * [`http`] — the bounded HTTP/1.1 subset (request line, headers and
//!   body all capped; `Expect: 100-continue` honoured).
//! * [`pool`] — the bounded worker pool: full queue ⇒ 429, panicking
//!   handler ⇒ 500 + worker recycled, never a dead process.
//! * [`store`] — governed trace admission ([`Limits::strict`] by
//!   default), crash-consistent spool, byte-budgeted decode cache.
//! * [`session`] — incremental analyses with checkpoint eviction: idle
//!   sessions over the live budget are written as standard PGCP
//!   checkpoints and resumed on next touch.
//! * [`server`] — routing, drain semantics, `/healthz` + `/metrics`.
//! * [`fault`] — `PARAGRAPH_FAULT_REQUEST`, the deterministic request
//!   fault injector mirroring the sweep supervisor's
//!   `PARAGRAPH_FAULT_CELL`.
//! * [`client`] — the matching minimal client (used by `paragraph
//!   client` and the test suites).
//! * [`error`] — the failure taxonomy and its HTTP status mapping,
//!   aligned with the CLI's exit codes 2–7 (see the README table).
//!
//! Responses are **byte-identical** to the CLI for the same trace and
//! configuration: a JSON report body equals the `--json` artifact, a text
//! body equals `analyze`'s stdout ([`render_report_text`] is the single
//! shared renderer), and `jobs` variation never changes the bytes, by the
//! parallel engine's determinism contract.
//!
//! [`Limits::strict`]: paragraph_trace::Limits::strict

#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod fault;
pub mod http;
pub mod pool;
pub mod server;
pub mod session;
pub mod store;

pub use client::{request, ClientResponse, Endpoint};
pub use error::ServeError;
pub use fault::{RequestFault, RequestFaultKind};
pub use server::{ServeOptions, ServeSummary, Server};

use paragraph_core::AnalysisReport;
use std::fmt::Write as _;

/// Renders a report exactly as `paragraph analyze` prints it to stdout:
/// the report's `Display` form followed by the optional value-lifetime
/// and sharing-degree lines. The CLI and the daemon both call this, so
/// "served text == CLI stdout" holds by construction rather than by
/// parallel maintenance.
pub fn render_report_text(report: &AnalysisReport) -> String {
    let _span = paragraph_core::span!("report.render");
    let mut out = String::new();
    let _ = write!(out, "{report}");
    if let Some(lifetimes) = report.value_lifetimes() {
        let _ = writeln!(
            out,
            "  value lifetimes       : mean {:.2} levels, p50 {}, p99 {}, max {}",
            lifetimes.mean(),
            lifetimes.percentile(0.5).unwrap_or(0),
            lifetimes.percentile(0.99).unwrap_or(0),
            lifetimes.max().unwrap_or(0)
        );
    }
    if let Some(sharing) = report.sharing_degrees() {
        let _ = writeln!(
            out,
            "  degree of sharing     : mean {:.2} consumers, p99 {}, max {}",
            sharing.mean(),
            sharing.percentile(0.99).unwrap_or(0),
            sharing.max().unwrap_or(0)
        );
    }
    out
}
