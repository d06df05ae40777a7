//! Deterministic request-level fault injection.
//!
//! `PARAGRAPH_FAULT_REQUEST=<METHOD>@<path-prefix>[:<fails>[:<kind>]]`
//! mirrors the sweep supervisor's `PARAGRAPH_FAULT_CELL` grammar: the
//! first `<fails>` requests whose method matches `<METHOD>` (or `*`) and
//! whose path starts with `<path-prefix>` are made to fail with `<kind>`.
//! Subsequent matching requests proceed normally, so a soak test can
//! assert both the failure *and* the recovery behind it.
//!
//! Kinds:
//!
//! * `panic` — the handler panics mid-request; the connection loop turns
//!   it into a 500 and the worker is recycled. The default.
//! * `reject` — a synthetic governor rejection: 422 with the standard
//!   JSON rejection report (`limit` = `injected-fault`).
//! * `corrupt` — the request is treated as undecodable: 400.
//! * `deadline` — a synthetic deadline overrun: 422 with `limit` =
//!   `deadline`.
//! * `disconnect` — the server drops the connection without writing a
//!   response, exercising client-side disconnect handling.
//! * `stall` — the handler sleeps one second before proceeding normally,
//!   for queue-pressure tests.

use crate::error::ServeError;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// What an armed fault does to the matched request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestFaultKind {
    /// Panic inside the handler (worker recycled, response 500).
    Panic,
    /// Synthetic governor rejection (422).
    Reject,
    /// Synthetic corruption (400).
    Corrupt,
    /// Synthetic deadline overrun (422, limit `deadline`).
    Deadline,
    /// Drop the connection without a response.
    Disconnect,
    /// Sleep one second, then handle normally.
    Stall,
}

/// A parsed `PARAGRAPH_FAULT_REQUEST` spec plus its live injection count.
#[derive(Debug)]
pub struct RequestFault {
    method: String,
    path_prefix: String,
    fails: u32,
    kind: RequestFaultKind,
    injected: Arc<AtomicU32>,
}

impl RequestFault {
    /// Parses the spec grammar. `None` for the empty string.
    pub fn parse(spec: &str) -> Result<Option<RequestFault>, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(None);
        }
        let (method, rest) = spec.split_once('@').ok_or_else(|| {
            format!("fault spec `{spec}` is missing `@` (METHOD@path[:fails[:kind]])")
        })?;
        let mut parts = rest.splitn(3, ':');
        let path_prefix = parts
            .next()
            .filter(|p| p.starts_with('/'))
            .ok_or_else(|| format!("fault spec `{spec}` needs an absolute path prefix"))?;
        let fails = match parts.next() {
            None | Some("") => 1,
            Some(n) => n
                .parse()
                .map_err(|_| format!("fault spec `{spec}` has an unparseable fail count `{n}`"))?,
        };
        let kind = match parts.next() {
            None | Some("") | Some("panic") => RequestFaultKind::Panic,
            Some("reject") => RequestFaultKind::Reject,
            Some("corrupt") => RequestFaultKind::Corrupt,
            Some("deadline") => RequestFaultKind::Deadline,
            Some("disconnect") => RequestFaultKind::Disconnect,
            Some("stall") => RequestFaultKind::Stall,
            Some(other) => {
                return Err(format!(
                    "fault spec `{spec}` has unknown kind `{other}` \
                     (panic|reject|corrupt|deadline|disconnect|stall)"
                ))
            }
        };
        Ok(Some(RequestFault {
            method: method.to_ascii_uppercase(),
            path_prefix: path_prefix.to_owned(),
            fails,
            kind,
            injected: Arc::default(),
        }))
    }

    /// Reads `PARAGRAPH_FAULT_REQUEST` from the environment. A malformed
    /// spec is an error — fault injection that silently does nothing would
    /// make a soak test pass vacuously.
    pub fn from_env() -> Result<Option<RequestFault>, String> {
        match std::env::var("PARAGRAPH_FAULT_REQUEST") {
            Ok(spec) => RequestFault::parse(&spec),
            Err(_) => Ok(None),
        }
    }

    /// If this request matches and the fail budget is not exhausted,
    /// consumes one failure and returns the kind to inject.
    pub fn arm(&self, method: &str, path: &str) -> Option<RequestFaultKind> {
        if self.method != "*" && self.method != method {
            return None;
        }
        if !path.starts_with(&self.path_prefix) {
            return None;
        }
        // Racing requests may both pass the gate; the budget is enforced
        // by the atomic increment, so at most `fails` ever arm.
        let prior = self.injected.fetch_add(1, Ordering::Relaxed);
        if prior < self.fails {
            Some(self.kind)
        } else {
            self.injected.fetch_sub(1, Ordering::Relaxed);
            None
        }
    }

    /// How many faults have been injected so far, as a shared handle that
    /// outlives moving the fault into a server: a test waits on it to know
    /// that a matched request reached its worker (a `stall` is counted
    /// before it sleeps).
    pub fn injections(&self) -> Arc<AtomicU32> {
        Arc::clone(&self.injected)
    }
}

/// The synthetic error an armed `reject`/`corrupt`/`deadline` fault
/// produces; `panic`/`disconnect`/`stall` are enacted by the caller.
pub fn injected_error(kind: RequestFaultKind, path: &str) -> Option<ServeError> {
    match kind {
        RequestFaultKind::Reject => Some(ServeError::Rejected {
            scope: path.to_owned(),
            limit: "injected-fault".into(),
            what: "injected governor rejection".into(),
            actual: 1,
            cap: 0,
            detail: "injected governor rejection (PARAGRAPH_FAULT_REQUEST)".into(),
        }),
        RequestFaultKind::Corrupt => Some(ServeError::BadRequest(
            "injected corruption (PARAGRAPH_FAULT_REQUEST)".into(),
        )),
        RequestFaultKind::Deadline => Some(ServeError::Rejected {
            scope: path.to_owned(),
            limit: "deadline".into(),
            what: "injected deadline overrun".into(),
            actual: 1,
            cap: 0,
            detail: "injected deadline overrun (PARAGRAPH_FAULT_REQUEST)".into(),
        }),
        RequestFaultKind::Panic | RequestFaultKind::Disconnect | RequestFaultKind::Stall => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let f = RequestFault::parse("POST@/analyze:2:reject")
            .expect("valid spec")
            .expect("non-empty");
        assert_eq!(f.method, "POST");
        assert_eq!(f.path_prefix, "/analyze");
        assert_eq!(f.fails, 2);
        assert_eq!(f.kind, RequestFaultKind::Reject);
    }

    #[test]
    fn defaults_are_one_panic() {
        let f = RequestFault::parse("*@/traces")
            .expect("valid spec")
            .expect("non-empty");
        assert_eq!(f.fails, 1);
        assert_eq!(f.kind, RequestFaultKind::Panic);
    }

    #[test]
    fn empty_spec_is_no_fault_and_garbage_is_an_error() {
        assert!(RequestFault::parse("").expect("empty is fine").is_none());
        assert!(RequestFault::parse("no-at-sign").is_err());
        assert!(RequestFault::parse("GET@relative").is_err());
        assert!(RequestFault::parse("GET@/x:abc").is_err());
        assert!(RequestFault::parse("GET@/x:1:frobnicate").is_err());
    }

    #[test]
    fn arms_exactly_the_fail_budget_then_recovers() {
        let f = RequestFault::parse("POST@/analyze:2:corrupt")
            .expect("valid")
            .expect("non-empty");
        assert!(f.arm("GET", "/analyze").is_none(), "method must match");
        assert!(f.arm("POST", "/other").is_none(), "prefix must match");
        assert_eq!(f.arm("POST", "/analyze"), Some(RequestFaultKind::Corrupt));
        assert_eq!(
            f.arm("POST", "/analyze?x=1"),
            Some(RequestFaultKind::Corrupt)
        );
        assert!(f.arm("POST", "/analyze").is_none(), "budget exhausted");
        assert_eq!(f.injections().load(Ordering::Relaxed), 2);
    }

    #[test]
    fn wildcard_method_matches_everything() {
        let f = RequestFault::parse("*@/:3:stall")
            .expect("valid")
            .expect("non-empty");
        assert!(f.arm("GET", "/healthz").is_some());
        assert!(f.arm("POST", "/traces").is_some());
        assert!(f.arm("DELETE", "/sessions/s1").is_some());
        assert!(f.arm("GET", "/healthz").is_none());
    }

    #[test]
    fn injected_errors_carry_the_taxonomy() {
        let reject =
            injected_error(RequestFaultKind::Reject, "/analyze").expect("reject produces an error");
        assert_eq!(reject.status(), 422);
        let corrupt = injected_error(RequestFaultKind::Corrupt, "/analyze")
            .expect("corrupt produces an error");
        assert_eq!(corrupt.status(), 400);
        let deadline = injected_error(RequestFaultKind::Deadline, "/analyze")
            .expect("deadline produces an error");
        assert_eq!(deadline.status(), 422);
        assert!(deadline.body_json().contains("\"limit\":\"deadline\""));
        assert!(injected_error(RequestFaultKind::Panic, "/x").is_none());
    }
}
