//! The daemon's failure taxonomy and its mapping onto HTTP statuses.
//!
//! The CLI classifies failures into exit codes 2–7 (see the consolidated
//! table in the README); the daemon maps the same taxonomy onto statuses so
//! a supervisor scripting against either front end dispatches on the same
//! classes:
//!
//! | class                      | CLI exit | HTTP status |
//! |----------------------------|---------:|------------:|
//! | usage / unknown route      |        2 | 404 / 405   |
//! | malformed request or trace |        4 | 400         |
//! | body larger than policy    |        7 | 413         |
//! | governor rejection         |        7 | 422         |
//! | queue full (shed)          |        — | 429         |
//! | handler panic (recycled)   |        — | 500         |
//! | draining                   |        — | 503         |
//!
//! A 422 body is byte-compatible with the CLI's exit-7 stderr report:
//! one JSON object with `error`, `path`, `limit`, `what`, `actual`, `cap`.

use paragraph_trace::LimitViolation;
use std::fmt;

/// Minimal JSON string escaping, mirroring the CLI's rejection reports.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A classified request failure. Every handler returns `Result<Response,
/// ServeError>`; the connection loop turns the error into a status + JSON
/// body. Panics are *not* represented here — they unwind through
/// `catch_unwind` in the connection loop and become 500s with the worker
/// recycled.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The request or its payload is malformed (unparseable HTTP, damaged
    /// trace bytes, invalid query parameter). Maps to 400.
    BadRequest(String),
    /// No such route, trace, or session. Maps to 404.
    NotFound(String),
    /// The route exists but not under this method. Maps to 405.
    MethodNotAllowed(String),
    /// The declared or actual body size exceeds the admission cap — refused
    /// before buffering, so an adversarial Content-Length never allocates.
    /// Maps to 413.
    PayloadTooLarge {
        /// What was being sized (e.g. `request body`).
        what: String,
        /// Declared or observed size.
        actual: u64,
        /// The admission cap it exceeded.
        cap: u64,
    },
    /// A resource governor rejected well-formed-looking input that declares
    /// more than policy allows — the serve-side face of CLI exit code 7.
    /// Maps to 422 with the CLI-shaped JSON rejection report as the body.
    Rejected {
        /// What was being decoded (stands in for the CLI report's `path`).
        scope: String,
        /// Which limit tripped (`max_records`, `deadline`, ...).
        limit: String,
        /// What was being measured.
        what: String,
        /// The measured or declared value.
        actual: u64,
        /// The configured cap.
        cap: u64,
        /// Human-readable diagnostic.
        detail: String,
    },
    /// The bounded admission queue is full; the client should back off.
    /// Maps to 429 with Retry-After.
    Busy {
        /// Suggested back-off, seconds.
        retry_after_secs: u64,
    },
    /// The daemon is draining: health endpoints still answer, work is
    /// refused. Maps to 503 with Retry-After.
    Draining {
        /// Suggested back-off, seconds.
        retry_after_secs: u64,
    },
    /// An internal failure that is not the client's fault (spool I/O,
    /// poisoned lock). Maps to 500; the daemon keeps serving.
    Internal(String),
}

impl ServeError {
    /// The governor rejection for `scope`, carrying the violation's fields
    /// into the CLI-shaped report.
    pub fn rejected(scope: impl Into<String>, v: &LimitViolation) -> ServeError {
        ServeError::Rejected {
            scope: scope.into(),
            limit: v.limit.to_owned(),
            what: v.what.to_owned(),
            actual: v.actual,
            cap: v.cap,
            detail: v.to_string(),
        }
    }

    /// An analysis of `scope` that overran its `cap` after `elapsed`, in
    /// the governor taxonomy; `note` is appended to the detail.
    pub fn deadline(
        scope: String,
        elapsed: std::time::Duration,
        cap: std::time::Duration,
        note: &str,
    ) -> ServeError {
        ServeError::Rejected {
            scope,
            limit: "deadline".into(),
            what: "analysis time".into(),
            actual: elapsed.as_millis() as u64,
            cap: cap.as_millis() as u64,
            detail: format!(
                "analysis deadline exceeded after {}ms (cap {}ms){note}",
                elapsed.as_millis(),
                cap.as_millis()
            ),
        }
    }

    /// The HTTP status this failure maps to.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::BadRequest(_) => 400,
            ServeError::NotFound(_) => 404,
            ServeError::MethodNotAllowed(_) => 405,
            ServeError::PayloadTooLarge { .. } => 413,
            ServeError::Rejected { .. } => 422,
            ServeError::Busy { .. } => 429,
            ServeError::Internal(_) => 500,
            ServeError::Draining { .. } => 503,
        }
    }

    /// Retry-After seconds for back-pressure statuses, `None` otherwise.
    pub fn retry_after(&self) -> Option<u64> {
        match self {
            ServeError::Busy { retry_after_secs } | ServeError::Draining { retry_after_secs } => {
                Some(*retry_after_secs)
            }
            _ => None,
        }
    }

    /// The JSON body. For `Rejected` this is byte-compatible with the
    /// CLI's exit-7 rejection report (`path` carries the scope).
    pub fn body_json(&self) -> String {
        match self {
            ServeError::Rejected {
                scope,
                limit,
                what,
                actual,
                cap,
                ..
            } => format!(
                "{{\"error\":\"input-rejected\",\"path\":\"{}\",\"limit\":\"{}\",\
                 \"what\":\"{}\",\"actual\":{actual},\"cap\":{cap}}}",
                json_escape(scope),
                json_escape(limit),
                json_escape(what),
            ),
            ServeError::PayloadTooLarge { what, actual, cap } => format!(
                "{{\"error\":\"payload-too-large\",\"what\":\"{}\",\
                 \"actual\":{actual},\"cap\":{cap}}}",
                json_escape(what),
            ),
            ServeError::Busy { retry_after_secs } => {
                format!("{{\"error\":\"overloaded\",\"retry_after_secs\":{retry_after_secs}}}")
            }
            ServeError::Draining { retry_after_secs } => {
                format!("{{\"error\":\"draining\",\"retry_after_secs\":{retry_after_secs}}}")
            }
            ServeError::BadRequest(m) => {
                format!(
                    "{{\"error\":\"bad-request\",\"detail\":\"{}\"}}",
                    json_escape(m)
                )
            }
            ServeError::NotFound(m) => {
                format!(
                    "{{\"error\":\"not-found\",\"detail\":\"{}\"}}",
                    json_escape(m)
                )
            }
            ServeError::MethodNotAllowed(m) => format!(
                "{{\"error\":\"method-not-allowed\",\"detail\":\"{}\"}}",
                json_escape(m)
            ),
            ServeError::Internal(m) => {
                format!(
                    "{{\"error\":\"internal\",\"detail\":\"{}\"}}",
                    json_escape(m)
                )
            }
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::NotFound(m) => write!(f, "not found: {m}"),
            ServeError::MethodNotAllowed(m) => write!(f, "method not allowed: {m}"),
            ServeError::PayloadTooLarge { what, actual, cap } => {
                write!(f, "payload too large: {what} is {actual} bytes, cap {cap}")
            }
            ServeError::Rejected { detail, .. } => write!(f, "input rejected: {detail}"),
            ServeError::Busy { .. } => f.write_str("admission queue full"),
            ServeError::Draining { .. } => f.write_str("daemon is draining"),
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use paragraph_trace::{Limits, ResourceGovernor};

    #[test]
    fn statuses_cover_the_taxonomy() {
        assert_eq!(ServeError::BadRequest("x".into()).status(), 400);
        assert_eq!(ServeError::NotFound("x".into()).status(), 404);
        assert_eq!(ServeError::MethodNotAllowed("x".into()).status(), 405);
        assert_eq!(
            ServeError::PayloadTooLarge {
                what: "body".into(),
                actual: 2,
                cap: 1
            }
            .status(),
            413
        );
        assert_eq!(
            ServeError::Busy {
                retry_after_secs: 1
            }
            .status(),
            429
        );
        assert_eq!(ServeError::Internal("x".into()).status(), 500);
        assert_eq!(
            ServeError::Draining {
                retry_after_secs: 1
            }
            .status(),
            503
        );
    }

    #[test]
    fn rejection_body_matches_the_cli_report_shape() {
        let mut governor = ResourceGovernor::new(Limits {
            max_records: 1,
            ..Limits::default()
        });
        governor.charge_records(1).expect("first record fits");
        let v = governor.charge_records(1).expect_err("limit must trip");
        let err = ServeError::rejected("upload", &v);
        assert_eq!(err.status(), 422);
        let body = err.body_json();
        assert!(body.starts_with("{\"error\":\"input-rejected\",\"path\":\"upload\""));
        assert!(body.contains("\"limit\":\"max-records\""));
        assert!(body.contains("\"actual\":2"));
        assert!(body.contains("\"cap\":1"));
    }

    #[test]
    fn retry_after_only_on_backpressure() {
        assert_eq!(
            ServeError::Busy {
                retry_after_secs: 3
            }
            .retry_after(),
            Some(3)
        );
        assert_eq!(
            ServeError::Draining {
                retry_after_secs: 5
            }
            .retry_after(),
            Some(5)
        );
        assert_eq!(ServeError::Internal("x".into()).retry_after(), None);
    }
}
