//! A deliberately small HTTP/1.1 subset over blocking streams.
//!
//! Just enough protocol for the daemon's API: one request per connection
//! (`Connection: close` on every response), bounded request line, bounded
//! headers, bounded body, `Expect: 100-continue` honoured so well-behaved
//! clients learn about a 413 before shipping a gigabyte. Everything else —
//! chunked bodies, keep-alive, pipelining, TLS — is deliberately out of
//! scope; the attack surface of a parser is proportional to what it
//! accepts.
//!
//! Every cap violation is a typed [`ServeError`] so the connection loop
//! can answer with the right status instead of hanging up.

use crate::error::ServeError;
use std::io::{self, BufRead, Write};

/// Longest accepted request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most header bytes accepted in total.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Most individual headers accepted.
pub const MAX_HEADERS: usize = 64;

/// One parsed request: method, percent-decoded path, query parameters and
/// (optionally deferred) body metadata.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method token.
    pub method: String,
    /// Percent-decoded path, always starting with `/`.
    pub path: String,
    /// Query parameters in order of appearance, percent-decoded.
    pub query: Vec<(String, String)>,
    /// Declared `Content-Length` (0 when absent).
    pub content_length: u64,
    /// Whether the client sent `Expect: 100-continue`.
    pub expect_continue: bool,
    /// The request body (read by [`read_body`] after admission checks).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of query parameter `name`, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A connection failure while reading the request. I/O errors mean the
/// peer is gone (no response possible); protocol errors map to a status.
#[derive(Debug)]
pub enum HttpError {
    /// The peer disconnected or the socket failed; nothing to answer.
    Io(io::Error),
    /// The bytes do not parse as the accepted HTTP subset.
    Protocol(ServeError),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

fn protocol(msg: impl Into<String>) -> HttpError {
    HttpError::Protocol(ServeError::BadRequest(msg.into()))
}

/// Decodes `%XX` escapes (and `+` as space in query values when `plus`).
fn percent_decode(s: &str, plus: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| -> Option<u8> {
                    match b {
                        b'0'..=b'9' => Some(b - b'0'),
                        b'a'..=b'f' => Some(b - b'a' + 10),
                        b'A'..=b'F' => Some(b - b'A' + 10),
                        _ => None,
                    }
                };
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push(hi << 4 | lo);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Reads one `\r\n`-terminated line, refusing lines longer than `cap`.
fn read_line<R: BufRead>(reader: &mut R, cap: usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(HttpError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before a full request line",
                    )));
                }
                return Err(protocol("truncated header line"));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return Ok(String::from_utf8_lossy(&line).into_owned());
                }
                line.push(byte[0]);
                if line.len() > cap {
                    return Err(protocol(format!("header line exceeds {cap} bytes")));
                }
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Parses the request head: request line plus headers, stopping at the
/// blank line. The body is *not* read — the router first checks the
/// declared length against policy, then calls [`read_body`].
pub fn parse_request_head<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
    let request_line = read_line(reader, MAX_REQUEST_LINE)?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| protocol("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| protocol("request line has no target"))?;
    let version = parts
        .next()
        .ok_or_else(|| protocol("request line has no HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(protocol(format!(
            "unsupported protocol version `{version}`"
        )));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    if !raw_path.starts_with('/') {
        return Err(protocol(format!(
            "target `{raw_path}` is not an absolute path"
        )));
    }
    let path = percent_decode(raw_path, false);
    if path.contains("..") {
        // No route uses dot segments; refusing them here keeps any future
        // file-backed route from being traversable by construction.
        return Err(protocol("dot segments are not accepted in request paths"));
    }
    let mut query = Vec::new();
    if let Some(q) = raw_query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = match pair.split_once('=') {
                Some((k, v)) => (k, v),
                None => (pair, ""),
            };
            query.push((percent_decode(k, true), percent_decode(v, true)));
        }
    }

    let mut content_length: u64 = 0;
    let mut expect_continue = false;
    let mut header_bytes = 0usize;
    let mut header_count = 0usize;
    loop {
        let line = read_line(reader, MAX_HEADER_BYTES)?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        header_count += 1;
        if header_bytes > MAX_HEADER_BYTES {
            return Err(protocol(format!("headers exceed {MAX_HEADER_BYTES} bytes")));
        }
        if header_count > MAX_HEADERS {
            return Err(protocol(format!("more than {MAX_HEADERS} headers")));
        }
        let (name, value) = match line.split_once(':') {
            Some((n, v)) => (n.trim().to_ascii_lowercase(), v.trim()),
            None => return Err(protocol(format!("malformed header `{line}`"))),
        };
        match name.as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| protocol(format!("unparseable Content-Length `{value}`")))?;
            }
            "transfer-encoding" => {
                return Err(HttpError::Protocol(ServeError::BadRequest(
                    "chunked transfer encoding is not accepted; send Content-Length".into(),
                )));
            }
            "expect" => {
                expect_continue = value.eq_ignore_ascii_case("100-continue");
            }
            _ => {}
        }
    }

    Ok(Request {
        method,
        path,
        query,
        content_length,
        expect_continue,
        body: Vec::new(),
    })
}

/// Checks the declared body length against `cap` — *before* anything is
/// allocated for it, so an adversarial Content-Length costs nothing.
pub fn check_body_cap(req: &Request, cap: u64) -> Result<(), ServeError> {
    if req.content_length > cap {
        return Err(ServeError::PayloadTooLarge {
            what: "request body".into(),
            actual: req.content_length,
            cap,
        });
    }
    Ok(())
}

/// Acknowledges `Expect: 100-continue` once admission has passed, so a
/// well-behaved client learns about a 413 before shipping the body.
pub fn ack_continue<W: Write>(req: &Request, writer: &mut W) -> io::Result<()> {
    if req.expect_continue && req.content_length > 0 {
        writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        writer.flush()?;
    }
    Ok(())
}

/// Reads the declared body into `req.body`. Call [`check_body_cap`] (and
/// [`ack_continue`]) first.
pub fn read_body<R: BufRead>(req: &mut Request, reader: &mut R) -> Result<(), HttpError> {
    let mut body = vec![0u8; req.content_length as usize];
    reader.read_exact(&mut body)?;
    req.body = body;
    Ok(())
}

/// One response: status, content type, body, optional Retry-After.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// `Retry-After` seconds for 429/503.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A 200 with a JSON body.
    pub fn json(body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            content_type: "application/json",
            body: body.into(),
            retry_after: None,
        }
    }

    /// A 200 with a plain-text body.
    pub fn text(body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            retry_after: None,
        }
    }
}

impl From<&ServeError> for Response {
    fn from(e: &ServeError) -> Response {
        Response {
            status: e.status(),
            content_type: "application/json",
            body: e.body_json().into_bytes(),
            retry_after: e.retry_after(),
        }
    }
}

/// The reason phrase for the statuses this daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Serializes `resp` onto the wire with `Connection: close`.
pub fn write_response<W: Write>(writer: &mut W, resp: &Response) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    if let Some(secs) = resp.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.write_all(&resp.body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        parse_request_head(&mut Cursor::new(raw.as_bytes()))
    }

    #[test]
    fn parses_method_path_and_query() {
        let req = parse("POST /analyze?trace=t1&window=64&optimistic HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("well-formed request parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/analyze");
        assert_eq!(req.param("trace"), Some("t1"));
        assert_eq!(req.param("window"), Some("64"));
        assert_eq!(req.param("optimistic"), Some(""));
        assert_eq!(req.param("value-stats"), None);
    }

    #[test]
    fn percent_decoding_applies_to_path_and_query() {
        let req = parse("GET /sessions/s%31?label=a+b%21 HTTP/1.1\r\n\r\n").expect("parses");
        assert_eq!(req.path, "/sessions/s1");
        assert_eq!(req.param("label"), Some("a b!"));
    }

    #[test]
    fn refuses_dot_segments_and_chunked_bodies() {
        assert!(matches!(
            parse("GET /../etc/passwd HTTP/1.1\r\n\r\n"),
            Err(HttpError::Protocol(ServeError::BadRequest(_)))
        ));
        assert!(matches!(
            parse("POST /traces HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Protocol(ServeError::BadRequest(_)))
        ));
    }

    #[test]
    fn body_cap_refuses_before_allocating() {
        let raw = b"POST /traces HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n";
        let mut reader = Cursor::new(raw.to_vec());
        let req = parse_request_head(&mut reader).expect("head parses");
        let err = check_body_cap(&req, 1024).expect_err("a body over the cap must be refused");
        match err {
            ServeError::PayloadTooLarge { actual, cap, .. } => {
                assert_eq!(actual, 1_000_000);
                assert_eq!(cap, 1024);
            }
            other => panic!("wrong classification: {other:?}"),
        }
    }

    #[test]
    fn expect_continue_is_acknowledged_then_body_read() {
        let raw =
            b"POST /traces HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\nhello";
        let mut reader = Cursor::new(raw.to_vec());
        let mut req = parse_request_head(&mut reader).expect("head parses");
        check_body_cap(&req, 1024).expect("within cap");
        let mut out = Vec::new();
        ack_continue(&req, &mut out).expect("ack writes");
        read_body(&mut req, &mut reader).expect("body reads");
        assert_eq!(req.body, b"hello");
        assert!(out.starts_with(b"HTTP/1.1 100 Continue"));
    }

    #[test]
    fn response_serializes_with_connection_close_and_retry_after() {
        let mut out = Vec::new();
        let resp = Response {
            status: 429,
            content_type: "application/json",
            body: b"{}".to_vec(),
            retry_after: Some(2),
        };
        write_response(&mut out, &resp).expect("write to Vec");
        let text = String::from_utf8(out).expect("ascii response");
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn oversized_request_line_is_a_protocol_error() {
        let long = format!(
            "GET /{} HTTP/1.1\r\n\r\n",
            "a".repeat(MAX_REQUEST_LINE + 10)
        );
        assert!(matches!(parse(&long), Err(HttpError::Protocol(_))));
    }
}
