//! Minimal HTTP/1.1 client for the daemon (one request per connection,
//! `Connection: close`), timing the first response byte and the full
//! response from the moment the request starts.

use paragraph_core::telemetry::tracefmt::{parse_json, JsonValue};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One answered request.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Request start to first response byte.
    pub ttfb: Duration,
    /// Request start to the end of the response.
    pub latency: Duration,
}

/// Sends `method path` with `body` to `addr` (`HOST:PORT`).
pub fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::with_capacity(8192);
    let mut first = [0u8; 1];
    stream.read_exact(&mut first)?;
    let ttfb = started.elapsed();
    raw.push(first[0]);
    stream.read_to_end(&mut raw)?;
    let latency = started.elapsed();
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::other("response without a header terminator"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other("response without a status line"))?;
    Ok(Reply {
        status,
        body: raw[split + 4..].to_vec(),
        ttfb,
        latency,
    })
}

/// A field of a JSON response body (the daemon answers JSON objects).
fn field(body: &[u8], key: &str) -> Option<JsonValue> {
    let doc = parse_json(std::str::from_utf8(body).ok()?).ok()?;
    doc.get(key).cloned()
}

/// A numeric field of a JSON response body.
pub fn number(body: &[u8], key: &str) -> Option<u64> {
    field(body, key)?.as_f64().map(|n| n as u64)
}

/// A string field of a JSON response body.
pub fn text(body: &[u8], key: &str) -> Option<String> {
    field(body, key)?.as_str().map(str::to_owned)
}
