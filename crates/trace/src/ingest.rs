//! Streaming ingestion of external line-oriented text traces.
//!
//! Third-party instrumentation (a Pin tool, a QEMU plugin, a hand-rolled
//! interpreter hook) can feed the analyzer without linking this crate: it
//! emits the plain-text format below, and `paragraph ingest` (or
//! [`ingest_text`]) converts it to the binary v2 trace format. Conversion
//! is streaming — one bounded line in memory at a time — so arbitrarily
//! long traces convert in constant space, and a [`ResourceGovernor`]
//! bounds every quantity an untrusted producer controls.
//!
//! # Format
//!
//! One record per line, whitespace-separated fields; `#` starts a comment
//! (whole-line or trailing) and blank lines are ignored:
//!
//! ```text
//! # directives (optional, before the first record)
//! !segments heap=4096 stack=1048576
//!
//! # PC CLASS [SRC...] [-> DEST] [taken|not-taken TARGET]
//! 0x0  int-alu -> r4
//! 0x4  int-alu r4 r4 -> r5
//! 0x8  load    m:1000 r9 -> r10
//! 0xc  store   r10 r9 -> m:1001
//! 0x10 branch  r5 taken 0x0
//! ```
//!
//! * **PC** and **TARGET** are decimal or `0x`-prefixed hex.
//! * **CLASS** is an operation-class name as reported by
//!   [`OpClass::name`]: `int-alu`, `int-mul`, `int-div`, `fp-add`,
//!   `fp-mul`, `fp-div`, `load`, `store`, `syscall`, `branch`, `jump`,
//!   `nop`.
//! * **SRC**/**DEST** locations are `rN` (integer register, N < 32), `fN`
//!   (floating-point register, N < 32), or `m:ADDR` (memory word address).
//!   At most three sources. Records obey the record contract of
//!   [`TraceRecord::new`]: `r0` operands are dropped, a destination
//!   requires a value-creating class, a memory destination is exactly the
//!   `store` class, `store` must name a memory destination and `load` a
//!   memory source.
//! * `taken TARGET` / `not-taken TARGET` record a branch outcome and are
//!   only valid on `branch` records.
//! * `!segments heap=H stack=S` sets the [`SegmentMap`] boundaries
//!   (`H <= S`); the default is all-data. It must precede the first
//!   record because the binary header is written first.
//!
//! Every syntax or consistency violation is rejected with the offending
//! line number — the text parser accepts no line the binary decoder could
//! not have produced, so `ingest | analyze` equals analyzing an
//! equivalent natively-written trace byte for byte.

use crate::binary::TraceWriter;
use crate::govern::{LimitViolation, ResourceGovernor};
use crate::loc::Loc;
use crate::record::{BranchInfo, TraceRecord};
use crate::segment::SegmentMap;
use paragraph_isa::OpClass;
use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};

/// How often (in lines) the streaming loop re-checks the wall-clock
/// deadline.
const DEADLINE_CHECK_LINES: u64 = 4096;

/// What went wrong while ingesting a text trace.
#[derive(Debug)]
#[non_exhaustive]
pub enum IngestErrorKind {
    /// Reading the input or writing the output failed.
    Io(io::Error),
    /// A line does not conform to the text format.
    Syntax(String),
    /// The input tripped a [`ResourceGovernor`] limit.
    LimitExceeded(LimitViolation),
}

/// A text-trace ingestion error, carrying the 1-based line number.
#[derive(Debug)]
pub struct IngestError {
    line: u64,
    kind: IngestErrorKind,
}

impl IngestError {
    fn syntax(line: u64, why: impl Into<String>) -> IngestError {
        IngestError {
            line,
            kind: IngestErrorKind::Syntax(why.into()),
        }
    }

    /// The 1-based line number the error was detected on (0 when the
    /// failure is not tied to a line, e.g. an output write error).
    pub fn line(&self) -> u64 {
        self.line
    }

    /// What went wrong.
    pub fn kind(&self) -> &IngestErrorKind {
        &self.kind
    }

    /// Whether this error is a resource-governor rejection, and if so
    /// which limit tripped.
    pub fn limit_violation(&self) -> Option<&LimitViolation> {
        match &self.kind {
            IngestErrorKind::LimitExceeded(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            IngestErrorKind::Io(e) => write!(f, "ingest I/O failed: {e}")?,
            IngestErrorKind::Syntax(why) => write!(f, "bad text trace: {why}")?,
            IngestErrorKind::LimitExceeded(v) => write!(f, "input rejected: {v}")?,
        }
        if self.line > 0 {
            write!(f, " at line {}", self.line)?;
        }
        Ok(())
    }
}

impl Error for IngestError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.kind {
            IngestErrorKind::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Tallies from a completed ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// Records converted and written.
    pub records: u64,
    /// Input lines consumed (including comments and blanks).
    pub lines: u64,
    /// Comment, blank, and directive lines skipped.
    pub skipped_lines: u64,
    /// The segment map written into the output header.
    pub segments: SegmentMap,
}

/// Outcome of one bounded line read.
enum LineRead {
    Line,
    Eof,
    TooLong { attempted: u64 },
}

/// Reads one `\n`-terminated line into `line` (terminator excluded),
/// refusing to buffer more than `cap` bytes.
fn read_line_bounded<R: BufRead>(
    input: &mut R,
    line: &mut Vec<u8>,
    cap: usize,
) -> io::Result<LineRead> {
    line.clear();
    loop {
        let (advance, status) = {
            let buf = input.fill_buf()?;
            if buf.is_empty() {
                return Ok(if line.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line
                });
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    if line.len() + i > cap {
                        return Ok(LineRead::TooLong {
                            attempted: (line.len() + i) as u64,
                        });
                    }
                    line.extend_from_slice(&buf[..i]);
                    (i + 1, Some(LineRead::Line))
                }
                None => {
                    if line.len() + buf.len() > cap {
                        return Ok(LineRead::TooLong {
                            attempted: (line.len() + buf.len()) as u64,
                        });
                    }
                    line.extend_from_slice(buf);
                    (buf.len(), None)
                }
            }
        };
        input.consume(advance);
        if let Some(status) = status {
            return Ok(status);
        }
    }
}

/// Parses a decimal or `0x`-prefixed hex number.
fn parse_num(token: &str) -> Option<u64> {
    if let Some(hex) = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        token.parse().ok()
    }
}

/// Parses an operand location token (`rN`, `fN`, `m:ADDR`).
fn parse_loc(token: &str) -> Option<Loc> {
    if let Some(addr) = token.strip_prefix("m:") {
        return Some(Loc::Mem(parse_num(addr)?));
    }
    let (head, index) = token.split_at(1);
    let index: u8 = index.parse().ok()?;
    match head {
        "r" => paragraph_isa::IntReg::new(index).map(Loc::IntReg),
        "f" => paragraph_isa::FpReg::new(index).map(Loc::FpReg),
        _ => None,
    }
}

/// Looks an operation class up by its stable [`OpClass::name`].
fn class_by_name(name: &str) -> Option<OpClass> {
    OpClass::ALL.into_iter().find(|c| c.name() == name)
}

/// Validates the class/operand combination and builds the record.
///
/// The operands go through the same record-contract check as
/// [`TraceRecord::new`] and the binary decoders, returned as an error:
/// the text parser must never be able to reach a constructor panic from
/// untrusted input.
fn build_record(
    lineno: u64,
    pc: u64,
    class: OpClass,
    srcs: &[Loc],
    dest: Option<Loc>,
    outcome: Option<(bool, u64)>,
) -> Result<TraceRecord, IngestError> {
    let branch = outcome.map(|(taken, target)| BranchInfo { taken, target });
    TraceRecord::try_new(pc, class, srcs, dest, branch)
        .map_err(|v| IngestError::syntax(lineno, v.to_string()))
}

/// One parsed non-blank line.
enum ParsedLine {
    Record(TraceRecord),
    Segments(SegmentMap),
}

/// Parses one text line; `None` for blanks and comments.
fn parse_line(lineno: u64, raw: &[u8]) -> Result<Option<ParsedLine>, IngestError> {
    let Ok(text) = std::str::from_utf8(raw) else {
        return Err(IngestError::syntax(lineno, "line is not valid UTF-8"));
    };
    let text = match text.find('#') {
        Some(at) => &text[..at],
        None => text,
    };
    let mut tokens = text.split_whitespace().peekable();
    let Some(&first) = tokens.peek() else {
        return Ok(None);
    };
    if first == "!segments" {
        tokens.next();
        let mut heap = None;
        let mut stack = None;
        for token in tokens {
            if let Some(v) = token.strip_prefix("heap=") {
                heap = parse_num(v);
            } else if let Some(v) = token.strip_prefix("stack=") {
                stack = parse_num(v);
            } else {
                return Err(IngestError::syntax(
                    lineno,
                    format!("unknown !segments field {token:?}"),
                ));
            }
        }
        let (Some(heap), Some(stack)) = (heap, stack) else {
            return Err(IngestError::syntax(
                lineno,
                "!segments needs heap=N and stack=N",
            ));
        };
        if heap > stack {
            return Err(IngestError::syntax(
                lineno,
                "segment boundaries are inverted (heap > stack)",
            ));
        }
        return Ok(Some(ParsedLine::Segments(SegmentMap::new(heap, stack))));
    }
    if first.starts_with('!') {
        return Err(IngestError::syntax(
            lineno,
            format!("unknown directive {first:?}"),
        ));
    }

    let pc_token = tokens.next().unwrap_or_default();
    let Some(pc) = parse_num(pc_token) else {
        return Err(IngestError::syntax(
            lineno,
            format!("bad program counter {pc_token:?}"),
        ));
    };
    let Some(class_token) = tokens.next() else {
        return Err(IngestError::syntax(lineno, "missing operation class"));
    };
    let Some(class) = class_by_name(class_token) else {
        return Err(IngestError::syntax(
            lineno,
            format!("unknown operation class {class_token:?}"),
        ));
    };

    let mut srcs: Vec<Loc> = Vec::with_capacity(3);
    let mut dest = None;
    let mut outcome = None;
    while let Some(token) = tokens.next() {
        match token {
            "->" => {
                let Some(dest_token) = tokens.next() else {
                    return Err(IngestError::syntax(lineno, "-> without a destination"));
                };
                let Some(d) = parse_loc(dest_token) else {
                    return Err(IngestError::syntax(
                        lineno,
                        format!("bad destination {dest_token:?}"),
                    ));
                };
                if dest.replace(d).is_some() {
                    return Err(IngestError::syntax(lineno, "more than one destination"));
                }
            }
            "taken" | "not-taken" => {
                let Some(target_token) = tokens.next() else {
                    return Err(IngestError::syntax(
                        lineno,
                        format!("{token} without a target"),
                    ));
                };
                let Some(target) = parse_num(target_token) else {
                    return Err(IngestError::syntax(
                        lineno,
                        format!("bad branch target {target_token:?}"),
                    ));
                };
                if outcome.replace((token == "taken", target)).is_some() {
                    return Err(IngestError::syntax(lineno, "more than one branch outcome"));
                }
            }
            _ => {
                if dest.is_some() || outcome.is_some() {
                    return Err(IngestError::syntax(
                        lineno,
                        format!("unexpected trailing token {token:?}"),
                    ));
                }
                let Some(loc) = parse_loc(token) else {
                    return Err(IngestError::syntax(
                        lineno,
                        format!("bad source operand {token:?}"),
                    ));
                };
                if srcs.len() == 3 {
                    return Err(IngestError::syntax(lineno, "more than three sources"));
                }
                srcs.push(loc);
            }
        }
    }
    build_record(lineno, pc, class, &srcs, dest, outcome).map(|r| Some(ParsedLine::Record(r)))
}

/// Claims the pending output writer. It is present until the
/// [`TraceWriter`] is built exactly once; a second claim means the writer
/// construction itself failed mid-way, which surfaces as an I/O error
/// rather than a panic.
fn take_out<W: Write>(pending_out: &mut Option<W>, lineno: u64) -> Result<W, IngestError> {
    pending_out.take().ok_or_else(|| IngestError {
        line: lineno,
        kind: IngestErrorKind::Io(io::Error::other("trace output already consumed")),
    })
}

/// Converts a line-oriented text trace to the binary v2 format,
/// streaming: one bounded line is in memory at a time, and records flow
/// straight into a default-chunked [`TraceWriter`] — the output is
/// byte-identical to writing the same records through
/// [`TraceWriter::new`] directly.
///
/// # Errors
///
/// Returns an [`IngestError`] naming the offending line on syntax errors,
/// I/O failures, or governor limit violations (line length against the
/// declared-length cap, record count, input byte budget, deadline).
pub fn ingest_text<R: BufRead, W: Write>(
    mut input: R,
    out: W,
    governor: &mut ResourceGovernor,
) -> Result<IngestStats, IngestError> {
    let line_cap = governor
        .limits()
        .max_declared_len
        .min(governor.limits().max_alloc_bytes)
        .min(usize::MAX as u64) as usize;
    let mut line = Vec::new();
    let mut lineno = 0u64;
    let mut consumed = 0u64;
    let mut skipped = 0u64;
    let mut records = 0u64;
    let mut segments: Option<SegmentMap> = None;
    // The binary header (which embeds the segment map) is written at the
    // first record; `!segments` must come before that.
    let mut pending_out = Some(out);
    let mut writer: Option<TraceWriter<W>> = None;

    let limited = |lineno: u64, v: LimitViolation| IngestError {
        line: lineno,
        kind: IngestErrorKind::LimitExceeded(v),
    };

    loop {
        let status =
            read_line_bounded(&mut input, &mut line, line_cap).map_err(|e| IngestError {
                line: lineno + 1,
                kind: IngestErrorKind::Io(e),
            })?;
        match status {
            LineRead::Eof => break,
            LineRead::TooLong { attempted } => {
                return Err(limited(
                    lineno + 1,
                    LimitViolation {
                        limit: "max-declared-len",
                        what: "text line length",
                        actual: attempted,
                        cap: line_cap as u64,
                    },
                ));
            }
            LineRead::Line => {}
        }
        lineno += 1;
        consumed += line.len() as u64 + 1;
        governor
            .check_decode_bytes(consumed)
            .map_err(|v| limited(lineno, v))?;
        if lineno.is_multiple_of(DEADLINE_CHECK_LINES) {
            governor.check_deadline().map_err(|v| limited(lineno, v))?;
        }
        match parse_line(lineno, &line)? {
            None => skipped += 1,
            Some(ParsedLine::Segments(map)) => {
                if writer.is_some() {
                    return Err(IngestError::syntax(
                        lineno,
                        "!segments must precede the first record",
                    ));
                }
                segments = Some(map);
                skipped += 1;
            }
            Some(ParsedLine::Record(record)) => {
                governor.charge_records(1).map_err(|v| limited(lineno, v))?;
                if writer.is_none() {
                    let out = take_out(&mut pending_out, lineno)?;
                    let map = segments.unwrap_or_else(SegmentMap::all_data);
                    segments = Some(map);
                    writer = Some(TraceWriter::new(out, map).map_err(|e| IngestError {
                        line: lineno,
                        kind: IngestErrorKind::Io(e),
                    })?);
                }
                if let Some(w) = writer.as_mut() {
                    w.write_record(&record).map_err(|e| IngestError {
                        line: lineno,
                        kind: IngestErrorKind::Io(e),
                    })?;
                    records += 1;
                }
            }
        }
    }

    // An empty (or record-free) input still yields a valid empty trace.
    let writer = match writer {
        Some(w) => w,
        None => {
            let out = take_out(&mut pending_out, 0)?;
            let map = segments.unwrap_or_else(SegmentMap::all_data);
            segments = Some(map);
            TraceWriter::new(out, map).map_err(|e| IngestError {
                line: 0,
                kind: IngestErrorKind::Io(e),
            })?
        }
    };
    writer.finish().map_err(|e| IngestError {
        line: 0,
        kind: IngestErrorKind::Io(e),
    })?;
    Ok(IngestStats {
        records,
        lines: lineno,
        skipped_lines: skipped,
        segments: segments.unwrap_or_else(SegmentMap::all_data),
    })
}

/// Renders one record as a text-format line (the inverse of the parser).
///
/// `render` then [`ingest_text`] reproduces the record exactly, which is
/// how the round-trip property tests close the loop.
pub fn render_record(record: &TraceRecord) -> String {
    use fmt::Write as _;
    let mut line = String::new();
    let _ = write!(line, "{:#x} {}", record.pc(), record.class().name());
    for src in record.srcs() {
        line.push(' ');
        render_loc(&mut line, *src);
    }
    if let Some(dest) = record.dest() {
        line.push_str(" -> ");
        render_loc(&mut line, dest);
    }
    if let Some(info) = record.branch_info() {
        let _ = write!(
            line,
            " {} {:#x}",
            if info.taken { "taken" } else { "not-taken" },
            info.target
        );
    }
    line
}

fn render_loc(out: &mut String, loc: Loc) {
    use fmt::Write as _;
    let _ = match loc {
        Loc::IntReg(r) => write!(out, "r{}", r.index()),
        Loc::FpReg(r) => write!(out, "f{}", r.index()),
        Loc::Mem(addr) => write!(out, "m:{addr}"),
    };
}

/// Renders a whole trace (segments directive plus one line per record).
pub fn render_trace(records: &[TraceRecord], segments: SegmentMap) -> String {
    let mut text = format!(
        "!segments heap={} stack={}\n",
        segments.heap_base(),
        segments.stack_floor()
    );
    for record in records {
        text.push_str(&render_record(record));
        text.push('\n');
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::TraceReader;
    use crate::govern::Limits;
    use crate::synthetic;

    fn ingest(text: &str) -> Result<(Vec<u8>, IngestStats), IngestError> {
        let mut gov = ResourceGovernor::default();
        let mut out = Vec::new();
        let stats = ingest_text(text.as_bytes(), &mut out, &mut gov)?;
        Ok((out, stats))
    }

    #[test]
    fn example_from_module_docs_ingests() {
        let text = "
            # external trace
            !segments heap=4096 stack=1048576
            0x0  int-alu -> r4
            0x4  int-alu r4 r4 -> r5
            0x8  load    m:1000 r9 -> r10
            0xc  store   r10 r9 -> m:1001
            0x10 branch  r5 taken 0x0
        ";
        let (bytes, stats) = ingest(text).unwrap();
        assert_eq!(stats.records, 5);
        assert_eq!(stats.segments, SegmentMap::new(4096, 1 << 20));
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.segment_map(), SegmentMap::new(4096, 1 << 20));
        let records: Vec<_> = reader.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(records.len(), 5);
        assert_eq!(records[2].mem_addr(), Some(1000));
        assert_eq!(records[4].branch_info().unwrap().target, 0);
    }

    #[test]
    fn output_is_byte_identical_to_a_hand_built_trace() {
        let records = synthetic::random_trace(300, 7);
        let segments = SegmentMap::new(64, 1 << 20);
        let text = render_trace(&records, segments);

        let mut hand_built = Vec::new();
        let mut writer = TraceWriter::new(&mut hand_built, segments).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();

        let (ingested, stats) = ingest(&text).unwrap();
        assert_eq!(stats.records, records.len() as u64);
        assert_eq!(ingested, hand_built);
    }

    #[test]
    fn empty_input_yields_a_valid_empty_trace() {
        let (bytes, stats) = ingest("# nothing here\n\n").unwrap();
        assert_eq!(stats.records, 0);
        assert_eq!(stats.skipped_lines, 2);
        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.count(), 0);
    }

    #[test]
    fn syntax_errors_carry_the_line_number() {
        for (text, what) in [
            ("0x0 conjure -> r4\n", "unknown operation class"),
            ("zork int-alu -> r4\n", "bad program counter"),
            ("0x0 int-alu -> r99\n", "bad destination"),
            ("0x0 int-alu r1 r2 r3 r4 -> r5\n", "more than three sources"),
            ("0x0 branch -> r4\n", "cannot name a destination"),
            ("0x0 load r1 -> r2\n", "memory source"),
            ("0x0 store r1 -> r2\n", "memory destination"),
            ("0x0 int-alu -> m:4 \n", "store class"),
            ("0x0 int-alu r1 taken 0x8\n", "non-branch"),
            ("0x0 branch r1 taken\n", "without a target"),
            ("!teleport\n", "unknown directive"),
            ("!segments heap=9 stack=1\n", "inverted"),
            ("0x0 int-alu\n!segments heap=0 stack=9\n", "precede"),
        ] {
            let err = ingest(&format!("# prefix comment\n{text}")).unwrap_err();
            assert!(err.line() >= 2, "{text:?} -> {err}");
            assert!(err.to_string().contains(what), "{text:?} -> {err}");
        }
    }

    #[test]
    fn record_budget_is_enforced() {
        let mut gov = ResourceGovernor::new(Limits {
            max_records: 2,
            ..Limits::default()
        });
        let mut out = Vec::new();
        let text = "0 nop\n1 nop\n2 nop\n";
        let err = ingest_text(text.as_bytes(), &mut out, &mut gov).unwrap_err();
        let v = err.limit_violation().expect("limit violation");
        assert_eq!(v.limit, "max-records");
        assert_eq!(err.line(), 3);
    }

    #[test]
    fn overlong_lines_are_rejected_without_buffering() {
        let mut gov = ResourceGovernor::new(Limits {
            max_declared_len: 64,
            ..Limits::default()
        });
        let mut out = Vec::new();
        let long = format!("0 nop {}\n", " ".repeat(1000));
        let err = ingest_text(long.as_bytes(), &mut out, &mut gov).unwrap_err();
        let v = err.limit_violation().expect("limit violation");
        assert_eq!(v.limit, "max-declared-len");
        assert_eq!(v.what, "text line length");
    }

    #[test]
    fn zero_register_operands_are_dropped_like_the_constructors_drop_them() {
        // r0 reads and writes carry no dependency; the text parser accepts
        // them and they vanish exactly as TraceRecord::new drops them.
        let (bytes, _) = ingest("0 int-alu r0 r1 -> r0\n").unwrap();
        let records: Vec<_> = TraceReader::new(bytes.as_slice())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(records[0].srcs(), &[Loc::int(1)]);
        assert_eq!(records[0].dest(), None);
    }

    #[test]
    fn crlf_line_endings_are_not_special_but_trailing_ws_is_ignored() {
        // \r is whitespace to split_whitespace, so CRLF input works.
        let (bytes, stats) = ingest("0 nop\r\n4 nop\r\n").unwrap();
        assert_eq!(stats.records, 2);
        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.count(), 2);
    }
}
