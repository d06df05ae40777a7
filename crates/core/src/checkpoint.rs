//! Analyzer checkpoint files: suspend a streaming analysis and resume it
//! later, byte-for-byte equivalent to an uninterrupted run.
//!
//! The paper's runs chewed through billions of trace records ("the analysis
//! of one trace would take from one-half to tens of hours"); a crash near
//! the end of such a pass should not cost the whole pass. A checkpoint
//! captures the complete [`LiveWell`](crate::LiveWell) state — the live-well
//! table, placement floors, parallelism-profile accumulator, window,
//! predictor, and every counter — so `resume + remaining records` produces
//! exactly the report `all records` would have.
//!
//! # File format
//!
//! ```text
//! magic   "PGCP" (4 bytes)
//! version 2      (1 byte; version-1 files still load)
//! body    varint-encoded LiveWell state, beginning with a fingerprint of
//!         the analysis configuration (a checkpoint resumes only under the
//!         configuration that produced it) and — new in version 2 — an
//!         optional trace identity fingerprint (see [`TraceIdentity`]) so a
//!         resume against the *wrong trace* is rejected, not silently
//!         computed
//! crc32   over the body (4 bytes, LE)
//! ```
//!
//! Varints, zig-zag, and CRC32 are shared with the trace format
//! ([`paragraph_trace::wire`], [`paragraph_trace::crc32`]). All maps are
//! serialized in sorted key order, so identical analyzer states produce
//! identical checkpoint bytes.

use crate::config::AnalysisConfig;
use paragraph_trace::binary::TraceReader;
use paragraph_trace::crc32::Crc32;
use paragraph_trace::{Loc, TraceError, TraceRecord};
use std::error::Error;
use std::fmt;
use std::io::{self, Read};

/// Magic bytes opening a checkpoint file.
pub const MAGIC: &[u8; 4] = b"PGCP";
/// Current checkpoint format version.
pub const VERSION: u8 = 2;
/// Oldest checkpoint format version this build still loads.
pub const MIN_VERSION: u8 = 1;

/// Why a checkpoint could not be saved or loaded.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// The file does not start with the `PGCP` magic.
    BadMagic,
    /// The file declares a format version this build does not know.
    UnsupportedVersion(u8),
    /// The file ended before the state did.
    Truncated,
    /// The body failed its CRC32 check.
    ChecksumMismatch {
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// The checkpoint was produced under a different analysis
    /// configuration; resuming it would silently change the result.
    ConfigMismatch {
        /// Fingerprint stored in the checkpoint.
        saved: u64,
        /// Fingerprint of the configuration offered for resumption.
        current: u64,
    },
    /// The checkpoint was produced over a different trace; resuming it
    /// would silently produce a wrong critical path.
    TraceMismatch {
        /// Identity stored in the checkpoint.
        saved: TraceIdentity,
        /// Identity of the trace offered for resumption.
        current: TraceIdentity,
    },
    /// The bytes decoded but describe an impossible analyzer state.
    Corrupt(&'static str),
    /// The checkpoint tripped a resource-governor limit (e.g. it declares
    /// a live well larger than the per-allocation cap). Rejected before
    /// any allocation is made on the input's behalf.
    LimitExceeded(paragraph_trace::govern::LimitViolation),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::BadMagic => f.write_str("not a Paragraph checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Truncated => f.write_str("checkpoint truncated"),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            CheckpointError::ConfigMismatch { saved, current } => write!(
                f,
                "checkpoint was written under a different analysis configuration \
                 (saved fingerprint {saved:#018x}, current {current:#018x})"
            ),
            CheckpointError::TraceMismatch { saved, current } => write!(
                f,
                "checkpoint was written over a different trace \
                 (saved identity {saved}, current {current})"
            ),
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::LimitExceeded(v) => write!(f, "checkpoint rejected: {v}"),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> CheckpointError {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CheckpointError::Truncated
        } else {
            CheckpointError::Io(e)
        }
    }
}

/// Number of leading records hashed into a [`TraceIdentity`]. Matches the
/// trace format's default chunk size: identifying a trace costs at most one
/// chunk's worth of hashing, once, outside the analysis hot loop.
pub const IDENTITY_PREFIX_RECORDS: usize = 4096;

/// A cheap fingerprint of the trace a checkpoint was taken over: the CRC32
/// of a canonical encoding of the first [`IDENTITY_PREFIX_RECORDS`] records
/// plus the total record count at save time. Version-2 checkpoints embed it
/// so `--resume` against the wrong trace fails with
/// [`CheckpointError::TraceMismatch`] instead of silently producing a wrong
/// critical path. Version-1 checkpoints carry no identity and resume
/// unverified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceIdentity {
    /// CRC32 over the canonical encoding of the leading records.
    pub prefix_crc: u32,
    /// Total records in the trace when the identity was taken.
    pub records: u64,
}

impl fmt::Display for TraceIdentity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{prefix_crc: {:#010x}, records: {}}}",
            self.prefix_crc, self.records
        )
    }
}

impl TraceIdentity {
    /// Fingerprints a fully materialized trace: hashes the canonical
    /// encoding of the first [`IDENTITY_PREFIX_RECORDS`] records and pairs
    /// it with the total count. Deterministic across runs and platforms —
    /// no pointers, no map iteration order, no wall clock.
    pub fn of_records(records: &[TraceRecord]) -> TraceIdentity {
        TraceIdentity::of_prefix(records, records.len() as u64)
    }

    /// Fingerprints a trace of `total` records from its leading records;
    /// only the first [`IDENTITY_PREFIX_RECORDS`] of `prefix` are hashed.
    fn of_prefix(prefix: &[TraceRecord], total: u64) -> TraceIdentity {
        let prefix = &prefix[..prefix.len().min(IDENTITY_PREFIX_RECORDS)];
        let mut crc = Crc32::new();
        let mut buf = Vec::with_capacity(64);
        for record in prefix {
            buf.clear();
            encode_record_canonical(record, &mut buf);
            crc.update(&buf);
        }
        TraceIdentity {
            prefix_crc: crc.finish(),
            records: total,
        }
    }

    /// Fingerprints the stream `reader` delivers after its first `skip`
    /// records, keeping no more than one block and the hashed prefix in
    /// memory. `total` is the stream's record count when the caller
    /// already knows it (a pristine file's chunk scan): the read then
    /// stops after the prefix. Otherwise every record is counted.
    ///
    /// # Errors
    ///
    /// The reader's own error, exactly as a full read would surface it.
    pub fn of_stream<R: Read>(
        reader: &mut TraceReader<R>,
        skip: u64,
        total: Option<u64>,
    ) -> Result<TraceIdentity, TraceError> {
        let mut prefix = Vec::with_capacity(IDENTITY_PREFIX_RECORDS);
        let mut block = Vec::new();
        let mut seen = 0u64;
        loop {
            let full = prefix.len() == IDENTITY_PREFIX_RECORDS;
            if full && total.is_some() {
                break;
            }
            block.clear();
            if reader.read_block(&mut block)? == 0 {
                break;
            }
            let from = usize::try_from(skip.saturating_sub(seen)).unwrap_or(usize::MAX);
            seen += block.len() as u64;
            let tail = block.get(from..).unwrap_or_default();
            let room = IDENTITY_PREFIX_RECORDS - prefix.len();
            prefix.extend_from_slice(&tail[..tail.len().min(room)]);
        }
        let total = total.unwrap_or(seen).saturating_sub(skip);
        Ok(TraceIdentity::of_prefix(&prefix, total))
    }
}

/// Appends a canonical, unambiguous byte encoding of one record. This is an
/// identity encoding, not the wire format: it never changes with wire-format
/// optimizations, so identities stay stable across trace-format versions.
fn encode_record_canonical(record: &TraceRecord, out: &mut Vec<u8>) {
    push_varint(out, record.pc());
    out.push(record.class() as u8);
    let srcs = record.srcs();
    out.push(srcs.len() as u8);
    for loc in srcs {
        push_loc(out, loc);
    }
    match record.dest() {
        Some(loc) => {
            out.push(1);
            push_loc(out, loc);
        }
        None => out.push(0),
    }
    match record.branch_info() {
        Some(info) => {
            out.push(if info.taken { 2 } else { 1 });
            push_varint(out, info.target);
        }
        None => out.push(0),
    }
}

/// Appends a location as a tag byte plus its payload.
fn push_loc(out: &mut Vec<u8>, loc: Loc) {
    match loc {
        Loc::IntReg(r) => {
            out.push(0);
            out.push(r.index());
        }
        Loc::FpReg(r) => {
            out.push(1);
            out.push(r.index());
        }
        Loc::Mem(addr) => {
            out.push(2);
            push_varint(out, addr);
        }
    }
}

/// Appends a LEB128 varint (infallible, in-memory — unlike the wire
/// helpers, which thread `io::Result` through a writer).
fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// A stable fingerprint of an analysis configuration (FNV-1a over its
/// debug representation). Checkpoints embed it so a resume under a
/// different configuration is rejected instead of silently producing a
/// mixed-configuration report.
pub fn config_fingerprint(config: &AnalysisConfig) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in format!("{config:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WindowSize;

    #[test]
    fn fingerprint_distinguishes_configurations() {
        let base = AnalysisConfig::dataflow_limit();
        let windowed = AnalysisConfig::dataflow_limit().with_window(WindowSize::bounded(64));
        assert_eq!(config_fingerprint(&base), config_fingerprint(&base.clone()));
        assert_ne!(config_fingerprint(&base), config_fingerprint(&windowed));
    }

    #[test]
    fn trace_identity_is_deterministic_and_distinguishes_traces() {
        use paragraph_trace::synthetic;
        let a = synthetic::random_trace(200, 1);
        let b = synthetic::random_trace(200, 2);
        assert_eq!(TraceIdentity::of_records(&a), TraceIdentity::of_records(&a));
        assert_ne!(
            TraceIdentity::of_records(&a).prefix_crc,
            TraceIdentity::of_records(&b).prefix_crc
        );
    }

    #[test]
    fn trace_identity_sees_length_changes_past_the_hashed_prefix() {
        use paragraph_trace::synthetic;
        // Two traces sharing their first IDENTITY_PREFIX_RECORDS records
        // but of different length: the prefix CRC agrees, the count does
        // not, so the identities differ.
        let long = synthetic::random_trace(IDENTITY_PREFIX_RECORDS + 100, 5);
        let short = &long[..IDENTITY_PREFIX_RECORDS + 1];
        let a = TraceIdentity::of_records(&long);
        let b = TraceIdentity::of_records(short);
        assert_eq!(a.prefix_crc, b.prefix_crc);
        assert_ne!(a, b);
    }

    #[test]
    fn error_display_names_the_failure() {
        let text = CheckpointError::ConfigMismatch {
            saved: 1,
            current: 2,
        }
        .to_string();
        assert!(text.contains("different analysis configuration"));
        assert!(
            CheckpointError::from(io::Error::new(io::ErrorKind::UnexpectedEof, "eof"))
                .to_string()
                .contains("truncated")
        );
    }
}
