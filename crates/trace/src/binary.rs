//! A compact, fault-tolerant binary on-disk trace format.
//!
//! Traces can be captured once (e.g. with `paragraph trace`) and re-analyzed
//! under many machine models, exactly as the paper re-ran Paragraph over
//! Pixie trace files with different switch settings. Those re-runs cover
//! very long streams, so the format is built to survive what long capture
//! pipelines actually produce: truncated files and corrupt bytes.
//!
//! # Format
//!
//! The header is shared by both versions: magic `PGTR`, a format version
//! byte, then the [`SegmentMap`] boundaries as varints.
//!
//! **Version 2** (written by [`TraceWriter::new`]) frames records into
//! self-delimited chunks:
//!
//! ```text
//! chunk   := SYNC_MARKER (8 bytes)
//!            varint first_record_index
//!            varint record_count        (> 0)
//!            varint payload_len
//!            crc32 (4 bytes, LE)        over the three varints + payload
//!            payload                    (record_count encoded records)
//! trailer := SYNC_MARKER, varint total_records, varint 0, varint 0, crc32
//! ```
//!
//! The pc-delta chain restarts at every chunk, so each chunk decodes
//! independently. A reader opened with [`TraceReader::with_recovery`] that
//! hits a corrupt or truncated chunk scans forward to the next sync marker,
//! counts the records it lost (chunk headers carry absolute record indexes,
//! so the loss is exact as long as a later chunk survives), and keeps
//! going; [`TraceReader::recovery_stats`] reports the damage.
//!
//! **Version 1** streams records back-to-back with no framing; v1 streams
//! remain fully readable, and [`TraceWriter::v1`] still writes them for
//! compatibility testing.
//!
//! Each record is encoded as: class byte; flag byte (source count, dest
//! flag, branch flag); zig-zag varint pc delta; each operand as a tag byte
//! plus payload; and, for resolved branches, the outcome and target.
//!
//! # Decoding
//!
//! The reader decodes in blocks: a whole CRC-validated chunk payload (or,
//! for v1, a large buffered run) is decoded straight out of the stream
//! buffer into a record batch — no per-record reads, no payload copy.
//! [`TraceReader::read_block`] exposes the batches directly for hot loops;
//! the record iterator drains the same batches one record at a time. The
//! legacy per-record path is kept behind
//! [`TraceReader::with_per_record_decode`] as a benchmark baseline and
//! differential-testing oracle.
//!
//! # Examples
//!
//! ```
//! use paragraph_trace::binary::{TraceReader, TraceWriter};
//! use paragraph_trace::{Loc, SegmentMap, TraceRecord};
//! use paragraph_isa::OpClass;
//!
//! # fn main() -> std::io::Result<()> {
//! let mut buf = Vec::new();
//! let mut writer = TraceWriter::new(&mut buf, SegmentMap::all_data())?;
//! writer.write_record(&TraceRecord::compute(0, OpClass::IntAlu, &[], Loc::int(1)))?;
//! writer.finish()?;
//!
//! let mut reader = TraceReader::new(buf.as_slice())?;
//! let records: Vec<_> = reader.by_ref().collect::<Result<_, _>>()?;
//! assert_eq!(records.len(), 1);
//! # Ok(())
//! # }
//! ```

use crate::crc32::Crc32;
use crate::error::{TraceError, TraceErrorKind};
use crate::govern::{LimitViolation, ResourceGovernor};
use crate::loc::Loc;
use crate::record::{BranchInfo, OperandViolation, Packed, TraceRecord, MAX_SRCS};
use crate::segment::SegmentMap;
use crate::source::SharedBytes;
use crate::wire::{
    read_varint, read_varint_slice, read_varint_swar, unzigzag, write_varint, zigzag,
};
use paragraph_isa::OpClass;
use std::io::{self, Read, Write};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"PGTR";
const VERSION_V1: u8 = 1;
const VERSION_V2: u8 = 2;

/// Marker opening every v2 chunk; recovery mode scans for it.
///
/// Eight bytes chosen to never occur in a well-formed encoded record
/// stream by construction alone is impossible, but eight bytes make
/// accidental occurrences vanishingly rare, and the CRC rejects false
/// positives.
pub const SYNC_MARKER: [u8; 8] = [0xa5, 0x9d, b'P', b'G', b'C', b'K', 0x5a, 0xc3];

/// Records per chunk written by [`TraceWriter::new`].
pub const DEFAULT_CHUNK_RECORDS: u64 = 4096;

/// Upper bound accepted for a chunk payload (a sanity check against
/// corrupt length fields).
const MAX_PAYLOAD_LEN: u64 = 1 << 28;

/// Marker + three max-size varints + CRC: the most bytes a chunk header
/// can occupy.
const MAX_HEADER_LEN: usize = 8 + 3 * 10 + 4;

/// Conservative upper bound on one encoded record, valid even for corrupt
/// input: class + flags (2 bytes), pc-delta varint (≤ 11 bytes before the
/// decoder rejects it), three source locs and a dest (≤ 12 bytes each),
/// branch outcome byte + target varint (≤ 12 bytes). The v1 block decoder
/// stops this far short of the end of a non-final buffer so it never
/// starts a record it cannot finish.
const MAX_RECORD_LEN: usize = 80;

/// Records per batch served by the block decoder (and per block returned
/// by [`TraceReader::read_block`] on the legacy path).
const BATCH_RECORDS: usize = DEFAULT_CHUNK_RECORDS as usize;

/// Bytes the v1 block decoder buffers per refill.
const V1_FILL_BYTES: usize = 64 * 1024;

const TAG_INT: u8 = 0;
const TAG_FP: u8 = 1;
const TAG_MEM: u8 = 2;

fn write_loc<W: Write>(mut w: W, loc: Loc) -> io::Result<()> {
    match loc {
        Loc::IntReg(r) => w.write_all(&[TAG_INT, r.index()]),
        Loc::FpReg(r) => w.write_all(&[TAG_FP, r.index()]),
        Loc::Mem(addr) => {
            w.write_all(&[TAG_MEM])?;
            write_varint(w, addr)
        }
    }
}

fn read_loc<R: Read>(mut r: R) -> io::Result<Loc> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    match tag[0] {
        TAG_INT | TAG_FP => {
            let mut idx = [0u8; 1];
            r.read_exact(&mut idx)?;
            let loc = if tag[0] == TAG_INT {
                paragraph_isa::IntReg::new(idx[0]).map(Loc::IntReg)
            } else {
                paragraph_isa::FpReg::new(idx[0]).map(Loc::FpReg)
            };
            loc.ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "register index out of range")
            })
        }
        TAG_MEM => Ok(Loc::Mem(read_varint(r)?)),
        t => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown location tag {t}"),
        )),
    }
}

/// Encodes one record (pc encoded as a delta against `last_pc`).
///
/// Writing to a `Vec` cannot fail, so this is infallible.
fn encode_record(buf: &mut Vec<u8>, record: &TraceRecord, last_pc: &mut u64) {
    let srcs = record.srcs();
    let dest = record.dest();
    let branch = record.branch_info();
    let flags = srcs.len() as u8
        | if dest.is_some() { 0x80 } else { 0 }
        | if branch.is_some() { 0x40 } else { 0 };
    buf.push(record.class().id());
    buf.push(flags);
    let delta = zigzag(record.pc() as i64 - *last_pc as i64);
    // Vec writes are infallible.
    let _ = write_varint(&mut *buf, delta);
    *last_pc = record.pc();
    for s in srcs {
        let _ = write_loc(&mut *buf, s);
    }
    if let Some(d) = dest {
        let _ = write_loc(&mut *buf, d);
    }
    if let Some(info) = branch {
        buf.push(u8::from(info.taken));
        let _ = write_varint(&mut *buf, info.target);
    }
}

/// Decodes one record, or `None` at a clean end-of-stream boundary.
fn decode_record<R: Read>(mut input: R, last_pc: &mut u64) -> io::Result<Option<TraceRecord>> {
    let mut head = [0u8; 2];
    match input.read_exact(&mut head) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let class = OpClass::from_id(head[0])
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown opcode class"))?;
    let nsrc = (head[1] & 0x3f) as usize;
    if nsrc > 3 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "record has too many sources",
        ));
    }
    let has_dest = head[1] & 0x80 != 0;
    let has_branch = head[1] & 0x40 != 0;
    let delta = unzigzag(read_varint(&mut input)?);
    let pc = last_pc.wrapping_add(delta as u64);
    *last_pc = pc;
    let mut srcs = [Loc::mem(0); 3];
    for slot in srcs.iter_mut().take(nsrc) {
        *slot = read_loc(&mut input)?;
    }
    let dest = if has_dest {
        Some(read_loc(&mut input)?)
    } else {
        None
    };
    let branch = if has_branch {
        let mut taken = [0u8; 1];
        input.read_exact(&mut taken)?;
        let target = read_varint(&mut input)?;
        Some(BranchInfo {
            taken: taken[0] != 0,
            target,
        })
    } else {
        None
    };
    TraceRecord::try_new(pc, class, &srcs[..nsrc], dest, branch)
        .map(Some)
        .map_err(invalid_operands)
}

/// A record whose operands break the record contract: corrupt data.
fn invalid_operands(v: OperandViolation) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, v.to_string())
}

fn eof_mid_record() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "record ends past the buffer")
}

/// Operand-tag dispatch table: one indexed load classifies the tag byte
/// instead of a chain of compares. Entries: 0 = int register, 1 = fp
/// register, 2 = memory varint, 3 = invalid.
const LOC_DISPATCH: [u8; 256] = {
    let mut table = [3u8; 256];
    table[TAG_INT as usize] = 0;
    table[TAG_FP as usize] = 1;
    table[TAG_MEM as usize] = 2;
    table
};

/// Reads one varint with the kernel selected at monomorphization time:
/// the SWAR bit-trick decoder on the hot path, the scalar loop for the
/// retained oracle/baseline configuration.
#[inline]
fn read_varint_fast<const SWAR: bool>(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    if SWAR {
        read_varint_swar(buf, pos)
    } else {
        read_varint_slice(buf, pos)
    }
}

/// Slice-based twin of [`read_loc`] for the block decoder: reads one
/// location straight into the form a record slot holds it in.
#[inline(always)]
fn read_operand_slice_impl<const SWAR: bool>(buf: &[u8], pos: &mut usize) -> io::Result<Packed> {
    let Some(&tag) = buf.get(*pos) else {
        return Err(eof_mid_record());
    };
    *pos += 1;
    match LOC_DISPATCH[tag as usize] {
        0 | 1 => {
            let Some(&idx) = buf.get(*pos) else {
                return Err(eof_mid_record());
            };
            *pos += 1;
            let packed = if tag == TAG_INT {
                paragraph_isa::IntReg::new(idx).map(|r| Packed::int(r.index()))
            } else {
                paragraph_isa::FpReg::new(idx).map(|r| Packed::fp(r.index()))
            };
            packed.ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "register index out of range")
            })
        }
        2 => Ok(Packed::mem(read_varint_fast::<SWAR>(buf, pos)?)),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown location tag {tag}"),
        )),
    }
}

/// Scalar-varint record decode: the differential baseline for the SWAR
/// path and the kernel behind [`TraceReader::with_scalar_block_decode`].
#[inline]
fn decode_record_slice(
    buf: &[u8],
    pos: &mut usize,
    last_pc: &mut u64,
) -> io::Result<Option<TraceRecord>> {
    decode_record_slice_impl::<false>(buf, pos, last_pc)
}

/// SWAR-varint record decode: the production hot path.
#[inline]
fn decode_record_slice_swar(
    buf: &[u8],
    pos: &mut usize,
    last_pc: &mut u64,
) -> io::Result<Option<TraceRecord>> {
    decode_record_slice_impl::<true>(buf, pos, last_pc)
}

/// The block decoder's record kernel, behind every block path: decodes
/// one record from `buf` at `*pos`, advancing `*pos` past it. `SWAR`
/// selects the varint kernel; both instantiations decode identical bytes
/// to identical records with identical errors, and agree with
/// [`decode_record`], the independent per-record oracle.
///
/// The record contract is checked once, here: the record is packed in
/// place as its operands are read, zero-register operands dropped, and
/// then goes through [`TraceRecord::check`] (a violation is
/// `InvalidData`).
///
/// Returns `None` with fewer than two bytes left at a record start — the
/// same condition the `Read`-based decoder treats as a clean end of
/// stream. Running out of bytes mid-record is `UnexpectedEof`.
///
/// Forced inline, as is [`read_operand_slice_impl`]: called out of line, each
/// record went back through memory on return, and inlining both into the
/// chunk loop cut `read_block` by about a quarter (docs/hotpath.md).
#[inline(always)]
fn decode_record_slice_impl<const SWAR: bool>(
    buf: &[u8],
    pos: &mut usize,
    last_pc: &mut u64,
) -> io::Result<Option<TraceRecord>> {
    let (Some(&class_id), Some(&flags)) = (buf.get(*pos), buf.get(*pos + 1)) else {
        return Ok(None);
    };
    *pos += 2;
    let class = OpClass::from_id(class_id)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unknown opcode class"))?;
    let nsrc = (flags & 0x3f) as usize;
    if nsrc > MAX_SRCS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "record has too many sources",
        ));
    }
    let delta = unzigzag(read_varint_fast::<SWAR>(buf, pos)?);
    let pc = last_pc.wrapping_add(delta as u64);
    *last_pc = pc;
    // The record is packed in place as its operands are read; pushing
    // the zero register stores nothing the record keeps.
    let mut record = TraceRecord::bare(pc, class);
    for _ in 0..nsrc {
        record.push_src(read_operand_slice_impl::<SWAR>(buf, pos)?);
    }
    if flags & 0x80 != 0 {
        record.set_dest(read_operand_slice_impl::<SWAR>(buf, pos)?);
    }
    if flags & 0x40 != 0 {
        let Some(&taken) = buf.get(*pos) else {
            return Err(eof_mid_record());
        };
        *pos += 1;
        record.set_outcome(taken != 0, read_varint_fast::<SWAR>(buf, pos)?);
    }
    record.check().map_err(invalid_operands)?;
    Ok(Some(record))
}

/// Why a CRC-valid chunk payload failed to decode (possible only under a
/// checksum collision).
enum ChunkFault {
    /// The payload ended at a record boundary before `count` records.
    Short,
    /// A record failed to decode.
    Bad(io::Error),
}

/// Outcome of batch-decoding one chunk payload.
struct ChunkDecode {
    /// Records appended to the batch.
    delivered: u64,
    /// Records decoded, including discarded duplicates.
    decoded: u64,
    /// Set when the payload did not yield `count` records.
    fault: Option<ChunkFault>,
}

/// Decodes `count` records of a CRC-valid chunk payload into `out`,
/// skipping the first `discard` (already delivered by an overlapping
/// frame). Trailing payload bytes beyond `count` records are ignored,
/// exactly as the per-record path ignores them. `swar` selects the varint
/// kernel (both decode identically; the scalar one is the baseline).
fn decode_chunk_payload(
    payload: &[u8],
    count: u64,
    discard: u64,
    out: &mut Vec<TraceRecord>,
    swar: bool,
) -> ChunkDecode {
    if swar {
        decode_chunk_payload_impl::<true>(payload, count, discard, out)
    } else {
        decode_chunk_payload_impl::<false>(payload, count, discard, out)
    }
}

fn decode_chunk_payload_impl<const SWAR: bool>(
    payload: &[u8],
    count: u64,
    discard: u64,
    out: &mut Vec<TraceRecord>,
) -> ChunkDecode {
    let mut pos = 0usize;
    // The pc-delta chain restarts at every chunk.
    let mut last_pc = 0u64;
    let mut decoded = 0u64;
    let mut delivered = 0u64;
    while decoded < count {
        match decode_record_slice_impl::<SWAR>(payload, &mut pos, &mut last_pc) {
            Ok(Some(record)) => {
                decoded += 1;
                if decoded > discard {
                    out.push(record);
                    delivered += 1;
                }
            }
            Ok(None) => {
                return ChunkDecode {
                    delivered,
                    decoded,
                    fault: Some(ChunkFault::Short),
                }
            }
            Err(e) => {
                return ChunkDecode {
                    delivered,
                    decoded,
                    fault: Some(ChunkFault::Bad(e)),
                }
            }
        }
    }
    ChunkDecode {
        delivered,
        decoded,
        fault: None,
    }
}

/// Streaming writer for the binary trace format.
///
/// [`TraceWriter::new`] writes the chunked, checksummed v2 format;
/// [`TraceWriter::v1`] writes the legacy unframed stream. Callers that need
/// buffering should wrap the writer in a [`std::io::BufWriter`]; a `&mut W`
/// can be passed wherever a `W: Write` is expected.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    version: u8,
    chunk_records: u64,
    chunk_buf: Vec<u8>,
    chunk_len: u64,
    last_pc: u64,
    records: u64,
    scratch: Vec<u8>,
}

impl<W: Write> TraceWriter<W> {
    /// Writes a v2 header and returns a writer framing records into chunks
    /// of [`DEFAULT_CHUNK_RECORDS`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn new(out: W, segments: SegmentMap) -> io::Result<TraceWriter<W>> {
        TraceWriter::with_chunk_records(out, segments, DEFAULT_CHUNK_RECORDS)
    }

    /// Like [`TraceWriter::new`] with an explicit chunk size (records per
    /// chunk). Smaller chunks bound the loss from a corrupt region more
    /// tightly at a little more framing overhead.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_records` is zero.
    pub fn with_chunk_records(
        mut out: W,
        segments: SegmentMap,
        chunk_records: u64,
    ) -> io::Result<TraceWriter<W>> {
        assert!(chunk_records > 0, "chunk size must be positive");
        out.write_all(MAGIC)?;
        out.write_all(&[VERSION_V2])?;
        write_varint(&mut out, segments.heap_base())?;
        write_varint(&mut out, segments.stack_floor())?;
        Ok(TraceWriter {
            out,
            version: VERSION_V2,
            chunk_records,
            chunk_buf: Vec::new(),
            chunk_len: 0,
            last_pc: 0,
            records: 0,
            scratch: Vec::new(),
        })
    }

    /// Writes a legacy v1 (unframed) header and returns a v1 writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn v1(mut out: W, segments: SegmentMap) -> io::Result<TraceWriter<W>> {
        out.write_all(MAGIC)?;
        out.write_all(&[VERSION_V1])?;
        write_varint(&mut out, segments.heap_base())?;
        write_varint(&mut out, segments.stack_floor())?;
        Ok(TraceWriter {
            out,
            version: VERSION_V1,
            chunk_records: 0,
            chunk_buf: Vec::new(),
            chunk_len: 0,
            last_pc: 0,
            records: 0,
            scratch: Vec::new(),
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_record(&mut self, record: &TraceRecord) -> io::Result<()> {
        if self.version == VERSION_V1 {
            self.scratch.clear();
            encode_record(&mut self.scratch, record, &mut self.last_pc);
            self.out.write_all(&self.scratch)?;
            self.records += 1;
            return Ok(());
        }
        encode_record(&mut self.chunk_buf, record, &mut self.last_pc);
        self.chunk_len += 1;
        self.records += 1;
        if self.chunk_len == self.chunk_records {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Writes the buffered chunk (if any) with its framing.
    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.chunk_len == 0 {
            return Ok(());
        }
        let first_index = self.records - self.chunk_len;
        write_chunk_frame(&mut self.out, first_index, self.chunk_len, &self.chunk_buf)?;
        self.chunk_buf.clear();
        self.chunk_len = 0;
        // Each chunk decodes independently: restart the pc-delta chain.
        self.last_pc = 0;
        Ok(())
    }

    /// Flushes (writing the final chunk and end-of-stream trailer for v2)
    /// and returns the number of records written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(mut self) -> io::Result<u64> {
        if self.version == VERSION_V2 {
            self.flush_chunk()?;
            // Trailer: total record count, zero records, empty payload.
            write_chunk_frame(&mut self.out, self.records, 0, &[])?;
        }
        self.out.flush()?;
        Ok(self.records)
    }
}

/// Writes one framed chunk: sync marker, header varints, CRC, payload.
fn write_chunk_frame<W: Write>(
    mut out: W,
    first_index: u64,
    count: u64,
    payload: &[u8],
) -> io::Result<()> {
    let mut header = Vec::with_capacity(3 * 10);
    // Vec writes are infallible.
    let _ = write_varint(&mut header, first_index);
    let _ = write_varint(&mut header, count);
    let _ = write_varint(&mut header, payload.len() as u64);
    let mut crc = Crc32::new();
    crc.update(&header);
    crc.update(payload);
    out.write_all(&SYNC_MARKER)?;
    out.write_all(&header)?;
    out.write_all(&crc.finish().to_le_bytes())?;
    out.write_all(payload)
}

/// Damage tallies from a [`TraceReader`] (all zero for a clean stream).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records successfully decoded and yielded.
    pub records_read: u64,
    /// Records known to be lost to corruption or truncation. Exact
    /// whenever a later chunk (or the trailer) survives to re-anchor the
    /// record index; a destroyed tail with no trailer is not counted
    /// because its size is unknowable.
    pub records_skipped: u64,
    /// Chunks whose CRC check failed.
    pub chunks_skipped: u64,
    /// Chunks dropped because their records were already delivered
    /// (duplicated frames).
    pub duplicate_chunks: u64,
    /// Times the reader had to scan forward for a sync marker.
    pub resyncs: u64,
    /// Bytes discarded while scanning.
    pub bytes_skipped: u64,
}

/// Buffered byte source for chunk parsing: supports peeking at unconsumed
/// bytes (so a failed parse can rescan them) while tracking the absolute
/// stream offset.
///
/// Two modes share one interface. In reader mode, bytes are pulled from
/// `inner` into `buf` on demand. In zero-copy mode (`slice` set — the
/// mmap'd backend), the entire input is already resident: `buffered()`
/// borrows straight out of the shared region, `fill_to` never copies, and
/// `inner` is never read.
#[derive(Debug)]
pub(crate) struct ByteStream<R: Read> {
    inner: R,
    /// Whole-input in-memory region for the zero-copy mode.
    slice: Option<SharedBytes>,
    buf: Vec<u8>,
    start: usize,
    offset: u64,
    eof: bool,
}

impl<R: Read> ByteStream<R> {
    pub(crate) fn new(inner: R) -> ByteStream<R> {
        ByteStream {
            inner,
            slice: None,
            buf: Vec::new(),
            start: 0,
            offset: 0,
            eof: false,
        }
    }

    /// Zero-copy mode over `slice`; `inner` is retained only to satisfy
    /// the type and is never read.
    pub(crate) fn with_slice(inner: R, slice: SharedBytes) -> ByteStream<R> {
        ByteStream {
            inner,
            slice: Some(slice),
            buf: Vec::new(),
            start: 0,
            offset: 0,
            eof: true,
        }
    }

    fn available(&self) -> usize {
        match &self.slice {
            Some(bytes) => bytes.len() - self.start,
            None => self.buf.len() - self.start,
        }
    }

    fn buffered(&self) -> &[u8] {
        match &self.slice {
            Some(bytes) => &bytes[self.start..],
            None => &self.buf[self.start..],
        }
    }

    /// Tries to buffer at least `want` unconsumed bytes; stops early at
    /// end-of-input. Returns the bytes now available. In zero-copy mode
    /// everything is already available, so this never reads.
    fn fill_to(&mut self, want: usize) -> io::Result<usize> {
        if self.slice.is_some() {
            return Ok(self.available());
        }
        while self.available() < want && !self.eof {
            self.compact();
            let old_len = self.buf.len();
            self.buf.resize(old_len + 8192, 0);
            let n = self.inner.read(&mut self.buf[old_len..])?;
            self.buf.truncate(old_len + n);
            if n == 0 {
                self.eof = true;
            }
        }
        Ok(self.available())
    }

    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.available());
        self.start += n;
        self.offset += n as u64;
    }

    fn compact(&mut self) {
        if self.slice.is_some() {
            return;
        }
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

impl<R: Read> Read for ByteStream<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.available() == 0 {
            if self.eof {
                return Ok(0);
            }
            let n = self.inner.read(out)?;
            if n == 0 {
                self.eof = true;
            }
            self.offset += n as u64;
            return Ok(n);
        }
        let n = out.len().min(self.available());
        out[..n].copy_from_slice(&self.buffered()[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// Outcome of attempting to parse one chunk at the current position.
enum ChunkParse {
    /// A CRC-valid data chunk, still unconsumed in the input buffer:
    /// `buffered()[header_len..frame_len]` is the payload. The caller
    /// decodes (or copies) it in place, then consumes `frame_len`.
    Chunk {
        first_index: u64,
        count: u64,
        header_len: usize,
        frame_len: usize,
    },
    /// The CRC-valid end-of-stream trailer.
    Trailer { total: u64 },
    /// Clean end of input at a chunk boundary.
    End,
    /// The input ended before the chunk did.
    Truncated,
    /// The next bytes are not a sync marker.
    BadSync,
    /// Marker found but the header fields are nonsense.
    BadHeader(&'static str),
    /// Frame intact but the checksum disagrees.
    BadCrc { stored: u32, computed: u32 },
    /// The chunk tripped a resource-governor limit. Terminal even in
    /// recovery mode: a declared length past the cap is a policy
    /// rejection, not damage to scan past.
    LimitExceeded(LimitViolation),
}

/// Streaming reader for the binary trace format (v1 and v2).
///
/// Iterates over `Result<TraceRecord, TraceError>`; iteration ends at a
/// clean end-of-stream. A reader opened with [`TraceReader::new`] stops at
/// the first fault with a context-carrying [`TraceError`]; one opened with
/// [`TraceReader::with_recovery`] resynchronizes past damage in v2 streams
/// and tallies the loss in [`TraceReader::recovery_stats`].
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: ByteStream<R>,
    segments: SegmentMap,
    version: u8,
    recover: bool,
    done: bool,
    /// v1 decode state.
    last_pc: u64,
    /// Records delivered so far (also: index of the next record).
    delivered: u64,
    /// v2: payload of the chunk currently being decoded.
    payload: io::Cursor<Vec<u8>>,
    payload_last_pc: u64,
    /// v2: records remaining in the current chunk.
    payload_remaining: u64,
    /// v2: records at the head of the current chunk to decode and drop
    /// (already delivered from an earlier copy of an overlapping frame).
    payload_discard: u64,
    /// v2: ordinal of the chunk being read.
    chunk_ordinal: u64,
    /// v2: next expected record index (delivered + known-skipped).
    pos: u64,
    stats: RecoveryStats,
    total_written: Option<u64>,
    /// Block-decode straight from the stream buffer (default); false
    /// selects the legacy per-record pull path.
    batched: bool,
    /// Decoded records waiting to be served.
    batch: Vec<TraceRecord>,
    /// Cursor into `batch`.
    batch_pos: usize,
    /// Fault to surface once the records batched ahead of it are served.
    pending_err: Option<TraceError>,
    /// SWAR varint kernel in the block decoder (default); false selects
    /// the scalar kernel retained as baseline and differential oracle.
    swar: bool,
    /// Resource caps enforced while decoding (generous by default).
    governor: ResourceGovernor,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the header; faults fail the iteration at the
    /// first error.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the magic or version is wrong or the
    /// header is unreadable.
    pub fn new(input: R) -> Result<TraceReader<R>, TraceError> {
        TraceReader::open(input, false)
    }

    /// Like [`TraceReader::new`], but damage in a v2 stream is skipped by
    /// scanning to the next sync marker instead of failing. The loss is
    /// tallied in [`TraceReader::recovery_stats`]. (v1 streams have no
    /// sync markers, so recovery cannot resume them; their faults still
    /// end the iteration with an error.)
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the magic or version is wrong or the
    /// header is unreadable; recovery starts only after a valid header.
    pub fn with_recovery(input: R) -> Result<TraceReader<R>, TraceError> {
        TraceReader::open(input, true)
    }

    fn open(input: R, recover: bool) -> Result<TraceReader<R>, TraceError> {
        TraceReader::open_stream(ByteStream::new(input), recover)
    }

    pub(crate) fn open_stream(
        mut input: ByteStream<R>,
        recover: bool,
    ) -> Result<TraceReader<R>, TraceError> {
        let mut magic = [0u8; 5];
        input.read_exact(&mut magic).map_err(|e| {
            let kind = if e.kind() == io::ErrorKind::UnexpectedEof {
                TraceErrorKind::Truncated
            } else {
                TraceErrorKind::Io(e)
            };
            TraceError::new(kind, 0, 0)
        })?;
        if &magic[..4] != MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(&magic[..4]);
            return Err(TraceError::new(TraceErrorKind::BadMagic(found), 0, 0));
        }
        let version = magic[4];
        if version != VERSION_V1 && version != VERSION_V2 {
            return Err(TraceError::new(
                TraceErrorKind::UnsupportedVersion(version),
                4,
                0,
            ));
        }
        let heap_base =
            read_varint(&mut input).map_err(|e| TraceError::new(io_to_kind(e), input.offset, 0))?;
        let stack_floor =
            read_varint(&mut input).map_err(|e| TraceError::new(io_to_kind(e), input.offset, 0))?;
        // A flipped bit in the header can invert the segment boundaries;
        // that is corruption, not a programming error.
        if heap_base > stack_floor {
            return Err(TraceError::new(
                TraceErrorKind::Corrupt("segment boundaries are inverted".into()),
                input.offset,
                0,
            ));
        }
        Ok(TraceReader {
            input,
            segments: SegmentMap::new(heap_base, stack_floor),
            version,
            recover,
            done: false,
            last_pc: 0,
            delivered: 0,
            payload: io::Cursor::new(Vec::new()),
            payload_last_pc: 0,
            payload_remaining: 0,
            payload_discard: 0,
            chunk_ordinal: 0,
            pos: 0,
            stats: RecoveryStats::default(),
            total_written: None,
            batched: true,
            batch: Vec::new(),
            batch_pos: 0,
            pending_err: None,
            swar: true,
            governor: ResourceGovernor::default(),
        })
    }

    /// Installs a resource governor enforcing caps on record counts,
    /// allocations, declared lengths, decode bytes, and wall-clock time.
    /// Limit violations surface as terminal
    /// [`TraceErrorKind::LimitExceeded`] errors — never resynced past,
    /// even under [`TraceReader::with_recovery`].
    #[must_use]
    pub fn with_governor(mut self, governor: ResourceGovernor) -> TraceReader<R> {
        self.governor = governor;
        self
    }

    /// The resource governor in effect (lets callers inspect
    /// [`ResourceGovernor::peak_alloc`] after a decode).
    pub fn governor(&self) -> &ResourceGovernor {
        &self.governor
    }

    /// Switches this reader to the legacy per-record decode path (one
    /// buffered read per field instead of block decodes straight from the
    /// stream buffer). Both paths decode the same streams to the same
    /// records with the same faults; this one is retained as the
    /// benchmark baseline and as a differential-testing oracle for the
    /// block decoder.
    #[must_use]
    pub fn with_per_record_decode(mut self) -> TraceReader<R> {
        self.batched = false;
        self
    }

    /// Switches the block decoder to the scalar varint kernel (the
    /// pre-SWAR production path). Both kernels decode the same streams to
    /// the same records with the same faults; this one is retained as the
    /// benchmark baseline and a differential-testing oracle for the SWAR
    /// kernel.
    #[must_use]
    pub fn with_scalar_block_decode(mut self) -> TraceReader<R> {
        self.swar = false;
        self
    }

    /// The segment map recorded in the trace header.
    pub fn segment_map(&self) -> SegmentMap {
        self.segments
    }

    /// The format version declared by the stream (1 or 2).
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Damage tallies so far (all zero for a clean stream).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Total records the writer claims to have written, once the
    /// end-of-stream trailer has been reached (v2 only).
    pub fn records_written(&self) -> Option<u64> {
        self.total_written
    }

    /// Bytes consumed from the underlying stream so far (header included).
    /// Lets drivers report decode throughput in MB/s without wrapping the
    /// reader in a counting adapter.
    pub fn bytes_read(&self) -> u64 {
        self.input.offset
    }

    /// Records delivered to the caller so far.
    pub fn records_read(&self) -> u64 {
        self.delivered
    }

    /// Decodes every remaining record into a shared immutable slice.
    ///
    /// This is the sweep engine's decode-once entry point: the returned
    /// `Arc<[TraceRecord]>` derefs to `&[TraceRecord]`, so any number of
    /// concurrent analyzer passes can walk one decode without copying or
    /// re-reading the stream. The segment map rides along because every
    /// analysis config derived from the trace needs it.
    ///
    /// # Errors
    ///
    /// Returns the first decode fault, exactly as iteration would (wrap
    /// the reader via [`TraceReader::with_recovery`] first to skip damaged
    /// chunks instead).
    pub fn into_shared(mut self) -> Result<(Arc<[TraceRecord]>, SegmentMap), TraceError> {
        let segments = self.segment_map();
        let mut records = Vec::new();
        while self.read_block(&mut records)? > 0 {}
        Ok((Arc::from(records), segments))
    }

    /// Decodes the next block of records, appending them to `out`.
    /// Returns how many were appended; `Ok(0)` means a clean end of
    /// stream.
    ///
    /// This is the hot-loop entry point: records arrive in chunk-sized
    /// batches decoded straight from the stream buffer, ready to feed
    /// slice-based consumers without per-record iterator dispatch.
    /// Interleaving with iterator use is fine — both drain the same
    /// internal batch in order.
    ///
    /// # Errors
    ///
    /// Faults surface exactly where iteration would surface them: the
    /// records decoded ahead of a fault are appended (and counted in
    /// [`TraceReader::records_read`]) before the error is returned.
    pub fn read_block(&mut self, out: &mut Vec<TraceRecord>) -> Result<usize, TraceError> {
        if self.done {
            return Ok(0);
        }
        loop {
            if self.batch_pos < self.batch.len() {
                let n = self.batch.len() - self.batch_pos;
                out.extend_from_slice(&self.batch[self.batch_pos..]);
                self.batch_pos = self.batch.len();
                self.delivered += n as u64;
                self.stats.records_read += n as u64;
                if let Err(e) = self.charge_delivered(n as u64) {
                    self.done = true;
                    return Err(e);
                }
                return Ok(n);
            }
            if let Some(e) = self.pending_err.take() {
                self.done = true;
                return Err(e);
            }
            if !self.batched {
                return self.read_block_per_record(out);
            }
            // Decode straight into the caller's buffer — no intermediate
            // batch, no copy.
            let start = out.len();
            match self.refill_into(out) {
                Ok(true) => {
                    let n = out.len() - start;
                    if n > 0 {
                        self.delivered += n as u64;
                        self.stats.records_read += n as u64;
                        if let Err(e) = self.charge_delivered(n as u64) {
                            self.done = true;
                            return Err(e);
                        }
                        return Ok(n);
                    }
                    // The refill produced only a pending fault; loop to
                    // surface it.
                }
                Ok(false) => {
                    self.done = true;
                    return Ok(0);
                }
                Err(e) => {
                    self.done = true;
                    return Err(e);
                }
            }
        }
    }

    /// Legacy-path block fill: pulls records one at a time.
    fn read_block_per_record(&mut self, out: &mut Vec<TraceRecord>) -> Result<usize, TraceError> {
        let mut n = 0usize;
        while n < BATCH_RECORDS {
            let next = if self.version == VERSION_V1 {
                self.next_v1()
            } else {
                self.next_v2()
            };
            match next {
                Ok(Some(record)) => {
                    out.push(record);
                    n += 1;
                }
                Ok(None) => {
                    self.done = true;
                    break;
                }
                Err(e) => {
                    self.done = true;
                    return Err(e);
                }
            }
        }
        Ok(n)
    }

    fn error(&self, kind: TraceErrorKind) -> TraceError {
        self.error_at(kind, self.delivered)
    }

    fn error_at(&self, kind: TraceErrorKind, record_index: u64) -> TraceError {
        let err = TraceError::new(kind, self.input.offset, record_index);
        if self.version == VERSION_V2 {
            err.in_chunk(self.chunk_ordinal)
        } else {
            err
        }
    }

    /// Checks the cumulative decode-byte budget and the wall-clock
    /// deadline. Called once per chunk parse, per v1 buffer refill, and
    /// per resync scan round — the three places an adversarial stream can
    /// make the reader consume input without delivering records.
    fn check_budgets(&self) -> Result<(), TraceError> {
        if let Err(v) = self.governor.check_decode_bytes(self.input.offset) {
            return Err(self.error(TraceErrorKind::LimitExceeded(v)));
        }
        if let Err(v) = self.governor.check_deadline() {
            return Err(self.error(TraceErrorKind::LimitExceeded(v)));
        }
        Ok(())
    }

    /// Charges `n` delivered records against the governor's record budget.
    fn charge_delivered(&mut self, n: u64) -> Result<(), TraceError> {
        match self.governor.charge_records(n) {
            Ok(()) => Ok(()),
            Err(v) => Err(self.error(TraceErrorKind::LimitExceeded(v))),
        }
    }

    /// v1: decode the next record straight off the stream.
    fn next_v1(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        self.check_budgets()?;
        match decode_record(&mut self.input, &mut self.last_pc) {
            Ok(Some(record)) => {
                self.delivered += 1;
                self.stats.records_read += 1;
                self.charge_delivered(1)?;
                Ok(Some(record))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(self.error(io_to_kind(e))),
        }
    }

    /// Attempts to parse one chunk frame at the current stream position.
    /// Failed parses consume nothing (so recovery can rescan the bytes);
    /// trailers are consumed, and a data chunk's frame is left buffered
    /// for the caller to decode in place and consume.
    fn try_parse_chunk(&mut self) -> io::Result<ChunkParse> {
        if let Err(v) = self.governor.check_decode_bytes(self.input.offset) {
            return Ok(ChunkParse::LimitExceeded(v));
        }
        if let Err(v) = self.governor.check_deadline() {
            return Ok(ChunkParse::LimitExceeded(v));
        }
        let available = self.input.fill_to(SYNC_MARKER.len())?;
        if available == 0 {
            return Ok(ChunkParse::End);
        }
        if available < SYNC_MARKER.len() {
            return Ok(ChunkParse::Truncated);
        }
        if self.input.buffered()[..SYNC_MARKER.len()] != SYNC_MARKER {
            return Ok(ChunkParse::BadSync);
        }
        self.input.fill_to(MAX_HEADER_LEN)?;
        let header = &self.input.buffered()[SYNC_MARKER.len()..];
        let mut cursor = header;
        let Ok(first_index) = read_varint(&mut cursor) else {
            return Ok(if header.len() < 10 {
                ChunkParse::Truncated
            } else {
                ChunkParse::BadHeader("record index varint")
            });
        };
        let Ok(count) = read_varint(&mut cursor) else {
            return Ok(if cursor.len() < 10 {
                ChunkParse::Truncated
            } else {
                ChunkParse::BadHeader("record count varint")
            });
        };
        let Ok(payload_len) = read_varint(&mut cursor) else {
            return Ok(if cursor.len() < 10 {
                ChunkParse::Truncated
            } else {
                ChunkParse::BadHeader("payload length varint")
            });
        };
        let varint_len = header.len() - cursor.len();
        if payload_len > MAX_PAYLOAD_LEN {
            return Ok(ChunkParse::BadHeader("payload length out of range"));
        }
        // Governor checks run on the *declared* length, before any byte of
        // the payload is buffered: a hostile header cannot make us allocate.
        if let Err(v) = self
            .governor
            .check_declared_len("chunk payload length", payload_len)
        {
            return Ok(ChunkParse::LimitExceeded(v));
        }
        if let Err(v) = self
            .governor
            .check_declared_len("chunk record count", count)
        {
            return Ok(ChunkParse::LimitExceeded(v));
        }
        if count == 0 && payload_len != 0 {
            return Ok(ChunkParse::BadHeader("trailer with payload"));
        }
        // Every record costs at least 3 bytes (class, flags, pc delta).
        if count > 0 && count.saturating_mul(3) > payload_len {
            return Ok(ChunkParse::BadHeader("record count exceeds payload"));
        }
        if cursor.len() < 4 {
            return Ok(ChunkParse::Truncated);
        }
        let mut stored = [0u8; 4];
        stored.copy_from_slice(&cursor[..4]);
        let stored = u32::from_le_bytes(stored);
        let header_len = SYNC_MARKER.len() + varint_len + 4;
        let frame_len = header_len + payload_len as usize;
        if let Err(v) = self.governor.charge_alloc("chunk frame", frame_len as u64) {
            return Ok(ChunkParse::LimitExceeded(v));
        }
        if self.input.fill_to(frame_len)? < frame_len {
            return Ok(ChunkParse::Truncated);
        }
        let bytes = self.input.buffered();
        let mut crc = Crc32::new();
        crc.update(&bytes[SYNC_MARKER.len()..SYNC_MARKER.len() + varint_len]);
        crc.update(&bytes[header_len..frame_len]);
        let computed = crc.finish();
        if computed != stored {
            return Ok(ChunkParse::BadCrc { stored, computed });
        }
        if count == 0 {
            self.input.consume(frame_len);
            return Ok(ChunkParse::Trailer { total: first_index });
        }
        Ok(ChunkParse::Chunk {
            first_index,
            count,
            header_len,
            frame_len,
        })
    }

    /// Recovery: drop one byte, then scan forward to the next candidate
    /// sync marker (or end of input). The governor's decode-byte budget
    /// and deadline bound the scan — an adversarial stream cannot make
    /// recovery walk an unbounded garbage region for free.
    fn resync(&mut self) -> Result<(), TraceError> {
        self.stats.resyncs += 1;
        self.input.consume(1);
        self.stats.bytes_skipped += 1;
        loop {
            self.check_budgets()?;
            let bytes = self.input.buffered();
            if let Some(at) = find_marker(bytes) {
                self.input.consume(at);
                self.stats.bytes_skipped += at as u64;
                return Ok(());
            }
            // No marker: all but the last 7 bytes (a possible marker
            // prefix) are garbage.
            let keep = bytes.len().min(SYNC_MARKER.len() - 1);
            let drop = bytes.len() - keep;
            self.input.consume(drop);
            self.stats.bytes_skipped += drop as u64;
            let before = self.input.available();
            let filled = self
                .input
                .fill_to(before + 8192)
                .map_err(|e| self.error(TraceErrorKind::Io(e)))?;
            if filled == before {
                // End of input: nothing left to scan.
                let rest = self.input.available();
                self.input.consume(rest);
                self.stats.bytes_skipped += rest as u64;
                return Ok(());
            }
        }
    }

    /// Reconciles a parsed frame's record-index range against what has
    /// already been delivered. Returns how many leading records to decode
    /// and drop (already delivered by an overlapping frame), or `None`
    /// when the whole frame is a duplicate.
    fn reconcile_chunk(&mut self, first_index: u64, count: u64) -> Option<u64> {
        self.chunk_ordinal += 1;
        if first_index >= self.pos {
            // A gap means the records in between were destroyed.
            self.stats.records_skipped += first_index - self.pos;
            self.pos = first_index;
            Some(0)
        } else {
            let overlap = self.pos - first_index;
            self.stats.duplicate_chunks += 1;
            if overlap >= count {
                // Every record in this frame was already delivered.
                return None;
            }
            Some(overlap)
        }
    }

    /// Installs a freshly parsed chunk for per-record decoding.
    fn install_chunk(&mut self, first_index: u64, count: u64, payload: Vec<u8>) {
        let Some(discard) = self.reconcile_chunk(first_index, count) else {
            return;
        };
        self.payload_discard = discard;
        self.payload = io::Cursor::new(payload);
        self.payload_last_pc = 0;
        self.payload_remaining = count;
    }

    /// Refills the internal batch with the next decoded block.
    ///
    /// `Ok(true)` means there is something to serve — batched records, a
    /// pending fault, or both; `Ok(false)` is a clean end of stream.
    fn refill_batch(&mut self) -> Result<bool, TraceError> {
        self.batch_pos = 0;
        let mut batch = std::mem::take(&mut self.batch);
        batch.clear();
        let result = self.refill_into(&mut batch);
        self.batch = batch;
        result
    }

    /// Decodes the next block straight into `out`, the shared engine
    /// behind both the iterator's internal batch and
    /// [`TraceReader::read_block`]'s caller-owned buffer. The caller
    /// accounts the appended records into `delivered`; a fault lands in
    /// `pending_err`, indexed past whatever this refill appended.
    fn refill_into(&mut self, out: &mut Vec<TraceRecord>) -> Result<bool, TraceError> {
        let base = out.len();
        if self.version == VERSION_V1 {
            self.refill_v1(out, base)
        } else {
            self.refill_v2(out, base)
        }
    }

    /// v1 block decode: buffer a large run of input and decode records
    /// straight out of the slice until the batch fills or the safe region
    /// runs out.
    fn refill_v1(&mut self, out: &mut Vec<TraceRecord>, base: usize) -> Result<bool, TraceError> {
        loop {
            self.check_budgets()?;
            let avail = self
                .input
                .fill_to(V1_FILL_BYTES)
                .map_err(|e| self.error(TraceErrorKind::Io(e)))?;
            if avail == 0 {
                return Ok(out.len() > base);
            }
            let at_eof = self.input.eof;
            let bytes = self.input.buffered();
            // Decode only records that provably fit in the buffer: stop
            // MAX_RECORD_LEN short of the end of a non-final buffer, so
            // a decode fault can only mean corruption, never a partial
            // refill.
            let stop = if at_eof {
                bytes.len()
            } else {
                bytes.len() - MAX_RECORD_LEN
            };
            let mut pos = 0usize;
            let mut fault = None;
            let mut clean_end = false;
            while out.len() - base < BATCH_RECORDS && pos < stop {
                let before = pos;
                let decoded = if self.swar {
                    decode_record_slice_swar(bytes, &mut pos, &mut self.last_pc)
                } else {
                    decode_record_slice(bytes, &mut pos, &mut self.last_pc)
                };
                match decoded {
                    Ok(Some(record)) => out.push(record),
                    Ok(None) => {
                        // At most one dangling byte at end of input: the
                        // stream ends cleanly at a record boundary, as
                        // the per-record decoder treats it.
                        clean_end = true;
                        pos = bytes.len();
                        break;
                    }
                    Err(e) => {
                        pos = before;
                        fault = Some(e);
                        break;
                    }
                }
            }
            self.input.consume(pos);
            if let Some(e) = fault {
                let index = self.delivered + (out.len() - base) as u64;
                self.pending_err = Some(self.error_at(io_to_kind(e), index));
                return Ok(true);
            }
            if out.len() - base >= BATCH_RECORDS || clean_end {
                return Ok(out.len() > base);
            }
            // Everything safe to decode was decoded: buffer more input.
        }
    }

    /// v2 block decode: parse the next CRC-valid chunk and decode its
    /// whole payload in place — straight out of the stream buffer, no
    /// copy — into the batch.
    fn refill_v2(&mut self, out: &mut Vec<TraceRecord>, base: usize) -> Result<bool, TraceError> {
        loop {
            let parsed = match self.try_parse_chunk() {
                Ok(parsed) => parsed,
                Err(e) => return Err(self.error(TraceErrorKind::Io(e))),
            };
            match parsed {
                ChunkParse::Chunk {
                    first_index,
                    count,
                    header_len,
                    frame_len,
                } => {
                    let Some(discard) = self.reconcile_chunk(first_index, count) else {
                        self.input.consume(frame_len);
                        continue;
                    };
                    let payload = &self.input.buffered()[header_len..frame_len];
                    let outcome = decode_chunk_payload(payload, count, discard, out, self.swar);
                    self.input.consume(frame_len);
                    self.pos += outcome.delivered;
                    let Some(fault) = outcome.fault else {
                        return Ok(true);
                    };
                    // A CRC-valid chunk that does not decode (possible
                    // only under checksum collision): count the declared
                    // remainder as lost.
                    let kind = match fault {
                        ChunkFault::Short => TraceErrorKind::Corrupt(
                            "chunk payload shorter than its record count".into(),
                        ),
                        ChunkFault::Bad(e) => io_to_kind(e),
                    };
                    if !self.recover {
                        let index = self.delivered + (out.len() - base) as u64;
                        self.pending_err = Some(self.error_at(kind, index));
                        return Ok(true);
                    }
                    let remaining = count - outcome.decoded;
                    let discard_left = discard.saturating_sub(outcome.decoded);
                    let lost = remaining - discard_left.min(remaining);
                    self.stats.records_skipped += lost;
                    self.pos += lost;
                    if out.len() > base {
                        return Ok(true);
                    }
                }
                ChunkParse::Trailer { total } => {
                    self.total_written = Some(total);
                    if total > self.pos {
                        // The tail before the trailer was destroyed.
                        self.stats.records_skipped += total - self.pos;
                        self.pos = total;
                    }
                    return Ok(false);
                }
                ChunkParse::End => {
                    if self.recover {
                        // Truncated before the trailer: the tail loss is
                        // unknowable, so it is not counted.
                        return Ok(false);
                    }
                    return Err(self.error(TraceErrorKind::Truncated));
                }
                ChunkParse::Truncated => {
                    if self.recover {
                        self.resync_or_fail()?;
                        continue;
                    }
                    return Err(self.error(TraceErrorKind::Truncated));
                }
                ChunkParse::BadSync => {
                    if self.recover {
                        self.resync_or_fail()?;
                        continue;
                    }
                    return Err(
                        self.error(TraceErrorKind::Corrupt("expected chunk sync marker".into()))
                    );
                }
                ChunkParse::BadHeader(what) => {
                    if self.recover {
                        self.resync_or_fail()?;
                        continue;
                    }
                    return Err(
                        self.error(TraceErrorKind::Corrupt(format!("bad chunk header: {what}")))
                    );
                }
                ChunkParse::BadCrc { stored, computed } => {
                    self.stats.chunks_skipped += 1;
                    if self.recover {
                        self.resync_or_fail()?;
                        continue;
                    }
                    return Err(self.error(TraceErrorKind::ChecksumMismatch { stored, computed }));
                }
                // Terminal even in recovery mode: limit violations are
                // policy rejections, not damage to scan past.
                ChunkParse::LimitExceeded(v) => {
                    return Err(self.error(TraceErrorKind::LimitExceeded(v)));
                }
            }
        }
    }

    /// v2: decode the next record, advancing through chunks as needed.
    fn next_v2(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        loop {
            while self.payload_remaining > 0 {
                match decode_record(&mut self.payload, &mut self.payload_last_pc) {
                    Ok(Some(record)) => {
                        self.payload_remaining -= 1;
                        if self.payload_discard > 0 {
                            self.payload_discard -= 1;
                            continue;
                        }
                        self.delivered += 1;
                        self.pos += 1;
                        self.stats.records_read += 1;
                        self.charge_delivered(1)?;
                        return Ok(Some(record));
                    }
                    // A CRC-valid chunk that does not decode (possible
                    // only under checksum collision): count the declared
                    // remainder as lost.
                    Ok(None) => {
                        let why = TraceErrorKind::Corrupt(
                            "chunk payload shorter than its record count".into(),
                        );
                        if !self.recover {
                            return Err(self.error(why));
                        }
                        let lost = self.payload_remaining
                            - self.payload_discard.min(self.payload_remaining);
                        self.stats.records_skipped += lost;
                        self.pos += lost;
                        self.payload_remaining = 0;
                        self.payload_discard = 0;
                    }
                    Err(e) => {
                        if !self.recover {
                            return Err(self.error(io_to_kind(e)));
                        }
                        let lost = self.payload_remaining
                            - self.payload_discard.min(self.payload_remaining);
                        self.stats.records_skipped += lost;
                        self.pos += lost;
                        self.payload_remaining = 0;
                        self.payload_discard = 0;
                    }
                }
            }
            let parsed = match self.try_parse_chunk() {
                Ok(parsed) => parsed,
                Err(e) => return Err(self.error(TraceErrorKind::Io(e))),
            };
            match parsed {
                ChunkParse::Chunk {
                    first_index,
                    count,
                    header_len,
                    frame_len,
                } => {
                    let payload = self.input.buffered()[header_len..frame_len].to_vec();
                    self.input.consume(frame_len);
                    self.install_chunk(first_index, count, payload);
                }
                ChunkParse::Trailer { total } => {
                    self.total_written = Some(total);
                    if total > self.pos {
                        // The tail before the trailer was destroyed.
                        self.stats.records_skipped += total - self.pos;
                        self.pos = total;
                    }
                    return Ok(None);
                }
                ChunkParse::End => {
                    if self.recover {
                        // Truncated before the trailer: the tail loss is
                        // unknowable, so it is not counted.
                        return Ok(None);
                    }
                    return Err(self.error(TraceErrorKind::Truncated));
                }
                ChunkParse::Truncated => {
                    if self.recover {
                        self.resync_or_fail()?;
                        continue;
                    }
                    return Err(self.error(TraceErrorKind::Truncated));
                }
                ChunkParse::BadSync => {
                    if self.recover {
                        self.resync_or_fail()?;
                        continue;
                    }
                    return Err(
                        self.error(TraceErrorKind::Corrupt("expected chunk sync marker".into()))
                    );
                }
                ChunkParse::BadHeader(what) => {
                    if self.recover {
                        self.resync_or_fail()?;
                        continue;
                    }
                    return Err(
                        self.error(TraceErrorKind::Corrupt(format!("bad chunk header: {what}")))
                    );
                }
                ChunkParse::BadCrc { stored, computed } => {
                    self.stats.chunks_skipped += 1;
                    if self.recover {
                        self.resync_or_fail()?;
                        continue;
                    }
                    return Err(self.error(TraceErrorKind::ChecksumMismatch { stored, computed }));
                }
                // Terminal even in recovery mode.
                ChunkParse::LimitExceeded(v) => {
                    return Err(self.error(TraceErrorKind::LimitExceeded(v)));
                }
            }
        }
    }

    fn resync_or_fail(&mut self) -> Result<(), TraceError> {
        self.resync()
    }
}

/// Maps low-level decode errors to trace error kinds.
fn io_to_kind(e: io::Error) -> TraceErrorKind {
    match e.kind() {
        io::ErrorKind::UnexpectedEof => TraceErrorKind::Truncated,
        io::ErrorKind::InvalidData => TraceErrorKind::Corrupt(e.to_string()),
        _ => TraceErrorKind::Io(e),
    }
}

/// Position of the first [`SYNC_MARKER`] in `bytes`, if any.
fn find_marker(bytes: &[u8]) -> Option<usize> {
    if bytes.len() < SYNC_MARKER.len() {
        return None;
    }
    let mut at = 0;
    while at + SYNC_MARKER.len() <= bytes.len() {
        match bytes[at..].iter().position(|&b| b == SYNC_MARKER[0]) {
            Some(i) => at += i,
            None => return None,
        }
        if at + SYNC_MARKER.len() > bytes.len() {
            return None;
        }
        if bytes[at..at + SYNC_MARKER.len()] == SYNC_MARKER {
            return Some(at);
        }
        at += 1;
    }
    None
}

/// One chunk frame located by [`scan_chunks`]: its byte span within the
/// stream plus the header fields needed to validate and decode it.
#[derive(Debug, Clone, Copy)]
pub struct ChunkSpan {
    /// Byte offset of the frame's sync marker from the start of the input.
    pub offset: usize,
    /// Bytes of framing (marker, header varints, CRC) before the payload.
    pub header_len: usize,
    /// Total frame length including the payload.
    pub frame_len: usize,
    /// Absolute index of the frame's first record.
    pub first_index: u64,
    /// Records in the frame.
    pub count: u64,
}

/// Structural map of a pristine v2 byte stream, produced by
/// [`scan_chunks`] without touching any payload byte.
#[derive(Debug, Clone)]
pub struct ChunkScan {
    /// Segment boundaries from the file header.
    pub segments: SegmentMap,
    /// Data chunks in stream order. CRCs are *not* yet verified.
    pub chunks: Vec<ChunkSpan>,
    /// Total records declared by the trailer.
    pub total: u64,
}

/// Walks the frame structure of a complete in-memory v2 stream — headers
/// only, payloads untouched, CRCs unverified — and returns the chunk map
/// if and only if the stream is *pristine*: well-formed header, every
/// frame contiguous, record indexes exactly consecutive with no gaps or
/// overlaps, and a trailer whose total matches, ending exactly at the end
/// of input.
///
/// Returns `None` for anything else (v1 streams, damage, truncation,
/// overlapping frames). This is the admission test for the parallel
/// whole-file decode: a pristine stream decodes embarrassingly parallel
/// (the pc-delta chain restarts every chunk), anything less falls back to
/// the sequential reader, which owns the error and recovery semantics.
pub fn scan_chunks(bytes: &[u8]) -> Option<ChunkScan> {
    let mut pos = 0usize;
    if bytes.len() < 5 || &bytes[..4] != MAGIC || bytes[4] != VERSION_V2 {
        return None;
    }
    pos += 5;
    let heap_base = read_varint_slice(bytes, &mut pos).ok()?;
    let stack_floor = read_varint_slice(bytes, &mut pos).ok()?;
    if heap_base > stack_floor {
        return None;
    }
    let segments = SegmentMap::new(heap_base, stack_floor);
    let mut chunks = Vec::new();
    let mut next_index = 0u64;
    loop {
        if bytes.len() - pos < SYNC_MARKER.len()
            || bytes[pos..pos + SYNC_MARKER.len()] != SYNC_MARKER
        {
            return None;
        }
        let offset = pos;
        let mut cursor = pos + SYNC_MARKER.len();
        let first_index = read_varint_slice(bytes, &mut cursor).ok()?;
        let count = read_varint_slice(bytes, &mut cursor).ok()?;
        let payload_len = read_varint_slice(bytes, &mut cursor).ok()?;
        if payload_len > MAX_PAYLOAD_LEN {
            return None;
        }
        // CRC bytes follow the varints.
        if bytes.len() - cursor < 4 {
            return None;
        }
        let header_len = cursor + 4 - offset;
        let frame_len = header_len + payload_len as usize;
        if bytes.len() - offset < frame_len {
            return None;
        }
        if count == 0 {
            // Trailer: must declare exactly the records seen and end the
            // stream exactly.
            if payload_len != 0 || first_index != next_index || offset + frame_len != bytes.len() {
                return None;
            }
            return Some(ChunkScan {
                segments,
                chunks,
                total: next_index,
            });
        }
        if first_index != next_index || count.saturating_mul(3) > payload_len {
            return None;
        }
        next_index += count;
        chunks.push(ChunkSpan {
            offset,
            header_len,
            frame_len,
            first_index,
            count,
        });
        pos = offset + frame_len;
    }
}

/// CRC-checks and decodes one [`ChunkSpan`] out of `bytes` into `out`,
/// which holds exactly `count` records' worth of slots. Returns `false` on
/// a CRC mismatch, a payload that does not decode to `count` records, or
/// an `out` of the wrong length — the caller must then fall back to the
/// sequential reader for exact fault semantics.
pub fn decode_span(bytes: &[u8], span: &ChunkSpan, out: &mut [TraceRecord]) -> bool {
    let Some(frame) = bytes.get(span.offset..span.offset + span.frame_len) else {
        return false;
    };
    if out.len() as u64 != span.count {
        return false;
    }
    let varints = &frame[SYNC_MARKER.len()..span.header_len - 4];
    let mut stored = [0u8; 4];
    stored.copy_from_slice(&frame[span.header_len - 4..span.header_len]);
    let stored = u32::from_le_bytes(stored);
    let payload = &frame[span.header_len..];
    let mut crc = Crc32::new();
    crc.update(varints);
    crc.update(payload);
    if crc.finish() != stored {
        return false;
    }
    // The pc-delta chain restarts at every chunk.
    let (mut pos, mut last_pc) = (0usize, 0u64);
    out.iter_mut().all(
        |slot| match decode_record_slice_swar(payload, &mut pos, &mut last_pc) {
            Ok(Some(record)) => {
                *slot = record;
                true
            }
            _ => false,
        },
    )
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Result<TraceRecord, TraceError>> {
        if self.done {
            return None;
        }
        if self.batched {
            loop {
                if self.batch_pos < self.batch.len() {
                    let record = self.batch[self.batch_pos];
                    self.batch_pos += 1;
                    self.delivered += 1;
                    self.stats.records_read += 1;
                    if let Err(e) = self.charge_delivered(1) {
                        self.done = true;
                        return Some(Err(e));
                    }
                    return Some(Ok(record));
                }
                if let Some(e) = self.pending_err.take() {
                    self.done = true;
                    return Some(Err(e));
                }
                match self.refill_batch() {
                    Ok(true) => {}
                    Ok(false) => {
                        self.done = true;
                        return None;
                    }
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                }
            }
        }
        let next = if self.version == VERSION_V1 {
            self.next_v1()
        } else {
            self.next_v2()
        };
        match next {
            Ok(Some(record)) => Some(Ok(record)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TraceErrorKind;
    use crate::synthetic;

    fn encode(records: &[TraceRecord], segments: SegmentMap) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut writer = TraceWriter::new(&mut buf, segments).unwrap();
        for r in records {
            writer.write_record(r).unwrap();
        }
        let written = writer.finish().unwrap();
        assert_eq!(written, records.len() as u64);
        buf
    }

    fn round_trip(records: &[TraceRecord], segments: SegmentMap) -> Vec<TraceRecord> {
        let buf = encode(records, segments);
        let reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.segment_map(), segments);
        reader.map(|r| r.unwrap()).collect()
    }

    #[test]
    fn figure1_round_trips() {
        let records = synthetic::figure1();
        assert_eq!(round_trip(&records, SegmentMap::all_data()), records);
    }

    #[test]
    fn random_trace_round_trips() {
        let records = synthetic::random_trace(500, 42);
        let segments = SegmentMap::new(64, 1 << 20);
        assert_eq!(round_trip(&records, segments), records);
    }

    #[test]
    fn empty_trace_round_trips() {
        assert!(round_trip(&[], SegmentMap::all_data()).is_empty());
    }

    #[test]
    fn into_shared_decodes_once_into_an_arena_slice() {
        let records = synthetic::random_trace(300, 11);
        let segments = SegmentMap::new(64, 1 << 20);
        let buf = encode(&records, segments);
        let reader = TraceReader::new(buf.as_slice()).unwrap();
        let (shared, got_segments) = reader.into_shared().unwrap();
        assert_eq!(got_segments, segments);
        assert_eq!(&shared[..], &records[..]);
        // Shared handles alias the same allocation — the arena contract.
        let other = Arc::clone(&shared);
        assert!(std::ptr::eq(other.as_ptr(), shared.as_ptr()));
    }

    #[test]
    fn into_shared_surfaces_decode_faults() {
        let records = synthetic::random_trace(200, 13);
        let mut buf = encode(&records, SegmentMap::all_data());
        let mid = buf.len() / 2;
        buf[mid] ^= 0x20;
        let reader = TraceReader::new(buf.as_slice()).unwrap();
        assert!(reader.into_shared().is_err(), "corruption must surface");
    }

    #[test]
    fn multi_chunk_trace_round_trips() {
        let records = synthetic::random_trace(1000, 7);
        let mut buf = Vec::new();
        let mut writer =
            TraceWriter::with_chunk_records(&mut buf, SegmentMap::all_data(), 64).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let got: Vec<_> = reader.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(got, records);
        assert_eq!(reader.records_written(), Some(1000));
        assert_eq!(reader.recovery_stats().records_read, 1000);
        assert_eq!(reader.recovery_stats().records_skipped, 0);
    }

    #[test]
    fn v1_streams_remain_readable() {
        let records = synthetic::random_trace(300, 9);
        let segments = SegmentMap::new(64, 1 << 20);
        let mut buf = Vec::new();
        let mut writer = TraceWriter::v1(&mut buf, segments).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        assert_eq!(writer.finish().unwrap(), 300);
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.version(), 1);
        assert_eq!(reader.segment_map(), segments);
        let got: Vec<_> = reader.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(got, records);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = TraceReader::new(&b"NOPE\x01xxxx"[..]).unwrap_err();
        assert!(matches!(err.kind(), TraceErrorKind::BadMagic(m) if m == b"NOPE"));
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(99);
        buf.extend_from_slice(&[0, 0]);
        let err = TraceReader::new(buf.as_slice()).unwrap_err();
        assert!(matches!(err.kind(), TraceErrorKind::UnsupportedVersion(99)));
    }

    #[test]
    fn truncated_record_reports_eof_error() {
        let mut buf = Vec::new();
        let mut writer = TraceWriter::new(&mut buf, SegmentMap::all_data()).unwrap();
        writer
            .write_record(&TraceRecord::compute(
                0,
                OpClass::IntAlu,
                &[Loc::int(1)],
                Loc::int(2),
            ))
            .unwrap();
        writer.finish().unwrap();
        // Cut into the middle of the (only) data chunk.
        buf.truncate(buf.len() - 18);
        let reader = TraceReader::new(buf.as_slice()).unwrap();
        let results: Vec<_> = reader.collect();
        assert_eq!(results.len(), 1);
        let err = results[0].as_ref().unwrap_err();
        assert!(
            matches!(err.kind(), TraceErrorKind::Truncated),
            "kind: {err}"
        );
        // The error names the position: past the 7-byte header, no records
        // decoded yet, inside the first chunk.
        assert!(err.byte_offset() >= 7, "offset {}", err.byte_offset());
        assert_eq!(err.record_index(), 0);
        assert_eq!(err.chunk(), Some(0));
    }

    #[test]
    fn corrupt_chunk_fails_strict_reads_with_checksum_context() {
        let records = synthetic::random_trace(200, 3);
        let mut buf = Vec::new();
        let mut writer =
            TraceWriter::with_chunk_records(&mut buf, SegmentMap::all_data(), 64).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        // Flip a byte inside the second chunk's payload.
        let marker_positions: Vec<usize> = (0..buf.len())
            .filter(|&i| buf[i..].starts_with(&SYNC_MARKER))
            .collect();
        assert!(marker_positions.len() >= 3);
        buf[marker_positions[1] + 40] ^= 0x10;
        let reader = TraceReader::new(buf.as_slice()).unwrap();
        let results: Vec<_> = reader.collect();
        let err = results.last().unwrap().as_ref().unwrap_err();
        assert!(
            matches!(err.kind(), TraceErrorKind::ChecksumMismatch { .. }),
            "kind: {err}"
        );
        assert_eq!(err.record_index(), 64);
        assert_eq!(err.chunk(), Some(1));
        // 64 good records were delivered before the fault.
        assert_eq!(results.len(), 65);
        assert!(results[..64].iter().all(|r| r.is_ok()));
    }

    #[test]
    fn recovery_skips_a_corrupt_chunk_and_counts_the_loss() {
        let records = synthetic::random_trace(256, 5);
        let mut buf = Vec::new();
        let mut writer =
            TraceWriter::with_chunk_records(&mut buf, SegmentMap::all_data(), 64).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        let marker_positions: Vec<usize> = (0..buf.len())
            .filter(|&i| buf[i..].starts_with(&SYNC_MARKER))
            .collect();
        // Corrupt the second of four data chunks.
        buf[marker_positions[1] + 30] ^= 0xff;
        let mut reader = TraceReader::with_recovery(buf.as_slice()).unwrap();
        let got: Vec<_> = reader.by_ref().map(|r| r.unwrap()).collect();
        let stats = reader.recovery_stats();
        assert_eq!(stats.records_read, 192);
        assert_eq!(stats.records_skipped, 64);
        assert_eq!(stats.chunks_skipped, 1);
        assert!(stats.resyncs >= 1);
        // The surviving records are exactly the other three chunks.
        let expected: Vec<_> = records[..64]
            .iter()
            .chain(&records[128..])
            .cloned()
            .collect();
        assert_eq!(got, expected);
        assert_eq!(reader.records_written(), Some(256));
    }

    #[test]
    fn recovery_counts_a_destroyed_tail_via_the_trailer() {
        let records = synthetic::random_trace(128, 11);
        let mut buf = Vec::new();
        let mut writer =
            TraceWriter::with_chunk_records(&mut buf, SegmentMap::all_data(), 64).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        let marker_positions: Vec<usize> = (0..buf.len())
            .filter(|&i| buf[i..].starts_with(&SYNC_MARKER))
            .collect();
        // Destroy the last data chunk (between the last two markers).
        for b in &mut buf[marker_positions[1]..marker_positions[2]] {
            *b = 0x00;
        }
        let mut reader = TraceReader::with_recovery(buf.as_slice()).unwrap();
        let got: Vec<_> = reader.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(got, records[..64]);
        let stats = reader.recovery_stats();
        assert_eq!(stats.records_read, 64);
        assert_eq!(stats.records_skipped, 64);
    }

    #[test]
    fn recovery_drops_duplicated_chunks() {
        let records = synthetic::random_trace(128, 13);
        let mut buf = Vec::new();
        let mut writer =
            TraceWriter::with_chunk_records(&mut buf, SegmentMap::all_data(), 64).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        let marker_positions: Vec<usize> = (0..buf.len())
            .filter(|&i| buf[i..].starts_with(&SYNC_MARKER))
            .collect();
        // Duplicate the first data chunk in place.
        let first_chunk = buf[marker_positions[0]..marker_positions[1]].to_vec();
        let mut mutated = buf[..marker_positions[1]].to_vec();
        mutated.extend_from_slice(&first_chunk);
        mutated.extend_from_slice(&buf[marker_positions[1]..]);
        let mut reader = TraceReader::with_recovery(mutated.as_slice()).unwrap();
        let got: Vec<_> = reader.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(got, records);
        let stats = reader.recovery_stats();
        assert_eq!(stats.duplicate_chunks, 1);
        assert_eq!(stats.records_skipped, 0);
    }

    #[test]
    fn recovery_of_a_clean_stream_is_lossless() {
        let records = synthetic::random_trace(500, 17);
        let buf = encode(&records, SegmentMap::all_data());
        let mut reader = TraceReader::with_recovery(buf.as_slice()).unwrap();
        let got: Vec<_> = reader.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(got, records);
        assert_eq!(
            reader.recovery_stats(),
            RecoveryStats {
                records_read: 500,
                ..RecoveryStats::default()
            }
        );
    }

    #[test]
    fn strict_reader_reports_missing_trailer() {
        let records = synthetic::random_trace(64, 19);
        let mut buf = Vec::new();
        let mut writer =
            TraceWriter::with_chunk_records(&mut buf, SegmentMap::all_data(), 64).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        let marker_positions: Vec<usize> = (0..buf.len())
            .filter(|&i| buf[i..].starts_with(&SYNC_MARKER))
            .collect();
        // Drop the trailer entirely.
        buf.truncate(*marker_positions.last().unwrap());
        let reader = TraceReader::new(buf.as_slice()).unwrap();
        let results: Vec<_> = reader.collect();
        assert_eq!(results.len(), 65);
        assert!(matches!(
            results[64].as_ref().unwrap_err().kind(),
            TraceErrorKind::Truncated
        ));
    }

    /// Drains a reader in place, returning delivered records and the
    /// terminal fault (if any). Stats stay readable on the reader.
    fn drain<R: io::Read>(reader: &mut TraceReader<R>) -> (Vec<TraceRecord>, Option<TraceError>) {
        let mut records = Vec::new();
        for item in reader.by_ref() {
            match item {
                Ok(r) => records.push(r),
                Err(e) => return (records, Some(e)),
            }
        }
        (records, None)
    }

    /// The SWAR block decoder, the scalar block decoder, and the legacy
    /// per-record decoder must agree on everything observable: records,
    /// fault kind/position, and stats.
    fn assert_paths_agree(bytes: &[u8], recover: bool) {
        let open = || {
            if recover {
                TraceReader::with_recovery(bytes)
            } else {
                TraceReader::new(bytes)
            }
        };
        // Header validation runs before the decode paths diverge; a
        // stream that does not open has nothing to compare.
        let (Ok(mut batched), Ok(scalar), Ok(legacy)) = (open(), open(), open()) else {
            assert!(open().is_err(), "open must fail deterministically");
            return;
        };
        let mut scalar = scalar.with_scalar_block_decode();
        let mut legacy = legacy.with_per_record_decode();
        let (b_records, b_err) = drain(&mut batched);
        let (s_records, s_err) = drain(&mut scalar);
        let (l_records, l_err) = drain(&mut legacy);
        assert_eq!(b_records, l_records, "decoded records diverge");
        assert_eq!(b_records, s_records, "SWAR and scalar records diverge");
        let check_faults = |a: &Option<TraceError>, b: &Option<TraceError>, what: &str| match (a, b)
        {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.byte_offset(), b.byte_offset(), "{what}: offsets diverge");
                assert_eq!(a.record_index(), b.record_index(), "{what}");
                assert_eq!(a.chunk(), b.chunk(), "{what}");
                assert_eq!(
                    std::mem::discriminant(a.kind()),
                    std::mem::discriminant(b.kind()),
                    "{what}"
                );
            }
            _ => panic!("{what}: fault disagreement: {a:?} vs {b:?}"),
        };
        check_faults(&b_err, &l_err, "batched vs legacy");
        check_faults(&b_err, &s_err, "SWAR vs scalar");
        assert_eq!(
            batched.recovery_stats(),
            legacy.recovery_stats(),
            "recovery accounting diverges"
        );
        assert_eq!(
            batched.recovery_stats(),
            scalar.recovery_stats(),
            "SWAR/scalar recovery accounting diverges"
        );
        assert_eq!(batched.records_written(), legacy.records_written());
        assert_eq!(batched.records_written(), scalar.records_written());
    }

    #[test]
    fn block_and_per_record_decode_agree_on_clean_streams() {
        let records = synthetic::random_trace(1000, 23);
        let segments = SegmentMap::new(64, 1 << 20);
        // v2 across chunk sizes (incl. ones that straddle batch edges).
        for chunk in [1, 7, 64, 4096] {
            let mut buf = Vec::new();
            let mut writer = TraceWriter::with_chunk_records(&mut buf, segments, chunk).unwrap();
            for r in &records {
                writer.write_record(r).unwrap();
            }
            writer.finish().unwrap();
            assert_paths_agree(&buf, false);
            assert_paths_agree(&buf, true);
        }
        // v1.
        let mut buf = Vec::new();
        let mut writer = TraceWriter::v1(&mut buf, segments).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        assert_paths_agree(&buf, false);
        assert_paths_agree(&buf, true);
    }

    #[test]
    fn block_and_per_record_decode_agree_on_damaged_streams() {
        let records = synthetic::random_trace(600, 29);
        let mut clean = Vec::new();
        let mut writer =
            TraceWriter::with_chunk_records(&mut clean, SegmentMap::all_data(), 48).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        // A deterministic spread of single-byte corruptions and cuts.
        for step in [3usize, 17, 41, 97, 211] {
            let mut damaged = clean.clone();
            for i in (step..damaged.len()).step_by(251) {
                damaged[i] ^= 0x5a;
            }
            assert_paths_agree(&damaged, false);
            assert_paths_agree(&damaged, true);
            let cut = clean.len() * step % clean.len();
            assert_paths_agree(&clean[..cut], false);
            assert_paths_agree(&clean[..cut], true);
        }
    }

    #[test]
    fn block_and_per_record_decode_agree_on_truncated_v1() {
        let records = synthetic::random_trace(400, 31);
        let mut buf = Vec::new();
        let mut writer = TraceWriter::v1(&mut buf, SegmentMap::all_data()).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        for keep in [buf.len() / 3, buf.len() / 2, buf.len() - 1] {
            let cut = &buf[..keep];
            let (b_records, b_err) = drain(&mut TraceReader::new(cut).unwrap());
            let (l_records, l_err) =
                drain(&mut TraceReader::new(cut).unwrap().with_per_record_decode());
            assert_eq!(b_records, l_records);
            // Both must fault mid-record (or both end cleanly at a
            // record boundary); byte offsets may differ by at most the
            // partially-consumed record on the legacy path.
            assert_eq!(b_err.is_some(), l_err.is_some(), "cut at {keep}");
            if let (Some(b), Some(l)) = (&b_err, &l_err) {
                assert_eq!(b.record_index(), l.record_index());
                assert!(l.byte_offset() - b.byte_offset() < MAX_RECORD_LEN as u64);
            }
        }
    }

    #[test]
    fn zero_register_operands_on_the_wire_are_dropped_like_the_constructor_drops_them() {
        // No writer emits r0 operands, but a hand-made stream can: every
        // decode path must drop them exactly as `TraceRecord::new` does.
        let r0 = [TAG_INT, 0];
        let mut payload = Vec::new();
        // int-alu r0 r3 -> r0
        payload.extend_from_slice(&[OpClass::IntAlu.id(), 0x82, 0]);
        payload.extend_from_slice(&r0);
        payload.extend_from_slice(&[TAG_INT, 3]);
        payload.extend_from_slice(&r0);
        // load r0 m:8 r5 -> r0, at the next pc
        payload.extend_from_slice(&[OpClass::Load.id(), 0x83, 2]);
        payload.extend_from_slice(&r0);
        payload.extend_from_slice(&[TAG_MEM, 8, TAG_INT, 5]);
        payload.extend_from_slice(&r0);
        let mut bytes = v2_header();
        write_chunk_frame(&mut bytes, 0, 2, &payload).unwrap();
        write_chunk_frame(&mut bytes, 2, 0, &[]).unwrap();
        let expected = vec![
            TraceRecord::new(
                0,
                OpClass::IntAlu,
                &[Loc::int(0), Loc::int(3)],
                Some(Loc::int(0)),
            ),
            TraceRecord::new(
                1,
                OpClass::Load,
                &[Loc::int(0), Loc::mem(8), Loc::int(5)],
                Some(Loc::int(0)),
            ),
        ];
        assert_eq!(*expected[1].srcs(), [Loc::mem(8), Loc::int(5)]);
        assert_paths_agree(&bytes, false);
        let (records, fault) = drain(&mut TraceReader::new(bytes.as_slice()).unwrap());
        assert!(fault.is_none(), "{fault:?}");
        assert_eq!(records, expected);
    }

    #[test]
    fn read_block_delivers_whole_chunks_and_then_the_fault() {
        let records = synthetic::random_trace(200, 3);
        let mut buf = Vec::new();
        let mut writer =
            TraceWriter::with_chunk_records(&mut buf, SegmentMap::all_data(), 64).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        let marker_positions: Vec<usize> = (0..buf.len())
            .filter(|&i| buf[i..].starts_with(&SYNC_MARKER))
            .collect();
        buf[marker_positions[1] + 40] ^= 0x10;
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut block = Vec::new();
        let n = reader.read_block(&mut block).unwrap();
        assert_eq!(n, 64, "first chunk delivered intact");
        assert_eq!(block, records[..64]);
        assert_eq!(reader.records_read(), 64);
        let err = reader.read_block(&mut block).unwrap_err();
        assert!(matches!(
            err.kind(),
            TraceErrorKind::ChecksumMismatch { .. }
        ));
        assert_eq!(err.record_index(), 64);
        // The reader is finished after the fault.
        assert_eq!(reader.read_block(&mut block).unwrap(), 0);
    }

    #[test]
    fn read_block_and_iterator_share_one_cursor() {
        let records = synthetic::random_trace(150, 37);
        let mut buf = Vec::new();
        let mut writer =
            TraceWriter::with_chunk_records(&mut buf, SegmentMap::all_data(), 64).unwrap();
        for r in &records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let first = reader.by_ref().next().unwrap().unwrap();
        assert_eq!(first, records[0]);
        let mut rest = Vec::new();
        while reader.read_block(&mut rest).unwrap() > 0 {}
        assert_eq!(rest, records[1..]);
        assert_eq!(reader.records_read(), 150);
    }

    #[test]
    fn find_marker_locates_embedded_markers() {
        let mut bytes = vec![0xa5u8; 20];
        assert_eq!(find_marker(&bytes), None);
        bytes.extend_from_slice(&SYNC_MARKER);
        assert_eq!(find_marker(&bytes), Some(20));
        assert_eq!(find_marker(&SYNC_MARKER), Some(0));
        assert_eq!(find_marker(&SYNC_MARKER[..7]), None);
    }

    // ---- resource governor ------------------------------------------------

    use crate::govern::Limits;

    /// A bare v2 stream header (magic, version, all-data segment bounds).
    fn v2_header() -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION_V2);
        let _ = write_varint(&mut buf, 0);
        let _ = write_varint(&mut buf, 0);
        buf
    }

    /// A chunk header that *declares* `payload_len` bytes without
    /// supplying them — the adversarial shape the governor must reject
    /// before buffering.
    fn declared_frame(count: u64, payload_len: u64) -> Vec<u8> {
        let mut buf = v2_header();
        buf.extend_from_slice(&SYNC_MARKER);
        let _ = write_varint(&mut buf, 0);
        let _ = write_varint(&mut buf, count);
        let _ = write_varint(&mut buf, payload_len);
        buf.extend_from_slice(&[0u8; 4]); // CRC: never reached
        buf
    }

    #[test]
    fn governor_rejects_declared_payload_before_buffering() {
        let buf = declared_frame(4096, 1 << 24);
        let limits = Limits {
            max_declared_len: 1 << 16,
            ..Limits::default()
        };
        for strict in [true, false] {
            let reader = if strict {
                TraceReader::new(buf.as_slice())
            } else {
                // Terminal even in recovery mode: never resynced past.
                TraceReader::with_recovery(buf.as_slice())
            };
            let mut reader = reader.unwrap().with_governor(ResourceGovernor::new(limits));
            let err = reader.read_block(&mut Vec::new()).unwrap_err();
            let v = err.limit_violation().expect("limit violation");
            assert_eq!(v.limit, "max-declared-len");
            assert_eq!(v.actual, 1 << 24);
            assert!(!err.is_corruption());
            assert_eq!(
                reader.governor().peak_alloc(),
                0,
                "nothing may be allocated for a rejected declaration"
            );
            // The reader is done; it does not limp on.
            assert_eq!(reader.read_block(&mut Vec::new()).unwrap(), 0);
        }
    }

    #[test]
    fn governor_alloc_cap_rejects_a_frame_past_the_budget() {
        // Declared length passes, but the frame allocation would not.
        let buf = declared_frame(64, 1 << 14);
        let limits = Limits {
            max_declared_len: 1 << 20,
            max_alloc_bytes: 1 << 10,
            ..Limits::default()
        };
        let mut reader = TraceReader::new(buf.as_slice())
            .unwrap()
            .with_governor(ResourceGovernor::new(limits));
        let err = reader.read_block(&mut Vec::new()).unwrap_err();
        let v = err.limit_violation().expect("limit violation");
        assert_eq!(v.limit, "max-alloc-bytes");
        assert_eq!(reader.governor().peak_alloc(), 0);
    }

    #[test]
    fn governor_bounds_resync_scanning() {
        // A recovery reader facing a long markerless garbage region scans
        // for a sync marker; the decode-byte budget bounds that scan.
        let mut buf = v2_header();
        buf.extend_from_slice(&vec![0x42u8; 256 * 1024]);
        let limits = Limits {
            max_decode_bytes: 4096,
            ..Limits::default()
        };
        let mut reader = TraceReader::with_recovery(buf.as_slice())
            .unwrap()
            .with_governor(ResourceGovernor::new(limits));
        let err = reader.read_block(&mut Vec::new()).unwrap_err();
        let v = err.limit_violation().expect("limit violation");
        assert_eq!(v.limit, "max-decode-bytes");
        assert!(
            reader.bytes_read() < 64 * 1024,
            "scan must stop near the budget, read {}",
            reader.bytes_read()
        );
    }

    #[test]
    fn governor_record_budget_stops_delivery() {
        let records = synthetic::random_trace(500, 9);
        let buf = encode(&records, SegmentMap::all_data());
        let limits = Limits {
            max_records: 100,
            ..Limits::default()
        };
        // Block path.
        let mut reader = TraceReader::new(buf.as_slice())
            .unwrap()
            .with_governor(ResourceGovernor::new(limits));
        let mut out = Vec::new();
        let err = loop {
            match reader.read_block(&mut out) {
                Ok(0) => panic!("must trip the record budget"),
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        assert_eq!(err.limit_violation().unwrap().limit, "max-records");
        // Per-record oracle path agrees.
        let mut reader = TraceReader::new(buf.as_slice())
            .unwrap()
            .with_governor(ResourceGovernor::new(limits))
            .with_per_record_decode();
        let (read, err) = drain(&mut reader);
        assert_eq!(read.len(), 100, "exactly the budget is delivered");
        let err = err.expect("per-record path must also trip");
        assert_eq!(err.limit_violation().unwrap().limit, "max-records");
    }

    #[test]
    fn governor_deadline_trips_on_the_reader() {
        let records = synthetic::random_trace(50, 3);
        let buf = encode(&records, SegmentMap::all_data());
        let limits = Limits {
            deadline: Some(std::time::Duration::ZERO),
            ..Limits::default()
        };
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut reader = TraceReader::new(buf.as_slice())
            .unwrap()
            .with_governor(ResourceGovernor::new(limits));
        let err = reader.read_block(&mut Vec::new()).unwrap_err();
        assert_eq!(err.limit_violation().unwrap().limit, "deadline");
    }

    #[test]
    fn governed_clean_reads_are_unaffected_and_track_peak_alloc() {
        let records = synthetic::random_trace(500, 21);
        let segments = SegmentMap::new(64, 1 << 20);
        let buf = encode(&records, segments);
        let mut reader = TraceReader::new(buf.as_slice())
            .unwrap()
            .with_governor(ResourceGovernor::new(Limits::strict()));
        let mut out = Vec::new();
        while reader.read_block(&mut out).unwrap() > 0 {}
        assert_eq!(out, records);
        let gov = reader.governor();
        assert!(gov.peak_alloc() > 0);
        assert!(gov.peak_alloc() <= gov.limits().max_alloc_bytes);
        assert_eq!(gov.records(), records.len() as u64);
    }
}
