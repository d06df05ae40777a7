//! Trace input sources and the decode-ahead pipeline.
//!
//! Two backends feed the [`TraceReader`]:
//!
//! * **Buffered** — a boxed [`Read`] (typically `BufReader<File>`), pulled
//!   through the reader's internal byte buffer exactly as before.
//! * **Mapped / in-memory** — the entire input resident as one
//!   [`SharedBytes`] region (an `mmap(2)` of the file, or owned bytes), so
//!   chunk payloads are CRC-validated and decoded straight out of the page
//!   cache with zero copies into a read buffer.
//!
//! Both backends run the *same* reader code: governor accounting, CRC
//! validation, resync recovery, and `--recover` semantics are identical —
//! the only difference is where `buffered()` bytes live. The differential
//! suites in `tests/` hold the two backends to byte-identical outcomes.
//!
//! On top of a reader, [`DecodeAhead`] runs the decode on a helper thread
//! with a bounded two-slot channel, so chunk N+1 is CRC-checked and
//! decoded while the analyzer consumes chunk N. And for pristine mapped
//! streams, [`decode_all_parallel`] fans whole-file decoding out across
//! threads (each chunk decodes independently: the pc-delta chain restarts
//! per chunk), falling back to the sequential reader on any anomaly.

use crate::binary::{decode_span, scan_chunks, ByteStream, RecoveryStats, TraceReader};
use crate::error::TraceError;
use crate::govern::Limits;
use crate::record::TraceRecord;
use crate::segment::SegmentMap;
use paragraph_isa::OpClass;
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};
use std::sync::Arc;

/// A cheaply cloneable, thread-shareable immutable byte region: a mapped
/// file or an owned buffer.
#[derive(Clone)]
pub struct SharedBytes(Arc<dyn AsRef<[u8]> + Send + Sync>);

impl SharedBytes {
    /// Wraps an owned buffer.
    pub fn from_vec(bytes: Vec<u8>) -> SharedBytes {
        SharedBytes(Arc::new(bytes))
    }

    /// Memory-maps `file` read-only in its entirety.
    ///
    /// # Errors
    ///
    /// Propagates `mmap(2)` failures (e.g. the input is a pipe).
    pub fn map_file(file: &File) -> io::Result<SharedBytes> {
        Ok(SharedBytes(Arc::new(mmap_lite::Mmap::map(file)?)))
    }
}

impl std::ops::Deref for SharedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        (*self.0).as_ref()
    }
}

impl std::fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBytes")
            .field("len", &self.len())
            .finish()
    }
}

/// Which backend a [`TraceSource`] reads through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceBackend {
    /// Streaming reads through a buffered reader.
    Buffered,
    /// Zero-copy reads out of a memory-mapped file.
    Mapped,
    /// Zero-copy reads out of an owned in-memory buffer.
    Memory,
}

enum Inner {
    Reader(Box<dyn Read + Send>),
    Bytes { bytes: SharedBytes, pos: usize },
}

/// A trace input: either a streaming reader or a whole-input byte region.
///
/// Construct with [`TraceSource::buffered_file`],
/// [`TraceSource::mapped_file`], [`TraceSource::auto_file`] (mmap with a
/// silent fallback to buffered), [`TraceSource::from_bytes`], or
/// [`TraceSource::from_reader`], then open it with
/// [`TraceReader::from_source`].
pub struct TraceSource {
    backend: SourceBackend,
    inner: Inner,
}

impl TraceSource {
    /// Opens `path` behind a `BufReader`.
    ///
    /// # Errors
    ///
    /// Propagates the `open(2)` failure.
    pub fn buffered_file(path: &Path) -> io::Result<TraceSource> {
        let file = File::open(path)?;
        Ok(TraceSource {
            backend: SourceBackend::Buffered,
            inner: Inner::Reader(Box::new(BufReader::new(file))),
        })
    }

    /// Memory-maps `path`.
    ///
    /// # Errors
    ///
    /// Propagates `open(2)`/`mmap(2)` failures (e.g. the path is a FIFO).
    pub fn mapped_file(path: &Path) -> io::Result<TraceSource> {
        let file = File::open(path)?;
        let bytes = SharedBytes::map_file(&file)?;
        Ok(TraceSource {
            backend: SourceBackend::Mapped,
            inner: Inner::Bytes { bytes, pos: 0 },
        })
    }

    /// Memory-maps `path` when possible, silently falling back to a
    /// buffered reader when the file cannot be mapped (FIFOs, exotic
    /// filesystems). Decode semantics are identical either way.
    ///
    /// # Errors
    ///
    /// Propagates the `open(2)` failure of the buffered fallback.
    pub fn auto_file(path: &Path) -> io::Result<TraceSource> {
        match TraceSource::mapped_file(path) {
            Ok(source) => Ok(source),
            Err(_) => TraceSource::buffered_file(path),
        }
    }

    /// Wraps an owned in-memory trace image (zero-copy decode).
    pub fn from_bytes(bytes: Vec<u8>) -> TraceSource {
        TraceSource {
            backend: SourceBackend::Memory,
            inner: Inner::Bytes {
                bytes: SharedBytes::from_vec(bytes),
                pos: 0,
            },
        }
    }

    /// Wraps an arbitrary streaming reader (stdin, sockets, test doubles).
    pub fn from_reader<R: Read + Send + 'static>(reader: R) -> TraceSource {
        TraceSource {
            backend: SourceBackend::Buffered,
            inner: Inner::Reader(Box::new(reader)),
        }
    }

    /// The backend this source reads through.
    pub fn backend(&self) -> SourceBackend {
        self.backend
    }

    /// The whole-input byte region, when this source has one (mapped or
    /// in-memory backends). Lets parallel consumers share the mapping.
    pub fn shared_bytes(&self) -> Option<SharedBytes> {
        match &self.inner {
            Inner::Bytes { bytes, .. } => Some(bytes.clone()),
            Inner::Reader(_) => None,
        }
    }
}

impl Read for TraceSource {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        match &mut self.inner {
            Inner::Reader(r) => r.read(out),
            Inner::Bytes { bytes, pos } => {
                let rest = &bytes[(*pos).min(bytes.len())..];
                let n = rest.len().min(out.len());
                out[..n].copy_from_slice(&rest[..n]);
                *pos += n;
                Ok(n)
            }
        }
    }
}

impl std::fmt::Debug for TraceSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSource")
            .field("backend", &self.backend)
            .finish()
    }
}

impl TraceReader<TraceSource> {
    /// Opens a reader over `source`; byte-region sources decode zero-copy.
    ///
    /// # Errors
    ///
    /// Same header-validation errors as [`TraceReader::new`].
    pub fn from_source(source: TraceSource) -> Result<TraceReader<TraceSource>, TraceError> {
        TraceReader::open_source(source, false)
    }

    /// Recovery-mode twin of [`TraceReader::from_source`]; see
    /// [`TraceReader::with_recovery`].
    ///
    /// # Errors
    ///
    /// Same header-validation errors as [`TraceReader::with_recovery`].
    pub fn from_source_with_recovery(
        source: TraceSource,
    ) -> Result<TraceReader<TraceSource>, TraceError> {
        TraceReader::open_source(source, true)
    }

    fn open_source(
        source: TraceSource,
        recover: bool,
    ) -> Result<TraceReader<TraceSource>, TraceError> {
        let slice = match &source.inner {
            // Zero-copy only from the start of the region; a consumed
            // source falls back to the generic `Read` path.
            Inner::Bytes { bytes, pos: 0 } => Some(bytes.clone()),
            _ => None,
        };
        let stream = match slice {
            Some(bytes) => ByteStream::with_slice(source, bytes),
            None => ByteStream::new(source),
        };
        TraceReader::open_stream(stream, recover)
    }
}

/// Progress callbacks from the decode-ahead helper thread. All events
/// fire *on the helper thread*, so observers can name it for the flight
/// recorder and open per-block timeline spans.
#[derive(Debug, Clone, Copy)]
pub enum DecodeEvent {
    /// The helper thread has started.
    ThreadStart,
    /// A block decode is about to begin.
    BlockStart,
    /// The block decode finished, having appended this many records.
    BlockEnd {
        /// Records decoded by the block (0 at end of stream).
        records: usize,
    },
}

/// Observer for [`DecodeEvent`]s.
pub type DecodeObserver = Box<dyn FnMut(DecodeEvent) + Send>;

/// Final reader state handed back by [`DecodeAhead::finish`] after the
/// helper thread exits — everything a driver reports about a decode.
#[derive(Debug, Clone, Copy)]
pub struct DecodeFinal {
    /// Damage tallies (all zero for a clean stream).
    pub stats: RecoveryStats,
    /// Total records the writer claims, if the trailer was reached.
    pub records_written: Option<u64>,
    /// Bytes consumed from the input.
    pub bytes_read: u64,
    /// Largest single allocation the governor authorized.
    pub peak_alloc: u64,
}

/// Bounded decode-ahead pipeline: a helper thread owns the reader and
/// keeps at most two decoded blocks in flight, so the consumer overlaps
/// analysis of block N with the CRC check and decode of block N+1.
///
/// The handoff protocol preserves fault ordering exactly: the helper
/// pushes blocks in stream order and a fault is queued *after* every
/// block decoded ahead of it, which is precisely where
/// [`TraceReader::read_block`] would surface it. Returned block buffers
/// should be handed back via [`DecodeAhead::recycle`] so steady state
/// allocates nothing.
pub struct DecodeAhead {
    rx: Receiver<Result<Vec<TraceRecord>, TraceError>>,
    recycle: Sender<Vec<TraceRecord>>,
    handle: std::thread::JoinHandle<DecodeFinal>,
    bytes: Arc<AtomicU64>,
}

impl DecodeAhead {
    /// Spawns the helper thread over `reader`.
    ///
    /// # Errors
    ///
    /// Propagates thread-spawn failure.
    pub fn spawn(
        mut reader: TraceReader<TraceSource>,
        mut observer: Option<DecodeObserver>,
    ) -> io::Result<DecodeAhead> {
        let (tx, rx) = sync_channel::<Result<Vec<TraceRecord>, TraceError>>(2);
        let (recycle_tx, recycle_rx) = channel::<Vec<TraceRecord>>();
        let bytes = Arc::new(AtomicU64::new(0));
        let consumed = Arc::clone(&bytes);
        let handle = std::thread::Builder::new()
            .name("decode-ahead".into())
            .spawn(move || {
                if let Some(obs) = observer.as_mut() {
                    obs(DecodeEvent::ThreadStart);
                }
                loop {
                    let mut batch = recycle_rx.try_recv().unwrap_or_default();
                    batch.clear();
                    if let Some(obs) = observer.as_mut() {
                        obs(DecodeEvent::BlockStart);
                    }
                    let outcome = reader.read_block(&mut batch);
                    consumed.store(reader.bytes_read(), Ordering::Relaxed);
                    if let Some(obs) = observer.as_mut() {
                        obs(DecodeEvent::BlockEnd {
                            records: batch.len(),
                        });
                    }
                    match outcome {
                        Ok(0) => break,
                        // A closed receiver means the consumer is done
                        // (dropped or finishing early): stop decoding.
                        Ok(_) => {
                            if tx.send(Ok(batch)).is_err() {
                                break;
                            }
                        }
                        Err(e) => {
                            let _ = tx.send(Err(e));
                            break;
                        }
                    }
                }
                DecodeFinal {
                    stats: reader.recovery_stats(),
                    records_written: reader.records_written(),
                    bytes_read: reader.bytes_read(),
                    peak_alloc: reader.governor().peak_alloc(),
                }
            })?;
        Ok(DecodeAhead {
            rx,
            recycle: recycle_tx,
            handle,
            bytes,
        })
    }

    /// The next decoded block, in stream order; `None` at a clean end of
    /// stream. A fault arrives here exactly once, after every block that
    /// was decoded ahead of it, and ends the stream.
    pub fn next_batch(&mut self) -> Option<Result<Vec<TraceRecord>, TraceError>> {
        self.rx.recv().ok()
    }

    /// Input bytes the helper thread has consumed so far: the bytes behind
    /// every block delivered, plus those of the blocks decoded ahead.
    pub fn bytes_read(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Hands a drained block buffer back for reuse.
    pub fn recycle(&self, batch: Vec<TraceRecord>) {
        let _ = self.recycle.send(batch);
    }

    /// Stops the pipeline and returns the reader's final state. Joins the
    /// helper thread; any panic on it is resumed here.
    pub fn finish(self) -> DecodeFinal {
        let DecodeAhead {
            rx,
            recycle,
            handle,
            ..
        } = self;
        // Closing the channels unblocks a helper mid-send.
        drop(rx);
        drop(recycle);
        match handle.join() {
            Ok(fin) => fin,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

/// Result of a successful [`decode_all_parallel`].
#[derive(Debug)]
pub struct ParallelDecode {
    /// Every record of the stream, in order.
    pub records: Vec<TraceRecord>,
    /// Segment boundaries from the file header.
    pub segments: SegmentMap,
    /// Total records declared by the trailer.
    pub total: u64,
    /// Size of the decoded stream in bytes.
    pub bytes: u64,
}

/// Mirror of the sequential reader's governor admission checks, run
/// against the structural scan. Any stream a governed sequential reader
/// might reject is declined here, so the caller's sequential fallback
/// owns the (identical) rejection.
fn admits(scan: &crate::binary::ChunkScan, stream_len: u64, limits: &Limits) -> bool {
    if limits.deadline.is_some() {
        // Wall-clock budgets need the sequential reader's bookkeeping.
        return false;
    }
    if stream_len > limits.max_decode_bytes || scan.total > limits.max_records {
        return false;
    }
    scan.chunks.iter().all(|c| {
        (c.frame_len as u64) <= limits.max_alloc_bytes
            && ((c.frame_len - c.header_len) as u64) <= limits.max_declared_len
            && c.count <= limits.max_declared_len
    })
}

/// Decodes a complete in-memory v2 stream across `jobs` threads, each
/// CRC-checking and decoding a contiguous run of chunks straight out of
/// the shared region into its own disjoint slice of the one output
/// vector; the scan's chunk record counts fix each slice up front.
///
/// Returns `None` — decode sequentially instead — unless the stream is
/// pristine (see [`scan_chunks`]) and within `limits`. On any CRC or
/// payload fault discovered by a worker the whole decode is abandoned and
/// `None` is returned, so error reporting and recovery accounting always
/// come from the sequential reader and are identical across paths.
pub fn decode_all_parallel(
    bytes: &SharedBytes,
    jobs: usize,
    limits: &Limits,
) -> Option<ParallelDecode> {
    let data: &[u8] = bytes;
    let scan = scan_chunks(data)?;
    if !admits(&scan, data.len() as u64, limits) {
        return None;
    }
    let jobs = jobs.max(1).min(scan.chunks.len().max(1));
    // Contiguous chunk ranges balanced by payload bytes, so one huge chunk
    // does not serialize the fan-out.
    let total_payload: usize = scan.chunks.iter().map(|c| c.frame_len - c.header_len).sum();
    let target = total_payload / jobs + 1;
    let mut groups: Vec<(usize, usize)> = Vec::with_capacity(jobs);
    let mut lo = 0usize;
    let mut acc = 0usize;
    for (i, c) in scan.chunks.iter().enumerate() {
        acc += c.frame_len - c.header_len;
        if acc >= target && groups.len() + 1 < jobs {
            groups.push((lo, i + 1));
            lo = i + 1;
            acc = 0;
        }
    }
    if lo < scan.chunks.len() {
        groups.push((lo, scan.chunks.len()));
    }
    let placeholder = TraceRecord::new(0, OpClass::Nop, &[], None);
    let mut records = vec![placeholder; usize::try_from(scan.total).ok()?];
    let ok = AtomicBool::new(true);
    std::thread::scope(|s| {
        let ok = &ok;
        let mut rest = records.as_mut_slice();
        let handles: Vec<_> = groups
            .iter()
            .map(|&(lo, hi)| {
                let spans = &scan.chunks[lo..hi];
                let count: u64 = spans.iter().map(|c| c.count).sum();
                let (mut out, tail) = std::mem::take(&mut rest).split_at_mut(count as usize);
                rest = tail;
                s.spawn(move || {
                    for span in spans {
                        if !ok.load(Ordering::Relaxed) {
                            return;
                        }
                        let (chunk, tail) =
                            std::mem::take(&mut out).split_at_mut(span.count as usize);
                        out = tail;
                        if !decode_span(data, span, chunk) {
                            ok.store(false, Ordering::Relaxed);
                            return;
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    if !ok.load(Ordering::Relaxed) {
        return None;
    }
    Some(ParallelDecode {
        records,
        segments: scan.segments,
        total: scan.total,
        bytes: data.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::TraceWriter;
    use crate::synthetic;

    fn trace_bytes(records: usize, seed: u64, chunk: u64) -> (Vec<u8>, Vec<TraceRecord>) {
        let records = synthetic::random_trace(records, seed);
        let mut bytes = Vec::new();
        let mut writer = TraceWriter::with_chunk_records(&mut bytes, SegmentMap::all_data(), chunk)
            .expect("in-memory writer");
        for record in &records {
            writer.write_record(record).expect("in-memory write");
        }
        writer.finish().expect("in-memory finish");
        (bytes, records)
    }

    fn read_all(source: TraceSource) -> Vec<TraceRecord> {
        let mut reader = TraceReader::from_source(source).expect("open");
        let mut out = Vec::new();
        while reader.read_block(&mut out).expect("read") > 0 {}
        out
    }

    #[test]
    fn memory_source_decodes_zero_copy_to_the_same_records() {
        let (bytes, expected) = trace_bytes(2000, 11, 128);
        let got = read_all(TraceSource::from_bytes(bytes));
        assert_eq!(got, expected);
    }

    #[test]
    fn mapped_source_matches_buffered_source() {
        let (bytes, expected) = trace_bytes(3000, 7, 256);
        let mut path = std::env::temp_dir();
        path.push(format!("paragraph-source-test-{}", std::process::id()));
        std::fs::write(&path, &bytes).expect("write temp trace");
        let mapped = read_all(TraceSource::mapped_file(&path).expect("map"));
        let buffered = read_all(TraceSource::buffered_file(&path).expect("open"));
        std::fs::remove_file(&path).ok();
        assert_eq!(mapped, expected);
        assert_eq!(buffered, expected);
    }

    #[test]
    fn decode_ahead_delivers_identical_records_in_order() {
        let (bytes, expected) = trace_bytes(5000, 3, 512);
        let reader = TraceReader::from_source(TraceSource::from_bytes(bytes)).expect("open");
        let mut pipeline = DecodeAhead::spawn(reader, None).expect("spawn");
        let mut got = Vec::new();
        while let Some(batch) = pipeline.next_batch() {
            let batch = batch.expect("clean stream");
            got.extend_from_slice(&batch);
            pipeline.recycle(batch);
        }
        let fin = pipeline.finish();
        assert_eq!(got, expected);
        assert_eq!(fin.records_written, Some(expected.len() as u64));
        assert_eq!(fin.stats.records_read, expected.len() as u64);
    }

    #[test]
    fn decode_ahead_surfaces_the_fault_after_prior_blocks() {
        let (mut bytes, _) = trace_bytes(2000, 5, 128);
        // Flip a payload byte in the middle of the stream.
        let at = bytes.len() / 2;
        bytes[at] ^= 0x40;
        // Sequential oracle.
        let mut seq = TraceReader::new(io::Cursor::new(bytes.clone())).expect("open");
        let mut seq_records = Vec::new();
        let seq_err = loop {
            match seq.read_block(&mut seq_records) {
                Ok(0) => break None,
                Ok(_) => {}
                Err(e) => break Some(e),
            }
        };
        // Pipelined run.
        let reader = TraceReader::from_source(TraceSource::from_bytes(bytes)).expect("open");
        let mut pipeline = DecodeAhead::spawn(reader, None).expect("spawn");
        let mut got = Vec::new();
        let mut got_err = None;
        while let Some(batch) = pipeline.next_batch() {
            match batch {
                Ok(batch) => got.extend_from_slice(&batch),
                Err(e) => got_err = Some(e),
            }
        }
        pipeline.finish();
        assert_eq!(got, seq_records);
        match (seq_err, got_err) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(
                    std::mem::discriminant(a.kind()),
                    std::mem::discriminant(b.kind())
                );
                assert_eq!(a.byte_offset(), b.byte_offset());
            }
            (a, b) => panic!("fault mismatch: sequential {a:?} vs pipelined {b:?}"),
        }
    }

    #[test]
    fn parallel_decode_matches_sequential_on_clean_streams() {
        let (bytes, expected) = trace_bytes(6000, 9, 256);
        let shared = SharedBytes::from_vec(bytes);
        for jobs in [1, 2, 4, 7] {
            let decoded = decode_all_parallel(&shared, jobs, &Limits::default())
                .expect("pristine stream must decode in parallel");
            assert_eq!(decoded.records, expected, "jobs {jobs}");
            assert_eq!(decoded.total, expected.len() as u64);
        }
    }

    #[test]
    fn parallel_decode_declines_damaged_streams() {
        let (mut bytes, _) = trace_bytes(2000, 13, 128);
        let at = bytes.len() / 3;
        bytes[at] ^= 0x01;
        let shared = SharedBytes::from_vec(bytes);
        assert!(decode_all_parallel(&shared, 4, &Limits::default()).is_none());
    }

    #[test]
    fn parallel_decode_declines_truncation_and_limits() {
        let (bytes, _) = trace_bytes(2000, 17, 128);
        let truncated = SharedBytes::from_vec(bytes[..bytes.len() - 9].to_vec());
        assert!(decode_all_parallel(&truncated, 4, &Limits::default()).is_none());
        let shared = SharedBytes::from_vec(bytes);
        let tight = Limits {
            max_records: 10,
            ..Limits::default()
        };
        assert!(decode_all_parallel(&shared, 4, &tight).is_none());
    }
}
