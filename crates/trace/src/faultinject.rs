//! Deterministic fault injection for trace byte streams.
//!
//! The fault-tolerant reader ([`TraceReader::with_recovery`]) claims to
//! survive the damage long capture pipelines actually produce: flipped bits,
//! truncated tails, inserted garbage, duplicated frames. This module is the
//! harness that backs the claim — it applies seeded, configurable damage to
//! a serialized trace so tests can assert the reader neither panics nor
//! mis-counts the loss.
//!
//! [`TraceReader::with_recovery`]: crate::binary::TraceReader::with_recovery
//!
//! # Examples
//!
//! ```
//! use paragraph_trace::faultinject::FaultPlan;
//!
//! let clean = vec![0u8; 1024];
//! let (dirty, report) = FaultPlan::new(42).bit_flip_rate(0.01).apply(&clean);
//! assert_eq!(dirty.len(), clean.len());
//! assert!(report.bits_flipped > 0);
//! ```

/// SplitMix64: a tiny, high-quality, seedable generator. Public so the
/// fuzz smoke harness shares it; it has no dependencies, and identical
/// seeds give identical sequences forever.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `bound` is nonzero (returns 0 in release).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        if bound == 0 {
            return 0;
        }
        self.next_u64() % bound
    }
}

/// A seeded recipe of damage to inflict on a byte stream.
///
/// All rates are per-byte probabilities; damage kinds compose. The header
/// prefix can be protected so tests exercise record/chunk recovery rather
/// than magic-number rejection.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    bit_flip_rate: f64,
    garbage_rate: f64,
    chunk_dup_rate: f64,
    truncate_fraction: Option<f64>,
    protect_prefix: usize,
}

/// What [`FaultPlan::apply`] actually did, for test accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionReport {
    /// Individual bits flipped.
    pub bits_flipped: u64,
    /// Garbage bytes inserted.
    pub garbage_bytes: u64,
    /// Chunk frames duplicated in place.
    pub chunks_duplicated: u64,
    /// Records contained in duplicated frames (an upper bound on extra
    /// records a recovering reader could legitimately deliver — zero here
    /// because duplicates re-deliver existing indexes, which the reader
    /// drops).
    pub duplicated_records: u64,
    /// Bytes removed from the tail.
    pub bytes_truncated: u64,
}

impl FaultPlan {
    /// A plan that (until configured) changes nothing.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            bit_flip_rate: 0.0,
            garbage_rate: 0.0,
            chunk_dup_rate: 0.0,
            truncate_fraction: None,
            protect_prefix: 0,
        }
    }

    /// Flips each bit-position-0..8 of each byte with probability
    /// `rate / 8` (so `rate` is the expected flipped bits per byte).
    #[must_use]
    pub fn bit_flip_rate(mut self, rate: f64) -> FaultPlan {
        self.bit_flip_rate = rate;
        self
    }

    /// Inserts a short burst of random garbage after a byte with the given
    /// per-byte probability.
    #[must_use]
    pub fn garbage_rate(mut self, rate: f64) -> FaultPlan {
        self.garbage_rate = rate;
        self
    }

    /// Duplicates a chunk frame (sync marker to next sync marker) in place
    /// with the given per-chunk probability.
    #[must_use]
    pub fn chunk_dup_rate(mut self, rate: f64) -> FaultPlan {
        self.chunk_dup_rate = rate;
        self
    }

    /// Truncates the stream, keeping roughly the given fraction of it.
    #[must_use]
    pub fn truncate_to(mut self, keep_fraction: f64) -> FaultPlan {
        self.truncate_fraction = Some(keep_fraction.clamp(0.0, 1.0));
        self
    }

    /// Protects the first `bytes` bytes from all damage (typically the
    /// trace header, so reads fail *after* open).
    #[must_use]
    pub fn protect_prefix(mut self, bytes: usize) -> FaultPlan {
        self.protect_prefix = bytes;
        self
    }

    /// Applies the plan to `input`, returning the damaged stream and a
    /// tally of the damage. Deterministic in the seed and configuration.
    pub fn apply(&self, input: &[u8]) -> (Vec<u8>, InjectionReport) {
        let mut rng = SplitMix64::new(self.seed);
        let mut report = InjectionReport::default();
        let protect = self.protect_prefix.min(input.len());

        // 1. Duplicate chunk frames (operates on intact framing, so it runs
        //    before byte-level damage).
        let mut bytes = if self.chunk_dup_rate > 0.0 {
            let mut out = Vec::with_capacity(input.len());
            out.extend_from_slice(&input[..protect]);
            let mut frames = frame_spans(&input[protect..]);
            if frames.is_empty() {
                frames.push((0, input.len() - protect));
            }
            for (start, len) in frames {
                let frame = &input[protect + start..protect + start + len];
                out.extend_from_slice(frame);
                if rng.next_f64() < self.chunk_dup_rate {
                    out.extend_from_slice(frame);
                    report.chunks_duplicated += 1;
                }
            }
            out
        } else {
            input.to_vec()
        };

        // 2. Garbage insertion.
        if self.garbage_rate > 0.0 {
            let mut out = Vec::with_capacity(bytes.len());
            for (i, &b) in bytes.iter().enumerate() {
                out.push(b);
                if i >= protect && rng.next_f64() < self.garbage_rate {
                    let burst = 1 + rng.below(16) as usize;
                    for _ in 0..burst {
                        out.push(rng.next_u64() as u8);
                    }
                    report.garbage_bytes += burst as u64;
                }
            }
            bytes = out;
        }

        // 3. Bit flips.
        if self.bit_flip_rate > 0.0 {
            let per_bit = self.bit_flip_rate / 8.0;
            for b in bytes.iter_mut().skip(protect) {
                for bit in 0..8 {
                    if rng.next_f64() < per_bit {
                        *b ^= 1 << bit;
                        report.bits_flipped += 1;
                    }
                }
            }
        }

        // 4. Truncation (last, so it cuts the final stream).
        if let Some(keep) = self.truncate_fraction {
            let target = ((bytes.len() as f64) * keep) as usize;
            let target = target.max(protect);
            if target < bytes.len() {
                report.bytes_truncated = (bytes.len() - target) as u64;
                bytes.truncate(target);
            }
        }

        (bytes, report)
    }
}

/// Splits `bytes` into spans `[start, start+len)` delimited by sync
/// markers. Bytes before the first marker form their own span. Public so
/// structure-aware mutators (the fuzz smoke harness) can cut and splice
/// whole frames.
pub fn frame_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    use crate::binary::SYNC_MARKER;
    let mut starts = Vec::new();
    let mut i = 0;
    while i + SYNC_MARKER.len() <= bytes.len() {
        if bytes[i..i + SYNC_MARKER.len()] == SYNC_MARKER {
            starts.push(i);
            i += SYNC_MARKER.len();
        } else {
            i += 1;
        }
    }
    // Spans from each marker to the next (or the end).
    let mut result = Vec::new();
    if let Some(&first) = starts.first() {
        if first > 0 {
            result.push((0, first));
        }
        for w in starts.windows(2) {
            result.push((w[0], w[1] - w[0]));
        }
        let last = starts[starts.len() - 1];
        result.push((last, bytes.len() - last));
    } else if !bytes.is_empty() {
        result.push((0, bytes.len()));
    }
    result
}

/// Recomputes the CRC of every v2 chunk frame in `bytes` whose header
/// parses and whose declared payload fits, so that payload damage gets
/// past the checksum and reaches the record decoder. Returns the number
/// of frames resealed. Public so the fuzz harness and the decoder tests
/// can build CRC-valid but inconsistent chunks.
pub fn reseal_chunks(bytes: &mut [u8]) -> usize {
    use crate::binary::SYNC_MARKER;
    use crate::crc32::Crc32;
    use crate::wire::read_varint_slice;
    let starts: Vec<usize> = frame_spans(bytes)
        .into_iter()
        .map(|(start, _)| start)
        .filter(|&start| bytes[start..].starts_with(&SYNC_MARKER))
        .collect();
    let mut resealed = 0;
    for start in starts {
        let varints_at = start + SYNC_MARKER.len();
        let mut pos = varints_at;
        let header = (0..3)
            .map(|_| read_varint_slice(bytes, &mut pos))
            .collect::<Result<Vec<u64>, _>>();
        let Ok(header) = header else { continue };
        let crc_at = pos;
        let payload_at = crc_at + 4;
        let Some(payload_end) = usize::try_from(header[2])
            .ok()
            .and_then(|len| payload_at.checked_add(len))
            .filter(|&end| end <= bytes.len())
        else {
            continue;
        };
        let mut crc = Crc32::new();
        crc.update(&bytes[varints_at..crc_at]);
        crc.update(&bytes[payload_at..payload_end]);
        bytes[crc_at..payload_at].copy_from_slice(&crc.finish().to_le_bytes());
        resealed += 1;
    }
    resealed
}

/// A [`Write`](std::io::Write) wrapper that simulates a disk filling up:
/// it passes bytes through until a configured capacity is exhausted, then
/// fails every write with an `ENOSPC`-shaped error ("no space left on
/// device"). With [`short_writes`](Self::short_writes) enabled, the last
/// write that crosses the boundary is *partially* accepted first — the
/// short-write case `write_all` loops over and bare `write` callers often
/// mishandle.
///
/// This is the sink-side companion to [`FaultPlan`]: where `FaultPlan`
/// damages bytes already on disk, `FaultyWriter` damages the act of
/// getting them there. Integration tests wrap checkpoint, telemetry, and
/// CSV sinks in it and assert the analysis degrades instead of aborting.
///
/// # Examples
///
/// ```
/// use paragraph_trace::faultinject::FaultyWriter;
/// use std::io::Write;
///
/// let mut sink = FaultyWriter::enospc_after(Vec::new(), 4);
/// assert!(sink.write_all(b"1234").is_ok());
/// assert!(sink.write_all(b"5").is_err());
/// assert_eq!(sink.get_ref(), b"1234");
/// ```
#[derive(Debug)]
pub struct FaultyWriter<W> {
    inner: W,
    remaining: usize,
    short_writes: bool,
}

impl<W: std::io::Write> FaultyWriter<W> {
    /// Wraps `inner`, accepting at most `capacity` bytes before every
    /// further write fails.
    pub fn enospc_after(inner: W, capacity: usize) -> FaultyWriter<W> {
        FaultyWriter {
            inner,
            remaining: capacity,
            short_writes: false,
        }
    }

    /// Partially accepts the write that crosses the capacity boundary
    /// (returning a short count) before failing subsequent writes.
    #[must_use]
    pub fn short_writes(mut self) -> FaultyWriter<W> {
        self.short_writes = true;
        self
    }

    /// The wrapped writer (e.g. the bytes that made it through).
    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }

    fn enospc() -> std::io::Error {
        std::io::Error::other("no space left on device (simulated ENOSPC)")
    }
}

impl<W: std::io::Write> std::io::Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.remaining == 0 {
            return Err(Self::enospc());
        }
        if buf.len() <= self.remaining {
            let written = self.inner.write(buf)?;
            self.remaining -= written;
            return Ok(written);
        }
        if self.short_writes {
            let written = self.inner.write(&buf[..self.remaining])?;
            self.remaining -= written;
            return Ok(written);
        }
        self.remaining = 0;
        Err(Self::enospc())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resealed_payload_damage_reaches_the_record_decoder() {
        use crate::binary::{TraceReader, TraceWriter};
        use crate::{synthetic, SegmentMap, TraceErrorKind};
        let mut bytes = Vec::new();
        let mut writer =
            TraceWriter::with_chunk_records(&mut bytes, SegmentMap::all_data(), 16).unwrap();
        for record in synthetic::random_trace(64, 5) {
            writer.write_record(&record).unwrap();
        }
        writer.finish().unwrap();
        let spans = frame_spans(&bytes);
        // The last byte of the second chunk: damage inside its payload.
        let (start, len) = spans[2];
        bytes[start + len - 1] ^= 0x7f;
        let crc_fault = |bytes: &[u8]| {
            TraceReader::new(bytes).unwrap().any(|item| {
                item.is_err_and(|e| matches!(e.kind(), TraceErrorKind::ChecksumMismatch { .. }))
            })
        };
        assert!(crc_fault(&bytes));
        // Four data chunks plus the trailer.
        assert_eq!(reseal_chunks(&mut bytes), 5);
        assert!(!crc_fault(&bytes));
    }

    #[test]
    fn identity_plan_changes_nothing() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let (out, report) = FaultPlan::new(7).apply(&data);
        assert_eq!(out, data);
        assert_eq!(report, InjectionReport::default());
    }

    #[test]
    fn same_seed_gives_same_damage() {
        let data = vec![0xabu8; 4096];
        let plan = FaultPlan::new(99)
            .bit_flip_rate(0.01)
            .garbage_rate(0.001)
            .truncate_to(0.9);
        let (a, ra) = plan.apply(&data);
        let (b, rb) = plan.apply(&data);
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn bit_flip_rate_is_roughly_honoured() {
        let data = vec![0u8; 100_000];
        let (out, report) = FaultPlan::new(3).bit_flip_rate(0.01).apply(&data);
        // Expected ~1000 flips over 800k bits; allow a wide band.
        assert!(report.bits_flipped > 500, "{}", report.bits_flipped);
        assert!(report.bits_flipped < 2000, "{}", report.bits_flipped);
        let observed: u64 = out.iter().map(|b| u64::from(b.count_ones() as u8)).sum();
        assert_eq!(observed, report.bits_flipped);
    }

    #[test]
    fn protected_prefix_is_untouched() {
        let data = vec![0x5au8; 256];
        let (out, _) = FaultPlan::new(11)
            .bit_flip_rate(0.5)
            .garbage_rate(0.2)
            .protect_prefix(32)
            .apply(&data);
        assert_eq!(&out[..32], &data[..32]);
    }

    #[test]
    fn truncation_respects_fraction_and_prefix() {
        let data = vec![1u8; 1000];
        let (out, report) = FaultPlan::new(5).truncate_to(0.25).apply(&data);
        assert_eq!(out.len(), 250);
        assert_eq!(report.bytes_truncated, 750);
        let (kept, _) = FaultPlan::new(5)
            .truncate_to(0.0)
            .protect_prefix(100)
            .apply(&data);
        assert_eq!(kept.len(), 100);
    }

    #[test]
    fn faulty_writer_fails_hard_at_the_boundary() {
        use std::io::Write;
        let mut sink = FaultyWriter::enospc_after(Vec::new(), 10);
        assert_eq!(sink.write(b"12345").ok(), Some(5));
        // Crossing the boundary without short writes: all-or-nothing error.
        assert!(sink.write(b"6789abcd").is_err());
        assert!(sink.write(b"x").is_err(), "writer stays failed");
        assert_eq!(sink.get_ref(), b"12345");
    }

    #[test]
    fn faulty_writer_short_write_then_fails() {
        use std::io::Write;
        let mut sink = FaultyWriter::enospc_after(Vec::new(), 6).short_writes();
        assert_eq!(sink.write(b"1234").ok(), Some(4));
        // Crossing the boundary: the first two bytes land, then ENOSPC.
        assert_eq!(sink.write(b"5678").ok(), Some(2));
        assert!(sink.write(b"78").is_err());
        assert_eq!(sink.into_inner(), b"123456");
    }

    #[test]
    fn faulty_writer_write_all_surfaces_the_error_not_a_panic() {
        use std::io::Write;
        let mut sink = FaultyWriter::enospc_after(Vec::new(), 100).short_writes();
        let err = sink.write_all(&[7u8; 1000]).expect_err("must hit ENOSPC");
        assert!(err.to_string().contains("no space left"));
        assert_eq!(sink.get_ref().len(), 100, "short write landed first");
    }

    #[test]
    fn frame_spans_cover_the_input() {
        use crate::binary::SYNC_MARKER;
        let mut bytes = vec![9u8; 13];
        bytes.extend_from_slice(&SYNC_MARKER);
        bytes.extend_from_slice(&[1, 2, 3]);
        bytes.extend_from_slice(&SYNC_MARKER);
        bytes.extend_from_slice(&[4, 5]);
        let spans = frame_spans(&bytes);
        let total: usize = spans.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, bytes.len());
        assert_eq!(spans[0], (0, 13));
        assert_eq!(spans.len(), 3);
    }
}
