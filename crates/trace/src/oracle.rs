//! The independent per-record trace decoder: a test oracle for
//! [`TraceReader`](crate::binary::TraceReader).
//!
//! The reader decodes whole chunk payloads (or v1 buffer runs) in place
//! through one slice kernel and the SWAR varint decoder. This module
//! decodes the same bytes another way: one record at a time through
//! `Read`, with the scalar `Read`-based varint decoder, and with the v2
//! frames located by [`scan_chunks`] rather than by the reader's resync
//! state machine. The two share only the record contract
//! (`TraceRecord::check`) and the mapping of decode errors to
//! [`TraceErrorKind`]s. Differential tests, the `resealed_chunks`
//! fuzz target and the `hotpath` bench's "before" leg compare the reader
//! against [`decode`]; nothing in production calls it.

use crate::binary::{
    invalid_operands, io_to_kind, scan_chunks, MAGIC, SYNC_MARKER, TAG_FP, TAG_INT, TAG_MEM,
    VERSION_V1, VERSION_V2,
};
use crate::crc32::Crc32;
use crate::error::{TraceError, TraceErrorKind};
use crate::loc::Loc;
use crate::record::{BranchInfo, TraceRecord};
use crate::wire::{read_varint, unzigzag};
use paragraph_isa::OpClass;
use std::io::{self, Read};

/// What [`decode`] read from one stream.
#[derive(Debug)]
pub struct Decoded {
    /// Records decoded before the first fault (all of them on a clean
    /// stream).
    pub records: Vec<TraceRecord>,
    /// The first fault, located as the reader locates it: its kind and
    /// record index; on v2 also the ordinal the reader gives the faulting
    /// chunk and the byte offset of that chunk's end. On v1 the offset is
    /// where the oracle noticed the fault, which may lie inside the
    /// faulting record (the reader reports the record's start).
    pub fault: Option<TraceError>,
}

/// Decodes a whole trace byte stream record by record.
///
/// - v1: records back to back until the end.
/// - v2: the frames [`scan_chunks`] walks, each CRC-checked, then
///   `count` per-record decodes of each payload (trailing payload bytes
///   are ignored, as the reader ignores them).
///
/// Returns `None` for a stream the oracle does not model: a header that
/// does not parse, or a v2 stream whose framing is not intact (damaged
/// frames, gaps, no trailer) or whose checksums fail. Those are the
/// reader's resync and recovery paths, which its own exact-expectation
/// tests cover.
pub fn decode(bytes: &[u8]) -> Option<Decoded> {
    if bytes.len() < 5 || &bytes[..4] != MAGIC {
        return None;
    }
    match bytes[4] {
        VERSION_V1 => decode_v1(bytes),
        VERSION_V2 => decode_v2(bytes),
        _ => None,
    }
}

fn decode_v1(bytes: &[u8]) -> Option<Decoded> {
    let mut input = io::Cursor::new(&bytes[5..]);
    let heap_base = read_varint(&mut input).ok()?;
    let stack_floor = read_varint(&mut input).ok()?;
    if heap_base > stack_floor {
        return None;
    }
    let mut records = Vec::new();
    let mut last_pc = 0u64;
    loop {
        match decode_record(&mut input, &mut last_pc) {
            Ok(Some(record)) => records.push(record),
            Ok(None) => {
                return Some(Decoded {
                    records,
                    fault: None,
                })
            }
            Err(e) => {
                let offset = 5 + input.position();
                let index = records.len() as u64;
                let fault = TraceError::new(io_to_kind(e), offset, index);
                return Some(Decoded {
                    records,
                    fault: Some(fault),
                });
            }
        }
    }
}

fn decode_v2(bytes: &[u8]) -> Option<Decoded> {
    let scan = scan_chunks(bytes)?;
    let mut records = Vec::new();
    for (ordinal, span) in (1u64..).zip(&scan.chunks) {
        let frame = &bytes[span.offset..span.offset + span.frame_len];
        let crc_at = span.header_len - 4;
        let mut crc = Crc32::new();
        crc.update(&frame[SYNC_MARKER.len()..crc_at]);
        crc.update(&frame[span.header_len..]);
        if crc.finish().to_le_bytes() != frame[crc_at..span.header_len] {
            return None;
        }
        // The pc-delta chain restarts at every chunk.
        let mut payload = &frame[span.header_len..];
        let mut last_pc = 0u64;
        for _ in 0..span.count {
            let kind = match decode_record(&mut payload, &mut last_pc) {
                Ok(Some(record)) => {
                    records.push(record);
                    continue;
                }
                Ok(None) => {
                    TraceErrorKind::Corrupt("chunk payload shorter than its record count".into())
                }
                Err(e) => io_to_kind(e),
            };
            let end = (span.offset + span.frame_len) as u64;
            let index = records.len() as u64;
            let fault = TraceError::new(kind, end, index).in_chunk(ordinal);
            return Some(Decoded {
                records,
                fault: Some(fault),
            });
        }
    }
    Some(Decoded {
        records,
        fault: None,
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::TraceWriter;
    use crate::segment::SegmentMap;
    use crate::synthetic;

    fn v2(records: &[TraceRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut writer =
            TraceWriter::with_chunk_records(&mut buf, SegmentMap::all_data(), 16).unwrap();
        for r in records {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        buf
    }

    #[test]
    fn decodes_intact_streams_and_declines_damaged_framing() {
        let records = synthetic::random_trace(100, 5);
        let clean = v2(&records);
        let decoded = decode(&clean).unwrap();
        assert!(decoded.fault.is_none());
        assert_eq!(decoded.records, records);
        // A checksum failure, a cut, a bad magic: not modelled.
        let mut flipped = clean.clone();
        let last = flipped.len() - 20;
        flipped[last] ^= 1;
        assert!(decode(&flipped).is_none());
        assert!(decode(&clean[..clean.len() - 1]).is_none());
        assert!(decode(b"NOPE\x02").is_none());
    }
}
