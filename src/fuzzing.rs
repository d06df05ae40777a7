//! Fuzzing entry points for the toolkit's untrusted-input surfaces.
//!
//! Each `check_*` function takes arbitrary bytes and drives one front-door
//! parser under [`Limits::strict`]: tight caps on declared lengths,
//! allocations, record counts, and decode bytes, plus a wall-clock
//! deadline. The contract under fuzzing is:
//!
//! * **Errors are fine.** Malformed input must produce a typed error.
//! * **Panics are bugs.** No input may panic, overflow, or OOM.
//!
//! The same functions back both the `cargo fuzz` targets under `fuzz/`
//! (libFuzzer, nightly, coverage-guided — for deep local sessions) and the
//! deterministic `fuzz-smoke` binary (stable Rust, fixed seed — run in CI
//! on every push). Keeping the harness in the library means the smoke
//! runner and the coverage-guided fuzzer can never drift apart.

use paragraph_core::{AnalysisConfig, LiveWell, WindowSize};
use paragraph_trace::binary::TraceReader;
use paragraph_trace::faultinject::reseal_chunks;
use paragraph_trace::govern::{Limits, ResourceGovernor};
use paragraph_trace::ingest;

/// A strict governor for one fuzz iteration.
fn governor() -> ResourceGovernor {
    ResourceGovernor::new(Limits::strict())
}

/// Feeds `data` to the v2/v1 trace decoder (strict mode: damage is an
/// error, not recoverable) and drains every record it will yield.
pub fn check_v2_decoder(data: &[u8]) {
    let Ok(reader) = TraceReader::new(data) else {
        return;
    };
    let mut reader = reader.with_governor(governor());
    let mut block = Vec::new();
    loop {
        match reader.read_block(&mut block) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Feeds `data` to the recovery-mode reader, which resynchronizes past
/// damage — the mode with the most state to confuse.
pub fn check_resync_reader(data: &[u8]) {
    let Ok(reader) = TraceReader::with_recovery(data) else {
        return;
    };
    let mut reader = reader.with_governor(governor());
    let mut block = Vec::new();
    loop {
        match reader.read_block(&mut block) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    let _ = reader.recovery_stats();
}

/// Feeds `data` to the checkpoint loader under two configurations: the
/// plain dataflow limit, and a full-featured one so the predictor and
/// issue-ledger decode paths are reachable.
pub fn check_checkpoint_loader(data: &[u8]) {
    use paragraph_core::branch::{BranchPolicy, PredictorKind};
    let mut g = governor();
    let _ = LiveWell::resume_from_governed(data, AnalysisConfig::dataflow_limit(), &mut g);
    let full = AnalysisConfig::dataflow_limit()
        .with_window(WindowSize::bounded(64))
        .with_issue_limit(4)
        .with_branch_policy(BranchPolicy::Predict(PredictorKind::Gshare {
            index_bits: 8,
        }))
        .with_value_stats(true);
    let mut g = governor();
    let _ = LiveWell::resume_from_governed(data, full, &mut g);
}

/// Feeds `data` to the external-text-trace ingest parser, writing the
/// converted trace into a sink.
pub fn check_ingest_parser(data: &[u8]) {
    let mut g = governor();
    let _ = ingest::ingest_text(data, std::io::sink(), &mut g);
}

/// Feeds `data` (when it is UTF-8) to the assembler under strict limits.
pub fn check_asm_parser(data: &[u8]) {
    let Ok(source) = std::str::from_utf8(data) else {
        return;
    };
    let _ = paragraph_asm::assemble_with_limits(
        source,
        paragraph_asm::DEFAULT_DATA_BASE,
        &paragraph_asm::AsmLimits::strict(),
    );
}

/// Differentially checks the SWAR varint kernel against the scalar one on
/// arbitrary bytes, starting a decode at every offset of `data`. The two
/// kernels must agree exactly: same value and same cursor advance on
/// success, same error kind on failure — including truncation at the
/// buffer tail (where SWAR must fall back to the scalar loop) and 10-byte
/// overflow encodings.
pub fn check_varint_swar(data: &[u8]) {
    use paragraph_trace::wire::{read_varint_slice, read_varint_swar};
    for start in 0..=data.len() {
        let mut swar_pos = start;
        let mut scalar_pos = start;
        let swar = read_varint_swar(data, &mut swar_pos);
        let scalar = read_varint_slice(data, &mut scalar_pos);
        match (swar, scalar) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "varint value diverged at offset {start}");
                assert_eq!(
                    swar_pos, scalar_pos,
                    "varint cursor diverged at offset {start}"
                );
            }
            (Err(a), Err(b)) => {
                assert_eq!(
                    a.kind(),
                    b.kind(),
                    "varint error kind diverged at offset {start}"
                );
            }
            (a, b) => panic!("varint outcome diverged at offset {start}: SWAR {a:?}, scalar {b:?}"),
        }
    }
}

/// Differentially checks the report writer's fixed-point decimals against
/// std's `{:.N}` on the f64 that every 8-byte window of `data` encodes
/// (little-endian): at the profile's 4 decimals, the report's 6, and a
/// count the window picks from 0 to 19 — 19 is past the exact path, so
/// std's own rendering is checked to come back unchanged. Bit patterns
/// reach every exponent, subnormals, exact ties, negatives and NaNs.
pub fn check_fixed_decimal(data: &[u8]) {
    use paragraph_core::decimal::push_fixed;
    let mut out = String::new();
    for window in data.windows(8) {
        let v = f64::from_le_bytes(window.try_into().expect("an 8-byte window"));
        for decimals in [4, 6, usize::from(window[0] % 20)] {
            out.clear();
            push_fixed(&mut out, v, decimals);
            assert_eq!(
                out,
                format!("{v:.decimals$}"),
                "fixed decimal diverged on {:#x} at {decimals}",
                v.to_bits()
            );
        }
    }
}

/// Differentially checks the trace reader against the per-record oracle
/// on `data` with every chunk's CRC resealed first, so payload mutations
/// reach the record decoders instead of stopping at the checksum. Where
/// the oracle models the stream (intact framing), the reader must deliver
/// the same records and fail with the same error kind and record index
/// (and, on chunked v2 streams, the same byte offset and chunk).
pub fn check_resealed_chunks(data: &[u8]) {
    let mut bytes = data.to_vec();
    reseal_chunks(&mut bytes);
    // No wall-clock deadline: a timeout would be a false divergence.
    let limits = Limits {
        deadline: None,
        ..Limits::strict()
    };
    let Ok(reader) = TraceReader::new(bytes.as_slice()) else {
        return;
    };
    let chunked = reader.version() == 2;
    let mut reader = reader.with_governor(ResourceGovernor::new(limits));
    let mut records = Vec::new();
    let fault = loop {
        match reader.read_block(&mut records) {
            Ok(0) => break None,
            Ok(_) => {}
            Err(e) => break Some(e),
        }
    };
    let Some(oracle) = paragraph_trace::oracle::decode(&bytes) else {
        return;
    };
    assert_eq!(records, oracle.records, "reader records diverged");
    match (&fault, &oracle.fault) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(
                format!("{:?}", a.kind()),
                format!("{:?}", b.kind()),
                "reader error diverged"
            );
            assert_eq!(a.record_index(), b.record_index(), "record index");
            if chunked {
                assert_eq!(a.byte_offset(), b.byte_offset(), "byte offset");
                assert_eq!(a.chunk(), b.chunk(), "chunk");
            }
        }
        (a, b) => panic!("reader fault {a:?}, per-record {b:?}"),
    }
}

/// Every fuzz target by name, for runners that iterate over all of them.
pub const TARGETS: &[(&str, fn(&[u8]))] = &[
    ("v2_decoder", check_v2_decoder),
    ("resync_reader", check_resync_reader),
    ("checkpoint_loader", check_checkpoint_loader),
    ("ingest_parser", check_ingest_parser),
    ("asm_parser", check_asm_parser),
    ("varint_swar", check_varint_swar),
    ("resealed_chunks", check_resealed_chunks),
    ("fixed_decimal", check_fixed_decimal),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every target must shrug off trivial adversarial inputs without
    /// panicking — the smoke runner exercises the real corpus.
    #[test]
    fn targets_survive_trivial_inputs() {
        let inputs: &[&[u8]] = &[
            b"",
            b"\x00",
            b"PGTR",
            b"PGTR\x02\x00\x00",
            b"PGCP\x02\xff\xff\xff\xff",
            b"!segments heap=9 stack=1\n",
            b".data\nx: .space 99999999999\n",
            &[0xff; 512],
        ];
        for (name, check) in TARGETS {
            for input in inputs {
                check(input);
                let _ = name;
            }
        }
    }
}
