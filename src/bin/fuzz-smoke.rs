//! Deterministic structure-aware mutational smoke fuzzer (stable Rust).
//!
//! CI cannot run libFuzzer (nightly-only), but it can run this: a fixed
//! seed, a fixed iteration budget, built-in structure-aware seeds plus the
//! committed corpus under `fuzz/corpus/<target>/`, and the same `check_*`
//! entry points the real fuzz targets use (`paragraph::fuzzing`). Any
//! panic aborts the run with a nonzero exit and prints the seed and
//! iteration so the failure reproduces exactly.
//!
//! ```text
//! fuzz-smoke [--seed N] [--iters N] [--target NAME] [--corpus DIR]
//! ```
//!
//! Mutations are built on the trace crate's own fault-injection machinery:
//! `FaultPlan` (bit flips, garbage runs, chunk duplication, truncation)
//! over `frame_spans`-aware inputs, plus varint-boundary length
//! distortions — the mutations most likely to produce a *plausible but
//! hostile* declared length. The `resealed_chunks` target instead mutates
//! record bytes inside one chunk payload; its check reseals the CRC.

use paragraph::fuzzing;
use paragraph::trace::faultinject::{frame_spans, FaultPlan, SplitMix64};
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 0x00C0_FFEE;
const DEFAULT_ITERS: u64 = 400;

fn usage() -> ! {
    eprintln!(
        "usage: fuzz-smoke [--seed N] [--iters N] [--target NAME] [--corpus DIR] [--write-seeds]"
    );
    eprintln!(
        "targets: {} (default: all)",
        fuzzing::TARGETS
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

/// Parses a decimal or `0x`-prefixed hex number (the final banner prints
/// the seed in hex, so the reproduction command accepts it back).
fn parse_num(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Built-in seeds per target: one well-formed input each, so mutations
/// start from structure the parser actually accepts, plus a handful of
/// adversarial declared-length shapes.
fn builtin_seeds(target: &str) -> Vec<Vec<u8>> {
    use paragraph::trace::binary::TraceWriter;
    use paragraph::trace::{synthetic, SegmentMap};
    match target {
        "v2_decoder" | "resync_reader" | "resealed_chunks" => {
            let records = synthetic::random_trace(600, 17);
            let mut bytes = Vec::new();
            let mut writer = TraceWriter::with_chunk_records(
                &mut bytes,
                SegmentMap::all_data(),
                128,
            )
            .expect("in-memory writer");
            for record in &records {
                writer.write_record(record).expect("in-memory write");
            }
            writer.finish().expect("in-memory finish");
            vec![bytes]
        }
        "checkpoint_loader" => {
            use paragraph::core::{AnalysisConfig, LiveWell};
            let mut analyzer = LiveWell::new(AnalysisConfig::dataflow_limit());
            analyzer.process_all(&synthetic::random_trace(400, 23));
            let mut bytes = Vec::new();
            analyzer.save_checkpoint(&mut bytes).expect("in-memory save");
            vec![bytes]
        }
        "ingest_parser" => {
            let records = synthetic::random_trace(120, 29);
            let text = paragraph::trace::ingest::render_trace(&records, SegmentMap::all_data());
            vec![
                text.into_bytes(),
                b"# comment only\n".to_vec(),
                b"!segments heap=4096 stack=1048576\n0x40 int-alu r1 -> r2\n".to_vec(),
            ]
        }
        "asm_parser" => vec![
            b".data\nv: .word 1, 2, 3\nbuf: .space 16\n.text\nmain: li r8, 4\nloop: addi r8, r8, -1\nbne r8, r0, loop\nhalt\n"
                .to_vec(),
            b".text\nnop\nhalt\n".to_vec(),
        ],
        "varint_swar" => {
            // A run of canonical encodings across every length class, then
            // shapes the SWAR kernel must punt on: continuation runs into
            // the buffer tail and maximal/overflowing 10-byte encodings.
            let mut stream = Vec::new();
            for v in [
                0u64,
                1,
                127,
                128,
                300,
                (1 << 14) - 1,
                1 << 14,
                (1 << 21) - 1,
                (1 << 28) + 7,
                (1 << 35) + 12_345,
                (1 << 49) - 1,
                (1 << 56) - 1,
                1 << 56,
                u64::MAX,
            ] {
                paragraph::trace::wire::write_varint(&mut stream, v).expect("in-memory write");
            }
            vec![stream, vec![0x80; 12], vec![0xff; 16], vec![0xff, 0xff, 0x7f]]
        }
        "fixed_decimal" => {
            // Exact ties at 4 and 6 decimals, profile-bin ratios, zero, a
            // subnormal, rounding that carries, the top of the exact range
            // and the fallbacks past it, back to back.
            let values = [
                1.0 / 32.0,
                3.0 / 32.0,
                5.0 / 128.0,
                0.0000005,
                1234.0 / 7.0,
                4096.0 / 3.0,
                0.0,
                5e-324,
                0.99999995,
                18_446_744_073_709_549_568.0,
                18_446_744_073_709_551_616.0,
                -2.5,
                f64::NAN,
                f64::INFINITY,
            ];
            vec![values.iter().flat_map(|v| v.to_le_bytes()).collect()]
        }
        _ => Vec::new(),
    }
}

/// Committed corpus entries, read in sorted order for determinism.
fn corpus_seeds(dir: &std::path::Path) -> Vec<Vec<u8>> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    paths
        .into_iter()
        .filter_map(|p| std::fs::read(&p).ok())
        .collect()
}

/// One deterministic mutation of `seed_input`: structure-aware corruption
/// via `FaultPlan`, frame splicing, or a varint-boundary length distortion.
fn mutate(rng: &mut SplitMix64, seed_input: &[u8]) -> Vec<u8> {
    match rng.below(5) {
        // Bit flips + garbage runs at a rate scaled by the draw.
        0 => {
            let plan = FaultPlan::new(rng.next_u64())
                .bit_flip_rate(0.001 + rng.next_f64() * 0.05)
                .garbage_rate(rng.next_f64() * 0.01);
            plan.apply(seed_input).0
        }
        // Chunk duplication and truncation (mid-frame cuts included).
        1 => {
            let plan = FaultPlan::new(rng.next_u64())
                .chunk_dup_rate(rng.next_f64() * 0.5)
                .truncate_to(rng.next_f64());
            plan.apply(seed_input).0
        }
        // Frame splicing: drop or swap whole sync-marker frames.
        2 => {
            let spans = frame_spans(seed_input);
            if spans.len() < 2 {
                return seed_input.to_vec();
            }
            let drop = rng.below(spans.len() as u64) as usize;
            let mut out = Vec::with_capacity(seed_input.len());
            for (i, &(start, len)) in spans.iter().enumerate() {
                if i != drop {
                    out.extend_from_slice(&seed_input[start..start + len]);
                }
            }
            out
        }
        // Length distortion: overwrite a few bytes with maximal varint
        // continuation patterns, manufacturing huge declared lengths.
        3 => {
            let mut out = seed_input.to_vec();
            if out.is_empty() {
                return out;
            }
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(out.len() as u64) as usize;
                let run = (1 + rng.below(9)) as usize;
                for i in 0..run.min(out.len() - at) {
                    out[at + i] = 0x80 | (rng.next_u64() as u8 & 0x7f);
                }
                if at + run < out.len() {
                    out[at + run] = rng.next_u64() as u8 & 0x7f;
                }
            }
            out
        }
        // Random tail: valid prefix, garbage suffix.
        _ => {
            let keep = rng.below(seed_input.len() as u64 + 1) as usize;
            let mut out = seed_input[..keep].to_vec();
            for _ in 0..rng.below(256) {
                out.push(rng.next_u64() as u8);
            }
            out
        }
    }
}

/// One deterministic mutation of the record bytes inside one chunk
/// payload of `seed_input`, for the `resealed_chunks` target (which
/// reseals the CRC): overwrite a few bytes past the chunk header with
/// small values (class ids, operand tags, register indexes), flag-bit
/// flips, or random bytes, so the record decoders see contradictory but
/// checksum-valid records.
fn mutate_payload(rng: &mut SplitMix64, seed_input: &[u8]) -> Vec<u8> {
    // Marker, three small header varints and the CRC fit in this much.
    const PAST_HEADER: usize = 24;
    let mut out = seed_input.to_vec();
    let chunks: Vec<(usize, usize)> = frame_spans(seed_input)
        .into_iter()
        .filter(|&(_, len)| len > PAST_HEADER)
        .collect();
    if chunks.is_empty() {
        return out;
    }
    let (start, len) = chunks[rng.below(chunks.len() as u64) as usize];
    for _ in 0..1 + rng.below(3) {
        let at = start + PAST_HEADER + rng.below((len - PAST_HEADER) as u64) as usize;
        out[at] = match rng.below(3) {
            0 => rng.below(13) as u8,
            1 => out[at] ^ [0x80, 0x40, 0x01][rng.below(3) as usize],
            _ => rng.next_u64() as u8,
        };
    }
    out
}

fn main() -> ExitCode {
    let mut seed = DEFAULT_SEED;
    let mut iters = DEFAULT_ITERS;
    let mut only: Option<String> = None;
    let mut corpus = std::path::PathBuf::from("fuzz/corpus");
    let mut write_seeds = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seed" => seed = parse_num(&value()).unwrap_or_else(|| usage()),
            "--iters" => iters = parse_num(&value()).unwrap_or_else(|| usage()),
            "--target" => only = Some(value()),
            "--corpus" => corpus = value().into(),
            "--write-seeds" => write_seeds = true,
            _ => usage(),
        }
    }

    if write_seeds {
        // Regenerate the generated portion of the committed corpus. Files
        // are named `builtin-N` so hand-written adversarial entries beside
        // them are never overwritten.
        for (name, _) in fuzzing::TARGETS {
            let dir = corpus.join(name);
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("fuzz-smoke: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            for (i, bytes) in builtin_seeds(name).iter().enumerate() {
                let path = dir.join(format!("builtin-{i}"));
                if let Err(e) = std::fs::write(&path, bytes) {
                    eprintln!("fuzz-smoke: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!(
                    "fuzz-smoke: wrote {} ({} bytes)",
                    path.display(),
                    bytes.len()
                );
            }
        }
        return ExitCode::SUCCESS;
    }

    let targets: Vec<_> = fuzzing::TARGETS
        .iter()
        .filter(|(name, _)| only.as_deref().is_none_or(|t| t == *name))
        .collect();
    if targets.is_empty() {
        eprintln!("fuzz-smoke: no such target `{}`", only.unwrap_or_default());
        usage();
    }

    let mut total = 0u64;
    for (name, check) in &targets {
        let mut seeds = builtin_seeds(name);
        seeds.extend(corpus_seeds(&corpus.join(name)));
        if seeds.is_empty() {
            eprintln!("fuzz-smoke: target {name} has no seeds");
            return ExitCode::FAILURE;
        }
        // Every seed runs unmutated first: the corpus is a regression suite.
        for (i, s) in seeds.iter().enumerate() {
            eprintln!("fuzz-smoke: {name} corpus[{i}] ({} bytes)", s.len());
            check(s);
            total += 1;
        }
        let mut rng = SplitMix64::new(seed ^ name.len() as u64);
        for i in 0..iters {
            let which = rng.below(seeds.len() as u64) as usize;
            let input = if *name == "resealed_chunks" {
                mutate_payload(&mut rng, &seeds[which])
            } else {
                mutate(&mut rng, &seeds[which])
            };
            // The banner precedes the call so a panic names the exact
            // (target, seed, iteration) that reproduces it.
            if i.is_multiple_of(100) {
                eprintln!("fuzz-smoke: {name} iter {i}/{iters} (seed {seed:#x})");
            }
            check(&input);
            total += 1;
        }
    }
    println!(
        "fuzz-smoke: {} target(s), {total} iterations, 0 panics (seed {seed:#x})",
        targets.len()
    );
    ExitCode::SUCCESS
}
