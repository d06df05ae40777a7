//! The record generator shared by the differential suites (`oracle.rs`,
//! `interned.rs`): a small location space, so records alias each other
//! often, with every operand shape the record contract allows.

use paragraph::isa::OpClass;
use paragraph::trace::{Loc, TraceRecord};
use proptest::prelude::*;

/// Strategy: one arbitrary (valid) record at `pc`. Registers are r0..r5
/// (r0 reads are dropped by the record constructor) and memory words
/// 0..12.
pub fn arb_record(pc: u64) -> impl Strategy<Value = TraceRecord> {
    let reg = || (0u8..6).prop_map(Loc::int);
    let dest = || (1u8..6).prop_map(Loc::int);
    let addr = || 0u64..12;
    prop_oneof![
        (proptest::collection::vec(reg(), 0..=2), dest())
            .prop_map(move |(srcs, d)| TraceRecord::compute(pc, OpClass::IntAlu, &srcs, d)),
        (reg(), reg(), dest()).prop_map(move |(a, b, d)| TraceRecord::compute(
            pc,
            OpClass::IntDiv,
            &[a, b],
            d
        )),
        (addr(), reg(), dest()).prop_map(move |(a, b, d)| TraceRecord::load(pc, a, Some(b), d)),
        // Operand aliasing: a load whose base register is its destination
        // reads the old value and overwrites it in one record.
        (addr(), dest()).prop_map(move |(a, d)| TraceRecord::load(pc, a, Some(d), d)),
        // A load into the zero register: placed, but it writes nothing.
        (addr(), reg()).prop_map(move |(a, b)| TraceRecord::load(pc, a, Some(b), Loc::int(0))),
        (addr(), reg(), reg()).prop_map(move |(a, v, b)| TraceRecord::store(pc, a, v, Some(b))),
        (reg(), reg()).prop_map(move |(a, b)| TraceRecord::branch(pc, &[a, b])),
        // A branch with its outcome, sometimes reading a memory word: the
        // predictor models see it, and a misprediction reads the word.
        (reg(), addr(), any::<bool>(), any::<bool>(), 0u64..4).prop_map(
            move |(a, m, mem, taken, target)| {
                let srcs = [a, Loc::mem(m)];
                let n = if mem { 2 } else { 1 };
                TraceRecord::branch_outcome(pc, &srcs[..n], taken, target)
            }
        ),
        Just(TraceRecord::syscall(pc, &[Loc::int(2)], Some(Loc::int(2)))),
        // A syscall reading a memory word, sometimes the same word twice:
        // each occurrence is one read, so a doubled word gains two readers.
        (addr(), any::<bool>()).prop_map(move |(a, twice)| {
            let srcs = [Loc::int(2), Loc::mem(a), Loc::mem(a)];
            let n = if twice { 3 } else { 2 };
            TraceRecord::syscall(pc, &srcs[..n], Some(Loc::int(2)))
        }),
    ]
}

/// Strategy: a trace of 1 to 79 records.
pub fn arb_trace() -> impl Strategy<Value = Vec<TraceRecord>> {
    proptest::collection::vec(any::<u8>(), 1..80).prop_flat_map(|seeds| {
        seeds
            .into_iter()
            .enumerate()
            .map(|(i, _)| arb_record(i as u64))
            .collect::<Vec<_>>()
    })
}
