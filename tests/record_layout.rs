//! The packed `TraceRecord` layout is lossless.
//!
//! A record keeps its operands in four payload words with a two-bit kind
//! each, so every way of building one must give back exactly the operands
//! it was given (after the zero register is dropped), compare and hash by
//! those operands only, and keep the canonical identity encoding that v2
//! checkpoints carry.

use paragraph::core::TraceIdentity;
use paragraph::isa::OpClass;
use paragraph::trace::binary::{TraceReader, TraceWriter};
use paragraph::trace::ingest::ingest_text;
use paragraph::trace::{BranchInfo, Limits, Loc, ResourceGovernor, SegmentMap, TraceRecord};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// One record as its builder describes it, zero-register operands
/// included.
#[derive(Debug, Clone)]
struct Spec {
    pc: u64,
    class: OpClass,
    srcs: Vec<Loc>,
    dest: Option<Loc>,
    branch: Option<BranchInfo>,
}

/// What a record must read back as: the spec without its zero-register
/// operands.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Logical {
    pc: u64,
    class: OpClass,
    srcs: Vec<Loc>,
    dest: Option<Loc>,
    branch: Option<BranchInfo>,
    mem_addr: Option<u64>,
}

impl Spec {
    fn logical(&self) -> Logical {
        let srcs: Vec<Loc> = self
            .srcs
            .iter()
            .copied()
            .filter(|s| !s.is_zero_reg())
            .collect();
        let dest = self.dest.filter(|d| !d.is_zero_reg());
        let mem_addr = match self.class {
            OpClass::Load => srcs.iter().find_map(|s| s.addr()),
            OpClass::Store => dest.and_then(Loc::addr),
            _ => None,
        };
        Logical {
            pc: self.pc,
            class: self.class,
            srcs,
            dest,
            branch: self.branch,
            mem_addr,
        }
    }

    /// Builds the record through the public constructors.
    fn build(&self) -> TraceRecord {
        match self.branch {
            Some(info) => TraceRecord::branch_outcome(self.pc, &self.srcs, info.taken, info.target),
            None => TraceRecord::new(self.pc, self.class, &self.srcs, self.dest),
        }
    }

    /// The text-format line for this spec, zero-register operands kept as
    /// far as the format's three written sources allow.
    fn text_line(&self) -> String {
        let loc = |l: &Loc| match l {
            Loc::IntReg(r) => format!("r{}", r.index()),
            Loc::FpReg(r) => format!("f{}", r.index()),
            Loc::Mem(a) => format!("m:{a}"),
        };
        let mut line = format!("{:#x} {}", self.pc, self.class.name());
        let mut zeros = self.srcs.len().saturating_sub(3);
        for s in &self.srcs {
            if s.is_zero_reg() && zeros > 0 {
                zeros -= 1;
                continue;
            }
            line.push(' ');
            line.push_str(&loc(s));
        }
        if let Some(d) = &self.dest {
            line.push_str(" -> ");
            line.push_str(&loc(d));
        }
        if let Some(info) = self.branch {
            let word = if info.taken { "taken" } else { "not-taken" };
            line.push_str(&format!(" {word} {:#x}", info.target));
        }
        line
    }
}

fn logical_of(record: &TraceRecord) -> Logical {
    Logical {
        pc: record.pc(),
        class: record.class(),
        srcs: record.srcs().into_iter().collect(),
        dest: record.dest(),
        branch: record.branch_info(),
        mem_addr: record.mem_addr(),
    }
}

fn hash_of(record: &TraceRecord) -> u64 {
    let mut h = DefaultHasher::new();
    record.hash(&mut h);
    h.finish()
}

/// A word address: 0, `u64::MAX`, one of four small words (so one record
/// often reads a word twice) or anything.
fn arb_addr() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), 0u64..4, any::<u64>(),]
}

/// A register of either file, `r0` included.
fn arb_reg() -> impl Strategy<Value = Loc> {
    prop_oneof![(0u8..32).prop_map(Loc::int), (0u8..32).prop_map(Loc::fp)]
}

fn arb_loc() -> impl Strategy<Value = Loc> {
    prop_oneof![arb_reg(), arb_reg(), arb_addr().prop_map(Loc::mem)]
}

/// Any record the contract admits, of any class.
fn arb_spec(pc: u64) -> impl Strategy<Value = Spec> {
    (
        0..OpClass::ALL.len(),
        proptest::collection::vec(arb_loc(), 0..=3),
        0usize..3,
        any::<bool>(),
        arb_reg(),
        arb_addr(),
        (any::<bool>(), any::<bool>(), arb_addr()),
    )
        .prop_map(
            move |(class, mut srcs, zeros, dup, reg, addr, (dest_or_outcome, taken, target))| {
                let class = OpClass::ALL[class];
                if class == OpClass::Load && !srcs.iter().any(|s| s.is_mem()) {
                    srcs.truncate(2);
                    srcs.push(Loc::mem(addr));
                }
                // A memory word read twice by one record.
                if dup && srcs.len() < 3 {
                    if let Some(&word) = srcs.iter().find(|s| s.is_mem()) {
                        srcs.push(word);
                    }
                }
                // Zero-register reads the record must drop.
                for i in 0..zeros {
                    srcs.insert(i * 2 % (srcs.len() + 1), Loc::int(0));
                }
                let (dest, branch) = match class {
                    OpClass::Store => (Some(Loc::mem(addr)), None),
                    OpClass::Branch if dest_or_outcome => {
                        (None, Some(BranchInfo { taken, target }))
                    }
                    c if c.creates_value() && dest_or_outcome => (Some(reg), None),
                    _ => (None, None),
                };
                Spec {
                    pc,
                    class,
                    srcs,
                    dest,
                    branch,
                }
            },
        )
}

fn arb_specs() -> impl Strategy<Value = Vec<Spec>> {
    proptest::collection::vec(0u64..1 << 40, 1..24)
        .prop_flat_map(|pcs| pcs.into_iter().map(arb_spec).collect::<Vec<_>>())
}

fn write_trace(records: &[TraceRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut writer = TraceWriter::with_chunk_records(&mut buf, SegmentMap::all_data(), 5)
        .unwrap_or_else(|e| panic!("writer: {e}"));
    for record in records {
        writer.write_record(record).unwrap();
    }
    writer.finish().unwrap();
    buf
}

fn read_blocks(bytes: &[u8]) -> Vec<TraceRecord> {
    let mut reader = TraceReader::new(bytes).unwrap();
    let mut out = Vec::new();
    while reader.read_block(&mut out).unwrap() > 0 {}
    out
}

fn read_per_record(bytes: &[u8]) -> Vec<TraceRecord> {
    TraceReader::new(bytes)
        .unwrap()
        .with_per_record_decode()
        .collect::<Result<_, _>>()
        .unwrap()
}

/// The spec's trace as the text ingest path builds it, decoded back.
fn ingested(specs: &[Spec]) -> Vec<TraceRecord> {
    let text: String = specs.iter().map(|s| s.text_line() + "\n").collect();
    let mut bytes = Vec::new();
    let mut governor = ResourceGovernor::new(Limits::default());
    ingest_text(text.as_bytes(), &mut bytes, &mut governor).unwrap();
    read_blocks(&bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every construction path reads back exactly its operands, and `==`
    /// and `Hash` agree with logical equality.
    #[test]
    fn packed_records_are_lossless(specs in arb_specs()) {
        let expected: Vec<Logical> = specs.iter().map(Spec::logical).collect();
        let built: Vec<TraceRecord> = specs.iter().map(Spec::build).collect();
        let bytes = write_trace(&built);
        let paths = [
            ("new", built.clone()),
            ("read_block", read_blocks(&bytes)),
            ("per-record decode", read_per_record(&bytes)),
            ("text ingest", ingested(&specs)),
        ];
        for (path, records) in &paths {
            prop_assert_eq!(records.len(), specs.len());
            for (i, record) in records.iter().enumerate() {
                prop_assert_eq!(&logical_of(record), &expected[i], "{} record {}", path, i);
                prop_assert_eq!(record, &built[i], "{} record {}", path, i);
                prop_assert_eq!(hash_of(record), hash_of(&built[i]));
            }
        }
        // The same operands given without the zero-register reads build
        // an equal record; one pc away builds a different one.
        for (spec, a) in specs.iter().zip(&built) {
            let mut twin = spec.clone();
            twin.srcs.retain(|s| !s.is_zero_reg());
            prop_assert_eq!(a, &twin.build());
            prop_assert_eq!(hash_of(a), hash_of(&twin.build()));
            twin.pc ^= 1;
            prop_assert_ne!(a, &twin.build());
        }
        for (a, la) in built.iter().zip(&expected) {
            for (b, lb) in built.iter().zip(&expected) {
                prop_assert_eq!(a == b, la == lb, "{:?} vs {:?}", a, b);
                if a == b {
                    prop_assert_eq!(hash_of(a), hash_of(b));
                }
            }
        }
    }
}

#[test]
fn records_differing_in_one_field_differ() {
    let base = TraceRecord::branch_outcome(4, &[Loc::int(3)], false, 0);
    let others = [
        TraceRecord::branch(4, &[Loc::int(3)]),
        TraceRecord::branch_outcome(4, &[Loc::int(3)], true, 0),
        TraceRecord::branch_outcome(4, &[Loc::int(3)], false, 1),
        TraceRecord::branch_outcome(4, &[Loc::fp(3)], false, 0),
        TraceRecord::branch_outcome(4, &[Loc::int(3), Loc::int(0)], false, 0),
    ];
    assert_eq!(others[4], base, "a zero-register read is dropped");
    for other in &others[..4] {
        assert_ne!(*other, base, "{other:?}");
    }
    let load = TraceRecord::load(0, u64::MAX, None, Loc::int(1));
    let r0_load = TraceRecord::load(0, u64::MAX, None, Loc::int(0));
    assert_ne!(load, r0_load);
    assert_eq!(r0_load.dest(), None);
    assert_eq!(r0_load.mem_addr(), Some(u64::MAX));
}

/// One fixed trace touching every class, both register files, memory
/// words at both ends of the address space and both branch outcomes.
fn identity_trace() -> Vec<TraceRecord> {
    let mut trace = Vec::new();
    for i in 0..300u64 {
        let r = |k: u64| Loc::int(((i + k) % 31 + 1) as u8);
        let f = |k: u64| Loc::fp(((i + k) % 32) as u8);
        let addr = match i % 4 {
            0 => 0,
            1 => u64::MAX,
            2 => i * 8,
            _ => u64::MAX - i,
        };
        let pc = 4 * (i % 37);
        trace.push(match i % 12 {
            0 => TraceRecord::compute(pc, OpClass::IntAlu, &[r(0), r(1)], r(2)),
            1 => TraceRecord::compute(pc, OpClass::IntMul, &[r(0), Loc::int(0)], r(3)),
            2 => TraceRecord::compute(pc, OpClass::IntDiv, &[r(1), r(2)], r(4)),
            3 => TraceRecord::compute(pc, OpClass::FpAdd, &[f(0), f(1)], f(2)),
            4 => TraceRecord::compute(pc, OpClass::FpMul, &[f(1), r(0)], f(3)),
            5 => TraceRecord::compute(pc, OpClass::FpDiv, &[f(2), f(3), f(4)], f(5)),
            6 => TraceRecord::load(
                pc,
                addr,
                Some(r(5)),
                if i % 5 == 0 { Loc::int(0) } else { r(6) },
            ),
            7 => TraceRecord::store(pc, addr, f(6), Some(r(7))),
            8 => TraceRecord::syscall(
                pc,
                &[Loc::int(2), Loc::mem(addr), Loc::mem(addr)],
                Some(Loc::int(2)),
            ),
            9 => TraceRecord::branch_outcome(pc, &[r(8)], i % 3 == 0, addr),
            10 => TraceRecord::jump(pc, &[r(9)]),
            _ => TraceRecord::new(pc, OpClass::Nop, &[], None),
        });
    }
    trace
}

/// The canonical identity encoding did not change with the layout: this
/// constant was computed before the record was packed, so a v2 checkpoint
/// taken then still resumes.
#[test]
fn trace_identity_is_unchanged() {
    let identity = TraceIdentity::of_records(&identity_trace());
    assert_eq!(identity.records, 300);
    assert_eq!(identity.prefix_crc, 0x5fe6_b194, "{identity}");
}
