//! Parametric synthetic traces with known dependency structure.
//!
//! These generators exist for testing and benchmarking the analyzer itself:
//! each has an analytically known critical path and parallelism, so analyzer
//! results can be asserted exactly. The paper's worked examples (Figures 1
//! and 2) are provided verbatim.

use crate::loc::Loc;
use crate::record::TraceRecord;
use paragraph_isa::OpClass;

/// Word addresses of the variables in the paper's Figures 1, 2 and 5:
/// `A`, `B`, `C`, `D` are pre-initialized DATA-segment values and `S` is the
/// result slot.
pub mod figure_vars {
    /// Address of `A`.
    pub const A: u64 = 0;
    /// Address of `B`.
    pub const B: u64 = 1;
    /// Address of `C`.
    pub const C: u64 = 2;
    /// Address of `D`.
    pub const D: u64 = 3;
    /// Address of `S`.
    pub const S: u64 = 4;
}

/// The execution trace of Figure 1 of the paper: `S := A + B + C + D`
/// compiled so that every value gets a fresh register (no storage
/// dependencies).
///
/// With unit latencies and pre-initialized `A..D`, its DDG has critical path
/// length 4 and parallelism profile `[4, 2, 1, 1]`.
///
/// # Examples
///
/// ```
/// let trace = paragraph_trace::synthetic::figure1();
/// assert_eq!(trace.len(), 8);
/// ```
pub fn figure1() -> Vec<TraceRecord> {
    use figure_vars::*;
    vec![
        TraceRecord::load(0, A, None, Loc::int(10)), // load r0,A (r10 avoids the zero reg)
        TraceRecord::load(1, B, None, Loc::int(11)), // load r1,B
        TraceRecord::compute(
            2,
            OpClass::IntAlu,
            &[Loc::int(10), Loc::int(11)],
            Loc::int(4),
        ),
        TraceRecord::load(3, C, None, Loc::int(12)), // load r2,C
        TraceRecord::load(4, D, None, Loc::int(13)), // load r3,D
        TraceRecord::compute(
            5,
            OpClass::IntAlu,
            &[Loc::int(12), Loc::int(13)],
            Loc::int(5),
        ),
        TraceRecord::compute(6, OpClass::IntAlu, &[Loc::int(4), Loc::int(5)], Loc::int(6)),
        TraceRecord::store(7, S, Loc::int(6), None),
    ]
}

/// The execution trace of Figure 2 of the paper: the same computation as
/// [`figure1`] but with registers `r0` and `r1` reused for `C` and `D`,
/// introducing storage dependencies.
///
/// Without renaming its DDG has critical path length 6 (profile
/// `[2, 1, 2, 1, 1, 1]`); with register renaming it matches Figure 1.
pub fn figure2() -> Vec<TraceRecord> {
    use figure_vars::*;
    vec![
        TraceRecord::load(0, A, None, Loc::int(10)),
        TraceRecord::load(1, B, None, Loc::int(11)),
        TraceRecord::compute(
            2,
            OpClass::IntAlu,
            &[Loc::int(10), Loc::int(11)],
            Loc::int(4),
        ),
        TraceRecord::load(3, C, None, Loc::int(10)), // reuses r0
        TraceRecord::load(4, D, None, Loc::int(11)), // reuses r1
        TraceRecord::compute(
            5,
            OpClass::IntAlu,
            &[Loc::int(10), Loc::int(11)],
            Loc::int(5),
        ),
        TraceRecord::compute(6, OpClass::IntAlu, &[Loc::int(4), Loc::int(5)], Loc::int(6)),
        TraceRecord::store(7, S, Loc::int(6), None),
    ]
}

/// A serial dependency chain of `n` integer ALU operations: every operation
/// reads the previous operation's result.
///
/// Critical path `n`, available parallelism 1.
pub fn chain(n: usize) -> Vec<TraceRecord> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let srcs = if i == 0 { vec![] } else { vec![Loc::int(1)] };
        out.push(TraceRecord::compute(
            i as u64,
            OpClass::IntAlu,
            &srcs,
            Loc::int(1),
        ));
    }
    out
}

/// `n` mutually independent integer ALU operations (each a load-immediate).
///
/// Critical path 1, available parallelism `n`.
pub fn independent(n: usize) -> Vec<TraceRecord> {
    (0..n)
        .map(|i| TraceRecord::compute(i as u64, OpClass::IntAlu, &[], Loc::int(1 + (i % 31) as u8)))
        .collect()
}

/// `chains` independent serial chains, each `len` operations long, round-
/// robin interleaved in the trace.
///
/// Critical path `len`, available parallelism `chains`. At most 62 chains
/// (one register per chain across both register files).
///
/// # Panics
///
/// Panics if `chains` is 0 or exceeds 62.
pub fn interleaved_chains(chains: usize, len: usize) -> Vec<TraceRecord> {
    assert!(
        (1..=62).contains(&chains),
        "chains must be in 1..=62, got {chains}"
    );
    let reg = |c: usize| -> Loc {
        if c < 31 {
            Loc::int(1 + c as u8)
        } else {
            Loc::fp((c - 31) as u8)
        }
    };
    let mut out = Vec::with_capacity(chains * len);
    let mut pc = 0u64;
    for step in 0..len {
        for c in 0..chains {
            let srcs = if step == 0 { vec![] } else { vec![reg(c)] };
            out.push(TraceRecord::compute(pc, OpClass::IntAlu, &srcs, reg(c)));
            pc += 1;
        }
    }
    out
}

/// A fan-out/fan-in diamond: one root, `width` independent middle operations
/// reading the root, and a binary reduction tree joining them.
///
/// With unit latencies the critical path is `2 + ceil(log2(width))` and the
/// widest level holds `width` operations.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn diamond(width: usize) -> Vec<TraceRecord> {
    assert!(width > 0, "diamond width must be positive");
    let mut out = Vec::new();
    let mut pc = 0u64;
    // Root value in memory word 0; middles write memory words 1..=width.
    out.push(TraceRecord::store(pc, 0, Loc::int(1), None));
    pc += 1;
    for i in 0..width {
        out.push(TraceRecord::load(pc, 0, None, Loc::int(2)));
        pc += 1;
        out.push(TraceRecord::store(pc, 1 + i as u64, Loc::int(2), None));
        pc += 1;
    }
    // Reduction tree over memory words.
    let mut frontier: Vec<u64> = (1..=width as u64).collect();
    let mut next_word = width as u64 + 1;
    while frontier.len() > 1 {
        let mut next = Vec::with_capacity(frontier.len().div_ceil(2));
        for pair in frontier.chunks(2) {
            if pair.len() == 1 {
                next.push(pair[0]);
                continue;
            }
            out.push(TraceRecord::load(pc, pair[0], None, Loc::int(3)));
            pc += 1;
            out.push(TraceRecord::load(pc, pair[1], None, Loc::int(4)));
            pc += 1;
            out.push(TraceRecord::compute(
                pc,
                OpClass::IntAlu,
                &[Loc::int(3), Loc::int(4)],
                Loc::int(5),
            ));
            pc += 1;
            out.push(TraceRecord::store(pc, next_word, Loc::int(5), None));
            pc += 1;
            next.push(next_word);
            next_word += 1;
        }
        frontier = next;
    }
    out
}

/// A counted loop kernel: `iterations` passes, each executing `body_ops`
/// independent ALU operations plus the loop-counter update and back-branch
/// the paper identifies as the recurrence "successive independent
/// iterations unroll around".
///
/// At the dataflow limit the critical path is `iterations` (the counter
/// chain) and the available parallelism approaches `body_ops + 1`.
pub fn counted_loop(iterations: usize, body_ops: usize) -> Vec<TraceRecord> {
    let mut out = Vec::with_capacity(iterations * (body_ops + 2));
    let mut pc = 0u64;
    for _ in 0..iterations {
        for b in 0..body_ops {
            // Independent work: overwrites rotate through registers 2..30.
            out.push(TraceRecord::compute(
                pc,
                OpClass::IntAlu,
                &[],
                Loc::int(2 + (b % 28) as u8),
            ));
            pc += 1;
        }
        // Counter update (the recurrence) and the loop branch.
        out.push(TraceRecord::compute(
            pc,
            OpClass::IntAlu,
            &[Loc::int(1)],
            Loc::int(1),
        ));
        pc += 1;
        out.push(TraceRecord::branch_outcome(pc, &[Loc::int(1)], true, 0));
        pc += 1;
    }
    out
}

/// A pointer chase through memory: `n` loads where each load's address is
/// the value produced by the previous one — the serial pattern of linked
/// lists and of the xlisp interpreter's `prog` recurrence.
///
/// Critical path `n` (loads are unit latency), available parallelism 1.
pub fn pointer_chase(n: usize) -> Vec<TraceRecord> {
    (0..n)
        .map(|i| TraceRecord::load(i as u64, i as u64, Some(Loc::int(1)), Loc::int(1)))
        .collect()
}

/// A producer/consumer ring through memory: `rounds` alternations where a
/// store publishes a value and a load consumes it, through `slots` buffer
/// words reused round-robin.
///
/// With memory renaming only the store→load true chains remain; without it
/// the slot reuse also orders rounds `slots` apart.
pub fn producer_consumer(rounds: usize, slots: usize) -> Vec<TraceRecord> {
    assert!(slots > 0, "need at least one buffer slot");
    let mut out = Vec::with_capacity(rounds * 3);
    let mut pc = 0u64;
    for r in 0..rounds {
        let slot = (r % slots) as u64;
        out.push(TraceRecord::compute(pc, OpClass::IntAlu, &[], Loc::int(2)));
        pc += 1;
        out.push(TraceRecord::store(pc, slot, Loc::int(2), None));
        pc += 1;
        out.push(TraceRecord::load(pc, slot, None, Loc::int(3)));
        pc += 1;
    }
    out
}

/// A deterministic pseudo-random trace for differential and property tests.
///
/// Operations are drawn from ALU/load/store/branch/syscall classes over a
/// small register file and memory, with dependencies arising naturally from
/// location reuse. The same `(n, seed)` pair always yields the same trace.
pub fn random_trace(n: usize, seed: u64) -> Vec<TraceRecord> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let pc = i as u64;
        let reg = |rng: &mut SplitMix64| Loc::int(1 + (rng.next() % 8) as u8);
        let addr = |rng: &mut SplitMix64| rng.next() % 32;
        let rec = match rng.next() % 100 {
            0..=39 => {
                let a = reg(&mut rng);
                let b = reg(&mut rng);
                let d = reg(&mut rng);
                TraceRecord::compute(pc, OpClass::IntAlu, &[a, b], d)
            }
            40..=54 => TraceRecord::load(pc, addr(&mut rng), Some(reg(&mut rng)), reg(&mut rng)),
            55..=69 => TraceRecord::store(pc, addr(&mut rng), reg(&mut rng), Some(reg(&mut rng))),
            70..=79 => {
                let a = reg(&mut rng);
                let d = reg(&mut rng);
                TraceRecord::compute(pc, OpClass::IntMul, &[a, d], d)
            }
            80..=89 => {
                let a = Loc::fp((rng.next() % 8) as u8);
                let b = Loc::fp((rng.next() % 8) as u8);
                let d = Loc::fp((rng.next() % 8) as u8);
                TraceRecord::compute(pc, OpClass::FpMul, &[a, b], d)
            }
            90..=97 => TraceRecord::branch(pc, &[reg(&mut rng)]),
            _ => TraceRecord::syscall(pc, &[], None),
        };
        out.push(rec);
    }
    out
}

/// Minimal deterministic PRNG (SplitMix64) so synthetic traces need no
/// external dependency in non-test builds.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_traces_have_eight_instructions() {
        assert_eq!(figure1().len(), 8);
        assert_eq!(figure2().len(), 8);
    }

    #[test]
    fn figure2_differs_from_figure1_only_in_registers() {
        let classes1: Vec<_> = figure1().iter().map(|r| r.class()).collect();
        let classes2: Vec<_> = figure2().iter().map(|r| r.class()).collect();
        assert_eq!(classes1, classes2);
        assert_ne!(figure1(), figure2());
    }

    #[test]
    fn chain_links_consecutive_ops() {
        let t = chain(5);
        assert_eq!(t.len(), 5);
        assert!(t[0].srcs().is_empty());
        for rec in &t[1..] {
            assert_eq!(*rec.srcs(), [Loc::int(1)]);
        }
    }

    #[test]
    fn independent_ops_have_no_sources() {
        for rec in independent(40) {
            assert!(rec.srcs().is_empty());
        }
    }

    #[test]
    fn interleaved_chains_dimensions() {
        let t = interleaved_chains(62, 3);
        assert_eq!(t.len(), 62 * 3);
    }

    #[test]
    #[should_panic(expected = "chains must be in")]
    fn too_many_chains_panics() {
        interleaved_chains(63, 1);
    }

    #[test]
    fn diamond_contains_width_middles() {
        let t = diamond(4);
        let stores = t.iter().filter(|r| r.class() == OpClass::Store).count();
        // Root store + 4 middle stores + 3 reduction stores.
        assert_eq!(stores, 8);
    }

    #[test]
    fn counted_loop_shape() {
        let t = counted_loop(10, 4);
        assert_eq!(t.len(), 10 * 6);
        let branches = t.iter().filter(|r| r.class() == OpClass::Branch).count();
        assert_eq!(branches, 10);
        assert!(t
            .iter()
            .filter(|r| r.class() == OpClass::Branch)
            .all(|r| r.branch_info().unwrap().taken));
    }

    #[test]
    fn pointer_chase_is_serial() {
        let t = pointer_chase(5);
        assert_eq!(t.len(), 5);
        for rec in &t {
            assert_eq!(rec.class(), OpClass::Load);
            assert_eq!(rec.dest(), Some(Loc::int(1)));
        }
    }

    #[test]
    fn producer_consumer_cycles_slots() {
        let t = producer_consumer(6, 2);
        assert_eq!(t.len(), 18);
        let stores: Vec<u64> = t
            .iter()
            .filter(|r| r.class() == OpClass::Store)
            .map(|r| r.mem_addr().unwrap())
            .collect();
        assert_eq!(stores, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "at least one buffer slot")]
    fn producer_consumer_needs_slots() {
        producer_consumer(1, 0);
    }

    #[test]
    fn random_trace_is_deterministic() {
        assert_eq!(random_trace(100, 7), random_trace(100, 7));
        assert_ne!(random_trace(100, 7), random_trace(100, 8));
    }

    #[test]
    fn random_trace_has_requested_length() {
        assert_eq!(random_trace(257, 1).len(), 257);
    }
}
