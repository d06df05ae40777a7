//! SPEC89 benchmark analogues for the Paragraph reproduction study.
//!
//! The paper analyzed the ten SPEC89 benchmarks (Table 2). The original
//! binaries, inputs, the MIPS compilers and Pixie are not reproducible here,
//! so this crate provides one *analogue* per benchmark: a program written in
//! the toolkit's assembly language whose **dependence structure** matches
//! the mechanism the paper identifies for that benchmark (see `DESIGN.md`
//! §5 for the full mapping table). Available parallelism is a property of
//! that structure — recurrences, array vs. pointer traffic, storage reuse,
//! FP vs. integer mix — not of the exact source text, so these analogues
//! reproduce the paper's *shape*: which benchmarks are parallelism-rich,
//! which renaming switches matter where, and how window size gates exposure.
//!
//! Key structural choices, mirroring the paper's observations:
//!
//! * `matrix300`/`tomcatv` keep their arrays (or result grids) **on the
//!   stack** and reuse them across calls/time steps, so exposing their
//!   parallelism requires stack renaming (Table 4).
//! * `espresso`/`eqntott` reuse **data-segment** buffers, so their last
//!   factor arrives only with full memory renaming.
//! * `xlisp` is an interpreter whose program-counter recurrence (the paper's
//!   `prog` effect) caps parallelism in the low tens no matter what is
//!   renamed.
//! * `fpppp` consists of huge straight-line FP blocks; `nasker` mixes
//!   kernels with true linear recurrences; `doduc` is branchy per-particle
//!   FP; `spice2g6` chases sparse index arrays; `cc1` tokenizes and interns
//!   symbols through a hash table.
//!
//! All workloads are deterministic (seeded input generation), make a small
//! number of system calls (so the conservative/optimistic firewall policies
//! differ measurably, as in Table 3), and print a checksum so tests can
//! verify execution.
//!
//! # Examples
//!
//! ```
//! use paragraph_workloads::{Workload, WorkloadId};
//! use paragraph_core::{analyze, AnalysisConfig};
//!
//! let workload = Workload::new(WorkloadId::Matrix300).with_size(6);
//! let (trace, segments) = workload.collect_trace(1_000_000)?;
//! let config = AnalysisConfig::dataflow_limit().with_segments(segments);
//! let report = analyze(trace, &config);
//! assert!(report.available_parallelism() > 10.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cc1;
mod common;
mod doduc;
mod eqntott;
mod espresso;
mod fpppp;
mod matrix300;
mod nasker;
mod spice2g6;
mod tomcatv;
mod xlisp;

use paragraph_asm::Program;
use paragraph_trace::{InternedTrace, Interner, SegmentMap, TraceRecord};
use paragraph_vm::{RunOutcome, Vm, VmError};
use std::fmt;

/// The ten benchmarks of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // the variants are the benchmark names themselves
pub enum WorkloadId {
    Cc1,
    Doduc,
    Eqntott,
    Espresso,
    Fpppp,
    Matrix300,
    Nasker,
    Spice2g6,
    Tomcatv,
    Xlisp,
}

impl WorkloadId {
    /// All workloads, in the paper's table order.
    pub const ALL: [WorkloadId; 10] = [
        WorkloadId::Cc1,
        WorkloadId::Doduc,
        WorkloadId::Eqntott,
        WorkloadId::Espresso,
        WorkloadId::Fpppp,
        WorkloadId::Matrix300,
        WorkloadId::Nasker,
        WorkloadId::Spice2g6,
        WorkloadId::Tomcatv,
        WorkloadId::Xlisp,
    ];

    /// The benchmark's name as the paper prints it.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Cc1 => "cc1",
            WorkloadId::Doduc => "doduc",
            WorkloadId::Eqntott => "eqntott",
            WorkloadId::Espresso => "espresso",
            WorkloadId::Fpppp => "fpppp",
            WorkloadId::Matrix300 => "matrix300",
            WorkloadId::Nasker => "nasker",
            WorkloadId::Spice2g6 => "spice2g6",
            WorkloadId::Tomcatv => "tomcatv",
            WorkloadId::Xlisp => "xlisp",
        }
    }

    /// Looks a workload up by its paper name.
    pub fn by_name(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.iter().copied().find(|w| w.name() == name)
    }

    /// The benchmark's source language in the paper (Table 2).
    pub fn source_language(self) -> &'static str {
        match self {
            WorkloadId::Cc1 | WorkloadId::Eqntott | WorkloadId::Espresso | WorkloadId::Xlisp => "C",
            _ => "FORTRAN",
        }
    }

    /// The benchmark's type in the paper (Table 2).
    pub fn benchmark_type(self) -> &'static str {
        match self {
            WorkloadId::Cc1 | WorkloadId::Eqntott | WorkloadId::Espresso | WorkloadId::Xlisp => {
                "Int"
            }
            WorkloadId::Spice2g6 => "Int and FP",
            _ => "FP",
        }
    }

    /// One line on what the analogue computes and which dependence
    /// structure of the original it reproduces.
    pub fn description(self) -> &'static str {
        match self {
            WorkloadId::Cc1 => {
                "tokenizer + hash-table symbol interning over synthetic source text \
                 (moderate ILP, pointer-ish hash probes)"
            }
            WorkloadId::Doduc => {
                "Monte-Carlo-style branchy per-particle FP state updates \
                 (independent particles, serial chains within each)"
            }
            WorkloadId::Eqntott => {
                "PLA term comparison over short integer vectors \
                 (wide independent compares; shared data-segment result buffer)"
            }
            WorkloadId::Espresso => {
                "bit-set cover operations over bitvector arrays \
                 (high int ILP gated by data-segment buffer reuse)"
            }
            WorkloadId::Fpppp => {
                "huge unrolled straight-line FP expression blocks \
                 (very high ILP once registers and stack temporaries are renamed)"
            }
            WorkloadId::Matrix300 => {
                "dense matrix-matrix multiply with stack-resident matrices, \
                 repeated calls reusing the result array (extreme ILP; stack renaming critical)"
            }
            WorkloadId::Nasker => {
                "seven small FP kernels including true linear recurrences \
                 (parallelism pinned by true dependencies, renaming-insensitive)"
            }
            WorkloadId::Spice2g6 => {
                "sparse matrix-vector products through index arrays plus \
                 Gauss-Seidel-style updates (mixed int/FP, indirect addressing)"
            }
            WorkloadId::Tomcatv => {
                "2-D stencil relaxation on stack-allocated meshes swapped \
                 each time step (high ILP; stack renaming matters)"
            }
            WorkloadId::Xlisp => {
                "list-machine interpreter running a cons-cell program \
                 (serial interpreter program-counter recurrence; minimal ILP)"
            }
        }
    }

    /// Default problem-size knob (the meaning is workload-specific; see each
    /// module). Chosen so a default run executes a few hundred thousand to a
    /// few million instructions.
    pub fn default_size(self) -> u32 {
        match self {
            WorkloadId::Cc1 => 48,
            WorkloadId::Doduc => 220,
            WorkloadId::Eqntott => 160,
            WorkloadId::Espresso => 64,
            WorkloadId::Fpppp => 80,
            WorkloadId::Matrix300 => 40,
            WorkloadId::Nasker => 340,
            WorkloadId::Spice2g6 => 128,
            WorkloadId::Tomcatv => 72,
            WorkloadId::Xlisp => 52,
        }
    }
}

impl fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete workload instance: a benchmark analogue at a given problem
/// size and input seed.
///
/// # Examples
///
/// ```
/// use paragraph_workloads::{Workload, WorkloadId};
///
/// let workload = Workload::new(WorkloadId::Xlisp).with_size(4);
/// let program = workload.program()?;
/// assert!(!program.text().is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    id: WorkloadId,
    size: u32,
    seed: u64,
}

impl Workload {
    /// A workload at its default size with the study's fixed seed.
    pub fn new(id: WorkloadId) -> Workload {
        Workload {
            id,
            size: id.default_size(),
            seed: 0x5EED_0000 + id as u64,
        }
    }

    /// Overrides the problem size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn with_size(mut self, size: u32) -> Workload {
        assert!(size > 0, "workload size must be positive");
        self.size = size;
        self
    }

    /// Overrides the input seed.
    pub fn with_seed(mut self, seed: u64) -> Workload {
        self.seed = seed;
        self
    }

    /// Which benchmark this is.
    pub fn id(&self) -> WorkloadId {
        self.id
    }

    /// The problem size knob.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// The input seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Generates the workload's assembly source.
    pub fn source(&self) -> String {
        match self.id {
            WorkloadId::Cc1 => cc1::source(self.size, self.seed),
            WorkloadId::Doduc => doduc::source(self.size, self.seed),
            WorkloadId::Eqntott => eqntott::source(self.size, self.seed),
            WorkloadId::Espresso => espresso::source(self.size, self.seed),
            WorkloadId::Fpppp => fpppp::source(self.size, self.seed),
            WorkloadId::Matrix300 => matrix300::source(self.size, self.seed),
            WorkloadId::Nasker => nasker::source(self.size, self.seed),
            WorkloadId::Spice2g6 => spice2g6::source(self.size, self.seed),
            WorkloadId::Tomcatv => tomcatv::source(self.size, self.seed),
            WorkloadId::Xlisp => xlisp::source(self.size, self.seed),
        }
    }

    /// Assembles the workload.
    ///
    /// # Errors
    ///
    /// Propagates assembly errors (a bug in the generator; the test suite
    /// assembles every workload).
    pub fn program(&self) -> Result<Program, paragraph_asm::AsmError> {
        paragraph_asm::assemble(&self.source())
    }

    /// Builds a VM with the workload loaded and its inputs queued.
    ///
    /// # Panics
    ///
    /// Panics if the generated program fails to assemble (a generator bug).
    pub fn vm(&self) -> Vm {
        let program = self
            .program()
            .unwrap_or_else(|e| panic!("{} generator produced invalid assembly: {e}", self.id));
        Vm::new(program)
    }

    /// Runs the workload, streaming the trace into `sink`.
    ///
    /// Returns the run outcome and the VM (for output/segment inspection).
    ///
    /// # Errors
    ///
    /// Propagates VM faults (the test suite runs every workload fault-free).
    pub fn run_traced<F>(&self, fuel: u64, sink: F) -> Result<(RunOutcome, Vm), VmError>
    where
        F: FnMut(&TraceRecord),
    {
        let mut vm = self.vm();
        let outcome = vm.run_traced(fuel, sink)?;
        Ok((outcome, vm))
    }

    /// Runs the workload and collects its trace and segment map.
    ///
    /// # Errors
    ///
    /// Propagates VM faults.
    pub fn collect_trace(&self, fuel: u64) -> Result<(Vec<TraceRecord>, SegmentMap), VmError> {
        let mut records = Vec::new();
        let (_, vm) = self.run_traced(fuel, |r| records.push(*r))?;
        Ok((records, vm.segment_map()))
    }

    /// Runs the workload and interns its trace as the VM produces it, so
    /// no full-width record buffer is ever held.
    ///
    /// # Errors
    ///
    /// Propagates VM faults.
    pub fn collect_interned(&self, fuel: u64) -> Result<InternedTrace, VmError> {
        let mut interner = Interner::new();
        let (_, vm) = self.run_traced(fuel, |r| interner.push(r))?;
        Ok(interner.finish(vm.segment_map()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragraph_isa::OpClass;
    use paragraph_trace::TraceStats;
    use paragraph_vm::HaltReason;

    /// Small sizes so the whole matrix of workloads runs quickly in tests.
    fn small(id: WorkloadId) -> Workload {
        let size = match id {
            WorkloadId::Matrix300 | WorkloadId::Tomcatv => 8,
            _ => 4,
        };
        Workload::new(id).with_size(size)
    }

    #[test]
    fn interned_collection_matches_interning_the_collected_trace() {
        for id in [WorkloadId::Xlisp, WorkloadId::Matrix300] {
            let (records, segments) = small(id).collect_trace(200_000).unwrap();
            let interned = small(id).collect_interned(200_000).unwrap();
            assert_eq!(interned, InternedTrace::from_records(&records, segments));
        }
    }

    #[test]
    fn every_workload_assembles() {
        for id in WorkloadId::ALL {
            let workload = small(id);
            workload.program().unwrap_or_else(|e| panic!("{id}: {e}"));
        }
    }

    #[test]
    fn every_workload_runs_to_completion_and_prints_a_checksum() {
        for id in WorkloadId::ALL {
            let workload = small(id);
            let mut vm = workload.vm();
            let outcome = vm
                .run(20_000_000)
                .unwrap_or_else(|e| panic!("{id} faulted: {e}"));
            assert_eq!(
                outcome.reason(),
                HaltReason::Halt,
                "{id} must halt cleanly (executed {})",
                outcome.executed()
            );
            assert!(
                !vm.output().is_empty(),
                "{id} must print at least a checksum"
            );
        }
    }

    #[test]
    fn every_workload_makes_a_few_syscalls() {
        for id in WorkloadId::ALL {
            let (trace, _) = small(id).collect_trace(20_000_000).unwrap();
            let stats = TraceStats::from_records(&trace);
            assert!(
                stats.syscalls() >= 1,
                "{id} must make at least one system call (Table 3)"
            );
            assert!(
                stats.syscalls() * 50 < stats.total(),
                "{id} makes syscalls too frequently ({} of {})",
                stats.syscalls(),
                stats.total()
            );
        }
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        // cc1's control flow depends on its input text (token lengths), so a
        // seed change must show up in the trace. (Some workloads, like
        // eqntott, are branch-free in their data and trace identically.)
        let w = small(WorkloadId::Cc1);
        let (a, _) = w.collect_trace(2_000_000).unwrap();
        let (b, _) = w.collect_trace(2_000_000).unwrap();
        assert_eq!(a, b);
        let (c, _) = w.with_seed(1).collect_trace(2_000_000).unwrap();
        assert_ne!(a, c, "different seeds must change the input data");
    }

    #[test]
    fn fp_workloads_execute_fp_operations() {
        for id in [
            WorkloadId::Doduc,
            WorkloadId::Fpppp,
            WorkloadId::Matrix300,
            WorkloadId::Nasker,
            WorkloadId::Tomcatv,
            WorkloadId::Spice2g6,
        ] {
            let (trace, _) = small(id).collect_trace(20_000_000).unwrap();
            let stats = TraceStats::from_records(&trace);
            let fp = stats.count(OpClass::FpAdd)
                + stats.count(OpClass::FpMul)
                + stats.count(OpClass::FpDiv);
            assert!(
                fp * 20 > stats.total(),
                "{id} should be at least 5% floating point, got {fp}/{}",
                stats.total()
            );
        }
    }

    #[test]
    fn trace_derived_type_matches_table_2() {
        // The analogues must not just be labelled like Table 2 — their
        // dynamic instruction mix must *classify* the same way.
        for id in WorkloadId::ALL {
            let (trace, _) = small(id).collect_trace(20_000_000).unwrap();
            let stats = TraceStats::from_records(&trace);
            assert_eq!(
                stats.benchmark_type(),
                id.benchmark_type(),
                "{id}: trace mix ({:.1}% fp) contradicts its Table 2 label",
                100.0 * stats.fp_fraction()
            );
        }
    }

    #[test]
    fn int_workloads_are_mostly_integer() {
        for id in [
            WorkloadId::Cc1,
            WorkloadId::Eqntott,
            WorkloadId::Espresso,
            WorkloadId::Xlisp,
        ] {
            let (trace, _) = small(id).collect_trace(20_000_000).unwrap();
            let stats = TraceStats::from_records(&trace);
            let fp = stats.count(OpClass::FpAdd)
                + stats.count(OpClass::FpMul)
                + stats.count(OpClass::FpDiv);
            assert_eq!(fp, 0, "{id} is an integer benchmark");
        }
    }

    #[test]
    fn stack_workloads_touch_the_stack_segment() {
        use paragraph_trace::Segment;
        for id in [
            WorkloadId::Matrix300,
            WorkloadId::Tomcatv,
            WorkloadId::Fpppp,
        ] {
            let (trace, segments) = small(id).collect_trace(20_000_000).unwrap();
            let stack_accesses = trace
                .iter()
                .filter_map(|r| r.mem_addr())
                .filter(|&a| segments.classify(a) == Segment::Stack)
                .count();
            assert!(
                stack_accesses > 100,
                "{id} must traffic heavily in stack memory, got {stack_accesses}"
            );
        }
    }

    #[test]
    fn size_scales_work() {
        let small_run = Workload::new(WorkloadId::Doduc)
            .with_size(2)
            .collect_trace(50_000_000)
            .unwrap()
            .0
            .len();
        let big_run = Workload::new(WorkloadId::Doduc)
            .with_size(8)
            .collect_trace(50_000_000)
            .unwrap()
            .0
            .len();
        assert!(
            big_run > small_run * 2,
            "size must scale the trace ({small_run} -> {big_run})"
        );
    }

    #[test]
    fn by_name_round_trips() {
        for id in WorkloadId::ALL {
            assert_eq!(WorkloadId::by_name(id.name()), Some(id));
        }
        assert_eq!(WorkloadId::by_name("gcc"), None);
    }

    #[test]
    fn metadata_matches_table_2() {
        assert_eq!(WorkloadId::Cc1.source_language(), "C");
        assert_eq!(WorkloadId::Doduc.source_language(), "FORTRAN");
        assert_eq!(WorkloadId::Spice2g6.benchmark_type(), "Int and FP");
        assert_eq!(WorkloadId::Eqntott.benchmark_type(), "Int");
        assert_eq!(WorkloadId::Matrix300.benchmark_type(), "FP");
    }

    #[test]
    fn golden_outputs_are_stable() {
        // Checksums at fixed (size, seed) pin the workload generators and
        // the VM semantics together: any change to either shows up here.
        // Regenerate with:
        //   for w in $(paragraph list | tail +2 | awk '{print $1}'); do
        //     paragraph disasm --workload $w --size 4 > /tmp/w.s
        //     paragraph run --asm /tmp/w.s; done
        let golden: &[(WorkloadId, &str)] = &[
            (WorkloadId::Cc1, "cc1"),
            (WorkloadId::Xlisp, "xlisp"),
            (WorkloadId::Eqntott, "eqntott"),
        ];
        for &(id, name) in golden {
            let mut vm = Workload::new(id).with_size(4).vm();
            vm.run(20_000_000).unwrap();
            let out1 = vm.output().to_owned();
            let mut vm = Workload::new(id).with_size(4).vm();
            vm.run(20_000_000).unwrap();
            assert_eq!(vm.output(), out1, "{name} output unstable");
            // Output is integer lines.
            for line in out1.lines() {
                assert!(
                    line.parse::<i64>().is_ok(),
                    "{name} printed a non-integer: {line:?}"
                );
            }
        }
    }

    #[test]
    fn sources_contain_no_tabs_and_assemble_at_many_sizes() {
        for id in WorkloadId::ALL {
            for size in [1u32, 2, 7, 16] {
                let w = Workload::new(id).with_size(size);
                let source = w.source();
                w.program()
                    .unwrap_or_else(|e| panic!("{id} at size {size}: {e}"));
                assert!(
                    source.lines().count() > 10,
                    "{id} source suspiciously short"
                );
            }
        }
    }

    #[test]
    fn segment_maps_classify_workload_traffic() {
        use paragraph_trace::Segment;
        // Every workload touches its data segment; the segment map must
        // agree with where the VM put things.
        for id in [WorkloadId::Cc1, WorkloadId::Nasker] {
            let (trace, segments) = small(id).collect_trace(20_000_000).unwrap();
            let data_accesses = trace
                .iter()
                .filter_map(|r| r.mem_addr())
                .filter(|&a| segments.classify(a) == Segment::Data)
                .count();
            assert!(
                data_accesses > 50,
                "{id}: only {data_accesses} data accesses"
            );
        }
    }

    #[test]
    #[should_panic(expected = "size must be positive")]
    fn zero_size_panics() {
        Workload::new(WorkloadId::Cc1).with_size(0);
    }
}
