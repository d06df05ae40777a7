//! Seeded inputs and their reference outputs.
//!
//! Every input is a pure function of the benchmark seed. References come
//! from the in-process sequential analyzer (`LiveWell::process_slice`, the
//! same engine as `analyze_slice`), fed while the trace is generated so no
//! trace is ever held whole in memory here.

use crate::spans;
use paragraph_core::{AnalysisConfig, LiveWell, RenameSet, WindowSize};
use paragraph_isa::OpClass;
use paragraph_trace::binary::TraceWriter;
use paragraph_trace::{Loc, SegmentMap, TraceRecord};
use paragraph_workloads::{Workload, WorkloadId};
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};

/// Records per batch handed to the analyzers and the writer.
const BATCH: usize = 1 << 16;

/// SplitMix64 step: derives independent sub-seeds from the benchmark seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One trace file written during set-up.
#[derive(Debug, Clone)]
pub struct TraceFile {
    /// Short label (workload name or generator name).
    pub label: String,
    /// Where it was written.
    pub path: PathBuf,
    /// Records in the trace.
    pub records: u64,
    /// Size on disk.
    pub bytes: u64,
}

/// The configuration `paragraph analyze --rename MODE [--window W]`
/// builds, before the trace's segment map is applied.
pub fn cli_config(rename_all: bool, window: Option<usize>) -> AnalysisConfig {
    let renames = if rename_all {
        RenameSet::all()
    } else {
        RenameSet::none()
    };
    let config = AnalysisConfig::dataflow_limit().with_renames(renames);
    match window {
        Some(w) => config.with_window(WindowSize::bounded(w)),
        None => config,
    }
}

/// Sink for generated records: an optional trace file plus analyzers that
/// produce the references, fed in batches.
struct Sink {
    writer: Option<TraceWriter<BufWriter<File>>>,
    wells: Vec<LiveWell>,
    batch: Vec<TraceRecord>,
    records: u64,
    cap: u64,
    error: Option<io::Error>,
}

impl Sink {
    fn new(
        path: Option<&Path>,
        segments: SegmentMap,
        configs: &[AnalysisConfig],
        cap: u64,
    ) -> io::Result<Sink> {
        let writer = match path {
            Some(p) => Some(TraceWriter::new(
                BufWriter::new(File::create(p)?),
                segments,
            )?),
            None => None,
        };
        Ok(Sink {
            writer,
            wells: configs
                .iter()
                .map(|c| LiveWell::new(c.clone().with_segments(segments)))
                .collect(),
            batch: Vec::with_capacity(BATCH),
            records: 0,
            cap,
            error: None,
        })
    }

    fn push(&mut self, record: &TraceRecord) {
        if self.records >= self.cap {
            return;
        }
        self.records += 1;
        self.batch.push(*record);
        if self.batch.len() == BATCH {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if let Some(w) = self.writer.as_mut() {
            let _s = spans::span("trace.binary.write");
            for r in &self.batch {
                if let Err(e) = w.write_record(r) {
                    self.error.get_or_insert(e);
                }
            }
        }
        for well in &mut self.wells {
            let _s = spans::span("core.livewell");
            well.process_slice(&self.batch);
        }
        self.batch.clear();
    }

    /// Finishes the file and the analyzers; returns the reference JSONs.
    fn finish(mut self) -> io::Result<(u64, Vec<String>)> {
        self.flush();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if let Some(w) = self.writer.take() {
            let _s = spans::span("trace.binary.write");
            w.finish()?;
        }
        let refs = self
            .wells
            .into_iter()
            .map(|w| w.finish().to_json())
            .collect();
        Ok((self.records, refs))
    }
}

/// Runs `workload` on the VM, writing its trace to `path` (when given) and
/// analyzing it under each of `configs`. At most `cap` records are kept.
pub fn trace_workload(
    workload: &Workload,
    path: Option<&Path>,
    configs: &[AnalysisConfig],
    cap: u64,
) -> io::Result<(u64, Vec<String>)> {
    let mut vm = workload.vm();
    let mut sink = Sink::new(path, vm.segment_map(), configs, cap)?;
    {
        let _s = spans::span("vm");
        vm.run_traced(paragraph_vm::DEFAULT_FUEL, |r| sink.push(r))
            .map_err(|e| io::Error::other(format!("{}: {e}", workload.id())))?;
    }
    sink.finish()
}

fn file_len(path: &Path) -> io::Result<u64> {
    Ok(std::fs::metadata(path)?.len())
}

/// The `spec-suite` inputs: the ten SPEC89 analogues traced at the seed,
/// with reference reports for `--rename all` and `--rename none`.
pub fn spec_suite(dir: &Path, seed: u64) -> io::Result<Vec<(TraceFile, [String; 2])>> {
    let configs = [cli_config(true, None), cli_config(false, None)];
    WorkloadId::ALL
        .iter()
        .map(|&id| {
            let path = dir.join(format!("{}.trace", id.name()));
            let workload = Workload::new(id).with_seed(mix(seed, id as u64));
            let (records, refs) = trace_workload(&workload, Some(&path), &configs, u64::MAX)?;
            let [all, none]: [String; 2] = refs
                .try_into()
                .map_err(|_| io::Error::other("two references expected"))?;
            let file = TraceFile {
                label: id.name().to_owned(),
                bytes: file_len(&path)?,
                path,
                records,
            };
            Ok((file, [all, none]))
        })
        .collect()
}

/// Segment boundaries of the synthetic word-addressed trace: data below
/// `HEAP_BASE`, heap above it, stack above `STACK_FLOOR`.
const HEAP_BASE: u64 = 1 << 22;
const STACK_FLOOR: u64 = 1 << 26;

/// Records in the `memwalk-jobs` trace.
pub const MEMWALK_RECORDS: u64 = 10_000_000;

/// A conservative system call every this many records: the firewall cut
/// points `--jobs` segments at.
pub const MEMWALK_SYSCALL_EVERY: u64 = 10_000;

/// The memory-walk generator: a stack frame whose spills land on a few
/// nearby words, sequential heap walks with loads biased to recent words,
/// sparse far pointers, register compute and branches, and a conservative
/// system call every [`MEMWALK_SYSCALL_EVERY`] records.
struct Memwalk {
    state: u64,
    i: u64,
    heap: u64,
    sp: u64,
}

impl Memwalk {
    fn new(seed: u64) -> Memwalk {
        Memwalk {
            state: seed,
            i: 0,
            heap: HEAP_BASE,
            sp: STACK_FLOOR + (1 << 12),
        }
    }

    fn rand(&mut self) -> u64 {
        self.state = mix(self.state, 1);
        self.state
    }

    fn reg(&mut self) -> Loc {
        Loc::int(1 + (self.rand() % 8) as u8)
    }

    fn next(&mut self) -> TraceRecord {
        let pc = 0x40_0000 + self.i * 4;
        self.i += 1;
        if self.i.is_multiple_of(MEMWALK_SYSCALL_EVERY) {
            return TraceRecord::syscall(pc, &[], None);
        }
        let stack_addr = self.sp + self.rand() % 24;
        match self.rand() % 100 {
            0..=34 => {
                let (a, b, d) = (self.reg(), self.reg(), self.reg());
                TraceRecord::compute(pc, OpClass::IntAlu, &[a, b], d)
            }
            35..=49 => {
                let (base, d) = (self.reg(), self.reg());
                TraceRecord::load(pc, stack_addr, Some(base), d)
            }
            50..=62 => {
                let (v, base) = (self.reg(), self.reg());
                TraceRecord::store(pc, stack_addr, v, Some(base))
            }
            63..=72 => {
                self.heap += 1;
                let v = self.reg();
                TraceRecord::store(pc, self.heap, v, None)
            }
            73..=80 => {
                let back = 1 + self.rand() % 512;
                let d = self.reg();
                TraceRecord::load(pc, self.heap.saturating_sub(back).max(HEAP_BASE), None, d)
            }
            81..=82 => {
                let far = HEAP_BASE + self.rand() % (1 << 22);
                let d = self.reg();
                TraceRecord::load(pc, far, None, d)
            }
            83..=92 => {
                match self.rand() % 8 {
                    0 => self.sp = (self.sp - (16 + self.rand() % 16)).max(STACK_FLOOR + 64),
                    1 => self.sp = (self.sp + 16 + self.rand() % 16).min(STACK_FLOOR + (1 << 14)),
                    _ => {}
                }
                let s = self.reg();
                TraceRecord::branch(pc, &[s])
            }
            _ => {
                let a = Loc::fp((self.rand() % 8) as u8);
                let b = Loc::fp((self.rand() % 8) as u8);
                let d = Loc::fp((self.rand() % 8) as u8);
                TraceRecord::compute(pc, OpClass::FpMul, &[a, b], d)
            }
        }
    }
}

/// The `memwalk-jobs` input: the synthetic trace and its `--rename none`
/// reference report.
pub fn memwalk(dir: &Path, seed: u64) -> io::Result<(TraceFile, String)> {
    let path = dir.join("memwalk.trace");
    let segments = SegmentMap::new(HEAP_BASE, STACK_FLOOR);
    let mut sink = Sink::new(Some(&path), segments, &[cli_config(false, None)], u64::MAX)?;
    let mut generator = Memwalk::new(mix(seed, 0x6d65_6d77));
    for _ in 0..MEMWALK_RECORDS {
        let r = generator.next();
        sink.push(&r);
    }
    let (records, mut refs) = sink.finish()?;
    let file = TraceFile {
        label: "memwalk".to_owned(),
        bytes: file_len(&path)?,
        path,
        records,
    };
    Ok((file, refs.remove(0)))
}

/// Window ladder of the Figure 8 grid (thirteen windows plus unbounded).
pub const FIG8_WINDOWS: [usize; 13] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 1_024, 4_096, 16_384, 65_536,
];

/// The configuration of one grid cell (`None` = unbounded window), as
/// `paragraph sweep` builds it before the workload's segment map.
pub fn fig8_config(window: Option<usize>) -> AnalysisConfig {
    let config = AnalysisConfig::dataflow_limit();
    match window {
        Some(w) => config.with_window(WindowSize::bounded(w)),
        None => config,
    }
}

/// Cell labels in grid order for one workload (`w1` … `w65536`, `full`).
pub fn fig8_ladder() -> Vec<(String, Option<usize>)> {
    FIG8_WINDOWS
        .iter()
        .map(|&w| (format!("w{w}"), Some(w)))
        .chain(std::iter::once(("full".to_owned(), None)))
        .collect()
}

/// The workload seed `paragraph sweep --seed` gets for benchmark `seed`.
pub fn fig8_seed(seed: u64) -> u64 {
    mix(seed, 0x6669_6738)
}

/// One reference cell of the grid.
#[derive(Debug, Clone)]
pub struct CellRef {
    /// `<workload>@<label>`, the sweep's artifact stem.
    pub stem: String,
    /// Records the cell analyzes.
    pub records: u64,
    /// Reference report JSON.
    pub json: String,
}

/// References for every cell of the Figure 8 grid at `seed`, computed on
/// `jobs` threads (workloads dealt round-robin).
pub fn fig8_refs(seed: u64, jobs: usize) -> io::Result<Vec<CellRef>> {
    let ladder = fig8_ladder();
    let configs: Vec<AnalysisConfig> = ladder.iter().map(|(_, w)| fig8_config(*w)).collect();
    let per_workload: Vec<io::Result<Vec<CellRef>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs.max(1))
            .map(|t| {
                let (ladder, configs) = (&ladder, &configs);
                scope.spawn(move || {
                    WorkloadId::ALL
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % jobs.max(1) == t)
                        .map(|(i, &id)| {
                            let w = Workload::new(id).with_seed(fig8_seed(seed));
                            let (records, refs) = trace_workload(&w, None, configs, u64::MAX)?;
                            let cells = ladder
                                .iter()
                                .zip(refs)
                                .map(|((label, _), json)| CellRef {
                                    stem: format!("{}@{label}", id.name()),
                                    records,
                                    json,
                                })
                                .collect();
                            Ok((i, cells))
                        })
                        .collect::<Vec<io::Result<(usize, Vec<CellRef>)>>>()
                })
            })
            .collect();
        let mut all: Vec<(usize, io::Result<Vec<CellRef>>)> = Vec::new();
        for h in handles {
            let results = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            for r in results {
                match r {
                    Ok((i, cells)) => all.push((i, Ok(cells))),
                    Err(e) => all.push((usize::MAX, Err(e))),
                }
            }
        }
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, r)| r).collect()
    });
    let mut cells = Vec::new();
    for r in per_workload {
        cells.extend(r?);
    }
    Ok(cells)
}

/// Workloads and problem sizes of the `serve-mixed` trace pool: real
/// program traces small enough for the daemon's strict upload limits.
pub const SERVE_POOL: [(WorkloadId, u32); 4] = [
    (WorkloadId::Cc1, 24),
    (WorkloadId::Doduc, 120),
    (WorkloadId::Spice2g6, 40),
    (WorkloadId::Espresso, 16),
];

/// Records kept per pool trace: under the strict upload cap (65 536).
pub const SERVE_RECORD_CAP: u64 = 60_000;

/// The `serve-mixed` pool: small seeded traces (references come from the
/// CLI, see `e2e::serve_pool`).
pub fn serve_pool(dir: &Path, seed: u64) -> io::Result<Vec<TraceFile>> {
    SERVE_POOL
        .iter()
        .map(|&(id, size)| {
            let path = dir.join(format!("{}.trace", id.name()));
            let w = Workload::new(id)
                .with_size(size)
                .with_seed(mix(seed, 0x5e00 + id as u64));
            let (records, _) = trace_workload(&w, Some(&path), &[], SERVE_RECORD_CAP)?;
            Ok(TraceFile {
                label: id.name().to_owned(),
                bytes: file_len(&path)?,
                path,
                records,
            })
        })
        .collect()
}

/// A one-record trace: `paragraph analyze` on it measures the CLI's fixed
/// cost.
pub fn one_record(dir: &Path) -> io::Result<PathBuf> {
    let path = dir.join("one.trace");
    let mut w = TraceWriter::new(BufWriter::new(File::create(&path)?), SegmentMap::default())?;
    w.write_record(&TraceRecord::compute(
        0x1000,
        OpClass::IntAlu,
        &[Loc::int(1)],
        Loc::int(2),
    ))?;
    w.finish()?;
    Ok(path)
}

/// CRC32 of a file's bytes, to check that set-up is deterministic.
pub fn digest(path: &Path) -> io::Result<u32> {
    Ok(paragraph_trace::crc32::crc32(&std::fs::read(path)?))
}
