//! End-to-end integration tests across the whole toolkit: assembler → VM →
//! trace format → analyzers.

use paragraph::asm::assemble;
use paragraph::core::{analyze_refs, AnalysisConfig, Ddg, LiveWell};
use paragraph::trace::binary::{TraceReader, TraceWriter};
use paragraph::vm::Vm;
use paragraph::workloads::{Workload, WorkloadId};

#[test]
fn assemble_run_analyze_round_trip() {
    let program = assemble(
        "
        .data
    xs: .word 3, 1, 4, 1, 5, 9, 2, 6
        .text
    main:
        li   r8, 0          # i
        li   r9, 8          # n
        li   r10, 0         # max
        la   r11, xs
    loop:
        add  r12, r11, r8
        lw   r13, 0(r12)
        slt  r14, r10, r13
        beqz r14, skip
        mv   r10, r13
    skip:
        addi r8, r8, 1
        blt  r8, r9, loop
        mv   r4, r10
        li   r2, 1
        syscall
        halt
    ",
    )
    .expect("program assembles");
    let mut vm = Vm::new(program);
    let (trace, outcome) = vm.run_collect(10_000).expect("program runs");
    assert!(outcome.halted());
    assert_eq!(vm.output(), "9\n"); // max of the data

    let config = AnalysisConfig::dataflow_limit().with_segments(vm.segment_map());
    let report = analyze_refs(&trace, &config);
    assert_eq!(report.total_records() + 1, outcome.executed()); // halt untraced
    assert!(report.available_parallelism() > 1.0);
    assert_eq!(report.syscalls(), 1);
}

#[test]
fn trace_survives_binary_format() {
    // Capture a real workload trace, write it through the binary format,
    // read it back, and check the analysis is bit-identical.
    let workload = Workload::new(WorkloadId::Cc1).with_size(3);
    let (trace, segments) = workload.collect_trace(5_000_000).unwrap();

    let mut buf = Vec::new();
    let mut writer = TraceWriter::new(&mut buf, segments).unwrap();
    for r in &trace {
        writer.write_record(r).unwrap();
    }
    let written = writer.finish().unwrap();
    assert_eq!(written as usize, trace.len());

    let mut reader = TraceReader::new(buf.as_slice()).unwrap();
    assert_eq!(reader.segment_map(), segments);
    let decoded: Vec<_> = reader.by_ref().map(|r| r.unwrap()).collect();
    assert_eq!(decoded, trace);

    let config = AnalysisConfig::dataflow_limit().with_segments(segments);
    let direct = analyze_refs(&trace, &config);
    let via_file = analyze_refs(&decoded, &config);
    assert_eq!(
        direct.critical_path_length(),
        via_file.critical_path_length()
    );
    assert_eq!(direct.placed_ops(), via_file.placed_ops());

    // And the binary format earns its keep: notably smaller than the
    // in-memory record size.
    assert!(buf.len() < trace.len() * std::mem::size_of::<paragraph::trace::TraceRecord>() / 4);
}

#[test]
fn streaming_and_explicit_analyzers_agree_on_real_traces() {
    // The live well and the explicit graph builder are two implementations
    // of the same placement rule; they must agree on every workload.
    for id in [WorkloadId::Xlisp, WorkloadId::Espresso, WorkloadId::Doduc] {
        let workload = Workload::new(id).with_size(3);
        let (trace, segments) = workload.collect_trace(2_000_000).unwrap();
        let config = AnalysisConfig::dataflow_limit().with_segments(segments);
        let mut well = LiveWell::new(config.clone());
        well.process_all(&trace);
        let report = well.finish();
        let ddg = Ddg::from_records(&trace, &config);
        assert_eq!(
            ddg.height(),
            report.critical_path_length(),
            "critical paths diverge on {id}"
        );
        assert_eq!(ddg.len() as u64, report.placed_ops());
        assert_eq!(
            ddg.parallelism_profile().exact_counts(),
            report.profile().exact_counts(),
            "profiles diverge on {id}"
        );
    }
}

#[test]
fn committed_external_trace_ingests_to_the_native_byte_stream() {
    // The committed example external trace (docs/ingest.md format) must
    // ingest cleanly, convert to bytes identical to writing the decoded
    // records natively, and analyze like any homegrown trace.
    use paragraph::trace::govern::{Limits, ResourceGovernor};
    use paragraph::trace::ingest;

    let text = include_str!("../examples/traces/sum-loop.pgtxt");
    let mut bytes = Vec::new();
    let mut governor = ResourceGovernor::new(Limits::default());
    let stats =
        ingest::ingest_text(text.as_bytes(), &mut bytes, &mut governor).expect("example ingests");
    assert_eq!(stats.records, 17);
    assert_eq!(
        stats.segments,
        paragraph::trace::SegmentMap::new(64, 256),
        "the example sets explicit segments"
    );
    assert!(stats.skipped_lines > 0, "the example is commented");

    let mut reader = TraceReader::new(bytes.as_slice()).expect("ingested bytes parse");
    let segments = reader.segment_map();
    let decoded: Vec<_> = reader.by_ref().map(|r| r.unwrap()).collect();
    assert_eq!(decoded.len() as u64, stats.records);

    // Byte-identity: the text path is a front door onto the same v2
    // format, not a dialect.
    let mut native = Vec::new();
    let mut writer = TraceWriter::new(&mut native, segments).unwrap();
    for r in &decoded {
        writer.write_record(r).unwrap();
    }
    writer.finish().unwrap();
    assert_eq!(native, bytes);

    // And re-rendering the decoded records reproduces an ingestible text
    // that converts to the very same bytes again.
    let rendered = ingest::render_trace(&decoded, segments);
    let mut again = Vec::new();
    let mut governor = ResourceGovernor::new(Limits::default());
    ingest::ingest_text(rendered.as_bytes(), &mut again, &mut governor)
        .expect("re-rendered text ingests");
    assert_eq!(again, bytes);

    let config = AnalysisConfig::dataflow_limit().with_segments(segments);
    let report = analyze_refs(&decoded, &config);
    assert_eq!(report.total_records(), stats.records);
    assert_eq!(report.syscalls(), 1);
    assert!(report.critical_path_length() > 0);
}

#[test]
fn workload_disassembly_reassembles_identically() {
    // Program -> disassemble -> assemble is a fixed point (label names are
    // rewritten but instructions must survive exactly).
    for id in [WorkloadId::Eqntott, WorkloadId::Nasker] {
        let program = Workload::new(id).with_size(2).program().unwrap();
        let second = assemble(&program.disassemble()).unwrap();
        assert_eq!(program.text(), second.text(), "{id} text drifts");
    }
}

#[test]
fn vm_checksums_are_stable_across_runs() {
    // Guards against nondeterminism anywhere in the pipeline: the printed
    // output of every workload must be identical run to run.
    for id in WorkloadId::ALL {
        let workload = Workload::new(id).with_size(2);
        let mut out = Vec::new();
        for _ in 0..2 {
            let mut vm = workload.vm();
            vm.run(20_000_000).unwrap();
            out.push(vm.output().to_owned());
        }
        assert_eq!(out[0], out[1], "{id} output is nondeterministic");
    }
}

/// A program whose first load targets the zero register: `lw r0` reads
/// memory and discards the value.
const ZERO_REG_LOAD: &str = "
    .data
acc: .word 7
    .text
    la   r10, acc
    lw   r0, 0(r10)
    lw   r11, 0(r10)
    halt
";

/// A load into `r0` keeps its memory source and names no destination,
/// just as `add r0, ...` names none.
fn assert_discarding_load(record: &paragraph::trace::TraceRecord, addr: u64) {
    assert_eq!(record.class(), paragraph::isa::OpClass::Load);
    assert_eq!(record.dest(), None);
    assert_eq!(record.mem_addr(), Some(addr));
}

#[test]
fn vm_traces_a_load_into_the_zero_register() {
    let mut vm = Vm::new(assemble(ZERO_REG_LOAD).expect("program assembles"));
    let (trace, outcome) = vm.run_collect(100).expect("a load into r0 runs");
    assert!(outcome.halted());
    let loads: Vec<_> = trace.iter().filter(|r| r.class().is_mem()).collect();
    assert_eq!(loads.len(), 2);
    let addr = loads[1].mem_addr().expect("the second load reads memory");
    assert_discarding_load(loads[0], addr);
    assert_eq!(loads[1].dest(), Some(paragraph::trace::Loc::int(11)));
    let report = analyze_refs(&trace, &AnalysisConfig::dataflow_limit());
    assert_eq!(report.total_records(), trace.len() as u64);
}

#[test]
fn a_load_into_the_zero_register_round_trips_every_binary_decoder() {
    let mut vm = Vm::new(assemble(ZERO_REG_LOAD).expect("program assembles"));
    let (trace, _) = vm.run_collect(100).expect("a load into r0 runs");
    let segments = vm.segment_map();
    let v2 = {
        let mut buf = Vec::new();
        let mut writer = TraceWriter::with_chunk_records(&mut buf, segments, 2).unwrap();
        for r in &trace {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        buf
    };
    let v1 = {
        let mut buf = Vec::new();
        let mut writer = TraceWriter::v1(&mut buf, segments).unwrap();
        for r in &trace {
            writer.write_record(r).unwrap();
        }
        writer.finish().unwrap();
        buf
    };
    for bytes in [&v2, &v1] {
        let reader = TraceReader::new(bytes.as_slice()).unwrap();
        let decoded: Vec<_> = reader.map(|r| r.unwrap()).collect();
        assert_eq!(decoded, trace);
        let oracle = paragraph::trace::oracle::decode(bytes).expect("intact stream");
        assert!(oracle.fault.is_none(), "{:?}", oracle.fault);
        assert_eq!(oracle.records, trace);
    }
}

#[test]
fn a_load_into_the_zero_register_ingests_and_round_trips() {
    use paragraph::trace::govern::{Limits, ResourceGovernor};
    use paragraph::trace::ingest;

    let ingest_bytes = |text: &str| {
        let mut bytes = Vec::new();
        let mut governor = ResourceGovernor::new(Limits::default());
        ingest::ingest_text(text.as_bytes(), &mut bytes, &mut governor).expect("text ingests");
        bytes
    };
    let bytes = ingest_bytes("0 load m:8 -> r0\n4 load m:8 r5 -> r6\n");
    let reader = TraceReader::new(bytes.as_slice()).unwrap();
    let segments = reader.segment_map();
    let decoded: Vec<_> = reader.map(|r| r.unwrap()).collect();
    assert_eq!(decoded.len(), 2);
    assert_discarding_load(&decoded[0], 8);
    assert_eq!(decoded[1].dest(), Some(paragraph::trace::Loc::int(6)));
    // The rendered text names no destination and ingests to the same bytes.
    let rendered = ingest::render_trace(&decoded, segments);
    assert!(!rendered.contains("r0"), "{rendered}");
    assert_eq!(ingest_bytes(&rendered), bytes);
}
