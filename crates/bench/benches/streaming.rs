//! The streaming-path bench: batch analysis of a materialized recording
//! vs the online analyzer fed owned records one at a time (each cloned
//! out of the recording, as a collection session would hand it over
//! through `RecordSink`), batch vs chunked stream
//! decoding, and the fused zero-copy decode→analyze pass (wire bytes
//! straight to a finished analysis, no owned records) — on the
//! phase-switching `phased` workload. The JSON gains a
//! `fused_vs_pure_analysis` block relating the fused pass to the two
//! passes it replaces.
//!
//! Besides the usual `bench: … ns/iter` lines, a run writes
//! `BENCH_streaming.json` to the workspace root: the timings, the
//! **deterministic** memory accounting (whole-recording footprint vs the
//! windowed analyzer's bounded peak) and the deterministic multi-window
//! mix timeline of the `mix-timeline` experiment. Set
//! `STREAMING_BENCH_QUICK=1` for the CI smoke mode (fewer iterations; the
//! JSON records which mode ran).

mod common;

use common::{quick_mode, results_block, write_workspace_root};
use criterion::{black_box, Criterion};
use hbbp_bench::exp::streaming::{timeline, TimelineOutcome};
use hbbp_bench::exp::ExpOptions;
use hbbp_core::{Analyzer, HybridRule, OnlineAnalyzer, SamplingPeriods, Window};
use hbbp_perf::{codec, PerfData, PerfRecord, PerfSession, RecordSink, StreamDecoder};
use hbbp_program::ImageView;
use hbbp_sim::Cpu;
use hbbp_workloads::{phased, Scale};

struct Case {
    analyzer: Analyzer,
    data: PerfData,
    bytes: Vec<u8>,
    periods: SamplingPeriods,
}

fn build_case() -> Case {
    let w = phased(Scale::Tiny);
    let cpu = Cpu::with_seed(11);
    let instructions = cpu
        .run_clean(w.program(), w.layout(), w.oracle())
        .expect("clean run")
        .instructions;
    let periods = SamplingPeriods::scaled_for(instructions);
    let session = PerfSession::hbbp(cpu, periods.ebs, periods.lbr);
    let rec = session
        .record(w.program(), w.layout(), w.oracle())
        .expect("recording");
    let analyzer =
        Analyzer::from_images(&w.images(ImageView::Disk), w.layout().symbols()).expect("discovery");
    let bytes = codec::write(&rec.data).to_vec();
    Case {
        analyzer,
        data: rec.data,
        bytes,
        periods,
    }
}

fn bench_streaming(c: &mut Criterion, case: &Case, quick: bool) {
    let rule = HybridRule::paper_default();
    let mut group = c.benchmark_group("streaming");
    group.sample_size(if quick { 10 } else { 30 });
    group.bench_function("analyze_batch", |b| {
        b.iter(|| {
            black_box(
                case.analyzer
                    .analyze_fused(&case.data, case.periods, &rule)
                    .hbbp
                    .bbec
                    .total(),
            )
        })
    });
    group.bench_function("analyze_online", |b| {
        b.iter(|| {
            let mut online = OnlineAnalyzer::new(&case.analyzer, case.periods, rule.clone());
            for record in case.data.records() {
                online.record(record.clone());
            }
            let analysis = online.finish().into_analysis().expect("unwindowed");
            black_box(analysis.hbbp.bbec.total())
        })
    });
    group.bench_function("analyze_online_windowed", |b| {
        b.iter(|| {
            let mut online = OnlineAnalyzer::new(&case.analyzer, case.periods, rule.clone())
                .with_window(Window::Samples(200));
            for record in case.data.records() {
                online.record(record.clone());
            }
            black_box(online.finish().windows.len())
        })
    });
    group.bench_function("decode_batch", |b| {
        b.iter(|| black_box(codec::read(&case.bytes).expect("valid").len()))
    });
    group.bench_function("decode_chunked_4k", |b| {
        b.iter(|| {
            let mut decoder = StreamDecoder::new();
            let mut n = 0usize;
            for chunk in case.bytes.chunks(4096) {
                decoder.feed(chunk);
                while let Some(record) = decoder.next_record().expect("valid") {
                    black_box(&record);
                    n += 1;
                }
            }
            decoder.finish().expect("clean end");
            black_box(n)
        })
    });
    // The headline: wire bytes to finished analysis in one fused pass,
    // decoding borrowed views straight into the online analyzer — the
    // work `decode_batch` + `analyze_online` do in two materializing
    // passes.
    group.bench_function("decode_analyze_fused", |b| {
        b.iter(|| {
            let mut online = OnlineAnalyzer::new(&case.analyzer, case.periods, rule.clone());
            let mut decoder = StreamDecoder::new();
            for chunk in case.bytes.chunks(64 * 1024) {
                decoder.feed(chunk);
                decoder.decode_into(&mut online).expect("valid");
            }
            decoder.finish().expect("clean end");
            let analysis = online.finish().into_analysis().expect("unwindowed");
            black_box(analysis.hbbp.bbec.total())
        })
    });
    group.bench_function("decode_analyze_fused_windowed", |b| {
        b.iter(|| {
            let mut online = OnlineAnalyzer::new(&case.analyzer, case.periods, rule.clone())
                .with_window(Window::Samples(200));
            let mut decoder = StreamDecoder::new();
            for chunk in case.bytes.chunks(64 * 1024) {
                decoder.feed(chunk);
                decoder.decode_into(&mut online).expect("valid");
            }
            decoder.finish().expect("clean end");
            black_box(online.finish().windows.len())
        })
    });
    group.finish();
}

/// Deterministic memory accounting: what the batch path must hold (the
/// whole serialized recording plus every LBR stack) vs the windowed online
/// analyzer's peak LBR run log, in 4-byte words.
struct MemoryFacts {
    recording_bytes: usize,
    recording_records: usize,
    recording_lbr_entries: usize,
    streaming_peak_run_log_words: usize,
    streaming_windows: usize,
}

fn memory_facts(case: &Case) -> MemoryFacts {
    let recording_lbr_entries: usize = case
        .data
        .records()
        .iter()
        .map(|r| match r {
            PerfRecord::Sample(s) => s.lbr.len(),
            _ => 0,
        })
        .sum();
    let mut online = OnlineAnalyzer::new(&case.analyzer, case.periods, HybridRule::paper_default())
        .with_window(Window::Samples(200));
    for record in case.data.records() {
        online.record(record.clone());
    }
    let outcome = online.finish();
    MemoryFacts {
        recording_bytes: case.bytes.len(),
        recording_records: case.data.len(),
        recording_lbr_entries,
        streaming_peak_run_log_words: outcome.peak_run_log_words,
        streaming_windows: outcome.windows.len(),
    }
}

/// Look up one measurement of this run by its full `group/name` key.
fn ns_of(c: &Criterion, name: &str) -> f64 {
    c.measurements()
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.ns_per_iter)
        .unwrap_or(f64::NAN)
}

/// The PR 7 headline ratio: one fused decode+analyze pass vs the two
/// materializing passes it replaces, from this run's own measurements.
fn fused_block(c: &Criterion) -> String {
    let decode = ns_of(c, "streaming/decode_batch");
    let analyze = ns_of(c, "streaming/analyze_online");
    let analyze_batch = ns_of(c, "streaming/analyze_batch");
    let fused = ns_of(c, "streaming/decode_analyze_fused");
    format!(
        "  \"fused_vs_pure_analysis\": {{\n\
         \x20   \"sum_decode_batch_plus_analyze_online_ns\": {:.1},\n\
         \x20   \"decode_analyze_fused_ns\": {fused:.1},\n\
         \x20   \"speedup\": {:.2},\n\
         \x20   \"fused_over_analyze_batch\": {:.2},\n\
         \x20   \"notes\": [\n\
         \x20     \"speedup = (decode_batch + analyze_online) / decode_analyze_fused: the fused pass replaces both materializing passes.\",\n\
         \x20     \"fused_over_analyze_batch is the remaining gap to pure in-memory analysis (1.0 would mean decoding became free).\",\n\
         \x20     \"Why decode_chunked_4k beats decode_batch (seed: 535us vs 594us): codec::read retains every decoded record in PerfData, so the allocator can never recycle the per-record Vec/String blocks, while the streaming drain drops each record immediately. Measured on this host by whole-buffer single-feed drains: retaining records costs ~1.6x over dropping them (216us vs 132us), and codec::read's cursor-based decode_payload adds the rest (406us vs 216us for the same retained set since next_record now decodes through the in-place view). 4KiB chunking itself costs only ~20us (152us vs 132us). Working as intended, so documented rather than fixed: the batch reader's contract is to materialize everything.\"\n\
         \x20   ]\n\
         \x20 }},\n"
    , decode + analyze, (decode + analyze) / fused, fused / analyze_batch)
}

fn emit_json(c: &Criterion, quick: bool, mem: &MemoryFacts, tl: &TimelineOutcome) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"streaming\",\n");
    out.push_str("  \"suite\": \"phased(Tiny)\",\n");
    out.push_str(&format!("  \"quick_mode\": {quick},\n"));
    out.push_str(&format!(
        "  \"memory\": {{ \"recording_bytes\": {}, \"recording_records\": {}, \"recording_lbr_entries\": {}, \"streaming_peak_run_log_words\": {}, \"run_log_word_bytes\": 4, \"streaming_windows\": {} }},\n",
        mem.recording_bytes,
        mem.recording_records,
        mem.recording_lbr_entries,
        mem.streaming_peak_run_log_words,
        mem.streaming_windows
    ));
    out.push_str(&format!(
        "  \"timeline\": {{ \"windows\": {}, \"samples\": {}, \"peak_run_log_words\": {}, \"total_instructions\": {:.0}, \"rows\": [\n",
        tl.windows.len(),
        tl.samples_seen,
        tl.peak_run_log_words,
        tl.total_instructions
    ));
    let rows: Vec<String> = tl
        .windows
        .iter()
        .map(|w| {
            format!(
                "    {{ \"win\": {}, \"start_cycles\": {}, \"end_cycles\": {}, \"ebs\": {}, \"lbr\": {}, \"instructions\": {:.0}, \"int_frac\": {:.4}, \"sse_frac\": {:.4}, \"avx_frac\": {:.4}, \"dominant\": \"{}\" }}",
                w.index,
                w.start_cycles,
                w.end_cycles,
                w.ebs_samples,
                w.lbr_samples,
                w.instructions,
                w.other_frac,
                w.sse_frac,
                w.avx_frac,
                w.dominant
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ] },\n");
    out.push_str(&fused_block(c));
    out.push_str(&results_block(c));
    out.push_str("\n}\n");
    out
}

fn main() {
    let quick = quick_mode("STREAMING_BENCH_QUICK");
    let case = build_case();
    let mut criterion = Criterion::default();
    bench_streaming(&mut criterion, &case, quick);
    let mem = memory_facts(&case);
    println!(
        "memory: recording {} bytes / {} LBR entries  vs  streaming peak {} run-log words (4 bytes each) over {} windows",
        mem.recording_bytes,
        mem.recording_lbr_entries,
        mem.streaming_peak_run_log_words,
        mem.streaming_windows
    );
    // The deterministic timeline (same as `experiments mix-timeline`).
    let tl = timeline(&ExpOptions::default_tiny(), 12);
    let json = emit_json(&criterion, quick, &mem, &tl);
    write_workspace_root("BENCH_streaming.json", &json);
}
