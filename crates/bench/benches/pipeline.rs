//! The analyze-hot-path trajectory bench: fused single-pass, index-based
//! analysis ([`Analyzer::analyze_fused`]) vs the seed two-scan,
//! address-keyed pipeline (`hbbp_oracle::analyze_ref`) over the Tiny
//! training suite's recordings, plus the IP→block lookup layer on its own.
//!
//! Besides the usual `bench: … ns/iter` lines, a run writes
//! `BENCH_pipeline.json` to the current directory (the workspace root
//! under `cargo bench -p hbbp-bench --bench pipeline`) so later PRs have a
//! perf trajectory to beat. Set `PIPELINE_BENCH_QUICK=1` to evaluate a
//! two-workload subset (CI smoke mode; the JSON records which mode ran).

mod common;

use common::{quick_mode, results_block, write_workspace_root};
use criterion::{black_box, Criterion};
use hbbp_core::{Analysis, Analyzer, HybridRule, SamplingPeriods};
use hbbp_perf::{PerfData, PerfSession};
use hbbp_program::ImageView;
use hbbp_sim::{Cpu, EventSpec};
use hbbp_workloads::{training_suite, Scale};
use std::time::{Duration, Instant};

/// One workload's prepared analysis inputs.
struct Case {
    analyzer: Analyzer,
    data: PerfData,
    periods: SamplingPeriods,
}

fn build_cases(quick: bool) -> Vec<Case> {
    let mut suite = training_suite(Scale::Tiny);
    if quick {
        suite.truncate(2);
    }
    suite
        .iter()
        .map(|w| {
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
            let analyzer = Analyzer::from_images(&w.images(ImageView::Live), w.layout().symbols())
                .expect("discovery");
            Case {
                analyzer,
                data: rec.data,
                periods,
            }
        })
        .collect()
}

fn bench_pipeline(c: &mut Criterion, cases: &[Case]) {
    let rule = HybridRule::paper_default();

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    group.bench_function("analyze_seed", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for case in cases {
                total += hbbp_oracle::analyze_ref(&case.analyzer, &case.data, case.periods, &rule)
                    .hbbp
                    .bbec
                    .total();
            }
            black_box(total)
        })
    });
    group.bench_function("analyze_fused", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for case in cases {
                total += case
                    .analyzer
                    .analyze_fused(&case.data, case.periods, &rule)
                    .hbbp
                    .bbec
                    .total();
            }
            black_box(total)
        })
    });
    group.finish();

    // The lookup layer on its own, on the EBS estimator's actual access
    // pattern (the eventing IPs of one recording, in arrival order): the
    // seed whole-map binary search vs the page-indexed lookup.
    let ips: Vec<(usize, u64)> = cases
        .iter()
        .enumerate()
        .flat_map(|(ci, case)| {
            case.data
                .samples_of(EventSpec::inst_retired_prec_dist())
                .map(move |s| (ci, s.ip))
        })
        .collect();
    let mut group = c.benchmark_group("blockmap");
    group.sample_size(20);
    group.bench_function("enclosing_seed", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &(ci, ip) in &ips {
                if hbbp_oracle::enclosing_seed(cases[ci].analyzer.map(), ip).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.bench_function("enclosing", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &(ci, ip) in &ips {
                if cases[ci].analyzer.map().enclosing(ip).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    group.finish();
}

/// Interleaved seed/fused timing for the headline ratio: the two pipelines
/// alternate inside the same wall-clock window, so background machine load
/// hits both about equally and the *ratio* stays stable even when the
/// absolute ns/iter numbers wobble. Returns `(seed_ns, fused_ns)` mean
/// per full-suite run.
fn paired_speedup(cases: &[Case], rounds: u32) -> (f64, f64) {
    let rule = HybridRule::paper_default();
    let run = |f: &dyn Fn(&Case) -> Analysis| {
        let mut total = 0.0;
        for case in cases {
            total += f(case).hbbp.bbec.total();
        }
        total
    };
    let seed_fn =
        |case: &Case| hbbp_oracle::analyze_ref(&case.analyzer, &case.data, case.periods, &rule);
    let fused_fn = |case: &Case| case.analyzer.analyze_fused(&case.data, case.periods, &rule);
    let mut seed = Duration::ZERO;
    let mut fused = Duration::ZERO;
    for _ in 0..rounds {
        let t = Instant::now();
        black_box(run(&seed_fn));
        seed += t.elapsed();
        let t = Instant::now();
        black_box(run(&fused_fn));
        fused += t.elapsed();
    }
    (
        seed.as_nanos() as f64 / rounds as f64,
        fused.as_nanos() as f64 / rounds as f64,
    )
}

/// Hand-rolled emitter (no serde in this environment): the headline
/// paired seed-vs-fused speedup plus one entry per criterion measurement.
fn emit_json(c: &Criterion, quick: bool, n_workloads: usize, paired: (f64, f64)) -> String {
    let (seed_ns, fused_ns) = paired;
    let speedup = if fused_ns > 0.0 {
        seed_ns / fused_ns
    } else {
        0.0
    };
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"pipeline\",\n");
    out.push_str(&format!(
        "  \"suite\": \"training_suite(Tiny), {n_workloads} workloads\",\n"
    ));
    out.push_str(&format!("  \"quick_mode\": {quick},\n"));
    out.push_str(&format!("  \"speedup_fused_vs_seed\": {speedup:.3},\n"));
    out.push_str(&format!(
        "  \"paired\": {{ \"analyze_seed_ns\": {seed_ns:.1}, \"analyze_fused_ns\": {fused_ns:.1} }},\n"
    ));
    out.push_str(&results_block(c));
    out.push_str("\n}\n");
    out
}

fn main() {
    let quick = quick_mode("PIPELINE_BENCH_QUICK");
    let cases = build_cases(quick);
    let mut criterion = Criterion::default();
    bench_pipeline(&mut criterion, &cases);
    let paired = paired_speedup(&cases, if quick { 4 } else { 12 });
    println!(
        "paired: analyze_seed {:>14.1} ns  analyze_fused {:>14.1} ns  speedup {:.2}x",
        paired.0,
        paired.1,
        paired.0 / paired.1
    );
    let json = emit_json(&criterion, quick, cases.len(), paired);
    write_workspace_root("BENCH_pipeline.json", &json);
}
