//! Streaming equivalence properties: the online analyzer fed any chunking
//! of a record stream — whole-batch, one record at a time, or through the
//! byte-level [`StreamDecoder`] with random chunk splits — must produce
//! **bit-identical** results to the seed pipeline
//! (`hbbp_oracle::analyze_ref`), an implementation independent of the
//! analyzer ([`Analyzer::analyze_fused`] is itself an unwindowed online
//! run); windowed runs must partition the stream (window sums equal
//! whole-run totals) and each window must equal the seed analysis of
//! exactly its slice. The fused zero-copy ingest
//! ([`StreamDecoder::decode_into`] driving [`OnlineAnalyzer::push_view`])
//! must match the owned `next_record` → [`RecordSink`] path bit-for-bit on
//! the same byte stream, windowed and unwindowed alike.

use hbbp_core::{Analyzer, HybridRule, LbrOptions, OnlineAnalyzer, SamplingPeriods, Window};
use hbbp_isa::instruction::build;
use hbbp_isa::{Mnemonic, Reg};
use hbbp_perf::{codec, PerfData, PerfRecord, PerfSample, RecordSink, StreamDecoder};
use hbbp_program::{BlockMap, ImageView, Layout, ProgramBuilder, Ring, TextImage};
use hbbp_sim::{EventSpec, LbrEntry};
use proptest::prelude::*;
use std::collections::HashMap;

/// A chain of loop blocks with the given body lengths, ending in an exit
/// block, plus a pool of interesting addresses to sample from.
struct Fx {
    map: BlockMap,
    pool: Vec<u64>,
}

fn fixture(bodies: &[usize]) -> Fx {
    let mut b = ProgramBuilder::new("f");
    let m = b.module("f.bin", Ring::User);
    let f = b.function(m, "main");
    let bids: Vec<_> = bodies.iter().map(|_| b.block(f)).collect();
    let exit = b.block(f);
    for (i, &body) in bodies.iter().enumerate() {
        let bid = bids[i];
        for k in 0..body {
            b.push(
                bid,
                build::rr(Mnemonic::Add, Reg::gpr((k % 8) as u8), Reg::gpr(9)),
            );
        }
        let next = *bids.get(i + 1).unwrap_or(&exit);
        b.terminate_branch(bid, Mnemonic::Jnz, bid, next);
    }
    b.terminate_exit(exit, build::bare(Mnemonic::Syscall));
    let mut p = b.build(f).unwrap();
    let layout = Layout::compute(&mut p).unwrap();
    let image = TextImage::encode(&p, &layout, p.modules()[0].id(), ImageView::Disk);
    let map = BlockMap::discover(&[image], layout.symbols()).unwrap();

    let mut pool = vec![0u64, 0xdead_beef, u64::MAX];
    for block in map.blocks() {
        pool.extend([
            block.start,
            block.start + 1,
            block.terminator_addr(),
            block.end(),
            block.end() + 3,
        ]);
    }
    Fx { map, pool }
}

fn ebs_sample(ip: u64, t: u64) -> PerfRecord {
    PerfRecord::Sample(PerfSample {
        counter: 0,
        event: EventSpec::inst_retired_prec_dist(),
        ip,
        time_cycles: t,
        pid: 1,
        tid: 1,
        ring: Ring::User,
        lbr: vec![],
    })
}

fn lbr_sample(entries: Vec<LbrEntry>, t: u64) -> PerfRecord {
    PerfRecord::Sample(PerfSample {
        counter: 1,
        event: EventSpec::br_inst_retired_near_taken(),
        ip: 0,
        time_cycles: t,
        pid: 1,
        tid: 1,
        ring: Ring::User,
        lbr: entries,
    })
}

/// Build an interleaved recording with monotone timestamps (how a real
/// collection session orders samples), bracketed by process records the
/// analyzer must ignore.
fn build_data(fx: &Fx, ips: &[usize], stacks: &[Vec<(usize, usize)>]) -> PerfData {
    let pick = |i: usize| fx.pool[i % fx.pool.len()];
    let mut t = 0u64;
    let mut data = PerfData::new();
    data.push(PerfRecord::Comm {
        pid: 1,
        tid: 1,
        name: "f".into(),
    });
    let mut stacks_iter = stacks.iter();
    for (i, &ip) in ips.iter().enumerate() {
        t += 17;
        data.push(ebs_sample(pick(ip), t));
        if i % 2 == 0 {
            if let Some(stack) = stacks_iter.next() {
                t += 5;
                data.push(lbr_sample(
                    stack
                        .iter()
                        .map(|&(from, to)| LbrEntry {
                            from: pick(from),
                            to: pick(to),
                        })
                        .collect(),
                    t,
                ));
            }
        }
    }
    for stack in stacks_iter {
        t += 23;
        data.push(lbr_sample(
            stack
                .iter()
                .map(|&(from, to)| LbrEntry {
                    from: pick(from),
                    to: pick(to),
                })
                .collect(),
            t,
        ));
    }
    data.push(PerfRecord::Exit {
        pid: 1,
        time_cycles: t + 1,
    });
    data
}

fn arb_stacks() -> impl Strategy<Value = Vec<Vec<(usize, usize)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..4096, 0usize..4096), 0..9),
        0..30,
    )
}

/// One loop-stack segment `(kind, a, b, reps)`: `reps` copies of one
/// entry — the self-loop of mapped block `a` for a nonzero `kind`, else
/// the pool pair `(a, b)`, which may be unmapped or an overflow source.
type Seg = (usize, usize, usize, usize);

/// Loop-filled stacks: runs of identical streams longer than the run
/// log's 16-stream words, which random stacks never produce.
fn arb_loop_stacks() -> impl Strategy<Value = Vec<Vec<Seg>>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..3, 0usize..4096, 0usize..4096, 1usize..=32), 1..5),
        0..24,
    )
}

/// Expand segments into stacks of at most 32 `(from, to)` pool indices
/// (the pool lists 3 fixed points, then 5 points per block with the
/// block's start first and its terminator third).
fn loop_stacks(fx: &Fx, stacks: &[Vec<Seg>]) -> Vec<Vec<(usize, usize)>> {
    stacks
        .iter()
        .map(|segs| {
            let mut stack = Vec::new();
            for &(kind, a, b, reps) in segs {
                let k = a % fx.map.len();
                let entry = if kind == 0 {
                    (a, b)
                } else {
                    (5 + 5 * k, 3 + 5 * k)
                };
                stack.extend(std::iter::repeat_n(entry, reps));
            }
            stack.truncate(32);
            stack
        })
        .collect()
}

/// Loose LBR options so the bias machinery actually fires on small inputs.
fn twitchy_options() -> LbrOptions {
    LbrOptions {
        entry0_excess_threshold: 0.05,
        min_branch_occurrences: 2,
        biased_weight_threshold: 0.10,
    }
}

fn analyzer_for(fx: &Fx) -> Analyzer {
    Analyzer::from_map(fx.map.clone(), HashMap::new()).with_lbr_options(twitchy_options())
}

/// Assert two analyses are bit-identical in every estimate and statistic.
fn assert_analysis_eq(a: &hbbp_core::Analysis, b: &hbbp_core::Analysis) {
    prop_assert_eq!(&a.ebs.bbec, &b.ebs.bbec);
    prop_assert_eq!(&a.ebs.dense, &b.ebs.dense);
    prop_assert_eq!(&a.ebs.samples_per_block, &b.ebs.samples_per_block);
    prop_assert_eq!(a.ebs.samples_used, b.ebs.samples_used);
    prop_assert_eq!(a.ebs.samples_unmapped, b.ebs.samples_unmapped);
    prop_assert_eq!(&a.lbr.bbec, &b.lbr.bbec);
    prop_assert_eq!(&a.lbr.dense, &b.lbr.dense);
    prop_assert_eq!(&a.lbr.biased_blocks, &b.lbr.biased_blocks);
    prop_assert_eq!(&a.lbr.biased_idx, &b.lbr.biased_idx);
    prop_assert_eq!(&a.lbr.biased_branches, &b.lbr.biased_branches);
    prop_assert_eq!(&a.lbr.biased_weight_fraction, &b.lbr.biased_weight_fraction);
    prop_assert_eq!(a.lbr.stacks, b.lbr.stacks);
    prop_assert_eq!(a.lbr.streams, b.lbr.streams);
    prop_assert_eq!(a.lbr.derailed_streams, b.lbr.derailed_streams);
    prop_assert_eq!(&a.hbbp.bbec, &b.hbbp.bbec);
    prop_assert_eq!(&a.hbbp.dense, &b.hbbp.dense);
    prop_assert_eq!(&a.hbbp.choices, &b.hbbp.choices);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One record at a time through `OnlineAnalyzer` ≡ `analyze_fused` ≡
    /// the seed pipeline.
    #[test]
    fn record_at_a_time_matches_batch(
        bodies in proptest::collection::vec(1usize..28, 1..5),
        ips in proptest::collection::vec(0usize..4096, 0..120),
        stacks in arb_stacks(),
        ebs_period in 1u64..50_000,
        lbr_period in 1u64..50_000,
        cutoff in 0usize..40,
    ) {
        let fx = fixture(&bodies);
        let data = build_data(&fx, &ips, &stacks);
        let analyzer = analyzer_for(&fx);
        let periods = SamplingPeriods { ebs: ebs_period, lbr: lbr_period };
        let rule = HybridRule::LengthCutoff(cutoff);
        let batch = analyzer.analyze_fused(&data, periods, &rule);
        let seed = hbbp_oracle::analyze_ref(&analyzer, &data, periods, &rule);
        let mut online = OnlineAnalyzer::new(&analyzer, periods, rule);
        for record in data.records() {
            online.record(record.clone());
        }
        let streamed = online.finish().into_analysis().expect("unwindowed");
        assert_analysis_eq(&streamed, &batch);
        assert_analysis_eq(&streamed, &seed);
    }

    /// The full wire path — encode, split into random byte chunks, stream
    /// decode, push owned records — ≡ the seed pipeline on the original.
    #[test]
    fn chunked_wire_stream_matches_batch(
        bodies in proptest::collection::vec(1usize..28, 1..5),
        ips in proptest::collection::vec(0usize..4096, 0..100),
        stacks in arb_stacks(),
        cuts in proptest::collection::vec(0usize..1_000_000, 0..10),
        cutoff in 0usize..40,
    ) {
        let fx = fixture(&bodies);
        let data = build_data(&fx, &ips, &stacks);
        let analyzer = analyzer_for(&fx);
        let periods = SamplingPeriods { ebs: 733, lbr: 211 };
        let rule = HybridRule::LengthCutoff(cutoff);
        let seed = hbbp_oracle::analyze_ref(&analyzer, &data, periods, &rule);

        let bytes = codec::write(&data);
        let mut points: Vec<usize> = cuts.iter().map(|&c| c % bytes.len()).collect();
        points.sort_unstable();
        points.dedup();
        points.push(bytes.len());
        let mut online = OnlineAnalyzer::new(&analyzer, periods, rule);
        let mut decoder = StreamDecoder::new();
        let mut prev = 0;
        for p in points {
            decoder.feed(&bytes[prev..p]);
            prev = p;
            while let Some(record) = decoder.next_record().expect("valid stream") {
                online.record(record);
            }
        }
        decoder.finish().expect("clean end of stream");
        let streamed = online.finish().into_analysis().expect("unwindowed");
        assert_analysis_eq(&streamed, &seed);
    }

    /// Windowed runs partition the stream: per-window sample tallies sum
    /// to the whole-run totals, and each window's analysis is bit-identical
    /// to the seed pipeline over exactly that window's records.
    #[test]
    fn window_sums_equal_totals(
        bodies in proptest::collection::vec(1usize..28, 1..4),
        ips in proptest::collection::vec(0usize..4096, 1..100),
        stacks in arb_stacks(),
        window_samples in 1u64..40,
    ) {
        let fx = fixture(&bodies);
        let data = build_data(&fx, &ips, &stacks);
        let analyzer = analyzer_for(&fx);
        let periods = SamplingPeriods { ebs: 733, lbr: 211 };
        let rule = HybridRule::paper_default();
        let mut online = OnlineAnalyzer::new(&analyzer, periods, rule.clone())
            .with_window(Window::Samples(window_samples));
        for record in data.records() {
            online.record(record.clone());
        }
        let outcome = online.finish();

        // Sample-count partition (exact integer invariant).
        let total_ebs: u64 = outcome.windows.iter().map(|w| w.ebs_samples).sum();
        let total_lbr: u64 = outcome.windows.iter().map(|w| w.lbr_samples).sum();
        let seed = hbbp_oracle::analyze_ref(&analyzer, &data, periods, &rule);
        prop_assert_eq!(
            total_ebs,
            seed.ebs.samples_used + seed.ebs.samples_unmapped
        );
        let lbr_in_stream = data
            .samples_of(EventSpec::br_inst_retired_near_taken())
            .count() as u64;
        prop_assert_eq!(total_lbr, lbr_in_stream);
        prop_assert_eq!(total_ebs + total_lbr, outcome.samples_seen);

        // Estimator statistics partition too.
        let stacks_sum: u64 = outcome.windows.iter().map(|w| w.analysis.lbr.stacks).sum();
        let streams_sum: u64 = outcome.windows.iter().map(|w| w.analysis.lbr.streams).sum();
        prop_assert_eq!(stacks_sum, seed.lbr.stacks);
        prop_assert_eq!(streams_sum, seed.lbr.streams);

        // EBS extrapolation is linear, so windowed totals recompose to the
        // seed total (up to float summation order).
        let windowed_total: f64 = outcome.windows.iter().map(|w| w.analysis.ebs.bbec.total()).sum();
        let seed_total = seed.ebs.bbec.total();
        let tol = 1e-9 * seed_total.abs().max(1.0);
        prop_assert!(
            (windowed_total - seed_total).abs() <= tol,
            "windowed {} vs seed {}",
            windowed_total,
            seed_total
        );

        // Every window ≡ the seed analysis of exactly its slice.
        let mut remaining: Vec<&PerfRecord> = data
            .records()
            .iter()
            .filter(|r| match r {
                PerfRecord::Sample(s) => {
                    s.event == EventSpec::inst_retired_prec_dist()
                        || s.event == EventSpec::br_inst_retired_near_taken()
                }
                _ => false,
            })
            .collect();
        for w in &outcome.windows {
            let n = (w.ebs_samples + w.lbr_samples) as usize;
            let slice: PerfData = remaining.drain(..n).cloned().collect();
            let slice_seed = hbbp_oracle::analyze_ref(&analyzer, &slice, periods, &rule);
            assert_analysis_eq(&w.analysis, &slice_seed);
        }
        prop_assert!(remaining.is_empty());
    }

    /// The fused zero-copy ingest — `decode_into` handing borrowed views
    /// straight to the analyzer — ≡ the owned `RecordSink` path ≡ the seed
    /// pipeline, under any chunking of the wire bytes.
    #[test]
    fn fused_wire_stream_matches_owned_and_batch(
        bodies in proptest::collection::vec(1usize..28, 1..5),
        ips in proptest::collection::vec(0usize..4096, 0..100),
        stacks in arb_stacks(),
        cuts in proptest::collection::vec(0usize..1_000_000, 0..10),
        cutoff in 0usize..40,
    ) {
        let fx = fixture(&bodies);
        let data = build_data(&fx, &ips, &stacks);
        let analyzer = analyzer_for(&fx);
        let periods = SamplingPeriods { ebs: 733, lbr: 211 };
        let rule = HybridRule::LengthCutoff(cutoff);
        let seed = hbbp_oracle::analyze_ref(&analyzer, &data, periods, &rule);

        let bytes = codec::write(&data);
        let mut points: Vec<usize> = cuts.iter().map(|&c| c % bytes.len()).collect();
        points.sort_unstable();
        points.dedup();
        points.push(bytes.len());

        let mut fused = OnlineAnalyzer::new(&analyzer, periods, rule.clone());
        let mut owned = OnlineAnalyzer::new(&analyzer, periods, rule);
        let mut fused_dec = StreamDecoder::new();
        let mut owned_dec = StreamDecoder::new();
        let mut prev = 0;
        for p in points {
            fused_dec.feed(&bytes[prev..p]);
            fused_dec.decode_into(&mut fused).expect("valid stream");
            owned_dec.feed(&bytes[prev..p]);
            while let Some(record) = owned_dec.next_record().expect("valid stream") {
                owned.record(record);
            }
            prev = p;
        }
        fused_dec.finish().expect("clean end of stream");
        owned_dec.finish().expect("clean end of stream");

        let fused_out = fused.finish();
        let owned_out = owned.finish();
        prop_assert_eq!(fused_out.records_seen, owned_out.records_seen);
        prop_assert_eq!(fused_out.samples_seen, owned_out.samples_seen);
        let fused_analysis = fused_out.into_analysis().expect("unwindowed");
        assert_analysis_eq(&fused_analysis, &owned_out.into_analysis().expect("unwindowed"));
        assert_analysis_eq(&fused_analysis, &seed);
    }

    /// Windowed fused ingest ≡ windowed owned ingest: the same windows in
    /// the same order, with identical bounds, tallies, analyses and mixes.
    #[test]
    fn fused_windowed_matches_owned_windowed(
        bodies in proptest::collection::vec(1usize..28, 1..4),
        ips in proptest::collection::vec(0usize..4096, 1..100),
        stacks in arb_stacks(),
        cuts in proptest::collection::vec(0usize..1_000_000, 0..8),
        window_samples in 1u64..40,
    ) {
        let fx = fixture(&bodies);
        let data = build_data(&fx, &ips, &stacks);
        let analyzer = analyzer_for(&fx);
        let periods = SamplingPeriods { ebs: 733, lbr: 211 };
        let rule = HybridRule::paper_default();
        let window = Window::Samples(window_samples);

        let bytes = codec::write(&data);
        let mut points: Vec<usize> = cuts.iter().map(|&c| c % bytes.len()).collect();
        points.sort_unstable();
        points.dedup();
        points.push(bytes.len());

        let mut fused = OnlineAnalyzer::new(&analyzer, periods, rule.clone()).with_window(window);
        let mut owned = OnlineAnalyzer::new(&analyzer, periods, rule).with_window(window);
        let mut fused_dec = StreamDecoder::new();
        let mut owned_dec = StreamDecoder::new();
        let mut prev = 0;
        for p in points {
            fused_dec.feed(&bytes[prev..p]);
            fused_dec.decode_into(&mut fused).expect("valid stream");
            owned_dec.feed(&bytes[prev..p]);
            while let Some(record) = owned_dec.next_record().expect("valid stream") {
                owned.record(record);
            }
            prev = p;
        }
        fused_dec.finish().expect("clean end of stream");
        owned_dec.finish().expect("clean end of stream");

        let fused_out = fused.finish();
        let owned_out = owned.finish();
        prop_assert_eq!(fused_out.windows.len(), owned_out.windows.len());
        for (f, o) in fused_out.windows.iter().zip(&owned_out.windows) {
            prop_assert_eq!(f.index, o.index);
            prop_assert_eq!(f.start_cycles, o.start_cycles);
            prop_assert_eq!(f.end_cycles, o.end_cycles);
            prop_assert_eq!(f.ebs_samples, o.ebs_samples);
            prop_assert_eq!(f.lbr_samples, o.lbr_samples);
            assert_analysis_eq(&f.analysis, &o.analysis);
            prop_assert_eq!(&f.mix, &o.mix);
        }
        prop_assert_eq!(fused_out.records_seen, owned_out.records_seen);
        prop_assert_eq!(fused_out.samples_seen, owned_out.samples_seen);
        prop_assert_eq!(fused_out.peak_run_log_words, owned_out.peak_run_log_words);
    }

    /// Loop-filled stacks through the fused wire path, unwindowed and in
    /// sample-count windows: the whole run ≡ the seed pipeline, and each
    /// window ≡ the seed pipeline over exactly its slice. Runs of
    /// identical streams split across run-log words, and the bias
    /// verdicts make each close replay the log.
    #[test]
    fn loop_stacks_match_seed_whole_and_windowed(
        bodies in proptest::collection::vec(1usize..28, 1..4),
        ips in proptest::collection::vec(0usize..4096, 0..60),
        stacks in arb_loop_stacks(),
        window_samples in 1u64..40,
        cutoff in 0usize..40,
    ) {
        let fx = fixture(&bodies);
        let data = build_data(&fx, &ips, &loop_stacks(&fx, &stacks));
        let analyzer = analyzer_for(&fx);
        let periods = SamplingPeriods { ebs: 733, lbr: 211 };
        let rule = HybridRule::LengthCutoff(cutoff);
        let bytes = codec::write(&data);
        let run = |window: Option<Window>| {
            let mut online = OnlineAnalyzer::new(&analyzer, periods, rule.clone());
            if let Some(w) = window {
                online = online.with_window(w);
            }
            let mut decoder = StreamDecoder::new();
            decoder.feed(&bytes);
            decoder.decode_into(&mut online).expect("valid stream");
            decoder.finish().expect("clean end of stream");
            online.finish()
        };

        let seed = hbbp_oracle::analyze_ref(&analyzer, &data, periods, &rule);
        assert_analysis_eq(&run(None).into_analysis().expect("unwindowed"), &seed);

        let outcome = run(Some(Window::Samples(window_samples)));
        let mut remaining: Vec<&PerfRecord> = data
            .records()
            .iter()
            .filter(|r| matches!(r, PerfRecord::Sample(_)))
            .collect();
        for w in &outcome.windows {
            let n = (w.ebs_samples + w.lbr_samples) as usize;
            let slice: PerfData = remaining.drain(..n).cloned().collect();
            let slice_seed = hbbp_oracle::analyze_ref(&analyzer, &slice, periods, &rule);
            assert_analysis_eq(&w.analysis, &slice_seed);
        }
        prop_assert!(remaining.is_empty());
    }

    /// Time windows also partition the stream (bounds disjoint, ordered,
    /// tallies summing to totals).
    #[test]
    fn time_windows_partition_stream(
        bodies in proptest::collection::vec(1usize..28, 1..4),
        ips in proptest::collection::vec(0usize..4096, 1..80),
        stacks in arb_stacks(),
        width in 1u64..500,
    ) {
        let fx = fixture(&bodies);
        let data = build_data(&fx, &ips, &stacks);
        let analyzer = analyzer_for(&fx);
        let periods = SamplingPeriods { ebs: 733, lbr: 211 };
        let mut online = OnlineAnalyzer::new(&analyzer, periods, HybridRule::paper_default())
            .with_window(Window::TimeCycles(width));
        for record in data.records() {
            online.record(record.clone());
        }
        let outcome = online.finish();
        let total: u64 = outcome
            .windows
            .iter()
            .map(|w| w.ebs_samples + w.lbr_samples)
            .sum();
        prop_assert_eq!(total, outcome.samples_seen);
        for pair in outcome.windows.windows(2) {
            prop_assert!(pair[0].end_cycles <= pair[1].start_cycles);
        }
        for w in &outcome.windows {
            prop_assert_eq!(w.end_cycles - w.start_cycles, width);
            prop_assert!(w.ebs_samples + w.lbr_samples > 0);
        }
    }
}

/// Short loop + long loop + exit: interleaved EBS and LBR samples
/// bracketed by process records the analyzer must ignore.
fn mixed_stream(fx: &Fx) -> PerfData {
    let short = &fx.map.blocks()[0];
    let long = &fx.map.blocks()[1];
    let mut data = PerfData::new();
    data.push(PerfRecord::Comm {
        pid: 1,
        tid: 1,
        name: "f".into(),
    });
    for i in 0..30u64 {
        let ip = if i % 2 == 0 { short.start } else { long.start };
        data.push(ebs_sample(ip, i * 10));
        if i % 3 == 0 {
            let entry = LbrEntry {
                from: short.terminator_addr(),
                to: short.start,
            };
            data.push(lbr_sample(vec![entry; 5], i * 10 + 1));
        }
    }
    data.push(PerfRecord::Exit {
        pid: 1,
        time_cycles: 400,
    });
    data
}

fn mixed_periods() -> SamplingPeriods {
    SamplingPeriods {
        ebs: 1000,
        lbr: 300,
    }
}

#[test]
fn unwindowed_matches_seed_pipeline() {
    let fx = fixture(&[4, 22]);
    let data = mixed_stream(&fx);
    let analyzer = analyzer_for(&fx);
    let rule = HybridRule::paper_default();
    let seed = hbbp_oracle::analyze_ref(&analyzer, &data, mixed_periods(), &rule);
    let mut online = OnlineAnalyzer::new(&analyzer, mixed_periods(), rule);
    for r in data.records() {
        online.record(r.clone());
    }
    let outcome = online.finish();
    assert_eq!(outcome.records_seen, data.len() as u64);
    assert_analysis_eq(&outcome.into_analysis().expect("unwindowed"), &seed);
}

#[test]
fn from_map_analyzer_works_online() {
    // OnlineAnalyzer over an Analyzer built from an existing map, with
    // the default LBR options.
    let fx = fixture(&[4, 22]);
    let analyzer = Analyzer::from_map(fx.map.clone(), HashMap::new());
    let data = mixed_stream(&fx);
    let rule = HybridRule::paper_default();
    let mut online = OnlineAnalyzer::new(&analyzer, mixed_periods(), rule.clone());
    for r in data.records() {
        online.record(r.clone());
    }
    let analysis = online.finish().into_analysis().unwrap();
    let seed = hbbp_oracle::analyze_ref(&analyzer, &data, mixed_periods(), &rule);
    assert_eq!(analysis.hbbp.bbec, seed.hbbp.bbec);
    assert!(!analysis.hbbp.bbec.is_empty());
}
