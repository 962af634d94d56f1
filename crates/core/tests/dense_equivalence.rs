//! Equivalence property tests: the dense block-index estimator pipeline
//! (and the fused single-pass analyzer built on it) must produce
//! **bit-identical** results to the seed address-keyed implementations on
//! arbitrary sample streams — mapped, unmapped, derailing and biased alike.
//! The seed implementations are the `hbbp-oracle` reference functions.

use hbbp_core::{
    ebs, hybrid, lbr, Analyzer, BlockFeatures, HybridRule, LbrOptions, SamplingPeriods,
};
use hbbp_isa::instruction::build;
use hbbp_isa::{Mnemonic, Reg};
use hbbp_perf::{PerfData, PerfRecord, PerfSample};
use hbbp_program::{BlockMap, ImageView, Layout, ProgramBuilder, Ring, TextImage};
use hbbp_sim::{EventSpec, LbrEntry};
use proptest::prelude::*;
use std::collections::HashMap;

/// A chain of loop blocks with the given body lengths, ending in an exit
/// block, plus a pool of interesting addresses to sample from.
struct Fx {
    map: BlockMap,
    /// Mapped and unmapped addresses: block starts, terminators, interior
    /// and out-of-range points.
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

fn ebs_sample(ip: u64) -> PerfRecord {
    PerfRecord::Sample(PerfSample {
        counter: 0,
        event: EventSpec::inst_retired_prec_dist(),
        ip,
        time_cycles: 0,
        pid: 1,
        tid: 1,
        ring: Ring::User,
        lbr: vec![],
    })
}

fn lbr_sample(entries: Vec<LbrEntry>) -> PerfRecord {
    PerfRecord::Sample(PerfSample {
        counter: 1,
        event: EventSpec::br_inst_retired_near_taken(),
        ip: 0,
        time_cycles: 0,
        pid: 1,
        tid: 1,
        ring: Ring::User,
        lbr: entries,
    })
}

/// Build an interleaved recording from pool picks: EBS IPs and LBR stacks
/// of `(from, to)` pool indices.
fn build_data(fx: &Fx, ips: &[usize], stacks: &[Vec<(usize, usize)>]) -> PerfData {
    let pick = |i: usize| fx.pool[i % fx.pool.len()];
    let mut data = PerfData::new();
    let mut stacks_iter = stacks.iter();
    for (i, &ip) in ips.iter().enumerate() {
        data.push(ebs_sample(pick(ip)));
        // Interleave so the fused dispatch sees mixed event order.
        if i % 2 == 0 {
            if let Some(stack) = stacks_iter.next() {
                data.push(lbr_sample(
                    stack
                        .iter()
                        .map(|&(from, to)| LbrEntry {
                            from: pick(from),
                            to: pick(to),
                        })
                        .collect(),
                ));
            }
        }
    }
    for stack in stacks_iter {
        data.push(lbr_sample(
            stack
                .iter()
                .map(|&(from, to)| LbrEntry {
                    from: pick(from),
                    to: pick(to),
                })
                .collect(),
        ));
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `ebs::estimate` (index path) ≡ `hbbp_oracle::ebs_estimate_ref` (seed path).
    #[test]
    fn ebs_dense_path_matches_seed(
        bodies in proptest::collection::vec(1usize..28, 1..5),
        ips in proptest::collection::vec(0usize..4096, 0..150),
        period in 0u64..100_000,
    ) {
        let fx = fixture(&bodies);
        let data = build_data(&fx, &ips, &[]);
        let fast = ebs::estimate(&data, &fx.map, period);
        let seed = hbbp_oracle::ebs_estimate_ref(&data, &fx.map, period);
        prop_assert_eq!(&fast.bbec, &seed.bbec);
        prop_assert_eq!(&fast.dense, &seed.dense);
        prop_assert_eq!(&fast.samples_per_block, &seed.samples_per_block);
        prop_assert_eq!(fast.samples_used, seed.samples_used);
        prop_assert_eq!(fast.samples_unmapped, seed.samples_unmapped);
        // The dense table is exactly the bbec re-coordinated (to_bbec
        // drops zero entries, so only meaningful for a nonzero period).
        if period > 0 {
            prop_assert_eq!(fast.dense.to_bbec(&fx.map), fast.bbec);
        }
    }

    /// `lbr::estimate` (index path) ≡ `hbbp_oracle::lbr_estimate_ref` (seed path),
    /// including all bias statistics.
    #[test]
    fn lbr_dense_path_matches_seed(
        bodies in proptest::collection::vec(1usize..28, 1..5),
        stacks in arb_stacks(),
        period in 0u64..100_000,
    ) {
        let fx = fixture(&bodies);
        let data = build_data(&fx, &[], &stacks);
        let options = twitchy_options();
        let fast = lbr::estimate(&data, &fx.map, period, &options);
        let seed = hbbp_oracle::lbr_estimate_ref(&data, &fx.map, period, &options);
        prop_assert_eq!(&fast.bbec, &seed.bbec);
        prop_assert_eq!(&fast.dense, &seed.dense);
        prop_assert_eq!(&fast.biased_blocks, &seed.biased_blocks);
        prop_assert_eq!(&fast.biased_idx, &seed.biased_idx);
        prop_assert_eq!(&fast.biased_branches, &seed.biased_branches);
        prop_assert_eq!(&fast.biased_weight_fraction, &seed.biased_weight_fraction);
        prop_assert_eq!(fast.stacks, seed.stacks);
        prop_assert_eq!(fast.streams, seed.streams);
        prop_assert_eq!(fast.derailed_streams, seed.derailed_streams);
        if period > 0 {
            prop_assert_eq!(fast.dense.to_bbec(&fx.map), fast.bbec);
        }
    }

    /// The fused single-pass analyzer ≡ the seed two-scan pipeline:
    /// bit-identical BBECs and identical per-block choices.
    #[test]
    fn analyze_fused_matches_seed_pipeline(
        bodies in proptest::collection::vec(1usize..28, 1..5),
        ips in proptest::collection::vec(0usize..4096, 0..120),
        stacks in arb_stacks(),
        ebs_period in 1u64..50_000,
        lbr_period in 1u64..50_000,
        cutoff in 0usize..40,
    ) {
        let fx = fixture(&bodies);
        let data = build_data(&fx, &ips, &stacks);
        let analyzer = Analyzer::from_map(fx.map.clone(), HashMap::new())
            .with_lbr_options(twitchy_options());
        let periods = SamplingPeriods { ebs: ebs_period, lbr: lbr_period };
        let rule = HybridRule::LengthCutoff(cutoff);
        let fused = analyzer.analyze_fused(&data, periods, &rule);
        let seed = hbbp_oracle::analyze_ref(&analyzer, &data, periods, &rule);
        prop_assert_eq!(&fused.ebs.bbec, &seed.ebs.bbec);
        prop_assert_eq!(&fused.lbr.bbec, &seed.lbr.bbec);
        prop_assert_eq!(&fused.hbbp.bbec, &seed.hbbp.bbec);
        prop_assert_eq!(&fused.hbbp.dense, &seed.hbbp.dense);
        prop_assert_eq!(&fused.hbbp.choices, &seed.hbbp.choices);
    }

    /// `lbr::estimate` ≡ the seed path on loop-filled stacks, whose runs
    /// of identical streams split across run-log words, with bias
    /// verdicts that make the close replay the log.
    #[test]
    fn lbr_run_log_matches_seed_on_loop_stacks(
        bodies in proptest::collection::vec(1usize..28, 1..5),
        stacks in arb_loop_stacks(),
        period in 0u64..100_000,
    ) {
        let fx = fixture(&bodies);
        let data = build_data(&fx, &[], &loop_stacks(&fx, &stacks));
        let options = twitchy_options();
        let fast = lbr::estimate(&data, &fx.map, period, &options);
        let seed = hbbp_oracle::lbr_estimate_ref(&data, &fx.map, period, &options);
        prop_assert_eq!(&fast.bbec, &seed.bbec);
        prop_assert_eq!(&fast.dense, &seed.dense);
        prop_assert_eq!(&fast.biased_blocks, &seed.biased_blocks);
        prop_assert_eq!(&fast.biased_idx, &seed.biased_idx);
        prop_assert_eq!(&fast.biased_branches, &seed.biased_branches);
        prop_assert_eq!(&fast.biased_weight_fraction, &seed.biased_weight_fraction);
        prop_assert_eq!(fast.stacks, seed.stacks);
        prop_assert_eq!(fast.streams, seed.streams);
        prop_assert_eq!(fast.derailed_streams, seed.derailed_streams);
    }

    /// `hybrid::combine` on dense estimates ≡ `hbbp_oracle::combine_ref` on the
    /// same estimates, across every rule variant.
    #[test]
    fn combine_dense_matches_seed(
        bodies in proptest::collection::vec(1usize..28, 1..5),
        ips in proptest::collection::vec(0usize..4096, 0..80),
        stacks in arb_stacks(),
        cutoff in 0usize..40,
    ) {
        let fx = fixture(&bodies);
        let data = build_data(&fx, &ips, &stacks);
        let e = ebs::estimate(&data, &fx.map, 1000);
        let l = lbr::estimate(&data, &fx.map, 300, &twitchy_options());
        for rule in [
            HybridRule::LengthCutoff(cutoff),
            HybridRule::AlwaysEbs,
            HybridRule::AlwaysLbr,
        ] {
            let fast = hybrid::combine(&fx.map, &e, &l, &rule);
            let seed = hbbp_oracle::combine_ref(&fx.map, &e, &l, &rule);
            prop_assert_eq!(&fast.bbec, &seed.bbec);
            prop_assert_eq!(&fast.dense, &seed.dense);
            prop_assert_eq!(&fast.choices, &seed.choices);
        }
    }
}

#[test]
fn ebs_index_and_reference_paths_agree() {
    // One 5-instruction loop block + exit; IPs at its start, inside it,
    // unmapped, and past its last instruction's start.
    let fx = fixture(&[4]);
    let b0 = &fx.map.blocks()[0];
    let (b0_start, mid_ip) = (b0.start, b0.start + u64::from(b0.offsets[2]));
    let mut data = PerfData::new();
    for ip in [b0_start, mid_ip, 0xdead_beef, b0_start, mid_ip + 2] {
        data.push(ebs_sample(ip));
    }
    let fast = ebs::estimate(&data, &fx.map, 733);
    let seed = hbbp_oracle::ebs_estimate_ref(&data, &fx.map, 733);
    assert_eq!(fast.bbec, seed.bbec);
    assert_eq!(fast.dense, seed.dense);
    assert_eq!(fast.samples_per_block, seed.samples_per_block);
    assert_eq!(fast.samples_used, seed.samples_used);
    assert_eq!(fast.samples_unmapped, seed.samples_unmapped);
    assert_eq!(fast.count_idx(0), fast.count(b0_start));
}

#[test]
fn lbr_index_and_reference_paths_agree() {
    // The loop branch `a` and a synthetic unmapped branch `b` one byte
    // past it, in stacks that make the bias machinery fire.
    let fx = fixture(&[4]);
    let head = &fx.map.blocks()[0];
    let a = LbrEntry {
        from: head.terminator_addr(),
        to: head.start,
    };
    let b = LbrEntry {
        from: head.terminator_addr() + 1,
        to: head.start,
    };
    let mut data = PerfData::new();
    for i in 0..40 {
        let stack = match i % 3 {
            0 => vec![a, b, b, b, a, b],
            1 => vec![a; 6],
            _ => vec![b, a, a, b],
        };
        data.push(lbr_sample(stack));
    }
    let fast = lbr::estimate(&data, &fx.map, 250, &LbrOptions::default());
    let seed = hbbp_oracle::lbr_estimate_ref(&data, &fx.map, 250, &LbrOptions::default());
    assert_eq!(fast.bbec, seed.bbec);
    assert_eq!(fast.dense, seed.dense);
    assert_eq!(fast.biased_blocks, seed.biased_blocks);
    assert_eq!(fast.biased_idx, seed.biased_idx);
    assert_eq!(fast.biased_branches, seed.biased_branches);
    assert_eq!(fast.biased_weight_fraction, seed.biased_weight_fraction);
    assert_eq!(fast.stacks, seed.stacks);
    assert_eq!(fast.streams, seed.streams);
    assert_eq!(fast.derailed_streams, seed.derailed_streams);
}

#[test]
fn long_runs_of_a_biased_branch_match_seed() {
    // Runs of 31 and 19 identical streams (split into 16-stream log
    // words) whose source `a` sticks at entry[0], so the close replays the
    // log; `b`, one byte past `a`, is an overflow source.
    let fx = fixture(&[4, 9]);
    let head = &fx.map.blocks()[0];
    let a = LbrEntry {
        from: head.terminator_addr(),
        to: head.start,
    };
    let b = LbrEntry {
        from: head.terminator_addr() + 1,
        to: head.start,
    };
    let mut data = PerfData::new();
    for i in 0..12 {
        let mut stack = vec![a];
        match i % 3 {
            0 => stack.extend([b; 31]),
            1 => stack.extend([a; 20].into_iter().chain([b; 11])),
            _ => stack = vec![b; 32],
        }
        data.push(lbr_sample(stack));
    }
    let options = twitchy_options();
    let fast = lbr::estimate(&data, &fx.map, 250, &options);
    let seed = hbbp_oracle::lbr_estimate_ref(&data, &fx.map, 250, &options);
    assert!(fast.biased_branches.contains(&a.from), "a must be biased");
    assert_eq!(fast.bbec, seed.bbec);
    assert_eq!(fast.dense, seed.dense);
    assert_eq!(fast.biased_blocks, seed.biased_blocks);
    assert_eq!(fast.biased_branches, seed.biased_branches);
    assert_eq!(fast.biased_weight_fraction, seed.biased_weight_fraction);
    assert_eq!(fast.streams, seed.streams);
    assert_eq!(fast.derailed_streams, seed.derailed_streams);
}

#[test]
fn feature_extraction_captures_static_properties() {
    // A self-looping block of three ADDs, an IDIV and the JNZ.
    let mut b = ProgramBuilder::new("f");
    let m = b.module("f.bin", Ring::User);
    let f = b.function(m, "main");
    let b0 = b.block(f);
    let b1 = b.block(f);
    for i in 0..3 {
        b.push(b0, build::rr(Mnemonic::Add, Reg::gpr(i), Reg::gpr(5)));
    }
    b.push(b0, build::r(Mnemonic::Idiv, Reg::gpr(6)));
    b.terminate_branch(b0, Mnemonic::Jnz, b0, b1);
    b.terminate_exit(b1, build::bare(Mnemonic::Syscall));
    let mut p = b.build(f).unwrap();
    let layout = Layout::compute(&mut p).unwrap();
    let image = TextImage::encode(&p, &layout, p.modules()[0].id(), ImageView::Disk);
    let map = BlockMap::discover(&[image], layout.symbols()).unwrap();

    let empty = PerfData::new();
    let e = ebs::estimate(&empty, &map, 100);
    let l = lbr::estimate(&empty, &map, 50, &LbrOptions::default());
    let bi = map.at_start(layout.block_start(b0)).unwrap();
    let feats = BlockFeatures::extract_indexed(&map.blocks()[bi], bi, &e, &l);
    let seed = hbbp_oracle::extract_features(&map.blocks()[bi], &e, &l);
    assert_eq!(feats, seed, "address and index paths must agree");
    assert_eq!(feats.block_len, 5.0);
    assert!(feats.has_long_latency, "IDIV present");
    assert!(feats.backward_branch, "self-loop Jnz");
    assert!(!feats.bias);
    assert_eq!(feats.exec_estimate_log10, 0.0);
    assert!(feats.mean_latency > 1.0);
    let v = feats.to_vec();
    assert_eq!(v.len(), hbbp_core::FEATURE_NAMES.len());
    assert_eq!(v[0], 5.0);
    assert_eq!(v[1], 0.0);
}
