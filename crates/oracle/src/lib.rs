//! # hbbp-oracle — the seed analysis pipeline, kept as a test oracle
//!
//! The shipped analysis path (page-indexed block lookups, dense
//! block-index estimators, the fused single-pass analyzer) replaced a
//! plain address-keyed implementation. That implementation lives on
//! here, written against the public API only, for two jobs:
//!
//! * the equivalence property tests pin the production path against it
//!   **bit for bit** (`crates/core/tests/dense_equivalence.rs`,
//!   `crates/core/tests/streaming_equivalence.rs`,
//!   `crates/program/tests/program_props.rs`);
//! * `benches/pipeline.rs` measures the production path against it
//!   (`BENCH_pipeline.json`).
//!
//! The [`exact`] module is the reference for the store's exact,
//! order-free aggregation: a plain fixed-point big integer against
//! `hbbp-store`'s superaccumulator and expansions
//! (`crates/store/tests/log_props.rs`, `crates/store/tests/exact_props.rs`).
//!
//! Nothing here is tuned: every lookup is a whole-map binary search and
//! every per-block table is keyed by block start address. Only
//! `[dev-dependencies]` tables may name this crate.

#![forbid(unsafe_code)]

pub mod exact;

use hbbp_core::{
    Analysis, Analyzer, BlockFeatures, Choice, EbsEstimate, HbbpEstimate, HybridRule, LbrEstimate,
    LbrOptions, SamplingPeriods,
};
use hbbp_isa::{BranchKind, Instruction};
use hbbp_perf::PerfData;
use hbbp_program::{Bbec, BlockMap, DenseBbec, StaticBlock, StreamWalk};
use hbbp_sim::EventSpec;
use std::collections::{HashMap, HashSet};

/// Index of the block containing `addr`: one binary search over the whole
/// sorted block vector (what [`BlockMap::enclosing`] answers through its
/// page index).
pub fn enclosing_seed(map: &BlockMap, addr: u64) -> Option<usize> {
    let blocks = map.blocks();
    let pos = blocks.partition_point(|b| b.start <= addr);
    let idx = pos.checked_sub(1)?;
    (addr < blocks[idx].end()).then_some(idx)
}

/// Walk the LBR stream `<target, source>` with a whole-map binary search
/// for the target and for every mid-stream block transition, allocating
/// per call. Same result as [`BlockMap::walk_stream`].
pub fn walk_stream_seed(map: &BlockMap, target: u64, source: u64) -> StreamWalk {
    let mut covered = Vec::new();
    let derailed = 'walk: {
        let Some(mut idx) = enclosing_seed(map, target) else {
            break 'walk true;
        };
        if source < target {
            break 'walk true;
        }
        loop {
            let block = &map.blocks()[idx];
            covered.push(idx);
            if source >= block.start && source < block.end() {
                break 'walk false;
            }
            // Mid-stream, execution must fall through to `block.end()`.
            let consistent = match block.term_kind {
                Some(BranchKind::Conditional) | None => true,
                Some(BranchKind::Unconditional) => block.term_target == Some(block.end()),
                Some(BranchKind::Call) | Some(BranchKind::Return) => false,
            };
            if !consistent {
                break 'walk true;
            }
            match map.at_start(block.end()) {
                Some(next) => idx = next,
                None => break 'walk true,
            }
        }
    };
    StreamWalk {
        blocks: covered,
        derailed,
    }
}

/// The address-keyed EBS estimate (paper §III.A): tally the eventing IPs
/// of `INST_RETIRED:PREC_DIST` samples per enclosing block, then scale by
/// `period / block length`. Same result as `hbbp_core::ebs::estimate`.
pub fn ebs_estimate_ref(data: &PerfData, map: &BlockMap, period: u64) -> EbsEstimate {
    let mut samples_per_block: HashMap<u64, u64> = HashMap::new();
    let mut used = 0u64;
    let mut unmapped = 0u64;
    for sample in data.samples_of(EventSpec::inst_retired_prec_dist()) {
        match enclosing_seed(map, sample.ip) {
            Some(bi) => {
                *samples_per_block.entry(map.blocks()[bi].start).or_insert(0) += 1;
                used += 1;
            }
            None => unmapped += 1,
        }
    }
    let mut bbec = Bbec::new();
    for (&start, &n) in &samples_per_block {
        let bi = map.at_start(start).expect("block exists");
        let len = map.blocks()[bi].len().max(1) as f64;
        bbec.set(start, n as f64 * period as f64 / len);
    }
    EbsEstimate {
        dense: DenseBbec::from_bbec(&bbec, map),
        bbec,
        samples_per_block,
        samples_used: used,
        samples_unmapped: unmapped,
        period,
    }
}

/// The address-keyed LBR estimate (paper §III.B-C): per-address entry\[0\]
/// statistics with an O(stack²) per-stack dedup, bias verdicts, then one
/// [`walk_stream_seed`] per stream. Same result as
/// `hbbp_core::lbr::estimate`.
pub fn lbr_estimate_ref(
    data: &PerfData,
    map: &BlockMap,
    period: u64,
    options: &LbrOptions,
) -> LbrEstimate {
    let event = EventSpec::br_inst_retired_near_taken();

    // Pass 1: entry[0] occupancy per branch source address, conditioned
    // on the branch being present in a stack at all (§III.C).
    let mut entry0_counts: HashMap<u64, u64> = HashMap::new();
    let mut appearances: HashMap<u64, u64> = HashMap::new();
    let mut stacks_containing: HashMap<u64, u64> = HashMap::new();
    let mut entries_alongside: HashMap<u64, u64> = HashMap::new();
    let mut stacks = 0u64;
    let mut seen_in_stack: Vec<u64> = Vec::new();
    for sample in data.samples_of(event) {
        if sample.lbr.is_empty() {
            continue;
        }
        stacks += 1;
        *entry0_counts.entry(sample.lbr[0].from).or_insert(0) += 1;
        seen_in_stack.clear();
        for e in &sample.lbr {
            *appearances.entry(e.from).or_insert(0) += 1;
            if !seen_in_stack.contains(&e.from) {
                seen_in_stack.push(e.from);
            }
        }
        for &from in &seen_in_stack {
            *stacks_containing.entry(from).or_insert(0) += 1;
            *entries_alongside.entry(from).or_insert(0) += sample.lbr.len() as u64;
        }
    }
    let biased_branches: HashSet<u64> = appearances
        .iter()
        .filter(|(addr, &total)| {
            if total < options.min_branch_occurrences {
                return false;
            }
            let present = stacks_containing.get(addr).copied().unwrap_or(0);
            let alongside = entries_alongside.get(addr).copied().unwrap_or(0);
            if present == 0 || alongside == 0 {
                return false;
            }
            let entry0_share =
                entry0_counts.get(addr).copied().unwrap_or(0) as f64 / present as f64;
            let fair_share = total as f64 / alongside as f64;
            entry0_share - fair_share >= options.entry0_excess_threshold
        })
        .map(|(&addr, _)| addr)
        .collect();

    // Pass 2: stream decomposition and attribution.
    let mut weight: HashMap<u64, f64> = HashMap::new();
    let mut biased_weight: HashMap<u64, f64> = HashMap::new();
    let mut derailed = 0u64;
    let mut streams = 0u64;
    for sample in data.samples_of(event) {
        let n = sample.lbr.len();
        if n < 2 {
            continue;
        }
        let w = 1.0 / (n - 1) as f64;
        for i in 1..n {
            streams += 1;
            let target = sample.lbr[i - 1].to;
            let source = sample.lbr[i].from;
            let walk = walk_stream_seed(map, target, source);
            if walk.derailed {
                derailed += 1;
            }
            let source_biased = biased_branches.contains(&source);
            for bi in walk.blocks {
                let start = map.blocks()[bi].start;
                *weight.entry(start).or_insert(0.0) += w;
                if source_biased {
                    *biased_weight.entry(start).or_insert(0.0) += w;
                }
            }
        }
    }

    let mut bbec = Bbec::new();
    let mut biased_weight_fraction = HashMap::new();
    let mut biased_blocks = HashSet::new();
    for (&start, &w) in &weight {
        bbec.set(start, w * period as f64);
        let bw = biased_weight.get(&start).copied().unwrap_or(0.0);
        let frac = if w > 0.0 { bw / w } else { 0.0 };
        biased_weight_fraction.insert(start, frac);
        if frac >= options.biased_weight_threshold {
            biased_blocks.insert(start);
        }
    }
    let biased_idx = map
        .blocks()
        .iter()
        .map(|b| biased_blocks.contains(&b.start))
        .collect();
    LbrEstimate {
        dense: DenseBbec::from_bbec(&bbec, map),
        bbec,
        biased_blocks,
        biased_idx,
        biased_branches,
        biased_weight_fraction,
        stacks,
        derailed_streams: derailed,
        streams,
        period,
    }
}

/// The block's decision-rule features (paper §IV.B) from address-keyed
/// estimate lookups. Same result as `BlockFeatures::extract_indexed`.
pub fn extract_features(
    block: &StaticBlock,
    ebs: &EbsEstimate,
    lbr: &LbrEstimate,
) -> BlockFeatures {
    let exec = ebs.count(block.start).max(lbr.count(block.start));
    let mean_latency = if block.instrs.is_empty() {
        0.0
    } else {
        block.instrs.iter().map(|i| i.latency() as f64).sum::<f64>() / block.instrs.len() as f64
    };
    BlockFeatures {
        block_len: block.len() as f64,
        bias: lbr.is_biased(block.start),
        exec_estimate_log10: if exec > 0.0 { exec.log10() } else { 0.0 },
        has_long_latency: block.instrs.iter().any(Instruction::is_long_latency),
        mean_latency,
        // A conditional branch back into or before its own block.
        backward_branch: matches!(
            (block.term_kind, block.term_target),
            (Some(BranchKind::Conditional), Some(t)) if t < block.end()
        ),
    }
}

/// The address-keyed hybrid combine (paper §IV): full feature extraction
/// and one rule decision per block with evidence. Same result as
/// `hbbp_core::hybrid::combine`.
pub fn combine_ref(
    map: &BlockMap,
    ebs: &EbsEstimate,
    lbr: &LbrEstimate,
    rule: &HybridRule,
) -> HbbpEstimate {
    let mut bbec = Bbec::new();
    let mut choices = HashMap::new();
    for block in map.blocks() {
        let e = ebs.count(block.start);
        let l = lbr.count(block.start);
        if e == 0.0 && l == 0.0 {
            continue;
        }
        let choice = rule.choose(&extract_features(block, ebs, lbr));
        let value = match choice {
            Choice::Ebs => e,
            Choice::Lbr => l,
        };
        choices.insert(block.start, choice);
        if value > 0.0 {
            bbec.set(block.start, value);
        }
    }
    HbbpEstimate {
        dense: DenseBbec::from_bbec(&bbec, map),
        bbec,
        choices,
    }
}

/// The seed analysis: two independent full scans of the recording
/// through the reference estimators, then the reference combine. Same
/// result as [`Analyzer::analyze_fused`].
pub fn analyze_ref(
    analyzer: &Analyzer,
    data: &PerfData,
    periods: SamplingPeriods,
    rule: &HybridRule,
) -> Analysis {
    let map = analyzer.map();
    let ebs = ebs_estimate_ref(data, map, periods.ebs);
    let lbr = lbr_estimate_ref(data, map, periods.lbr, analyzer.lbr_options());
    let hbbp = combine_ref(map, &ebs, &lbr, rule);
    Analysis { ebs, lbr, hbbp }
}
