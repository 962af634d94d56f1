//! HBBP — the hybrid combiner (paper §IV).
//!
//! "For each basic block, the data from EBS and LBR need to be combined to
//! produce a single BBEC. Concretely, we decide (for each basic block)
//! whether to use either EBS or LBR data." The decision rule is either the
//! paper's distilled cutoff ("for blocks with 18 instructions or less we
//! choose values from LBR, while for longer blocks we choose values from
//! EBS") or a trained classification tree.

use crate::{BlockFeatures, EbsEstimate, LbrEstimate};
use hbbp_mltree::DecisionTree;
use hbbp_program::{Bbec, BlockMap, DenseBbec};
use std::collections::HashMap;
use std::fmt;

/// The paper's distilled block-length cutoff.
pub const PAPER_CUTOFF: usize = 18;

/// Which PMU source a block's count is taken from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Choice {
    /// Event-based sampling data.
    Ebs,
    /// Last Branch Record data.
    Lbr,
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Choice::Ebs => "EBS",
            Choice::Lbr => "LBR",
        })
    }
}

/// A per-block decision rule.
#[derive(Debug, Clone)]
pub enum HybridRule {
    /// The paper's final rule: `block_len <= 18 → LBR`, else EBS.
    LengthCutoff(usize),
    /// A trained classification tree over [`crate::FEATURE_NAMES`]
    /// (class 0 = EBS, class 1 = LBR).
    Tree(DecisionTree),
    /// Ablation: always EBS.
    AlwaysEbs,
    /// Ablation: always LBR.
    AlwaysLbr,
}

impl HybridRule {
    /// The paper's published rule (Figure 1 distilled).
    pub fn paper_default() -> HybridRule {
        HybridRule::LengthCutoff(PAPER_CUTOFF)
    }

    /// Decide the data source for a block.
    pub fn choose(&self, features: &BlockFeatures) -> Choice {
        match self {
            HybridRule::LengthCutoff(cutoff) => {
                if features.block_len <= *cutoff as f64 {
                    Choice::Lbr
                } else {
                    Choice::Ebs
                }
            }
            HybridRule::Tree(tree) => {
                if tree.predict(&features.to_vec()) == 1 {
                    Choice::Lbr
                } else {
                    Choice::Ebs
                }
            }
            HybridRule::AlwaysEbs => Choice::Ebs,
            HybridRule::AlwaysLbr => Choice::Lbr,
        }
    }

    /// Decide the data source for the block at map index `bi`, extracting
    /// the full feature vector only when the rule actually consumes it (a
    /// tree). The cutoff and ablation rules read nothing but the block
    /// length, so the hot combine loop skips the per-instruction latency
    /// scan for them. Same result as `choose(&extract_indexed(..))` for
    /// every rule.
    fn choose_indexed(
        &self,
        block: &hbbp_program::StaticBlock,
        bi: usize,
        ebs: &EbsEstimate,
        lbr: &LbrEstimate,
    ) -> Choice {
        match self {
            HybridRule::LengthCutoff(cutoff) => {
                // block_len is compared as f64 in `choose`; both lengths
                // are far below 2^53, so the integer compare is identical.
                if block.len() <= *cutoff {
                    Choice::Lbr
                } else {
                    Choice::Ebs
                }
            }
            HybridRule::AlwaysEbs => Choice::Ebs,
            HybridRule::AlwaysLbr => Choice::Lbr,
            HybridRule::Tree(_) => {
                self.choose(&BlockFeatures::extract_indexed(block, bi, ebs, lbr))
            }
        }
    }
}

impl fmt::Display for HybridRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HybridRule::LengthCutoff(c) => write!(f, "block_len <= {c} -> LBR, else EBS"),
            HybridRule::Tree(t) => write!(
                f,
                "decision tree ({} leaves, depth {})",
                t.leaves(),
                t.depth()
            ),
            HybridRule::AlwaysEbs => write!(f, "always EBS"),
            HybridRule::AlwaysLbr => write!(f, "always LBR"),
        }
    }
}

/// The combined HBBP estimate.
#[derive(Debug, Clone)]
pub struct HbbpEstimate {
    /// Combined per-block execution counts (address-keyed).
    pub bbec: Bbec,
    /// The same counts in the block-index coordinate system of the map
    /// they were combined over.
    pub dense: DenseBbec,
    /// Per-block source choice (keyed by block start).
    pub choices: HashMap<u64, Choice>,
}

impl HbbpEstimate {
    /// Estimated executions of the block starting at `addr`.
    pub fn count(&self, addr: u64) -> f64 {
        self.bbec.get(addr)
    }

    /// Estimated executions of the block at map index `bi`.
    pub fn count_idx(&self, bi: usize) -> f64 {
        self.dense.get(bi)
    }

    /// How many blocks chose each source.
    pub fn choice_counts(&self) -> (usize, usize) {
        let ebs = self.choices.values().filter(|c| **c == Choice::Ebs).count();
        (ebs, self.choices.len() - ebs)
    }
}

/// Combine EBS and LBR estimates into the HBBP BBEC.
///
/// Only blocks with evidence from at least one source receive an entry —
/// exactly one of the two estimates is consulted per block, per the paper
/// ("HBBP does not fix the problems with the individual use of EBS and
/// LBR", §IV.A).
///
/// Works entirely in block-index coordinates: per-block counts and bias
/// flags come from the estimates' dense tables, so the per-block loop does
/// no hashing or tree walks.
pub fn combine(
    map: &BlockMap,
    ebs: &EbsEstimate,
    lbr: &LbrEstimate,
    rule: &HybridRule,
) -> HbbpEstimate {
    let mut dense = DenseBbec::for_map(map);
    let mut choices = HashMap::new();
    for (bi, block) in map.blocks().iter().enumerate() {
        let e = ebs.count_idx(bi);
        let l = lbr.count_idx(bi);
        if e == 0.0 && l == 0.0 {
            continue;
        }
        let choice = rule.choose_indexed(block, bi, ebs, lbr);
        let value = match choice {
            Choice::Ebs => e,
            Choice::Lbr => l,
        };
        choices.insert(block.start, choice);
        if value > 0.0 {
            dense.set(bi, value);
        }
    }
    HbbpEstimate {
        bbec: dense.to_bbec(map),
        dense,
        choices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ebs, lbr, LbrOptions};
    use hbbp_isa::instruction::build;
    use hbbp_isa::{Mnemonic, Reg};
    use hbbp_perf::{PerfData, PerfRecord, PerfSample};
    use hbbp_program::{BlockMap, ImageView, Layout, ProgramBuilder, Ring, TextImage};
    use hbbp_sim::{EventSpec, LbrEntry};

    /// Two loops: a short block (4+1) and a long one (22+1).
    struct Fixture {
        map: BlockMap,
        short_start: u64,
        short_term: u64,
        long_start: u64,
        long_term: u64,
    }

    fn fixture() -> Fixture {
        let mut b = ProgramBuilder::new("f");
        let m = b.module("f.bin", Ring::User);
        let f = b.function(m, "main");
        let s = b.block(f);
        let mid = b.block(f);
        let l = b.block(f);
        let exit = b.block(f);
        for i in 0..4 {
            b.push(s, build::rr(Mnemonic::Add, Reg::gpr(i % 8), Reg::gpr(9)));
        }
        b.terminate_branch(s, Mnemonic::Jnz, s, mid);
        b.push(mid, build::rr(Mnemonic::Mov, Reg::gpr(0), Reg::gpr(1)));
        b.terminate_jump(mid, l);
        for i in 0..22 {
            b.push(l, build::rr(Mnemonic::Sub, Reg::gpr(i % 8), Reg::gpr(9)));
        }
        b.terminate_branch(l, Mnemonic::Jnz, l, exit);
        b.terminate_exit(exit, build::bare(Mnemonic::Syscall));
        let mut p = b.build(f).unwrap();
        let layout = Layout::compute(&mut p).unwrap();
        let image = TextImage::encode(&p, &layout, p.modules()[0].id(), ImageView::Disk);
        let map = BlockMap::discover(&[image], layout.symbols()).unwrap();
        Fixture {
            short_start: layout.block_start(s),
            short_term: layout.terminator_addr(s),
            long_start: layout.block_start(l),
            long_term: layout.terminator_addr(l),
            map,
        }
    }

    fn data_with_both(fx: &Fixture) -> PerfData {
        let mut data = PerfData::new();
        // EBS: 10 samples in short block, 10 in long.
        for i in 0..20 {
            let ip = if i % 2 == 0 {
                fx.short_start
            } else {
                fx.long_start
            };
            data.push(PerfRecord::Sample(PerfSample {
                counter: 0,
                event: EventSpec::inst_retired_prec_dist(),
                ip,
                time_cycles: 0,
                pid: 1,
                tid: 1,
                ring: Ring::User,
                lbr: vec![],
            }));
        }
        // LBR: stacks of short-loop and long-loop iterations.
        for i in 0..10 {
            let (from, to) = if i % 2 == 0 {
                (fx.short_term, fx.short_start)
            } else {
                (fx.long_term, fx.long_start)
            };
            data.push(PerfRecord::Sample(PerfSample {
                counter: 1,
                event: EventSpec::br_inst_retired_near_taken(),
                ip: 0,
                time_cycles: 0,
                pid: 1,
                tid: 1,
                ring: Ring::User,
                lbr: vec![LbrEntry { from, to }; 5],
            }));
        }
        data
    }

    #[test]
    fn paper_rule_routes_by_length() {
        let fx = fixture();
        let data = data_with_both(&fx);
        let e = ebs::estimate(&data, &fx.map, 1000);
        let l = lbr::estimate(&data, &fx.map, 300, &LbrOptions::default());
        let h = combine(&fx.map, &e, &l, &HybridRule::paper_default());
        assert_eq!(h.choices[&fx.short_start], Choice::Lbr);
        assert_eq!(h.choices[&fx.long_start], Choice::Ebs);
        assert_eq!(h.count(fx.short_start), l.count(fx.short_start));
        assert_eq!(h.count(fx.long_start), e.count(fx.long_start));
        let (n_ebs, n_lbr) = h.choice_counts();
        assert!(n_ebs >= 1 && n_lbr >= 1);
    }

    #[test]
    fn ablation_rules() {
        let fx = fixture();
        let data = data_with_both(&fx);
        let e = ebs::estimate(&data, &fx.map, 1000);
        let l = lbr::estimate(&data, &fx.map, 300, &LbrOptions::default());
        let he = combine(&fx.map, &e, &l, &HybridRule::AlwaysEbs);
        assert_eq!(he.count(fx.short_start), e.count(fx.short_start));
        let hl = combine(&fx.map, &e, &l, &HybridRule::AlwaysLbr);
        assert_eq!(hl.count(fx.long_start), l.count(fx.long_start));
    }

    #[test]
    fn blocks_without_evidence_are_absent() {
        let fx = fixture();
        let empty = PerfData::new();
        let e = ebs::estimate(&empty, &fx.map, 1000);
        let l = lbr::estimate(&empty, &fx.map, 300, &LbrOptions::default());
        let h = combine(&fx.map, &e, &l, &HybridRule::paper_default());
        assert!(h.bbec.is_empty());
        assert!(h.choices.is_empty());
    }

    #[test]
    fn tree_rule_equivalent_to_cutoff() {
        use hbbp_mltree::{Dataset, DecisionTree, TrainConfig};
        // Train a tiny tree that reproduces the length cutoff.
        let mut d = Dataset::new(crate::FEATURE_NAMES, ["EBS", "LBR"]);
        for len in 1..=40 {
            let feats = vec![len as f64, 0.0, 3.0, 0.0, 1.0, 1.0];
            d.push(feats, usize::from(len <= 18)).unwrap();
        }
        let tree = DecisionTree::train(&d, &TrainConfig::default()).unwrap();
        let rule = HybridRule::Tree(tree);

        let fx = fixture();
        let data = data_with_both(&fx);
        let e = ebs::estimate(&data, &fx.map, 1000);
        let l = lbr::estimate(&data, &fx.map, 300, &LbrOptions::default());
        let h_tree = combine(&fx.map, &e, &l, &rule);
        let h_cut = combine(&fx.map, &e, &l, &HybridRule::paper_default());
        assert_eq!(h_tree.choices, h_cut.choices);
    }

    #[test]
    fn rule_display() {
        assert!(HybridRule::paper_default().to_string().contains("18"));
        assert!(HybridRule::AlwaysEbs.to_string().contains("EBS"));
    }
}
