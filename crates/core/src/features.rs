//! Per-block features for the HBBP decision rule — paper §IV.B.
//!
//! "As features we use code parameters that could have an influence on the
//! underlying performance monitoring subsystem, including, for instance,
//! basic block lengths, instruction-related information, execution counts
//! and bias flags, weighted by the number of executions of the basic
//! block."

use crate::{EbsEstimate, LbrEstimate};
use hbbp_isa::Instruction;
use hbbp_program::StaticBlock;

/// Feature names, in the order produced by [`BlockFeatures::to_vec`].
pub const FEATURE_NAMES: [&str; 6] = [
    "block_len",
    "bias",
    "exec_estimate_log10",
    "has_long_latency",
    "mean_latency",
    "backward_branch",
];

/// Features of one basic block, as available *at analysis time* (no ground
/// truth involved).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockFeatures {
    /// Instruction count of the block — the paper's dominant feature.
    pub block_len: f64,
    /// LBR bias flag (§III.C).
    pub bias: bool,
    /// log10 of the measured execution estimate (max of EBS/LBR).
    pub exec_estimate_log10: f64,
    /// Whether any instruction is long-latency.
    pub has_long_latency: bool,
    /// Mean nominal latency of the block's instructions.
    pub mean_latency: f64,
    /// Whether the terminator is a backward conditional branch (loop-ish).
    pub backward_branch: bool,
}

impl BlockFeatures {
    /// Extract features for the block at map index `bi` (`block` must be
    /// `map.blocks()[bi]`), using dense index-addressed estimate lookups.
    pub fn extract_indexed(
        block: &StaticBlock,
        bi: usize,
        ebs: &EbsEstimate,
        lbr: &LbrEstimate,
    ) -> BlockFeatures {
        let exec = ebs.count_idx(bi).max(lbr.count_idx(bi));
        let mean_latency = if block.instrs.is_empty() {
            0.0
        } else {
            block.instrs.iter().map(|i| i.latency() as f64).sum::<f64>() / block.instrs.len() as f64
        };
        BlockFeatures {
            block_len: block.len() as f64,
            bias: lbr.is_biased_idx(bi),
            exec_estimate_log10: if exec > 0.0 { exec.log10() } else { 0.0 },
            has_long_latency: block.instrs.iter().any(Instruction::is_long_latency),
            mean_latency,
            backward_branch: matches!(
                (block.term_kind, block.term_target),
                (Some(hbbp_isa::BranchKind::Conditional), Some(t)) if t < block.start
            ) || matches!(
                (block.term_kind, block.term_target),
                (Some(hbbp_isa::BranchKind::Conditional), Some(t))
                    if t >= block.start && t < block.end()
            ),
        }
    }

    /// Feature vector in [`FEATURE_NAMES`] order.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.block_len,
            self.bias as u8 as f64,
            self.exec_estimate_log10,
            self.has_long_latency as u8 as f64,
            self.mean_latency,
            self.backward_branch as u8 as f64,
        ]
    }
}
