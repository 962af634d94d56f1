//! The analyzer — paper §V.B.
//!
//! "Analysis software … produces dynamic instruction mixes from raw sample
//! input by processing additional static information. … Dynamic (sample)
//! information is mapped onto static basic block maps. Using the adjusted
//! sample data, we produce a histogram of BBECs according to HBBP."
//!
//! [`Analyzer`] owns the block map (the static side), turns any BBEC into
//! mnemonic mixes and pivot tables, and performs the kernel-text patch
//! step of §III.C before the map is built (see [`Analyzer::from_images`]).

use crate::{EbsEstimate, HbbpEstimate, HybridRule, LbrEstimate, LbrOptions, OnlineAnalyzer};
use crate::{Field, PivotTable, SamplingPeriods};
use hbbp_perf::PerfData;
use hbbp_program::{
    Bbec, BlockMap, DiscoverError, MnemonicMix, Ring, StaticBlock, SymbolInfo, TextImage,
};
use std::collections::HashMap;

/// The analysis engine for one workload's images.
#[derive(Debug, Clone)]
pub struct Analyzer {
    map: BlockMap,
    module_names: HashMap<hbbp_program::ModuleId, String>,
    lbr_options: LbrOptions,
}

/// Full per-method analysis of one recording: the three estimates and
/// their mixes.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// EBS-only estimate.
    pub ebs: EbsEstimate,
    /// LBR-only estimate.
    pub lbr: LbrEstimate,
    /// Combined HBBP estimate.
    pub hbbp: HbbpEstimate,
}

impl Analyzer {
    /// Build an analyzer from text images (performing static block
    /// discovery).
    ///
    /// Pass the **patched** kernel images (see [`TextImage::patch_from`])
    /// to avoid the stale-text distortion of §III.C.
    ///
    /// # Errors
    ///
    /// Returns [`DiscoverError`] if an image fails to decode.
    pub fn from_images(
        images: &[TextImage],
        symbols: &[SymbolInfo],
    ) -> Result<Analyzer, DiscoverError> {
        let map = BlockMap::discover(images, symbols)?;
        let module_names = images
            .iter()
            .map(|i| (i.module(), i.name().to_owned()))
            .collect();
        Ok(Analyzer {
            map,
            module_names,
            lbr_options: LbrOptions::default(),
        })
    }

    /// Build an analyzer over an existing block map.
    pub fn from_map(
        map: BlockMap,
        module_names: HashMap<hbbp_program::ModuleId, String>,
    ) -> Analyzer {
        Analyzer {
            map,
            module_names,
            lbr_options: LbrOptions::default(),
        }
    }

    /// Override LBR analysis options.
    pub fn with_lbr_options(mut self, options: LbrOptions) -> Analyzer {
        self.lbr_options = options;
        self
    }

    /// The static block map.
    pub fn map(&self) -> &BlockMap {
        &self.map
    }

    /// The LBR analysis options in effect.
    pub fn lbr_options(&self) -> &LbrOptions {
        &self.lbr_options
    }

    /// Run all three estimators in a **single pass** over an in-memory
    /// recording: an unwindowed [`OnlineAnalyzer`] — the same driver a
    /// file, a socket or a live session feeds — takes each sample in turn.
    ///
    /// Pinned bit-identical to the seed two-scan, address-keyed pipeline
    /// (`hbbp_oracle::analyze_ref`) by `crates/core/tests/dense_equivalence.rs`.
    pub fn analyze_fused(
        &self,
        data: &PerfData,
        periods: SamplingPeriods,
        rule: &HybridRule,
    ) -> Analysis {
        let mut online = OnlineAnalyzer::new(self, periods, rule.clone());
        for sample in data.samples() {
            online.push_sample(sample);
        }
        online
            .finish()
            .into_analysis()
            .expect("an unwindowed run emits one analysis")
    }

    /// Derive the instruction mix from a BBEC ("If we know how many times a
    /// basic block is executed, we also know exactly how many times each
    /// instruction within it is executed", §I).
    pub fn mix(&self, bbec: &Bbec) -> MnemonicMix {
        self.mix_where(bbec, |_| true)
    }

    /// Instruction mix restricted to blocks matching a predicate (e.g. one
    /// ring or one module — how Table 7 splits user vs kernel).
    pub fn mix_where(
        &self,
        bbec: &Bbec,
        mut predicate: impl FnMut(&StaticBlock) -> bool,
    ) -> MnemonicMix {
        let mut mix = MnemonicMix::new();
        for block in self.map.blocks() {
            let count = bbec.get(block.start);
            if count <= 0.0 || !predicate(block) {
                continue;
            }
            mix.add_block(&block.instrs, count);
        }
        mix
    }

    /// Instruction mix of one ring.
    pub fn mix_for_ring(&self, bbec: &Bbec, ring: Ring) -> MnemonicMix {
        self.mix_where(bbec, |b| b.ring == ring)
    }

    /// Build a pivot table over the weighted instruction population.
    pub fn pivot(&self, bbec: &Bbec, fields: &[Field]) -> PivotTable {
        let entries = self.map.blocks().iter().flat_map(|block| {
            let count = bbec.get(block.start);
            let name = self
                .module_names
                .get(&block.module)
                .map(String::as_str)
                .unwrap_or("?");
            block
                .instrs
                .iter()
                .filter(move |_| count > 0.0)
                .map(move |instr| (block, instr, name, count))
        });
        PivotTable::build(fields, entries)
    }

    /// Total instructions implied by a BBEC.
    pub fn total_instructions(&self, bbec: &Bbec) -> f64 {
        self.map
            .blocks()
            .iter()
            .map(|b| bbec.get(b.start) * b.len() as f64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbp_isa::instruction::build;
    use hbbp_isa::{Mnemonic, Reg, Taxonomy};
    use hbbp_program::{ImageView, Layout, ProgramBuilder};

    fn fixture() -> (Analyzer, u64, u64) {
        let mut b = ProgramBuilder::new("f");
        let um = b.module("user.bin", Ring::User);
        let km = b.module("mod.ko", Ring::Kernel);
        let fu = b.function(um, "user_fn");
        let fk = b.function(km, "kernel_fn");

        let k0 = b.block(fk);
        b.push(k0, build::rr(Mnemonic::Imul, Reg::gpr(0), Reg::gpr(1)));
        b.terminate_ret(k0);

        let u0 = b.block(fu);
        let u1 = b.block(fu);
        b.push(u0, build::rr(Mnemonic::Addps, Reg::xmm(0), Reg::xmm(1)));
        b.push(u0, build::rr(Mnemonic::Add, Reg::gpr(0), Reg::gpr(1)));
        b.terminate_call(u0, fk, u1);
        b.terminate_exit(u1, build::bare(Mnemonic::Syscall));

        let mut p = b.build(fu).unwrap();
        let layout = Layout::compute(&mut p).unwrap();
        let images: Vec<TextImage> = p
            .modules()
            .iter()
            .map(|m| TextImage::encode(&p, &layout, m.id(), ImageView::Live))
            .collect();
        let analyzer = Analyzer::from_images(&images, layout.symbols()).unwrap();
        (analyzer, layout.block_start(u0), layout.block_start(k0))
    }

    #[test]
    fn mix_expands_blocks() {
        let (analyzer, u0, k0) = fixture();
        let mut bbec = Bbec::new();
        bbec.set(u0, 10.0);
        bbec.set(k0, 4.0);
        let mix = analyzer.mix(&bbec);
        assert_eq!(mix.get(Mnemonic::Addps), 10.0);
        assert_eq!(mix.get(Mnemonic::CallNear), 10.0);
        assert_eq!(mix.get(Mnemonic::Imul), 4.0);
        assert_eq!(analyzer.total_instructions(&bbec), 10.0 * 3.0 + 4.0 * 2.0);
    }

    #[test]
    fn ring_filtering_matches_table7_usage() {
        let (analyzer, u0, k0) = fixture();
        let mut bbec = Bbec::new();
        bbec.set(u0, 10.0);
        bbec.set(k0, 4.0);
        let user = analyzer.mix_for_ring(&bbec, Ring::User);
        let kernel = analyzer.mix_for_ring(&bbec, Ring::Kernel);
        assert_eq!(user.get(Mnemonic::Imul), 0.0);
        assert_eq!(kernel.get(Mnemonic::Imul), 4.0);
        assert_eq!(user.get(Mnemonic::Addps), 10.0);
        assert_eq!(kernel.get(Mnemonic::Addps), 0.0);
    }

    #[test]
    fn pivot_by_module_and_extension() {
        let (analyzer, u0, k0) = fixture();
        let mut bbec = Bbec::new();
        bbec.set(u0, 10.0);
        bbec.set(k0, 4.0);
        let table = analyzer.pivot(&bbec, &[Field::Module, Field::Extension]);
        assert_eq!(table.get(&["user.bin", "SSE"]), 10.0);
        assert_eq!(table.get(&["mod.ko", "BASE"]), 8.0); // IMUL + RET
        assert!(table.total() > 0.0);
        let text = table.to_string();
        assert!(text.contains("user.bin"));
        let csv = table.to_csv();
        assert!(csv.starts_with("module,ext,count"));
    }

    #[test]
    fn pivot_with_taxonomy() {
        let (analyzer, u0, _) = fixture();
        let mut bbec = Bbec::new();
        bbec.set(u0, 5.0);
        let table = analyzer.pivot(&bbec, &[Field::Taxon(Taxonomy::ext_packing())]);
        assert_eq!(table.get(&["SSE/PACKED"]), 5.0);
    }

    #[test]
    fn pivot_by_symbol() {
        let (analyzer, u0, k0) = fixture();
        let mut bbec = Bbec::new();
        bbec.set(u0, 2.0);
        bbec.set(k0, 3.0);
        let table = analyzer.pivot(&bbec, &[Field::Symbol]);
        assert_eq!(table.get(&["user_fn"]), 6.0);
        assert_eq!(table.get(&["kernel_fn"]), 6.0);
    }
}
