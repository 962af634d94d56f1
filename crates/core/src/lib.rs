//! # hbbp-core — Hybrid Basic Block Profiling
//!
//! The primary contribution of "Low-Overhead Dynamic Instruction Mix
//! Generation using Hybrid Basic Block Profiling" (Nowak, Yasin, Szostek,
//! Zwaenepoel — ISPASS 2018), reproduced end to end:
//!
//! * [`ebs`] — the enhanced EBS estimator (whole-block sample crediting,
//!   length normalization; §III.A);
//! * [`lbr`] — LBR stream decomposition with `1/(N-1)` weights, plus
//!   entry\[0\] **bias detection** and per-block bias flags (§III.B-C);
//! * [`HybridRule`] / [`hybrid::combine`] — the per-block EBS-vs-LBR
//!   choice: the paper's distilled `len ≤ 18 → LBR` rule or a trained
//!   classification tree (§IV);
//! * [`training`] — the criteria search: label ≈1,100 blocks against
//!   instrumentation ground truth, train a CART tree, distil the cutoff
//!   (§IV.B, Figure 1);
//! * [`Analyzer`] — static block maps, instruction mixes, pivot tables,
//!   ring filtering and the kernel-text patch step (§V.B, §III.C). The
//!   estimation pipeline runs in **block-index coordinates**
//!   ([`hbbp_program::DenseBbec`]); [`Analyzer::analyze_fused`] analyzes
//!   an in-memory recording in a single pass through an unwindowed
//!   [`OnlineAnalyzer`] (the seed address-keyed pipeline it is pinned
//!   against lives in the test-only `hbbp-oracle` crate);
//! * [`online`] — the one analysis driver: [`OnlineAnalyzer`] consumes
//!   one record at a time, dispatching each sample to the EBS/LBR
//!   accumulators, and optional time/sample windows turn long runs into
//!   per-phase instruction-mix timelines with memory bounded by the
//!   window, not the run;
//! * [`HbbpProfiler`] — the end-to-end tool: clean run, Table 4 period
//!   policy ([`periods`]), single-run dual-LBR collection, analysis;
//! * [`errors`] — the paper's error metrics (§VI): per-mnemonic error and
//!   the average weighted error.
//!
//! ```
//! use hbbp_core::{HbbpProfiler, HybridRule};
//! use hbbp_sim::Cpu;
//! use hbbp_workloads::{test40, Scale};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = test40(Scale::Tiny);
//! let profiler = HbbpProfiler::new(Cpu::with_seed(42))
//!     .with_rule(HybridRule::paper_default());
//! let result = profiler.profile(&workload)?;
//! println!("top mnemonics: {:?}", result.hbbp_mix().top(5));
//! println!("overhead: {:.2}%", result.overhead_fraction() * 100.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod analyzer;
mod collector;
pub mod drift;
pub mod ebs;
pub mod errors;
mod features;
pub mod hybrid;
pub mod lbr;
pub mod online;
pub mod periods;
mod pivot;
pub mod training;

pub use analyzer::{Analysis, Analyzer};
pub use collector::{HbbpProfiler, ProfileError, ProfileResult};
pub use drift::{mix_distance, MixDrift, MixDriftRow};
pub use ebs::EbsEstimate;
pub use errors::{MixComparison, MixErrorRow};
pub use features::{BlockFeatures, FEATURE_NAMES};
pub use hybrid::{Choice, HbbpEstimate, HybridRule, PAPER_CUTOFF};
pub use lbr::{LbrEstimate, LbrOptions};
pub use online::{OnlineAnalyzer, OnlineOutcome, Window, WindowedAnalysis};
pub use periods::{period_table, RuntimeClass, SamplingPeriods};
pub use pivot::{Field, PivotRow, PivotTable};
pub use training::{train_rule, TrainingConfig, TrainingOutcome};
