//! # hbbp-program — programs, blocks, images and block maps
//!
//! The HBBP pipeline is organised around *basic blocks*: the collector
//! attributes PMU samples to blocks, the analyzer maps blocks back to
//! instructions through static disassembly, and the hybrid rule decides per
//! block which PMU source to trust. This crate provides the program
//! representation shared by every other layer:
//!
//! * [`Program`] / [`ProgramBuilder`] — modules, functions and
//!   [`BasicBlock`]s with validated control flow ([`Terminator`]).
//! * [`Layout`] — virtual address assignment (user modules low, kernel
//!   modules high) and branch displacement patching.
//! * [`TextImage`] — encoded machine code per module, in both the on-disk
//!   and live views (they differ at kernel tracepoint sites, §III.C of the
//!   paper), plus [`TextImage::patch_from`], the paper's kernel-text patch
//!   step.
//! * [`BlockMap`] — static basic-block discovery over images ("static basic
//!   block maps", §V.B) with page-indexed address lookup
//!   ([`BlockMap::enclosing`]) and LBR stream walking.
//! * [`Walker`] / [`ExecutionOracle`] — deterministic dynamic execution,
//!   shared by the CPU simulator and the instrumentation ground truth.
//! * [`Bbec`] / [`DenseBbec`] / [`MnemonicMix`] — block execution counts in
//!   the address-keyed and block-index coordinate systems, and the derived
//!   instruction mixes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bbec;
mod block;
mod builder;
mod dense;
mod ids;
mod image;
pub mod layout;
mod module;
mod program;
pub mod walk;

pub use bbec::{Bbec, MnemonicMix};
pub use block::{BasicBlock, Terminator};
pub use builder::ProgramBuilder;
pub use dense::DenseBbec;
pub use ids::{BlockId, FunctionId, ModuleId};
pub use image::{
    BlockMap, DiscoverError, ImageView, PatchError, StaticBlock, StreamWalk, TextImage,
};
pub use layout::{Layout, SymbolInfo, KERNEL_BASE, USER_BASE};
pub use module::{Function, Module, Ring, TracepointSite};
pub use program::{Program, ProgramError};
pub use walk::{ConstOracle, ExecutionOracle, TripCountOracle, WalkEnd, Walker};
