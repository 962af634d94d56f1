//! Text images and static basic-block discovery.
//!
//! A [`TextImage`] is the raw machine code of one module, either as found
//! **on disk** or as captured from the **live** machine. The two differ for
//! kernel modules with tracepoints: on disk a site is an unconditional
//! `JMP` into the module's probe stub; live (tracing disabled) the site is
//! a same-length multi-byte NOP (paper §III.C).
//!
//! [`BlockMap::discover`] rebuilds the static basic-block structure from
//! images + symbols, exactly like the paper's analyzer maps "dynamic
//! (sample) information … onto static basic block maps" (§V.B).

use crate::{Layout, ModuleId, Program, Ring, TracepointSite};
use hbbp_isa::{codec, BranchKind, Instruction, Mnemonic, Operand};
use std::fmt;

/// Which view of a module's text to encode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImageView {
    /// The on-disk binary: tracepoint sites are `JMP stub`.
    Disk,
    /// The live text: tracepoint sites are NOPs (tracing disabled).
    Live,
}

/// The machine code of one module at a load address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextImage {
    module: ModuleId,
    name: String,
    ring: Ring,
    base: u64,
    bytes: Vec<u8>,
}

impl TextImage {
    /// Encode a module's text from a laid-out program.
    pub fn encode(
        program: &Program,
        layout: &Layout,
        module: ModuleId,
        view: ImageView,
    ) -> TextImage {
        let m = program.module(module);
        let (base, end) = layout.module_range(module);
        let mut bytes = Vec::with_capacity((end - base) as usize);
        let tracepoints: &[TracepointSite] = m.tracepoints();
        for &fid in m.functions() {
            for &bid in program.function(fid).blocks() {
                let block = program.block(bid);
                for (idx, instr) in block.instrs().iter().enumerate() {
                    let is_site = tracepoints
                        .iter()
                        .any(|t| t.block == bid && t.instr_index == idx);
                    if is_site && view == ImageView::Disk {
                        // Disk form: JMP to the probe stub, same length as
                        // the live NOP (both are header + one imm32).
                        let here = layout.instr_addr(bid, idx);
                        let next = here + instr.encoded_len() as u64;
                        let stub = layout.stub_addr(module).expect("module has stub");
                        let disp = (stub as i64 - next as i64) as i32;
                        let jmp =
                            Instruction::with_operands(Mnemonic::Jmp, vec![Operand::Imm(disp)]);
                        debug_assert_eq!(jmp.encoded_len(), instr.encoded_len());
                        codec::encode_into(&jmp, &mut bytes);
                    } else {
                        codec::encode_into(instr, &mut bytes);
                    }
                }
            }
        }
        if layout.stub_addr(module).is_some() {
            let stub_nop = Instruction::with_operands(Mnemonic::NopMulti, vec![Operand::Imm(0)]);
            for _ in 0..crate::layout::STUB_NOPS {
                codec::encode_into(&stub_nop, &mut bytes);
            }
        }
        debug_assert_eq!(bytes.len() as u64, end - base, "image size mismatch");
        TextImage {
            module,
            name: m.name().to_owned(),
            ring: m.ring(),
            base,
            bytes,
        }
    }

    /// Module id.
    pub fn module(&self) -> ModuleId {
        self.module
    }

    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ring level of the module.
    pub fn ring(&self) -> Ring {
        self.ring
    }

    /// Load (base) address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Raw text bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// End address (exclusive).
    pub fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }

    /// Overwrite this image's bytes with another image of the same module
    /// at the same address — the paper's remedy for self-modified kernel
    /// text: "we patch the static kernel binary on disk with the .text
    /// extracted from the live kernel image" (§III.C).
    ///
    /// Returns the number of bytes that changed.
    ///
    /// # Errors
    ///
    /// Fails if the images cover different modules or address ranges.
    pub fn patch_from(&mut self, live: &TextImage) -> Result<usize, PatchError> {
        if self.module != live.module
            || self.base != live.base
            || self.bytes.len() != live.bytes.len()
        {
            return Err(PatchError {
                expected: (self.module, self.base, self.bytes.len()),
                found: (live.module, live.base, live.bytes.len()),
            });
        }
        let mut changed = 0;
        for (dst, src) in self.bytes.iter_mut().zip(&live.bytes) {
            if dst != src {
                changed += 1;
                *dst = *src;
            }
        }
        Ok(changed)
    }
}

/// Error patching one image from another (module/range mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchError {
    expected: (ModuleId, u64, usize),
    found: (ModuleId, u64, usize),
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "image mismatch: expected module {} @{:#x} ({} bytes), found module {} @{:#x} ({} bytes)",
            self.expected.0, self.expected.1, self.expected.2,
            self.found.0, self.found.1, self.found.2
        )
    }
}

impl std::error::Error for PatchError {}

/// A statically discovered basic block.
#[derive(Debug, Clone)]
pub struct StaticBlock {
    /// Start address.
    pub start: u64,
    /// Byte length.
    pub byte_len: u32,
    /// Decoded instructions.
    pub instrs: Vec<Instruction>,
    /// Per-instruction byte offsets relative to `start`.
    pub offsets: Vec<u32>,
    /// Owning module.
    pub module: ModuleId,
    /// Ring level.
    pub ring: Ring,
    /// Branch kind of the final instruction, if it is a branch.
    pub term_kind: Option<BranchKind>,
    /// Decoded direct-branch target address, if the final instruction is a
    /// direct jump/branch/call.
    pub term_target: Option<u64>,
    /// Enclosing symbol (function) name, if any.
    pub symbol: Option<String>,
}

impl StaticBlock {
    /// End address (exclusive).
    pub fn end(&self) -> u64 {
        self.start + self.byte_len as u64
    }

    /// Number of instructions — the HBBP block-length feature.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the block has no instructions (never true after discovery).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Address of the final (terminator) instruction.
    pub fn terminator_addr(&self) -> u64 {
        self.start + *self.offsets.last().expect("non-empty") as u64
    }

    /// Whether any instruction in the block is long-latency (an HBBP
    /// training feature).
    pub fn has_long_latency(&self) -> bool {
        self.instrs.iter().any(Instruction::is_long_latency)
    }
}

/// Result of walking one LBR stream across the block map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamWalk {
    /// Indices (into [`BlockMap::blocks`]) of the blocks covered.
    pub blocks: Vec<usize>,
    /// The walk hit an inconsistency (e.g. a mid-stream unconditional jump
    /// whose target is not the next address — the stale-kernel-text
    /// signature) and stopped early.
    pub derailed: bool,
}

/// The static basic-block map: every discovered block of every module,
/// sorted by address, with fast address lookup.
///
/// A discovered map also carries a page-granular lookup index (see
/// `PageIndex`) so [`BlockMap::enclosing`] resolves an instruction
/// pointer with a handful of comparisons instead of a binary search over
/// every block.
#[derive(Debug, Clone)]
pub struct BlockMap {
    blocks: Vec<StaticBlock>,
    pages: PageIndex,
}

/// Log2 of the page granularity of [`PageIndex`] (256-byte pages — small
/// enough that a page holds only a few blocks, so the residual search
/// after the page lookup touches at most a cache line or two).
const PAGE_SHIFT: u32 = 8;

/// A hole of at least this many pages between consecutive blocks starts a
/// new [`PageSegment`] instead of extending the current one, keeping the
/// index compact across the user/kernel address-space split.
const SEGMENT_GAP_PAGES: u64 = 64;

/// One contiguous run of indexed pages.
#[derive(Debug, Clone)]
struct PageSegment {
    /// First page (address >> [`PAGE_SHIFT`]) covered by this segment.
    first_page: u64,
    /// `first_block[slot]` is the index of the first block whose `end()`
    /// lies beyond the base address of page `first_page + slot` — the
    /// lowest block that could contain an address in that page.
    first_block: Vec<u32>,
    /// One past the index of the last block starting inside this segment.
    end_block: u32,
}

/// Page-granular accelerator for IP → block lookups.
///
/// The sorted block vector alone answers `enclosing` in `O(log n)`; the
/// page index narrows the candidate range to the handful of blocks
/// overlapping one 256-byte page first, making lookups effectively `O(log
/// #segments)` — and segments are one-per-module in practice. Blocks never
/// overlap (they partition decoded text), which is what makes the
/// per-page `[first_block[p], first_block[p+1]]` candidate window exact.
#[derive(Debug, Clone, Default)]
struct PageIndex {
    segments: Vec<PageSegment>,
}

impl PageIndex {
    fn build(blocks: &[StaticBlock]) -> PageIndex {
        let mut segments: Vec<PageSegment> = Vec::new();
        for (i, block) in blocks.iter().enumerate() {
            let start_page = block.start >> PAGE_SHIFT;
            let end_page = (block.end() - 1) >> PAGE_SHIFT;
            let open_new = match segments.last() {
                Some(seg) => {
                    let next_uncovered = seg.first_page + seg.first_block.len() as u64;
                    start_page >= next_uncovered.saturating_add(SEGMENT_GAP_PAGES)
                }
                None => true,
            };
            if open_new {
                segments.push(PageSegment {
                    first_page: start_page,
                    first_block: Vec::new(),
                    end_block: i as u32,
                });
            }
            let seg = segments.last_mut().expect("segment just ensured");
            // Every not-yet-covered page up to the block's last page sees
            // this block as the first one ending beyond its base (earlier
            // blocks all end at or before the previous covered page).
            while seg.first_page + (seg.first_block.len() as u64) <= end_page {
                seg.first_block.push(i as u32);
            }
            seg.end_block = (i + 1) as u32;
        }
        PageIndex { segments }
    }

    /// Candidate block range `[lo, hi)` for `addr`, or `None` when no
    /// block can contain it.
    fn candidates(&self, addr: u64) -> Option<(usize, usize)> {
        let page = addr >> PAGE_SHIFT;
        let si = self.segments.partition_point(|s| s.first_page <= page);
        let seg = &self.segments[si.checked_sub(1)?];
        let slot = (page - seg.first_page) as usize;
        if slot >= seg.first_block.len() {
            return None;
        }
        let lo = seg.first_block[slot] as usize;
        // Blocks past `first_block[slot + 1]` start beyond the next page
        // base (> addr); blocks past `end_block` start beyond the segment.
        let hi = match seg.first_block.get(slot + 1) {
            Some(&next) => (next as usize + 1).min(seg.end_block as usize),
            None => seg.end_block as usize,
        };
        Some((lo, hi))
    }
}

/// Error from static block discovery (decode failure inside an image).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoverError {
    /// Module whose image failed to decode.
    pub module: ModuleId,
    /// Underlying codec error.
    pub source: codec::DecodeError,
}

impl fmt::Display for DiscoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "module {}: {}", self.module, self.source)
    }
}

impl std::error::Error for DiscoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl BlockMap {
    /// Discover basic blocks in a set of images.
    ///
    /// Leaders are: symbol entry points, instructions following a branch,
    /// and direct branch targets. Unreachable bytes (probe stubs) become
    /// blocks too, which is harmless — they receive no samples.
    ///
    /// # Errors
    ///
    /// Fails if an image's bytes do not decode.
    pub fn discover(
        images: &[TextImage],
        symbols: &[crate::SymbolInfo],
    ) -> Result<BlockMap, DiscoverError> {
        let mut blocks = Vec::new();
        for image in images {
            Self::discover_module(image, symbols, &mut blocks).map_err(|source| DiscoverError {
                module: image.module(),
                source,
            })?;
        }
        blocks.sort_by_key(|b: &StaticBlock| b.start);
        // Annotate blocks with their enclosing symbol.
        let mut sorted_syms: Vec<&crate::SymbolInfo> = symbols.iter().collect();
        sorted_syms.sort_by_key(|s| s.addr);
        for block in &mut blocks {
            let pos = sorted_syms.partition_point(|s| s.addr <= block.start);
            if pos > 0 {
                let sym = sorted_syms[pos - 1];
                if block.start < sym.addr + sym.size {
                    block.symbol = Some(sym.name.clone());
                }
            }
        }
        let pages = PageIndex::build(&blocks);
        Ok(BlockMap { blocks, pages })
    }

    fn discover_module(
        image: &TextImage,
        symbols: &[crate::SymbolInfo],
        out: &mut Vec<StaticBlock>,
    ) -> Result<(), codec::DecodeError> {
        // Pass 1: linear decode with offsets.
        let mut instrs: Vec<(u64, Instruction)> = Vec::new();
        let mut dec = codec::Decoder::new(image.bytes());
        let mut offset = 0usize;
        while offset < image.bytes().len() {
            match dec.next() {
                Some(Ok(i)) => {
                    instrs.push((image.base() + offset as u64, i));
                    offset = dec.offset();
                }
                Some(Err(e)) => return Err(e),
                None => break,
            }
        }
        // Pass 2: leaders.
        use std::collections::BTreeSet;
        let mut leaders: BTreeSet<u64> = BTreeSet::new();
        if let Some((first, _)) = instrs.first() {
            leaders.insert(*first);
        }
        for sym in symbols {
            if sym.module == image.module() {
                leaders.insert(sym.addr);
            }
        }
        for (idx, (addr, instr)) in instrs.iter().enumerate() {
            if instr.is_branch() {
                if let Some((next_addr, _)) = instrs.get(idx + 1) {
                    leaders.insert(*next_addr);
                }
                if let Some(target) = direct_target(*addr, instr) {
                    if target >= image.base() && target < image.end() {
                        leaders.insert(target);
                    }
                }
            }
        }
        // Pass 3: emit blocks between leaders / after branches.
        let mut current: Vec<(u64, Instruction)> = Vec::new();
        let flush = |current: &mut Vec<(u64, Instruction)>, out: &mut Vec<StaticBlock>| {
            if current.is_empty() {
                return;
            }
            let start = current[0].0;
            let offsets: Vec<u32> = current.iter().map(|(a, _)| (*a - start) as u32).collect();
            let byte_len = {
                let (last_addr, last) = current.last().expect("non-empty");
                (*last_addr - start) as u32 + last.encoded_len()
            };
            let (last_addr, last) = current.last().expect("non-empty");
            let term_kind = last.branch_kind();
            let term_target = direct_target(*last_addr, last);
            out.push(StaticBlock {
                start,
                byte_len,
                instrs: current.iter().map(|(_, i)| i.clone()).collect(),
                offsets,
                module: image.module(),
                ring: image.ring(),
                term_kind,
                term_target,
                symbol: None,
            });
            current.clear();
        };
        for (addr, instr) in instrs {
            if leaders.contains(&addr) {
                flush(&mut current, out);
            }
            let is_branch = instr.is_branch();
            current.push((addr, instr));
            if is_branch {
                flush(&mut current, out);
            }
        }
        flush(&mut current, out);
        Ok(())
    }

    /// All blocks, sorted by start address.
    pub fn blocks(&self) -> &[StaticBlock] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Index of the block containing `addr`.
    ///
    /// The page index narrows the search to the few blocks overlapping
    /// `addr`'s 256-byte page before the final `partition_point`, so this
    /// is effectively constant-time for any map built by
    /// [`BlockMap::discover`].
    pub fn enclosing(&self, addr: u64) -> Option<usize> {
        let found = self.enclosing_indexed(addr);
        debug_assert_eq!(found, self.enclosing_unindexed(addr));
        found
    }

    fn enclosing_indexed(&self, addr: u64) -> Option<usize> {
        let (lo, hi) = self.pages.candidates(addr)?;
        let pos = lo + self.blocks[lo..hi].partition_point(|b| b.start <= addr);
        if pos == lo {
            return None;
        }
        let idx = pos - 1;
        (addr < self.blocks[idx].end()).then_some(idx)
    }

    /// The whole-map binary search the page index must agree with.
    fn enclosing_unindexed(&self, addr: u64) -> Option<usize> {
        let pos = self.blocks.partition_point(|b| b.start <= addr);
        let idx = pos.checked_sub(1)?;
        (addr < self.blocks[idx].end()).then_some(idx)
    }

    /// Index of the block starting exactly at `addr`.
    pub fn at_start(&self, addr: u64) -> Option<usize> {
        self.blocks.binary_search_by_key(&addr, |b| b.start).ok()
    }

    /// Block + instruction index for an exact instruction address.
    pub fn instr_at(&self, addr: u64) -> Option<(usize, usize)> {
        let bi = self.enclosing(addr)?;
        let b = &self.blocks[bi];
        let off = (addr - b.start) as u32;
        match b.offsets.binary_search(&off) {
            Ok(i) => Some((bi, i)),
            Err(_) => None,
        }
    }

    /// Walk an LBR stream `<target, source>`: the straight-line execution
    /// from the branch-target address to the next taken-branch source.
    ///
    /// Returns every block index covered. Mid-stream blocks ending in an
    /// unconditional jump, call or return whose continuation is not the next
    /// address mark the walk as derailed (stale text or bogus stream) and
    /// stop it.
    pub fn walk_stream(&self, target: u64, source: u64) -> StreamWalk {
        let mut covered = Vec::new();
        let derailed = self.walk_stream_into(target, source, &mut covered);
        StreamWalk {
            blocks: covered,
            derailed,
        }
    }

    /// Allocation-free form of [`BlockMap::walk_stream`]: append the
    /// covered block indices to `covered` (cleared first) and return
    /// whether the walk derailed. Hot callers reuse one buffer across
    /// streams.
    pub fn walk_stream_into(&self, target: u64, source: u64, covered: &mut Vec<usize>) -> bool {
        covered.clear();
        let Some(mut idx) = self.enclosing(target) else {
            return true;
        };
        if source < target {
            return true;
        }
        loop {
            let block = &self.blocks[idx];
            covered.push(idx);
            if source >= block.start && source < block.end() {
                // Stream ends inside this block.
                return false;
            }
            // Mid-stream: execution must continue at block.end().
            let consistent = match block.term_kind {
                // A conditional branch falls through mid-stream.
                Some(BranchKind::Conditional) | None => true,
                // An unconditional jump is fine only if it targets the next
                // address (e.g. a jump-to-next); otherwise the stream claims
                // execution ignored the jump — the stale-text signature.
                Some(BranchKind::Unconditional) => block.term_target == Some(block.end()),
                // Calls and returns always divert; a stream cannot cross them.
                Some(BranchKind::Call) | Some(BranchKind::Return) => false,
            };
            if !consistent {
                return true;
            }
            // Blocks are sorted and non-overlapping, so a block starting at
            // `block.end()` can only be the next one in the vector.
            match self.blocks.get(idx + 1) {
                Some(next) if next.start == block.end() => idx += 1,
                _ => return true,
            }
        }
    }
}

/// Compute the target of a direct branch instruction at `addr`.
fn direct_target(addr: u64, instr: &Instruction) -> Option<u64> {
    if !instr.is_branch() || instr.branch_kind() == Some(BranchKind::Return) {
        return None;
    }
    let disp = instr.operands().iter().find_map(|op| match op {
        Operand::Imm(d) => Some(*d),
        _ => None,
    })?;
    let next = addr + instr.encoded_len() as u64;
    Some((next as i64 + disp as i64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layout, ProgramBuilder, Ring};
    use hbbp_isa::instruction::build::*;
    use hbbp_isa::{Mnemonic, Reg};

    /// Three-block user program with a loop and a call.
    fn build_sample() -> (crate::Program, Layout) {
        let mut b = ProgramBuilder::new("s");
        let m = b.module("s.bin", Ring::User);
        let f = b.function(m, "main");
        let leaf = b.function(m, "leaf");

        let l0 = b.block(leaf);
        b.push(l0, rr(Mnemonic::Add, Reg::gpr(0), Reg::gpr(1)));
        b.terminate_ret(l0);

        let b0 = b.block(f);
        let b1 = b.block(f);
        let b2 = b.block(f);
        b.push(b0, ri(Mnemonic::Mov, Reg::gpr(0), 3));
        b.terminate_call(b0, leaf, b1);
        b.push(b1, rr(Mnemonic::Sub, Reg::gpr(0), Reg::gpr(1)));
        b.push(b1, rr(Mnemonic::Cmp, Reg::gpr(0), Reg::gpr(1)));
        b.terminate_branch(b1, Mnemonic::Jnz, b1, b2);
        b.terminate_exit(b2, bare(Mnemonic::Syscall));

        let mut p = b.build(f).unwrap();
        let layout = Layout::compute(&mut p).unwrap();
        (p, layout)
    }

    #[test]
    fn discovery_matches_program_blocks() {
        let (p, layout) = build_sample();
        let image = TextImage::encode(&p, &layout, p.modules()[0].id(), ImageView::Disk);
        let map = BlockMap::discover(&[image], layout.symbols()).unwrap();
        assert_eq!(map.len(), p.block_count());
        for block in p.blocks() {
            let idx = map
                .at_start(layout.block_start(block.id()))
                .unwrap_or_else(|| panic!("{} not discovered", block.id()));
            let sb = &map.blocks()[idx];
            assert_eq!(sb.len(), block.len(), "{}", block.id());
            assert_eq!(sb.byte_len, layout.block_bytes(block.id()));
            assert_eq!(sb.instrs.as_slice(), block.instrs());
        }
    }

    #[test]
    fn instr_at_exact_addresses() {
        let (p, layout) = build_sample();
        let image = TextImage::encode(&p, &layout, p.modules()[0].id(), ImageView::Disk);
        let map = BlockMap::discover(&[image], layout.symbols()).unwrap();
        for block in p.blocks() {
            for idx in 0..block.len() {
                let addr = layout.instr_addr(block.id(), idx);
                let (bi, ii) = map.instr_at(addr).expect("instr found");
                assert_eq!(map.blocks()[bi].start, layout.block_start(block.id()));
                assert_eq!(ii, idx);
            }
        }
        // Mid-instruction addresses resolve to no instruction.
        let b0 = p.functions()[0].blocks()[0];
        assert_eq!(map.instr_at(layout.block_start(b0) + 1), None);
    }

    #[test]
    fn stream_walk_covers_linear_range() {
        let (p, layout) = build_sample();
        let image = TextImage::encode(&p, &layout, p.modules()[0].id(), ImageView::Disk);
        let map = BlockMap::discover(&[image], layout.symbols()).unwrap();
        // Stream from start of b1 to its own terminator: exactly one block.
        let f = p.entry();
        let b1 = p.function(f).blocks()[1];
        let walk = map.walk_stream(layout.block_start(b1), layout.terminator_addr(b1));
        assert!(!walk.derailed);
        assert_eq!(walk.blocks.len(), 1);
        // Stream spanning b1 (fallthrough) into b2.
        let b2 = p.function(f).blocks()[2];
        let walk = map.walk_stream(layout.block_start(b1), layout.terminator_addr(b2));
        assert!(!walk.derailed);
        assert_eq!(walk.blocks.len(), 2);
    }

    #[test]
    fn stream_walk_rejects_backwards_range() {
        let (p, layout) = build_sample();
        let image = TextImage::encode(&p, &layout, p.modules()[0].id(), ImageView::Disk);
        let map = BlockMap::discover(&[image], layout.symbols()).unwrap();
        let f = p.entry();
        let b1 = p.function(f).blocks()[1];
        let walk = map.walk_stream(layout.terminator_addr(b1), layout.block_start(b1));
        assert!(walk.derailed);
    }

    #[test]
    fn stream_walk_derails_on_midstream_call() {
        let (p, layout) = build_sample();
        let image = TextImage::encode(&p, &layout, p.modules()[0].id(), ImageView::Disk);
        let map = BlockMap::discover(&[image], layout.symbols()).unwrap();
        let f = p.entry();
        let b0 = p.function(f).blocks()[0]; // ends with CALL
        let b2 = p.function(f).blocks()[2];
        let walk = map.walk_stream(layout.block_start(b0), layout.terminator_addr(b2));
        assert!(walk.derailed);
        assert_eq!(walk.blocks.len(), 1); // only b0 attributed before derail
    }

    fn build_kernel_sample() -> (crate::Program, Layout) {
        let mut b = ProgramBuilder::new("k");
        let m = b.module("hello.ko", Ring::Kernel);
        let f = b.function(m, "hello_k");
        let b0 = b.block(f);
        let b1 = b.block(f);
        b.push(b0, rr(Mnemonic::Add, Reg::gpr(0), Reg::gpr(1)));
        b.tracepoint(b0);
        b.push(b0, rr(Mnemonic::Sub, Reg::gpr(0), Reg::gpr(1)));
        b.terminate_branch(b0, Mnemonic::Jnz, b0, b1);
        b.terminate_ret(b1);
        let mut p = b.build(f).unwrap();
        let layout = Layout::compute(&mut p).unwrap();
        (p, layout)
    }

    #[test]
    fn disk_and_live_views_differ_only_at_tracepoints() {
        let (p, layout) = build_kernel_sample();
        let mid = p.modules()[0].id();
        let disk = TextImage::encode(&p, &layout, mid, ImageView::Disk);
        let live = TextImage::encode(&p, &layout, mid, ImageView::Live);
        assert_eq!(disk.bytes().len(), live.bytes().len());
        assert_ne!(disk.bytes(), live.bytes());
        let mut patched = disk.clone();
        let changed = patched.patch_from(&live).unwrap();
        assert!(changed > 0);
        assert_eq!(patched.bytes(), live.bytes());
    }

    #[test]
    fn stale_disk_text_splits_blocks_and_derails_streams() {
        let (p, layout) = build_kernel_sample();
        let mid = p.modules()[0].id();
        let disk = TextImage::encode(&p, &layout, mid, ImageView::Disk);
        let live = TextImage::encode(&p, &layout, mid, ImageView::Live);

        let disk_map = BlockMap::discover(&[disk], layout.symbols()).unwrap();
        let live_map = BlockMap::discover(&[live], layout.symbols()).unwrap();

        // The disk view sees an extra JMP → more (split) blocks.
        assert!(disk_map.len() > live_map.len());

        // A stream across the tracepoint derails on the disk map …
        let f = p.entry();
        let b0 = p.function(f).blocks()[0];
        let walk = disk_map.walk_stream(layout.block_start(b0), layout.terminator_addr(b0));
        assert!(walk.derailed, "stale text must derail the stream walk");
        // … but not on the live (patched) map.
        let walk = live_map.walk_stream(layout.block_start(b0), layout.terminator_addr(b0));
        assert!(!walk.derailed);
    }

    #[test]
    fn patch_mismatch_rejected() {
        let (p, layout) = build_sample();
        let (kp, klayout) = build_kernel_sample();
        let user = TextImage::encode(&p, &layout, p.modules()[0].id(), ImageView::Disk);
        let kernel = TextImage::encode(&kp, &klayout, kp.modules()[0].id(), ImageView::Live);
        let mut user2 = user.clone();
        let err = user2.patch_from(&kernel).unwrap_err();
        assert!(!err.to_string().is_empty());
    }
}
