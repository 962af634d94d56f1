//! Property tests: random well-formed programs must lay out, encode,
//! and rediscover consistently; the indexed/cached address lookups must
//! agree with a naive linear scan on every address.

use hbbp_isa::instruction::build;
use hbbp_isa::{Mnemonic, Reg};
use hbbp_program::{
    Bbec, BlockMap, DenseBbec, ImageView, Layout, ProgramBuilder, Ring, TextImage, TripCountOracle,
    Walker,
};
use proptest::prelude::*;

/// A recipe for one generated function: a chain of blocks, each with a
/// body length and a flag for whether it loops back on itself.
#[derive(Debug, Clone)]
struct FnRecipe {
    blocks: Vec<(u8, bool)>,
}

fn arb_fn() -> impl Strategy<Value = FnRecipe> {
    proptest::collection::vec((1u8..20, any::<bool>()), 1..8).prop_map(|blocks| FnRecipe { blocks })
}

fn filler(i: usize) -> hbbp_isa::Instruction {
    match i % 4 {
        0 => build::rr(Mnemonic::Add, Reg::gpr((i % 16) as u8), Reg::gpr(1)),
        1 => build::rr(Mnemonic::Mov, Reg::gpr(2), Reg::gpr((i % 16) as u8)),
        2 => build::ri(Mnemonic::Cmp, Reg::gpr(0), i as i32),
        _ => build::rr(Mnemonic::Xor, Reg::gpr(3), Reg::gpr(4)),
    }
}

/// Build a program from recipes: function 0 is the entry; every other
/// function is called once from the entry chain.
fn build_program(recipes: &[FnRecipe]) -> hbbp_program::Program {
    let mut b = ProgramBuilder::new("prop");
    let m = b.module("prop.bin", Ring::User);
    let fids: Vec<_> = (0..recipes.len())
        .map(|i| b.function(m, format!("f{i}")))
        .collect();

    for (fi, recipe) in recipes.iter().enumerate() {
        let bids: Vec<_> = recipe.blocks.iter().map(|_| b.block(fids[fi])).collect();
        for (bi, &(len, self_loop)) in recipe.blocks.iter().enumerate() {
            let bid = bids[bi];
            for k in 0..len {
                b.push(bid, filler(k as usize + bi));
            }
            let is_last = bi + 1 == recipe.blocks.len();
            if is_last {
                if fi == 0 {
                    b.terminate_exit(bid, build::bare(Mnemonic::Syscall));
                } else {
                    b.terminate_ret(bid);
                }
            } else if self_loop {
                b.terminate_branch(bid, Mnemonic::Jnz, bid, bids[bi + 1]);
            } else if fi == 0 && bi < recipes.len() - 1 && bi + 1 < recipe.blocks.len() {
                // Entry function calls other functions along its chain.
                let callee = fids[(bi + 1) % recipes.len()];
                if callee != fids[0] {
                    b.terminate_call(bid, callee, bids[bi + 1]);
                } else {
                    b.terminate_jump(bid, bids[bi + 1]);
                }
            } else {
                b.terminate_jump(bid, bids[bi + 1]);
            }
        }
    }
    b.build(fids[0]).expect("valid generated program")
}

/// Naive reference for `BlockMap::enclosing`: linear scan over all blocks.
fn enclosing_linear(map: &BlockMap, addr: u64) -> Option<usize> {
    map.blocks()
        .iter()
        .position(|b| addr >= b.start && addr < b.end())
}

/// A two-ring program (user + kernel modules), so lookups must cross the
/// sparse user/kernel address-space split the page index segments over.
fn build_two_ring(recipes: &[FnRecipe]) -> (hbbp_program::Program, Layout) {
    let mut b = ProgramBuilder::new("rings");
    let um = b.module("u.bin", Ring::User);
    let km = b.module("k.ko", Ring::Kernel);
    let entry = b.function(um, "main");
    let e0 = b.block(entry);
    b.push(e0, filler(0));
    b.terminate_exit(e0, build::bare(Mnemonic::Syscall));
    // Kernel functions are never called — they only exist to populate the
    // high half of the address space for lookup tests.
    for (fi, recipe) in recipes.iter().enumerate() {
        let f = b.function(km, format!("k{fi}"));
        let bids: Vec<_> = recipe.blocks.iter().map(|_| b.block(f)).collect();
        for (bi, &(len, self_loop)) in recipe.blocks.iter().enumerate() {
            let bid = bids[bi];
            for k in 0..len {
                b.push(bid, filler(k as usize + bi));
            }
            if bi + 1 == recipe.blocks.len() {
                b.terminate_ret(bid);
            } else if self_loop {
                b.terminate_branch(bid, Mnemonic::Jnz, bid, bids[bi + 1]);
            } else {
                b.terminate_jump(bid, bids[bi + 1]);
            }
        }
    }
    let mut p = b.build(entry).expect("valid generated program");
    let layout = Layout::compute(&mut p).unwrap();
    (p, layout)
}

/// Interesting probe addresses for a map: block boundaries ± 1, interior
/// instruction addresses, and far-out-of-range extremes.
fn probe_addrs(map: &BlockMap) -> Vec<u64> {
    let mut addrs = vec![0, 1, u64::MAX, u64::MAX - 1];
    for b in map.blocks() {
        addrs.extend([
            b.start.wrapping_sub(1),
            b.start,
            b.start + 1,
            b.end() - 1,
            b.end(),
            b.end() + 1,
        ]);
        for &off in &b.offsets {
            addrs.push(b.start + off as u64);
        }
    }
    addrs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn discovery_reproduces_program_blocks(recipes in proptest::collection::vec(arb_fn(), 1..5)) {
        let mut p = build_program(&recipes);
        let layout = Layout::compute(&mut p).unwrap();
        let images: Vec<TextImage> = p
            .modules()
            .iter()
            .map(|m| TextImage::encode(&p, &layout, m.id(), ImageView::Disk))
            .collect();
        let map = BlockMap::discover(&images, layout.symbols()).unwrap();
        prop_assert_eq!(map.len(), p.block_count());
        for block in p.blocks() {
            let start = layout.block_start(block.id());
            let idx = map.at_start(start);
            prop_assert!(idx.is_some(), "block at {:#x} missing", start);
            let sb = &map.blocks()[idx.unwrap()];
            prop_assert_eq!(sb.len(), block.len());
            prop_assert_eq!(sb.instrs.as_slice(), block.instrs());
        }
    }

    #[test]
    fn locate_total_on_instruction_addrs(recipes in proptest::collection::vec(arb_fn(), 1..4)) {
        let mut p = build_program(&recipes);
        let layout = Layout::compute(&mut p).unwrap();
        for block in p.blocks() {
            for idx in 0..block.len() {
                let addr = layout.instr_addr(block.id(), idx);
                prop_assert_eq!(layout.locate(addr), Some((block.id(), idx)));
            }
        }
    }

    #[test]
    fn walker_terminates_and_counts(recipes in proptest::collection::vec(arb_fn(), 1..4), trips in 1u64..5) {
        let mut p = build_program(&recipes);
        let _ = Layout::compute(&mut p).unwrap();
        let mut walker = Walker::new(&p, TripCountOracle::new(trips)).with_max_blocks(100_000);
        let mut count = 0u64;
        while walker.next_block().is_some() {
            count += 1;
        }
        prop_assert_eq!(count, walker.executed());
        prop_assert!(count >= 1);
    }

    #[test]
    fn indexed_enclosing_matches_linear_scan(recipes in proptest::collection::vec(arb_fn(), 1..4)) {
        let (p, layout) = build_two_ring(&recipes);
        let images: Vec<TextImage> = p
            .modules()
            .iter()
            .map(|m| TextImage::encode(&p, &layout, m.id(), ImageView::Live))
            .collect();
        let map = BlockMap::discover(&images, layout.symbols()).unwrap();
        for addr in probe_addrs(&map) {
            prop_assert_eq!(
                map.enclosing(addr),
                enclosing_linear(&map, addr),
                "lookup mismatch at {:#x}",
                addr
            );
        }
    }

    #[test]
    fn enclosing_agrees_with_seed_binary_search(
        recipes in proptest::collection::vec(arb_fn(), 1..4),
        picks in proptest::collection::vec(0usize..4096, 1..200),
    ) {
        let (p, layout) = build_two_ring(&recipes);
        let images: Vec<TextImage> = p
            .modules()
            .iter()
            .map(|m| TextImage::encode(&p, &layout, m.id(), ImageView::Live))
            .collect();
        let map = BlockMap::discover(&images, layout.symbols()).unwrap();
        let pool = probe_addrs(&map);
        // An arbitrary (locality-free) address sequence: the page-indexed
        // lookup returns exactly what the seed whole-map search does.
        for pick in picks {
            let addr = pool[pick % pool.len()];
            prop_assert_eq!(map.enclosing(addr), hbbp_oracle::enclosing_seed(&map, addr));
        }
    }

    #[test]
    fn walk_stream_into_matches_walk_stream(
        recipes in proptest::collection::vec(arb_fn(), 1..4),
        picks in proptest::collection::vec((0usize..4096, 0usize..4096), 1..64),
    ) {
        let (p, layout) = build_two_ring(&recipes);
        let images: Vec<TextImage> = p
            .modules()
            .iter()
            .map(|m| TextImage::encode(&p, &layout, m.id(), ImageView::Live))
            .collect();
        let map = BlockMap::discover(&images, layout.symbols()).unwrap();
        let pool = probe_addrs(&map);
        let mut buf = Vec::new();
        for (ti, si) in picks {
            let target = pool[ti % pool.len()];
            let source = pool[si % pool.len()];
            let walk = map.walk_stream(target, source);
            let derailed = map.walk_stream_into(target, source, &mut buf);
            prop_assert_eq!(derailed, walk.derailed);
            prop_assert_eq!(&buf, &walk.blocks);
            prop_assert_eq!(&walk, &hbbp_oracle::walk_stream_seed(&map, target, source));
        }
    }

    #[test]
    fn union_addrs_is_sorted_set_union(
        a in proptest::collection::vec((0u64..2000, 1.0f64..10.0), 0..40),
        b in proptest::collection::vec((0u64..2000, 1.0f64..10.0), 0..40),
    ) {
        let ba: Bbec = a.into_iter().collect();
        let bb: Bbec = b.into_iter().collect();
        let got: Vec<u64> = ba.union_addrs(&bb).collect();
        let mut expect: Vec<u64> = ba.iter().map(|(k, _)| k).chain(bb.iter().map(|(k, _)| k)).collect();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn dense_bbec_roundtrips_over_map(
        recipes in proptest::collection::vec(arb_fn(), 1..4),
        entries in proptest::collection::vec((0usize..4096, 1.0f64..1e6), 0..40),
    ) {
        let (p, layout) = build_two_ring(&recipes);
        let images: Vec<TextImage> = p
            .modules()
            .iter()
            .map(|m| TextImage::encode(&p, &layout, m.id(), ImageView::Live))
            .collect();
        let map = BlockMap::discover(&images, layout.symbols()).unwrap();
        let mut dense = DenseBbec::for_map(&map);
        for (i, c) in entries {
            dense.set(i % map.len(), c);
        }
        let bbec = dense.to_bbec(&map);
        prop_assert_eq!(DenseBbec::from_bbec(&bbec, &map), dense.clone());
        // And values agree block by block.
        for (bi, block) in map.blocks().iter().enumerate() {
            prop_assert_eq!(bbec.get(block.start), dense.get(bi));
        }
    }

    #[test]
    fn every_stream_walk_within_a_block_succeeds(recipes in proptest::collection::vec(arb_fn(), 1..4)) {
        let mut p = build_program(&recipes);
        let layout = Layout::compute(&mut p).unwrap();
        let images: Vec<TextImage> = p
            .modules()
            .iter()
            .map(|m| TextImage::encode(&p, &layout, m.id(), ImageView::Live))
            .collect();
        let map = BlockMap::discover(&images, layout.symbols()).unwrap();
        for block in p.blocks() {
            let start = layout.block_start(block.id());
            let term = layout.terminator_addr(block.id());
            let walk = map.walk_stream(start, term);
            prop_assert!(!walk.derailed);
            prop_assert_eq!(walk.blocks.len(), 1);
        }
    }
}
