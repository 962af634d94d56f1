//! The LBR estimator — paper §III.B-C.
//!
//! Each LBR stack of N entries yields N−1 streams `<Target[i-1],
//! Source[i]>`, each weighted `1/(N-1)`; every block covered by a stream
//! is credited. Bias detection identifies branches that occupy `entry[0]`
//! disproportionately (their terminating streams are structurally dropped)
//! and flags the blocks whose LBR evidence depends on them.
//!
//! Estimation interns branch source addresses into dense ids once and
//! keeps every per-branch statistic in a plain vector; per-stack dedup
//! uses an epoch-stamped bitset (O(1) per entry); per-block weights are
//! vectors indexed by [`BlockMap`] block index; each distinct
//! `<target, source>` pair is walked once through
//! [`BlockMap::walk_stream_into`], with small direct-mapped branch and
//! stream caches in front of the hot lookups.
//!
//! Both passes happen as each stack arrives. The walks, the per-block
//! weights and the stream counts depend only on the map and the pair, so
//! they are added up in observation order, exactly as the seed adds them.
//! Only the share of weight from biased branches needs the bias verdict,
//! which needs every stack's pass-1 statistics first. For that, each stack
//! leaves a run log of one `u32` per run of identical streams, replayed at
//! window close only when some branch was judged biased. No stack is kept.
//!
//! The branch interner, the pair table (with its walks) and the caches
//! live for the whole stream; a window close zeroes only the tallies.
//! With whole-stream totals on, one set of tallies per window and one for
//! the whole stream come out of the same walk: the integer statistics are
//! added into the totals at each close, the `f64` weights are added to
//! both in the walk, and the run log spans the stream, each window
//! replaying its own slice. Without totals the log is cleared at each
//! close, so it spans one window.

use hbbp_perf::PerfData;
use hbbp_program::{Bbec, BlockMap, DenseBbec};
use hbbp_sim::{EventSpec, LbrEntry};
use std::collections::{HashMap, HashSet};

/// Tunables for LBR analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct LbrOptions {
    /// A branch is *biased* when its `entry[0]` occupancy (fraction of
    /// snapshots) exceeds its fair share (its fraction of all stack
    /// entries) by at least this absolute margin. A uniformly hot branch
    /// scores 0; the paper's anomaly (a branch at entry\[0\] "up to 50% of
    /// the time") scores far above its fair share.
    pub entry0_excess_threshold: f64,
    /// Minimum stack appearances before a branch can be judged biased.
    pub min_branch_occurrences: u64,
    /// A block is *flagged* when at least this fraction of its LBR weight
    /// arrives through streams terminated by a biased branch.
    pub biased_weight_threshold: f64,
}

impl Default for LbrOptions {
    fn default() -> LbrOptions {
        LbrOptions {
            entry0_excess_threshold: 0.18,
            min_branch_occurrences: 16,
            biased_weight_threshold: 0.30,
        }
    }
}

/// Result of LBR estimation.
#[derive(Debug, Clone)]
pub struct LbrEstimate {
    /// Estimated per-block execution counts (address-keyed).
    pub bbec: Bbec,
    /// The same counts in the block-index coordinate system of the map
    /// the estimate was built over.
    pub dense: DenseBbec,
    /// Blocks flagged with the paper's "bias" marker (block start addrs).
    pub biased_blocks: HashSet<u64>,
    /// Per-block-index bias flags (same membership as `biased_blocks`).
    pub biased_idx: Vec<bool>,
    /// Branch source addresses judged biased.
    pub biased_branches: HashSet<u64>,
    /// Per-block fraction of weight carried by biased-branch streams.
    pub biased_weight_fraction: HashMap<u64, f64>,
    /// Stacks processed.
    pub stacks: u64,
    /// Streams that failed to walk the block map (stale kernel text or
    /// garbage) — counted, partially attributed.
    pub derailed_streams: u64,
    /// Total streams examined.
    pub streams: u64,
    /// The sampling period used for extrapolation.
    pub period: u64,
}

impl LbrEstimate {
    /// Estimated executions of the block starting at `addr`.
    pub fn count(&self, addr: u64) -> f64 {
        self.bbec.get(addr)
    }

    /// Estimated executions of the block at map index `bi`.
    pub fn count_idx(&self, bi: usize) -> f64 {
        self.dense.get(bi)
    }

    /// Whether the block starting at `addr` carries the bias flag.
    pub fn is_biased(&self, addr: u64) -> bool {
        self.biased_blocks.contains(&addr)
    }

    /// Whether the block at map index `bi` carries the bias flag.
    pub fn is_biased_idx(&self, bi: usize) -> bool {
        self.biased_idx.get(bi).copied().unwrap_or(false)
    }

    /// Fraction of streams that derailed.
    pub fn derail_fraction(&self) -> f64 {
        if self.streams == 0 {
            0.0
        } else {
            self.derailed_streams as f64 / self.streams as f64
        }
    }
}

/// Direct-mapped cache sizes for the LBR hot loops (power-of-two slots).
const BRANCH_CACHE_BITS: u32 = 10;
const STREAM_CACHE_BITS: u32 = 10;

/// Low bits of a run-log word that hold a run's length minus one; the
/// high bits hold its pair id. A run of more identical streams is logged
/// as several words.
const RUN_BITS: u32 = 4;
/// Streams one run-log word covers at most.
const MAX_RUN: usize = 1 << RUN_BITS;
/// Distinct `<target, source>` pairs one stream can log: the pair id must
/// fit the word's high bits. The pair table alone (a walk, a source id and
/// a hash entry each) exhausts memory long before this many pairs.
const MAX_PAIRS: usize = 1 << (32 - RUN_BITS);

/// Empty slot of the direct-mapped stream cache.
const NO_PAIR: (u64, u64, u32) = (0, 0, u32::MAX);

/// One distinct `<target, source>` pair of the stream: a stream's walk is
/// a pure function of the pair, so it is taken once and shared by every
/// stream with the same pair.
#[derive(Debug, Clone)]
struct Pair {
    /// The walk's covered block indices, a range of `LbrStats::walks`.
    walk: std::ops::Range<usize>,
    /// Branch id of the source (its bias verdict is known only at close).
    source: u32,
    derailed: bool,
}

/// The resumable heart of LBR estimation, one stack at a time.
///
/// [`LbrStats::observe_stack`] takes pass-1 statistics (entry\[0\]
/// occupancy, appearances, per-stack presence) and does the whole stream
/// decomposition at once: each stream adds its weight to the blocks it
/// walks, in observation order, so the per-block sums are the seed's.
/// Only the biased-weight share needs the bias verdicts, which pass 1 has
/// finished only when the window closes. So each usable stack also goes
/// to a compact **run log**: one word for its length, then one `u32` per
/// run of identical streams (pair id and run length). At close,
/// [`LbrStats::take_estimate`] judges bias and replays the window's slice
/// of the log only if some branch was judged biased.
///
/// Branch identity exploits the block map: a well-formed LBR source is a
/// block **terminator** address, so its block index doubles as its branch
/// id — resolved through the map's page index with no hashing at all. Only
/// sources that are not a terminator of any mapped block (garbage streams,
/// unmapped modules) fall back to a hash-interned overflow id space above
/// `map.len()`.
#[derive(Debug, Clone)]
pub(crate) struct LbrStats<'m> {
    map: &'m BlockMap,
    options: LbrOptions,
    period: u64,
    /// Non-terminator branch source address → overflow ordinal (the branch
    /// id is `map.len() + ordinal`).
    overflow_ids: HashMap<u64, u32>,
    /// Overflow ordinal → address.
    overflow_addrs: Vec<u64>,
    /// Epoch stamps (stack ordinal of last sighting), by branch id — the
    /// O(1) per-stack dedup replacing the seed's `contains` scan.
    last_stack: Vec<u64>,
    /// Stacks observed over the stream: the current dedup epoch.
    epoch: u64,
    /// Last interned `(addr, id)` — loop-dominated stacks repeat the same
    /// branch back to back, so this memo skips most lookups.
    memo: Option<(u64, u32)>,
    /// Direct-mapped `(addr, id)` cache behind the memo: stacks cycle
    /// through a handful of hot branches, so nearly every non-consecutive
    /// re-sighting hits here instead of re-resolving through the map. A
    /// slot with `id == u32::MAX` is empty.
    branch_cache: Vec<(u64, u32)>,
    /// Direct-mapped `(target, source, pair id)` cache in front of
    /// `pair_ids`: a recording's streams are drawn from the few hot loops'
    /// branch pairs over and over. A slot with `id == u32::MAX` is empty.
    stream_cache: Vec<(u64, u64, u32)>,
    /// Every pair of the stream → its id (an index into `pairs`).
    pair_ids: HashMap<(u64, u64), u32>,
    pairs: Vec<Pair>,
    /// The pairs' walks, back to back.
    walks: Vec<usize>,
    /// Scratch buffer for [`BlockMap::walk_stream_into`].
    walk_buf: Vec<usize>,
    /// The current window's tallies.
    win: Tally,
    /// The whole stream's tallies, when kept: integer statistics added in
    /// at each window close, weights added in the walk.
    whole: Option<Tally>,
    /// The run log: per usable stack, its length, then one word per run of
    /// at most [`MAX_RUN`] identical streams, `id << RUN_BITS | (run - 1)`.
    log: Vec<u32>,
    /// Where the current window's stacks start in `log`.
    log_start: usize,
}

/// Pass-1 statistics and stream weights over a span of stacks: one
/// window or the whole stream.
#[derive(Debug, Clone, Default)]
struct Tally {
    /// Snapshots with this branch at `entry[0]`, by branch id.
    entry0: Vec<u64>,
    /// Total stack entries of this branch, by branch id.
    appearances: Vec<u64>,
    /// Stacks containing this branch at least once, by branch id.
    stacks_containing: Vec<u64>,
    /// Total entries of stacks containing this branch, by branch id.
    entries_alongside: Vec<u64>,
    /// Per-block stream weight, by block index.
    weight: Vec<f64>,
    stacks: u64,
    streams: u64,
    derailed: u64,
}

impl Tally {
    fn new(branches: usize, blocks: usize) -> Tally {
        Tally {
            entry0: vec![0; branches],
            appearances: vec![0; branches],
            stacks_containing: vec![0; branches],
            entries_alongside: vec![0; branches],
            weight: vec![0.0; blocks],
            ..Tally::default()
        }
    }

    fn branch_vecs(&mut self) -> [&mut Vec<u64>; 4] {
        [
            &mut self.entry0,
            &mut self.appearances,
            &mut self.stacks_containing,
            &mut self.entries_alongside,
        ]
    }

    /// Add `window`'s integer statistics; the weights are not touched
    /// (the walk adds them to both tallies). Integer sums are exact.
    fn add_counts(&mut self, window: &Tally) {
        for (total, part) in [
            (&mut self.entry0, &window.entry0),
            (&mut self.appearances, &window.appearances),
            (&mut self.stacks_containing, &window.stacks_containing),
            (&mut self.entries_alongside, &window.entries_alongside),
        ] {
            total.resize(part.len(), 0);
            for (t, &p) in total.iter_mut().zip(part) {
                *t += p;
            }
        }
        self.stacks += window.stacks;
        self.streams += window.streams;
        self.derailed += window.derailed;
    }

    /// Zero every tally in place, keeping the vectors' lengths.
    fn zero(&mut self) {
        for v in self.branch_vecs() {
            v.fill(0);
        }
        self.weight.fill(0.0);
        self.stacks = 0;
        self.streams = 0;
        self.derailed = 0;
    }
}

impl<'m> LbrStats<'m> {
    pub(crate) fn new(map: &'m BlockMap, period: u64, options: LbrOptions) -> LbrStats<'m> {
        let n = map.len();
        LbrStats {
            map,
            options,
            period,
            overflow_ids: HashMap::new(),
            overflow_addrs: Vec::new(),
            last_stack: vec![0; n],
            epoch: 0,
            memo: None,
            branch_cache: vec![(0, u32::MAX); 1 << BRANCH_CACHE_BITS],
            stream_cache: vec![NO_PAIR; 1 << STREAM_CACHE_BITS],
            pair_ids: HashMap::new(),
            pairs: Vec::new(),
            walks: Vec::new(),
            walk_buf: Vec::new(),
            win: Tally::new(n, n),
            whole: None,
            log: Vec::new(),
            log_start: 0,
        }
    }

    /// Also keep whole-stream tallies beside the window's, read by
    /// [`LbrStats::whole_estimate`]. Call before the first stack.
    pub(crate) fn keep_whole(&mut self) {
        self.whole = Some(Tally::new(0, self.map.len()));
    }

    fn intern(&mut self, addr: u64) -> usize {
        if let Some((memo_addr, id)) = self.memo {
            if memo_addr == addr {
                return id as usize;
            }
        }
        let slot_idx =
            (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - BRANCH_CACHE_BITS)) as usize;
        let slot = self.branch_cache[slot_idx];
        if slot.0 == addr && slot.1 != u32::MAX {
            self.memo = Some(slot);
            return slot.1 as usize;
        }
        let id = match self.map.enclosing(addr) {
            Some(bi) if self.map.blocks()[bi].terminator_addr() == addr => bi,
            _ => {
                let base = self.map.len();
                match self.overflow_ids.entry(addr) {
                    std::collections::hash_map::Entry::Occupied(o) => base + *o.get() as usize,
                    std::collections::hash_map::Entry::Vacant(v) => {
                        let ordinal = self.overflow_addrs.len();
                        v.insert(ordinal as u32);
                        self.overflow_addrs.push(addr);
                        for v in self.win.branch_vecs() {
                            v.push(0);
                        }
                        self.last_stack.push(0);
                        base + ordinal
                    }
                }
            }
        };
        self.memo = Some((addr, id as u32));
        self.branch_cache[slot_idx] = (addr, id as u32);
        id
    }

    /// Address of a branch id (inverse of `intern`).
    fn id_addr(&self, id: usize) -> u64 {
        match id.checked_sub(self.map.len()) {
            Some(ordinal) => self.overflow_addrs[ordinal],
            None => self.map.blocks()[id].terminator_addr(),
        }
    }

    /// The id of the pair `<target, source>`, walking it on first sight.
    /// `source` must already be interned (pass 1 interns every entry).
    fn pair_id(&mut self, target: u64, source: u64) -> u32 {
        let mixed = (target ^ source.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let slot_idx = (mixed >> (64 - STREAM_CACHE_BITS)) as usize;
        let slot = self.stream_cache[slot_idx];
        if slot.2 != u32::MAX && slot.0 == target && slot.1 == source {
            return slot.2;
        }
        let id = match self.pair_ids.get(&(target, source)) {
            Some(&id) => id,
            None => {
                assert!(self.pairs.len() < MAX_PAIRS, "run-log pair ids exhausted");
                let id = self.pairs.len() as u32;
                let derailed = self
                    .map
                    .walk_stream_into(target, source, &mut self.walk_buf);
                let start = self.walks.len();
                self.walks.extend_from_slice(&self.walk_buf);
                let source_id = self.intern(source) as u32;
                self.pairs.push(Pair {
                    walk: start..self.walks.len(),
                    source: source_id,
                    derailed,
                });
                self.pair_ids.insert((target, source), id);
                id
            }
        };
        self.stream_cache[slot_idx] = (target, source, id);
        id
    }

    /// Ingest one stack (the sample's eventing IP is **discarded**, paper
    /// §V.A): its pass-1 statistics and, for a usable stack (≥ 2 entries),
    /// its streams' weights and its run-log words.
    pub(crate) fn observe_stack(&mut self, entries: &[LbrEntry]) {
        if entries.is_empty() {
            return;
        }
        self.win.stacks += 1;
        // Stack ordinal doubles as the dedup epoch (0 = never seen).
        self.epoch += 1;
        let epoch = self.epoch;
        let e0 = self.intern(entries[0].from);
        self.win.entry0[e0] += 1;
        let stack_len = entries.len() as u64;
        // A loop iterating under the snapshot fills the stack with runs of
        // the same branch; all per-branch statistics are integers, so one
        // batched update per run is exact.
        let mut i = 0;
        while i < entries.len() {
            let from = entries[i].from;
            let mut j = i + 1;
            while j < entries.len() && entries[j].from == from {
                j += 1;
            }
            let id = self.intern(from);
            self.win.appearances[id] += (j - i) as u64;
            if self.last_stack[id] != epoch {
                self.last_stack[id] = epoch;
                self.win.stacks_containing[id] += 1;
                self.win.entries_alongside[id] += stack_len;
            }
            i = j;
        }

        let n = entries.len();
        if n < 2 {
            return;
        }
        let w = 1.0 / (n - 1) as f64;
        self.log
            .push(u32::try_from(n).expect("an LBR stack holds fewer than 2^32 entries"));
        // The same loop fills the stack with identical streams too: walk
        // once per run of one `<target, source>` pair, then replay the
        // per-block `+= w` the run's length times. Each weight slot sees
        // exactly the per-stream add sequence the seed performs, so results
        // stay bit-identical.
        let mut i = 1;
        while i < n {
            let target = entries[i - 1].to;
            let source = entries[i].from;
            let mut j = i + 1;
            while j < n && entries[j - 1].to == target && entries[j].from == source {
                j += 1;
            }
            let run = j - i;
            let id = self.pair_id(target, source);
            let pair = &self.pairs[id as usize];
            self.win.streams += run as u64;
            if pair.derailed {
                self.win.derailed += run as u64;
            }
            let walk = &self.walks[pair.walk.clone()];
            match &mut self.whole {
                Some(whole) => add_run_twice(&mut self.win.weight, &mut whole.weight, walk, w, run),
                None => add_run(&mut self.win.weight, walk, w, run),
            }
            let mut left = run;
            while left > 0 {
                let k = left.min(MAX_RUN);
                self.log.push(id << RUN_BITS | (k - 1) as u32);
                left -= k;
            }
            i = j;
        }
    }

    /// Words in the run log: the accumulator's only term that grows with
    /// the stream (one window's, or the whole stream's with totals kept)
    /// rather than with the program.
    pub(crate) fn log_words(&self) -> usize {
        self.log.len()
    }

    /// Per-block weight of the streams whose source is biased, by block
    /// index: a slice of the run log replayed in observation order.
    fn replay_biased(&self, log: &[u32], branch_biased: &[bool]) -> Vec<f64> {
        let mut biased_weight = vec![0.0; self.map.len()];
        let mut words = log.iter();
        while let Some(&n) = words.next() {
            let w = 1.0 / (n - 1) as f64;
            let mut left = n as usize - 1;
            while left > 0 {
                let word = *words.next().expect("a stack's runs follow its length");
                let run = (word & (MAX_RUN as u32 - 1)) as usize + 1;
                let pair = &self.pairs[(word >> RUN_BITS) as usize];
                if branch_biased[pair.source as usize] {
                    add_run(&mut biased_weight, &self.walks[pair.walk.clone()], w, run);
                }
                left -= run;
            }
        }
        biased_weight
    }

    /// The estimate of every stack observed since the last call (the
    /// window's). Afterwards the window's statistics are added into the
    /// whole-stream totals, when kept, and zeroed in place; the interner,
    /// the pair table and the caches carry over to the next window.
    pub(crate) fn take_estimate(&mut self) -> LbrEstimate {
        let estimate = self.estimate(&self.win, &self.log[self.log_start..]);
        match &mut self.whole {
            Some(whole) => {
                whole.add_counts(&self.win);
                self.log_start = self.log.len();
            }
            None => self.log.clear(),
        }
        self.win.zero();
        estimate
    }

    /// The estimate of the whole stream, when its totals are kept. Every
    /// window, the last one included, must be closed first.
    pub(crate) fn whole_estimate(&self) -> Option<LbrEstimate> {
        let whole = self.whole.as_ref()?;
        Some(self.estimate(whole, &self.log))
    }

    /// Judge branch bias from `tally`'s pass-1 statistics, add up the
    /// biased weight over `log` (the same stacks' run log) if any branch
    /// is biased, and build the estimate.
    fn estimate(&self, tally: &Tally, log: &[u32]) -> LbrEstimate {
        let map = self.map;
        // Bias judgement per branch (same rule as the seed: occupancy and
        // fair share conditional on presence, §III.C).
        let mut branch_biased = vec![false; tally.entry0.len()];
        let mut biased_branches = HashSet::new();
        for (id, biased) in branch_biased.iter_mut().enumerate() {
            let total = tally.appearances[id];
            // Never-seen branch ids (blocks without sampled terminators)
            // have total = present = 0 and fall through both guards.
            if total < self.options.min_branch_occurrences {
                continue;
            }
            let present = tally.stacks_containing[id];
            let alongside = tally.entries_alongside[id];
            if present == 0 || alongside == 0 {
                continue;
            }
            let entry0_share = tally.entry0[id] as f64 / present as f64;
            let fair_share = total as f64 / alongside as f64;
            if entry0_share - fair_share >= self.options.entry0_excess_threshold {
                *biased = true;
                biased_branches.insert(self.id_addr(id));
            }
        }
        // Nothing biased is the common case: the log is then dropped
        // unread and every block's biased weight is 0.
        let biased_weight = if biased_branches.is_empty() {
            Vec::new()
        } else {
            self.replay_biased(log, &branch_biased)
        };

        let mut dense = DenseBbec::for_map(map);
        let mut bbec = Bbec::new();
        let mut biased_weight_fraction = HashMap::new();
        let mut biased_blocks = HashSet::new();
        let mut biased_idx = vec![false; map.len()];
        for (bi, &w) in tally.weight.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let value = w * self.period as f64;
            dense.set(bi, value);
            let start = map.blocks()[bi].start;
            // Built directly (not via `to_bbec`) so a credited block keeps
            // its entry even when a degenerate period of 0 zeroes the
            // value, like the address-keyed reference does.
            bbec.set(start, value);
            let frac = biased_weight.get(bi).map_or(0.0, |&b| b / w);
            biased_weight_fraction.insert(start, frac);
            if frac >= self.options.biased_weight_threshold {
                biased_blocks.insert(start);
                biased_idx[bi] = true;
            }
        }
        LbrEstimate {
            bbec,
            dense,
            biased_blocks,
            biased_idx,
            biased_branches,
            biased_weight_fraction,
            stacks: tally.stacks,
            derailed_streams: tally.derailed,
            streams: tally.streams,
            period: self.period,
        }
    }
}

/// Add `w` to each block of `walk`, `run` times over: the per-block add
/// sequence of `run` identical streams.
fn add_run(weight: &mut [f64], walk: &[usize], w: f64, run: usize) {
    for &bi in walk {
        let mut acc = weight[bi];
        for _ in 0..run {
            acc += w;
        }
        weight[bi] = acc;
    }
}

/// [`add_run`] into two weight vectors at once: the window's and the
/// whole stream's, two independent add chains in one walk.
fn add_run_twice(win: &mut [f64], whole: &mut [f64], walk: &[usize], w: f64, run: usize) {
    for &bi in walk {
        let (mut a, mut b) = (win[bi], whole[bi]);
        for _ in 0..run {
            a += w;
            b += w;
        }
        win[bi] = a;
        whole[bi] = b;
    }
}

/// Build the LBR estimate from the stacks of `BR_INST_RETIRED:NEAR_TAKEN`
/// samples. Eventing IPs of those samples are **discarded** (paper §V.A).
pub fn estimate(data: &PerfData, map: &BlockMap, period: u64, options: &LbrOptions) -> LbrEstimate {
    let mut stats = LbrStats::new(map, period, options.clone());
    for sample in data.samples_of(EventSpec::br_inst_retired_near_taken()) {
        stats.observe_stack(&sample.lbr);
    }
    stats.take_estimate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbp_isa::instruction::build;
    use hbbp_isa::{Mnemonic, Reg};
    use hbbp_perf::{PerfRecord, PerfSample};
    use hbbp_program::{ImageView, Layout, ProgramBuilder, Ring, TextImage};
    use hbbp_sim::LbrEntry;

    /// Loop program: head (4+1 instrs, self-loop) then exit.
    struct Fixture {
        map: BlockMap,
        head_start: u64,
        head_term: u64,
    }

    fn fixture() -> Fixture {
        let mut b = ProgramBuilder::new("f");
        let m = b.module("f.bin", Ring::User);
        let f = b.function(m, "main");
        let b0 = b.block(f);
        let b1 = b.block(f);
        for i in 0..4 {
            b.push(b0, build::rr(Mnemonic::Add, Reg::gpr(i), Reg::gpr(5)));
        }
        b.terminate_branch(b0, Mnemonic::Jnz, b0, b1);
        b.terminate_exit(b1, build::bare(Mnemonic::Syscall));
        let mut p = b.build(f).unwrap();
        let layout = Layout::compute(&mut p).unwrap();
        let image = TextImage::encode(&p, &layout, p.modules()[0].id(), ImageView::Disk);
        let map = BlockMap::discover(&[image], layout.symbols()).unwrap();
        Fixture {
            head_start: layout.block_start(b0),
            head_term: layout.terminator_addr(b0),
            map,
        }
    }

    fn stack_sample(entries: Vec<LbrEntry>) -> PerfRecord {
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

    fn loop_entry(fx: &Fixture) -> LbrEntry {
        LbrEntry {
            from: fx.head_term,
            to: fx.head_start,
        }
    }

    #[test]
    fn stream_weights_normalize_per_stack() {
        let fx = fixture();
        // One 5-entry stack of pure loop iterations: 4 streams × 1/4 = 1.
        let mut data = PerfData::new();
        data.push(stack_sample(vec![loop_entry(&fx); 5]));
        let est = estimate(&data, &fx.map, 700, &LbrOptions::default());
        assert_eq!(est.stacks, 1);
        assert_eq!(est.streams, 4);
        assert_eq!(est.derailed_streams, 0);
        assert!((est.count(fx.head_start) - 700.0).abs() < 1e-9);
    }

    #[test]
    fn bias_detection_flags_dominant_entry0_branch() {
        let fx = fixture();
        let mut data = PerfData::new();
        // 40 stacks; the loop branch is ALWAYS entry[0] (extreme bias).
        for _ in 0..40 {
            data.push(stack_sample(vec![loop_entry(&fx); 8]));
        }
        let est = estimate(&data, &fx.map, 100, &LbrOptions::default());
        // entry0 share = 40 appearances at entry0 / 320 total = 12.5%… the
        // same branch fills the whole stack, so share = 1/8 = 0.125 < 0.25:
        // NOT biased (a uniformly hot branch is not bias).
        assert!(
            est.biased_branches.is_empty(),
            "uniformly hot branch must not be flagged"
        );
    }

    #[test]
    fn bias_detection_catches_sticky_branch() {
        let fx = fixture();
        // Branch A sits at entry[0] in 30 of 32 stacks while accounting for
        // only 1/6 of all entries: entry0 share ≈ 0.94 vs fair share 0.16 →
        // excess ≈ 6× → biased.
        let a = loop_entry(&fx);
        let b = LbrEntry {
            from: fx.head_term + 1, // synthetic second branch (unmapped ok)
            to: fx.head_start,
        };
        let mut data = PerfData::new();
        for i in 0..32 {
            if i < 24 {
                // Quirk active: A captured at entry[0].
                data.push(stack_sample(vec![a, b, b, b, b, b]));
            } else {
                // Quirk inactive: A sits mid-stack, its stream usable.
                data.push(stack_sample(vec![b, b, b, a, b, b]));
            }
        }
        let est = estimate(&data, &fx.map, 100, &LbrOptions::default());
        assert!(est.biased_branches.contains(&a.from), "A must be biased");
        assert!(!est.biased_branches.contains(&b.from));
        // Blocks fed by A-terminated streams get the flag when dominant.
        // Here streams ending at A cover the loop head.
        assert!(est.biased_weight_fraction[&fx.head_start] > 0.0);
    }

    #[test]
    fn derailed_streams_counted() {
        let fx = fixture();
        let mut data = PerfData::new();
        // Backwards stream: target after source.
        data.push(stack_sample(vec![
            LbrEntry {
                from: fx.head_term,
                to: fx.head_term + 100,
            },
            LbrEntry {
                from: fx.head_start,
                to: fx.head_start,
            },
        ]));
        let est = estimate(&data, &fx.map, 100, &LbrOptions::default());
        assert_eq!(est.streams, 1);
        assert_eq!(est.derailed_streams, 1);
        assert!(est.derail_fraction() > 0.99);
    }

    fn assert_estimate_eq(a: &LbrEstimate, b: &LbrEstimate) {
        assert_eq!(a.bbec, b.bbec);
        assert_eq!(a.dense, b.dense);
        assert_eq!(a.biased_blocks, b.biased_blocks);
        assert_eq!(a.biased_branches, b.biased_branches);
        assert_eq!(a.biased_weight_fraction, b.biased_weight_fraction);
        assert_eq!(
            (a.stacks, a.streams, a.derailed_streams),
            (b.stacks, b.streams, b.derailed_streams)
        );
    }

    #[test]
    fn overflow_tallies_do_not_leak_across_windows() {
        // An overflow source (no block's terminator) seen in window 0 and
        // again in window 2: each window's tallies count only its own
        // sightings, each window's estimate equals a fresh run over its
        // stacks, and the whole-stream totals count both.
        let fx = fixture();
        let l = loop_entry(&fx);
        let x = LbrEntry {
            from: fx.head_term + 1,
            to: fx.head_start,
        };
        let windows = [
            vec![vec![x, l, l], vec![x, x, l]],
            vec![vec![l; 4]],
            vec![vec![l, x, x, x], vec![x, l]],
        ];
        let options = LbrOptions {
            min_branch_occurrences: 1,
            ..LbrOptions::default()
        };
        let mut stats = LbrStats::new(&fx.map, 100, options.clone());
        stats.keep_whole();
        let x_id = fx.map.len();
        let mut all = PerfData::new();
        let mut totals = [0u64; 4];
        for stacks in &windows {
            let mut alone = PerfData::new();
            for stack in stacks {
                stats.observe_stack(stack);
                alone.push(stack_sample(stack.clone()));
                all.push(stack_sample(stack.clone()));
            }
            assert_eq!(stats.overflow_ids[&x.from], 0, "x keeps its id");
            let holding: Vec<_> = stacks.iter().filter(|s| s.contains(&x)).collect();
            let want = [
                stacks.iter().filter(|s| s[0] == x).count() as u64,
                stacks.iter().flatten().filter(|&&e| e == x).count() as u64,
                holding.len() as u64,
                holding.iter().map(|s| s.len() as u64).sum(),
            ];
            let win = &stats.win;
            let got = [
                win.entry0[x_id],
                win.appearances[x_id],
                win.stacks_containing[x_id],
                win.entries_alongside[x_id],
            ];
            assert_eq!(got, want);
            for (t, w) in totals.iter_mut().zip(want) {
                *t += w;
            }
            assert_estimate_eq(
                &stats.take_estimate(),
                &estimate(&alone, &fx.map, 100, &options),
            );
        }
        let whole = stats.whole.as_ref().unwrap();
        let got = [
            whole.entry0[x_id],
            whole.appearances[x_id],
            whole.stacks_containing[x_id],
            whole.entries_alongside[x_id],
        ];
        assert_eq!(got, totals);
        assert_estimate_eq(
            &stats.whole_estimate().unwrap(),
            &estimate(&all, &fx.map, 100, &options),
        );
    }

    #[test]
    fn single_entry_stacks_are_unusable() {
        let fx = fixture();
        let mut data = PerfData::new();
        data.push(stack_sample(vec![loop_entry(&fx)]));
        let est = estimate(&data, &fx.map, 100, &LbrOptions::default());
        assert_eq!(est.streams, 0);
        assert!(est.bbec.is_empty());
    }
}
