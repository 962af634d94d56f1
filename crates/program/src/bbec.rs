//! Basic block execution counts (BBECs) and mnemonic mixes.
//!
//! "An instruction mix is easily obtained from a basic block execution
//! count (BBEC). If we know how many times a basic block is executed, we
//! also know exactly how many times each instruction within it is executed"
//! (paper §I). [`Bbec`] is the per-block count table (keyed by block start
//! address, the coordinate system shared by ground truth and PMU
//! estimates); [`MnemonicMix`] is the per-mnemonic histogram derived from
//! it.

use hbbp_isa::{Instruction, Mnemonic};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-basic-block execution counts, keyed by block start address.
///
/// Counts are `f64` because PMU-derived estimates are extrapolated from
/// samples (count ≈ samples × period / block_len) and need not be integral.
///
/// Clones are cheap and copy-on-write: a clone shares the table with its
/// original (one reference-count bump), and the first mutation of either
/// side copies the table once. Handing a stored profile to a reader costs
/// nothing until someone writes to it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bbec {
    counts: Arc<BTreeMap<u64, f64>>,
}

impl Bbec {
    /// Empty table.
    pub fn new() -> Bbec {
        Bbec::default()
    }

    /// Add `weight` executions to the block starting at `addr`.
    pub fn add(&mut self, addr: u64, weight: f64) {
        self.extend(std::iter::once((addr, weight)));
    }

    /// Set the count of a block.
    pub fn set(&mut self, addr: u64, count: f64) {
        Arc::make_mut(&mut self.counts).insert(addr, count);
    }

    /// Count for the block starting at `addr` (0 if absent).
    pub fn get(&self, addr: u64) -> f64 {
        self.counts.get(&addr).copied().unwrap_or(0.0)
    }

    /// Number of blocks with a nonzero entry.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate `(block_start, count)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.counts.iter().map(|(&a, &c)| (a, c))
    }

    /// Sum of all counts.
    pub fn total(&self) -> f64 {
        self.counts.values().sum()
    }

    /// Multiply every count by `factor` (e.g. period extrapolation).
    pub fn scale(&mut self, factor: f64) {
        for v in Arc::make_mut(&mut self.counts).values_mut() {
            *v *= factor;
        }
    }

    /// Merge another table into this one (summing counts).
    pub fn merge(&mut self, other: &Bbec) {
        self.extend(other.iter());
    }

    /// Block addresses present in either table, ascending.
    ///
    /// Both key streams are already sorted (`BTreeMap` iteration order), so
    /// this is a lazy two-pointer merge — no intermediate collect, sort or
    /// dedup.
    pub fn union_addrs<'a>(&'a self, other: &'a Bbec) -> impl Iterator<Item = u64> + 'a {
        let mut a = self.counts.keys().copied().peekable();
        let mut b = other.counts.keys().copied().peekable();
        std::iter::from_fn(move || match (a.peek(), b.peek()) {
            (Some(&x), Some(&y)) => {
                if x < y {
                    a.next()
                } else if y < x {
                    b.next()
                } else {
                    b.next();
                    a.next()
                }
            }
            (Some(_), None) => a.next(),
            (None, Some(_)) => b.next(),
            (None, None) => None,
        })
    }
}

impl FromIterator<(u64, f64)> for Bbec {
    fn from_iter<T: IntoIterator<Item = (u64, f64)>>(iter: T) -> Bbec {
        let mut b = Bbec::new();
        b.extend(iter);
        b
    }
}

impl Extend<(u64, f64)> for Bbec {
    fn extend<T: IntoIterator<Item = (u64, f64)>>(&mut self, iter: T) {
        // One copy-on-write check for the whole batch, not one per item.
        let counts = Arc::make_mut(&mut self.counts);
        for (a, c) in iter {
            *counts.entry(a).or_insert(0.0) += c;
        }
    }
}

/// A dynamic instruction mix: executions per mnemonic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MnemonicMix {
    counts: BTreeMap<Mnemonic, f64>,
}

impl MnemonicMix {
    /// Empty mix.
    pub fn new() -> MnemonicMix {
        MnemonicMix::default()
    }

    /// Add `weight` executions of `mnemonic`.
    pub fn add(&mut self, mnemonic: Mnemonic, weight: f64) {
        *self.counts.entry(mnemonic).or_insert(0.0) += weight;
    }

    /// Credit one block execution (weight `count`) to every instruction of
    /// the block.
    pub fn add_block(&mut self, instrs: &[Instruction], count: f64) {
        for i in instrs {
            self.add(i.mnemonic(), count);
        }
    }

    /// Executions of a mnemonic (0 if absent).
    pub fn get(&self, mnemonic: Mnemonic) -> f64 {
        self.counts.get(&mnemonic).copied().unwrap_or(0.0)
    }

    /// Number of distinct mnemonics.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the mix is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate `(mnemonic, count)` in opcode order.
    pub fn iter(&self) -> impl Iterator<Item = (Mnemonic, f64)> + '_ {
        self.counts.iter().map(|(&m, &c)| (m, c))
    }

    /// Total executed instructions.
    pub fn total(&self) -> f64 {
        self.counts.values().sum()
    }

    /// The `n` most-executed mnemonics, descending (ties broken by opcode).
    pub fn top(&self, n: usize) -> Vec<(Mnemonic, f64)> {
        let mut v: Vec<(Mnemonic, f64)> = self.iter().collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        v.truncate(n);
        v
    }

    /// Merge another mix into this one.
    pub fn merge(&mut self, other: &MnemonicMix) {
        for (m, c) in other.iter() {
            self.add(m, c);
        }
    }

    /// Multiply every count by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for v in self.counts.values_mut() {
            *v *= factor;
        }
    }

    /// Total-variation distance between two mixes as distributions:
    /// `0.5 · Σ_M |self_share(M) − other_share(M)|`, in `[0, 1]`.
    ///
    /// `0.0` means identical shares; `1.0` means disjoint mnemonic sets.
    /// When either mix is empty the distance is defined as `0.0` — an
    /// empty mix carries no evidence of divergence. The sum runs over the
    /// union of mnemonics in opcode order, which makes the result
    /// bit-stable across call sites (`hbbp_core::MixDrift::divergence`
    /// delegates here) and exactly symmetric (IEEE `|x − y| == |y − x|`).
    pub fn tv_distance(&self, other: &MnemonicMix) -> f64 {
        let (st, ot) = (self.total(), other.total());
        if st <= 0.0 || ot <= 0.0 {
            return 0.0;
        }
        0.5 * self
            .union_mnemonics(other)
            .into_iter()
            .map(|m| (other.get(m) / ot - self.get(m) / st).abs())
            .sum::<f64>()
    }

    /// Mnemonics present in either mix.
    pub fn union_mnemonics<'a>(&'a self, other: &'a MnemonicMix) -> Vec<Mnemonic> {
        let mut v: Vec<Mnemonic> = self
            .counts
            .keys()
            .chain(other.counts.keys())
            .copied()
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

impl FromIterator<(Mnemonic, f64)> for MnemonicMix {
    fn from_iter<T: IntoIterator<Item = (Mnemonic, f64)>>(iter: T) -> MnemonicMix {
        let mut m = MnemonicMix::new();
        for (k, c) in iter {
            m.add(k, c);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbp_isa::instruction::build::*;
    use hbbp_isa::Reg;

    #[test]
    fn bbec_accumulates() {
        let mut b = Bbec::new();
        b.add(0x400000, 1.0);
        b.add(0x400000, 2.5);
        b.add(0x400010, 1.0);
        assert_eq!(b.get(0x400000), 3.5);
        assert_eq!(b.get(0xdead), 0.0);
        assert_eq!(b.len(), 2);
        assert!((b.total() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn bbec_scale_and_merge() {
        let mut a: Bbec = [(0x1000u64, 1.0), (0x2000u64, 2.0)].into_iter().collect();
        a.scale(10.0);
        assert_eq!(a.get(0x1000), 10.0);
        let b: Bbec = [(0x2000u64, 1.0), (0x3000u64, 5.0)].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.get(0x2000), 21.0);
        assert_eq!(a.get(0x3000), 5.0);
        let addrs: Vec<u64> = a.union_addrs(&b).collect();
        assert_eq!(addrs, vec![0x1000, 0x2000, 0x3000]);
    }

    /// Every `(addr, count)` entry with the count's exact bits.
    fn bits(b: &Bbec) -> Vec<(u64, u64)> {
        b.iter().map(|(a, c)| (a, c.to_bits())).collect()
    }

    #[test]
    fn bbec_clones_are_copy_on_write() {
        let base: Bbec = [(0x1000u64, 1.5), (0x2000u64, 0.1), (0x3000u64, -0.0)]
            .into_iter()
            .collect();
        let other: Bbec = [(0x2000u64, 0.2), (0x4000u64, 7.0)].into_iter().collect();
        type Mutator = fn(&mut Bbec, &Bbec);
        let mutators: [(&str, Mutator); 5] = [
            ("add", |b, _| b.add(0x1000, 0.25)),
            ("set", |b, _| b.set(0x5000, 3.0)),
            ("scale", |b, _| b.scale(3.0)),
            ("merge", |b, o| b.merge(o)),
            ("extend", |b, o| b.extend(o.iter())),
        ];
        for (name, mutate) in mutators {
            // Mutating a clone leaves the original untouched.
            let original = base.clone();
            let mut clone = original.clone();
            assert_eq!(clone, original, "{name}: clones start equal");
            mutate(&mut clone, &other);
            assert_eq!(bits(&original), bits(&base), "{name}: original moved");
            assert_ne!(bits(&clone), bits(&base), "{name}: clone did not move");

            // Mutating the original leaves the clone untouched.
            let mut original = base.clone();
            let clone = original.clone();
            mutate(&mut original, &other);
            assert_eq!(bits(&clone), bits(&base), "{name}: clone moved");
            assert_ne!(
                bits(&original),
                bits(&base),
                "{name}: original did not move"
            );
        }
        // Shared storage must not cost the table its thread-safety.
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Bbec>();
    }

    #[test]
    fn mix_from_blocks() {
        let instrs = vec![
            rr(Mnemonic::Add, Reg::gpr(0), Reg::gpr(1)),
            rr(Mnemonic::Add, Reg::gpr(2), Reg::gpr(3)),
            bare(Mnemonic::RetNear),
        ];
        let mut mix = MnemonicMix::new();
        mix.add_block(&instrs, 10.0);
        assert_eq!(mix.get(Mnemonic::Add), 20.0);
        assert_eq!(mix.get(Mnemonic::RetNear), 10.0);
        assert_eq!(mix.total(), 30.0);
    }

    #[test]
    fn mix_top_sorted_descending() {
        let mut mix = MnemonicMix::new();
        mix.add(Mnemonic::Mov, 100.0);
        mix.add(Mnemonic::Add, 300.0);
        mix.add(Mnemonic::Sub, 200.0);
        let top = mix.top(2);
        assert_eq!(top[0].0, Mnemonic::Add);
        assert_eq!(top[1].0, Mnemonic::Sub);
        assert_eq!(mix.top(10).len(), 3);
    }

    #[test]
    fn tv_distance_is_total_variation_over_shares() {
        let mut a = MnemonicMix::new();
        a.add(Mnemonic::Add, 1.0);
        a.add(Mnemonic::Mov, 3.0);
        let mut scaled = MnemonicMix::new();
        scaled.add(Mnemonic::Add, 10.0);
        scaled.add(Mnemonic::Mov, 30.0);
        // Identical shares at different scales: zero distance.
        assert_eq!(a.tv_distance(&scaled), 0.0);
        // Disjoint mnemonic sets: maximal distance.
        let mut disjoint = MnemonicMix::new();
        disjoint.add(Mnemonic::Sub, 5.0);
        assert!((a.tv_distance(&disjoint) - 1.0).abs() < 1e-12);
        // Exactly symmetric, bit for bit.
        let mut b = MnemonicMix::new();
        b.add(Mnemonic::Add, 2.0);
        b.add(Mnemonic::Sub, 1.0);
        assert_eq!(a.tv_distance(&b).to_bits(), b.tv_distance(&a).to_bits());
        // An empty side is defined as zero evidence.
        assert_eq!(MnemonicMix::new().tv_distance(&a), 0.0);
        assert_eq!(a.tv_distance(&MnemonicMix::new()), 0.0);
    }

    #[test]
    fn mix_merge_and_union() {
        let mut a = MnemonicMix::new();
        a.add(Mnemonic::Mov, 1.0);
        let mut b = MnemonicMix::new();
        b.add(Mnemonic::Add, 2.0);
        b.add(Mnemonic::Mov, 3.0);
        a.merge(&b);
        assert_eq!(a.get(Mnemonic::Mov), 4.0);
        assert_eq!(a.union_mnemonics(&b).len(), 2);
    }
}
