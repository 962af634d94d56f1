//! Exact, order-free sums of `f64` counts.
//!
//! A store's aggregate is defined on the **exact** sum of its frames'
//! counts, not on any order of floating-point adds: per epoch and block,
//! the aggregate is `0.0 +` the correctly rounded exact sum of the
//! epoch's frame values for the block. Because the exact sum does not
//! depend on the order of its terms, a shard writer can keep a running
//! sum per block and a gathering worker can add the shards' sums in
//! whatever order they arrive.
//!
//! Two forms carry an exact sum:
//!
//! * [`ExactSum`], a small superaccumulator (Neal, "Fast exact summation
//!   using small and large superaccumulators", arXiv:1505.05571): a
//!   fixed-point integer in 32-bit chunks held in `i64`s, exact for every
//!   finite input, with no intermediate overflow. This is what a running
//!   sum and a query-time combination add into, and how an epoch still
//!   taking frames is read: two superaccumulators merge chunk by chunk
//!   ([`ExactSum::merge`]), so a shard's open epoch reaches a reader
//!   without a rounding step.
//! * An **expansion** (Shewchuk, "Adaptive precision floating-point
//!   arithmetic and fast robust geometric predicates", 1997): a short
//!   list of `f64` terms whose exact sum is the value. This is how a
//!   sealed epoch is kept (a few words per block, where a
//!   superaccumulator takes 544 bytes) and what `compact` writes to the
//!   log. The expansion of a
//!   value is canonical — the greedy rounding: term 0 is the value
//!   rounded to nearest (clamped to `±f64::MAX`), term 1 rounds what is
//!   left, and so on until nothing is — so term 0 is the rounded sum
//!   itself whenever that is finite.
//!
//! ## The rule for non-finite values
//!
//! IEEE round-to-nearest, made order-free:
//!
//! * `+inf` and `-inf` both among the values: the sum is `f64::NAN`;
//! * otherwise, any NaN among the values: the sum is the NaN whose
//!   quieted bit pattern (`bits | 1 << 51`) is smallest, so a lone NaN
//!   `c` sums to `0.0 + c`;
//! * otherwise, an infinity among the values: the sum is that infinity;
//! * otherwise the exact sum of the finite values, rounded to nearest
//!   (ties to even); a sum at or beyond `f64::MAX` plus half an ulp
//!   overflows to the infinity of its sign. An exact zero is `+0.0`.

use hbbp_program::Bbec;

/// Fraction bits of an `f64`.
const FRAC_MASK: u64 = (1 << 52) - 1;
/// The quiet bit of a NaN.
const QUIET: u64 = 1 << 51;
/// Chunks of 32 bits each. Bit `p` of the accumulator weighs
/// `2^(p - 1074)`: finite `f64` values occupy bits 0..2098, and the 78
/// bits above hold the carries of up to 2^77 maximal values.
const CHUNKS: usize = 68;
/// Adds between carry propagations: a normalized chunk holds less than
/// 2^32, and each add moves it by less than 2^32, so 2^30 adds keep
/// every chunk inside `i64`.
const NORMALIZE_EVERY: u32 = 1 << 30;

/// An exact sum of `f64` values (see the module docs for its rule).
#[derive(Debug, Clone)]
pub(crate) struct ExactSum {
    /// Chunk `i` weighs `2^(32 i - 1074)`; not normalized, so a chunk may
    /// exceed 32 bits or be negative.
    chunks: Box<[i64; CHUNKS]>,
    /// Chunks outside `lo..=hi` are zero (empty when `lo > hi`).
    lo: usize,
    hi: usize,
    /// Adds since the last carry propagation.
    adds: u32,
    /// The smallest quieted NaN bit pattern added, if any.
    nan: Option<u64>,
    pos_inf: bool,
    neg_inf: bool,
}

impl Default for ExactSum {
    fn default() -> ExactSum {
        ExactSum {
            chunks: Box::new([0; CHUNKS]),
            lo: CHUNKS,
            hi: 0,
            adds: 0,
            nan: None,
            pos_inf: false,
            neg_inf: false,
        }
    }
}

/// A finite nonzero magnitude as `mant × 2^(pos - 1074)`.
fn split(bits: u64) -> (u64, usize) {
    let exp = (bits >> 52) & 0x7FF;
    let frac = bits & FRAC_MASK;
    if exp == 0 {
        (frac, 0)
    } else {
        (frac | 1 << 52, exp as usize - 1)
    }
}

impl ExactSum {
    /// Add `x` exactly.
    pub(crate) fn add(&mut self, x: f64) {
        let bits = x.to_bits();
        if (bits >> 52) & 0x7FF == 0x7FF {
            if bits & FRAC_MASK != 0 {
                let quiet = bits | QUIET;
                self.nan = Some(self.nan.map_or(quiet, |n| n.min(quiet)));
            } else if x > 0.0 {
                self.pos_inf = true;
            } else {
                self.neg_inf = true;
            }
            return;
        }
        let (mant, pos) = split(bits);
        if mant == 0 {
            return;
        }
        if self.adds == NORMALIZE_EVERY {
            self.normalize();
        }
        self.adds += 1;
        let wide = u128::from(mant) << (pos % 32);
        let k = pos / 32;
        let negative = bits >> 63 == 1;
        for (i, digit) in [wide as u32, (wide >> 32) as u32, (wide >> 64) as u32]
            .into_iter()
            .enumerate()
        {
            if digit != 0 {
                let d = i64::from(digit);
                self.chunks[k + i] += if negative { -d } else { d };
                self.lo = self.lo.min(k + i);
                self.hi = self.hi.max(k + i);
            }
        }
    }

    /// Add another exact sum, chunk by chunk: the result is exact, as if
    /// every value added to `other` had been added here.
    ///
    /// A normalized chunk holds less than 2^32 and each add moves it by
    /// less than 2^32, so a chunk of a sum with `adds` adds stays below
    /// `2^32 (adds + 1)`. The merged chunks stay below
    /// `2^32 (adds + other.adds + 2)`, which counts as `adds + other.adds
    /// + 1` adds; either side is normalized first when that would pass
    /// [`NORMALIZE_EVERY`].
    pub(crate) fn merge(&mut self, other: &ExactSum) {
        if let Some(nan) = other.nan {
            self.nan = Some(self.nan.map_or(nan, |n| n.min(nan)));
        }
        self.pos_inf |= other.pos_inf;
        self.neg_inf |= other.neg_inf;
        if other.lo > other.hi {
            return;
        }
        if self.adds + other.adds >= NORMALIZE_EVERY {
            self.normalize();
            if other.adds >= NORMALIZE_EVERY {
                // Merging specials again changes nothing.
                let mut copy = other.clone();
                copy.normalize();
                return self.merge(&copy);
            }
        }
        for i in other.lo..=other.hi {
            self.chunks[i] += other.chunks[i];
        }
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
        self.adds += other.adds + 1;
    }

    /// Propagate carries so every chunk but the topmost nonzero one holds
    /// 32 bits; the value is unchanged.
    fn normalize(&mut self) {
        self.adds = 0;
        if self.lo > self.hi {
            return;
        }
        let mut i = self.lo;
        while i < CHUNKS - 1 {
            let carry = self.chunks[i] >> 32;
            if carry == 0 && i >= self.hi {
                break;
            }
            self.chunks[i] -= carry << 32;
            self.chunks[i + 1] += carry;
            i += 1;
        }
        self.hi = i;
        while self.lo <= self.hi && self.chunks[self.lo] == 0 {
            self.lo += 1;
        }
        while self.hi > self.lo && self.chunks[self.hi] == 0 {
            self.hi -= 1;
        }
    }

    /// The value as a sign and a magnitude in 32-bit digits, or `None`
    /// for an exact zero. Non-finite values are not looked at.
    fn digits(&self) -> Option<(bool, [u32; CHUNKS])> {
        let mut digits = [0u32; CHUNKS];
        let mut carry: i128 = 0;
        let mut any = false;
        for (i, digit) in digits.iter_mut().enumerate().skip(self.lo) {
            if i > self.hi && carry == 0 {
                break;
            }
            let v = i128::from(self.chunks[i]) + carry;
            *digit = v as u32;
            any |= *digit != 0;
            carry = v >> 32;
        }
        // The headroom above the finite range keeps the carry out of the
        // top chunk a pure sign.
        debug_assert!(carry == 0 || carry == -1, "exact sum out of range");
        if carry < 0 {
            // Two's complement: the magnitude is the negation.
            let mut borrow = true;
            for d in &mut digits {
                let (v, b) = (!*d).overflowing_add(u32::from(borrow));
                *d = v;
                borrow = b;
            }
            return Some((true, digits));
        }
        any.then_some((false, digits))
    }

    /// The special result, when a NaN or an infinity was added.
    fn special(&self) -> Option<f64> {
        if self.pos_inf && self.neg_inf {
            Some(f64::NAN)
        } else if let Some(nan) = self.nan {
            Some(f64::from_bits(nan))
        } else if self.pos_inf {
            Some(f64::INFINITY)
        } else if self.neg_inf {
            Some(f64::NEG_INFINITY)
        } else {
            None
        }
    }

    /// The sum, correctly rounded to nearest (see the module docs).
    pub(crate) fn round(&self) -> f64 {
        if let Some(special) = self.special() {
            return special;
        }
        match self.digits() {
            None => 0.0,
            Some((negative, digits)) => round_digits(negative, &digits, false),
        }
    }

    /// Append the canonical expansion of the sum to `out`: the greedy
    /// rounding of a finite sum (`[0.0]` for an exact zero), or the NaN
    /// and infinities that decide a non-finite one.
    pub(crate) fn expand_into(&self, out: &mut Vec<f64>) {
        if self.special().is_some() {
            out.extend(self.nan.map(f64::from_bits));
            if self.pos_inf {
                out.push(f64::INFINITY);
            }
            if self.neg_inf {
                out.push(f64::NEG_INFINITY);
            }
            return;
        }
        let mut rest = self.clone();
        let start = out.len();
        loop {
            let Some((negative, digits)) = rest.digits() else {
                if out.len() == start {
                    out.push(0.0);
                }
                return;
            };
            let term = round_digits(negative, &digits, true);
            out.push(term);
            rest.add(-term);
        }
    }
}

/// Bits `from..from + 64` of a digit string (zero past either end).
fn window(digits: &[u32; CHUNKS], from: usize) -> u64 {
    let (k, shift) = (from / 32, from % 32);
    let digit = |i: usize| u128::from(digits.get(i).copied().unwrap_or(0));
    let wide = digit(k) | digit(k + 1) << 32 | digit(k + 2) << 64;
    (wide >> shift) as u64
}

/// Whether any bit below position `at` is set.
fn any_below(digits: &[u32; CHUNKS], at: usize) -> bool {
    let (k, shift) = (at / 32, at % 32);
    digits[..k].iter().any(|&d| d != 0) || digits[k] & ((1u32 << shift) - 1) != 0
}

/// Round a nonzero magnitude to the nearest `f64` (ties to even). An
/// overflow gives the infinity of the sign, or `±f64::MAX` when
/// `clamp` is set.
fn round_digits(negative: bool, digits: &[u32; CHUNKS], clamp: bool) -> f64 {
    let top = digits
        .iter()
        .rposition(|&d| d != 0)
        .expect("a nonzero magnitude");
    let high = 32 * top + 31 - digits[top].leading_zeros() as usize;
    // 53 significant bits, or every bit down to position 0 (subnormal).
    let mut lsb = high.saturating_sub(52);
    let mut mant = window(digits, lsb) & ((1u64 << (high - lsb + 1)) - 1);
    if lsb > 0 {
        let half = window(digits, lsb - 1) & 1 == 1;
        if half && (mant & 1 == 1 || any_below(digits, lsb - 1)) {
            mant += 1;
            if mant == 1 << 53 {
                mant >>= 1;
                lsb += 1;
            }
        }
    }
    // Position 0 holds subnormals and the smallest normal binade alike:
    // the bit pattern is the mantissa itself.
    let magnitude = if lsb == 0 {
        mant
    } else if lsb + 1 >= 0x7FF {
        if clamp {
            f64::MAX.to_bits()
        } else {
            f64::INFINITY.to_bits()
        }
    } else {
        (lsb as u64 + 1) << 52 | (mant & FRAC_MASK)
    };
    f64::from_bits(magnitude | u64::from(negative) << 63)
}

/// Per-block expansions: one epoch's exact partial sums in the form they
/// are kept sealed, sent between threads and compacted.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Expansions {
    /// Block addresses, ascending.
    addrs: Vec<u64>,
    /// `terms[ends[i - 1]..ends[i]]` is block `i`'s expansion.
    ends: Vec<u32>,
    terms: Vec<f64>,
}

impl Expansions {
    /// `(block, terms)` in address order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &[f64])> + '_ {
        self.addrs.iter().enumerate().map(|(i, &addr)| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
            (addr, &self.terms[start..self.ends[i] as usize])
        })
    }

    /// The longest expansion's term count (0 with no blocks).
    pub(crate) fn depth(&self) -> usize {
        self.iter().map(|(_, t)| t.len()).max().unwrap_or(0)
    }

    /// Term `i` of every block that has one, as a counts table.
    pub(crate) fn term(&self, i: usize) -> Bbec {
        let mut bbec = Bbec::new();
        for (addr, terms) in self.iter() {
            if let Some(&t) = terms.get(i) {
                bbec.set(addr, t);
            }
        }
        bbec
    }
}

/// Exact per-block sums: a counts table whose adds do not round.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockSums {
    /// Ascending by block address.
    blocks: Vec<(u64, ExactSum)>,
    /// Blocks new to the table, gathered during one add.
    fresh: Vec<(u64, ExactSum)>,
}

impl BlockSums {
    /// Add `items` (ascending by address) with `add`: one walk over the
    /// table adds to the blocks it holds; new blocks gather aside and
    /// join the table as a second sorted run.
    fn add_sorted<T>(
        &mut self,
        items: impl Iterator<Item = (u64, T)>,
        add: impl Fn(&mut ExactSum, T),
    ) {
        let mut i = 0;
        for (addr, item) in items {
            while self.blocks.get(i).is_some_and(|(a, _)| *a < addr) {
                i += 1;
            }
            match self.blocks.get_mut(i) {
                Some((a, sum)) if *a == addr => add(sum, item),
                _ => {
                    let mut sum = ExactSum::default();
                    add(&mut sum, item);
                    self.fresh.push((addr, sum));
                }
            }
        }
        if !self.fresh.is_empty() {
            self.blocks.append(&mut self.fresh);
            // Two sorted runs of distinct blocks: the stable sort merges
            // them in one linear pass.
            self.blocks.sort_by_key(|(a, _)| *a);
        }
    }

    /// Add every count of a table.
    pub(crate) fn add_bbec(&mut self, bbec: &Bbec) {
        self.add_sorted(bbec.iter(), ExactSum::add);
    }

    /// Add every term of per-block expansions.
    pub(crate) fn add_expansions(&mut self, expansions: &Expansions) {
        self.add_sorted(expansions.iter(), |sum, terms| {
            for &t in terms {
                sum.add(t);
            }
        });
    }

    /// Add another table's exact sums, block by block.
    pub(crate) fn add_sums(&mut self, other: &BlockSums) {
        self.add_sorted(other.blocks.iter().map(|(a, s)| (*a, s)), ExactSum::merge);
    }

    /// Each block's sum, rounded: a block is present exactly when some
    /// added table, expansion or sum carried it.
    pub(crate) fn round(&self) -> Bbec {
        let mut bbec = Bbec::new();
        for (addr, sum) in &self.blocks {
            bbec.set(*addr, sum.round());
        }
        bbec
    }

    /// Each block's canonical expansion.
    pub(crate) fn expansions(&self) -> Expansions {
        let mut out = Expansions::default();
        for (addr, sum) in &self.blocks {
            sum.expand_into(&mut out.terms);
            out.addrs.push(*addr);
            out.ends.push(out.terms.len() as u32);
        }
        out
    }
}

/// The global aggregate of per-epoch aggregates: per block, the
/// correctly rounded exact sum of the epochs' rounded values.
pub(crate) fn sum_epochs<'a>(epochs: impl IntoIterator<Item = &'a Bbec>) -> Bbec {
    let mut sums = BlockSums::default();
    for epoch in epochs {
        sums.add_bbec(epoch);
    }
    sums.round()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(values: &[f64]) -> f64 {
        let mut s = ExactSum::default();
        for &v in values {
            s.add(v);
        }
        s.round()
    }

    fn expansion(values: &[f64]) -> Vec<f64> {
        let mut s = ExactSum::default();
        for &v in values {
            s.add(v);
        }
        let mut out = Vec::new();
        s.expand_into(&mut out);
        out
    }

    #[test]
    fn small_sums_round_like_one_add() {
        assert_eq!(sum(&[1.0, 2.0]), 3.0);
        assert_eq!(sum(&[0.1, 0.2]), 0.1 + 0.2);
        assert_eq!(sum(&[1e300, -1e300, 1.0]), 1.0);
        assert_eq!(sum(&[1.0, 1e-30, -1.0]), 1e-30);
        assert_eq!(sum(&[]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sum(&[-0.0, -0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sum(&[-3.5]), -3.5);
    }

    #[test]
    fn ties_round_to_even_with_the_sticky_bit() {
        let ulp = f64::EPSILON;
        // 1 + ulp/2 is a tie: to even is 1.
        assert_eq!(sum(&[1.0, ulp / 2.0]), 1.0);
        // Anything past the tie rounds up, however small.
        assert_eq!(sum(&[1.0, ulp / 2.0, 1e-300]), 1.0 + ulp);
        assert_eq!(sum(&[1.0 + ulp, ulp / 2.0]), 1.0 + 2.0 * ulp);
    }

    #[test]
    fn subnormals_and_overflow() {
        let tiny = f64::from_bits(1);
        assert_eq!(sum(&[tiny, tiny, tiny]).to_bits(), 3);
        assert_eq!(sum(&[f64::MIN_POSITIVE, -tiny]).to_bits(), (1 << 52) - 1);
        assert_eq!(sum(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(sum(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
        assert_eq!(sum(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
    }

    #[test]
    fn specials_follow_the_rule() {
        let nan_a = f64::from_bits(0x7FF0_0000_0000_0002);
        let nan_b = f64::from_bits(0x7FF8_0000_0000_0001);
        // Quieted, as `0.0 + nan_a` computes it on x86-64 and AArch64.
        assert_eq!(sum(&[nan_a]).to_bits(), 0x7FF8_0000_0000_0002);
        assert_eq!(sum(&[nan_b, 1.0, nan_a]).to_bits(), 0x7FF8_0000_0000_0001);
        assert_eq!(sum(&[f64::INFINITY, 1.0]), f64::INFINITY);
        assert_eq!(
            sum(&[f64::INFINITY, nan_a, f64::NEG_INFINITY]).to_bits(),
            f64::NAN.to_bits()
        );
    }

    #[test]
    fn expansions_are_greedy_and_exact() {
        assert_eq!(expansion(&[]), vec![0.0]);
        assert_eq!(expansion(&[1.0, -1.0]), vec![0.0]);
        assert_eq!(expansion(&[3.0]), vec![3.0]);
        assert_eq!(expansion(&[1.0, 1e-30]), vec![1.0, 1e-30]);
        assert_eq!(expansion(&[f64::MAX, f64::MAX]), vec![f64::MAX, f64::MAX]);
        // Re-adding an expansion reproduces the sum and the expansion.
        let values = [0.1, 0.2, 0.3, 1e20, -1e20, 7e-310];
        let terms = expansion(&values);
        assert_eq!(sum(&terms).to_bits(), sum(&values).to_bits());
        assert_eq!(expansion(&terms), terms);
        assert_eq!(terms[0].to_bits(), sum(&values).to_bits());
    }

    #[test]
    fn carries_survive_normalization() {
        let mut s = ExactSum {
            adds: NORMALIZE_EVERY - 2,
            ..ExactSum::default()
        };
        for _ in 0..5 {
            s.add(f64::MAX);
            s.add(-1.5);
        }
        for _ in 0..5 {
            s.add(-f64::MAX);
        }
        assert_eq!(s.round(), -7.5);
    }

    fn exact(values: &[f64]) -> ExactSum {
        let mut s = ExactSum::default();
        for &v in values {
            s.add(v);
        }
        s
    }

    #[test]
    fn merges_add_exactly_and_keep_the_specials() {
        let nan_a = f64::from_bits(0x7FF0_0000_0000_0002);
        let nan_b = f64::from_bits(0x7FF8_0000_0000_0001);
        let cases: [&[f64]; 4] = [
            &[
                0.1,
                0.2,
                1e300,
                -1e300,
                7e-310,
                -3.5,
                1e-30,
                f64::MAX,
                f64::MAX,
            ],
            &[nan_a, 1.0, nan_b, 2.0],
            &[f64::INFINITY, 1.0, f64::NEG_INFINITY],
            &[-0.0, 1.0, -1.0],
        ];
        for values in cases {
            for cut in 0..=values.len() {
                let (a, b) = values.split_at(cut);
                let mut merged = exact(a);
                merged.merge(&exact(b));
                assert_eq!(
                    merged.round().to_bits(),
                    sum(values).to_bits(),
                    "{values:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn merges_normalize_before_the_chunks_could_overflow() {
        // Either side near the add budget: this side alone, or both.
        for (mine, theirs) in [(NORMALIZE_EVERY - 1, 1), (NORMALIZE_EVERY, NORMALIZE_EVERY)] {
            let mut a = exact(&[f64::MAX, -1.5, f64::MAX]);
            a.adds = mine;
            let mut b = exact(&[f64::MAX, -f64::MAX, -f64::MAX, 0.25]);
            b.adds = theirs;
            a.merge(&b);
            assert!(a.adds <= NORMALIZE_EVERY, "{} adds", a.adds);
            assert_eq!(a.round(), f64::MAX - 1.25);
        }
    }
}
