//! Exact `f64` sums in a fixed-point big integer: the reference for the
//! store's order-free aggregation (`hbbp-store`'s superaccumulator and
//! expansions).
//!
//! Every finite `f64` is an integer multiple of `2^-1074` below `2^1024`,
//! so a two's-complement integer of 35 × 64 = 2,240 bits scaled by
//! `2^1074` holds any sum of up to `2^141` of them exactly. Rounding
//! leans on the hardware instead of assembling bits: a 63-bit window of
//! the magnitude with a sticky low bit converts to `f64` correctly
//! rounded, and a power-of-two scale is exact.
//!
//! The rule for non-finite values is the store's: `+inf` with `-inf`
//! gives `f64::NAN`; otherwise a NaN gives the NaN with the smallest
//! quieted bit pattern; otherwise an infinity wins. An exact zero is
//! `+0.0`.

/// 64-bit limbs, least significant first.
const LIMBS: usize = 35;

/// A two's-complement fixed-point integer: bit `p` weighs `2^(p - 1074)`.
#[derive(Clone, PartialEq, Eq)]
struct Fixed([u64; LIMBS]);

impl Fixed {
    fn zero() -> Fixed {
        Fixed([0; LIMBS])
    }

    fn is_zero(&self) -> bool {
        self.0.iter().all(|&l| l == 0)
    }

    fn is_negative(&self) -> bool {
        self.0[LIMBS - 1] >> 63 == 1
    }

    fn negated(&self) -> Fixed {
        let mut out = Fixed::zero();
        let mut carry = 1u64;
        for (o, &l) in out.0.iter_mut().zip(&self.0) {
            let (v, c) = (!l).overflowing_add(carry);
            *o = v;
            carry = u64::from(c);
        }
        out
    }

    fn add(&mut self, other: &Fixed) {
        let mut carry = false;
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            let (v, c1) = a.overflowing_add(b);
            let (v, c2) = v.overflowing_add(u64::from(carry));
            *a = v;
            carry = c1 || c2;
        }
    }

    /// A finite `f64`, exactly.
    fn of(x: f64) -> Fixed {
        let bits = x.to_bits();
        let exp = (bits >> 52) & 0x7FF;
        let frac = bits & ((1 << 52) - 1);
        let (mant, shift) = if exp == 0 {
            (frac, 0)
        } else {
            (frac | 1 << 52, exp - 1)
        };
        let mut out = Fixed::zero();
        let wide = u128::from(mant) << (shift % 64);
        let limb = (shift / 64) as usize;
        out.0[limb] = wide as u64;
        out.0[limb + 1] = (wide >> 64) as u64;
        if x < 0.0 {
            out.negated()
        } else {
            out
        }
    }

    fn bit(&self, p: usize) -> bool {
        self.0[p / 64] >> (p % 64) & 1 == 1
    }

    /// The highest set bit of a nonnegative nonzero value.
    fn top_bit(&self) -> usize {
        let i = self.0.iter().rposition(|&l| l != 0).expect("nonzero");
        64 * i + 63 - self.0[i].leading_zeros() as usize
    }

    /// The value rounded to nearest, ties to even; beyond the `f64`
    /// range, the infinity of its sign.
    fn round(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let negative = self.is_negative();
        let mag = if negative {
            self.negated()
        } else {
            self.clone()
        };
        let high = mag.top_bit();
        let value = if high < 63 {
            // Exact in a u64; one conversion rounds it.
            (mag.0[0] as f64) * pow2(-1074)
        } else {
            let low = high - 62;
            let mut window = 0u64;
            for p in (low..=high).rev() {
                window = window << 1 | u64::from(mag.bit(p));
            }
            let sticky = (0..low).any(|p| mag.bit(p));
            (window | u64::from(sticky)) as f64 * pow2(low as i64 - 1074)
        };
        if negative {
            -value
        } else {
            value
        }
    }
}

/// `2^k`, or infinity above the range.
fn pow2(k: i64) -> f64 {
    if k > 1023 {
        f64::INFINITY
    } else if k >= -1022 {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else {
        f64::from_bits(1 << (k + 1074))
    }
}

/// The smallest quieted NaN among `values`.
fn smallest_nan(values: &[f64]) -> Option<f64> {
    values
        .iter()
        .filter(|v| v.is_nan())
        .map(|v| v.to_bits() | 1 << 51)
        .min()
        .map(f64::from_bits)
}

/// The NaN or infinity that decides a sum, if any.
fn special(values: &[f64]) -> Option<f64> {
    let pos = values.contains(&f64::INFINITY);
    let neg = values.contains(&f64::NEG_INFINITY);
    match (pos, neg, smallest_nan(values)) {
        (true, true, _) => Some(f64::NAN),
        (_, _, Some(nan)) => Some(nan),
        (true, false, None) => Some(f64::INFINITY),
        (false, true, None) => Some(f64::NEG_INFINITY),
        (false, false, None) => None,
    }
}

fn fixed_sum(values: &[f64]) -> Fixed {
    let mut acc = Fixed::zero();
    for &v in values {
        acc.add(&Fixed::of(v));
    }
    acc
}

/// The correctly rounded exact sum of `values` (`+0.0` for none).
pub fn exact_sum(values: &[f64]) -> f64 {
    special(values).unwrap_or_else(|| fixed_sum(values).round())
}

/// The canonical expansion of the exact sum of `values`: for a finite
/// sum, the greedy rounding — each term the rest rounded to nearest and
/// clamped to `±f64::MAX` — until nothing is left (`[0.0]` for an exact
/// zero); otherwise the smallest quieted NaN, `+inf` and `-inf`, each if
/// present, in that order.
pub fn exact_expansion(values: &[f64]) -> Vec<f64> {
    if special(values).is_some() {
        let infinities = [f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .filter(|inf| values.contains(inf));
        return smallest_nan(values).into_iter().chain(infinities).collect();
    }
    let mut rest = fixed_sum(values);
    let mut terms = Vec::new();
    loop {
        let term = rest.round().clamp(-f64::MAX, f64::MAX);
        terms.push(term);
        rest.add(&Fixed::of(-term));
        if rest.is_zero() {
            return terms;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sums() {
        assert_eq!(exact_sum(&[0.1, 0.2]), 0.1 + 0.2);
        assert_eq!(exact_sum(&[1.0, f64::EPSILON / 2.0]), 1.0);
        assert_eq!(
            exact_sum(&[1.0, f64::EPSILON / 2.0, 1e-300]),
            1.0 + f64::EPSILON
        );
        assert_eq!(exact_sum(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(exact_sum(&[-f64::MAX, -f64::MAX, f64::MAX]), -f64::MAX);
        assert_eq!(exact_sum(&[f64::from_bits(1); 3]).to_bits(), 3);
        assert_eq!(exact_sum(&[-0.0]).to_bits(), 0);
        assert_eq!(exact_expansion(&[1.0, 1e-30]), vec![1.0, 1e-30]);
        assert_eq!(exact_expansion(&[f64::MAX; 2]), vec![f64::MAX; 2]);
        assert_eq!(exact_expansion(&[2.0, -2.0]), vec![0.0]);
    }
}
