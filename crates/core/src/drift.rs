//! Mix drift — comparing two instruction mixes over time.
//!
//! Where [`crate::MixComparison`] measures *accuracy* (a measured mix
//! against ground truth), [`MixDrift`] measures *change*: how an
//! instruction mix moved between two points in time — two store epochs,
//! or a live stream against a stored baseline. The daemon's `DRIFT` op
//! and `hbbp watch` are both built on it, and both compute the exact
//! same rows from the exact same epoch aggregates, so an online answer is
//! bit-identical to an offline recompute.
//!
//! ```
//! use hbbp_core::MixDrift;
//! use hbbp_isa::Mnemonic;
//! use hbbp_program::MnemonicMix;
//!
//! let mut baseline = MnemonicMix::new();
//! baseline.add(Mnemonic::Add, 100.0);
//! baseline.add(Mnemonic::Mov, 100.0);
//! let mut current = MnemonicMix::new();
//! current.add(Mnemonic::Add, 200.0);
//! current.add(Mnemonic::Mov, 50.0);
//!
//! let drift = MixDrift::between(&baseline, &current);
//! assert_eq!(drift.top_movers(1)[0].mnemonic, Mnemonic::Add);
//! assert!((drift.divergence() - 0.3).abs() < 1e-12);
//! ```

use hbbp_isa::Mnemonic;
use hbbp_program::MnemonicMix;
use std::fmt;

/// Total-variation distance between two mixes as distributions, in
/// `[0, 1]` — the one mix-comparison metric shared by every consumer:
/// [`MixDrift::divergence`], the `hbbp watch` threshold, and the
/// `hbbp synth` calibrator's convergence test all measure exactly this.
///
/// Delegates to [`MnemonicMix::tv_distance`]; `0.0` when either mix is
/// empty (no evidence of divergence). [`MixDrift::divergence`] is pinned
/// bit-identical to this function, so a drift verdict and a calibration
/// distance computed from the same folds can never disagree.
pub fn mix_distance(baseline: &MnemonicMix, current: &MnemonicMix) -> f64 {
    baseline.tv_distance(current)
}

/// Movement of one mnemonic between a baseline and a current mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixDriftRow {
    /// The mnemonic.
    pub mnemonic: Mnemonic,
    /// Execution count in the baseline mix.
    pub baseline: f64,
    /// Execution count in the current mix.
    pub current: f64,
    /// `current − baseline`, in execution counts (signed).
    pub delta: f64,
}

/// A full per-mnemonic drift of a current mix against a baseline.
#[derive(Debug, Clone)]
pub struct MixDrift {
    rows: Vec<MixDriftRow>,
    baseline_total: f64,
    current_total: f64,
}

impl MixDrift {
    /// Compute the drift of `current` against `baseline` over the union
    /// of their mnemonics.
    pub fn between(baseline: &MnemonicMix, current: &MnemonicMix) -> MixDrift {
        let mut rows = Vec::new();
        for m in baseline.union_mnemonics(current) {
            let b = baseline.get(m);
            let c = current.get(m);
            rows.push(MixDriftRow {
                mnemonic: m,
                baseline: b,
                current: c,
                delta: c - b,
            });
        }
        MixDrift {
            baseline_total: baseline.total(),
            current_total: current.total(),
            rows,
        }
    }

    /// All rows (union of mnemonics, opcode order).
    pub fn rows(&self) -> &[MixDriftRow] {
        &self.rows
    }

    /// Total execution count of the baseline mix.
    pub fn baseline_total(&self) -> f64 {
        self.baseline_total
    }

    /// Total execution count of the current mix.
    pub fn current_total(&self) -> f64 {
        self.current_total
    }

    /// The `k` largest movers by `|delta|`, descending; ties broken by
    /// ascending opcode so the ordering (and anything pinned on it, like
    /// a `DRIFT` wire reply) is deterministic.
    pub fn top_movers(&self, k: usize) -> Vec<MixDriftRow> {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| {
            b.delta
                .abs()
                .partial_cmp(&a.delta.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.mnemonic.opcode().cmp(&b.mnemonic.opcode()))
        });
        rows.truncate(k);
        rows
    }

    /// Total-variation distance between the two mixes as distributions:
    /// `0.5 · Σ_M |current_share(M) − baseline_share(M)|`, in `[0, 1]`.
    ///
    /// `0.0` means identical shares; `1.0` means disjoint mnemonic sets.
    /// When either mix is empty the distance is defined as `0.0` — an
    /// empty window has no evidence of divergence.
    ///
    /// Bit-identical to [`mix_distance`] of the two mixes the drift was
    /// built from: the sum runs over the same union of mnemonics in the
    /// same opcode order with the same share arithmetic.
    pub fn divergence(&self) -> f64 {
        if self.baseline_total <= 0.0 || self.current_total <= 0.0 {
            return 0.0;
        }
        0.5 * self
            .rows
            .iter()
            .map(|r| (r.current / self.current_total - r.baseline / self.baseline_total).abs())
            .sum::<f64>()
    }
}

impl fmt::Display for MixDrift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>14} {:>14} {:>14}",
            "mnemonic", "baseline", "current", "delta"
        )?;
        for row in self.top_movers(usize::MAX) {
            writeln!(
                f,
                "{:<12} {:>14.1} {:>14.1} {:>+14.1}",
                format!("{:?}", row.mnemonic),
                row.baseline,
                row.current,
                row.delta
            )?;
        }
        write!(f, "divergence {:.4}", self.divergence())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(entries: &[(Mnemonic, f64)]) -> MnemonicMix {
        let mut m = MnemonicMix::new();
        for &(mn, c) in entries {
            m.add(mn, c);
        }
        m
    }

    #[test]
    fn rows_cover_the_union() {
        let drift = MixDrift::between(
            &mix(&[(Mnemonic::Add, 10.0)]),
            &mix(&[(Mnemonic::Mov, 4.0)]),
        );
        assert_eq!(drift.rows().len(), 2);
        let add = drift
            .rows()
            .iter()
            .find(|r| r.mnemonic == Mnemonic::Add)
            .unwrap();
        assert_eq!((add.baseline, add.current, add.delta), (10.0, 0.0, -10.0));
        let mov = drift
            .rows()
            .iter()
            .find(|r| r.mnemonic == Mnemonic::Mov)
            .unwrap();
        assert_eq!((mov.baseline, mov.current, mov.delta), (0.0, 4.0, 4.0));
    }

    #[test]
    fn top_movers_sort_by_abs_delta_then_opcode() {
        let drift = MixDrift::between(
            &mix(&[(Mnemonic::Add, 10.0), (Mnemonic::Mov, 10.0)]),
            &mix(&[
                (Mnemonic::Add, 4.0),
                (Mnemonic::Mov, 16.0),
                (Mnemonic::Jmp, 1.0),
            ]),
        );
        let movers = drift.top_movers(3);
        // |−6| == |+6|: the tie breaks toward the lower opcode, and the
        // +1 mover comes last.
        assert_eq!(movers.len(), 3);
        assert_eq!(movers[2].mnemonic, Mnemonic::Jmp);
        assert!(movers[0].mnemonic.opcode() < movers[1].mnemonic.opcode());
        assert_eq!(drift.top_movers(1).len(), 1);
    }

    #[test]
    fn divergence_is_total_variation_over_shares() {
        // Identical shares at different scales: no divergence.
        let same = MixDrift::between(
            &mix(&[(Mnemonic::Add, 1.0), (Mnemonic::Mov, 3.0)]),
            &mix(&[(Mnemonic::Add, 10.0), (Mnemonic::Mov, 30.0)]),
        );
        assert_eq!(same.divergence(), 0.0);
        // Disjoint mnemonic sets: maximal divergence.
        let disjoint =
            MixDrift::between(&mix(&[(Mnemonic::Add, 5.0)]), &mix(&[(Mnemonic::Mov, 5.0)]));
        assert!((disjoint.divergence() - 1.0).abs() < 1e-12);
        // An empty side is defined as zero evidence.
        assert_eq!(
            MixDrift::between(&MnemonicMix::new(), &mix(&[(Mnemonic::Add, 1.0)])).divergence(),
            0.0
        );
    }

    #[test]
    fn divergence_is_bit_identical_to_mix_distance() {
        let baseline = mix(&[(Mnemonic::Add, 10.0), (Mnemonic::Mov, 3.0)]);
        let current = mix(&[
            (Mnemonic::Add, 4.0),
            (Mnemonic::Mov, 16.0),
            (Mnemonic::Jmp, 1.0),
        ]);
        let drift = MixDrift::between(&baseline, &current);
        assert_eq!(
            drift.divergence().to_bits(),
            mix_distance(&baseline, &current).to_bits()
        );
        // And the metric is exactly symmetric.
        assert_eq!(
            mix_distance(&baseline, &current).to_bits(),
            mix_distance(&current, &baseline).to_bits()
        );
    }

    #[test]
    fn display_renders_movers_and_divergence() {
        let drift = MixDrift::between(
            &mix(&[(Mnemonic::Add, 10.0)]),
            &mix(&[(Mnemonic::Add, 12.0)]),
        );
        let text = format!("{drift}");
        assert!(text.contains("Add"));
        assert!(text.contains("divergence"));
    }
}
