//! Option pieces shared by several subcommands: workload selection,
//! `--window` specs, hybrid-rule selection, sampling periods, and epoch
//! selection in a store.

use crate::args::{invalid, ArgStream, CliError};
use crate::registry;
use hbbp_core::{Analyzer, HybridRule, SamplingPeriods, Window};
use hbbp_program::ImageView;
use hbbp_store::{Partials, ProfileStore, StoreError, StoreIdentity};
use hbbp_workloads::{Scale, Workload};
use std::path::Path;

/// Parse a `--window` spec: `samples:N` or `cycles:N`.
///
/// The exact error wording is pinned by the table-driven tests in
/// `tests/cli_args.rs`.
pub fn parse_window(value: &str) -> Result<Window, CliError> {
    parse_window_flag("--window", value)
}

/// [`parse_window`] under a different flag name (`hbbp synth` calls the
/// same grammar `--window-size`; its `--window` is a timeline index).
pub fn parse_window_flag(flag: &str, value: &str) -> Result<Window, CliError> {
    let expected = "samples:<n> or cycles:<n> with n > 0";
    let Some((kind, n)) = value.split_once(':') else {
        return Err(invalid(flag, value, expected));
    };
    let n: u64 = n.parse().map_err(|_| invalid(flag, value, expected))?;
    if n == 0 {
        return Err(invalid(flag, value, expected));
    }
    match kind {
        "samples" => Ok(Window::Samples(n)),
        "cycles" => Ok(Window::TimeCycles(n)),
        _ => Err(invalid(flag, value, expected)),
    }
}

/// Parse a `--rule` value: `paper`, `cutoff=N`, `always-ebs`, `always-lbr`.
pub fn parse_rule(value: &str) -> Result<HybridRule, CliError> {
    match value {
        "paper" => Ok(HybridRule::paper_default()),
        "always-ebs" => Ok(HybridRule::AlwaysEbs),
        "always-lbr" => Ok(HybridRule::AlwaysLbr),
        _ => match value.strip_prefix("cutoff=").map(str::parse) {
            Some(Ok(c)) => Ok(HybridRule::LengthCutoff(c)),
            _ => Err(invalid(
                "--rule",
                value,
                "paper|cutoff=<n>|always-ebs|always-lbr",
            )),
        },
    }
}

/// The workload + sampling knobs shared by `record`, `analyze`, `serve`
/// and `report`.
#[derive(Debug, Clone)]
pub struct WorkloadOptions {
    /// Registry name (`--workload`).
    pub workload: String,
    /// Workload scale (`--scale`).
    pub scale: Scale,
    /// Branch-oracle seed override (`--oracle-seed`).
    pub oracle_seed: Option<u64>,
    /// Sampling periods (`--ebs-period` / `--lbr-period`). Defaults match
    /// the daemon and the fleet test constants: 1009 / 211.
    pub periods: SamplingPeriods,
}

impl Default for WorkloadOptions {
    fn default() -> WorkloadOptions {
        WorkloadOptions {
            workload: "phased".to_owned(),
            scale: Scale::Tiny,
            oracle_seed: None,
            periods: SamplingPeriods {
                ebs: 1009,
                lbr: 211,
            },
        }
    }
}

impl WorkloadOptions {
    /// Try to consume one flag; returns `false` when the flag is not one
    /// of this group's.
    pub fn accept(&mut self, flag: &str, s: &mut ArgStream) -> Result<bool, CliError> {
        match flag {
            "--workload" => self.workload = s.value("--workload")?,
            "--scale" => self.scale = registry::parse_scale(&s.value("--scale")?)?,
            "--oracle-seed" => {
                self.oracle_seed = Some(s.value_parsed("--oracle-seed", "a u64 seed")?);
            }
            "--ebs-period" => {
                self.periods.ebs = positive(s.value_parsed("--ebs-period", "a period > 0")?)
                    .ok_or_else(|| CliError::Usage("--ebs-period must be > 0".into()))?;
            }
            "--lbr-period" => {
                self.periods.lbr = positive(s.value_parsed("--lbr-period", "a period > 0")?)
                    .ok_or_else(|| CliError::Usage("--lbr-period must be > 0".into()))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolve the workload from the registry, applying the oracle seed.
    pub fn build(&self) -> Result<Workload, CliError> {
        let w = registry::resolve(&self.workload, self.scale)?;
        Ok(match self.oracle_seed {
            Some(seed) => w.with_oracle_seed(seed),
            None => w,
        })
    }

    /// The usage lines describing this flag group.
    pub fn usage_lines() -> &'static str {
        "  --workload NAME     workload to resolve (default phased)\n\
         \x20 --scale tiny|small|full\n\
         \x20                     workload scale (default tiny)\n\
         \x20 --oracle-seed N     override the branch-oracle seed\n\
         \x20 --ebs-period N      INST_RETIRED sampling period (default 1009)\n\
         \x20 --lbr-period N      BR_INST_RETIRED sampling period (default 211)"
    }
}

fn positive(n: u64) -> Option<u64> {
    (n > 0).then_some(n)
}

/// Build the analysis engine for a workload (static discovery over the
/// on-disk text images).
pub fn analyzer_for(workload: &Workload) -> Result<Analyzer, CliError> {
    Analyzer::from_images(
        &workload.images(ImageView::Disk),
        workload.layout().symbols(),
    )
    .map_err(|e| CliError::Failed(format!("static discovery failed: {e:?}")))
}

/// Open the store file at `path` for reading only. A reader never
/// creates a store, and it never cuts a torn tail off one: it reads the
/// valid prefix and leaves the file as it is.
pub fn open_store(path: &Path) -> Result<ProfileStore, CliError> {
    ProfileStore::open_read_only(path).map_err(|e| cannot_open(path, e))
}

/// Open the existing store file at `path` to rewrite it. Like
/// [`open_store`] it never creates a store (a missing path is refused
/// before the store is opened), but it truncates a torn tail.
pub fn open_store_writable(path: &Path) -> Result<ProfileStore, CliError> {
    let opened = match std::fs::metadata(path) {
        Ok(_) => ProfileStore::open(path),
        Err(e) => Err(StoreError::Io(e)),
    };
    opened.map_err(|e| cannot_open(path, e))
}

fn cannot_open(path: &Path, e: StoreError) -> CliError {
    CliError::Failed(format!("cannot open {}: {e}", path.display()))
}

/// Refuse the store read from `path` unless its identity is the one
/// workload `w` describes; a store with no identity is refused too.
pub fn check_identity(
    store: &ProfileStore,
    path: &Path,
    w: &Workload,
    analyzer: &Analyzer,
) -> Result<(), CliError> {
    if store.identity() != Some(&StoreIdentity::of_workload(w, analyzer.map())) {
        return Err(CliError::Failed(format!(
            "store {} was not recorded from workload `{}` — wrong --workload or --scale?",
            path.display(),
            w.name()
        )));
    }
    Ok(())
}

/// Total `(ebs, lbr)` samples over every epoch's counts frames.
pub fn sample_totals(partials: &Partials) -> (u64, u64) {
    partials
        .epoch_stats()
        .iter()
        .fold((0, 0), |(e, l), s| (e + s.ebs_samples, l + s.lbr_samples))
}

/// Pick the epoch of `partials` (the running sums of the store at
/// `store`) that a command folds: `requested`, or the latest when
/// `None`. Only epochs that hold counts frames qualify — the set the
/// daemon's `EPOCHS` op lists. An epoch holding only window frames (a
/// stream that flushed windows, then failed) folds to an empty profile,
/// and an empty mix hides any drift, so naming one is an error.
///
/// # Errors
///
/// [`CliError::Failed`] when no epoch holds counts, or when `requested`
/// is not one of the epochs that do (the message lists them).
pub fn counts_epoch(
    partials: &Partials,
    requested: Option<u32>,
    store: &Path,
) -> Result<u32, CliError> {
    let epochs: Vec<u32> = partials.epoch_stats().iter().map(|s| s.epoch).collect();
    let Some(&latest) = epochs.last() else {
        return Err(CliError::Failed(format!(
            "store {} holds no counts frames in any epoch",
            store.display()
        )));
    };
    let epoch = requested.unwrap_or(latest);
    if !partials.has_epoch(epoch) {
        return Err(CliError::Failed(format!(
            "store {} has no epoch {epoch} holding counts (epochs holding counts: {epochs:?})",
            store.display()
        )));
    }
    Ok(epoch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_specs_parse() {
        assert_eq!(parse_window("samples:1000").unwrap(), Window::Samples(1000));
        assert_eq!(parse_window("cycles:50").unwrap(), Window::TimeCycles(50));
    }

    #[test]
    fn malformed_window_specs_are_usage_errors() {
        for bad in ["samples", "samples:", "samples:x", "samples:0", "ticks:5"] {
            let err = parse_window(bad).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("invalid value `{bad}` for --window: expected samples:<n> or cycles:<n> with n > 0"),
            );
        }
    }

    #[test]
    fn rules_parse() {
        assert!(matches!(
            parse_rule("paper").unwrap(),
            HybridRule::LengthCutoff(_)
        ));
        assert!(matches!(
            parse_rule("cutoff=7").unwrap(),
            HybridRule::LengthCutoff(7)
        ));
        assert!(matches!(
            parse_rule("always-ebs").unwrap(),
            HybridRule::AlwaysEbs
        ));
        assert!(matches!(
            parse_rule("always-lbr").unwrap(),
            HybridRule::AlwaysLbr
        ));
        assert!(parse_rule("cutoff=x").is_err());
        assert!(parse_rule("tree").is_err());
    }
}
