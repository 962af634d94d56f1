//! `hbbp watch` — tail a recording through the windowed online analyzer
//! and flag windows whose instruction mix diverges from a stored
//! baseline epoch beyond a tolerance.
//!
//! The baseline is one epoch of a [`hbbp_store::ProfileStore`] segment
//! (see `hbbp query epochs` for what a daemon store holds), reduced to
//! its per-epoch aggregate — the same aggregate the daemon's `DRIFT` op
//! diffs. Each closed window's mix is compared against it with
//! [`hbbp_core::MixDrift`]; a window whose total-variation divergence
//! exceeds `--tolerance` prints a `DRIFT` line. A replayed baseline
//! stays quiet; an injected phase shift is flagged.

use crate::analyze::stream_recording;
use crate::args::{parse_all, CliError};
use crate::common::{
    analyzer_for, check_identity, counts_epoch, open_store, parse_rule, parse_window,
    WorkloadOptions,
};
use crate::registry;
use hbbp_core::{HybridRule, MixDrift, Window};
use hbbp_program::MnemonicMix;
use hbbp_workloads::Workload;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Parsed `hbbp watch` options.
#[derive(Debug, Clone)]
pub struct WatchOptions {
    /// The recording file to tail.
    pub recording: PathBuf,
    /// The baseline store segment (`.hbbp` file).
    pub baseline: PathBuf,
    /// Baseline epoch; `None` = the store's latest.
    pub epoch: Option<u32>,
    /// Window size for the online analyzer.
    pub window: Window,
    /// Divergence above which a window is flagged.
    pub tolerance: f64,
    /// Workload the recording was collected from.
    pub workload: WorkloadOptions,
    /// The hybrid decision rule.
    pub rule: HybridRule,
}

/// Usage text for `hbbp watch`.
pub fn usage() -> String {
    format!(
        "usage: hbbp watch RECORDING --baseline STORE.hbbp [options]\n\
         \n\
         Tail a recording through the windowed online analyzer and compare each\n\
         window's instruction mix against a stored baseline epoch. Windows whose\n\
         total-variation divergence exceeds --tolerance are flagged as DRIFT;\n\
         a stream that replays the baseline stays quiet.\n\
         \n\
         options:\n\
         \x20 --baseline FILE     baseline store segment (required)\n\
         \x20 --epoch N           baseline epoch (default: the store's latest)\n\
         \x20 --window samples:<n>|cycles:<n>\n\
         \x20                     watch window (default samples:512)\n\
         \x20 --tolerance T       divergence threshold in (0, 1] (default 0.05)\n\
         \x20 --rule paper|cutoff=<n>|always-ebs|always-lbr\n\
         \x20                     hybrid decision rule (default paper)\n\
         {}\n\
         \n\
         The workload (and scale) must match both the recording and the store:\n\
         the recording's memory map and the store's identity are checked.\n\
         \n\
         {}",
        WorkloadOptions::usage_lines(),
        registry::registry_help()
    )
}

impl WatchOptions {
    /// Parse the subcommand arguments.
    pub fn parse(args: &[String]) -> Result<WatchOptions, CliError> {
        let mut workload = WorkloadOptions::default();
        let mut recording: Option<PathBuf> = None;
        let mut baseline: Option<PathBuf> = None;
        let mut epoch = None;
        let mut window = Window::Samples(512);
        let mut tolerance = 0.05f64;
        let mut rule = HybridRule::paper_default();
        parse_all(args, |flag, s| {
            if workload.accept(flag, s)? {
                return Ok(Some(()));
            }
            match flag {
                "--baseline" => baseline = Some(PathBuf::from(s.value("--baseline")?)),
                "--epoch" => epoch = Some(s.value_parsed("--epoch", "an epoch number")?),
                "--window" => window = parse_window(&s.value("--window")?)?,
                "--tolerance" => {
                    let t: f64 = s.value_parsed("--tolerance", "a divergence in (0, 1]")?;
                    if !(t > 0.0 && t <= 1.0) {
                        return Err(CliError::Usage(
                            "--tolerance must be a divergence in (0, 1]".into(),
                        ));
                    }
                    tolerance = t;
                }
                "--rule" => rule = parse_rule(&s.value("--rule")?)?,
                other if !other.starts_with("--") => {
                    if recording.replace(PathBuf::from(other)).is_some() {
                        return Err(CliError::Usage(format!(
                            "unexpected extra operand `{other}` (one recording per run)"
                        )));
                    }
                }
                other => return Err(s.unknown(other)),
            }
            Ok(Some(()))
        })?;
        let Some(recording) = recording else {
            return Err(CliError::Usage(
                "watch needs a RECORDING file operand".into(),
            ));
        };
        let Some(baseline) = baseline else {
            return Err(CliError::Usage(
                "watch needs --baseline STORE.hbbp (a store segment to diff against)".into(),
            ));
        };
        Ok(WatchOptions {
            recording,
            baseline,
            epoch,
            window,
            tolerance,
            workload,
            rule,
        })
    }

    /// Load the baseline epoch's aggregate as a mnemonic mix.
    fn baseline_mix(
        &self,
        analyzer: &hbbp_core::Analyzer,
        w: &Workload,
    ) -> Result<(u32, MnemonicMix), CliError> {
        let store = open_store(&self.baseline)?;
        check_identity(&store, &self.baseline, w, analyzer)?;
        let partials = store.partials();
        let epoch = counts_epoch(&partials, self.epoch, &self.baseline)?;
        Ok((epoch, analyzer.mix(&partials.epoch_aggregate(epoch))))
    }

    /// Execute: returns the watch report (`DRIFT` lines + summary).
    pub fn run(&self) -> Result<String, CliError> {
        let w = self.workload.build()?;
        let analyzer = analyzer_for(&w)?;
        let (epoch, baseline) = self.baseline_mix(&analyzer, &w)?;
        let outcome = stream_recording(
            &self.recording,
            &w,
            &analyzer,
            self.workload.periods,
            &self.rule,
            Some(self.window),
        )?;

        let mut out = String::new();
        let mut flagged = 0usize;
        let mut max_divergence = 0.0f64;
        for win in &outcome.windows {
            let drift = MixDrift::between(&baseline, &win.mix);
            let divergence = drift.divergence();
            max_divergence = max_divergence.max(divergence);
            if divergence > self.tolerance {
                flagged += 1;
                let mover = drift
                    .top_movers(1)
                    .first()
                    .map(|row| format!(" (top mover {} {:+.1})", row.mnemonic, row.delta))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "DRIFT window {} [{}..{} cycles] divergence {:.4} > {:.4}{mover}",
                    win.index, win.start_cycles, win.end_cycles, divergence, self.tolerance
                );
            }
        }
        let _ = writeln!(
            out,
            "watched {} windows against epoch {epoch}: {flagged} flagged \
             (max divergence {max_divergence:.4}, tolerance {:.4})",
            outcome.windows.len(),
            self.tolerance
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::tests::{phased_recording, raw};
    use hbbp_store::{ProfileStore, StoreIdentity};

    #[test]
    fn wrong_workload_recording_is_rejected() {
        // A test40 baseline (so the store identity check passes) watched
        // with a phased recording: the shared mmap check must fire.
        let (dir, path) = phased_recording("watch-mismatch");
        let store_path = dir.join("test40.hbbp");
        let opts = WatchOptions::parse(&raw(&[
            path.to_str().unwrap(),
            "--baseline",
            store_path.to_str().unwrap(),
            "--workload",
            "test40",
        ]))
        .unwrap();
        let w = opts.workload.build().unwrap();
        let identity = StoreIdentity::of_workload(&w, analyzer_for(&w).unwrap().map());
        ProfileStore::open_with_identity(&store_path, identity)
            .unwrap()
            .append_counts(0, 1, 1, hbbp_program::Bbec::new())
            .unwrap();
        let err = opts.run().unwrap_err();
        assert!(
            err.to_string().contains("wrong --workload or --scale?"),
            "{err}"
        );
        assert!(err.to_string().contains("recording maps module"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recording_and_baseline_are_required() {
        let err = WatchOptions::parse(&raw(&["--baseline", "s.hbbp"])).unwrap_err();
        assert!(err.to_string().contains("RECORDING"));
        let err = WatchOptions::parse(&raw(&["p.bin"])).unwrap_err();
        assert_eq!(
            err.to_string(),
            "watch needs --baseline STORE.hbbp (a store segment to diff against)"
        );
    }

    #[test]
    fn tolerance_must_be_a_proper_fraction() {
        for bad in ["0", "0.0", "1.5", "-0.2"] {
            let err =
                WatchOptions::parse(&raw(&["p.bin", "--baseline", "s.hbbp", "--tolerance", bad]))
                    .unwrap_err();
            assert_eq!(
                err.to_string(),
                "--tolerance must be a divergence in (0, 1]",
                "{bad}"
            );
        }
    }

    #[test]
    fn defaults_flow_through() {
        let opts = WatchOptions::parse(&raw(&["p.bin", "--baseline", "s.hbbp"])).unwrap();
        assert_eq!(opts.window, Window::Samples(512));
        assert_eq!(opts.tolerance, 0.05);
        assert_eq!(opts.epoch, None);
        let opts = WatchOptions::parse(&raw(&[
            "p.bin",
            "--baseline",
            "s.hbbp",
            "--epoch",
            "2",
            "--window",
            "cycles:1000",
        ]))
        .unwrap();
        assert_eq!(opts.epoch, Some(2));
        assert_eq!(opts.window, Window::TimeCycles(1000));
    }
}
