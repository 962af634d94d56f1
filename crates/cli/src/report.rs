//! `hbbp report` — render an instruction-mix table or a per-window
//! timeline from a recording file or a profile-store segment.

use crate::analyze::AnalyzeOptions;
use crate::args::{parse_all, CliError};
use crate::common::{
    analyzer_for, check_identity, open_store, parse_rule, parse_window, sample_totals,
    WorkloadOptions,
};
use crate::registry;
use crate::render::{self, Format, TimelineRow};
use hbbp_core::{HybridRule, Window};
use std::fmt::Write as _;
use std::path::PathBuf;

/// What to report from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportSource {
    /// A perf recording file (`hbbp record --out`).
    Recording(PathBuf),
    /// A profile-store segment (`part-*.hbbp`).
    Store(PathBuf),
}

/// Parsed `hbbp report` options.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Recording or store input.
    pub source: ReportSource,
    /// Workload selection (needed to turn block counts into mixes).
    pub workload: WorkloadOptions,
    /// Render the per-window timeline instead of the aggregate mix.
    pub timeline: bool,
    /// Window policy when building a timeline from a recording.
    pub window: Option<Window>,
    /// The hybrid decision rule (recording analysis only).
    pub rule: HybridRule,
    /// Output format.
    pub format: Format,
    /// Mix rows to list in text/csv output (0 = all).
    pub top: usize,
}

/// Usage text for `hbbp report`.
pub fn usage() -> String {
    format!(
        "usage: hbbp report (--recording FILE | --store FILE) [options]\n\
         \n\
         Render an instruction-mix table, or (--timeline) a per-window mix\n\
         timeline, from a perf recording or a profile-store segment file.\n\
         \n\
         options:\n\
         \x20 --recording FILE    analyze a perf recording (batch, bit-identical\n\
         \x20                     to `hbbp analyze`)\n\
         \x20 --store FILE        report a store segment's canonical aggregate\n\
         \x20 --timeline          per-window timeline: stored WINDOW frames for\n\
         \x20                     --store, a windowed analysis for --recording\n\
         \x20                     (requires --window)\n\
         \x20 --window samples:<n>|cycles:<n>\n\
         \x20                     window policy for --recording --timeline\n\
         \x20 --rule paper|cutoff=<n>|always-ebs|always-lbr (default paper)\n\
         \x20 --format text|json|csv (default text)\n\
         \x20 --top N             mnemonics to list in text/csv (default 20, 0 = all)\n\
         {}\n\
         \n\
         {}",
        WorkloadOptions::usage_lines(),
        registry::registry_help()
    )
}

impl ReportOptions {
    /// Parse the subcommand arguments.
    pub fn parse(args: &[String]) -> Result<ReportOptions, CliError> {
        let mut workload = WorkloadOptions::default();
        let mut recording: Option<PathBuf> = None;
        let mut store: Option<PathBuf> = None;
        let mut timeline = false;
        let mut window = None;
        let mut rule = HybridRule::paper_default();
        let mut format = Format::Text;
        let mut top = 20usize;
        parse_all(args, |flag, s| {
            if workload.accept(flag, s)? {
                return Ok(Some(()));
            }
            match flag {
                "--recording" => recording = Some(PathBuf::from(s.value("--recording")?)),
                "--store" => store = Some(PathBuf::from(s.value("--store")?)),
                "--timeline" => timeline = true,
                "--window" => window = Some(parse_window(&s.value("--window")?)?),
                "--rule" => rule = parse_rule(&s.value("--rule")?)?,
                "--format" => format = Format::parse(&s.value("--format")?)?,
                "--top" => top = s.value_parsed("--top", "a row count")?,
                other => return Err(s.unknown(other)),
            }
            Ok(Some(()))
        })?;
        let source = match (recording, store) {
            (Some(path), None) => ReportSource::Recording(path),
            (None, Some(path)) => ReportSource::Store(path),
            _ => {
                return Err(CliError::Usage(
                    "report needs exactly one of --recording FILE or --store FILE".into(),
                ))
            }
        };
        if timeline && window.is_none() && matches!(source, ReportSource::Recording(_)) {
            return Err(CliError::Usage(
                "report --timeline over a recording needs --window samples:<n>|cycles:<n>".into(),
            ));
        }
        Ok(ReportOptions {
            source,
            workload,
            timeline,
            window,
            rule,
            format,
            top,
        })
    }

    /// Execute: returns the rendered report.
    pub fn run(&self) -> Result<String, CliError> {
        match &self.source {
            ReportSource::Recording(path) => {
                // A recording report is exactly an analysis render —
                // shared with `hbbp analyze` so the two cannot drift.
                let opts = AnalyzeOptions {
                    recording: path.clone(),
                    workload: self.workload.clone(),
                    window: if self.timeline { self.window } else { None },
                    rule: self.rule.clone(),
                    format: self.format,
                    top: self.top,
                    estimator: Default::default(),
                };
                opts.run()
            }
            ReportSource::Store(path) => {
                let store = open_store(path)?;
                if self.timeline {
                    let windows = store.windows().map_err(|e| {
                        CliError::Failed(format!("cannot read {}: {e}", path.display()))
                    })?;
                    let rows: Vec<TimelineRow> = windows
                        .into_iter()
                        .map(|w| TimelineRow {
                            index: u64::from(w.index),
                            start_cycles: w.start_cycles,
                            end_cycles: w.end_cycles,
                            ebs_samples: w.ebs_samples,
                            lbr_samples: w.lbr_samples,
                            mix: w.mix,
                        })
                        .collect();
                    return Ok(render::render_timeline(&rows, self.format));
                }
                let w = self.workload.build()?;
                let analyzer = analyzer_for(&w)?;
                check_identity(&store, path, &w, &analyzer)?;
                let partials = store.partials();
                let mix = analyzer.mix(&partials.aggregate());
                let (ebs, lbr) = sample_totals(&partials);
                let frames = store.counts_frames();
                Ok(match self.format {
                    Format::Text => {
                        let mut out = String::new();
                        let _ = writeln!(
                            out,
                            "aggregate of {} ({frames} counts frames, {} sources, ebs {ebs} / lbr {lbr} samples)\n",
                            path.display(),
                            store.sources().len()
                        );
                        out.push_str(&render::render_mix(&mix, self.top, Format::Text));
                        out
                    }
                    Format::Json => format!(
                        "{{\"counts_frames\": {frames}, \"ebs_samples\": {ebs}, \"lbr_samples\": {lbr}, \
                         \"total\": {}, \"mnemonics\": {}}}\n",
                        render::json_f64(mix.total()),
                        render::mix_json_entries(&mix)
                    ),
                    Format::Csv => render::render_mix(&mix, self.top, Format::Csv),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn requires_exactly_one_source() {
        let err = ReportOptions::parse(&[]).unwrap_err();
        assert!(err.to_string().contains("exactly one of"));
        let err = ReportOptions::parse(&raw(&["--recording", "a", "--store", "b"])).unwrap_err();
        assert!(err.to_string().contains("exactly one of"));
    }

    #[test]
    fn recording_timeline_needs_a_window() {
        let err = ReportOptions::parse(&raw(&["--recording", "p.bin", "--timeline"])).unwrap_err();
        assert!(err.to_string().contains("needs --window"));
        let ok = ReportOptions::parse(&raw(&[
            "--recording",
            "p.bin",
            "--timeline",
            "--window",
            "samples:100",
        ]));
        assert!(ok.is_ok());
    }

    #[test]
    fn store_timeline_needs_no_window() {
        let ok = ReportOptions::parse(&raw(&["--store", "part-0.hbbp", "--timeline"])).unwrap();
        assert!(ok.timeline);
    }
}
