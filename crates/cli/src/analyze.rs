//! `hbbp analyze` — instruction mixes from a recording: one
//! whole-recording analysis or a windowed `OnlineAnalyzer` timeline.
//!
//! The recording streams through the zero-copy fused decode→analyze path
//! ([`StreamDecoder::decode_into`] driving [`OnlineAnalyzer::push_view`]),
//! with every MMAP record checked against the workload layout on the way
//! (`stream_recording`, shared with `synth --recording` and `watch`).

use crate::args::{invalid, parse_all, CliError};
use crate::common::{analyzer_for, parse_rule, parse_window, WorkloadOptions};
use crate::registry;
use crate::render::{self, Format, TimelineRow};
use hbbp_core::{
    Analysis, Analyzer, HybridRule, OnlineAnalyzer, OnlineOutcome, SamplingPeriods, Window,
};
use hbbp_perf::{PerfRecord, RecordView, StreamDecoder, ViewSink};
use hbbp_workloads::Workload;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Which estimate to render.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Estimator {
    /// The combined HBBP estimate (the paper's result).
    #[default]
    Hbbp,
    /// EBS-only.
    Ebs,
    /// LBR-only.
    Lbr,
}

impl Estimator {
    fn parse(value: &str) -> Result<Estimator, CliError> {
        match value {
            "hbbp" => Ok(Estimator::Hbbp),
            "ebs" => Ok(Estimator::Ebs),
            "lbr" => Ok(Estimator::Lbr),
            _ => Err(invalid("--estimator", value, "hbbp|ebs|lbr")),
        }
    }

    fn pick<'a>(&self, analysis: &'a Analysis) -> &'a hbbp_program::Bbec {
        match self {
            Estimator::Hbbp => &analysis.hbbp.bbec,
            Estimator::Ebs => &analysis.ebs.bbec,
            Estimator::Lbr => &analysis.lbr.bbec,
        }
    }
}

/// Parsed `hbbp analyze` options.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// The recording file to analyze.
    pub recording: PathBuf,
    /// Workload the recording was collected from (for the static block
    /// map); periods must match the collection.
    pub workload: WorkloadOptions,
    /// `None` = one whole-recording batch analysis; `Some` = per-window
    /// timeline.
    pub window: Option<Window>,
    /// The hybrid decision rule.
    pub rule: HybridRule,
    /// Output format.
    pub format: Format,
    /// Mix rows to list in text/csv output (0 = all).
    pub top: usize,
    /// Which estimate to render.
    pub estimator: Estimator,
}

/// Usage text for `hbbp analyze`.
pub fn usage() -> String {
    format!(
        "usage: hbbp analyze RECORDING [options]\n\
         \n\
         Produce instruction mixes from a perf recording. The recording streams\n\
         through the online analyzer: without --window this is one\n\
         whole-recording analysis (bit-identical to Analyzer::analyze_fused);\n\
         with --window each window becomes one row of a mix timeline.\n\
         \n\
         options:\n\
         \x20 --window samples:<n>|cycles:<n>\n\
         \x20                     per-window timeline instead of one analysis\n\
         \x20 --rule paper|cutoff=<n>|always-ebs|always-lbr\n\
         \x20                     hybrid decision rule (default paper)\n\
         \x20 --estimator hbbp|ebs|lbr\n\
         \x20                     which estimate to render (default hbbp)\n\
         \x20 --format text|json|csv (default text)\n\
         \x20 --top N             mnemonics to list in text/csv (default 20, 0 = all)\n\
         {}\n\
         \n\
         The workload (and scale) must match what `hbbp record` ran: the\n\
         recording's memory map is checked against the workload layout.\n\
         \n\
         {}",
        WorkloadOptions::usage_lines(),
        registry::registry_help()
    )
}

impl AnalyzeOptions {
    /// Parse the subcommand arguments.
    pub fn parse(args: &[String]) -> Result<AnalyzeOptions, CliError> {
        let mut workload = WorkloadOptions::default();
        let mut recording: Option<PathBuf> = None;
        let mut window = None;
        let mut rule = HybridRule::paper_default();
        let mut format = Format::Text;
        let mut top = 20usize;
        let mut estimator = Estimator::Hbbp;
        parse_all(args, |flag, s| {
            if workload.accept(flag, s)? {
                return Ok(Some(()));
            }
            match flag {
                "--window" => window = Some(parse_window(&s.value("--window")?)?),
                "--rule" => rule = parse_rule(&s.value("--rule")?)?,
                "--format" => format = Format::parse(&s.value("--format")?)?,
                "--top" => top = s.value_parsed("--top", "a row count")?,
                "--estimator" => estimator = Estimator::parse(&s.value("--estimator")?)?,
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
                "analyze needs a RECORDING file operand".into(),
            ));
        };
        Ok(AnalyzeOptions {
            recording,
            workload,
            window,
            rule,
            format,
            top,
            estimator,
        })
    }

    /// Execute: returns the rendered output.
    pub fn run(&self) -> Result<String, CliError> {
        let w = self.workload.build()?;
        let analyzer = analyzer_for(&w)?;
        let outcome = stream_recording(
            &self.recording,
            &w,
            &analyzer,
            self.workload.periods,
            &self.rule,
            self.window,
        )?;
        if self.window.is_some() {
            let rows: Vec<TimelineRow> = outcome
                .windows
                .into_iter()
                .map(|win| TimelineRow {
                    index: win.index as u64,
                    start_cycles: win.start_cycles,
                    end_cycles: win.end_cycles,
                    ebs_samples: win.ebs_samples,
                    lbr_samples: win.lbr_samples,
                    // A closed window already carries its HBBP mix.
                    mix: match self.estimator {
                        Estimator::Hbbp => win.mix,
                        _ => analyzer.mix(self.estimator.pick(&win.analysis)),
                    },
                })
                .collect();
            return Ok(render::render_timeline(&rows, self.format));
        }
        let records = outcome.records_seen;
        let (ebs, lbr) = outcome
            .windows
            .first()
            .map(|win| (win.ebs_samples, win.lbr_samples))
            .unwrap_or((0, 0));
        let analysis = outcome.into_analysis().expect("unwindowed run");
        Ok(self.render_whole(&analyzer, records, ebs, lbr, &analysis))
    }

    /// Render the whole-recording analysis.
    fn render_whole(
        &self,
        analyzer: &Analyzer,
        records: u64,
        ebs: u64,
        lbr: u64,
        analysis: &Analysis,
    ) -> String {
        let mix = analyzer.mix(self.estimator.pick(analysis));
        match self.format {
            Format::Text => {
                let mut out = String::new();
                let _ = writeln!(
                    out,
                    "analysis of {} ({records} records, ebs {ebs} / lbr {lbr} samples)",
                    self.recording.display(),
                );
                let _ = writeln!(
                    out,
                    "estimated instructions: {:.1}\n",
                    analyzer.total_instructions(self.estimator.pick(analysis))
                );
                out.push_str(&render::render_mix(&mix, self.top, Format::Text));
                out
            }
            Format::Json => format!(
                "{{\"records\": {records}, \"ebs_samples\": {ebs}, \"lbr_samples\": {lbr}, \
                 \"total\": {}, \"mnemonics\": {}}}\n",
                render::json_f64(mix.total()),
                render::mix_json_entries(&mix)
            ),
            Format::Csv => render::render_mix(&mix, self.top, Format::Csv),
        }
    }
}

/// Stream the recording at `path` through an [`OnlineAnalyzer`] on the
/// fused zero-copy path — file chunks feed the decoder, and
/// [`StreamDecoder::decode_into`] hands borrowed record views straight to
/// [`OnlineAnalyzer::push_view`] — checking every MMAP record against the
/// workload layout as it streams past. `window` selects a timeline run;
/// `None` is one whole-recording analysis.
///
/// The one checked ingest path of `analyze`, `synth --recording` and
/// `watch`. A decode failure reads "is not a decodable recording"; a
/// truncated tail reads "ends mid-record" for a timeline run and "is not
/// a decodable recording" for a whole-recording run.
pub(crate) fn stream_recording(
    path: &Path,
    w: &Workload,
    analyzer: &Analyzer,
    periods: SamplingPeriods,
    rule: &HybridRule,
    window: Option<Window>,
) -> Result<OnlineOutcome, CliError> {
    use std::io::Read as _;
    let cannot_read =
        |e: std::io::Error| CliError::Failed(format!("cannot read {}: {e}", path.display()));
    let undecodable = |e: &dyn std::fmt::Display| {
        CliError::Failed(format!(
            "{} is not a decodable recording: {e}",
            path.display()
        ))
    };
    let mut reader = std::io::BufReader::new(std::fs::File::open(path).map_err(cannot_read)?);
    let mut online = OnlineAnalyzer::new(analyzer, periods, rule.clone());
    if let Some(window) = window {
        online = online.with_window(window);
    }
    let mut sink = CheckSink {
        online,
        expected: expected_modules(w),
        workload: w,
        err: None,
    };
    let mut decoder = StreamDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = reader.read(&mut buf).map_err(cannot_read)?;
        if n == 0 {
            break;
        }
        decoder.feed(&buf[..n]);
        let decoded = decoder.decode_into(&mut sink);
        if let Some(err) = sink.err.take() {
            return Err(err);
        }
        decoded.map_err(|e| undecodable(&e))?;
    }
    decoder.finish().map_err(|e| match window {
        Some(_) => CliError::Failed(format!("{} ends mid-record: {e}", path.display())),
        None => undecodable(&e),
    })?;
    Ok(sink.online.finish())
}

/// [`ViewSink`] that verifies MMAP records against the workload layout
/// before forwarding every view to the online analyzer. The first
/// mismatch is stored (a sink callback cannot early-return through the
/// decoder) and checked by the caller after each `decode_into`.
struct CheckSink<'s, 'a> {
    online: OnlineAnalyzer<'a>,
    expected: Vec<(String, u64, u64)>,
    workload: &'s Workload,
    err: Option<CliError>,
}

impl ViewSink for CheckSink<'_, '_> {
    fn view(&mut self, view: &RecordView<'_>) {
        if self.err.is_some() {
            return;
        }
        if let RecordView::Other(PerfRecord::Mmap {
            addr,
            len,
            filename,
            ..
        }) = view
        {
            if let Err(e) = check_mmap(&self.expected, filename, *addr, *len, self.workload) {
                self.err = Some(e);
                return;
            }
        }
        self.online.push_view(view);
    }
}

/// The workload's `(module name, base, len)` spans — what every MMAP
/// record of a matching recording must name.
fn expected_modules(w: &Workload) -> Vec<(String, u64, u64)> {
    w.program()
        .modules()
        .iter()
        .map(|m| {
            let (base, end) = w.layout().module_range(m.id());
            (m.name().to_owned(), base, end - base)
        })
        .collect()
}

/// Reject an MMAP record that names a module span the workload does not
/// have — a mismatched `--workload`/`--scale` would silently produce an
/// empty or wrong mix otherwise.
fn check_mmap(
    expected: &[(String, u64, u64)],
    name: &str,
    base: u64,
    len: u64,
    w: &Workload,
) -> Result<(), CliError> {
    if expected
        .iter()
        .any(|(n, b, l)| n == name && *b == base && *l == len)
    {
        return Ok(());
    }
    Err(CliError::Failed(format!(
        "recording maps module {name} at {base:#x}+{len:#x}, which does not match \
         workload `{}` — wrong --workload or --scale?",
        w.name()
    )))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn raw(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    /// A `phased` recording in a fresh temp directory named after `tag`:
    /// the input of every command's wrong-workload check. Returns the
    /// directory (for cleanup) and the recording path.
    pub(crate) fn phased_recording(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("hbbp-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.bin");
        crate::record::RecordOptions::parse(&raw(&[
            "--workload",
            "phased",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap()
        .run()
        .unwrap();
        (dir, path)
    }

    #[test]
    fn recording_operand_is_required() {
        let err = AnalyzeOptions::parse(&raw(&["--format", "json"])).unwrap_err();
        assert!(err.to_string().contains("RECORDING"));
    }

    #[test]
    fn one_recording_only() {
        let err = AnalyzeOptions::parse(&raw(&["a.bin", "b.bin"])).unwrap_err();
        assert!(err.to_string().contains("extra operand `b.bin`"));
    }

    #[test]
    fn window_flag_flows_through() {
        let opts = AnalyzeOptions::parse(&raw(&["p.bin", "--window", "samples:1000"])).unwrap();
        assert_eq!(opts.window, Some(Window::Samples(1000)));
        assert_eq!(opts.recording, PathBuf::from("p.bin"));
    }

    #[test]
    fn wrong_workload_is_detected_in_both_batch_and_windowed_modes() {
        // Record phased, analyze as test40: the mmap check must fire for
        // a whole-recording and a windowed run alike.
        let (dir, path) = phased_recording("analyze-mismatch");
        for extra in [&[][..], &["--window", "samples:100"][..]] {
            let mut argv = vec![path.to_str().unwrap(), "--workload", "test40"];
            argv.extend_from_slice(extra);
            let err = AnalyzeOptions::parse(&raw(&argv))
                .unwrap()
                .run()
                .unwrap_err();
            assert!(
                err.to_string().contains("wrong --workload or --scale?"),
                "mode {extra:?}: {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
