//! `hbbp synth` — compile a target instruction mix into a calibrated
//! synthetic workload.
//!
//! The target comes from one of three places: an offline recording
//! (whole, or one window of its timeline), a [`hbbp_store::ProfileStore`]
//! segment (aggregate, one epoch's aggregate, or one timeline
//! window), or a live daemon's aggregate (`hbbp serve`). The solver
//! ([`hbbp_workloads::solve`]) turns the mix into an initial
//! [`SynthSpec`]; the calibrator then closes the loop — generate the
//! workload, record it under the real dual-event collector, analyze the
//! recording with the same fused HBBP estimator every other subcommand
//! uses, and nudge the spec until the *measured* mix lands within
//! `--tolerance` total-variation distance of the target. The winning
//! spec is reproducible: the same spec + seed replays to a byte-identical
//! recording without re-solving.

use crate::analyze::stream_recording;
use crate::args::{parse_all, CliError};
use crate::common::{
    analyzer_for, check_identity, counts_epoch, open_store, parse_rule, parse_window_flag,
    WorkloadOptions,
};
use crate::registry;
use crate::render::{json_f64, mix_json_entries, Format};
use hbbp_core::{Analyzer, HybridRule, SamplingPeriods, Window};
use hbbp_perf::PerfSession;
use hbbp_program::{ImageView, MnemonicMix};
use hbbp_sim::Cpu;
use hbbp_store::StoreClient;
use hbbp_workloads::{calibrate, compile, Calibration, CalibratorConfig, SynthSpec, Workload};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

/// Where the target mix comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthSource {
    /// An offline recording file (the `hbbp record --out` stream).
    Recording(PathBuf),
    /// A profile store segment (`.hbbp` file).
    Store(PathBuf),
    /// A live daemon's aggregate mix.
    Daemon(SocketAddr),
}

/// Parsed `hbbp synth` options.
#[derive(Debug, Clone)]
pub struct SynthOptions {
    /// Target source.
    pub source: SynthSource,
    /// Store epoch selection (`--store` only); `None` = whole aggregate.
    pub epoch: Option<u32>,
    /// Timeline window selection by canonical index.
    pub window: Option<usize>,
    /// Window size when slicing a recording's timeline.
    pub window_size: Window,
    /// Calibration target: total-variation distance to reach.
    pub tolerance: f64,
    /// Calibration iteration cap.
    pub max_iters: usize,
    /// Generator seed baked into the emitted spec.
    pub seed: u64,
    /// Hardware seed for the measurement recordings.
    pub cpu_seed: u64,
    /// Chain length of the generated program.
    pub blocks: usize,
    /// Dynamic instructions per measurement recording.
    pub dynamic: u64,
    /// Name baked into the emitted spec.
    pub name: String,
    /// Where to write the calibrated spec JSON.
    pub out: Option<PathBuf>,
    /// Report format.
    pub format: Format,
    /// Source workload (identity / layout checks for file sources).
    pub workload: WorkloadOptions,
    /// Hybrid decision rule for every analysis in the loop.
    pub rule: HybridRule,
}

/// Usage text for `hbbp synth`.
pub fn usage() -> String {
    format!(
        "usage: hbbp synth (--recording FILE | --store FILE | --addr ADDR) [options]\n\
         \n\
         Compile a target instruction mix into a calibrated synthetic workload.\n\
         The solver seeds a generator spec from the target; the calibrator then\n\
         records the generated program under the dual-event collector, analyzes\n\
         it with the fused HBBP estimator, and adjusts the spec until the\n\
         measured mix is within --tolerance total-variation distance of the\n\
         target. The spec is emitted as JSON: the same spec + seed reproduces\n\
         the workload byte-for-byte without re-solving.\n\
         \n\
         target selection:\n\
         \x20 --recording FILE    analyze FILE and target its whole-run mix\n\
         \x20 --store FILE        target a store segment's canonical aggregate\n\
         \x20 --addr ADDR         target a live daemon's aggregate (host:port)\n\
         \x20 --epoch N           target one store epoch's fold (--store only)\n\
         \x20 --window N          target timeline window N — (source, index)\n\
         \x20                     order for --store, emission order for\n\
         \x20                     --recording (not valid with --addr)\n\
         \x20 --window-size samples:<n>|cycles:<n>\n\
         \x20                     recording timeline window (default samples:512)\n\
         \n\
         calibration:\n\
         \x20 --tolerance T       target divergence in (0, 1] (default 0.02)\n\
         \x20 --max-iters N       calibration iteration cap (default 24)\n\
         \x20 --seed N            generator seed for the spec (default 803099)\n\
         \x20 --cpu-seed N        hardware seed for measurements (default 3658)\n\
         \x20 --blocks N          generated chain length (default 96)\n\
         \x20 --dynamic N         dynamic instrs per measurement (default 1200000)\n\
         \x20 --name NAME         spec name (default synth)\n\
         \x20 --out FILE          write the calibrated spec JSON to FILE\n\
         \x20 --format text|json  report format (default text)\n\
         \x20 --rule paper|cutoff=<n>|always-ebs|always-lbr\n\
         \x20                     hybrid decision rule (default paper)\n\
         {}\n\
         \n\
         The workload flags describe the SOURCE of the target (the recording's\n\
         layout, the store's identity); they do not shape the generated program.\n\
         \n\
         {}",
        WorkloadOptions::usage_lines(),
        registry::registry_help()
    )
}

impl SynthOptions {
    /// Parse the subcommand arguments.
    pub fn parse(args: &[String]) -> Result<SynthOptions, CliError> {
        let mut workload = WorkloadOptions::default();
        let mut recording: Option<PathBuf> = None;
        let mut store: Option<PathBuf> = None;
        let mut addr: Option<SocketAddr> = None;
        let mut epoch = None;
        let mut window = None;
        let mut window_size = Window::Samples(512);
        let mut tolerance = 0.02f64;
        let mut max_iters = 24usize;
        let mut seed = 0xC411Bu64;
        let mut cpu_seed = 0xE4Au64;
        let mut blocks = 96usize;
        let mut dynamic = 1_200_000u64;
        let mut name = "synth".to_owned();
        let mut out = None;
        let mut format = Format::Text;
        let mut rule = HybridRule::paper_default();
        parse_all(args, |flag, s| {
            if workload.accept(flag, s)? {
                return Ok(Some(()));
            }
            match flag {
                "--recording" => recording = Some(PathBuf::from(s.value("--recording")?)),
                "--store" => store = Some(PathBuf::from(s.value("--store")?)),
                "--addr" => {
                    addr = Some(s.value_parsed("--addr", "a socket address (host:port)")?);
                }
                "--epoch" => epoch = Some(s.value_parsed("--epoch", "an epoch number")?),
                "--window" => window = Some(s.value_parsed("--window", "a window index")?),
                "--window-size" => {
                    window_size = parse_window_flag("--window-size", &s.value("--window-size")?)?;
                }
                "--tolerance" => {
                    let t: f64 = s.value_parsed("--tolerance", "a divergence in (0, 1]")?;
                    if !(t > 0.0 && t <= 1.0) {
                        return Err(CliError::Usage(
                            "--tolerance must be a divergence in (0, 1]".into(),
                        ));
                    }
                    tolerance = t;
                }
                "--max-iters" => {
                    max_iters = s.value_parsed("--max-iters", "an iteration cap > 0")?;
                    if max_iters == 0 {
                        return Err(CliError::Usage("--max-iters must be > 0".into()));
                    }
                }
                "--seed" => seed = s.value_parsed("--seed", "a u64 seed")?,
                "--cpu-seed" => cpu_seed = s.value_parsed("--cpu-seed", "a u64 seed")?,
                "--blocks" => {
                    blocks = s.value_parsed("--blocks", "a chain length >= 4")?;
                    if blocks < 4 {
                        return Err(CliError::Usage("--blocks must be >= 4".into()));
                    }
                }
                "--dynamic" => {
                    dynamic = s.value_parsed("--dynamic", "an instruction count > 0")?;
                    if dynamic == 0 {
                        return Err(CliError::Usage("--dynamic must be > 0".into()));
                    }
                }
                "--name" => name = s.value("--name")?,
                "--out" => out = Some(PathBuf::from(s.value("--out")?)),
                "--format" => format = Format::parse(&s.value("--format")?)?,
                "--rule" => rule = parse_rule(&s.value("--rule")?)?,
                other => return Err(s.unknown(other)),
            }
            Ok(Some(()))
        })?;
        let source = match (recording, store, addr) {
            (Some(path), None, None) => SynthSource::Recording(path),
            (None, Some(path), None) => SynthSource::Store(path),
            (None, None, Some(addr)) => SynthSource::Daemon(addr),
            _ => {
                return Err(CliError::Usage(
                    "synth needs exactly one of --recording FILE, --store FILE or --addr ADDR"
                        .into(),
                ))
            }
        };
        if epoch.is_some() && !matches!(source, SynthSource::Store(_)) {
            return Err(CliError::Usage(
                "--epoch only applies to a --store target".into(),
            ));
        }
        if window.is_some() && matches!(source, SynthSource::Daemon(_)) {
            return Err(CliError::Usage(
                "--window needs a --recording or --store target".into(),
            ));
        }
        if epoch.is_some() && window.is_some() {
            return Err(CliError::Usage(
                "--epoch and --window are mutually exclusive target selections".into(),
            ));
        }
        Ok(SynthOptions {
            source,
            epoch,
            window,
            window_size,
            tolerance,
            max_iters,
            seed,
            cpu_seed,
            blocks,
            dynamic,
            name,
            out,
            format,
            workload,
            rule,
        })
    }

    /// Resolve the target mix and a one-line description of where it
    /// came from.
    pub fn target(&self) -> Result<(MnemonicMix, String), CliError> {
        match &self.source {
            SynthSource::Recording(path) => self.recording_target(path),
            SynthSource::Store(path) => self.store_target(path),
            SynthSource::Daemon(addr) => {
                let mix = StoreClient::new(*addr)
                    .query_mix()
                    .map_err(|e| CliError::Failed(format!("daemon query to {addr} failed: {e}")))?;
                Ok((mix, format!("daemon {addr} aggregate")))
            }
        }
    }

    fn recording_target(&self, path: &Path) -> Result<(MnemonicMix, String), CliError> {
        let w = self.workload.build()?;
        let analyzer = analyzer_for(&w)?;
        let window = self.window.map(|_| self.window_size);
        let outcome = stream_recording(
            path,
            &w,
            &analyzer,
            self.workload.periods,
            &self.rule,
            window,
        )?;
        let Some(n) = self.window else {
            let analysis = outcome.into_analysis().expect("unwindowed run");
            let mix = analyzer.mix(&analysis.hbbp.bbec);
            return Ok((mix, format!("recording {} (whole run)", path.display())));
        };
        let total = outcome.windows.len();
        let win = outcome.windows.into_iter().nth(n).ok_or_else(|| {
            CliError::Failed(format!(
                "{} has {total} timeline windows at {:?}; --window {n} is out of range",
                path.display(),
                self.window_size
            ))
        })?;
        Ok((
            win.mix,
            format!(
                "recording {} window {n} [{}..{} cycles]",
                path.display(),
                win.start_cycles,
                win.end_cycles
            ),
        ))
    }

    fn store_target(&self, path: &Path) -> Result<(MnemonicMix, String), CliError> {
        let store = open_store(path)?;
        if let Some(n) = self.window {
            // Window frames carry their mix directly — no analyzer (and
            // no source workload) needed. A stable sort gives the
            // canonical `(source, index)` order, whatever the arrival.
            let mut windows = store
                .windows()
                .map_err(|e| CliError::Failed(format!("cannot read {}: {e}", path.display())))?;
            windows.sort_by_key(|w| (w.source, w.index));
            let total = windows.len();
            let win = windows.into_iter().nth(n).ok_or_else(|| {
                CliError::Failed(format!(
                    "store {} holds {total} timeline windows; --window {n} is out of range",
                    path.display()
                ))
            })?;
            let what = format!(
                "store {} window {n} (source {} index {})",
                path.display(),
                win.source,
                win.index
            );
            return Ok((win.mix, what));
        }
        // Aggregate folds are block-count profiles; mapping them to a
        // mnemonic mix needs the source workload's analyzer.
        let w = self.workload.build()?;
        let analyzer = analyzer_for(&w)?;
        check_identity(&store, path, &w, &analyzer)?;
        let partials = store.partials();
        match self.epoch {
            Some(epoch) => {
                let epoch = counts_epoch(&partials, Some(epoch), path)?;
                let mix = analyzer.mix(&partials.epoch_aggregate(epoch));
                Ok((mix, format!("store {} epoch {epoch}", path.display())))
            }
            None => {
                let mix = analyzer.mix(&partials.aggregate());
                Ok((mix, format!("store {} aggregate", path.display())))
            }
        }
    }

    /// The calibrator configuration these options describe.
    pub fn calibrator_config(&self) -> CalibratorConfig {
        CalibratorConfig {
            name: self.name.clone(),
            seed: self.seed,
            tolerance: self.tolerance,
            max_iters: self.max_iters,
            blocks: self.blocks,
            target_dynamic: self.dynamic,
            ..CalibratorConfig::default()
        }
    }

    /// Resolve the target and run the calibration loop. Returns the
    /// target mix, its one-line provenance, and the calibration result
    /// — the programmatic core of [`SynthOptions::run`], exposed for
    /// the differential tests and the bench.
    pub fn execute(&self) -> Result<(MnemonicMix, String, Calibration), CliError> {
        let (target, desc) = self.target()?;
        let cfg = self.calibrator_config();
        let periods = self.workload.periods;
        let rule = self.rule.clone();
        let cpu_seed = self.cpu_seed;
        let mut measure = |spec: &SynthSpec| -> Result<MnemonicMix, String> {
            measure_spec(spec, periods, &rule, cpu_seed)
        };
        let cal = calibrate(&target, &cfg, &mut measure)
            .map_err(|e| CliError::Failed(format!("calibration failed: {e}")))?;
        Ok((target, desc, cal))
    }

    /// Execute: returns the synthesis report.
    pub fn run(&self) -> Result<String, CliError> {
        let (target, desc, cal) = self.execute()?;
        let cfg = self.calibrator_config();
        if let Some(path) = &self.out {
            std::fs::write(path, cal.spec.to_json())
                .map_err(|e| CliError::Failed(format!("cannot write {}: {e}", path.display())))?;
        }
        Ok(match self.format {
            Format::Text => render_text(&cal, &target, &desc, &cfg, self.out.as_deref()),
            _ => render_json(&cal, &target, &desc, &cfg),
        })
    }
}

/// Record one spec's workload under the dual-event collector, in memory.
///
/// This is the generation half of the calibration loop, exposed so the
/// differential and reproducibility tests (and the bench) can replay a
/// calibrated spec byte-for-byte.
pub fn record_spec(
    spec: &SynthSpec,
    periods: SamplingPeriods,
    cpu_seed: u64,
) -> Result<(Workload, Vec<u8>), String> {
    let w = compile(spec).map_err(|e| e.to_string())?;
    let session = PerfSession::hbbp(Cpu::with_seed(cpu_seed), periods.ebs, periods.lbr);
    let (_run, bytes) = session
        .record_to_sink(w.program(), w.layout(), w.oracle(), Vec::new())
        .map_err(|e| format!("recording synthesized workload failed: {e}"))?;
    Ok((w, bytes))
}

/// Analyze an in-memory recording of a synthesized workload with the
/// fused HBBP estimator — the measurement half of the calibration loop.
pub fn analyze_spec_bytes(
    w: &Workload,
    bytes: &[u8],
    periods: SamplingPeriods,
    rule: &HybridRule,
) -> Result<MnemonicMix, String> {
    let analyzer = Analyzer::from_images(&w.images(ImageView::Disk), w.layout().symbols())
        .map_err(|e| format!("static discovery failed: {e:?}"))?;
    let data = hbbp_perf::codec::read(bytes).map_err(|e| format!("undecodable recording: {e}"))?;
    let analysis = analyzer.analyze_fused(&data, periods, rule);
    Ok(analyzer.mix(&analysis.hbbp.bbec))
}

/// The full measurement: generate, record, analyze. Deterministic for a
/// given `(spec, periods, rule, cpu_seed)`.
pub fn measure_spec(
    spec: &SynthSpec,
    periods: SamplingPeriods,
    rule: &HybridRule,
    cpu_seed: u64,
) -> Result<MnemonicMix, String> {
    let (w, bytes) = record_spec(spec, periods, cpu_seed)?;
    analyze_spec_bytes(&w, &bytes, periods, rule)
}

fn render_text(
    cal: &Calibration,
    target: &MnemonicMix,
    desc: &str,
    cfg: &CalibratorConfig,
    out: Option<&std::path::Path>,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "synth target: {desc}");
    let _ = writeln!(
        s,
        "target mix: {} mnemonics, {:.0} weighted instructions \
         (unmatchable share {:.4})",
        target.len(),
        target.total(),
        cal.unmatchable
    );
    let _ = writeln!(s, "iter  body_len  jmp_prob  distance  accepted");
    for step in &cal.steps {
        let _ = writeln!(
            s,
            "{:>4}  {:>8.2}  {:>8.3}  {:>8.4}  {}",
            step.iter,
            step.body_len,
            step.jmp_prob,
            step.distance,
            if step.accepted { "yes" } else { "no" }
        );
    }
    if cal.converged {
        let _ = writeln!(
            s,
            "converged in {} iterations: distance {:.4} <= tolerance {:.4}",
            cal.iterations, cal.distance, cfg.tolerance
        );
    } else {
        let _ = writeln!(
            s,
            "stopped at the iteration cap ({}): distance {:.4} > tolerance {:.4}",
            cfg.max_iters, cal.distance, cfg.tolerance
        );
    }
    let _ = writeln!(
        s,
        "spec: name {} seed {} blocks {} outer {}",
        cal.spec.name, cal.spec.seed, cal.spec.blocks, cal.spec.outer_iterations
    );
    if let Some(path) = out {
        let _ = writeln!(s, "spec written to {}", path.display());
    }
    s
}

fn render_json(
    cal: &Calibration,
    target: &MnemonicMix,
    desc: &str,
    cfg: &CalibratorConfig,
) -> String {
    let mut steps = String::new();
    for (i, step) in cal.steps.iter().enumerate() {
        if i > 0 {
            steps.push_str(", ");
        }
        let _ = write!(
            steps,
            "{{\"iter\": {}, \"distance\": {}, \"accepted\": {}, \
             \"body_len\": {}, \"jmp_prob\": {}}}",
            step.iter,
            json_f64(step.distance),
            step.accepted,
            json_f64(step.body_len),
            json_f64(step.jmp_prob)
        );
    }
    format!(
        "{{\n  \"target\": {{\"source\": \"{}\", \"mnemonics\": {}, \"mix\": {}}},\n  \
         \"calibration\": {{\"converged\": {}, \"iterations\": {}, \"distance\": {}, \
         \"tolerance\": {}, \"unmatchable\": {}, \"steps\": [{}]}},\n  \
         \"spec\": {}\n}}\n",
        crate::render::json_escape(desc),
        target.len(),
        mix_json_entries(target),
        cal.converged,
        cal.iterations,
        json_f64(cal.distance),
        json_f64(cfg.tolerance),
        json_f64(cal.unmatchable),
        steps,
        cal.spec.to_json().trim_end()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::tests::{phased_recording, raw};

    #[test]
    fn wrong_workload_recording_is_rejected() {
        // A phased recording read as test40: the shared mmap check fires
        // for the whole-run and the windowed target alike.
        let (dir, path) = phased_recording("synth-mismatch");
        for extra in [&[][..], &["--window", "0"][..]] {
            let mut argv = vec![
                "--recording",
                path.to_str().unwrap(),
                "--workload",
                "test40",
            ];
            argv.extend_from_slice(extra);
            let err = SynthOptions::parse(&raw(&argv))
                .unwrap()
                .target()
                .unwrap_err();
            assert!(
                err.to_string().contains("wrong --workload or --scale?"),
                "mode {extra:?}: {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exactly_one_source_is_required() {
        for args in [
            &[][..],
            &["--recording", "p.bin", "--store", "s.hbbp"][..],
            &["--store", "s.hbbp", "--addr", "127.0.0.1:9"][..],
        ] {
            let err = SynthOptions::parse(&raw(args)).unwrap_err();
            assert_eq!(
                err.to_string(),
                "synth needs exactly one of --recording FILE, --store FILE or --addr ADDR"
            );
        }
    }

    #[test]
    fn selection_flags_are_source_checked() {
        let err = SynthOptions::parse(&raw(&["--recording", "p.bin", "--epoch", "1"])).unwrap_err();
        assert_eq!(err.to_string(), "--epoch only applies to a --store target");
        let err =
            SynthOptions::parse(&raw(&["--addr", "127.0.0.1:9", "--window", "0"])).unwrap_err();
        assert_eq!(
            err.to_string(),
            "--window needs a --recording or --store target"
        );
        let err = SynthOptions::parse(&raw(&[
            "--store", "s.hbbp", "--epoch", "1", "--window", "0",
        ]))
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "--epoch and --window are mutually exclusive target selections"
        );
    }

    #[test]
    fn tolerance_must_be_a_proper_fraction() {
        for bad in ["0", "0.0", "1.5", "-0.2"] {
            let err =
                SynthOptions::parse(&raw(&["--store", "s.hbbp", "--tolerance", bad])).unwrap_err();
            assert_eq!(
                err.to_string(),
                "--tolerance must be a divergence in (0, 1]",
                "{bad}"
            );
        }
    }

    #[test]
    fn defaults_flow_through() {
        let opts = SynthOptions::parse(&raw(&["--store", "s.hbbp"])).unwrap();
        assert_eq!(opts.tolerance, 0.02);
        assert_eq!(opts.max_iters, 24);
        assert_eq!(opts.seed, 0xC411B);
        assert_eq!(opts.cpu_seed, 0xE4A);
        assert_eq!(opts.blocks, 96);
        assert_eq!(opts.dynamic, 1_200_000);
        assert_eq!(opts.window_size, Window::Samples(512));
        assert_eq!(opts.name, "synth");
        let cfg = opts.calibrator_config();
        assert_eq!(cfg.tolerance, 0.02);
        assert_eq!(cfg.blocks, 96);
    }

    #[test]
    fn knob_floors_are_enforced() {
        let err =
            SynthOptions::parse(&raw(&["--store", "s.hbbp", "--max-iters", "0"])).unwrap_err();
        assert_eq!(err.to_string(), "--max-iters must be > 0");
        let err = SynthOptions::parse(&raw(&["--store", "s.hbbp", "--blocks", "3"])).unwrap_err();
        assert_eq!(err.to_string(), "--blocks must be >= 4");
        let err = SynthOptions::parse(&raw(&["--store", "s.hbbp", "--dynamic", "0"])).unwrap_err();
        assert_eq!(err.to_string(), "--dynamic must be > 0");
    }

    #[test]
    fn measurement_is_deterministic() {
        let mut target = MnemonicMix::new();
        target.add(hbbp_isa::Mnemonic::Add, 700.0);
        target.add(hbbp_isa::Mnemonic::Mov, 200.0);
        target.add(hbbp_isa::Mnemonic::Jnz, 100.0);
        let outcome = hbbp_workloads::solve(
            &target,
            &CalibratorConfig {
                blocks: 24,
                inner_trips: 8,
                target_dynamic: 40_000,
                ..CalibratorConfig::default()
            },
        )
        .unwrap();
        let periods = SamplingPeriods {
            ebs: 1009,
            lbr: 211,
        };
        let rule = HybridRule::paper_default();
        let a = measure_spec(&outcome.spec, periods, &rule, 0xE4A).unwrap();
        let b = measure_spec(&outcome.spec, periods, &rule, 0xE4A).unwrap();
        let union = a.union_mnemonics(&b);
        assert!(!union.is_empty());
        for m in union {
            assert_eq!(a.get(m).to_bits(), b.get(m).to_bits(), "{m}");
        }
    }
}
