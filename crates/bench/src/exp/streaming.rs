//! The streaming experiment: a per-phase instruction-mix **timeline**.
//!
//! Batch analysis compresses a whole run into one mix; this experiment
//! runs the phase-switching [`hbbp_workloads::phased()`] workload through
//! [`OnlineAnalyzer`] with a time window narrower than one phase, so the
//! alternating integer / SSE / AVX kernels reappear as alternating
//! windows. The records never materialize as a [`hbbp_perf::PerfData`]:
//! the collection session streams straight into the analyzer, and the
//! analyzer's LBR run log is bounded by the densest window.

use super::{pct, ExpOptions};
use hbbp_core::{Analyzer, OnlineAnalyzer, SamplingPeriods, Window};
use hbbp_isa::Extension;
use hbbp_perf::PerfSession;
use hbbp_program::{ImageView, MnemonicMix};
use hbbp_sim::Cpu;
use hbbp_workloads::phased;
use std::fmt::Write as _;

/// One timeline window in summary form (also serialized into
/// `BENCH_streaming.json` by the streaming bench).
#[derive(Debug, Clone)]
pub struct TimelineWindow {
    /// Emission order.
    pub index: usize,
    /// Window start (core cycles, nominal).
    pub start_cycles: u64,
    /// Window end (core cycles, nominal, exclusive).
    pub end_cycles: u64,
    /// EBS-event samples in the window.
    pub ebs_samples: u64,
    /// LBR-event samples in the window.
    pub lbr_samples: u64,
    /// Estimated instructions executed in the window.
    pub instructions: f64,
    /// Fraction of the window's mix that is SSE.
    pub sse_frac: f64,
    /// Fraction of the window's mix that is AVX.
    pub avx_frac: f64,
    /// Fraction of the window's mix that is neither (integer/base code).
    pub other_frac: f64,
    /// The dominant bucket's label (`"INT"`, `"SSE"` or `"AVX"`).
    pub dominant: &'static str,
}

/// Everything the timeline run produces.
#[derive(Debug, Clone)]
pub struct TimelineOutcome {
    /// Per-window rows, in time order.
    pub windows: Vec<TimelineWindow>,
    /// Profiled samples consumed in total.
    pub samples_seen: u64,
    /// Sum of per-window sample tallies (must equal `samples_seen` — the
    /// window-partition invariant, asserted by this module's tests).
    pub window_sample_sum: u64,
    /// Peak size of the online analyzer's LBR run log, in 4-byte words.
    pub peak_run_log_words: usize,
    /// Estimated instructions over all windows.
    pub total_instructions: f64,
}

fn ext_fracs(mix: &MnemonicMix) -> (f64, f64, f64) {
    let total = mix.total();
    if total <= 0.0 {
        return (0.0, 0.0, 0.0);
    }
    let mut sse = 0.0;
    let mut avx = 0.0;
    for (m, c) in mix.iter() {
        match m.extension() {
            Extension::Sse => sse += c,
            Extension::Avx => avx += c,
            _ => {}
        }
    }
    (sse / total, avx / total, (total - sse - avx) / total)
}

/// Run the phased workload through the windowed online analyzer,
/// streaming collection directly into analysis.
pub fn timeline(opts: &ExpOptions, n_windows: u64) -> TimelineOutcome {
    let w = phased(opts.scale);
    let cpu = Cpu::with_seed(opts.seed);
    let clean = cpu
        .run_clean(w.program(), w.layout(), w.oracle())
        .expect("clean run");
    let periods = SamplingPeriods::scaled_for(clean.instructions);
    let analyzer =
        Analyzer::from_images(&w.images(ImageView::Disk), w.layout().symbols()).expect("discovery");
    let width = (clean.cycles / n_windows.max(1)).max(1);
    let mut online = OnlineAnalyzer::new(&analyzer, periods, opts.rule.clone())
        .with_window(Window::TimeCycles(width));
    let session = PerfSession::hbbp(cpu, periods.ebs, periods.lbr);
    session
        .record_streaming(w.program(), w.layout(), w.oracle(), &mut online)
        .expect("recording");
    let outcome = online.finish();

    let mut windows = Vec::new();
    let mut total_instructions = 0.0;
    let mut window_sample_sum = 0;
    for win in &outcome.windows {
        let (sse_frac, avx_frac, other_frac) = ext_fracs(&win.mix);
        let dominant = if sse_frac >= avx_frac && sse_frac >= other_frac {
            "SSE"
        } else if avx_frac >= other_frac {
            "AVX"
        } else {
            "INT"
        };
        let instructions = analyzer.total_instructions(&win.analysis.hbbp.bbec);
        total_instructions += instructions;
        window_sample_sum += win.ebs_samples + win.lbr_samples;
        windows.push(TimelineWindow {
            index: win.index,
            start_cycles: win.start_cycles,
            end_cycles: win.end_cycles,
            ebs_samples: win.ebs_samples,
            lbr_samples: win.lbr_samples,
            instructions,
            sse_frac,
            avx_frac,
            other_frac,
            dominant,
        });
    }
    TimelineOutcome {
        windows,
        samples_seen: outcome.samples_seen,
        window_sample_sum,
        peak_run_log_words: outcome.peak_run_log_words,
        total_instructions,
    }
}

/// The `mix_timeline` experiment: render the timeline as a table.
pub fn mix_timeline(opts: &ExpOptions) -> String {
    let outcome = timeline(opts, 12);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Mix timeline: phase-switching workload through the windowed online\nanalyzer (collection streamed straight into analysis, no perf.data).\n"
    );
    let _ = writeln!(
        out,
        "{:<4} {:>22} {:>6} {:>6} {:>13} {:>7} {:>7} {:>7}  dominant",
        "win", "cycles", "ebs", "lbr", "instructions", "INT", "SSE", "AVX"
    );
    for w in &outcome.windows {
        let _ = writeln!(
            out,
            "{:<4} {:>10}-{:<11} {:>6} {:>6} {:>13.0} {:>7} {:>7} {:>7}  {}",
            w.index,
            w.start_cycles,
            w.end_cycles,
            w.ebs_samples,
            w.lbr_samples,
            w.instructions,
            pct(w.other_frac),
            pct(w.sse_frac),
            pct(w.avx_frac),
            w.dominant
        );
    }
    let phases: Vec<&str> =
        outcome
            .windows
            .iter()
            .map(|w| w.dominant)
            .fold(Vec::new(), |mut acc, d| {
                if acc.last() != Some(&d) {
                    acc.push(d);
                }
                acc
            });
    let _ = writeln!(
        out,
        "\nphase sequence: {} ({} windows, {} samples)",
        phases.join(" -> "),
        outcome.windows.len(),
        outcome.samples_seen
    );
    let _ = writeln!(
        out,
        "total instructions (windowed estimate): {:.0}",
        outcome.total_instructions
    );
    let _ = writeln!(
        out,
        "peak LBR run-log words, 4 bytes each (streaming memory bound): {}",
        outcome.peak_run_log_words
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_partitions_samples_and_is_deterministic() {
        let opts = ExpOptions::default_tiny();
        let a = timeline(&opts, 12);
        assert_eq!(a.window_sample_sum, a.samples_seen);
        assert!(!a.windows.is_empty());
        for w in &a.windows {
            let sum = w.other_frac + w.sse_frac + w.avx_frac;
            assert!(
                w.instructions == 0.0 || (sum - 1.0).abs() < 1e-9,
                "fracs must partition the mix: {sum}"
            );
        }
        let b = timeline(&opts, 12);
        assert_eq!(a.windows.len(), b.windows.len());
        assert_eq!(a.samples_seen, b.samples_seen);
        for (x, y) in a.windows.iter().zip(&b.windows) {
            assert_eq!(x.instructions, y.instructions);
            assert_eq!(x.dominant, y.dominant);
        }
    }

    #[test]
    fn timeline_resolves_alternating_phases() {
        // The phased workload cycles INT -> SSE -> AVX twice; with windows
        // narrower than a phase, every bucket must dominate somewhere and
        // the dominant sequence must change at least 5 times (6 phases).
        let outcome = timeline(&ExpOptions::default_tiny(), 12);
        let doms: Vec<&str> = outcome.windows.iter().map(|w| w.dominant).collect();
        assert!(doms.contains(&"INT"));
        assert!(doms.contains(&"SSE"));
        assert!(doms.contains(&"AVX"));
        let switches = doms.windows(2).filter(|p| p[0] != p[1]).count();
        assert!(switches >= 5, "dominant sequence {doms:?}");
    }

    #[test]
    fn rendered_timeline_mentions_every_phase() {
        let out = mix_timeline(&ExpOptions::default_tiny());
        assert!(out.contains("phase sequence:"));
        for phase in ["INT", "SSE", "AVX"] {
            assert!(out.contains(phase), "missing {phase} in:\n{out}");
        }
    }
}
