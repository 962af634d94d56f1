//! Online (streaming) analysis with optional windowing.
//!
//! [`OnlineAnalyzer`] is the one analysis driver: it consumes one record
//! at a time — straight off a collection session or a
//! [`hbbp_perf::StreamDecoder`] — and keeps only what estimation
//! fundamentally requires: per-block and per-branch tallies sized by the
//! program, a table of the stream's distinct branch pairs (kept across
//! windows, so each pair is walked once per stream), and a run log of one
//! `u32` per run of identical LBR streams (see [`crate::lbr`]). No LBR
//! stack outlives its sample. The run log is the only term that grows
//! with the stream; it is cleared when its window closes, unless the run
//! keeps whole-stream totals. Batch analysis of an in-memory recording
//! ([`crate::Analyzer::analyze_fused`]) is an unwindowed run of the same
//! driver, borrowing the recording's stacks.
//!
//! Wire bytes arrive as zero-copy [`hbbp_perf::RecordView`]s
//! ([`OnlineAnalyzer::push_view`]): as a [`hbbp_perf::ViewSink`] the
//! analyzer plugs directly into [`hbbp_perf::StreamDecoder::decode_into`],
//! LBR branch pairs are parsed straight out of the decoder's wire buffer
//! into one reused scratch stack, and no owned [`PerfRecord`] ever exists.
//! Owned records (a live collection session) arrive through the
//! [`RecordSink`] impl, which reads each LBR stack in place. Both paths
//! are pinned bit-identical by the property suite.
//!
//! Two consumption modes:
//!
//! * **Unwindowed** — one analysis of the whole stream. Pinned
//!   bit-identical to the seed pipeline (`hbbp_oracle::analyze_ref`) by
//!   the property suite in `crates/core/tests/streaming_equivalence.rs`,
//!   under any chunking of the record stream.
//! * **Windowed** ([`Window::Samples`] / [`Window::TimeCycles`]) — each
//!   closed window emits a [`WindowedAnalysis`]: the three estimates, the
//!   HBBP instruction mix, raw sample tallies and the window bounds. A
//!   window is analyzed exactly as if its records were a recording of
//!   their own, so per-window results compose into instruction-mix
//!   **timelines** (see the `mix_timeline` experiment in `hbbp-bench`).
//!   A windowed run built [`with_whole_stream`] also yields the
//!   whole-stream analysis ([`OnlineOutcome::whole`]) from the same pass,
//!   bit-identical to an unwindowed run: the integer tallies of each
//!   window are added into whole-stream totals when it closes, the LBR
//!   weights are added to both in the one walk, and the run log spans the
//!   stream, each window replaying its own slice.
//!
//! [`with_whole_stream`]: OnlineAnalyzer::with_whole_stream
//!
//! ```
//! use hbbp_core::{Analyzer, HybridRule, OnlineAnalyzer, SamplingPeriods};
//! use hbbp_perf::StreamDecoder;
//! # fn demo(analyzer: &Analyzer, bytes: &[u8]) {
//! let periods = SamplingPeriods { ebs: 1009, lbr: 211 };
//! let mut online = OnlineAnalyzer::new(analyzer, periods, HybridRule::paper_default());
//! let mut decoder = StreamDecoder::new();
//! decoder.feed(bytes);
//! decoder.decode_into(&mut online).unwrap();
//! decoder.finish().unwrap();
//! let analysis = online.finish().into_analysis().unwrap();
//! # let _ = analysis;
//! # }
//! ```

use crate::ebs::EbsAccum;
use crate::lbr::LbrStats;
use crate::{hybrid, Analysis, Analyzer, EbsEstimate, HybridRule, LbrEstimate, SamplingPeriods};
use hbbp_perf::{PerfRecord, PerfSample, RecordSink, RecordView, ViewSink};
use hbbp_program::MnemonicMix;
use hbbp_sim::{EventSpec, LbrEntry};

/// Windowing policy for online analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Close a window after this many profiled samples (samples of the two
    /// collector events; other records do not advance the window).
    Samples(u64),
    /// Fixed wall-time windows of this width in core cycles, aligned at
    /// cycle 0: a sample with timestamp `t` belongs to window `t / width`.
    /// Empty windows (time ranges with no samples) are not emitted.
    TimeCycles(u64),
}

/// One closed window's analysis: a self-contained per-phase view of the
/// stream.
#[derive(Debug, Clone)]
pub struct WindowedAnalysis {
    /// Emission order (0-based).
    pub index: usize,
    /// Window start in core cycles — nominal (`k * width`) for
    /// [`Window::TimeCycles`], the first sample's timestamp otherwise.
    pub start_cycles: u64,
    /// Window end in core cycles — nominal (exclusive, `(k + 1) * width`)
    /// for [`Window::TimeCycles`], the last sample's timestamp otherwise.
    /// A nominal end past `u64::MAX` (the last window of the cycle range)
    /// saturates at `u64::MAX`.
    pub end_cycles: u64,
    /// EBS-event samples observed in the window (mapped or not).
    pub ebs_samples: u64,
    /// LBR-event samples observed in the window (usable stacks or not).
    pub lbr_samples: u64,
    /// The three estimates over exactly this window's samples.
    pub analysis: Analysis,
    /// HBBP instruction mix of the window; empty for the single
    /// whole-stream window of an unwindowed run, whose callers read the
    /// analysis instead.
    pub mix: MnemonicMix,
}

/// Everything an online run produces.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// The emitted windows, in order. Exactly one for an unwindowed run.
    /// Windows drained early through
    /// [`OnlineAnalyzer::take_closed_windows`] are not repeated here —
    /// only the windows closed since the last drain remain.
    pub windows: Vec<WindowedAnalysis>,
    /// Whether the run used a [`Window`] policy (per-window analyses) or
    /// produced one whole-stream analysis.
    pub windowed: bool,
    /// Records pushed (all types).
    pub records_seen: u64,
    /// Profiled samples pushed (both collector events).
    pub samples_seen: u64,
    /// High-water mark of the LBR run log, in 4-byte words — the
    /// analyzer's only memory term that grows with the stream; bounded by
    /// the densest window, not the run, unless the run keeps whole-stream
    /// totals, whose log spans the whole stream.
    pub peak_run_log_words: usize,
    /// Windows closed over the whole run, including windows drained early
    /// through [`OnlineAnalyzer::take_closed_windows`] (which
    /// `windows.len()` would miss).
    pub windows_closed: usize,
    /// The whole-stream analysis of a windowed run built
    /// [`with_whole_stream`](OnlineAnalyzer::with_whole_stream); `None`
    /// otherwise. It equals the one window of an unwindowed run over the
    /// same stream in every field.
    pub whole: Option<WindowedAnalysis>,
}

impl OnlineOutcome {
    /// The single whole-stream analysis of an **unwindowed** run; `None`
    /// when the run was windowed (which emits per-window analyses
    /// instead, even when only one window happened to close).
    pub fn into_analysis(self) -> Option<Analysis> {
        if self.windowed {
            return None;
        }
        let mut windows = self.windows;
        debug_assert_eq!(windows.len(), 1, "unwindowed run emits one window");
        windows.pop().map(|w| w.analysis)
    }

    /// Take the whole-stream analysis: the one window of an unwindowed
    /// run, or [`whole`](OnlineOutcome::whole) of a windowed one.
    pub fn take_whole(&mut self) -> Option<WindowedAnalysis> {
        if self.windowed {
            self.whole.take()
        } else {
            self.windows.pop()
        }
    }
}

/// Sample tallies and time bounds over a span of samples: one window, or
/// the whole stream.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    ebs: u64,
    lbr: u64,
    first_time: Option<u64>,
    last_time: u64,
}

impl Span {
    fn samples(&self) -> u64 {
        self.ebs + self.lbr
    }

    /// First and last sample timestamps, `(0, 0)` when empty.
    fn bounds(&self) -> (u64, u64) {
        (self.first_time.unwrap_or(0), self.last_time)
    }

    /// Extend by the span that follows this one.
    fn extend(&mut self, next: &Span) {
        self.ebs += next.ebs;
        self.lbr += next.lbr;
        self.first_time = self.first_time.or(next.first_time);
        self.last_time = next.last_time;
    }
}

/// Streaming analyzer: feed it the stream in any chunking — as a
/// [`ViewSink`] behind [`hbbp_perf::StreamDecoder::decode_into`], or as a
/// [`RecordSink`] terminating
/// [`hbbp_perf::PerfSession::record_streaming`] (collection into analysis
/// with no intermediate [`hbbp_perf::PerfData`] at all) — then
/// [`finish`](OnlineAnalyzer::finish).
#[derive(Debug)]
pub struct OnlineAnalyzer<'a> {
    analyzer: &'a Analyzer,
    rule: HybridRule,
    window: Option<Window>,
    ebs_event: EventSpec,
    lbr_event: EventSpec,
    // Current-window accumulators.
    ebs: EbsAccum<'a>,
    lbr: LbrStats<'a>,
    /// Reused buffer for the LBR entries of a wire sample.
    scratch: Vec<LbrEntry>,
    /// The current window's samples.
    win: Span,
    /// The whole stream's samples, when whole-stream totals are kept.
    whole: Option<Span>,
    /// For [`Window::TimeCycles`]: the `t / width` key of the current
    /// window, set by its first sample.
    time_key: Option<u64>,
    // Whole-run bookkeeping.
    windows: Vec<WindowedAnalysis>,
    /// Windows closed over the whole run, including ones already drained
    /// through [`OnlineAnalyzer::take_closed_windows`] — the source of the
    /// monotonically increasing `WindowedAnalysis::index`.
    emitted: usize,
    records_seen: u64,
    samples_seen: u64,
    peak_run_log_words: usize,
}

impl<'a> OnlineAnalyzer<'a> {
    /// Unwindowed online analyzer: one whole-stream analysis, the run
    /// [`Analyzer::analyze_fused`] drives over an in-memory recording.
    pub fn new(
        analyzer: &'a Analyzer,
        periods: SamplingPeriods,
        rule: HybridRule,
    ) -> OnlineAnalyzer<'a> {
        let map = analyzer.map();
        OnlineAnalyzer {
            ebs: EbsAccum::new(map, periods.ebs),
            lbr: LbrStats::new(map, periods.lbr, analyzer.lbr_options().clone()),
            analyzer,
            rule,
            window: None,
            ebs_event: EventSpec::inst_retired_prec_dist(),
            lbr_event: EventSpec::br_inst_retired_near_taken(),
            scratch: Vec::new(),
            win: Span::default(),
            whole: None,
            time_key: None,
            windows: Vec::new(),
            emitted: 0,
            records_seen: 0,
            samples_seen: 0,
            peak_run_log_words: 0,
        }
    }

    /// Emit per-window analyses under the given policy.
    ///
    /// # Panics
    ///
    /// Panics on a zero-length window.
    pub fn with_window(mut self, window: Window) -> OnlineAnalyzer<'a> {
        match window {
            Window::Samples(n) => assert!(n > 0, "window needs at least one sample"),
            Window::TimeCycles(w) => assert!(w > 0, "window needs a nonzero width"),
        }
        self.window = Some(window);
        self
    }

    /// Also produce the whole-stream analysis of this windowed run
    /// ([`OnlineOutcome::whole`]), from the same pass that closes the
    /// windows: one record is looked up, walked and weighed once for
    /// both. The price is the whole stream's tallies beside the window's,
    /// and a run log that spans the stream.
    ///
    /// # Panics
    ///
    /// Panics on an unwindowed analyzer, whose one window already is the
    /// whole stream, or after the first record.
    pub fn with_whole_stream(mut self) -> OnlineAnalyzer<'a> {
        assert!(self.window.is_some(), "whole-stream totals need a window");
        assert_eq!(self.records_seen, 0, "whole-stream totals start empty");
        self.ebs.keep_whole();
        self.lbr.keep_whole();
        self.whole = Some(Span::default());
        self
    }

    /// Windows closed so far (the current, still-open window excluded),
    /// including windows already drained through
    /// [`take_closed_windows`](OnlineAnalyzer::take_closed_windows).
    pub fn windows_closed(&self) -> usize {
        self.emitted
    }

    /// Drain the windows closed since the last drain — the **flush hook**
    /// for long-running consumers (e.g. a collection daemon periodically
    /// persisting timeline records) that must not hold every closed window
    /// until [`finish`](OnlineAnalyzer::finish).
    ///
    /// Windows drained here no longer appear in
    /// [`OnlineOutcome::windows`]; concatenating every drain with the
    /// final outcome's windows reproduces the undrained run exactly
    /// (indices stay monotonic across drains). The current, still-open
    /// window is never drained.
    pub fn take_closed_windows(&mut self) -> Vec<WindowedAnalysis> {
        std::mem::take(&mut self.windows)
    }

    /// Consume one zero-copy record view ([`hbbp_perf::SampleView`] LBR
    /// entries are parsed straight out of the wire buffer into a reused
    /// scratch stack — the fused ingest path never materializes an owned
    /// `PerfRecord`). Pinned bit-identical to the [`RecordSink`] ingest
    /// of the same record by `crates/core/tests/streaming_equivalence.rs`.
    pub fn push_view(&mut self, view: &RecordView<'_>) {
        self.records_seen += 1;
        if let RecordView::Sample(s) = view {
            // The EBS estimator discards LBR stacks (paper §V.A), so only
            // LBR-event samples have their entries parsed.
            let mut stack = std::mem::take(&mut self.scratch);
            stack.clear();
            if s.event == self.lbr_event {
                stack.extend(s.lbr_entries());
            }
            self.ingest(s.event, s.ip, s.time_cycles, &stack);
            self.scratch = stack;
        }
    }

    /// Consume one sample of an in-memory recording — the batch driver
    /// behind [`Analyzer::analyze_fused`].
    pub(crate) fn push_sample(&mut self, s: &PerfSample) {
        self.records_seen += 1;
        self.ingest(s.event, s.ip, s.time_cycles, &s.lbr);
    }

    fn ingest(&mut self, event: EventSpec, ip: u64, time_cycles: u64, stack: &[LbrEntry]) {
        let is_ebs = event == self.ebs_event;
        let is_lbr = event == self.lbr_event;
        if !is_ebs && !is_lbr {
            return;
        }
        self.roll_window(time_cycles);
        self.samples_seen += 1;
        self.win.first_time.get_or_insert(time_cycles);
        self.win.last_time = time_cycles;
        if is_ebs {
            self.win.ebs += 1;
            self.ebs.observe_ip(ip);
        } else {
            self.win.lbr += 1;
            self.lbr.observe_stack(stack);
            self.peak_run_log_words = self.peak_run_log_words.max(self.lbr.log_words());
        }
    }

    /// Close the current window if `time` falls outside it.
    fn roll_window(&mut self, time: u64) {
        match self.window {
            None => {}
            Some(Window::Samples(n)) if self.win.samples() >= n => self.close_window(),
            Some(Window::Samples(_)) => {}
            Some(Window::TimeCycles(width)) => {
                let key = time / width;
                if self.win.samples() > 0 && self.time_key != Some(key) {
                    self.close_window();
                }
                self.time_key = Some(key);
            }
        }
    }

    /// Finish the current accumulators into a [`WindowedAnalysis`] and
    /// reset them in place — accumulator tallies are recycled into the
    /// next window instead of being reallocated per window, and kept
    /// whole-stream totals take the window's in.
    fn close_window(&mut self) {
        let ebs = self.ebs.take_estimate();
        let lbr = self.lbr.take_estimate();
        let analysis = self.combine(ebs, lbr);
        let mix = if self.window.is_some() {
            self.analyzer.mix(&analysis.hbbp.bbec)
        } else {
            MnemonicMix::new()
        };
        let (start_cycles, end_cycles) = match (self.window, self.time_key) {
            (Some(Window::TimeCycles(width)), Some(key)) => {
                (key * width, key.saturating_add(1).saturating_mul(width))
            }
            _ => self.win.bounds(),
        };
        self.windows.push(WindowedAnalysis {
            index: self.emitted,
            start_cycles,
            end_cycles,
            ebs_samples: self.win.ebs,
            lbr_samples: self.win.lbr,
            analysis,
            mix,
        });
        self.emitted += 1;
        if let Some(whole) = &mut self.whole {
            whole.extend(&self.win);
        }
        self.win = Span::default();
        self.time_key = None;
    }

    fn combine(&self, ebs: EbsEstimate, lbr: LbrEstimate) -> Analysis {
        let hbbp = hybrid::combine(self.analyzer.map(), &ebs, &lbr, &self.rule);
        Analysis { ebs, lbr, hbbp }
    }

    /// The whole-stream analysis from the kept totals, laid out as an
    /// unwindowed run's one window. Every window must be closed first.
    fn whole_window(&self) -> Option<WindowedAnalysis> {
        let span = self.whole?;
        let analysis = self.combine(self.ebs.whole_estimate()?, self.lbr.whole_estimate()?);
        let (start_cycles, end_cycles) = span.bounds();
        Some(WindowedAnalysis {
            index: 0,
            start_cycles,
            end_cycles,
            ebs_samples: span.ebs,
            lbr_samples: span.lbr,
            analysis,
            mix: MnemonicMix::new(),
        })
    }

    /// End the stream: close the open window (an unwindowed run always
    /// emits its single whole-stream window, even when empty) and return
    /// everything produced.
    pub fn finish(mut self) -> OnlineOutcome {
        if self.window.is_none() || self.win.samples() > 0 {
            self.close_window();
        }
        OnlineOutcome {
            whole: self.whole_window(),
            windows: self.windows,
            windowed: self.window.is_some(),
            records_seen: self.records_seen,
            samples_seen: self.samples_seen,
            peak_run_log_words: self.peak_run_log_words,
            windows_closed: self.emitted,
        }
    }
}

impl RecordSink for OnlineAnalyzer<'_> {
    /// Consume one owned record.
    fn record(&mut self, record: PerfRecord) {
        self.records_seen += 1;
        if let PerfRecord::Sample(s) = record {
            self.ingest(s.event, s.ip, s.time_cycles, &s.lbr);
        }
    }
}

impl ViewSink for OnlineAnalyzer<'_> {
    fn view(&mut self, view: &RecordView<'_>) {
        self.push_view(view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbp_isa::instruction::build;
    use hbbp_isa::{Mnemonic, Reg};
    use hbbp_perf::{PerfData, PerfSample};
    use hbbp_program::{ImageView, Layout, ProgramBuilder, Ring, TextImage};

    /// Short loop + long loop + exit, with known addresses.
    fn fixture() -> (Analyzer, u64, u64, u64, u64) {
        let mut b = ProgramBuilder::new("f");
        let m = b.module("f.bin", Ring::User);
        let f = b.function(m, "main");
        let s = b.block(f);
        let l = b.block(f);
        let exit = b.block(f);
        for i in 0..4 {
            b.push(s, build::rr(Mnemonic::Add, Reg::gpr(i), Reg::gpr(9)));
        }
        b.terminate_branch(s, Mnemonic::Jnz, s, l);
        for i in 0..22 {
            b.push(l, build::rr(Mnemonic::Sub, Reg::gpr(i % 8), Reg::gpr(9)));
        }
        b.terminate_branch(l, Mnemonic::Jnz, l, exit);
        b.terminate_exit(exit, build::bare(Mnemonic::Syscall));
        let mut p = b.build(f).unwrap();
        let layout = Layout::compute(&mut p).unwrap();
        let images: Vec<TextImage> = p
            .modules()
            .iter()
            .map(|m| TextImage::encode(&p, &layout, m.id(), ImageView::Disk))
            .collect();
        let analyzer = Analyzer::from_images(&images, layout.symbols()).unwrap();
        (
            analyzer,
            layout.block_start(s),
            layout.terminator_addr(s),
            layout.block_start(l),
            layout.terminator_addr(l),
        )
    }

    fn ebs_at(ip: u64, t: u64) -> PerfRecord {
        PerfRecord::Sample(PerfSample {
            counter: 0,
            event: EventSpec::inst_retired_prec_dist(),
            ip,
            time_cycles: t,
            pid: 1,
            tid: 1,
            ring: Ring::User,
            lbr: vec![],
        })
    }

    fn lbr_at(from: u64, to: u64, n: usize, t: u64) -> PerfRecord {
        PerfRecord::Sample(PerfSample {
            counter: 1,
            event: EventSpec::br_inst_retired_near_taken(),
            ip: 0,
            time_cycles: t,
            pid: 1,
            tid: 1,
            ring: Ring::User,
            lbr: vec![LbrEntry { from, to }; n],
        })
    }

    fn periods() -> SamplingPeriods {
        SamplingPeriods {
            ebs: 1000,
            lbr: 300,
        }
    }

    fn mixed_stream(fx: &(Analyzer, u64, u64, u64, u64)) -> PerfData {
        let (_, s_start, s_term, l_start, _) = *fx;
        let mut data = PerfData::new();
        data.push(PerfRecord::Comm {
            pid: 1,
            tid: 1,
            name: "f".into(),
        });
        for i in 0..30u64 {
            data.push(ebs_at(if i % 2 == 0 { s_start } else { l_start }, i * 10));
            if i % 3 == 0 {
                data.push(lbr_at(s_term, s_start, 5, i * 10 + 1));
            }
        }
        data.push(PerfRecord::Exit {
            pid: 1,
            time_cycles: 400,
        });
        data
    }

    #[test]
    fn push_view_matches_record_sink() {
        let fx = fixture();
        let data = mixed_stream(&fx);
        let analyzer = &fx.0;
        let mut owned = OnlineAnalyzer::new(analyzer, periods(), HybridRule::paper_default());
        for r in data.records() {
            owned.record(r.clone());
        }
        let mut viewed = OnlineAnalyzer::new(analyzer, periods(), HybridRule::paper_default());
        let mut decoder = hbbp_perf::StreamDecoder::new();
        decoder.feed(&hbbp_perf::codec::write(&data));
        decoder.decode_into(&mut viewed).unwrap();
        decoder.finish().unwrap();
        let (owned, viewed) = (owned.finish(), viewed.finish());
        assert_eq!(owned.records_seen, viewed.records_seen);
        let (owned, viewed) = (
            owned.into_analysis().unwrap(),
            viewed.into_analysis().unwrap(),
        );
        assert_eq!(owned.hbbp.bbec, viewed.hbbp.bbec);
        assert_eq!(owned.lbr.biased_blocks, viewed.lbr.biased_blocks);
    }

    #[test]
    fn empty_stream_yields_one_empty_window() {
        let fx = fixture();
        let online = OnlineAnalyzer::new(&fx.0, periods(), HybridRule::paper_default());
        let outcome = online.finish();
        assert_eq!(outcome.windows.len(), 1);
        assert_eq!(outcome.samples_seen, 0);
        let analysis = outcome.into_analysis().unwrap();
        assert!(analysis.hbbp.bbec.is_empty());
    }

    #[test]
    fn windowed_run_with_one_window_is_still_windowed() {
        // A windowed run whose samples all land in one window must not be
        // mistaken for an unwindowed whole-stream analysis.
        let fx = fixture();
        let (_, s_start, ..) = fx;
        let mut online = OnlineAnalyzer::new(&fx.0, periods(), HybridRule::paper_default())
            .with_window(Window::TimeCycles(1_000_000));
        online.record(ebs_at(s_start, 5));
        let outcome = online.finish();
        assert!(outcome.windowed);
        assert_eq!(outcome.windows.len(), 1);
        assert!(outcome.into_analysis().is_none());
    }

    #[test]
    fn sample_count_windows_partition_the_stream() {
        let fx = fixture();
        let (_, s_start, ..) = fx;
        let analyzer = &fx.0;
        let mut online = OnlineAnalyzer::new(analyzer, periods(), HybridRule::paper_default())
            .with_window(Window::Samples(7));
        for i in 0..23u64 {
            online.record(ebs_at(s_start, i));
        }
        let outcome = online.finish();
        // 23 samples in windows of 7: 7 + 7 + 7 + 2.
        assert_eq!(outcome.windows.len(), 4);
        let sizes: Vec<u64> = outcome.windows.iter().map(|w| w.ebs_samples).collect();
        assert_eq!(sizes, vec![7, 7, 7, 2]);
        let total: u64 = sizes.iter().sum();
        assert_eq!(total, outcome.samples_seen);
    }

    #[test]
    fn time_windows_have_nominal_bounds_and_skip_gaps() {
        let fx = fixture();
        let (_, s_start, ..) = fx;
        let analyzer = &fx.0;
        let mut online = OnlineAnalyzer::new(analyzer, periods(), HybridRule::paper_default())
            .with_window(Window::TimeCycles(100));
        // Samples in windows 0, 0, 2 (window 1 is an empty gap).
        for t in [10u64, 90, 250] {
            online.record(ebs_at(s_start, t));
        }
        let outcome = online.finish();
        assert_eq!(outcome.windows.len(), 2);
        assert_eq!(
            (
                outcome.windows[0].start_cycles,
                outcome.windows[0].end_cycles
            ),
            (0, 100)
        );
        assert_eq!(
            (
                outcome.windows[1].start_cycles,
                outcome.windows[1].end_cycles
            ),
            (200, 300)
        );
        assert_eq!(outcome.windows[0].ebs_samples, 2);
        assert_eq!(outcome.windows[1].ebs_samples, 1);
    }

    #[test]
    fn time_window_end_saturates_at_the_last_cycle() {
        // A sample at the very last cycle lands in the last window, whose
        // nominal end `(k + 1) * width` is past u64::MAX.
        let fx = fixture();
        let (_, s_start, ..) = fx;
        for width in [1u64, 1000] {
            let mut online = OnlineAnalyzer::new(&fx.0, periods(), HybridRule::paper_default())
                .with_window(Window::TimeCycles(width));
            online.record(ebs_at(s_start, u64::MAX));
            let outcome = online.finish();
            assert_eq!(outcome.windows.len(), 1);
            let w = &outcome.windows[0];
            assert_eq!(w.start_cycles, u64::MAX / width * width, "width {width}");
            assert_eq!(w.end_cycles, u64::MAX, "width {width}");
            assert_eq!(w.ebs_samples, 1);
        }
    }

    #[test]
    fn windowed_mixes_reflect_per_phase_content() {
        let fx = fixture();
        let (_, s_start, s_term, l_start, l_term) = fx;
        let analyzer = &fx.0;
        let mut online = OnlineAnalyzer::new(analyzer, periods(), HybridRule::paper_default())
            .with_window(Window::TimeCycles(1000));
        // Phase 1 (t < 1000): short-loop activity (ADDs via LBR).
        for i in 0..20u64 {
            online.record(lbr_at(s_term, s_start, 5, i * 40));
        }
        // Phase 2 (t >= 1000): long-loop activity (SUBs via EBS).
        for i in 0..20u64 {
            online.record(ebs_at(l_start, 1000 + i * 40));
        }
        // LBR evidence for the long block too, so the hybrid has choices.
        online.record(lbr_at(l_term, l_start, 5, 1990));
        let outcome = online.finish();
        assert_eq!(outcome.windows.len(), 2);
        let w0 = &outcome.windows[0];
        let w1 = &outcome.windows[1];
        assert!(w0.mix.get(Mnemonic::Add) > 0.0);
        assert_eq!(w0.mix.get(Mnemonic::Sub), 0.0);
        assert!(w1.mix.get(Mnemonic::Sub) > 0.0);
        assert_eq!(w1.mix.get(Mnemonic::Add), 0.0);
    }

    #[test]
    fn run_log_words_are_bounded_by_window_not_run() {
        // A stack of 8 identical loop entries is one run of 7 streams: one
        // length word plus one run word. A 40-entry stack is a run of 39
        // streams, split into words of 16, 16 and 7: four words in all.
        let fx = fixture();
        let (_, s_start, s_term, ..) = fx;
        let analyzer = &fx.0;
        let run = |window: Option<Window>, entries: usize| {
            let mut online = OnlineAnalyzer::new(analyzer, periods(), HybridRule::paper_default());
            if let Some(w) = window {
                online = online.with_window(w);
            }
            for i in 0..200u64 {
                online.record(lbr_at(s_term, s_start, entries, i * 10));
            }
            online.finish().peak_run_log_words
        };
        assert_eq!(run(None, 8), 200 * 2);
        assert_eq!(run(Some(Window::Samples(10)), 8), 10 * 2);
        assert_eq!(run(None, 40), 200 * 4);
        assert_eq!(run(Some(Window::Samples(10)), 40), 10 * 4);
        // Single-entry stacks carry no stream and log nothing.
        assert_eq!(run(None, 1), 0);
    }

    #[test]
    fn record_sink_feeds_the_analyzer() {
        let fx = fixture();
        let data = mixed_stream(&fx);
        let analyzer = &fx.0;
        let mut online = OnlineAnalyzer::new(analyzer, periods(), HybridRule::paper_default());
        {
            let sink: &mut dyn RecordSink = &mut online;
            for r in data.records() {
                sink.record(r.clone());
            }
        }
        let outcome = online.finish();
        assert_eq!(outcome.records_seen, data.len() as u64);
    }

    #[test]
    fn draining_closed_windows_preserves_the_run() {
        // Flush-hook invariant: drains interleaved with pushes, then the
        // final outcome, reproduce exactly the undrained window sequence.
        let fx = fixture();
        let (_, s_start, ..) = fx;
        let analyzer = &fx.0;
        let run_undrained = || {
            let mut online = OnlineAnalyzer::new(analyzer, periods(), HybridRule::paper_default())
                .with_window(Window::Samples(5));
            for i in 0..23u64 {
                online.record(ebs_at(s_start, i));
            }
            online.finish()
        };
        let full = run_undrained();

        let mut online = OnlineAnalyzer::new(analyzer, periods(), HybridRule::paper_default())
            .with_window(Window::Samples(5));
        let mut drained = Vec::new();
        for i in 0..23u64 {
            online.record(ebs_at(s_start, i));
            if i % 7 == 0 {
                drained.extend(online.take_closed_windows());
            }
        }
        assert_eq!(online.windows_closed(), 4, "counter includes drained");
        let outcome = online.finish();
        drained.extend(outcome.windows);
        assert_eq!(drained.len(), full.windows.len());
        for (d, f) in drained.iter().zip(&full.windows) {
            assert_eq!(d.index, f.index);
            assert_eq!(d.ebs_samples, f.ebs_samples);
            assert_eq!(
                (d.start_cycles, d.end_cycles),
                (f.start_cycles, f.end_cycles)
            );
            assert_eq!(d.analysis.hbbp.bbec, f.analysis.hbbp.bbec);
            assert_eq!(d.mix, f.mix);
        }
    }

    #[test]
    fn draining_an_unwindowed_run_yields_nothing_early() {
        let fx = fixture();
        let (_, s_start, ..) = fx;
        let mut online = OnlineAnalyzer::new(&fx.0, periods(), HybridRule::paper_default());
        for i in 0..10u64 {
            online.record(ebs_at(s_start, i));
        }
        assert!(online.take_closed_windows().is_empty());
        assert_eq!(online.windows_closed(), 0);
        // The whole-stream window still closes at finish.
        let analysis = online.finish().into_analysis().expect("unwindowed");
        assert!(!analysis.ebs.bbec.is_empty());
    }
}
