//! Per-layer attribution for the traced run (`--trace 1`).
//!
//! After the last trial's measured phase, the benchmark calls each
//! layer's public functions itself, on the same inputs the trial used,
//! and records a span around every call: name, start, end and the span
//! that caused it, kept in memory and written to
//! `.bench_out/trace-<workload>-<seed>.json` at exit with each span's
//! self time (duration minus children). A layer's figure is its spans'
//! self time per unit of work; every layer span is a leaf, so that is
//! its duration.
//! The daemon's own counters come from its `METRICS` registry, read
//! before and after the measured phase.
//!
//! Accounting: per operation, the in-process layer times for its bytes
//! are set against its measured latency; the rest is unattributed
//! (sockets, poll-loop pickup, thread hand-offs, file reads, rendering).
//! The facts line reports layers plus unattributed, over every trial's
//! operations, as a share of the run's reported median
//! (`trace.*_accounted_pct`). The measured phase
//! records no spans: the tracing overhead is the traced run's
//! `stream_p50_ms` (the `trace.stream_p50_ms` fact) minus that of an
//! untraced run of the same seed, and `trace.span_ns` is the cost of one
//! span.

use crate::analyze::Corpus;
use crate::daemon::{Daemon, SHARDS};
use crate::inputs::{windows_of, Recording};
use crate::report::{median, Metric, Outcome};
use hbbp_core::{Analyzer, HybridRule, OnlineAnalyzer, Window};
use hbbp_perf::{RecordView, StreamDecoder, ViewSink};
use hbbp_program::Bbec;
use hbbp_store::{ProfileStore, Snapshot, StoreIdentity, WindowRecord};
use hbbp_workloads::Scale;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric, in report order, with its unit.
pub const METRICS: [(&str, &str); 29] = [
    ("perf.decode_ns_per_record", "ns"),
    ("core.accumulate_ns_per_record", "ns"),
    ("core.window_us", "us"),
    ("core.finish_us", "us"),
    ("core.discovery_ms", "ms"),
    ("core.mix_us", "us"),
    ("program.lookup_ns", "ns"),
    ("store.append_us", "us"),
    ("store.commit_us", "us"),
    ("store.open_ms", "ms"),
    ("store.snapshot_us", "us"),
    ("store.fold_us", "us"),
    ("wire.roundtrip_us", "us"),
    ("daemon.ticks_per_op", "count"),
    ("daemon.sleeps_per_op", "count"),
    ("daemon.parks_per_op", "count"),
    ("daemon.read_cutoffs_per_mb", "count/MB"),
    ("daemon.frames_per_commit", "count"),
    ("daemon.commit_us_p50", "us"),
    ("daemon.queue_high_water", "count"),
    ("daemon.pool_hit_ratio", "ratio"),
    ("daemon.unattributed_ms", "ms"),
    ("sim.record_ms_per_mb", "ms/MB"),
    ("instrument.truth_ms", "ms"),
    ("trace.stream_layers_ms", "ms"),
    ("trace.stream_unattributed_ms", "ms"),
    ("trace.query_layers_ms", "ms"),
    ("trace.query_unattributed_ms", "ms"),
    ("trace.span_ns", "ns"),
];

/// Times each probe is repeated; its figure is the median.
const REPEAT: usize = 5;
/// The chunk size recordings are fed to the decoder in (the daemon's
/// per-tick read budget and the CLI's file-read buffer).
const CHUNK: usize = 64 * 1024;
/// The daemon's and the analyze workload's window.
const WINDOW: Window = Window::Samples(512);

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The span recorder and the per-layer figures derived from it.
pub struct Layers {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    values: Vec<(&'static str, f64)>,
    /// Every trial's measured operations as `(input, latency ms)`; the
    /// accounting sets the layers against all trials, not the last one.
    ops: Vec<(usize, f64)>,
    /// Every trial's measured `QUERY_MIX` latencies (ms).
    query_mix_ms: Vec<f64>,
    /// `QUERY_MIX` round trip and mix (ns), set against the store layers
    /// once they are measured.
    query: Option<(f64, f64)>,
}

/// A [`ViewSink`] that only counts: what decoding costs without analysis.
struct CountSink(u64);

impl ViewSink for CountSink {
    fn view(&mut self, view: &RecordView<'_>) {
        black_box(view);
        self.0 += 1;
    }
}

/// Per-recording layer times (nanoseconds, medians over [`REPEAT`]).
#[derive(Clone, Copy, Default)]
struct RecTimes {
    decode: f64,
    fused: f64,
    fused_windowed: f64,
    finish: f64,
    finish_windowed: f64,
    /// Windowed minus unwindowed (fused pass and finish), the median of
    /// back-to-back pairs: the window cost is a few percent of the pass,
    /// less than the host's drift between two separate batches.
    window_extra: f64,
    windows: usize,
}

/// What the daemon workloads hand over for attribution.
pub struct DaemonRun<'a> {
    pub recs: &'a [Recording],
    pub analyzer: &'a Analyzer,
    pub scale: Scale,
    /// Streams and queries of the measured phase the counters span.
    pub ops: usize,
    pub before: Option<hbbp_obs::Snapshot>,
    pub after: Option<hbbp_obs::Snapshot>,
    /// MB streamed in the measured phase.
    pub mb: f64,
    /// The preload, for the `QUERY_MIX` fold (mixed only).
    pub preload: Option<&'a [Snapshot]>,
    pub truth_ns: u64,
}

impl Layers {
    pub fn new(on: bool) -> Layers {
        Layers {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            values: Vec::new(),
            ops: Vec::new(),
            query_mix_ms: Vec::new(),
            query: None,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Keep one trial's measured operations, `(input, latency ms)`, and
    /// its `QUERY_MIX` latencies for the accounting (when tracing).
    pub fn observe(
        &mut self,
        ops: impl IntoIterator<Item = (usize, f64)>,
        query_mix_ms: impl IntoIterator<Item = f64>,
    ) {
        if self.on {
            self.ops.extend(ops);
            self.query_mix_ms.extend(query_mix_ms);
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`; returns its duration in nanoseconds.
    fn end(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64
    }

    /// Time `f` as a span named `name`; returns its result and
    /// duration (ns).
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        let ns = self.end(id);
        (out, ns)
    }

    /// The median duration (ns) of [`REPEAT`] spans of `f`.
    fn repeat<T>(&mut self, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
        let runs: Vec<f64> = (0..REPEAT)
            .map(|_| self.timed(name, || black_box(f())).1)
            .collect();
        median(&runs)
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|v| v.1)
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            METRICS.iter().any(|(n, _)| *n == name),
            "{name} is catalogued"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// The daemon's registry, when tracing.
    pub fn daemon_counters(&self, d: &Daemon) -> Option<hbbp_obs::Snapshot> {
        self.on.then(|| d.client().query_metrics().ok()).flatten()
    }

    /// Feed `bytes` to a fresh decoder in [`CHUNK`]s, draining into
    /// `sink` after each, as the daemon and the CLI do.
    fn feed<S: ViewSink>(bytes: &[u8], sink: &mut S) {
        let mut decoder = StreamDecoder::new();
        for chunk in bytes.chunks(CHUNK) {
            decoder.feed(chunk);
            decoder.decode_into(sink).expect("recording decodes");
        }
        decoder.finish().expect("recording is whole");
    }

    /// Decode, fused decode→analyze (whole and windowed) and finish of
    /// one recording.
    fn probe_recording(&mut self, rec: &Recording, analyzer: &Analyzer) -> RecTimes {
        let root = self.begin("probe.recording");
        let rule = HybridRule::paper_default();
        let mut t = RecTimes {
            decode: self.repeat("perf.decode", || {
                let mut sink = CountSink(0);
                Self::feed(&rec.bytes, &mut sink);
                sink.0
            }),
            ..RecTimes::default()
        };
        let (mut fused, mut finish) = (Vec::new(), Vec::new());
        let (mut fused_w, mut finish_w) = (Vec::new(), Vec::new());
        let mut extra = Vec::new();
        for _ in 0..REPEAT {
            let mut online = OnlineAnalyzer::new(analyzer, rec.periods, rule.clone());
            fused.push(
                self.timed("core.fused", || Self::feed(&rec.bytes, &mut online))
                    .1,
            );
            finish.push(self.timed("core.finish", || black_box(online.finish())).1);
            let mut online =
                OnlineAnalyzer::new(analyzer, rec.periods, rule.clone()).with_window(WINDOW);
            fused_w.push(
                self.timed("core.fused_windowed", || {
                    Self::feed(&rec.bytes, &mut online)
                })
                .1,
            );
            let (outcome, ns) = self.timed("core.finish_windowed", || online.finish());
            finish_w.push(ns);
            t.windows = outcome.windows_closed;
            let n = fused.len() - 1;
            extra.push(fused_w[n] + finish_w[n] - fused[n] - finish[n]);
        }
        t.fused = median(&fused);
        t.finish = median(&finish);
        t.fused_windowed = median(&fused_w);
        t.finish_windowed = median(&finish_w);
        t.window_extra = median(&extra);
        self.end(root);
        t
    }

    /// `BlockMap::enclosing` over every sample IP of `recs`: ns per lookup.
    fn probe_lookup(&mut self, recs: &[(&Recording, &Analyzer)]) -> f64 {
        let mut total_ns = 0.0;
        let mut lookups = 0usize;
        for (rec, analyzer) in recs {
            let data = hbbp_perf::codec::read(&rec.bytes).expect("recording decodes");
            let ips: Vec<u64> = data.samples().map(|s| s.ip).collect();
            let map = analyzer.map();
            total_ns += self.repeat("program.lookup", || {
                ips.iter()
                    .filter(|&&ip| map.enclosing(black_box(ip)).is_some())
                    .count()
            });
            lookups += ips.len();
        }
        total_ns / lookups.max(1) as f64
    }

    /// The decode / accumulate / window / finish / lookup figures over
    /// `recs` (each with its analyzer); returns per-recording times.
    fn recording_layers(&mut self, recs: &[(&Recording, &Analyzer)]) -> Vec<RecTimes> {
        let times: Vec<RecTimes> = recs
            .iter()
            .map(|(r, a)| self.probe_recording(r, a))
            .collect();
        let records: f64 = recs.iter().map(|(r, _)| r.records as f64).sum();
        let sum = |f: fn(&RecTimes) -> f64| times.iter().map(f).sum::<f64>();
        let windows: usize = times.iter().map(|t| t.windows).sum();
        self.set("perf.decode_ns_per_record", sum(|t| t.decode) / records);
        self.set(
            "core.accumulate_ns_per_record",
            (sum(|t| t.fused) - sum(|t| t.decode)) / records,
        );
        self.set(
            "core.window_us",
            sum(|t| t.window_extra) / windows.max(1) as f64 / 1e3,
        );
        self.set(
            "core.finish_us",
            sum(|t| t.finish) / times.len() as f64 / 1e3,
        );
        let lookup = self.probe_lookup(recs);
        self.set("program.lookup_ns", lookup);
        let mb: f64 = recs.iter().map(|(r, _)| r.bytes.len() as f64).sum::<f64>() / 1e6;
        self.set(
            "sim.record_ms_per_mb",
            recs.iter().map(|(r, _)| r.sim_ns as f64).sum::<f64>() / 1e6 / mb,
        );
        times
    }

    /// `Analyzer::from_images` of `program` at `scale`, in ms.
    fn probe_discovery(&mut self, program: &str, scale: Scale) -> f64 {
        let w = hbbp_cli::registry::resolve(program, scale).expect("program resolves");
        self.repeat("core.discovery", || {
            hbbp_cli::common::analyzer_for(&w).expect("discovery")
        }) / 1e6
    }

    /// Attribute the `analyze` workload.
    pub fn analyze(&mut self, corpus: &Corpus) {
        let recs = corpus.recordings();
        let analyzers: Vec<Analyzer> = recs
            .iter()
            .map(|r| {
                let w = hbbp_cli::registry::resolve(&r.workload, Scale::Tiny)
                    .expect("program resolves");
                hbbp_cli::common::analyzer_for(&w).expect("discovery")
            })
            .collect();
        let pairs: Vec<(&Recording, &Analyzer)> = recs.iter().zip(&analyzers).collect();
        let times = self.recording_layers(&pairs);
        let discovery: Vec<f64> = recs
            .iter()
            .map(|r| self.probe_discovery(&r.workload, Scale::Tiny))
            .collect();
        self.set(
            "core.discovery_ms",
            discovery.iter().sum::<f64>() / discovery.len() as f64,
        );
        let mix: Vec<f64> = pairs
            .iter()
            .map(|(r, a)| self.repeat("core.mix", || a.mix(&r.analysis.hbbp.bbec)))
            .collect();
        self.set(
            "core.mix_us",
            mix.iter().sum::<f64>() / mix.len() as f64 / 1e3,
        );
        self.set("instrument.truth_ms", corpus.truth_ns() as f64 / 1e6);

        // Per operation: the layers it runs, against its measured median.
        let ops = corpus.op_inputs();
        let observed = std::mem::take(&mut self.ops);
        let op_median = |op: usize| {
            let l: Vec<f64> = observed
                .iter()
                .filter(|(i, _)| *i == op)
                .map(|(_, ms)| *ms)
                .collect();
            median(&l)
        };
        let layers_ms = |op: usize| {
            let (input, windowed) = ops[op];
            let t = &times[input];
            let run = if windowed {
                t.fused_windowed + t.finish_windowed
            } else {
                t.fused + t.finish + mix[input]
            };
            (discovery[input] * 1e6 + run) / 1e6
        };
        // The whole-run operation at the stream median, and the timeline.
        let whole: Vec<usize> = (0..ops.len()).filter(|&op| !ops[op].1).collect();
        let stream_p50 = median(&whole.iter().map(|&op| op_median(op)).collect::<Vec<_>>());
        if let Some(&at) = whole.iter().min_by(|&&a, &&b| {
            (op_median(a) - stream_p50)
                .abs()
                .total_cmp(&(op_median(b) - stream_p50).abs())
        }) {
            self.set("trace.stream_layers_ms", layers_ms(at));
            self.set(
                "trace.stream_unattributed_ms",
                op_median(at) - layers_ms(at),
            );
        }
        if let Some(q) = (0..ops.len()).find(|&op| ops[op].1) {
            self.set("trace.query_layers_ms", layers_ms(q));
            self.set("trace.query_unattributed_ms", op_median(q) - layers_ms(q));
        }
    }

    /// Attribute a daemon workload (`ingest` or `mixed`) while its daemon
    /// is still up.
    pub fn daemon_run(&mut self, run: DaemonRun<'_>, d: &Daemon) {
        let pairs: Vec<(&Recording, &Analyzer)> =
            run.recs.iter().map(|r| (r, run.analyzer)).collect();
        let times = self.recording_layers(&pairs);
        let discovery = self.probe_discovery("phased", run.scale);
        self.set("core.discovery_ms", discovery);
        self.set("instrument.truth_ms", run.truth_ns as f64 / 1e6);

        // The store layers at the daemon's batch shape: one stream's
        // windows and counts appended, then one group commit.
        let scratch = Path::new(".bench_work").join(format!("trace-{}", std::process::id()));
        crate::reset_dir(&scratch);
        let identity = StoreIdentity::of_workload(
            &hbbp_cli::registry::resolve("phased", run.scale).expect("program resolves"),
            run.analyzer.map(),
        );
        let mut store = ProfileStore::open_with_identity(scratch.join("probe.hbbp"), identity)
            .expect("open the probe store");
        let (mut append, mut commit) = (Vec::new(), Vec::new());
        let mut append_ns_of = Vec::new();
        let mut commit_ns_of = Vec::new();
        for rec in run.recs {
            let windows = windows_of(run.analyzer, rec);
            let (mut a, mut c) = (Vec::new(), Vec::new());
            for _ in 0..REPEAT {
                a.push(
                    self.timed("store.append", || {
                        for w in &windows {
                            store
                                .append_window_deferred(WindowRecord {
                                    source: 1,
                                    ..w.clone()
                                })
                                .expect("probe window");
                        }
                        store
                            .append_counts_deferred(
                                1,
                                rec.ebs_samples,
                                rec.lbr_samples,
                                rec.analysis.hbbp.bbec.clone(),
                            )
                            .expect("probe counts")
                    })
                    .1,
                );
                c.push(
                    self.timed("store.commit", || store.commit().expect("probe commit"))
                        .1,
                );
            }
            append_ns_of.push(median(&a));
            commit_ns_of.push(median(&c));
            append.extend(a);
            commit.extend(c);
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&scratch);
        self.set("store.append_us", median(&append) / 1e3);
        self.set("store.commit_us", median(&commit) / 1e3);

        let roundtrip = self.repeat_n("wire.roundtrip", 50, || d.client().stats().expect("STATS"));
        self.set("wire.roundtrip_us", roundtrip / 1e3);

        // The aggregate QUERY_MIX folds, and its mix.
        let mut all = Snapshot {
            identity: None,
            counts: Vec::new(),
            counts_epochs: Vec::new(),
            windows: Vec::new(),
            window_epochs: Vec::new(),
        };
        for s in run.preload.unwrap_or(&[]) {
            all.counts.extend(s.counts.iter().cloned());
            all.counts_epochs.extend(&s.counts_epochs);
        }
        let aggregate: Bbec = if run.preload.is_some() {
            all.aggregate()
        } else {
            let mut b = Bbec::new();
            for r in run.recs {
                b.merge(&r.analysis.hbbp.bbec);
            }
            b
        };
        let mix_ns = self.repeat("core.mix", || run.analyzer.mix(&aggregate));
        self.set("core.mix_us", mix_ns / 1e3);

        self.daemon_counters_delta(&run);

        // Per stream: latency minus the in-process layers for its bytes
        // (one decode feeding both analyzers, both finishes, its append
        // and commit).
        let layer_ns = |input: usize| {
            let t = &times[input];
            t.fused
                + (t.fused_windowed - t.decode)
                + t.finish
                + t.finish_windowed
                + append_ns_of[input]
                + commit_ns_of[input]
        };
        let unattributed: Vec<f64> = self
            .ops
            .iter()
            .map(|&(input, ms)| ms - layer_ns(input) / 1e6)
            .collect();
        let layers: Vec<f64> = self
            .ops
            .iter()
            .map(|&(input, _)| layer_ns(input) / 1e6)
            .collect();
        self.set("daemon.unattributed_ms", median(&unattributed));
        self.set("trace.stream_unattributed_ms", median(&unattributed));
        self.set("trace.stream_layers_ms", median(&layers));
        self.query = Some((roundtrip, mix_ns));
    }

    /// The same as [`Layers::repeat`] with `n` repetitions.
    fn repeat_n<T>(&mut self, name: &'static str, n: usize, mut f: impl FnMut() -> T) -> f64 {
        let runs: Vec<f64> = (0..n)
            .map(|_| self.timed(name, || black_box(f())).1)
            .collect();
        median(&runs)
    }

    fn daemon_counters_delta(&mut self, run: &DaemonRun<'_>) {
        let (Some(before), Some(after)) = (&run.before, &run.after) else {
            return;
        };
        let delta = |name: &str| -> f64 {
            (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64
        };
        let ops = run.ops.max(1) as f64;
        self.set("daemon.ticks_per_op", delta("worker.ticks") / ops);
        self.set("daemon.sleeps_per_op", delta("worker.sleeps") / ops);
        self.set("daemon.parks_per_op", delta("worker.parks") / ops);
        self.set(
            "daemon.read_cutoffs_per_mb",
            delta("worker.read_budget_exhausted") / run.mb,
        );
        let frames = delta("writer.counts_appended") + delta("writer.windows_appended");
        self.set(
            "daemon.frames_per_commit",
            frames / delta("writer.commits").max(1.0),
        );
        if let (Some(a), Some(b)) = (
            after.histogram("writer.commit_us"),
            before.histogram("writer.commit_us"),
        ) {
            let mut diff = a.clone();
            for (d, b) in diff.buckets.iter_mut().zip(&b.buckets) {
                *d -= b;
            }
            diff.count -= b.count;
            diff.sum -= b.sum;
            self.set(
                "daemon.commit_us_p50",
                diff.quantile_upper_bound(0.5).map_or(0.0, |v| v as f64),
            );
        }
        let high = (0..SHARDS as u32)
            .filter_map(|s| after.gauge("writer.queue_depth", Some(s)))
            .map(|g| g.high_water)
            .max()
            .unwrap_or(0);
        self.set("daemon.queue_high_water", high as f64);
        let hits = delta("analyzer.pool_hits");
        let misses = delta("analyzer.pool_misses");
        self.set("daemon.pool_hit_ratio", hits / (hits + misses).max(1.0));
    }

    /// `ProfileStore::open`, `snapshot` and `Snapshot::aggregate` over
    /// the daemon's partition files in `dir` (after it stopped).
    pub fn store_files(&mut self, dir: &Path) {
        let paths: Vec<_> = (0..SHARDS)
            .map(|i| dir.join(format!("part-{i}.hbbp")))
            .collect();
        let open = self.repeat("store.open", || {
            paths
                .iter()
                .map(|p| ProfileStore::open(p).expect("reopen a partition"))
                .collect::<Vec<_>>()
        });
        self.set("store.open_ms", open / 1e6);
        let stores: Vec<ProfileStore> = paths
            .iter()
            .map(|p| ProfileStore::open(p).expect("reopen"))
            .collect();
        let snapshot = self.repeat("store.snapshot", || {
            stores
                .iter()
                .map(ProfileStore::snapshot)
                .collect::<Vec<_>>()
        });
        self.set("store.snapshot_us", snapshot / 1e3);
        let mut all = Snapshot {
            identity: None,
            counts: Vec::new(),
            counts_epochs: Vec::new(),
            windows: Vec::new(),
            window_epochs: Vec::new(),
        };
        for s in &stores {
            let snap = s.snapshot();
            all.counts.extend(snap.counts);
            all.counts_epochs.extend(snap.counts_epochs);
        }
        let fold = self.repeat("store.fold", || all.aggregate());
        self.set("store.fold_us", fold / 1e3);
        // `QUERY_MIX` against its layers: one wire round trip, every
        // shard's snapshot, the fold and the mix.
        if let Some((roundtrip_ns, mix_ns)) = self.query.take() {
            let layers_ms = (roundtrip_ns + mix_ns + snapshot + fold) / 1e6;
            let unattributed: Vec<f64> =
                self.query_mix_ms.iter().map(|ms| ms - layers_ms).collect();
            self.set("trace.query_layers_ms", layers_ms);
            self.set("trace.query_unattributed_ms", median(&unattributed));
        }
    }

    /// Close the traced run: report the accounting against the run's
    /// end-to-end medians, add the span cost, write the spans, and return
    /// every per-layer metric (0 for a layer the workload does not run).
    pub fn finish(
        &mut self,
        e2e: &[Metric],
        out: &mut Outcome,
        workload: &str,
        seed: u64,
    ) -> Vec<Metric> {
        for kind in ["stream", "query"] {
            let p50 = e2e
                .iter()
                .find(|m| m.name == format!("{kind}_p50_ms"))
                .map_or(0.0, |m| m.value);
            out.fact(&format!("trace.{kind}_p50_ms"), p50);
            if let (Some(layers), Some(rest)) = (
                self.value(&format!("trace.{kind}_layers_ms")),
                self.value(&format!("trace.{kind}_unattributed_ms")),
            ) {
                out.fact(
                    &format!("trace.{kind}_accounted_pct"),
                    (layers + rest) / p50 * 100.0,
                );
            }
        }
        let started = Instant::now();
        let n = 10_000;
        for _ in 0..n {
            let id = self.begin("trace.span");
            self.end(id);
        }
        let span_ns = started.elapsed().as_nanos() as f64 / n as f64;
        self.spans.truncate(self.spans.len() - n);
        self.set("trace.span_ns", span_ns);
        out.fact("trace.spans", self.spans.len());
        if let Err(e) = self.write(workload, seed) {
            eprintln!("could not write the trace: {e}");
        }
        METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_owned(),
                value: self.value(name).unwrap_or(0.0),
                unit,
            })
            .collect()
    }

    /// Write every span with its self time (its duration minus the part
    /// its children cover).
    fn write(&self, workload: &str, seed: u64) -> std::io::Result<()> {
        std::fs::create_dir_all(".bench_out")?;
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut text = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"parent\": {parent}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                (s.end_ns - s.start_ns).saturating_sub(children_ns[i]),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        text.push_str("]\n");
        std::fs::write(format!(".bench_out/trace-{workload}-{seed}.json"), text)
    }
}
