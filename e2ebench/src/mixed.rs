//! The `mixed` workload: writes beside reads over a preloaded store.
//!
//! Set-up writes a store offline — four epochs per shard, the first two
//! compacted, counts and window frames — many times larger than what the
//! run adds, so every query folds about the same amount of data. The
//! daemon opens it at start. One paced closed-loop collector streams
//! Tiny `phased_client` recordings (14–42 KB, where connect, pickup,
//! finish, commit and reply dominate); one open-loop analyst issues a
//! fixed rotation of `QUERY_MIX`, `QUERY_TOP(16)`, `EPOCHS` and `DRIFT`
//! on a fixed schedule, each timed from when it was due.

use crate::daemon::{self, Acked, Daemon, Streamed, SHARDS};
use crate::inputs::{self, Recording, CLI_PERIODS};
use crate::report::{quantile, Outcome, Trial};
use crate::trace::Layers;
use crate::Config;
use hbbp_core::{Analyzer, MixDrift};
use hbbp_program::MnemonicMix;
use hbbp_store::{EpochStats, ProfileStore, Snapshot, StoreClient, StoreIdentity, WindowRecord};
use hbbp_workloads::{phased, Scale};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Distinct Tiny recordings (1, 2 or 3 outer rounds each, each on its
/// own simulated-hardware seed). The aggregate's mix error varies with
/// the seed; over ten seeds its quartile spread was 9.4% of the median
/// with 48 recordings and 3.7% with 192.
const CLIENTS: u32 = 192;
/// Preloaded epochs per shard: 0 and 1 compacted, 2 sealed raw, 3 live.
const EPOCHS: u32 = 4;
/// Recordings appended per shard per epoch in the preload.
const FRAMES_PER_EPOCH: usize = 200;
/// The analyst's schedule: one query every `SLOT`.
const SLOT: Duration = Duration::from_millis(50);
/// The collector's schedule: a stream 35 ms and 45 ms into every slot
/// (never before the previous one is acknowledged). Queries take 7-9 ms
/// here, so streams and queries interleave without colliding: where a
/// stream met a fold, its latency split into two modes and the p90
/// landed between them, moving 15-60% from run to run. With the first
/// stream at 20 ms, runs on a slow stretch of the host, whose queries
/// reached 20 ms, still showed it.
const STREAM_OFFSETS: [Duration; 2] = [Duration::from_millis(35), Duration::from_millis(45)];
/// Queries and streams per second of `--seconds`.
const QUERIES_PER_SECOND: f64 = 20.0;
const STREAMS_PER_SECOND: f64 = 40.0;
/// Untimed streams and queries that warm the daemon up.
const WARMUP_STREAMS: usize = 8;
/// Source ids the collector rotates through (two per shard).
const SOURCES: u32 = 8;
/// Top-K of the `QUERY_TOP` and `DRIFT` queries.
const TOP_K: u32 = 16;
/// The sealed epoch pairs `DRIFT` rotates through.
const DRIFT_PAIRS: [(u32, u32); 3] = [(0, 1), (1, 2), (0, 2)];

/// Everything set-up produced.
pub struct Inputs {
    pub recs: Vec<Recording>,
    pub truths: Vec<MnemonicMix>,
    pub analyzer: Analyzer,
    /// Each shard's preloaded contents, as written.
    pub preload: Vec<Snapshot>,
    /// The epoch ingest lands in.
    pub live_epoch: u32,
    /// Ground truth of everything preloaded.
    pub preload_truth: MnemonicMix,
    /// Total of the preload's HBBP mix: every `QUERY_MIX` reply holds at
    /// least this much.
    pub preload_total: f64,
    /// Expected `EPOCHS` reply for the preload.
    pub epochs: Vec<EpochStats>,
    /// Expected `DRIFT` replies, by [`DRIFT_PAIRS`] index.
    pub drifts: Vec<Vec<(u16, u64)>>,
    pub truth_ns: u64,
    pub preload_ns: u64,
}

impl Inputs {
    pub fn preload_frames(&self) -> usize {
        self.preload
            .iter()
            .map(|s| s.counts.len() + s.windows.len())
            .sum()
    }
}

fn combined(preload: &[Snapshot]) -> Snapshot {
    let mut all = Snapshot {
        identity: None,
        counts: Vec::new(),
        counts_epochs: Vec::new(),
        windows: Vec::new(),
        window_epochs: Vec::new(),
    };
    for s in preload {
        all.counts.extend(s.counts.iter().cloned());
        all.counts_epochs.extend(&s.counts_epochs);
        all.windows.extend(s.windows.iter().cloned());
        all.window_epochs.extend(&s.window_epochs);
    }
    all
}

/// Write the preload under `dir`; returns each shard's snapshot and the
/// epoch the next append lands in.
fn write_preload(
    dir: &Path,
    identity: &StoreIdentity,
    recs: &[Recording],
    windows: &[Vec<WindowRecord>],
    truths: &[MnemonicMix],
) -> (Vec<Snapshot>, u32, MnemonicMix) {
    std::fs::create_dir_all(dir).expect("create store directory");
    let mut snaps = Vec::new();
    let mut live = 0;
    let mut truth = MnemonicMix::new();
    for shard in 0..SHARDS {
        let path = dir.join(format!("part-{shard}.hbbp"));
        let mut store =
            ProfileStore::open_with_identity(path, identity.clone()).expect("open preload");
        for epoch in 0..EPOCHS {
            // Each epoch leans on one run length, so epochs differ in mix
            // and DRIFT has movers to report.
            let pool: Vec<usize> = (0..recs.len())
                .filter(|&r| r as u32 % 3 == epoch % 3)
                .collect();
            for j in 0..FRAMES_PER_EPOCH {
                let r = pool[(j + shard) % pool.len()];
                let source = (shard + SHARDS * (1 + j % 4)) as u32;
                let rec = &recs[r];
                store
                    .append_counts_deferred(
                        source,
                        rec.ebs_samples,
                        rec.lbr_samples,
                        rec.analysis.hbbp.bbec.clone(),
                    )
                    .expect("preload counts");
                for w in &windows[r] {
                    store
                        .append_window_deferred(WindowRecord {
                            source,
                            ..w.clone()
                        })
                        .expect("preload window");
                }
                truth.merge(&truths[r]);
            }
            store.commit().expect("preload commit");
            match epoch {
                0 | 1 => store.compact().expect("preload compaction"),
                2 => {
                    store.advance_epoch().expect("preload epoch");
                }
                _ => {}
            }
        }
        live = store.current_epoch();
        snaps.push(store.snapshot());
    }
    (snaps, live, truth)
}

fn build(seed: u64, store_dir: &Path) -> Inputs {
    let (recs, truths, truth_ns) = inputs::clients(Scale::Tiny, CLIENTS, seed);
    let program = phased(Scale::Tiny);
    let analyzer = hbbp_cli::common::analyzer_for(&program).expect("static discovery");
    let identity = StoreIdentity::of_workload(&program, analyzer.map());
    let windows = inputs::par_map(recs.len(), |i| inputs::windows_of(&analyzer, &recs[i]));
    let started = Instant::now();
    let (preload, live_epoch, preload_truth) =
        write_preload(store_dir, &identity, &recs, &windows, &truths);
    let preload_ns = started.elapsed().as_nanos() as u64;
    let all = combined(&preload);
    let drifts = DRIFT_PAIRS
        .iter()
        .map(|&(a, b)| {
            let rows: Vec<_> = MixDrift::between(
                &analyzer.mix(&all.epoch_aggregate(a)),
                &analyzer.mix(&all.epoch_aggregate(b)),
            )
            .top_movers(TOP_K as usize)
            .into_iter()
            .map(|row| (row.mnemonic, row.delta))
            .collect();
            inputs::mix_bits(&rows)
        })
        .collect();
    Inputs {
        preload_total: analyzer.mix(&all.aggregate()).total(),
        epochs: all.epoch_stats(),
        recs,
        truths,
        analyzer,
        preload,
        live_epoch,
        preload_truth,
        drifts,
        truth_ns,
        preload_ns,
    }
}

/// Streams and queries of one trial's measured phase.
fn ops_per_trial(cfg: &Config) -> (usize, usize) {
    (
        cfg.ops_per_trial(STREAMS_PER_SECOND, 5),
        cfg.ops_per_trial(QUERIES_PER_SECOND, 4),
    )
}

/// TCP connections a run opens outside tracing: per trial the warm-up
/// streams and queries, the measured phase, the final `QUERY_MIX` and
/// the shutdown.
pub fn connections(cfg: &Config) -> usize {
    let (streams, queries) = ops_per_trial(cfg);
    crate::TRIALS * (WARMUP_STREAMS + 4 + streams + queries + 2)
}

/// One analyst query's outcome.
pub struct Query {
    pub kind: usize,
    /// Due → reply.
    pub latency_ms: f64,
    /// Sent − due (how late the generator ran).
    pub late_ms: f64,
    pub ok: bool,
}

/// Progress shared between the collector and the analyst, so `EPOCHS`
/// replies can be bounded while ingest runs.
struct Progress {
    started: AtomicU64,
    acked: AtomicU64,
}

/// Issue query `j` of the rotation and check its reply.
fn query(client: &StoreClient, j: usize, inputs: &Inputs, progress: &Progress, base: u64) -> bool {
    match j % 4 {
        0 => client
            .query_mix()
            .is_ok_and(|m| m.total() >= inputs.preload_total * (1.0 - 1e-9)),
        1 => client.query_top(TOP_K).is_ok_and(|top| {
            !top.is_empty()
                && top.len() <= TOP_K as usize
                && top.windows(2).all(|w| w[0].1 >= w[1].1)
        }),
        2 => {
            let low = base + progress.acked.load(Ordering::SeqCst);
            let reply = client.query_epochs();
            let high = base + progress.started.load(Ordering::SeqCst);
            reply.is_ok_and(|got| {
                let live = inputs.live_epoch;
                let want: Vec<&EpochStats> =
                    inputs.epochs.iter().filter(|e| e.epoch < live).collect();
                let sealed: Vec<&EpochStats> = got.iter().filter(|e| e.epoch < live).collect();
                let preload_live = inputs
                    .epochs
                    .iter()
                    .find(|e| e.epoch == live)
                    .map_or(0, |e| u64::from(e.counts_frames));
                let live_frames = got
                    .iter()
                    .find(|e| e.epoch == live)
                    .map_or(0, |e| u64::from(e.counts_frames));
                sealed == want
                    && (preload_live + low..=preload_live + high).contains(&live_frames)
                    && got.last().is_some_and(|e| e.epoch == live)
            })
        }
        _ => {
            let pair = (j / 4) % DRIFT_PAIRS.len();
            let (a, b) = DRIFT_PAIRS[pair];
            client
                .query_drift(a, b, TOP_K)
                .is_ok_and(|rows| inputs::mix_bits(&rows) == inputs.drifts[pair])
        }
    }
}

/// One trial of the `mixed` workload: generate the recordings, write the
/// preload, start the daemon over it, warm it up, then run the collector
/// and the analyst side by side for this trial's share.
pub fn trial(cfg: &Config, last: bool, out: &mut Outcome, layers: &mut Layers) -> Trial {
    let mut trial = Trial::default();
    let (n_streams, n_queries) = ops_per_trial(cfg);
    let store = cfg.work.join("store");
    let started = Instant::now();
    crate::reset_dir(&cfg.work);
    let inputs = build(cfg.seed, &store);
    let d = Daemon::spawn(&store, "tiny");
    let client = d.client();
    let warm: Vec<Streamed> = (0..WARMUP_STREAMS)
        .map(|i| {
            let input = i % inputs.recs.len();
            daemon::stream_one(
                &client,
                input,
                1 + i as u32 % SOURCES,
                &inputs.recs[input].bytes,
            )
        })
        .collect();
    let base = warm.iter().filter(|s| s.reply.is_ok()).count() as u64;
    let progress = Progress {
        started: AtomicU64::new(0),
        acked: AtomicU64::new(0),
    };
    let warm_queries: Vec<bool> = (0..4)
        .map(|j| query(&client, j, &inputs, &progress, base))
        .collect();
    trial.metric("setup_s", started.elapsed().as_secs_f64(), "s");
    let recs = &inputs.recs;

    let counters_before = layers.daemon_counters(&d);
    let cpu0 = d.cpu_ns();
    let t0 = Instant::now();
    let (timed, queries) = std::thread::scope(|s| {
        let collector = s.spawn(|| {
            let due = |i: usize| SLOT * (i / 2) as u32 + STREAM_OFFSETS[i % 2];
            daemon::paced(t0, n_streams, due, 1, |i, _| {
                let input = (WARMUP_STREAMS + i) % recs.len();
                let source = 1 + (WARMUP_STREAMS + i) as u32 % SOURCES;
                progress.started.fetch_add(1, Ordering::SeqCst);
                let streamed = daemon::stream_one(&client, input, source, &recs[input].bytes);
                if streamed.reply.is_ok() {
                    progress.acked.fetch_add(1, Ordering::SeqCst);
                }
                streamed
            })
        });
        let analyst = s.spawn(|| {
            daemon::paced(
                t0,
                n_queries,
                |j| SLOT * j as u32,
                1,
                |j, due| {
                    let sent = Instant::now();
                    let ok = query(&client, j, &inputs, &progress, base);
                    Query {
                        kind: j % 4,
                        latency_ms: due.elapsed().as_secs_f64() * 1e3,
                        late_ms: (sent - due).as_secs_f64() * 1e3,
                        ok,
                    }
                },
            )
        });
        (
            collector.join().expect("collector thread"),
            analyst.join().expect("analyst thread"),
        )
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_ms = (d.cpu_ns() - cpu0) as f64 / 1e6;
    let counters_after = layers.daemon_counters(&d);
    let rss = d.peak_rss_mb();

    for s in warm.iter().chain(&timed) {
        daemon::check_stream(out, s, &recs[s.input]);
    }
    for (j, ok) in warm_queries.iter().enumerate() {
        out.check(*ok, || format!("warm-up query {j} failed its check"));
    }
    for (j, q) in queries.iter().enumerate() {
        out.check(q.ok, || {
            format!("query {j} (kind {}) failed its check", q.kind)
        });
    }
    let acked: Vec<Acked> = daemon::acked(&warm, recs, inputs.live_epoch)
        .into_iter()
        .chain(daemon::acked(&timed, recs, inputs.live_epoch))
        .collect();
    let expected = daemon::offline_mix(&inputs.analyzer, &inputs.preload, &acked);
    let queried = client.query_mix();
    out.check(
        queried
            .as_ref()
            .is_ok_and(|m| inputs::same_mix(m, &expected)),
        || "final QUERY_MIX differs from the offline fold of preload + analyze_fused".to_owned(),
    );
    let mut truth = inputs.preload_truth.clone();
    for s in warm.iter().chain(&timed).filter(|s| s.reply.is_ok()) {
        truth.merge(&inputs.truths[s.input]);
    }
    let mix_error = inputs::mix_error_pct(&truth, queried.as_ref().unwrap_or(&expected));

    let records: u64 = timed
        .iter()
        .filter(|s| s.reply.is_ok())
        .map(|s| recs[s.input].records)
        .sum();
    let bytes: u64 = timed.iter().map(|s| recs[s.input].bytes.len() as u64).sum();
    let overhead = recs.iter().map(|r| r.overhead).sum::<f64>() / recs.len() as f64;
    let stream_ms: Vec<f64> = timed.iter().map(|s| s.latency_ms).collect();
    let query_ms: Vec<f64> = queries.iter().map(|q| q.latency_ms).collect();
    trial.latencies("stream", &stream_ms);
    trial.latencies("query", &query_ms);
    trial.metric("records_per_s", records as f64 / wall_s, "records/s");
    trial.metric("cpu_ms_per_mb", cpu_ms / (bytes as f64 / 1e6), "ms/MB");
    trial.metric("peak_rss_mb", rss, "MB");
    trial.metric("mix_error_pct", mix_error, "%");
    trial.metric("collection_overhead_pct", overhead * 100.0, "%");

    layers.observe(
        timed.iter().map(|s| (s.input, s.latency_ms)),
        queries.iter().filter(|q| q.kind == 0).map(|q| q.latency_ms),
    );
    if last {
        let late: Vec<f64> = queries.iter().map(|q| q.late_ms).collect();
        out.fact("streams_per_trial", timed.len());
        out.fact("queries_per_trial", queries.len());
        out.fact("streams_per_s", STREAMS_PER_SECOND);
        out.fact("queries_per_s", QUERIES_PER_SECOND);
        out.fact("measured_s", wall_s);
        out.fact("query_late_p50_ms", quantile(&late, 0.5));
        out.fact("query_late_p90_ms", quantile(&late, 0.9));
        out.fact("preload_frames", inputs.preload_frames());
        out.fact("preload_epochs", EPOCHS);
        out.fact("preload_write_ms", inputs.preload_ns as f64 / 1e6);
        out.fact(
            "preload_bytes",
            (0..SHARDS)
                .map(|i| {
                    std::fs::metadata(store.join(format!("part-{i}.hbbp"))).map_or(0, |m| m.len())
                })
                .sum::<u64>(),
        );
        out.fact(
            "added_frames",
            timed
                .iter()
                .filter_map(|s| s.reply.as_ref().ok())
                .map(|r| 1 + u64::from(r.windows_flushed))
                .sum::<u64>(),
        );
        out.fact(
            "recording_bytes_min",
            recs.iter().map(|r| r.bytes.len()).min().unwrap_or(0),
        );
        out.fact(
            "recording_bytes_max",
            recs.iter().map(|r| r.bytes.len()).max().unwrap_or(0),
        );
        out.fact("blocks", inputs.analyzer.map().len());
        out.fact("periods", CLI_PERIODS);
        if layers.on() {
            layers.daemon_run(
                crate::trace::DaemonRun {
                    recs,
                    analyzer: &inputs.analyzer,
                    scale: Scale::Tiny,
                    ops: timed.len() + queries.len(),
                    before: counters_before,
                    after: counters_after,
                    mb: bytes as f64 / 1e6,
                    preload: Some(&inputs.preload),
                    truth_ns: inputs.truth_ns,
                },
                &d,
            );
        }
    }
    d.stop();
    if last && layers.on() {
        layers.store_files(&store);
    }
    trial
}
