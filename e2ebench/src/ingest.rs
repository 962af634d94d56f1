//! The `ingest` workload: the daemon's write path. Two collector
//! connections stream pre-encoded Full-scale `phased_client` recordings
//! (1.7–5 MB, a dozen or more windows each); no query runs beside them.
//! Afterwards the store they wrote is read back with `QUERY_MIX` and
//! `QUERY_TOP`, which must answer the offline fold bit for bit.

use crate::daemon::{self, Daemon, Streamed};
use crate::inputs::{self, Recording, CLI_PERIODS};
use crate::report::{Outcome, Trial};
use crate::trace::Layers;
use crate::Config;
use hbbp_core::Analyzer;
use hbbp_program::MnemonicMix;
use hbbp_workloads::{phased, Scale};
use std::time::{Duration, Instant};

/// `QUERY_MIX` / `QUERY_TOP` read-back queries per trial: enough that
/// each trial's p90 has ten samples beyond it.
const READBACK_QUERIES: usize = 100;
/// The read-back is one closed-loop connection that pauses this long
/// after each reply, so the read-back spans ~4 s of each trial. On a
/// 15 ms schedule, a read-back (~5 ms) that ran long on a slow stretch
/// of the host delayed the next, and the p90 moved 50% between runs;
/// with 10 ms pauses the read-back sat in one ~2 s stretch and its p90
/// still moved 46%.
const READBACK_PAUSE: Duration = Duration::from_millis(30);
/// Top-K of the read-back `QUERY_TOP`.
const TOP_K: u32 = 16;
/// Distinct recordings: clients 0..24 run 1, 2 or 3 outer rounds, each
/// collected on its own simulated-hardware seed. The final aggregate's
/// mix error varies with the seed; over ten seeds its quartile spread
/// was 9.6% of the median with 12 recordings and 6.3% with 24.
const CLIENTS: u32 = 24;
/// Collector connections (the host's 2 vCPUs), each a closed loop.
const CONNECTIONS: usize = 2;
/// Source ids the streams rotate through (two per shard).
const SOURCES: u32 = 8;
/// The collectors' schedule: both connections start a stream every
/// `SLOT`, on two recordings of the same length, so every stream shares
/// the daemon with exactly one other and the pair ends well inside the
/// slot. With streams spaced evenly instead, whether a 5 MB stream ran
/// into the next one hinged on the host's speed at that moment (a fixed
/// CPU loop's time moves by up to 2x over seconds on a shared VM), and
/// a trial's p90 jumped between ~9.5 and ~14 ms.
const SLOT: Duration = Duration::from_millis(25);

/// Everything set-up produced.
pub struct Inputs {
    pub recs: Vec<Recording>,
    /// Ground-truth mix of each recording's execution.
    pub truths: Vec<MnemonicMix>,
    /// The daemon's analysis engine (same images, same discovery).
    pub analyzer: Analyzer,
    pub truth_ns: u64,
}

fn build(seed: u64) -> Inputs {
    let (recs, truths, truth_ns) = inputs::clients(Scale::Full, CLIENTS, seed);
    let analyzer = hbbp_cli::common::analyzer_for(&phased(Scale::Full)).expect("static discovery");
    Inputs {
        recs,
        truths,
        analyzer,
        truth_ns,
    }
}

/// TCP connections a run opens outside tracing: per trial the warm-up,
/// the measured streams, the read-back and the shutdown.
pub fn connections(cfg: &Config) -> usize {
    crate::TRIALS * (CLIENTS as usize + streams_per_trial(cfg) + READBACK_QUERIES + 1)
}

/// The streams of one trial: its share of `--seconds`, less the
/// read-back, filled with slots.
fn streams_per_trial(cfg: &Config) -> usize {
    let trial = Duration::from_secs_f64(cfg.seconds as f64 / crate::TRIALS as f64);
    // A read-back and its pause take ~38 ms.
    let readback = (READBACK_PAUSE + Duration::from_millis(8)) * READBACK_QUERIES as u32;
    let streaming = trial.saturating_sub(readback);
    let slots = (streaming.as_secs_f64() / SLOT.as_secs_f64()).round() as usize;
    (slots * CONNECTIONS).max(CLIENTS as usize)
}

/// The recording stream `i` sends: the streams of one slot share a
/// length class (client `c` runs `1 + c % 3` rounds), and every
/// `CLIENTS` streams send each recording once.
fn input_of(i: usize) -> usize {
    let (slot, member) = (i / CONNECTIONS, i % CONNECTIONS);
    let per_class = CLIENTS as usize / 3;
    slot % 3 + 3 * ((CONNECTIONS * (slot / 3) + member) % per_class)
}

/// Stream `first..first + count` over [`CONNECTIONS`] connections, a
/// slot's worth every [`SLOT`] (`paced: false`: back to back).
fn stream_range(
    d: &Daemon,
    recs: &[Recording],
    first: usize,
    count: usize,
    paced: bool,
) -> Vec<Streamed> {
    let client = d.client();
    let due = |k: usize| {
        if paced {
            SLOT * (k / CONNECTIONS) as u32
        } else {
            Duration::ZERO
        }
    };
    daemon::paced(Instant::now(), count, due, CONNECTIONS, |k, _| {
        let i = first + k;
        let input = input_of(i);
        let source = 1 + (i as u32 % SOURCES);
        daemon::stream_one(&client, input, source, &recs[input].bytes)
    })
}

/// One trial of the `ingest` workload: generate the recordings, start
/// the daemon over an empty store, warm it up, then stream this trial's
/// share on the collectors' schedule and read the store back.
pub fn trial(cfg: &Config, last: bool, out: &mut Outcome, layers: &mut Layers) -> Trial {
    let mut trial = Trial::default();
    let streams = streams_per_trial(cfg);
    let store = cfg.work.join("store");
    let started = Instant::now();
    crate::reset_dir(&cfg.work);
    let inputs = build(cfg.seed);
    let d = Daemon::spawn(&store, "full");
    // Warm-up: every recording once, not timed.
    let warm = stream_range(&d, &inputs.recs, 0, inputs.recs.len(), false);
    trial.metric("setup_s", started.elapsed().as_secs_f64(), "s");
    let recs = &inputs.recs;

    let counters_before = layers.daemon_counters(&d);
    let cpu0 = d.cpu_ns();
    let started = Instant::now();
    let timed = stream_range(&d, recs, recs.len(), streams, true);
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_ms = (d.cpu_ns() - cpu0) as f64 / 1e6;
    let counters_after = layers.daemon_counters(&d);

    for s in warm.iter().chain(&timed) {
        daemon::check_stream(out, s, &recs[s.input]);
    }
    let acked: Vec<_> = daemon::acked(&warm, recs, 0)
        .into_iter()
        .chain(daemon::acked(&timed, recs, 0))
        .collect();
    let expected = daemon::offline_mix(&inputs.analyzer, &[], &acked);
    let expected_top = inputs::mix_bits(&expected.top(TOP_K as usize));

    // Read-back: the store this trial wrote, queried once ingest is over
    // (no query runs beside ingest). Every reply must be the offline fold.
    let client = d.client();
    let mut query_ms = Vec::with_capacity(READBACK_QUERIES);
    for j in 0..READBACK_QUERIES {
        std::thread::sleep(READBACK_PAUSE);
        let sent = Instant::now();
        let ok = if j % 2 == 0 {
            client
                .query_mix()
                .is_ok_and(|m| inputs::same_mix(&m, &expected))
        } else {
            client
                .query_top(TOP_K)
                .is_ok_and(|top| inputs::mix_bits(&top) == expected_top)
        };
        query_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        out.check(ok, || {
            format!("read-back query {j} differs from the offline fold of analyze_fused")
        });
    }
    let rss = d.peak_rss_mb();
    let mut truth = MnemonicMix::new();
    for s in warm.iter().chain(&timed).filter(|s| s.reply.is_ok()) {
        truth.merge(&inputs.truths[s.input]);
    }
    let mix_error = inputs::mix_error_pct(&truth, &expected);

    let records: u64 = timed
        .iter()
        .filter(|s| s.reply.is_ok())
        .map(|s| recs[s.input].records)
        .sum();
    let bytes: u64 = timed.iter().map(|s| recs[s.input].bytes.len() as u64).sum();
    let overhead = recs.iter().map(|r| r.overhead).sum::<f64>() / recs.len() as f64;
    let latency: Vec<f64> = timed.iter().map(|s| s.latency_ms).collect();
    trial.latencies("stream", &latency);
    trial.latencies("query", &query_ms);
    trial.metric("records_per_s", records as f64 / wall_s, "records/s");
    trial.metric("cpu_ms_per_mb", cpu_ms / (bytes as f64 / 1e6), "ms/MB");
    trial.metric("peak_rss_mb", rss, "MB");
    trial.metric("mix_error_pct", mix_error, "%");
    trial.metric("collection_overhead_pct", overhead * 100.0, "%");

    layers.observe(
        timed.iter().map(|s| (s.input, s.latency_ms)),
        query_ms.iter().step_by(2).copied(),
    );
    if last {
        out.fact("streams_per_trial", timed.len());
        out.fact("queries_per_trial", query_ms.len());
        out.fact("connections", CONNECTIONS);
        out.fact("streams_per_s", CONNECTIONS as f64 / SLOT.as_secs_f64());
        out.fact("measured_s", wall_s);
        out.fact("recordings", recs.len());
        // One client of each length class; the others repeat these sizes.
        for rec in &recs[..3] {
            out.fact(&format!("{}.bytes", rec.workload), rec.bytes.len());
            out.fact(&format!("{}.records", rec.workload), rec.records);
        }
        out.fact("blocks", inputs.analyzer.map().len());
        out.fact("periods", CLI_PERIODS);
        let replies: Vec<_> = timed.iter().filter_map(|s| s.reply.as_ref().ok()).collect();
        out.fact(
            "windows_per_stream",
            replies
                .iter()
                .map(|r| f64::from(r.windows_flushed))
                .sum::<f64>()
                / replies.len().max(1) as f64,
        );
        if layers.on() {
            layers.daemon_run(
                crate::trace::DaemonRun {
                    recs,
                    analyzer: &inputs.analyzer,
                    scale: Scale::Full,
                    ops: timed.len(),
                    before: counters_before,
                    after: counters_after,
                    mb: bytes as f64 / 1e6,
                    preload: None,
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
