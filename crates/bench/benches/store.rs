//! The store/daemon bench: ingest round latency of `hbbpd` at
//! 1/4/8/64/256 concurrent clients (loopback TCP, wire decode + online
//! analysis + segment-log append per client), plus store merge and
//! aggregate-fold cost. The headline checks the event-driven daemon's
//! scaling target — past the core count, additional clients should cost
//! only their fair share of each poll loop, so a 64-client round should
//! stay under 8x an 8-client round — and says whether this run met it.
//!
//! A run writes `BENCH_store.json` to the workspace root: the timings,
//! a derived scaling block, and the deterministic per-client stream
//! facts (bytes, records) that turn `ns/iter` into throughput. Set
//! `STORE_BENCH_QUICK=1` for the CI smoke mode (fewer iterations; the
//! JSON records which mode ran).

mod common;

use common::{json_escape, quick_mode, results_block, write_workspace_root};
use criterion::{black_box, Criterion};
use hbbp_core::{Analyzer, HybridRule, SamplingPeriods, Window};
use hbbp_perf::PerfSession;
use hbbp_program::{Bbec, ImageView};
use hbbp_sim::Cpu;
use hbbp_store::{DaemonConfig, DaemonHandle, ProfileStore, Snapshot, StoreIdentity};
use hbbp_workloads::{phased_client, Scale};
use std::path::PathBuf;

/// Distinct prepared streams; larger fan-outs reuse them cyclically
/// (source `c` streams `streams[c % DISTINCT_STREAMS]`), so a 256-client
/// round measures daemon concurrency, not recording-generation cost.
const DISTINCT_STREAMS: u32 = 8;

/// Concurrent-client counts per ingest round.
const CLIENT_COUNTS: [u32; 5] = [1, 4, 8, 64, 256];
const PERIODS: SamplingPeriods = SamplingPeriods {
    ebs: 1009,
    lbr: 211,
};

struct Case {
    /// Pre-encoded wire bytes per client.
    streams: Vec<Vec<u8>>,
    /// Records per client stream.
    records: Vec<u64>,
    /// Per-client batch analysis (for the merge/fold benches).
    bbecs: Vec<Bbec>,
    identity: StoreIdentity,
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbbp-store-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

fn build_case() -> Case {
    let mut streams = Vec::new();
    let mut records = Vec::new();
    let mut bbecs = Vec::new();
    let mut identity = None;
    let rule = HybridRule::paper_default();
    for c in 0..DISTINCT_STREAMS {
        let w = phased_client(Scale::Tiny, c);
        let session =
            PerfSession::hbbp(Cpu::with_seed(40 + u64::from(c)), PERIODS.ebs, PERIODS.lbr)
                .with_pid(1000 + c);
        let rec = session
            .record(w.program(), w.layout(), w.oracle())
            .expect("recording");
        let analyzer = Analyzer::from_images(&w.images(ImageView::Disk), w.layout().symbols())
            .expect("discovery");
        if identity.is_none() {
            identity = Some(StoreIdentity::of_workload(&w, analyzer.map()));
        }
        bbecs.push(analyzer.analyze_fused(&rec.data, PERIODS, &rule).hbbp.bbec);
        records.push(rec.data.len() as u64);
        streams.push(hbbp_perf::codec::write(&rec.data).to_vec());
    }
    Case {
        streams,
        records,
        bbecs,
        identity: identity.expect("at least one client"),
    }
}

fn spawn_daemon(case: &Case, tag: &str, metrics: bool) -> DaemonHandle {
    let w = phased_client(Scale::Tiny, 0);
    let analyzer =
        Analyzer::from_images(&w.images(ImageView::Disk), w.layout().symbols()).expect("discovery");
    hbbp_store::spawn(DaemonConfig {
        analyzer,
        identity: case.identity.clone(),
        periods: PERIODS,
        rule: HybridRule::paper_default(),
        window: Some(Window::Samples(256)),
        shards: 4,
        dir: tmp_dir(tag),
        workers: 0,
        queue_depth: 0,
        metrics,
    })
    .expect("daemon")
}

/// A fleet of `n` pre-spawned collector threads, one per source. The
/// threads outlive the measurement so a round times the daemon — connect,
/// stream, analysis, group commit, reply — not `thread::spawn` (which
/// alone costs ~13 ms for 256 threads on this class of machine).
struct ClientFleet {
    starts: Vec<std::sync::mpsc::SyncSender<()>>,
    done: std::sync::mpsc::Receiver<u64>,
    joins: Vec<std::thread::JoinHandle<()>>,
}

impl ClientFleet {
    fn new(handle: &DaemonHandle, case: &Case, n: u32) -> ClientFleet {
        let addr = handle.addr();
        let (done_tx, done) = std::sync::mpsc::sync_channel(n as usize);
        let mut starts = Vec::new();
        let mut joins = Vec::new();
        for c in 0..n {
            let (tx, rx) = std::sync::mpsc::sync_channel::<()>(1);
            starts.push(tx);
            let bytes = case.streams[c as usize % case.streams.len()].clone();
            let done_tx = done_tx.clone();
            joins.push(std::thread::spawn(move || {
                let client = hbbp_store::StoreClient::new(addr);
                while rx.recv().is_ok() {
                    let records = client
                        .stream_bytes(c, &bytes)
                        .expect("stream to daemon")
                        .records;
                    done_tx.send(records).expect("bench alive");
                }
            }));
        }
        ClientFleet {
            starts,
            done,
            joins,
        }
    }

    /// One ingest round: every client streams concurrently; returns
    /// records ingested.
    fn round(&self) -> u64 {
        for tx in &self.starts {
            tx.send(()).expect("client alive");
        }
        (0..self.starts.len())
            .map(|_| self.done.recv().expect("client round"))
            .sum()
    }
}

impl Drop for ClientFleet {
    fn drop(&mut self) {
        self.starts.clear();
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

fn bench_store(c: &mut Criterion, case: &Case, quick: bool) {
    let mut group = c.benchmark_group("store");
    for clients in CLIENT_COUNTS {
        // Big fan-outs get fewer samples: one 256-client round is itself
        // hundreds of concurrent streams' worth of measurement.
        group.sample_size(match (quick, clients >= 64) {
            (true, true) => 3,
            (true, false) => 5,
            (false, true) => 8,
            (false, false) => 15,
        });
        let handle = spawn_daemon(case, &format!("ingest{clients}"), true);
        let fleet = ClientFleet::new(&handle, case, clients);
        group.bench_function(&format!("ingest_{clients}_clients"), |b| {
            b.iter(|| black_box(fleet.round()))
        });
        drop(fleet);
        handle.shutdown().expect("shutdown");
    }
    group.sample_size(if quick { 5 } else { 15 });
    group.bench_function("merge_two_stores", |b| {
        let dir = tmp_dir("merge");
        let snapshot_b = Snapshot {
            identity: Some(case.identity.clone()),
            counts: {
                let path = dir.join("seed-b.hbbp");
                let mut s =
                    ProfileStore::open_with_identity(&path, case.identity.clone()).expect("open");
                for (i, bbec) in case.bbecs.iter().enumerate() {
                    s.append_counts(i as u32, 1, 1, bbec.clone())
                        .expect("append");
                }
                s.snapshot().counts
            },
            counts_epochs: vec![0; case.bbecs.len()],
            windows: vec![],
            window_epochs: vec![],
        };
        let mut round = 0u32;
        b.iter(|| {
            let path = dir.join(format!("merge-{round}.hbbp"));
            round += 1;
            let mut a =
                ProfileStore::open_with_identity(&path, case.identity.clone()).expect("open");
            a.merge_from(&snapshot_b).expect("merge");
            let total = black_box(a.partials().aggregate().total());
            let _ = std::fs::remove_file(&path);
            total
        });
    });
    group.bench_function("aggregate_fold_8", |b| {
        let snapshot = Snapshot {
            identity: Some(case.identity.clone()),
            counts: case
                .bbecs
                .iter()
                .enumerate()
                .map(|(i, bbec)| hbbp_store::CountsRecord {
                    source: i as u32,
                    seq: 0,
                    ebs_samples: 1,
                    lbr_samples: 1,
                    bbec: bbec.clone(),
                })
                .collect(),
            counts_epochs: vec![0; case.bbecs.len()],
            windows: vec![],
            window_epochs: vec![],
        };
        b.iter(|| black_box(snapshot.aggregate().total()))
    });
    group.finish();
}

/// The epoch-history operations: `DRIFT`/`EPOCHS` round-trips against a
/// two-epoch daemon (epoch 0 tier-compacted, epoch 1 live), and the
/// per-window `MixDrift` check `hbbp watch` runs on every closed window.
fn bench_drift_watch(c: &mut Criterion, case: &Case, quick: bool) {
    let mut group = c.benchmark_group("store");
    group.sample_size(if quick { 5 } else { 15 });

    let handle = spawn_daemon(case, "drift", true);
    let client = hbbp_store::StoreClient::new(handle.addr());
    for s in 0..4u32 {
        client
            .stream_bytes(s, &case.streams[s as usize])
            .expect("epoch 0 ingest");
    }
    client.compact().expect("seal epoch 0");
    for s in 4..8u32 {
        client
            .stream_bytes(s, &case.streams[s as usize])
            .expect("epoch 1 ingest");
    }
    group.bench_function("epoch_drift_query_top16", |b| {
        b.iter(|| black_box(client.query_drift(0, 1, 16).expect("drift").len()))
    });
    group.bench_function("epochs_query", |b| {
        b.iter(|| black_box(client.query_epochs().expect("epochs").len()))
    });
    handle.shutdown().expect("shutdown");

    // watch's steady-state cost per closed window: one MixDrift build,
    // the divergence, and the top mover for the report line.
    let w = phased_client(Scale::Tiny, 0);
    let analyzer =
        Analyzer::from_images(&w.images(ImageView::Disk), w.layout().symbols()).expect("discovery");
    let fold = |range: std::ops::Range<usize>| {
        let mut acc = Bbec::new();
        for bbec in &case.bbecs[range] {
            acc.merge(bbec);
        }
        acc
    };
    let baseline = analyzer.mix(&fold(0..4));
    let window = analyzer.mix(&fold(4..8));
    group.bench_function("watch_window_drift_check", |b| {
        b.iter(|| {
            let drift = hbbp_core::MixDrift::between(&baseline, &window);
            black_box((drift.divergence(), drift.top_movers(1).len()))
        })
    });
    group.finish();
}

/// Pinned ceiling on the registry's self-overhead, in percent of an
/// 8-client ingest round. Exceeding it fails the quick-mode (CI) run.
const OVERHEAD_THRESHOLD_PCT: f64 = 2.0;

/// What the self-overhead measurement produces for `BENCH_store.json`.
struct InstrumentationReport {
    /// Best (minimum) 8-client round with the registry active, ns.
    round_on_ns: f64,
    /// Best round against an identical daemon with a no-op handle, ns.
    round_off_ns: f64,
    /// `(on - off) / off`, clamped at zero (noise can favor either arm).
    overhead_pct: f64,
    /// Rounds timed per arm (after warmup).
    rounds: usize,
}

/// Measure the registry's self-overhead: two identical daemons — one
/// with the registry active, one carrying the no-op handle — each fed
/// 8-client ingest rounds by its own pre-spawned fleet. Rounds alternate
/// between the arms so drift (thermal, page cache) hits both equally,
/// and each arm is summarized by its **minimum** round, the estimator
/// least sensitive to scheduling noise.
///
/// The metrics-on daemon doubles as the registry-exactness check: after
/// the rounds, its counter totals must agree with the store's own STATS
/// accounting frame-for-frame, and the Prometheus rendering of the final
/// snapshot is written to `metrics-snapshot.txt` for the CI artifact.
fn bench_instrumentation(case: &Case, quick: bool) -> InstrumentationReport {
    const CLIENTS: u32 = 8;
    let rounds = if quick { 8 } else { 32 };
    let on = spawn_daemon(case, "obs-on", true);
    let off = spawn_daemon(case, "obs-off", false);
    let fleet_on = ClientFleet::new(&on, case, CLIENTS);
    let fleet_off = ClientFleet::new(&off, case, CLIENTS);
    let mut records_on = 0u64;
    let mut rounds_on = 0u64;
    for _ in 0..3 {
        records_on += fleet_on.round();
        rounds_on += 1;
        fleet_off.round();
    }
    let mut best_on = f64::INFINITY;
    let mut best_off = f64::INFINITY;
    for _ in 0..rounds {
        let t = std::time::Instant::now();
        records_on += fleet_on.round();
        best_on = best_on.min(t.elapsed().as_secs_f64() * 1e9);
        rounds_on += 1;
        let t = std::time::Instant::now();
        fleet_off.round();
        best_off = best_off.min(t.elapsed().as_secs_f64() * 1e9);
    }
    drop(fleet_on);
    drop(fleet_off);

    // Exactness: every ingested frame is accounted for, no more, no less.
    let client = on.client();
    let stats = client.stats().expect("stats");
    let snap = client.query_metrics().expect("metrics snapshot");
    assert!(!snap.is_empty(), "metrics-on daemon must expose a snapshot");
    let counts_appended = snap
        .counter("writer.counts_appended")
        .expect("counts counter");
    assert_eq!(
        counts_appended, stats.counts_frames,
        "registry writer.counts_appended must equal STATS counts frames"
    );
    let windows_appended = snap
        .counter("writer.windows_appended")
        .expect("windows counter");
    assert_eq!(
        windows_appended, stats.window_frames,
        "registry writer.windows_appended must equal STATS window frames"
    );
    let decoded = snap.counter("decoder.records").expect("decoder counter");
    assert_eq!(
        decoded, records_on,
        "registry decoder.records must equal the records the clients were told were ingested"
    );
    let streams = rounds_on * u64::from(CLIENTS);
    let accepts = snap.counter("acceptor.accepts").expect("accepts counter");
    // One connection per client thread (kept open across rounds), plus
    // the stats/metrics queries above.
    assert!(
        accepts >= u64::from(CLIENTS),
        "acceptor must have counted the fleet's connections"
    );
    assert!(
        streams > 0 && counts_appended == streams,
        "every stream commits exactly one counts frame ({streams} streamed, {counts_appended} committed)"
    );
    write_workspace_root("metrics-snapshot.txt", &snap.to_prometheus());

    off.shutdown().expect("shutdown metrics-off daemon");
    on.shutdown().expect("shutdown metrics-on daemon");
    InstrumentationReport {
        round_on_ns: best_on,
        round_off_ns: best_off,
        overhead_pct: ((best_on - best_off) / best_off * 100.0).max(0.0),
        rounds,
    }
}

/// The `instrumentation_overhead` block of `BENCH_store.json`.
fn instrumentation_block(r: &InstrumentationReport) -> String {
    format!(
        "  \"instrumentation_overhead\": {{\n\
         \x20   \"clients\": 8,\n\
         \x20   \"rounds_per_arm\": {},\n\
         \x20   \"round_metrics_on_ms\": {:.3},\n\
         \x20   \"round_metrics_off_ms\": {:.3},\n\
         \x20   \"overhead_pct\": {:.2},\n\
         \x20   \"threshold_pct\": {OVERHEAD_THRESHOLD_PCT},\n\
         \x20   \"headline\": \"{}\"\n\
         \x20 }},\n",
        r.rounds,
        r.round_on_ns / 1e6,
        r.round_off_ns / 1e6,
        r.overhead_pct,
        json_escape(&format!(
            "the live registry costs {:.2}% of an 8-client ingest round \
             ({:.2}ms vs {:.2}ms, min-of-{} estimator) — {} the {}% pin",
            r.overhead_pct,
            r.round_on_ns / 1e6,
            r.round_off_ns / 1e6,
            r.rounds,
            if r.overhead_pct <= OVERHEAD_THRESHOLD_PCT {
                "under"
            } else {
                "over"
            },
            OVERHEAD_THRESHOLD_PCT,
        ))
    )
}

/// The drift/watch block of `BENCH_store.json`: epoch-query round-trip
/// latencies and the per-window watch check cost.
fn drift_watch_block(c: &Criterion) -> Option<String> {
    let ns = |name: &str| {
        c.measurements()
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.ns_per_iter)
    };
    let drift = ns("store/epoch_drift_query_top16")?;
    let epochs = ns("store/epochs_query")?;
    let check = ns("store/watch_window_drift_check")?;
    Some(format!(
        "  \"drift_watch\": {{\n\
         \x20   \"epoch_drift_query_ms\": {:.3},\n\
         \x20   \"epochs_query_ms\": {:.3},\n\
         \x20   \"watch_window_check_us\": {:.3},\n\
         \x20   \"headline\": \"{}\"\n\
         \x20 }},\n",
        drift / 1e6,
        epochs / 1e6,
        check / 1e3,
        json_escape(&format!(
            "DRIFT top-16 across a two-epoch store answers in {:.2}ms; \
             a watch window's divergence check costs {:.1}us, so even \
             sample:32 windows add negligible overhead to streaming",
            drift / 1e6,
            check / 1e3,
        ))
    ))
}

/// Derive the scaling headline from the measured ingest rounds: with a
/// fixed core count, an N-client round should cost well under (N/8)x an
/// 8-client round once N exceeds the worker pool.
fn scaling_block(c: &Criterion) -> Option<String> {
    let round_ns = |clients: u32| {
        c.measurements()
            .iter()
            .find(|m| m.name == format!("store/ingest_{clients}_clients"))
            .map(|m| m.ns_per_iter)
    };
    let rounds: Vec<(u32, f64)> = CLIENT_COUNTS
        .iter()
        .filter_map(|&n| round_ns(n).map(|v| (n, v)))
        .collect();
    if rounds.len() != CLIENT_COUNTS.len() {
        return None;
    }
    let get = |n: u32| rounds.iter().find(|(c, _)| *c == n).expect("measured").1;
    let (r1, r8, r64, r256) = (get(1), get(8), get(64), get(256));
    // The headline chain the daemon is built for: each 8x fan-out costs
    // less than 8x the previous round (fixed per-round costs amortize,
    // additional clients pay only their fair share of the poll loops).
    let x8 = r8 / (8.0 * r1);
    let x64 = r64 / (8.0 * r8);
    let x256 = r256 / (4.0 * r64);
    let mut out = String::from("  \"scaling\": {\n");
    out.push_str(&format!(
        "    \"clients\": [{}],\n",
        CLIENT_COUNTS
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "    \"ms_per_round\": [{}],\n",
        rounds
            .iter()
            .map(|(_, ns)| format!("{:.3}", ns / 1e6))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "    \"cost_vs_linear_prev\": {{ \"8_vs_1\": {x8:.3}, \"64_vs_8\": {x64:.3}, \"256_vs_64\": {x256:.3} }},\n"
    ));
    out.push_str(&format!(
        "    \"cost_64_vs_linear_from_1\": {:.3},\n",
        r64 / (64.0 * r1)
    ));
    let sub_linear = x8 < 1.0 && x64 < 1.0;
    out.push_str(&format!("    \"sub_linear\": {sub_linear},\n"));
    out.push_str(&format!(
        "    \"headline\": \"{}\"\n",
        json_escape(&format!(
            "{} 1->8->64: 8 clients = {:.2}ms ({:.0}% of 8x the 1-client round), \
             64 clients = {:.2}ms ({:.0}% of 8x the 8-client round, {:.0}% of 64x the \
             1-client round); 256 clients = {:.2}ms",
            if sub_linear {
                "sub-linear"
            } else {
                "not sub-linear"
            },
            r8 / 1e6,
            x8 * 100.0,
            r64 / 1e6,
            x64 * 100.0,
            r64 / (64.0 * r1) * 100.0,
            r256 / 1e6,
        ))
    ));
    out.push_str("  },\n");
    Some(out)
}

fn emit_json(c: &Criterion, quick: bool, case: &Case, instr: &InstrumentationReport) -> String {
    let total_bytes: usize = case.streams.iter().map(Vec::len).sum();
    let total_records: u64 = case.records.iter().sum();
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"store\",\n");
    out.push_str("  \"suite\": \"phased_client(Tiny) x 8\",\n");
    out.push_str(&format!("  \"quick_mode\": {quick},\n"));
    out.push_str(&format!(
        "  \"streams\": {{ \"clients\": {}, \"total_bytes\": {total_bytes}, \"total_records\": {total_records}, \"per_client_bytes\": [{}], \"per_client_records\": [{}] }},\n",
        case.streams.len(),
        case.streams
            .iter()
            .map(|s| s.len().to_string())
            .collect::<Vec<_>>()
            .join(", "),
        case.records
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    ));
    if let Some(scaling) = scaling_block(c) {
        out.push_str(&scaling);
    }
    if let Some(drift_watch) = drift_watch_block(c) {
        out.push_str(&drift_watch);
    }
    out.push_str(&instrumentation_block(instr));
    out.push_str(&results_block(c));
    out.push_str("\n}\n");
    out
}

fn main() {
    let quick = quick_mode("STORE_BENCH_QUICK");
    let case = build_case();
    let mut criterion = Criterion::default();
    bench_store(&mut criterion, &case, quick);
    bench_drift_watch(&mut criterion, &case, quick);
    let instr = bench_instrumentation(&case, quick);
    println!(
        "streams: {} clients, {} wire bytes, {} records",
        case.streams.len(),
        case.streams.iter().map(Vec::len).sum::<usize>(),
        case.records.iter().sum::<u64>()
    );
    println!(
        "instrumentation overhead: {:.2}% of an 8-client round ({:.2}ms on vs {:.2}ms off)",
        instr.overhead_pct,
        instr.round_on_ns / 1e6,
        instr.round_off_ns / 1e6
    );
    let json = emit_json(&criterion, quick, &case, &instr);
    write_workspace_root("BENCH_store.json", &json);
    // The CI smoke run doubles as the overhead guard: observability that
    // taxes the hot path more than the pin is a regression, not a tunable.
    if quick && instr.overhead_pct > OVERHEAD_THRESHOLD_PCT {
        eprintln!(
            "instrumentation overhead {:.2}% exceeds the pinned {OVERHEAD_THRESHOLD_PCT}% ceiling",
            instr.overhead_pct
        );
        std::process::exit(1);
    }
}
