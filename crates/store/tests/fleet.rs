//! Fleet-scale differential tests: store merge vs batch analysis, and the
//! `hbbpd` loopback acceptance scenario — N concurrent clients streaming
//! phased workloads into one daemon, whose queried aggregate mix must be
//! **bit-identical** to the single-process batch analysis of the union
//! (the correctly rounded exact sum of per-recording
//! `Analyzer::analyze_fused` results).

mod common;

use common::{analyzer_for, batch_fold, client_recording, tmp_dir, PERIODS};
use hbbp_core::{HybridRule, Window};
use hbbp_perf::{PerfData, PerfSession, Recording};
use hbbp_program::Bbec;
use hbbp_sim::Cpu;
use hbbp_store::{DaemonConfig, ProfileStore, StoreIdentity};
use hbbp_workloads::Workload;

fn assert_bbec_bit_identical(got: &Bbec, want: &Bbec, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: entry counts differ");
    for (addr, count) in want.iter() {
        assert_eq!(
            got.get(addr).to_bits(),
            count.to_bits(),
            "{what}: block {addr:#x} differs"
        );
    }
}

#[test]
fn merged_stores_match_the_batch_fold_bit_identically() {
    let dir = tmp_dir("merge");
    let (w0, rec0) = client_recording(0);
    let (_w1, rec1) = client_recording(1);
    let analyzer = analyzer_for(&w0);
    let identity = StoreIdentity::of_workload(&w0, analyzer.map());
    let rule = HybridRule::paper_default();

    // Each store ingests one client's batch analysis.
    let mut store_a =
        ProfileStore::open_with_identity(dir.join("a.hbbp"), identity.clone()).unwrap();
    let mut store_b = ProfileStore::open_with_identity(dir.join("b.hbbp"), identity).unwrap();
    let a0 = analyzer.analyze_fused(&rec0.data, PERIODS, &rule);
    let a1 = analyzer.analyze_fused(&rec1.data, PERIODS, &rule);
    store_a
        .append_counts(0, 0, 0, a0.hbbp.bbec.clone())
        .unwrap();
    store_b
        .append_counts(1, 0, 0, a1.hbbp.bbec.clone())
        .unwrap();

    // merge(store_a, store_b) aggregates bit-identically to the fold of
    // the batch analyses over the individual recordings.
    store_a.merge_from(&store_b.snapshot()).unwrap();
    let want = batch_fold(&analyzer, &[&rec0.data, &rec1.data]);
    assert_bbec_bit_identical(&store_a.partials().aggregate(), &want, "merged aggregate");

    // ... and the derived mixes agree bitwise too.
    assert_eq!(
        analyzer.mix(&store_a.partials().aggregate()),
        analyzer.mix(&want)
    );

    // Reopening the merged store from disk preserves the property: the
    // fold crossed the file bit-exactly.
    drop(store_a);
    let reopened = ProfileStore::open(dir.join("a.hbbp")).unwrap();
    assert_bbec_bit_identical(
        &reopened.partials().aggregate(),
        &want,
        "reopened aggregate",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_fold_agrees_with_concatenated_recording_analysis_on_ebs() {
    // Semantic sanity for the fold: the EBS estimator is linear in its
    // integer sample tallies, so analyzing the literal concatenation of
    // two recordings must agree with the fold of per-recording analyses
    // to float tolerance (the hybrid combine then only reroutes those
    // values per block).
    let (w0, rec0) = client_recording(0);
    let (_w1, rec1) = client_recording(1);
    let analyzer = analyzer_for(&w0);
    let rule = HybridRule::paper_default();
    let mut concat = PerfData::new();
    for r in rec0.data.records().iter().chain(rec1.data.records()) {
        concat.push(r.clone());
    }
    let whole = analyzer.analyze_fused(&concat, PERIODS, &rule);
    let a0 = analyzer.analyze_fused(&rec0.data, PERIODS, &rule);
    let a1 = analyzer.analyze_fused(&rec1.data, PERIODS, &rule);
    let mut fold = a0.ebs.bbec.clone();
    fold.merge(&a1.ebs.bbec);
    assert_eq!(fold.len(), whole.ebs.bbec.len());
    for (addr, count) in whole.ebs.bbec.iter() {
        let got = fold.get(addr);
        assert!(
            (got - count).abs() <= count.abs() * 1e-12,
            "EBS at {addr:#x}: fold {got} vs concat {count}"
        );
    }
}

#[test]
fn daemon_loopback_four_concurrent_clients_bit_identical_aggregate() {
    const CLIENTS: u32 = 5;
    let dir = tmp_dir("daemon");
    let clients: Vec<(Workload, Recording)> = (0..CLIENTS).map(client_recording).collect();
    let analyzer = analyzer_for(&clients[0].0);
    let identity = StoreIdentity::of_workload(&clients[0].0, analyzer.map());

    let handle = hbbp_store::spawn(DaemonConfig {
        analyzer: analyzer_for(&clients[0].0),
        identity,
        periods: PERIODS,
        rule: HybridRule::paper_default(),
        window: Some(Window::Samples(256)),
        shards: 4,
        dir: dir.clone(),
        workers: 0,
        queue_depth: 0,
        metrics: true,
    })
    .expect("daemon");
    let client = handle.client();

    // All clients stream concurrently: odd sources collect LIVE onto the
    // socket (record_to_sink), even sources replay their recording bytes.
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for (source, (w, rec)) in clients.iter().enumerate() {
            let source = source as u32;
            joins.push(scope.spawn(move || {
                let reply = if source % 2 == 1 {
                    let session = PerfSession::hbbp(
                        Cpu::with_seed(100 + u64::from(source)),
                        PERIODS.ebs,
                        PERIODS.lbr,
                    )
                    .with_pid(1000 + source);
                    client
                        .stream_session(source, &session, w)
                        .expect("live stream")
                        .1
                } else {
                    client
                        .stream_data(source, &rec.data)
                        .expect("replay stream")
                };
                assert_eq!(reply.records, rec.data.len() as u64, "source {source}");
                assert_eq!(reply.counts_seq, 0, "source {source}");
                assert!(reply.windows_flushed > 0, "source {source}");
            }));
        }
        for j in joins {
            j.join().expect("client thread");
        }
    });

    // The acceptance check: queried aggregate mix ≡ single-process batch
    // analysis of the union, bit for bit.
    let recordings: Vec<&PerfData> = clients.iter().map(|(_, r)| &r.data).collect();
    let want_bbec = batch_fold(&analyzer, &recordings);
    let want_mix = analyzer.mix(&want_bbec);
    let got_mix = client.query_mix().expect("mix query");
    assert_eq!(got_mix, want_mix, "aggregate mix must be bit-identical");

    let got_top = client.query_top(5).expect("top query");
    assert_eq!(got_top, want_mix.top(5));

    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards, 4);
    assert_eq!(stats.counts_frames, u64::from(CLIENTS));
    assert_eq!(stats.sources, CLIENTS);
    assert!(stats.window_frames > 0, "timeline records were flushed");
    assert!(stats.store_bytes > 0);

    // Compaction keeps each partition's exact partial sums, so every
    // query answers with the bits it gave before COMPACT.
    client.compact().expect("compact");
    assert_eq!(
        client.query_mix().expect("mix after compact"),
        want_mix,
        "compacted aggregate is the pre-compaction aggregate, bit for bit"
    );
    assert_eq!(
        client.query_top(5).expect("top after compact"),
        want_mix.top(5)
    );
    let after = client.stats().expect("stats after compact");
    // Each partition holds one or two recordings, and the exact sum of
    // two doubles takes at most two terms: compaction never adds counts
    // frames here, and it keeps the timeline.
    assert!(
        (4..=stats.counts_frames).contains(&after.counts_frames),
        "every partition keeps one or two compacted frames, not {}",
        after.counts_frames
    );
    assert_eq!(after.window_frames, stats.window_frames);

    handle.shutdown().expect("shutdown");

    // The partition files survive the daemon: a cold re-open (with a torn
    // tail simulated on one of them) recovers every complete frame.
    let part0 = dir.join("part-0.hbbp");
    let before = ProfileStore::open(&part0).unwrap();
    let frames_before = before.snapshot().counts.len() + before.windows().unwrap().len();
    assert!(frames_before > 0);
    drop(before);
    // The compacted log ends in a 13-byte EPOCH seal marker; tear through
    // it into the last data frame so exactly one data frame is clipped.
    let mut bytes = std::fs::read(&part0).unwrap();
    let torn = bytes.len() - 16;
    bytes.truncate(torn);
    bytes.extend_from_slice(&[0xAB; 2]); // torn rewrite: garbage tail
    std::fs::write(&part0, &bytes).unwrap();
    let recovered = ProfileStore::open(&part0).unwrap();
    assert!(recovered.open_report().truncated_bytes > 0);
    assert_eq!(
        recovered.snapshot().counts.len() + recovered.windows().unwrap().len(),
        frames_before - 1,
        "exactly the torn frame is lost"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_rejects_garbage_streams_without_storing_anything() {
    let dir = tmp_dir("garbage");
    let (w, rec) = client_recording(0);
    let analyzer = analyzer_for(&w);
    let identity = StoreIdentity::of_workload(&w, analyzer.map());
    let handle = hbbp_store::spawn(DaemonConfig {
        analyzer,
        identity,
        periods: PERIODS,
        rule: HybridRule::paper_default(),
        window: None,
        shards: 2,
        dir: dir.clone(),
        workers: 0,
        queue_depth: 0,
        metrics: true,
    })
    .expect("daemon");
    let client = handle.client();

    // Not a perf stream at all.
    let err = client.stream_bytes(9, b"NOT A PERF STREAM").unwrap_err();
    assert!(matches!(err, hbbp_store::WireError::Daemon(_)), "{err}");
    // A truncated valid stream (client died mid-frame).
    let bytes = hbbp_perf::codec::write(&rec.data);
    let err = client
        .stream_bytes(9, &bytes[..bytes.len() - 5])
        .unwrap_err();
    assert!(matches!(err, hbbp_store::WireError::Daemon(_)), "{err}");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.counts_frames, 0, "failed streams contribute nothing");

    // The daemon still serves: a valid stream goes through afterwards.
    let reply = client.stream_bytes(9, &bytes).expect("valid stream");
    assert_eq!(reply.records, rec.data.len() as u64);
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
