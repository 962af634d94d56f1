//! Adversarial-client scenarios for the event-driven daemon: a slow
//! trickler, a client that dies mid-frame, clients that never read
//! their responses, and a stalled client held across shutdown. None of
//! them may delay other streams, and the queried aggregate must stay
//! bit-identical to the single-process batch fold.

mod common;

use common::{analyzer_for, batch_fold, client_recording, tmp_dir, PERIODS};
use hbbp_core::{HybridRule, Window};
use hbbp_perf::{PerfData, Recording};
use hbbp_store::wire::{OP_QUERY_MIX, OP_STREAM};
use hbbp_store::{DaemonConfig, DaemonHandle, ProfileStore, StoreIdentity};
use hbbp_workloads::Workload;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

fn spawn_daemon(dir: &Path, w: &Workload, window: Option<Window>) -> DaemonHandle {
    let analyzer = analyzer_for(w);
    let identity = StoreIdentity::of_workload(w, analyzer.map());
    hbbp_store::spawn(DaemonConfig {
        analyzer,
        identity,
        periods: PERIODS,
        rule: HybridRule::paper_default(),
        window,
        shards: 2,
        dir: dir.to_path_buf(),
        // One worker on purpose: every scenario below shares a single
        // poll loop with its adversary, so any blocking would show up as
        // a stall, not get masked by a spare thread.
        workers: 1,
        // A tiny queue bound so the backpressure paths (try_send Full,
        // deprioritized reads) actually run.
        queue_depth: 2,
        metrics: true,
    })
    .expect("daemon")
}

/// Write the `STREAM(source)` request message on a raw socket.
fn write_stream_header(sock: &mut TcpStream, source: u32) {
    let mut msg = vec![OP_STREAM];
    msg.extend_from_slice(&4u32.to_le_bytes());
    msg.extend_from_slice(&source.to_le_bytes());
    sock.write_all(&msg).expect("stream header");
}

/// Read one reply message off a raw socket, returning `(op, payload)`.
fn read_reply(sock: &mut TcpStream) -> (u8, Vec<u8>) {
    let mut header = [0u8; 5];
    sock.read_exact(&mut header).expect("reply header");
    let len = u32::from_le_bytes(header[1..5].try_into().expect("4 bytes")) as usize;
    let mut payload = vec![0u8; len];
    sock.read_exact(&mut payload).expect("reply payload");
    (header[0], payload)
}

#[test]
fn slow_trickler_does_not_delay_fast_clients_and_still_counts() {
    const FAST: u32 = 4;
    const SLOW: u32 = FAST;
    let dir = tmp_dir("trickle");
    let clients: Vec<(Workload, Recording)> = (0..=FAST).map(client_recording).collect();
    let handle = spawn_daemon(&dir, &clients[0].0, Some(Window::Samples(128)));
    let client = handle.client();

    let (fast_done, slow_done) = std::thread::scope(|scope| {
        let slow = scope.spawn(|| {
            // One small chunk at a time, sleeping between chunks — the
            // poll loop must keep every other stream flowing while this
            // connection stays warm for seconds.
            let bytes = hbbp_perf::codec::write(&clients[SLOW as usize].1.data);
            let mut sock = TcpStream::connect(client.addr()).expect("connect");
            write_stream_header(&mut sock, SLOW);
            let chunk = (bytes.len() / 100).max(1);
            for piece in bytes.chunks(chunk) {
                sock.write_all(piece).expect("trickle chunk");
                std::thread::sleep(Duration::from_millis(5));
            }
            sock.shutdown(Shutdown::Write).expect("half-close");
            let (op, _) = read_reply(&mut sock);
            assert_eq!(op, hbbp_store::wire::RESP_INGESTED, "slow stream ingested");
            Instant::now()
        });
        let fast: Vec<_> = (0..FAST)
            .map(|source| {
                let clients = &clients;
                let client = &client;
                scope.spawn(move || {
                    let reply = client
                        .stream_bytes(
                            source,
                            &hbbp_perf::codec::write(&clients[source as usize].1.data),
                        )
                        .expect("fast stream");
                    assert_eq!(reply.counts_seq, 0, "source {source}");
                    Instant::now()
                })
            })
            .collect();
        let fast_done: Vec<Instant> = fast.into_iter().map(|j| j.join().expect("fast")).collect();
        (fast_done, slow.join().expect("slow"))
    });
    for (source, done) in fast_done.iter().enumerate() {
        assert!(
            *done < slow_done,
            "fast client {source} finished only after the trickler — it was delayed"
        );
    }

    // The aggregate includes the trickled stream, bit for bit.
    let analyzer = analyzer_for(&clients[0].0);
    let recordings: Vec<&PerfData> = clients.iter().map(|(_, r)| &r.data).collect();
    let want = analyzer.mix(&batch_fold(&analyzer, &recordings));
    assert_eq!(
        client.query_mix().expect("mix"),
        want,
        "aggregate with the trickler must be bit-identical to the batch fold"
    );
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_dying_mid_frame_does_not_disturb_a_concurrent_stream() {
    let dir = tmp_dir("midframe");
    let (w, rec) = client_recording(0);
    let (_w1, rec1) = client_recording(1);
    let handle = spawn_daemon(&dir, &w, None);
    let client = handle.client();

    std::thread::scope(|scope| {
        let dying = scope.spawn(|| {
            let bytes = hbbp_perf::codec::write(&rec1.data);
            let mut sock = TcpStream::connect(client.addr()).expect("connect");
            write_stream_header(&mut sock, 7);
            // Half a stream, then the process "dies": the socket closes
            // without a clean frame boundary.
            sock.write_all(&bytes[..bytes.len() / 2]).expect("partial");
            drop(sock);
        });
        let good = scope.spawn(|| {
            client
                .stream_bytes(0, &hbbp_perf::codec::write(&rec.data))
                .expect("good stream")
        });
        dying.join().expect("dying client");
        let reply = good.join().expect("good client");
        assert_eq!(reply.records, rec.data.len() as u64);
    });

    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.counts_frames, 1,
        "the dead client contributed no counts"
    );
    let analyzer = analyzer_for(&w);
    assert_eq!(
        client.query_mix().expect("mix"),
        analyzer.mix(&batch_fold(&analyzer, &[&rec.data])),
        "aggregate sees exactly the completed stream"
    );
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clients_that_never_read_responses_do_not_stall_the_daemon() {
    let dir = tmp_dir("unread");
    let (w, rec) = client_recording(0);
    let handle = spawn_daemon(&dir, &w, None);
    let client = handle.client();
    let bytes = hbbp_perf::codec::write(&rec.data);

    // Three queries and one full stream whose responses nobody ever
    // reads; the sockets stay open for the daemon's whole life.
    let mut parked: Vec<TcpStream> = Vec::new();
    for _ in 0..3 {
        let mut sock = TcpStream::connect(client.addr()).expect("connect");
        let mut msg = vec![OP_QUERY_MIX];
        msg.extend_from_slice(&0u32.to_le_bytes());
        sock.write_all(&msg).expect("query");
        sock.shutdown(Shutdown::Write).expect("half-close");
        parked.push(sock);
    }
    let mut sock = TcpStream::connect(client.addr()).expect("connect");
    write_stream_header(&mut sock, 3);
    sock.write_all(&bytes).expect("stream");
    sock.shutdown(Shutdown::Write).expect("half-close");
    parked.push(sock);

    // The daemon keeps serving normally around the parked connections.
    let reply = client.stream_bytes(0, &bytes).expect("live stream");
    assert_eq!(reply.records, rec.data.len() as u64);
    let stats = client.stats().expect("stats");
    assert!(stats.counts_frames >= 1);

    // Shutdown completes even though the parked sockets never read their
    // replies (the worker drains or force-drops them).
    handle.shutdown().expect("shutdown with parked connections");
    drop(parked);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_accounts_for_every_frame_under_backpressure() {
    let dir = tmp_dir("metrics");
    let clients: Vec<(Workload, Recording)> = (0..4).map(client_recording).collect();
    // Tiny windows against the 2-slot writer queues: plenty of WINDOW
    // traffic to exercise the backpressure (and possibly parking) paths.
    let handle = spawn_daemon(&dir, &clients[0].0, Some(Window::Samples(16)));
    let metrics = handle.metrics();
    let client = handle.client();

    std::thread::scope(|scope| {
        for (source, (_, rec)) in clients.iter().enumerate() {
            let client = &client;
            scope.spawn(move || {
                client
                    .stream_bytes(source as u32, &hbbp_perf::codec::write(&rec.data))
                    .expect("stream");
            });
        }
    });

    let stats = client.stats().expect("stats");
    let snap = client.query_metrics().expect("metrics snapshot");
    assert!(!snap.is_empty(), "live daemon must expose a snapshot");
    for family in ["acceptor", "worker", "writer", "decoder", "analyzer"] {
        assert!(
            snap.families().contains(&family),
            "snapshot must cover the {family} family"
        );
    }

    // Conservation: the registry agrees with the store's own accounting
    // frame-for-frame — nothing double-counted, nothing lost.
    assert_eq!(
        snap.counter("writer.counts_appended"),
        Some(stats.counts_frames),
        "every committed counts frame was counted exactly once"
    );
    assert_eq!(
        snap.counter("writer.windows_appended"),
        Some(stats.window_frames),
        "every committed window frame was counted exactly once"
    );
    assert!(
        snap.counter("acceptor.accepts").expect("accepts") >= 4,
        "the acceptor counted the fleet's connections"
    );

    // Every park has a matching unpark once all streams completed, and
    // no phantom parked connection lingers.
    let parks = metrics.counter_value(hbbp_obs::Counter::WorkerParks);
    let unparks = metrics.counter_value(hbbp_obs::Counter::WorkerUnparks);
    assert_eq!(parks, unparks, "completed streams must have unparked");
    assert_eq!(stats.parked_connections, 0, "no parked connection remains");

    // The writer queues saw real traffic: some shard's depth high-water
    // is nonzero, and the queues are empty now.
    assert_eq!(stats.writer_queues.len(), 2);
    assert!(
        stats.writer_queues.iter().any(|q| q.high_water >= 1),
        "window/counts traffic must have queued at least once"
    );
    assert!(stats.writer_queues.iter().all(|q| q.current == 0));

    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_inflight_work_and_force_drops_stalled_streams() {
    let dir = tmp_dir("drain");
    let (w, rec) = client_recording(0);
    let handle = spawn_daemon(&dir, &w, None);
    let client = handle.client();
    let bytes = hbbp_perf::codec::write(&rec.data);

    // A stalled stream: header plus a few bytes, then silence — never
    // half-closed, never finished.
    let mut stalled = TcpStream::connect(client.addr()).expect("connect");
    write_stream_header(&mut stalled, 9);
    stalled.write_all(&bytes[..64]).expect("stall prefix");

    // Completed work lands before shutdown...
    let reply = client.stream_bytes(0, &bytes).expect("completed stream");
    assert_eq!(reply.counts_seq, 0);

    // ...and shutdown returns despite the stalled connection: the worker
    // waits its grace period for progress, then drops it.
    let started = Instant::now();
    handle.shutdown().expect("shutdown");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "shutdown took implausibly long: {:?}",
        started.elapsed()
    );
    drop(stalled);

    // The completed stream's counts frame was drained to disk; the
    // stalled one contributed nothing.
    let mut counts = 0;
    for part in 0..2 {
        let store = ProfileStore::open(dir.join(format!("part-{part}.hbbp"))).expect("reopen");
        let snap = store.snapshot();
        counts += snap.counts.len();
        assert!(snap.counts.iter().all(|c| c.source == 0));
    }
    assert_eq!(counts, 1, "exactly the completed stream persisted");
    let _ = std::fs::remove_dir_all(&dir);
}
