//! Read-your-writes across shards under concurrent ingest: a client that
//! holds its `INGESTED` reply sees its counts frame in every read query
//! it sends next, whichever worker answers and whichever shards are busy
//! committing other clients' streams at the time. Reads answer from the
//! sums each shard writer publishes before it releases the replies of a
//! commit, so the live epoch can never count fewer frames than the
//! streams already acknowledged. After the ingest, the daemon's mix is
//! bit-identical to the offline aggregate of its partition files and to
//! the batch fold of every recording it took.

mod common;

use common::{analyzer_for, batch_fold, client_recording, tmp_dir, PERIODS};
use hbbp_core::{HybridRule, Window};
use hbbp_perf::{PerfData, Recording};
use hbbp_program::MnemonicMix;
use hbbp_store::{DaemonConfig, Partials, ProfileStore, StoreIdentity};
use hbbp_workloads::Workload;
use std::sync::atomic::{AtomicU32, Ordering};

const SHARDS: usize = 4;
/// Client threads, each on its own source: two per shard.
const CLIENTS: u32 = 8;
/// Streams each client sends, one after another.
const ROUNDS: u32 = 3;

fn mix_bits(mix: &MnemonicMix) -> Vec<(String, u64)> {
    mix.iter()
        .map(|(m, count)| (m.to_string(), count.to_bits()))
        .collect()
}

#[test]
fn every_acknowledged_stream_is_visible_to_the_next_read() {
    let dir = tmp_dir("read-your-writes");
    let recordings: Vec<(Workload, Recording)> = (0..4).map(client_recording).collect();
    let analyzer = analyzer_for(&recordings[0].0);
    let identity = StoreIdentity::of_workload(&recordings[0].0, analyzer.map());
    let handle = hbbp_store::spawn(DaemonConfig {
        analyzer: analyzer_for(&recordings[0].0),
        identity,
        periods: PERIODS,
        rule: HybridRule::paper_default(),
        window: Some(Window::Samples(256)),
        shards: SHARDS,
        dir: dir.clone(),
        workers: 2,
        queue_depth: 0,
        metrics: false,
    })
    .expect("daemon");

    // Streams acknowledged so far, over every client. A client bumps it
    // only after its `INGESTED` reply, and reads it before its query, so
    // each stream it counts was published before the query was sent.
    let acked = AtomicU32::new(0);
    std::thread::scope(|scope| {
        for source in 0..CLIENTS {
            let data = &recordings[(source % 4) as usize].1.data;
            let (acked, client) = (&acked, handle.client());
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let reply = client.stream_data(source, data).expect("stream");
                    assert_eq!(reply.counts_seq, round, "source {source}");
                    assert!(reply.windows_flushed > 0, "source {source}: windows on");
                    let seen = acked.fetch_add(1, Ordering::SeqCst) + 1;
                    let epochs = client.query_epochs().expect("epochs");
                    let live = epochs.last().expect("the live epoch");
                    assert_eq!(live.epoch, 0);
                    assert!(
                        live.counts_frames >= seen,
                        "source {source} round {round}: EPOCHS counts {} frames after \
                         {seen} acknowledged streams",
                        live.counts_frames
                    );
                    let mix = client.query_mix().expect("mix");
                    assert!(mix.iter().next().is_some(), "source {source}: empty mix");
                }
            });
        }
    });
    assert_eq!(acked.load(Ordering::SeqCst), CLIENTS * ROUNDS);

    let client = handle.client();
    let epochs = client.query_epochs().expect("final epochs");
    assert_eq!(epochs.len(), 1);
    assert_eq!(epochs[0].counts_frames, CLIENTS * ROUNDS);
    let got = client.query_mix().expect("final mix");
    handle.shutdown().expect("shutdown");

    // Offline: the four partition files, read back and combined.
    let stores: Vec<Partials> = (0..SHARDS)
        .map(|i| {
            ProfileStore::open_read_only(dir.join(format!("part-{i}.hbbp")))
                .expect("partition")
                .partials()
        })
        .collect();
    let offline = analyzer.mix(&Partials::combine(stores).aggregate());
    assert_eq!(
        mix_bits(&got),
        mix_bits(&offline),
        "daemon vs partition files"
    );

    let streamed: Vec<&PerfData> = (0..CLIENTS * ROUNDS)
        .map(|i| &recordings[(i % CLIENTS % 4) as usize].1.data)
        .collect();
    let batch = analyzer.mix(&batch_fold(&analyzer, &streamed));
    assert_eq!(mix_bits(&got), mix_bits(&batch), "daemon vs batch fold");
    let _ = std::fs::remove_dir_all(&dir);
}
