//! `COMPACT` leaves every read query bit-identical: eight sources on a
//! four-shard daemon, two epochs, and the `QUERY_MIX`, `QUERY_TOP`,
//! `EPOCHS` sample sums and `DRIFT` replies compared before `COMPACT`,
//! after it, and after a restart over the compacted partitions — and
//! against the offline aggregate of the partition files.

mod common;

use common::{analyzer_for, client_recording, tmp_dir, PERIODS};
use hbbp_core::{HybridRule, Window};
use hbbp_perf::Recording;
use hbbp_store::{DaemonConfig, DaemonHandle, ProfileStore, Snapshot, StoreClient, StoreIdentity};
use hbbp_workloads::Workload;
use std::path::Path;

const SHARDS: usize = 4;
const SOURCES: u32 = 8;

fn spawn(w: &Workload, identity: &StoreIdentity, dir: &Path) -> DaemonHandle {
    hbbp_store::spawn(DaemonConfig {
        analyzer: analyzer_for(w),
        identity: identity.clone(),
        periods: PERIODS,
        rule: HybridRule::paper_default(),
        window: Some(Window::Samples(256)),
        shards: SHARDS,
        dir: dir.to_path_buf(),
        workers: 0,
        queue_depth: 0,
        metrics: false,
    })
    .expect("daemon")
}

/// Every read query's answer, counts as bit patterns.
#[derive(Debug, PartialEq)]
struct Replies {
    mix: Vec<(u16, u64)>,
    top: Vec<(u16, u64)>,
    /// `(epoch, ebs samples, lbr samples)` per epoch.
    epochs: Vec<(u32, u64, u64)>,
    drift: Vec<(u16, u64)>,
    drift_back: Vec<(u16, u64)>,
}

fn replies(client: &StoreClient) -> Replies {
    let bits = |rows: Vec<(hbbp_isa::Mnemonic, f64)>| {
        rows.into_iter()
            .map(|(m, c)| (m.opcode(), c.to_bits()))
            .collect::<Vec<_>>()
    };
    Replies {
        mix: bits(client.query_mix().expect("mix").iter().collect()),
        top: bits(client.query_top(6).expect("top")),
        epochs: client
            .query_epochs()
            .expect("epochs")
            .iter()
            .map(|e| (e.epoch, e.ebs_samples, e.lbr_samples))
            .collect(),
        drift: bits(client.query_drift(0, 1, 6).expect("drift")),
        drift_back: bits(client.query_drift(1, 0, 6).expect("drift back")),
    }
}

/// Stream every source's recording concurrently.
fn stream_all(client: &StoreClient, clients: &[(Workload, Recording)], shift: usize) {
    std::thread::scope(|scope| {
        for source in 0..SOURCES {
            let (_, rec) = &clients[(source as usize + shift) % clients.len()];
            scope.spawn(move || {
                client.stream_data(source, &rec.data).expect("stream");
            });
        }
    });
}

#[test]
fn compact_and_restart_leave_every_query_bit_identical() {
    let dir = tmp_dir("compact-bits");
    let clients: Vec<(Workload, Recording)> = (0..SOURCES).map(client_recording).collect();
    let w = &clients[0].0;
    let analyzer = analyzer_for(w);
    let identity = StoreIdentity::of_workload(w, analyzer.map());

    let handle = spawn(w, &identity, &dir);
    let client = handle.client();
    // Epoch 0, sealed by a first COMPACT; then epoch 1, live. Two
    // recordings land on every shard in each epoch.
    stream_all(&client, &clients, 0);
    client.compact().expect("seal epoch 0");
    stream_all(&client, &clients, 3);
    let before = replies(&client);
    assert_eq!(before.epochs.len(), 2);
    assert!(!before.drift.is_empty());

    client.compact().expect("compact");
    assert_eq!(replies(&client), before, "after COMPACT");
    handle.shutdown().expect("shutdown");

    let handle = spawn(w, &identity, &dir);
    assert_eq!(replies(&handle.client()), before, "after restart");
    handle.shutdown().expect("shutdown");

    // The offline reader of the partition files agrees.
    let mut all = Snapshot {
        identity: None,
        counts: Vec::new(),
        windows: Vec::new(),
        counts_epochs: Vec::new(),
        window_epochs: Vec::new(),
    };
    for shard in 0..SHARDS {
        let snap = ProfileStore::open(dir.join(format!("part-{shard}.hbbp")))
            .expect("open partition")
            .snapshot();
        all.counts.extend(snap.counts);
        all.counts_epochs.extend(snap.counts_epochs);
    }
    let offline: Vec<(u16, u64)> = analyzer
        .mix(&all.aggregate())
        .iter()
        .map(|(m, c)| (m.opcode(), c.to_bits()))
        .collect();
    assert_eq!(offline, before.mix, "offline aggregate of the partitions");
    let _ = std::fs::remove_dir_all(&dir);
}
