//! The daemon's read queries fold counts frames only. A stream that
//! flushed timeline windows and then failed, after a `COMPACT`, leaves
//! an epoch holding window frames but no counts; every read query must
//! behave as if that epoch did not exist: `EPOCHS` leaves it out,
//! `DRIFT` to it is an unknown epoch, and `QUERY_MIX` is the offline
//! fold of the counts frames alone.

mod common;

use common::{analyzer_for, client_recording, tmp_dir, PERIODS};
use hbbp_core::HybridRule;
use hbbp_isa::Mnemonic;
use hbbp_program::MnemonicMix;
use hbbp_store::{DaemonConfig, ProfileStore, Snapshot, StoreIdentity, WindowRecord, WireError};

const SHARDS: usize = 2;

/// Every `(mnemonic, count)` entry with the count's exact bits.
fn bits(mix: &MnemonicMix) -> Vec<(Mnemonic, u64)> {
    mix.iter().map(|(m, c)| (m, c.to_bits())).collect()
}

#[test]
fn window_only_epochs_are_invisible_to_read_queries() {
    let dir = tmp_dir("window-only-epoch");
    let (w, _) = client_recording(0);
    let analyzer = analyzer_for(&w);
    let identity = StoreIdentity::of_workload(&w, analyzer.map());
    let rule = HybridRule::paper_default();

    // Preload the partitions offline: source `s` lands on shard `s`,
    // epoch 0 is compacted (which seals it), and shard 0 then receives
    // the windows of a stream that never delivered its counts frame.
    let mut snapshots = Vec::new();
    for shard in 0..SHARDS {
        let path = dir.join(format!("part-{shard}.hbbp"));
        let mut store = ProfileStore::open_with_identity(path, identity.clone()).unwrap();
        let (_, rec) = client_recording(shard as u32);
        let analysis = analyzer.analyze_fused(&rec.data, PERIODS, &rule);
        store
            .append_counts(shard as u32, 1, 1, analysis.hbbp.bbec)
            .unwrap();
        store.compact().unwrap();
        assert_eq!(store.current_epoch(), 1);
        if shard == 0 {
            for index in 0..3 {
                let mut mix = MnemonicMix::new();
                mix.add(Mnemonic::Add, 100.0 + f64::from(index));
                store
                    .append_window(WindowRecord {
                        source: 7,
                        index,
                        start_cycles: u64::from(index) * 1000,
                        end_cycles: u64::from(index + 1) * 1000,
                        ebs_samples: 4,
                        lbr_samples: 4,
                        mix,
                    })
                    .unwrap();
            }
            assert_eq!(store.snapshot().epochs(), vec![0, 1]);
        }
        snapshots.push(store.snapshot());
    }

    // The offline reference: the canonical fold of every partition's
    // counts frames, partitions concatenated in shard-index order.
    let mut all = Snapshot {
        identity: None,
        counts: Vec::new(),
        windows: Vec::new(),
        counts_epochs: Vec::new(),
        window_epochs: Vec::new(),
    };
    for snap in snapshots {
        all.counts.extend(snap.counts);
        all.counts_epochs.extend(snap.counts_epochs);
    }
    let want = analyzer.mix(&all.aggregate());

    let handle = hbbp_store::spawn(DaemonConfig {
        analyzer: analyzer_for(&w),
        identity,
        periods: PERIODS,
        rule,
        window: None,
        shards: SHARDS,
        dir: dir.clone(),
        workers: 0,
        queue_depth: 0,
        metrics: false,
    })
    .expect("daemon");
    let client = handle.client();

    // The daemon did load the window frames...
    let stats = client.stats().expect("stats");
    assert_eq!(stats.window_frames, 3);
    assert_eq!(stats.counts_frames, SHARDS as u64);

    // ...but EPOCHS lists only the epoch that holds counts.
    let epochs = client.query_epochs().expect("epochs");
    assert_eq!(epochs.len(), 1, "{epochs:?}");
    assert_eq!(epochs[0].epoch, 0);
    assert_eq!(epochs[0].counts_frames, SHARDS as u32);

    // DRIFT treats the window-only epoch as unknown.
    let err = client.query_drift(0, 1, 5).expect_err("window-only epoch");
    assert!(
        matches!(&err, WireError::Daemon(m) if m == "store has no epoch 1"),
        "{err}"
    );

    // QUERY_MIX and QUERY_TOP are the offline counts fold, bit for bit.
    let got = client.query_mix().expect("mix");
    assert!(!want.is_empty());
    assert_eq!(bits(&got), bits(&want));
    assert_eq!(client.query_top(5).expect("top"), want.top(5));

    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
