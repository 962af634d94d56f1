//! Epoch-history loopback acceptance: two epochs with shifted
//! instruction mixes are ingested through a live daemon, and the `DRIFT`
//! reply must be **bit-identical** to an offline [`MixDrift`] recompute
//! over the two epochs' `analyze_fused` folds. Also pins the `EPOCHS`
//! listing, the unknown-epoch rejection, and the daemon-side reservation
//! of the compacted source id.

mod common;

use common::{analyzer_for, client_recording, tmp_dir, PERIODS};
use hbbp_core::{HybridRule, MixDrift, Window};
use hbbp_perf::Recording;
use hbbp_program::Bbec;
use hbbp_store::{DaemonConfig, StoreIdentity, WireError};
use hbbp_workloads::Workload;

#[test]
fn drift_reply_is_bit_identical_to_the_offline_fold_diff() {
    let dir = tmp_dir("loopback");
    // Sources 0,1 are epoch 0; sources 2,3 (different phase shapes) are
    // epoch 1. With 2 shards and `shard = source % shards`, shard order
    // equals source order within each epoch, so the offline reference is
    // the plain source-ordered fold.
    let clients: Vec<(Workload, Recording)> = (0..4).map(client_recording).collect();
    let analyzer = analyzer_for(&clients[0].0);
    let identity = StoreIdentity::of_workload(&clients[0].0, analyzer.map());
    let rule = HybridRule::paper_default();

    let handle = hbbp_store::spawn(DaemonConfig {
        analyzer: analyzer_for(&clients[0].0),
        identity,
        periods: PERIODS,
        rule: rule.clone(),
        window: Some(Window::Samples(256)),
        shards: 2,
        dir: dir.clone(),
        workers: 0,
        queue_depth: 0,
        metrics: false,
    })
    .expect("daemon");
    let client = handle.client();

    // A client picking the reserved compacted source id is refused at
    // ingest, before any bytes reach a shard writer.
    let err = client
        .stream_data(u32::MAX, &clients[0].1.data)
        .expect_err("reserved source must be rejected");
    assert_eq!(
        err.to_string(),
        "daemon error: source id 4294967295 is reserved for compacted records"
    );

    // Epoch 0: ingest, then COMPACT — which folds the tier and seals it.
    for source in 0..2u32 {
        client
            .stream_data(source, &clients[source as usize].1.data)
            .expect("epoch 0 ingest");
    }
    client.compact().expect("compact seals epoch 0");

    // Epoch 1: the shifted mix.
    for source in 2..4u32 {
        client
            .stream_data(source, &clients[source as usize].1.data)
            .expect("epoch 1 ingest");
    }

    // EPOCHS: both epochs listed, ascending, with sane accounting (one
    // fold frame per shard for the compacted epoch, one raw counts frame
    // per source for the live one).
    let epochs = client.query_epochs().expect("epochs");
    assert_eq!(epochs.len(), 2);
    assert_eq!((epochs[0].epoch, epochs[1].epoch), (0, 1));
    assert_eq!(epochs[0].counts_frames, 2, "one fold per shard");
    assert_eq!(epochs[1].counts_frames, 2, "one counts frame per source");
    assert!(epochs[0].ebs_samples > 0 && epochs[0].lbr_samples > 0);
    assert!(epochs[1].ebs_samples > 0 && epochs[1].lbr_samples > 0);

    // Offline reference: per-epoch canonical folds of the recordings'
    // batch analyses, diffed with the same MixDrift the daemon uses.
    let fold = |range: std::ops::Range<usize>| {
        let mut acc = Bbec::new();
        for i in range {
            acc.merge(
                &analyzer
                    .analyze_fused(&clients[i].1.data, PERIODS, &rule)
                    .hbbp
                    .bbec,
            );
        }
        acc
    };
    let baseline = analyzer.mix(&fold(0..2));
    let current = analyzer.mix(&fold(2..4));
    let offline = MixDrift::between(&baseline, &current);
    assert!(
        offline.divergence() > 0.0,
        "the two epochs must actually differ for this test to bite"
    );

    for k in [1u32, 5, 1000] {
        let got = client.query_drift(0, 1, k).expect("drift");
        let want = offline.top_movers(k as usize);
        assert_eq!(got.len(), want.len(), "k={k}");
        for ((gm, gd), row) in got.iter().zip(&want) {
            assert_eq!(*gm, row.mnemonic, "k={k}");
            assert_eq!(
                gd.to_bits(),
                row.delta.to_bits(),
                "k={k} {gm}: daemon delta must be bit-identical to offline"
            );
        }
    }

    // An epoch the store does not hold is a pinned daemon-side error.
    let err = client.query_drift(0, 9, 5).expect_err("unknown epoch");
    assert!(
        matches!(&err, WireError::Daemon(m) if m == "store has no epoch 9"),
        "{err}"
    );

    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// COMPACT must advance *every* shard's epoch, including shards that
/// were idle during the sealed epoch: epoch 0 here only ever touches
/// shard 1 (source 1 with 2 shards), and epoch 1 only shard 0
/// (source 2). If the idle shard didn't seal in lockstep, source 2's
/// frame would land in epoch 0 and the drift query would have nothing
/// to compare.
#[test]
fn sealing_advances_idle_shards_in_lockstep() {
    let dir = tmp_dir("idle-shard");
    let clients: Vec<(Workload, Recording)> = (0..3).map(client_recording).collect();
    let analyzer = analyzer_for(&clients[0].0);
    let identity = StoreIdentity::of_workload(&clients[0].0, analyzer.map());

    let handle = hbbp_store::spawn(DaemonConfig {
        analyzer: analyzer_for(&clients[0].0),
        identity,
        periods: PERIODS,
        rule: HybridRule::paper_default(),
        window: None,
        shards: 2,
        dir: dir.clone(),
        workers: 0,
        queue_depth: 0,
        metrics: false,
    })
    .expect("daemon");
    let client = handle.client();

    client
        .stream_data(1, &clients[1].1.data)
        .expect("epoch 0, shard 1 only");
    client.compact().expect("seal epoch 0");
    client
        .stream_data(2, &clients[2].1.data)
        .expect("epoch 1, shard 0 only");

    let epochs = client.query_epochs().expect("epochs");
    assert_eq!(
        epochs.iter().map(|e| e.epoch).collect::<Vec<_>>(),
        vec![0, 1],
        "the idle shard must seal with its siblings"
    );
    assert_eq!((epochs[0].counts_frames, epochs[1].counts_frames), (1, 1));
    let movers = client.query_drift(0, 1, 3).expect("drift across the seal");
    assert_eq!(movers.len(), 3);

    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
