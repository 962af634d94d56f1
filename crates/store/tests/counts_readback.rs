//! Counts frames live only in the log: a store keeps their running sums
//! and a tally, and `snapshot` reads the frames themselves back from the
//! file and the pending buffer. The snapshot must be the same whether
//! the frames are pending, committed or reopened, must agree with the
//! running sums across `compact`, and must fail — not answer from
//! memory — when the log no longer reads back as written. Readers of
//! the running sums (`partials`) never touch the log, and `windows`
//! reads only the window frames back.

use hbbp_program::{Bbec, MnemonicMix, Ring};
use hbbp_store::{
    EpochStats, ModuleSpan, ProfileStore, Snapshot, StoreError, StoreIdentity, WindowRecord,
    COMPACTED_SOURCE,
};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbbp-store-readback-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn identity() -> StoreIdentity {
    StoreIdentity {
        program: "readback".into(),
        block_count: 4,
        modules: vec![ModuleSpan {
            name: "readback.bin".into(),
            base: 0x400000,
            len: 0x1000,
            ring: Ring::User,
        }],
    }
}

fn bbec(entries: &[(u64, f64)]) -> Bbec {
    entries.iter().copied().collect()
}

fn window(source: u32, index: u32) -> WindowRecord {
    let mut mix = MnemonicMix::new();
    mix.add(hbbp_isa::Mnemonic::Add, f64::from(index) + 0.5);
    WindowRecord {
        source,
        index,
        start_cycles: u64::from(index) * 100,
        end_cycles: u64::from(index + 1) * 100,
        ebs_samples: 3,
        lbr_samples: 2,
        mix,
    }
}

/// `(block, count bits)` of a counts table.
fn bits(bbec: &Bbec) -> Vec<(u64, u64)> {
    bbec.iter().map(|(a, c)| (a, c.to_bits())).collect()
}

/// The store's snapshot, checked against what it keeps in memory: the
/// frame tallies and the running sums' aggregate.
fn read_back(store: &ProfileStore) -> Snapshot {
    let snap = store.snapshot();
    assert_eq!(store.counts_frames(), snap.counts.len() as u64);
    assert_eq!(store.window_frames(), snap.windows.len() as u64);
    assert_eq!(bits(&store.partials().aggregate()), bits(&snap.aggregate()));
    snap
}

/// Everything the store's running sums answer: the per-epoch
/// accounting, the global aggregate and each epoch's aggregate.
fn answers(store: &ProfileStore) -> (Vec<EpochStats>, Vec<Vec<(u64, u64)>>) {
    let partials = store.partials();
    let stats = partials.epoch_stats();
    let mut folds = vec![bits(&partials.aggregate())];
    folds.extend(
        stats
            .iter()
            .map(|s| bits(&partials.epoch_aggregate(s.epoch))),
    );
    (stats, folds)
}

/// Flip the low bit of the log byte at `at`, behind the store's back;
/// returns the open file and the byte's original value.
fn flip_bit(path: &Path, at: u64) -> (std::fs::File, [u8; 1]) {
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .expect("open the log");
    let mut byte = [0u8; 1];
    file.read_exact_at(&mut byte, at).expect("read");
    file.write_all_at(&[byte[0] ^ 0x01], at).expect("damage");
    (file, byte)
}

/// The error a store gives for a log that no longer reads back.
fn assert_log_changed<T: std::fmt::Debug>(got: Result<T, StoreError>, what: &str) {
    match got {
        Err(StoreError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
            assert_eq!(
                e.to_string(),
                "the store log changed on disk since it was opened"
            );
        }
        other => panic!("{what}, got {other:?}"),
    }
}

#[test]
fn snapshot_is_the_same_pending_committed_compacted_and_reopened() {
    let path = tmp("lifecycle.hbbp");
    let mut store = ProfileStore::open_with_identity(&path, identity()).expect("create");
    store
        .append_counts_deferred(1, 10, 4, bbec(&[(0x400000, 0.1), (0x400010, 7.0)]))
        .expect("append");
    store
        .append_counts_deferred(2, 6, 2, bbec(&[(0x400000, 0.2)]))
        .expect("append");
    store.append_window_deferred(window(1, 0)).expect("window");
    store.advance_epoch().expect("advance");
    store
        .append_counts_deferred(1, 8, 8, bbec(&[(0x400020, 1e16), (0x400000, 0.3)]))
        .expect("append");
    store
        .append_counts_deferred(3, 1, 1, bbec(&[(0x400020, 1.0)]))
        .expect("append");
    store.append_window_deferred(window(1, 1)).expect("window");
    assert!(store.pending_bytes() > 0);

    let pending = read_back(&store);
    assert_eq!(pending.counts.len(), 4);
    assert_eq!(pending.counts_epochs, vec![0, 0, 1, 1]);
    assert_eq!(pending.window_epochs, vec![0, 1]);
    store.commit().expect("commit");
    assert_eq!(read_back(&store), pending, "after commit");
    drop(store);
    let mut store = ProfileStore::open(&path).expect("reopen");
    assert_eq!(read_back(&store), pending, "after reopen");

    store.compact().expect("compact");
    let compacted = read_back(&store);
    assert!(compacted
        .counts
        .iter()
        .all(|c| c.source == COMPACTED_SOURCE));
    assert_eq!(compacted.windows, pending.windows);
    assert_eq!(compacted.window_epochs, pending.window_epochs);
    assert_eq!(bits(&compacted.aggregate()), bits(&pending.aggregate()));
    for epoch in [0, 1] {
        assert_eq!(
            bits(&compacted.epoch_aggregate(epoch)),
            bits(&pending.epoch_aggregate(epoch)),
            "epoch {epoch}"
        );
    }
    let samples = |snap: &Snapshot| -> Vec<(u32, u64, u64)> {
        snap.epoch_stats()
            .iter()
            .map(|s| (s.epoch, s.ebs_samples, s.lbr_samples))
            .collect()
    };
    assert_eq!(samples(&compacted), samples(&pending));
    drop(store);
    let mut store = ProfileStore::open(&path).expect("reopen compacted");
    assert_eq!(read_back(&store), compacted, "compacted, after reopen");

    // Appends after compaction land in the sealed epoch's successor and
    // read back beside the compacted frames.
    store
        .append_counts_deferred(4, 2, 2, bbec(&[(0x400030, 2.5)]))
        .expect("append");
    let appended = read_back(&store);
    assert_eq!(appended.counts.len(), compacted.counts.len() + 1);
    assert_eq!(appended.counts_epochs.last(), Some(&2));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_counts_frame_damaged_under_an_open_store_fails_the_snapshot() {
    let path = tmp("damaged.hbbp");
    let mut store = ProfileStore::open_with_identity(&path, identity()).expect("create");
    store
        .append_counts(1, 5, 5, bbec(&[(0x400000, 3.0)]))
        .expect("append");
    let end = store.file_bytes();
    store
        .append_counts(2, 5, 5, bbec(&[(0x400010, 4.0)]))
        .expect("append");
    store
        .append_counts_deferred(3, 5, 5, bbec(&[(0x400020, 5.0)]))
        .expect("append");
    store.append_window_deferred(window(1, 0)).expect("window");
    let intact = read_back(&store);
    let aggregate = bits(&store.partials().aggregate());
    let before = answers(&store);

    // Flip a bit in the first counts frame's last payload byte, behind
    // the store's back.
    let (file, byte) = flip_bit(&path, end - 1);

    assert_log_changed(
        store.try_snapshot(),
        "a damaged counts frame must fail the snapshot",
    );
    // The running sums are memory, not the log: queries still answer,
    // and the window reader skips the damaged counts frame undecoded.
    assert_eq!(answers(&store), before);
    assert_eq!(bits(&store.partials().aggregate()), aggregate);
    assert_eq!(store.windows().expect("windows"), intact.windows);

    // Undo the damage: the log reads back as written again.
    file.write_all_at(&byte, end - 1).expect("repair");
    assert_eq!(read_back(&store), intact);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_window_frame_damaged_under_an_open_store_fails_windows() {
    let path = tmp("damaged-window.hbbp");
    let mut store = ProfileStore::open_with_identity(&path, identity()).expect("create");
    store
        .append_counts(1, 5, 5, bbec(&[(0x400000, 3.0)]))
        .expect("append");
    store.append_window(window(1, 0)).expect("window");
    let end = store.file_bytes();
    store.append_window(window(1, 1)).expect("window");
    store.append_window_deferred(window(2, 0)).expect("window");
    let intact = store.windows().expect("windows");
    assert_eq!(intact.len(), 3);
    let before = answers(&store);

    // Flip a bit in the first window frame's last payload byte.
    let (file, byte) = flip_bit(&path, end - 1);
    assert_log_changed(
        store.windows(),
        "a damaged window frame must fail the window read",
    );
    // The running sums do not depend on the timeline.
    assert_eq!(answers(&store), before);

    file.write_all_at(&byte, end - 1).expect("repair");
    assert_eq!(store.windows().expect("windows"), intact);
    let _ = std::fs::remove_file(&path);
}
