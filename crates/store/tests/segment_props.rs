//! Segment-codec robustness properties (mirroring
//! `crates/perf/tests/stream_props.rs` at the file layer): whatever
//! happens to the tail of a store file — truncation at any byte, a bit
//! flip anywhere after the header, garbage appended — reopening recovers
//! exactly the intact frame prefix, and the recovered file accepts
//! further appends. Throughout, the frames a store reads back from its
//! log agree with the tallies and running sums it keeps in memory.

use hbbp_program::{Bbec, MnemonicMix, Ring};
use hbbp_store::{CountsRecord, ModuleSpan, ProfileStore, Snapshot, StoreIdentity, WindowRecord};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_FILE: AtomicU64 = AtomicU64::new(0);

/// A unique temp path per proptest case (cases run in one process).
fn tmp() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbbp-store-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(format!(
        "case-{}.hbbp",
        NEXT_FILE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn identity() -> StoreIdentity {
    StoreIdentity {
        program: "props".into(),
        block_count: 64,
        modules: vec![ModuleSpan {
            name: "props.bin".into(),
            base: 0x400000,
            len: 0x4000,
            ring: Ring::User,
        }],
    }
}

/// One synthetic counts record from compact generator parameters. Counts
/// use bit patterns with no short decimal form so that survival implies
/// bit-exact storage.
fn counts_from(source: u8, entries: &[(u16, u64)]) -> (u32, u64, u64, Bbec) {
    let mut bbec = Bbec::new();
    for &(addr_step, count_bits) in entries {
        let addr = 0x400000 + u64::from(addr_step) * 4;
        let count = f64::from_bits(0x3FF0_0000_0000_0000 | (count_bits >> 12));
        bbec.set(addr, count);
    }
    (u32::from(source), entries.len() as u64, 7, bbec)
}

fn window_from(source: u8, index: u8, mix_counts: &[(u8, u64)]) -> WindowRecord {
    let mut mix = MnemonicMix::new();
    for &(op, bits) in mix_counts {
        let mnemonic = hbbp_isa::Mnemonic::ALL[op as usize % hbbp_isa::Mnemonic::ALL.len()];
        mix.add(
            mnemonic,
            f64::from_bits(0x4000_0000_0000_0000 | (bits >> 12)),
        );
    }
    WindowRecord {
        source: u32::from(source),
        index: u32::from(index),
        start_cycles: u64::from(index) * 1000,
        end_cycles: (u64::from(index) + 1) * 1000,
        ebs_samples: 5,
        lbr_samples: 3,
        mix,
    }
}

/// Generator parameters of one counts frame: source + (addr step, count
/// bits) entries.
type CountsSpec = (u8, Vec<(u16, u64)>);
/// Generator parameters of one window frame: source, index, mix entries.
type WindowSpec = (u8, u8, Vec<(u8, u64)>);

/// Write a store of the given synthetic records; return its bytes and
/// the expected surviving record count per frame-prefix length.
fn build_store(
    counts: &[CountsSpec],
    windows: &[WindowSpec],
) -> (PathBuf, Vec<CountsRecord>, Vec<WindowRecord>) {
    let path = tmp();
    let _ = std::fs::remove_file(&path);
    let mut store = ProfileStore::open_with_identity(&path, identity()).expect("create");
    for (source, entries) in counts {
        let (source, ebs, lbr, bbec) = counts_from(*source, entries);
        store.append_counts(source, ebs, lbr, bbec).expect("append");
    }
    for (source, index, mix) in windows {
        store
            .append_window(window_from(*source, *index, mix))
            .expect("append window");
    }
    let snap = store.snapshot();
    (path, snap.counts, snap.windows)
}

fn arb_counts() -> impl Strategy<Value = Vec<CountsSpec>> {
    proptest::collection::vec(
        (
            0u8..6,
            proptest::collection::vec((any::<u16>(), any::<u64>()), 0..12),
        ),
        0..8,
    )
}

fn arb_windows() -> impl Strategy<Value = Vec<WindowSpec>> {
    proptest::collection::vec(
        (
            0u8..6,
            any::<u8>(),
            proptest::collection::vec((any::<u8>(), any::<u64>()), 0..6),
        ),
        0..6,
    )
}

/// The counts frames a store reads back from its log agree with what it
/// keeps in memory: the frame tally, and the running sums' aggregates
/// and accounting, bit for bit.
fn check_read_back(store: &ProfileStore) -> Snapshot {
    let snap = store.snapshot();
    assert_eq!(store.counts_frames(), snap.counts.len() as u64);
    assert_eq!(store.window_frames(), snap.windows.len() as u64);
    let bits =
        |bbec: &Bbec| -> Vec<(u64, u64)> { bbec.iter().map(|(a, c)| (a, c.to_bits())).collect() };
    assert_eq!(bits(&store.partials().aggregate()), bits(&snap.aggregate()));
    let (ebs, lbr) = snap
        .counts
        .iter()
        .fold((0, 0), |(e, l), r| (e + r.ebs_samples, l + r.lbr_samples));
    let stats = snap.epoch_stats();
    assert_eq!(ebs, stats.iter().map(|s| s.ebs_samples).sum::<u64>());
    assert_eq!(lbr, stats.iter().map(|s| s.lbr_samples).sum::<u64>());
    snap
}

/// Reopen after damage and check the recovered contents are a prefix of
/// the originals (in log order) and that the store still works.
fn check_recovery(
    path: &PathBuf,
    original_counts: &[CountsRecord],
    original_windows: &[WindowRecord],
) {
    let mut store = ProfileStore::open(path).expect("recovery never errors on damage");
    let got = check_read_back(&store);
    assert!(got.counts.len() <= original_counts.len());
    assert_eq!(got.counts, &original_counts[..got.counts.len()]);
    assert!(got.windows.len() <= original_windows.len());
    assert_eq!(got.windows, &original_windows[..got.windows.len()]);
    // The recovered log accepts appends and a further reopen is clean.
    if store.identity().is_some() {
        store
            .append_counts(99, 1, 1, [(0x400000u64, 1.0)].into_iter().collect())
            .expect("append after recovery");
        let appended = check_read_back(&store);
        assert_eq!(appended.counts.len(), got.counts.len() + 1);
        drop(store);
        let back = ProfileStore::open(path).expect("clean reopen");
        assert_eq!(back.open_report().truncated_bytes, 0);
        assert_eq!(check_read_back(&back), appended);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Clean write → reopen is lossless and bit-exact.
    #[test]
    fn reopen_roundtrips_all_frames(
        counts in arb_counts(),
        windows in arb_windows(),
    ) {
        let (path, want_counts, want_windows) = build_store(&counts, &windows);
        let store = ProfileStore::open(&path).expect("reopen");
        prop_assert_eq!(store.open_report().truncated_bytes, 0);
        let snap = check_read_back(&store);
        prop_assert_eq!(&snap.counts, &want_counts);
        prop_assert_eq!(&snap.windows, &want_windows);
        // Bit-exactness of every count.
        for (got, want) in snap.counts.iter().zip(&want_counts) {
            for (addr, count) in want.bbec.iter() {
                prop_assert_eq!(got.bbec.get(addr).to_bits(), count.to_bits());
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Deferred frames read back from the pending buffer as they later
    /// do from the file: the snapshot is the same before the commit,
    /// after it and after a reopen.
    #[test]
    fn pending_frames_read_back_like_committed_ones(
        counts in arb_counts(),
        windows in arb_windows(),
        committed in any::<usize>(),
    ) {
        let path = tmp();
        let _ = std::fs::remove_file(&path);
        let mut store = ProfileStore::open_with_identity(&path, identity()).expect("create");
        let committed = committed % (counts.len() + 1);
        for (i, (source, entries)) in counts.iter().enumerate() {
            let (source, ebs, lbr, bbec) = counts_from(*source, entries);
            if i < committed {
                store.append_counts(source, ebs, lbr, bbec).expect("append");
            } else {
                store.append_counts_deferred(source, ebs, lbr, bbec).expect("defer");
            }
        }
        for (source, index, mix) in &windows {
            store
                .append_window_deferred(window_from(*source, *index, mix))
                .expect("defer window");
        }
        let pending = check_read_back(&store);
        prop_assert_eq!(pending.counts.len(), counts.len());
        prop_assert_eq!(pending.windows.len(), windows.len());
        store.commit().expect("commit");
        prop_assert_eq!(&check_read_back(&store), &pending);
        drop(store);
        let back = ProfileStore::open(&path).expect("reopen");
        prop_assert_eq!(&check_read_back(&back), &pending);
        std::fs::remove_file(&path).ok();
    }

    /// Truncate anywhere: recovery keeps exactly the intact frame prefix.
    #[test]
    fn truncation_recovers_the_intact_prefix(
        counts in arb_counts(),
        windows in arb_windows(),
        cut_frac in 0.0f64..1.0,
    ) {
        let (path, want_counts, want_windows) = build_store(&counts, &windows);
        let bytes = std::fs::read(&path).expect("read back");
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut.min(bytes.len())]).expect("truncate");
        check_recovery(&path, &want_counts, &want_windows);
        std::fs::remove_file(&path).ok();
    }

    /// Flip one bit after the header: the damaged frame and everything
    /// after it are dropped; frames before it survive bit-exactly.
    #[test]
    fn bit_flip_truncates_at_the_damaged_frame(
        counts in arb_counts(),
        windows in arb_windows(),
        flip_pos in any::<u64>(),
        flip_bit in 0u8..8,
    ) {
        let (path, want_counts, want_windows) = build_store(&counts, &windows);
        let mut bytes = std::fs::read(&path).expect("read back");
        if bytes.len() > 12 {
            let at = 12 + (flip_pos as usize) % (bytes.len() - 12);
            bytes[at] ^= 1 << flip_bit;
            std::fs::write(&path, &bytes).expect("damage");
            check_recovery(&path, &want_counts, &want_windows);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Random garbage appended after the valid log: everything real
    /// survives; the garbage is truncated away.
    #[test]
    fn appended_garbage_is_cut_off(
        counts in arb_counts(),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let (path, want_counts, _) = build_store(&counts, &[]);
        let mut bytes = std::fs::read(&path).expect("read back");
        let valid = bytes.len();
        bytes.extend_from_slice(&garbage);
        std::fs::write(&path, &bytes).expect("append garbage");
        let store = ProfileStore::open(&path).expect("recover");
        prop_assert_eq!(&check_read_back(&store).counts, &want_counts);
        // Either the garbage happened to decode as frames (possible only
        // if it forms a checksum-valid frame — astronomically unlikely
        // but legal) or it was truncated.
        prop_assert!(store.open_report().truncated_bytes as usize <= garbage.len());
        prop_assert!(store.file_bytes() as usize <= valid + garbage.len());
        std::fs::remove_file(&path).ok();
    }
}
