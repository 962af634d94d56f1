//! Tiered-compaction properties: whatever the epoch structure, and
//! whatever happens to the file afterwards, the per-epoch aggregates and
//! the global aggregate survive `compact()` **bit-exactly** — compaction
//! rewrites segments, but only within an epoch, never across one.

use hbbp_program::Bbec;
use hbbp_program::Ring;
use hbbp_store::{ModuleSpan, ProfileStore, Snapshot, StoreIdentity, COMPACTED_SOURCE};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_FILE: AtomicU64 = AtomicU64::new(0);

fn tmp() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbbp-epoch-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(format!(
        "case-{}.hbbp",
        NEXT_FILE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn identity() -> StoreIdentity {
    StoreIdentity {
        program: "epochs".into(),
        block_count: 64,
        modules: vec![ModuleSpan {
            name: "epochs.bin".into(),
            base: 0x400000,
            len: 0x4000,
            ring: Ring::User,
        }],
    }
}

/// One counts frame: source + (addr step, count bits) entries. Counts
/// use bit patterns with no short decimal form so that equality implies
/// bit-exact folding.
type CountsSpec = (u8, Vec<(u8, u64)>);

fn bbec_from(entries: &[(u8, u64)]) -> Bbec {
    let mut bbec = Bbec::new();
    for &(addr_step, count_bits) in entries {
        let addr = 0x400000 + u64::from(addr_step) * 4;
        bbec.set(
            addr,
            f64::from_bits(0x3FF0_0000_0000_0000 | (count_bits >> 12)),
        );
    }
    bbec
}

/// Epoch groups: each inner vec is one epoch's appends, separated by
/// `advance_epoch`. Overlapping addr steps across epochs are the point —
/// they expose any cross-epoch refolding.
fn arb_epochs() -> impl Strategy<Value = Vec<Vec<CountsSpec>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (
                0u8..5,
                proptest::collection::vec((0u8..24, any::<u64>()), 1..6),
            ),
            0..5,
        ),
        1..5,
    )
}

/// Build a multi-epoch store; the final epoch is left open (no trailing
/// `advance_epoch`), matching how a live store looks.
fn build(groups: &[Vec<CountsSpec>]) -> (PathBuf, ProfileStore) {
    let path = tmp();
    let _ = std::fs::remove_file(&path);
    let mut store = ProfileStore::open_with_identity(&path, identity()).expect("create");
    for (i, group) in groups.iter().enumerate() {
        if i > 0 {
            store.advance_epoch().expect("advance");
        }
        for (source, entries) in group {
            store
                .append_counts(u32::from(*source), 3, 2, bbec_from(entries))
                .expect("append");
        }
    }
    (path, store)
}

/// Every epoch's aggregate, bit-tagged for exact comparison.
fn epoch_folds(snap: &Snapshot) -> BTreeMap<u32, Vec<(u64, u64)>> {
    snap.epochs()
        .into_iter()
        .map(|e| {
            let fold = snap.epoch_aggregate(e);
            let mut entries: Vec<(u64, u64)> = fold.iter().map(|(a, c)| (a, c.to_bits())).collect();
            entries.sort_unstable();
            (e, entries)
        })
        .collect()
}

fn global_fold(snap: &Snapshot) -> Vec<(u64, u64)> {
    let fold = snap.aggregate();
    let mut entries: Vec<(u64, u64)> = fold.iter().map(|(a, c)| (a, c.to_bits())).collect();
    entries.sort_unstable();
    entries
}

/// The store's running sums ([`ProfileStore::partials`]) answer as the
/// snapshot read back from its log does, bit for bit: the per-epoch
/// accounting, the global aggregate, and the aggregate of every epoch
/// plus one the store does not hold.
fn check_partials(store: &ProfileStore) -> Snapshot {
    let snap = store.snapshot();
    let partials = store.partials();
    let bits = |bbec: &Bbec| -> Vec<(u64, u64)> {
        let mut entries: Vec<(u64, u64)> = bbec.iter().map(|(a, c)| (a, c.to_bits())).collect();
        entries.sort_unstable();
        entries
    };
    assert_eq!(partials.epoch_stats(), snap.epoch_stats());
    assert_eq!(bits(&partials.aggregate()), bits(&snap.aggregate()));
    let absent = store.current_epoch() + 1;
    for epoch in snap.epochs().into_iter().chain([absent]) {
        assert_eq!(partials.has_epoch(epoch), epoch != absent, "epoch {epoch}");
        assert_eq!(
            bits(&partials.epoch_aggregate(epoch)),
            bits(&snap.epoch_aggregate(epoch)),
            "epoch {epoch}"
        );
    }
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tiered compaction preserves every per-epoch aggregate and the
    /// global fold bit-exactly, through the rewrite and a reopen; the
    /// running sums answer as the log does before, after and on reopen.
    #[test]
    fn tiered_compaction_preserves_per_epoch_folds(groups in arb_epochs()) {
        let (path, mut store) = build(&groups);
        let before = check_partials(&store);
        let want_epochs = epoch_folds(&before);
        let want_global = global_fold(&before);

        store.compact().expect("compact");
        let after = check_partials(&store);
        prop_assert_eq!(&epoch_folds(&after), &want_epochs);
        prop_assert_eq!(&global_fold(&after), &want_global);
        // Every epoch that had counts keeps its exact partial in
        // compacted frames, and nothing else remains.
        let compacted: BTreeSet<u32> = after.counts_epochs.iter().copied().collect();
        prop_assert_eq!(compacted, want_epochs.keys().copied().collect::<BTreeSet<u32>>());
        prop_assert!(after.counts.iter().all(|r| r.source == COMPACTED_SOURCE));
        // Compaction seals: if anything was stored, the live epoch is new.
        if !want_epochs.is_empty() {
            prop_assert!(
                !after.epochs().contains(&store.current_epoch()),
                "current epoch {} must be freshly sealed",
                store.current_epoch()
            );
        }

        drop(store);
        let reopened = ProfileStore::open(&path).expect("reopen");
        prop_assert_eq!(reopened.open_report().truncated_bytes, 0);
        let snap = check_partials(&reopened);
        prop_assert_eq!(&epoch_folds(&snap), &want_epochs);
        prop_assert_eq!(&global_fold(&snap), &want_global);
        std::fs::remove_file(&path).ok();
    }

    /// Compact twice (with appends in between): still bit-stable per
    /// epoch — re-folding a fold is the identity.
    #[test]
    fn recompaction_is_bit_stable(groups in arb_epochs(), extra in proptest::collection::vec((0u8..5, proptest::collection::vec((0u8..24, any::<u64>()), 1..4)), 0..4)) {
        let (path, mut store) = build(&groups);
        store.compact().expect("compact");
        for (source, entries) in &extra {
            store
                .append_counts(u32::from(*source), 3, 2, bbec_from(entries))
                .expect("append after seal");
        }
        let want_epochs = epoch_folds(&store.snapshot());
        let want_global = global_fold(&store.snapshot());
        store.compact().expect("recompact");
        prop_assert_eq!(&epoch_folds(&store.snapshot()), &want_epochs);
        prop_assert_eq!(&global_fold(&store.snapshot()), &want_global);
        std::fs::remove_file(&path).ok();
    }

    /// Truncate a compacted log anywhere: recovery keeps an intact frame
    /// prefix, and every epoch fold that survives is bit-identical to the
    /// pre-damage fold of that epoch.
    #[test]
    fn truncated_compacted_logs_keep_exact_epoch_prefixes(
        groups in arb_epochs(),
        cut_frac in 0.0f64..1.0,
    ) {
        let (path, mut store) = build(&groups);
        let want_epochs = epoch_folds(&store.snapshot());
        store.compact().expect("compact");
        drop(store);

        let bytes = std::fs::read(&path).expect("read back");
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut.min(bytes.len())]).expect("truncate");

        let recovered = ProfileStore::open(&path).expect("recovery never errors");
        let snap = recovered.snapshot();
        // Fold frames are written in ascending epoch order, so the
        // surviving epochs are a prefix of the originals — each one
        // bit-identical.
        let survived = epoch_folds(&snap);
        let mut originals = want_epochs.iter();
        for (epoch, fold) in &survived {
            let (want_epoch, want_fold) = originals.next().expect("prefix");
            prop_assert_eq!(epoch, want_epoch);
            prop_assert_eq!(fold, want_fold);
        }
        std::fs::remove_file(&path).ok();
    }
}
