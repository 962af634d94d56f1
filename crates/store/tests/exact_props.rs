//! The store's exact aggregation against the big-integer sums of
//! `hbbp-oracle`:
//!
//! - an epoch's aggregate is the oracle's correctly rounded exact sum,
//!   on subnormals, neighbours of `±f64::MAX`, heavy cancellation, `-0.0`,
//!   NaN payloads and the infinities — through a snapshot, a live store's
//!   running sums, a compaction and a reopen;
//! - any permutation of the frames, split across one to four stores,
//!   each compacted or not, gives the same bits for every epoch and for
//!   the global aggregate;
//! - a single-frame epoch yields each count `c` as `0.0 + c`;
//! - live stores' partials combine exactly: open epochs superaccumulator
//!   by superaccumulator, beside sealed ones, as the oracle sums.

use hbbp_oracle::exact::exact_sum;
use hbbp_program::{Bbec, Ring};
use hbbp_store::{CountsRecord, ModuleSpan, Partials, ProfileStore, Snapshot, StoreIdentity};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_FILE: AtomicU64 = AtomicU64::new(0);

fn tmp() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbbp-exact-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!(
        "case-{}.hbbp",
        NEXT_FILE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn identity() -> StoreIdentity {
    StoreIdentity {
        program: "exact".into(),
        block_count: 8,
        modules: vec![ModuleSpan {
            name: "exact.bin".into(),
            base: 0x400000,
            len: 0x100,
            ring: Ring::User,
        }],
    }
}

/// A count of kind `kind`: signed zeros, subnormals, neighbours of
/// `±f64::MAX`, NaNs with payloads and either sign, infinities, and
/// finite values over the whole exponent range.
fn value(kind: u8, bits: u64) -> f64 {
    let sign = bits & 1 << 63;
    let frac = bits & ((1 << 52) - 1);
    match kind % 10 {
        0 => f64::from_bits(sign),
        1 => f64::from_bits(sign | frac),
        2 => f64::from_bits(sign | (f64::MAX.to_bits() - (bits >> 52) % 4)),
        3 => f64::from_bits(sign | 0x7FF0_0000_0000_0000 | frac.max(1)),
        4 => f64::from_bits(sign | 0x7FF0_0000_0000_0000),
        // Ones and small integers: sums that cancel exactly.
        5 => {
            let n = ((bits >> 52) % 5) as f64;
            if sign == 0 {
                n
            } else {
                -n
            }
        }
        _ => f64::from_bits(sign | ((bits >> 52) % 0x7FF) << 52 | frac),
    }
}

/// `(kind, bits, mirrored)`: a mirrored value is added with its negation
/// as well, so sums cancel heavily.
type ValueSpec = (u8, u64, bool);

fn values(specs: &[ValueSpec]) -> Vec<f64> {
    let mut out = Vec::new();
    for &(kind, bits, mirrored) in specs {
        let v = value(kind, bits);
        out.push(v);
        if mirrored {
            out.push(-v);
        }
    }
    out
}

/// Rare kinds (NaN, infinity, `f64::MAX`) one time in four, so that most
/// cases exercise the finite sum.
fn arb_specs(max: usize) -> impl Strategy<Value = Vec<ValueSpec>> {
    proptest::collection::vec(
        (any::<u8>(), any::<u64>(), any::<bool>()).prop_map(|(kind, bits, mirrored)| {
            let kind = if kind % 4 == 0 {
                kind / 4
            } else {
                [0, 1, 5, 6][kind as usize % 4]
            };
            (kind, bits, mirrored)
        }),
        1..max,
    )
}

const BLOCK: u64 = 0x400010;

fn one_block(count: f64) -> Bbec {
    let mut bbec = Bbec::new();
    bbec.set(BLOCK, count);
    bbec
}

fn frame(source: u32, bbec: Bbec) -> CountsRecord {
    CountsRecord {
        source,
        seq: 0,
        ebs_samples: 1,
        lbr_samples: 2,
        bbec,
    }
}

fn snapshot(frames: Vec<(u32, CountsRecord)>) -> Snapshot {
    let (counts_epochs, counts) = frames.into_iter().unzip();
    Snapshot {
        identity: None,
        counts,
        windows: Vec::new(),
        counts_epochs,
        window_epochs: Vec::new(),
    }
}

/// Every epoch's aggregate and the global one, as bit patterns.
type Bits = (BTreeMap<u32, Vec<(u64, u64)>>, Vec<(u64, u64)>);

fn bits_of(snap: &Snapshot) -> Bits {
    let bits = |b: Bbec| b.iter().map(|(a, c)| (a, c.to_bits())).collect::<Vec<_>>();
    let epochs = snap
        .epochs()
        .into_iter()
        .map(|e| (e, bits(snap.epoch_aggregate(e))))
        .collect();
    (epochs, bits(snap.aggregate()))
}

/// Concatenate snapshots the way an offline reader of several shards does.
fn concat(snaps: impl IntoIterator<Item = Snapshot>) -> Snapshot {
    let mut all = snapshot(Vec::new());
    for s in snaps {
        all.counts.extend(s.counts);
        all.counts_epochs.extend(s.counts_epochs);
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One block's values, one frame each: the epoch aggregate is the
    /// oracle's exact sum through every path that computes it.
    #[test]
    fn sums_match_the_oracle(specs in arb_specs(12)) {
        let values = values(&specs);
        let want = exact_sum(&values).to_bits();
        let snap = snapshot(
            values.iter().enumerate().map(|(i, &v)| (0, frame(i as u32, one_block(v)))).collect(),
        );
        prop_assert_eq!(snap.epoch_aggregate(0).get(BLOCK).to_bits(), want, "{:?}", values);
        prop_assert_eq!(snap.aggregate().get(BLOCK).to_bits(), want);

        let path = tmp();
        let mut store = ProfileStore::open_with_identity(&path, identity()).expect("create");
        for (i, &v) in values.iter().enumerate() {
            store.append_counts_deferred(i as u32, 1, 2, one_block(v)).expect("append");
        }
        prop_assert_eq!(store.partials().aggregate().get(BLOCK).to_bits(), want, "running sums");
        store.compact().expect("compact");
        prop_assert_eq!(store.partials().aggregate().get(BLOCK).to_bits(), want, "compacted");
        prop_assert_eq!(store.snapshot().aggregate().get(BLOCK).to_bits(), want);
        drop(store);
        let store = ProfileStore::open(&path).expect("reopen");
        prop_assert_eq!(store.partials().aggregate().get(BLOCK).to_bits(), want, "replayed");
        std::fs::remove_file(&path).ok();
    }

    /// The global aggregate is the oracle's exact sum of the oracle's
    /// epoch sums.
    #[test]
    fn epochs_sum_like_the_oracle(epochs in proptest::collection::vec(arb_specs(5), 1..4)) {
        let mut frames = Vec::new();
        let mut epoch_sums = Vec::new();
        for (e, specs) in epochs.iter().enumerate() {
            let values = values(specs);
            epoch_sums.push(exact_sum(&values));
            for &v in &values {
                frames.push((e as u32, frame(0, one_block(v))));
            }
        }
        let snap = snapshot(frames);
        for (e, sum) in epoch_sums.iter().enumerate() {
            prop_assert_eq!(snap.epoch_aggregate(e as u32).get(BLOCK).to_bits(), sum.to_bits());
        }
        prop_assert_eq!(
            snap.aggregate().get(BLOCK).to_bits(),
            exact_sum(&epoch_sums).to_bits()
        );
    }

    /// Permute the frames, split them across one to four stores, compact
    /// some: every epoch and the global aggregate keep their bits.
    #[test]
    fn any_order_and_split_gives_the_same_bits(
        frames in proptest::collection::vec(
            (0u32..3, proptest::collection::vec((0u8..4, any::<u8>(), any::<u64>()), 0..4)),
            1..16,
        ),
        order in proptest::collection::vec(any::<u64>(), 16),
        split in proptest::collection::vec(0usize..4, 16),
        stores in 1usize..5,
        compacted in proptest::collection::vec(any::<bool>(), 4),
    ) {
        let records: Vec<(u32, CountsRecord)> = frames
            .iter()
            .enumerate()
            .map(|(i, (epoch, entries))| {
                let mut bbec = Bbec::new();
                for &(block, kind, bits) in entries {
                    bbec.set(0x400000 + u64::from(block) * 16, value(kind, bits));
                }
                (*epoch, frame(i as u32, bbec))
            })
            .collect();
        let want = bits_of(&snapshot(records.clone()));

        // One shuffled order for every store; each store takes its share
        // epoch by epoch, as a store's epochs only ascend.
        let mut shuffled: Vec<usize> = (0..records.len()).collect();
        shuffled.sort_by_key(|&i| order[i]);
        let mut snaps = Vec::new();
        for (s, &compact) in compacted.iter().enumerate().take(stores) {
            let path = tmp();
            let mut store = ProfileStore::open_with_identity(&path, identity()).expect("create");
            let mut mine: Vec<usize> =
                shuffled.iter().copied().filter(|&i| split[i] % stores == s).collect();
            mine.sort_by_key(|&i| records[i].0);
            for i in mine {
                let (epoch, rec) = &records[i];
                while store.current_epoch() < *epoch {
                    store.advance_epoch().expect("advance");
                }
                store
                    .append_counts_deferred(rec.source, 1, 2, rec.bbec.clone())
                    .expect("append");
            }
            if compact {
                store.compact().expect("compact");
            }
            snaps.push(store.snapshot());
            std::fs::remove_file(&path).ok();
        }
        let got = bits_of(&concat(snaps));
        prop_assert_eq!(got, want);
    }

    /// A single-frame epoch yields each of the frame's counts as `0.0 + c`.
    #[test]
    fn a_single_frame_epoch_is_its_frame(
        entries in proptest::collection::vec((0u8..8, any::<u8>(), any::<u64>()), 0..8),
    ) {
        let mut bbec = Bbec::new();
        for &(block, kind, bits) in &entries {
            bbec.set(0x400000 + u64::from(block) * 16, value(kind, bits));
        }
        let snap = snapshot(vec![(3, frame(1, bbec.clone()))]);
        let got = snap.epoch_aggregate(3);
        prop_assert_eq!(got.len(), bbec.len());
        for (addr, c) in bbec.iter() {
            // Computed at run time: a constant-folded NaN loses its payload.
            let want = (std::hint::black_box(0.0) + c).to_bits();
            prop_assert_eq!(got.get(addr).to_bits(), want, "{:#x}", addr);
            prop_assert_eq!(snap.aggregate().get(addr).to_bits(), want);
        }
    }

    /// One block's values split across one to four live stores and
    /// combined: each store's epoch 0 is open (its superaccumulators
    /// merge chunk-wise with the others'), or — for a store that
    /// compacted and then took a frame in epoch 1 — sealed as
    /// expansions. Epoch 0 and the global aggregate are the oracle's.
    #[test]
    fn live_partials_combine_like_the_oracle(
        specs in arb_specs(12),
        split in proptest::collection::vec(0usize..4, 24),
        stores in 1usize..5,
        sealed in proptest::collection::vec(any::<bool>(), 4),
    ) {
        let values = values(&specs);
        let epoch_0 = exact_sum(&values);
        let mut parts = Vec::new();
        for (s, &seal) in sealed.iter().enumerate().take(stores) {
            let path = tmp();
            let mut store = ProfileStore::open_with_identity(&path, identity()).expect("create");
            for (i, &v) in values.iter().enumerate() {
                if split[i] % stores == s {
                    store.append_counts_deferred(i as u32, 1, 2, one_block(v)).expect("append");
                }
            }
            if seal {
                store.compact().expect("compact");
                store.append_counts_deferred(99, 1, 2, one_block(0.0)).expect("epoch 1");
            }
            parts.push(store.partials());
            std::fs::remove_file(&path).ok();
        }
        let mut epoch_sums = vec![epoch_0];
        if sealed.iter().take(stores).any(|&s| s) {
            epoch_sums.push(0.0);
        }
        let combined = Partials::combine(parts);
        prop_assert_eq!(
            combined.epoch_aggregate(0).get(BLOCK).to_bits(),
            epoch_0.to_bits(),
            "{:?}",
            values
        );
        prop_assert_eq!(
            combined.aggregate().get(BLOCK).to_bits(),
            exact_sum(&epoch_sums).to_bits()
        );
    }
}
