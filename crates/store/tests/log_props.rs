//! The store's log paths against references kept here:
//!
//! - the aggregates (`Snapshot::aggregate`, `epoch_aggregate`) against
//!   the big-integer exact sums of `hbbp-oracle`: per epoch and block the
//!   exact sum of the frames' values, then per block the exact sum of the
//!   rounded epoch values — bit for bit, `-0.0` and NaN included;
//! - `compact()` against a reference compaction written with an encoder
//!   of its own: identity, then per epoch its marker, its compacted
//!   frames (term *i* of each block's oracle expansion in frame *i*) and
//!   its windows, then the seal marker — byte for byte, whatever mix of
//!   counts, windows, epoch advances, merges and uncommitted deferred
//!   appends came before;
//! - `open` against a tail frame whose length word reaches past the end
//!   of the file.

use hbbp_isa::Mnemonic;
use hbbp_oracle::exact::{exact_expansion, exact_sum};
use hbbp_program::{Bbec, MnemonicMix, Ring};
use hbbp_store::{
    CountsRecord, ModuleSpan, ProfileStore, Snapshot, StoreIdentity, WindowRecord, COMPACTED_SOURCE,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The system allocator, recording the largest single request so a test
/// can tell whether a claimed length was ever allocated.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

static NEXT_FILE: AtomicU64 = AtomicU64::new(0);

fn tmp() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbbp-log-props-{}", std::process::id()));
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
        program: "log".into(),
        block_count: 32,
        modules: vec![
            ModuleSpan {
                name: "log.bin".into(),
                base: 0x400000,
                len: 0x4000,
                ring: Ring::User,
            },
            ModuleSpan {
                name: "vmlinux".into(),
                base: 0xFFFF_FFFF_8100_0000,
                len: 0x1000,
                ring: Ring::Kernel,
            },
        ],
    }
}

/// A count drawn from `(kind, bits)`: signed zeros, quiet and signalling
/// NaNs, and values with no short decimal form.
fn value(kind: u8, bits: u64) -> f64 {
    match kind % 8 {
        0 => -0.0,
        1 => 0.0,
        2 => f64::from_bits(0x7FF8_0000_0000_0000 | (bits & 0xFFFF)),
        3 => f64::from_bits(0x7FF0_0000_0000_0001 | (bits & 0xFFFF)),
        4 => -f64::from_bits(0x3FF0_0000_0000_0000 | (bits >> 12)),
        _ => f64::from_bits(0x3FF0_0000_0000_0000 | (bits >> 12)),
    }
}

/// `(addr step, kind, bits)` entries; later steps for the same address
/// overwrite earlier ones.
type Entries = Vec<(u8, u8, u64)>;

fn bbec_from(entries: &Entries) -> Bbec {
    let mut bbec = Bbec::new();
    for &(step, kind, bits) in entries {
        bbec.set(0x400000 + u64::from(step) * 4, value(kind, bits));
    }
    bbec
}

fn arb_entries() -> impl Strategy<Value = Entries> {
    proptest::collection::vec((0u8..24, any::<u8>(), any::<u64>()), 0..8)
}

fn bits(entries: impl IntoIterator<Item = (u64, f64)>) -> Vec<(u64, u64)> {
    entries.into_iter().map(|(a, c)| (a, c.to_bits())).collect()
}

// ---------------------------------------------------------------------
// The reference aggregates.

/// Each block's values over one epoch's frames.
fn epoch_values(snap: &Snapshot, epoch: u32) -> BTreeMap<u64, Vec<f64>> {
    let mut values: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (rec, _) in snap
        .counts
        .iter()
        .zip(&snap.counts_epochs)
        .filter(|(_, e)| **e == epoch)
    {
        for (addr, count) in rec.bbec.iter() {
            values.entry(addr).or_default().push(count);
        }
    }
    values
}

/// One epoch's aggregate: each block's exact sum, rounded.
fn reference_epoch(snap: &Snapshot, epoch: u32) -> BTreeMap<u64, f64> {
    epoch_values(snap, epoch)
        .into_iter()
        .map(|(addr, values)| (addr, exact_sum(&values)))
        .collect()
}

/// The exact sum of the rounded epoch aggregates, window-only epochs
/// included.
fn reference_aggregate(snap: &Snapshot) -> BTreeMap<u64, f64> {
    let mut values: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for epoch in snap.epochs() {
        for (addr, count) in reference_epoch(snap, epoch) {
            values.entry(addr).or_default().push(count);
        }
    }
    values
        .into_iter()
        .map(|(addr, values)| (addr, exact_sum(&values)))
        .collect()
}

/// One counts frame: `(epoch, source slot, seq, entries)`. Slot 3 is
/// [`COMPACTED_SOURCE`] with seq 0 — compacted frames of several shards
/// sharing one key.
type FrameSpec = (u8, u8, u8, Entries);

fn snapshot_of(frames: &[FrameSpec], window_epochs: &[u8]) -> Snapshot {
    let mut snap = Snapshot {
        identity: None,
        counts: Vec::new(),
        windows: Vec::new(),
        counts_epochs: Vec::new(),
        window_epochs: Vec::new(),
    };
    for (epoch, slot, seq, entries) in frames {
        let (source, seq) = match slot % 4 {
            3 => (COMPACTED_SOURCE, 0),
            s => (u32::from(s), u32::from(*seq % 3)),
        };
        snap.counts.push(CountsRecord {
            source,
            seq,
            ebs_samples: 1,
            lbr_samples: 1,
            bbec: bbec_from(entries),
        });
        snap.counts_epochs.push(u32::from(*epoch % 4));
    }
    // Window-only epochs sit above every counts epoch, and some windows
    // share an epoch with counts.
    for (index, epoch) in window_epochs.iter().enumerate() {
        snap.windows.push(window(0, index as u32, &[]));
        snap.window_epochs.push(u32::from(*epoch % 7));
    }
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The aggregates are the oracle's exact sums, bit for bit.
    #[test]
    fn exact_fold_matches_the_oracle(
        frames in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), arb_entries()),
            0..48,
        ),
        window_epochs in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        let snap = snapshot_of(&frames, &window_epochs);
        prop_assert_eq!(bits(snap.aggregate().iter()), bits(reference_aggregate(&snap)));
        for epoch in snap.epochs().into_iter().chain([99]) {
            prop_assert_eq!(
                bits(snap.epoch_aggregate(epoch).iter()),
                bits(reference_epoch(&snap, epoch)),
                "epoch {}",
                epoch
            );
        }
    }
}

// ---------------------------------------------------------------------
// The reference encoder and compaction.

fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// `type | payload_len | crc32(type, len, payload) | payload`.
fn frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let mut head = vec![kind];
    head.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut covered = head.clone();
    covered.extend_from_slice(payload);
    out.extend_from_slice(&head);
    out.extend_from_slice(&crc32(&covered).to_le_bytes());
    out.extend_from_slice(payload);
}

fn identity_frame(out: &mut Vec<u8>, id: &StoreIdentity) {
    let mut p = Vec::new();
    string(&mut p, &id.program);
    p.extend_from_slice(&id.block_count.to_le_bytes());
    p.extend_from_slice(&(id.modules.len() as u16).to_le_bytes());
    for m in &id.modules {
        string(&mut p, &m.name);
        p.extend_from_slice(&m.base.to_le_bytes());
        p.extend_from_slice(&m.len.to_le_bytes());
        p.push(match m.ring {
            Ring::User => 0,
            Ring::Kernel => 1,
        });
    }
    frame(out, 1, &p);
}

fn counts_frame(out: &mut Vec<u8>, rec: &CountsRecord) {
    let mut p = Vec::new();
    p.extend_from_slice(&rec.source.to_le_bytes());
    p.extend_from_slice(&rec.seq.to_le_bytes());
    p.extend_from_slice(&rec.ebs_samples.to_le_bytes());
    p.extend_from_slice(&rec.lbr_samples.to_le_bytes());
    p.extend_from_slice(&(rec.bbec.len() as u32).to_le_bytes());
    let mut prev = 0;
    for (addr, count) in rec.bbec.iter() {
        varint(&mut p, addr - prev);
        p.extend_from_slice(&count.to_bits().to_le_bytes());
        prev = addr;
    }
    frame(out, 2, &p);
}

fn window_frame(out: &mut Vec<u8>, w: &WindowRecord) {
    let mut p = Vec::new();
    p.extend_from_slice(&w.source.to_le_bytes());
    p.extend_from_slice(&w.index.to_le_bytes());
    for v in [w.start_cycles, w.end_cycles, w.ebs_samples, w.lbr_samples] {
        p.extend_from_slice(&v.to_le_bytes());
    }
    p.extend_from_slice(&(w.mix.len() as u32).to_le_bytes());
    for (mnemonic, count) in w.mix.iter() {
        varint(&mut p, u64::from(mnemonic.opcode()));
        p.extend_from_slice(&count.to_bits().to_le_bytes());
    }
    frame(out, 3, &p);
}

fn epoch_frame(out: &mut Vec<u8>, epoch: u32) {
    frame(out, 4, &epoch.to_le_bytes());
}

/// The compacted log of `snap` sealed into epoch `sealed`: identity, then
/// per epoch its marker (epoch 0 is implicit), its compacted frames under
/// `COMPACTED_SOURCE` (seqs continuing that source's sequence; frame *i*
/// holds term *i* of each block's oracle expansion, at least one frame,
/// the first with the epoch's sample totals) and its windows in log
/// order, then the seal marker.
fn reference_compaction(snap: &Snapshot, sealed: u32) -> Vec<u8> {
    let mut out = b"HBBPSTOR".to_vec();
    out.extend_from_slice(&1u32.to_le_bytes());
    identity_frame(&mut out, snap.identity.as_ref().expect("identity"));
    let mut next_fold = snap
        .counts
        .iter()
        .filter(|r| r.source == COMPACTED_SOURCE)
        .map(|r| r.seq + 1)
        .max()
        .unwrap_or(0);
    let mut marked = 0;
    for epoch in snap.epochs() {
        if epoch > marked {
            epoch_frame(&mut out, epoch);
            marked = epoch;
        }
        let members: Vec<&CountsRecord> = snap
            .counts
            .iter()
            .zip(&snap.counts_epochs)
            .filter(|(_, e)| **e == epoch)
            .map(|(r, _)| r)
            .collect();
        if !members.is_empty() {
            let expansions: Vec<(u64, Vec<f64>)> = epoch_values(snap, epoch)
                .into_iter()
                .map(|(addr, values)| (addr, exact_expansion(&values)))
                .collect();
            let depth = expansions.iter().map(|(_, t)| t.len()).max().unwrap_or(0);
            for i in 0..depth.max(1) {
                let mut bbec = Bbec::new();
                for (addr, terms) in &expansions {
                    if let Some(&t) = terms.get(i) {
                        bbec.set(*addr, t);
                    }
                }
                let first = i == 0;
                let frame = CountsRecord {
                    source: COMPACTED_SOURCE,
                    seq: next_fold,
                    ebs_samples: if first {
                        members.iter().map(|r| r.ebs_samples).sum()
                    } else {
                        0
                    },
                    lbr_samples: if first {
                        members.iter().map(|r| r.lbr_samples).sum()
                    } else {
                        0
                    },
                    bbec,
                };
                next_fold += 1;
                counts_frame(&mut out, &frame);
            }
        }
        for (w, e) in snap.windows.iter().zip(&snap.window_epochs) {
            if *e == epoch {
                window_frame(&mut out, w);
            }
        }
    }
    if sealed > marked {
        epoch_frame(&mut out, sealed);
    }
    out
}

fn window(source: u32, index: u32, mix: &[(u8, u64)]) -> WindowRecord {
    let mut m = MnemonicMix::new();
    for &(op, bits) in mix {
        let mnemonic = Mnemonic::from_opcode(u16::from(op) % 40).expect("opcode in range");
        m.add(mnemonic, value(5, bits));
    }
    WindowRecord {
        source,
        index,
        start_cycles: u64::from(index) * 1000,
        end_cycles: u64::from(index + 1) * 1000,
        ebs_samples: u64::from(index) + 3,
        lbr_samples: u64::from(source) + 5,
        mix: m,
    }
}

/// One step of a store's life.
#[derive(Debug, Clone)]
enum Op {
    Counts {
        source: u32,
        entries: Entries,
        deferred: bool,
    },
    Window {
        source: u32,
        index: u32,
        mix: Vec<(u8, u64)>,
        deferred: bool,
    },
    Advance,
    Commit,
    /// Merge a second store: counts and windows, compacted or not.
    Merge {
        entries: Vec<Entries>,
        windows: u8,
        compacted: bool,
    },
    Compact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..4, arb_entries(), any::<bool>()).prop_map(|(source, entries, deferred)| {
            Op::Counts {
                source,
                entries,
                deferred,
            }
        }),
        (
            0u32..4,
            0u32..6,
            proptest::collection::vec((any::<u8>(), any::<u64>()), 0..4),
            any::<bool>(),
        )
            .prop_map(|(source, index, mix, deferred)| Op::Window {
                source,
                index,
                mix,
                deferred,
            }),
        Just(Op::Advance),
        Just(Op::Commit),
        (
            proptest::collection::vec(arb_entries(), 0..3),
            0u8..3,
            any::<bool>(),
        )
            .prop_map(|(entries, windows, compacted)| Op::Merge {
                entries,
                windows,
                compacted,
            }),
        Just(Op::Compact),
    ]
}

/// Compact `store` and check the file against the reference compaction
/// of what the store held just before. `windows` is the test's own
/// record of every window appended or merged, with its epoch: the
/// snapshot's read-back must match it first.
fn compact_and_check(store: &mut ProfileStore, windows: &[(WindowRecord, u32)]) {
    let before = store.snapshot();
    let (want_windows, want_epochs): (Vec<_>, Vec<_>) = windows.iter().cloned().unzip();
    assert_eq!(before.windows, want_windows);
    assert_eq!(before.window_epochs, want_epochs);
    let want = reference_compaction(&before, store.current_epoch() + 1);
    store.compact().expect("compact");
    let got = std::fs::read(store.path()).expect("read compacted log");
    assert_eq!(got.len(), want.len(), "compacted length");
    assert!(got == want, "compacted bytes differ from the reference");
    assert_eq!(store.file_bytes(), want.len() as u64);
    assert_eq!(store.pending_bytes(), 0);
    // The compacted log reads back as the store now sees itself.
    let after = store.snapshot();
    assert_eq!(after.windows, before.windows);
    assert_eq!(after.window_epochs, before.window_epochs);
    assert_eq!(store.window_frames(), before.windows.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `compact()` writes exactly the reference compaction's bytes.
    #[test]
    fn compaction_matches_the_reference_byte_for_byte(
        ops in proptest::collection::vec(arb_op(), 0..16),
    ) {
        let path = tmp();
        let mut store = ProfileStore::open_with_identity(&path, identity()).expect("create");
        let mut windows = Vec::new();
        for (n, op) in ops.into_iter().enumerate() {
            match op {
                Op::Counts { source, entries, deferred } => {
                    let bbec = bbec_from(&entries);
                    if deferred {
                        store.append_counts_deferred(source, 2, 3, bbec).expect("append");
                    } else {
                        store.append_counts(source, 2, 3, bbec).expect("append");
                    }
                }
                Op::Window { source, index, mix, deferred } => {
                    let w = window(source, index, &mix);
                    windows.push((w.clone(), store.current_epoch()));
                    if deferred {
                        store.append_window_deferred(w).expect("window");
                    } else {
                        store.append_window(w).expect("window");
                    }
                }
                Op::Advance => {
                    store.advance_epoch().expect("advance");
                }
                Op::Commit => store.commit().expect("commit"),
                Op::Merge { entries, windows: merged_windows, compacted } => {
                    let other_path = path.with_extension(format!("other-{n}"));
                    let _ = std::fs::remove_file(&other_path);
                    let mut other =
                        ProfileStore::open_with_identity(&other_path, identity()).expect("other");
                    for (i, e) in entries.iter().enumerate() {
                        other.append_counts(10 + i as u32, 1, 1, bbec_from(e)).expect("other");
                    }
                    for index in 0..u32::from(merged_windows) {
                        let w = window(9, index, &[(1, 7)]);
                        windows.push((w.clone(), store.current_epoch()));
                        other.append_window(w).expect("other");
                    }
                    if compacted {
                        other.compact().expect("other compact");
                    }
                    store.merge_from(&other.snapshot()).expect("merge");
                    drop(other);
                    let _ = std::fs::remove_file(&other_path);
                }
                Op::Compact => compact_and_check(&mut store, &windows),
            }
        }
        // Whatever is still deferred is absorbed by the final compaction.
        compact_and_check(&mut store, &windows);
        drop(store);
        let reopened = ProfileStore::open(&path).expect("reopen");
        prop_assert_eq!(reopened.open_report().truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }
}

// ---------------------------------------------------------------------
// A length word past the end of the file.

/// A tail frame claiming 64 MiB of payload in a file of a few hundred
/// bytes is a torn tail: `open` truncates it and reports its bytes, and
/// never sizes a read (or an allocation) by the claim.
#[test]
fn a_length_word_past_the_end_of_the_file_is_truncated() {
    let path = tmp();
    let mut store = ProfileStore::open_with_identity(&path, identity()).expect("create");
    store
        .append_counts(1, 1, 1, bbec_from(&vec![(1, 5, 77)]))
        .expect("append");
    store
        .append_window(window(1, 0, &[(3, 9)]))
        .expect("window");
    let clean = store.file_bytes();
    let want = store.snapshot();
    drop(store);

    let mut bytes = std::fs::read(&path).expect("read");
    let mut tail = vec![3u8];
    let claim = 64usize << 20;
    tail.extend_from_slice(&(claim as u32).to_le_bytes());
    tail.extend_from_slice(&[0xAB; 4 + 20]);
    bytes.extend_from_slice(&tail);
    std::fs::write(&path, &bytes).expect("write");

    LARGEST.store(0, Ordering::Relaxed);
    let store = ProfileStore::open(&path).expect("open truncates, never fails");
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < claim / 4,
        "open made a {largest}-byte allocation for a {claim}-byte claim"
    );
    assert_eq!(store.open_report().truncated_bytes, tail.len() as u64);
    assert_eq!(store.file_bytes(), clean);
    assert_eq!(std::fs::metadata(&path).expect("stat").len(), clean);
    assert_eq!(store.snapshot(), want);
    drop(store);
    let store = ProfileStore::open(&path).expect("reopen");
    assert_eq!(store.open_report().truncated_bytes, 0);
    std::fs::remove_file(&path).ok();
}
