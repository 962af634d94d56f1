//! Codec robustness properties: the incremental [`StreamDecoder`] must
//! agree with the batch reader [`codec::read`] on every input it can be
//! handed — arbitrary record zoos, arbitrary chunk splits (including
//! mid-header and mid-record cuts), truncated tails, and appended unknown
//! record types. The zero-copy fused drain ([`StreamDecoder::decode_into`])
//! must agree with the owned drain ([`StreamDecoder::next_record`])
//! record-for-record AND stat-for-stat on the same inputs — including
//! corrupted streams, which both reject with the same verdict.

use hbbp_perf::{
    codec, PerfData, PerfRecord, PerfSample, ReadError, RecordView, StreamDecoder, StreamStats,
    ViewSink,
};
use hbbp_program::Ring;
use hbbp_sim::{EventSpec, LbrEntry};
use proptest::prelude::*;

/// One arbitrary record from compact generator parameters.
fn record_from(kind: u8, a: u64, b: u64, lbr_len: usize) -> PerfRecord {
    match kind % 6 {
        0 => PerfRecord::Comm {
            pid: a as u32,
            tid: b as u32,
            name: format!("proc-{}", a % 100),
        },
        1 => PerfRecord::Mmap {
            pid: a as u32,
            addr: a,
            len: b | 1,
            filename: format!("mod-{}.bin", b % 10),
            ring: if a.is_multiple_of(2) {
                Ring::User
            } else {
                Ring::Kernel
            },
        },
        2 => PerfRecord::Fork {
            parent_pid: a as u32,
            child_pid: b as u32,
            time_cycles: a ^ b,
        },
        3 => PerfRecord::Exit {
            pid: a as u32,
            time_cycles: b,
        },
        4 => PerfRecord::Lost { count: a },
        _ => PerfRecord::Sample(PerfSample {
            counter: (a % 2) as u8,
            event: if a.is_multiple_of(2) {
                EventSpec::inst_retired_prec_dist()
            } else {
                EventSpec::br_inst_retired_near_taken()
            },
            ip: a,
            time_cycles: b,
            pid: (a % 9999) as u32,
            tid: (b % 9999) as u32,
            ring: if b.is_multiple_of(3) {
                Ring::Kernel
            } else {
                Ring::User
            },
            lbr: (0..lbr_len)
                .map(|i| LbrEntry {
                    from: a.wrapping_add(i as u64),
                    to: b.wrapping_add(i as u64),
                })
                .collect(),
        }),
    }
}

fn arb_data() -> impl Strategy<Value = PerfData> {
    proptest::collection::vec((0u8..6, any::<u64>(), any::<u64>(), 0usize..20), 0..40).prop_map(
        |specs| {
            specs
                .into_iter()
                .map(|(kind, a, b, lbr_len)| record_from(kind, a, b, lbr_len))
                .collect()
        },
    )
}

/// Split `bytes` into chunks at the given relative cut points.
fn chunks<'a>(bytes: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut points: Vec<usize> = cuts
        .iter()
        .map(|&c| if bytes.is_empty() { 0 } else { c % bytes.len() })
        .collect();
    points.sort_unstable();
    points.dedup();
    let mut out = Vec::new();
    let mut prev = 0;
    for p in points {
        out.push(&bytes[prev..p]);
        prev = p;
    }
    out.push(&bytes[prev..]);
    out
}

/// Feed chunks through a decoder, collecting records until exhaustion,
/// then finish. Returns the records plus the finish verdict.
fn stream_decode(pieces: &[&[u8]]) -> (Vec<PerfRecord>, Result<(), ReadError>) {
    let mut dec = StreamDecoder::new();
    let mut records = Vec::new();
    for piece in pieces {
        dec.feed(piece);
        loop {
            match dec.next_record() {
                Ok(Some(r)) => records.push(r),
                Ok(None) => break,
                Err(e) => return (records, Err(e)),
            }
        }
    }
    (records, dec.finish().map(|_| ()))
}

/// [`ViewSink`] that materializes every view, for comparing the fused
/// drain against the owned drain.
struct Collect(Vec<PerfRecord>);

impl ViewSink for Collect {
    fn view(&mut self, view: &RecordView<'_>) {
        self.0.push(view.to_record());
    }
}

/// Feed chunks through a decoder, draining with `next_record` after each
/// chunk. Returns the records plus the full finish verdict (stats on
/// success, the poisoning error otherwise).
#[allow(clippy::type_complexity)]
fn drain_owned(
    mut dec: StreamDecoder,
    pieces: &[&[u8]],
) -> (Vec<PerfRecord>, Result<StreamStats, ReadError>) {
    let mut records = Vec::new();
    for piece in pieces {
        dec.feed(piece);
        loop {
            match dec.next_record() {
                Ok(Some(r)) => records.push(r),
                Ok(None) => break,
                Err(e) => return (records, Err(e)),
            }
        }
    }
    (records, dec.finish())
}

/// [`drain_owned`]'s fused twin: drain with `decode_into` after each chunk.
#[allow(clippy::type_complexity)]
fn drain_fused(
    mut dec: StreamDecoder,
    pieces: &[&[u8]],
) -> (Vec<PerfRecord>, Result<StreamStats, ReadError>) {
    let mut sink = Collect(Vec::new());
    for piece in pieces {
        dec.feed(piece);
        if let Err(e) = dec.decode_into(&mut sink) {
            return (sink.0, Err(e));
        }
    }
    (sink.0, dec.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → split anywhere → stream decode ≡ batch decode.
    #[test]
    fn chunked_stream_equals_batch_read(
        data in arb_data(),
        cuts in proptest::collection::vec(0usize..1_000_000, 0..12),
    ) {
        let bytes = codec::write(&data);
        let pieces = chunks(&bytes, &cuts);
        let (records, finish) = stream_decode(&pieces);
        let batch = codec::read(&bytes).expect("valid encoding");
        prop_assert_eq!(finish, Ok(()));
        prop_assert_eq!(records, batch.records());
    }

    /// A truncated tail yields the batch reader's record prefix plus the
    /// batch reader's exact error verdict, under any chunking.
    #[test]
    fn truncated_tail_matches_batch_verdict(
        data in arb_data(),
        cut_frac in 0.0f64..1.0,
        cuts in proptest::collection::vec(0usize..1_000_000, 0..6),
    ) {
        let bytes = codec::write(&data);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let prefix = &bytes[..cut.min(bytes.len())];
        let pieces = chunks(prefix, &cuts);
        let (records, finish) = stream_decode(&pieces);
        match codec::read(prefix) {
            Ok(batch) => {
                prop_assert_eq!(finish, Ok(()));
                prop_assert_eq!(records, batch.records());
            }
            Err(e) => {
                // Streaming still yields the longest valid record prefix;
                // cut the batch stream back record by record to find it.
                prop_assert_eq!(finish, Err(e));
                let full = codec::read(&bytes).expect("valid encoding");
                prop_assert!(records.len() <= full.len());
                prop_assert_eq!(&records[..], &full.records()[..records.len()]);
            }
        }
    }

    /// Unknown record types spliced between valid frames are skipped by
    /// both readers, at any split.
    #[test]
    fn unknown_frames_skipped_identically(
        data in arb_data(),
        splice_at in 0usize..40,
        unknown_type in 7u8..255,
        payload in proptest::collection::vec(any::<u8>(), 0..30),
        cuts in proptest::collection::vec(0usize..1_000_000, 0..6),
    ) {
        // Re-encode with an unknown frame spliced at a record boundary.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&codec::write(&PerfData::new()));
        let n = data.len();
        let splice = splice_at % (n + 1);
        for (i, record) in data.records().iter().enumerate() {
            if i == splice {
                bytes.push(unknown_type);
                bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                bytes.extend_from_slice(&payload);
            }
            let mut one = PerfData::new();
            one.push(record.clone());
            bytes.extend_from_slice(&codec::write(&one)[12..]);
        }
        if splice == n {
            bytes.push(unknown_type);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        let pieces = chunks(&bytes, &cuts);
        let (records, finish) = stream_decode(&pieces);
        let batch = codec::read(&bytes).expect("unknown types are skippable");
        prop_assert_eq!(finish, Ok(()));
        prop_assert_eq!(records, batch.records());
    }

    /// Mid-header splits: cutting inside the 12-byte magic+version header
    /// never desynchronizes the decoder.
    #[test]
    fn mid_header_splits_are_safe(
        data in arb_data(),
        header_cut in 1usize..12,
    ) {
        let bytes = codec::write(&data);
        let pieces = [&bytes[..header_cut], &bytes[header_cut..]];
        let (records, finish) = stream_decode(&pieces);
        prop_assert_eq!(finish, Ok(()));
        prop_assert_eq!(records, codec::read(&bytes).expect("valid").records());
    }

    /// The fused zero-copy drain delivers the same records, the same
    /// stats, and the same verdict as the owned drain under any chunking.
    #[test]
    fn fused_drain_equals_owned_drain(
        data in arb_data(),
        cuts in proptest::collection::vec(0usize..1_000_000, 0..12),
    ) {
        let bytes = codec::write(&data);
        let pieces = chunks(&bytes, &cuts);
        let owned = drain_owned(StreamDecoder::new(), &pieces);
        let fused = drain_fused(StreamDecoder::new(), &pieces);
        prop_assert_eq!(fused, owned);
    }

    /// Fused ≡ owned holds on truncated tails too: same record prefix,
    /// same dropped-tail accounting, same error verdict.
    #[test]
    fn fused_drain_equals_owned_drain_on_truncated_tail(
        data in arb_data(),
        cut_frac in 0.0f64..1.0,
        cuts in proptest::collection::vec(0usize..1_000_000, 0..6),
    ) {
        let bytes = codec::write(&data);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let prefix = &bytes[..cut.min(bytes.len())];
        let pieces = chunks(prefix, &cuts);
        let owned = drain_owned(StreamDecoder::new(), &pieces);
        let fused = drain_fused(StreamDecoder::new(), &pieces);
        prop_assert_eq!(fused, owned);
    }

    /// Corrupting bytes mid-stream poisons both drains identically: the
    /// same records before the damage, then the same error (or, when the
    /// flips happen to leave a valid stream, the same records and stats).
    /// This is the case where the fused fast loop's own corruption check
    /// must match the slow path's.
    #[test]
    fn fused_drain_equals_owned_drain_on_corruption(
        data in arb_data(),
        corruptions in proptest::collection::vec((0usize..1_000_000, 1u8..=255), 1..4),
        cuts in proptest::collection::vec(0usize..1_000_000, 0..8),
    ) {
        let mut bytes = codec::write(&data).to_vec();
        // Flip bytes after the header, so the damage is in the frames.
        for (pos, xor) in corruptions {
            if bytes.len() > 12 {
                let i = 12 + pos % (bytes.len() - 12);
                bytes[i] ^= xor;
            }
        }
        let pieces = chunks(&bytes, &cuts);
        let owned = drain_owned(StreamDecoder::new(), &pieces);
        let fused = drain_fused(StreamDecoder::new(), &pieces);
        prop_assert_eq!(&fused, &owned);
        // The batch reader agrees on the verdict.
        match codec::read(&bytes) {
            Ok(batch) => {
                prop_assert_eq!(&owned.0[..], batch.records());
                prop_assert!(owned.1.is_ok());
            }
            Err(e) => prop_assert_eq!(owned.1, Err(e)),
        }
    }
}
