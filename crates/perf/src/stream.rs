//! Incremental decoding of perf data streams.
//!
//! [`codec::read`](crate::codec::read) needs the whole file in memory;
//! [`StreamDecoder`] decodes the same format from byte chunks of arbitrary
//! size as they arrive — from a socket, a pipe, or a file tailed while the
//! collector is still writing. Partial records carry over between chunks,
//! the internal buffer stays bounded by the largest partial record plus a
//! compaction threshold (consumed bytes are dropped lazily, not memmoved
//! on every chunk). Decoding is strict: a corrupt frame poisons the
//! decoder, so a damaged stream is an error, never a partial result.
//!
//! Records can be drained owned ([`next_record`](StreamDecoder::next_record)),
//! as zero-copy views borrowing the buffer
//! ([`next_view`](StreamDecoder::next_view)), or pushed into a
//! [`ViewSink`] en masse ([`decode_into`](StreamDecoder::decode_into)) —
//! the fused fast path that hoists state dispatch out of the frame loop.
//!
//! Decode semantics are shared with the batch reader (both dispatch into
//! the same frame parser), and the property suite in
//! `crates/perf/tests/stream_props.rs` pins them equal: feeding a valid
//! encoded file through any chunking yields exactly the records
//! [`codec::read`](crate::codec::read) produces, and a truncated tail
//! fails with the same [`ReadError`].
//!
//! ```
//! use hbbp_perf::{codec, PerfData, PerfRecord, StreamDecoder};
//!
//! let mut data = PerfData::new();
//! data.push(PerfRecord::Lost { count: 3 });
//! let bytes = codec::write(&data);
//!
//! let mut decoder = StreamDecoder::new();
//! let mut back = PerfData::new();
//! for chunk in bytes.chunks(5) {
//!     decoder.feed(chunk);
//!     while let Some(record) = decoder.next_record().unwrap() {
//!         back.push(record);
//!     }
//! }
//! decoder.finish().unwrap();
//! assert_eq!(back, data);
//! ```

use crate::codec::{self, ReadError};
use crate::view::{RecordView, ViewSink};
use crate::PerfRecord;

/// A consumed prefix at least this large is always compacted away on the
/// next [`StreamDecoder::feed`], even if it is less than half the buffer.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Decoder progress counters, returned by [`StreamDecoder::finish`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Records decoded and yielded.
    pub records: u64,
    /// Frames of unknown record type skipped (forward compatibility).
    pub unknown_skipped: u64,
    /// Buffer compactions performed (consumed-prefix memmoves in
    /// [`feed`](StreamDecoder::feed); cheap `clear`s of a fully consumed
    /// buffer are not counted).
    pub compactions: u64,
}

#[derive(Debug, Clone)]
enum State {
    /// Waiting for the 12-byte magic + version header.
    Header,
    /// Framed records.
    Records,
    /// A fatal error was diagnosed; it is returned on every further call.
    Failed(ReadError),
}

/// Incremental perf-stream decoder: [`feed`](StreamDecoder::feed) byte
/// chunks, drain records with [`next_record`](StreamDecoder::next_record),
/// then [`finish`](StreamDecoder::finish) to validate end-of-stream.
#[derive(Debug, Clone)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted away on the next feed).
    pos: usize,
    state: State,
    stats: StreamStats,
}

impl Default for StreamDecoder {
    fn default() -> StreamDecoder {
        StreamDecoder::new()
    }
}

impl StreamDecoder {
    /// A decoder with the same verdicts as [`codec::read`], incrementally.
    pub fn new() -> StreamDecoder {
        StreamDecoder {
            buf: Vec::new(),
            pos: 0,
            state: State::Header,
            stats: StreamStats::default(),
        }
    }

    /// Append a chunk of stream bytes.
    ///
    /// The consumed prefix of the internal buffer is compacted away only
    /// when it is worth the memmove — when everything buffered has been
    /// consumed (a free `clear`), or the prefix reaches the compaction
    /// threshold (64 KiB) or half the buffer. Amortized over a stream,
    /// each byte is moved at most once, and the buffer stays bounded by
    /// the largest partial record plus the threshold — independent of
    /// total stream length.
    ///
    /// Compaction moves bytes, so it only happens here, between decode
    /// calls — never while a [`RecordView`] borrows the buffer (the
    /// borrow checker enforces that ordering).
    pub fn feed(&mut self, chunk: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes currently buffered and not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn compact(&mut self) {
        if self.pos == 0 {
            return;
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= COMPACT_THRESHOLD || self.pos >= self.buf.len() / 2 {
            self.buf.drain(..self.pos);
            self.pos = 0;
            self.stats.compactions += 1;
        }
    }

    /// The running progress counters, readable mid-stream (e.g. to
    /// harvest partial stats from a stream that will never reach
    /// [`finish`](StreamDecoder::finish) cleanly).
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    fn fail(&mut self, error: ReadError) -> ReadError {
        self.state = State::Failed(error.clone());
        error
    }

    /// Decode the next complete record from the buffered bytes, owned.
    ///
    /// Equivalent to [`next_view`](StreamDecoder::next_view) followed by
    /// [`RecordView::into_owned`]; both run the same state machine.
    ///
    /// Returns `Ok(None)` when more bytes are needed (call
    /// [`feed`](StreamDecoder::feed) and retry).
    ///
    /// # Errors
    ///
    /// Returns the same [`ReadError`] verdicts as [`codec::read`]: a bad
    /// magic/version or a corrupt frame is fatal. Once an error is
    /// returned, the decoder is poisoned and repeats it.
    pub fn next_record(&mut self) -> Result<Option<PerfRecord>, ReadError> {
        Ok(self.next_view()?.map(RecordView::into_owned))
    }

    /// Decode the next complete record as a zero-copy [`RecordView`]
    /// borrowing the internal buffer.
    ///
    /// The view is valid until the next call on this decoder; convert
    /// with [`RecordView::into_owned`] to keep it. Returns `Ok(None)`
    /// when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Identical verdicts to [`next_record`](StreamDecoder::next_record).
    pub fn next_view(&mut self) -> Result<Option<RecordView<'_>>, ReadError> {
        loop {
            match &self.state {
                State::Failed(e) => return Err(e.clone()),
                State::Header => {
                    let avail = &self.buf[self.pos..];
                    // Reject a wrong magic as soon as the prefix diverges;
                    // a partial-but-matching prefix waits for more bytes.
                    let n = avail.len().min(codec::MAGIC.len());
                    if avail[..n] != codec::MAGIC[..n] {
                        // `self.fail` borrows all of self, which the
                        // borrow checker rejects in a view-returning loop;
                        // poison the state field directly instead.
                        let e = ReadError::BadMagic;
                        self.state = State::Failed(e.clone());
                        return Err(e);
                    }
                    if avail.len() < codec::HEADER_LEN {
                        return Ok(None);
                    }
                    let version = u32::from_le_bytes(
                        avail[codec::MAGIC.len()..codec::HEADER_LEN]
                            .try_into()
                            .expect("4 header bytes"),
                    );
                    if version != codec::VERSION {
                        let e = ReadError::BadVersion { found: version };
                        self.state = State::Failed(e.clone());
                        return Err(e);
                    }
                    self.pos += codec::HEADER_LEN;
                    self.state = State::Records;
                }
                State::Records => {
                    let avail = &self.buf[self.pos..];
                    if avail.len() < 5 {
                        return Ok(None);
                    }
                    let rtype = avail[0];
                    let len = u32::from_le_bytes(avail[1..5].try_into().expect("4 length bytes"))
                        as usize;
                    if avail.len() < 5 + len {
                        return Ok(None);
                    }
                    let payload = &avail[5..5 + len];
                    match codec::decode_view(rtype, payload) {
                        Ok(Some(view)) => {
                            self.pos += 5 + len;
                            self.stats.records += 1;
                            return Ok(Some(view));
                        }
                        Ok(None) => {
                            self.pos += 5 + len;
                            self.stats.unknown_skipped += 1;
                        }
                        Err(()) => {
                            let e = ReadError::Corrupt { record_type: rtype };
                            self.state = State::Failed(e.clone());
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// Drain every complete record in the buffer into `sink` as zero-copy
    /// views, returning how many records were delivered.
    ///
    /// This is the fused fast path: while the decoder sits in the
    /// record-framing state, a tight inner loop scans `type | len`
    /// headers and decodes views with the per-record state-machine
    /// dispatch and poison checks hoisted out. The other states (stream
    /// header, poisoned) go through [`next_view`](StreamDecoder::next_view)
    /// — the two paths share the frame parser and are pinned equivalent
    /// by the property suite.
    ///
    /// Returns when the buffer holds no complete frame; feed more bytes
    /// and call again.
    ///
    /// # Errors
    ///
    /// Identical verdicts to [`next_record`](StreamDecoder::next_record);
    /// records already delivered to the sink stay delivered.
    pub fn decode_into<S: ViewSink + ?Sized>(&mut self, sink: &mut S) -> Result<u64, ReadError> {
        let mut delivered = 0u64;
        loop {
            if matches!(self.state, State::Records) {
                // Fast loop: plain framing.
                loop {
                    let avail = self.buf.len() - self.pos;
                    if avail < 5 {
                        return Ok(delivered);
                    }
                    let rtype = self.buf[self.pos];
                    let len = u32::from_le_bytes(
                        self.buf[self.pos + 1..self.pos + 5]
                            .try_into()
                            .expect("4 length bytes"),
                    ) as usize;
                    if avail < 5 + len {
                        return Ok(delivered);
                    }
                    let payload = &self.buf[self.pos + 5..self.pos + 5 + len];
                    match codec::decode_view(rtype, payload) {
                        Ok(Some(view)) => {
                            self.pos += 5 + len;
                            self.stats.records += 1;
                            delivered += 1;
                            sink.view(&view);
                        }
                        Ok(None) => {
                            self.pos += 5 + len;
                            self.stats.unknown_skipped += 1;
                        }
                        Err(()) => {
                            return Err(self.fail(ReadError::Corrupt { record_type: rtype }));
                        }
                    }
                }
            }
            match self.next_view()? {
                Some(view) => {
                    delivered += 1;
                    sink.view(&view);
                }
                None => return Ok(delivered),
            }
        }
    }

    /// Declare end-of-stream and validate what remains buffered.
    ///
    /// # Errors
    ///
    /// Mirrors [`codec::read`] on a truncated input: an incomplete header
    /// is `BadMagic`, a partial record is `Truncated`, and a previously
    /// diagnosed fatal error is repeated.
    pub fn finish(self) -> Result<StreamStats, ReadError> {
        match self.state {
            State::Failed(e) => Err(e),
            State::Header => Err(ReadError::BadMagic),
            State::Records if self.pos < self.buf.len() => Err(ReadError::Truncated),
            State::Records => Ok(self.stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{codec, PerfData, PerfSample};
    use hbbp_program::Ring;
    use hbbp_sim::{EventSpec, LbrEntry};

    fn sample_data() -> PerfData {
        let mut d = PerfData::new();
        d.push(PerfRecord::Comm {
            pid: 7,
            tid: 7,
            name: "stream".into(),
        });
        d.push(PerfRecord::Mmap {
            pid: 7,
            addr: 0x400000,
            len: 0x1000,
            filename: "stream.bin".into(),
            ring: Ring::User,
        });
        for i in 0..5u64 {
            d.push(PerfRecord::Sample(PerfSample {
                counter: (i % 2) as u8,
                event: if i % 2 == 0 {
                    EventSpec::inst_retired_prec_dist()
                } else {
                    EventSpec::br_inst_retired_near_taken()
                },
                ip: 0x400100 + i,
                time_cycles: 100 * i,
                pid: 7,
                tid: 7,
                ring: Ring::User,
                lbr: vec![
                    LbrEntry {
                        from: 0x400120,
                        to: 0x400100
                    };
                    i as usize
                ],
            }));
        }
        d.push(PerfRecord::Exit {
            pid: 7,
            time_cycles: 999,
        });
        d
    }

    fn drain(decoder: &mut StreamDecoder) -> Vec<PerfRecord> {
        let mut out = Vec::new();
        while let Some(r) = decoder.next_record().expect("no decode error") {
            out.push(r);
        }
        out
    }

    #[test]
    fn whole_stream_in_one_chunk() {
        let data = sample_data();
        let bytes = codec::write(&data);
        let mut dec = StreamDecoder::new();
        dec.feed(&bytes);
        let records = drain(&mut dec);
        assert_eq!(records, data.records());
        let stats = dec.finish().unwrap();
        assert_eq!(stats.records, data.len() as u64);
    }

    #[test]
    fn byte_at_a_time_chunking() {
        let data = sample_data();
        let bytes = codec::write(&data);
        let mut dec = StreamDecoder::new();
        let mut records = Vec::new();
        for &b in bytes.iter() {
            dec.feed(&[b]);
            records.extend(drain(&mut dec));
            // The buffer never accumulates consumed bytes.
            assert!(dec.buffered() <= bytes.len());
        }
        assert_eq!(records, data.records());
        dec.finish().unwrap();
    }

    #[test]
    fn buffer_stays_bounded_by_partial_record() {
        let data = sample_data();
        let bytes = codec::write(&data);
        let mut dec = StreamDecoder::new();
        let mut max_buffered = 0;
        for chunk in bytes.chunks(3) {
            dec.feed(chunk);
            let _ = drain(&mut dec);
            max_buffered = max_buffered.max(dec.buffered());
        }
        // Largest single frame in the fixture is well under 200 bytes; the
        // buffer must never approach the whole-stream size.
        assert!(max_buffered < 200, "buffered {max_buffered}");
        assert!(bytes.len() > 200);
    }

    struct Collect(Vec<PerfRecord>);

    impl ViewSink for Collect {
        fn view(&mut self, view: &RecordView<'_>) {
            self.0.push(view.to_record());
        }
    }

    #[test]
    fn decode_into_matches_next_record_drain() {
        let data = sample_data();
        let bytes = codec::write(&data);
        for chunk_len in [1usize, 3, 7, 64, bytes.len()] {
            let mut dec = StreamDecoder::new();
            let mut sink = Collect(Vec::new());
            let mut delivered = 0;
            for chunk in bytes.chunks(chunk_len) {
                dec.feed(chunk);
                delivered += dec.decode_into(&mut sink).expect("no decode error");
            }
            assert_eq!(sink.0, data.records(), "chunk_len={chunk_len}");
            assert_eq!(delivered, data.len() as u64);
            let stats = dec.finish().expect("clean end");
            assert_eq!(stats.records, data.len() as u64);
        }
    }

    #[test]
    fn next_view_parses_samples_in_place() {
        let data = sample_data();
        let bytes = codec::write(&data);
        let mut dec = StreamDecoder::new();
        dec.feed(&bytes);
        let mut owned = Vec::new();
        loop {
            match dec.next_view().expect("no decode error") {
                Some(RecordView::Sample(s)) => {
                    // Lazily decoded entries must match the eager decode.
                    let entries: Vec<_> = s.lbr_entries().collect();
                    assert_eq!(entries.len(), s.lbr_len());
                    owned.push(PerfRecord::Sample(s.to_sample()));
                }
                Some(RecordView::Other(r)) => owned.push(r),
                None => break,
            }
        }
        assert_eq!(owned, data.records());
    }

    #[test]
    fn consumed_prefix_compacts_past_threshold() {
        // A stream much larger than COMPACT_THRESHOLD, fed in mid-size
        // chunks: lazy compaction must still decode everything and keep
        // the buffer bounded by threshold + chunk, not stream length.
        let mut d = PerfData::new();
        for i in 0..40_000u64 {
            d.push(PerfRecord::Lost { count: i });
        }
        let bytes = codec::write(&d);
        assert!(bytes.len() > 4 * COMPACT_THRESHOLD);
        let mut dec = StreamDecoder::new();
        let mut n = 0u64;
        let chunk_len = 4096;
        for chunk in bytes.chunks(chunk_len) {
            dec.feed(chunk);
            while let Some(r) = dec.next_record().expect("no decode error") {
                assert_eq!(r, PerfRecord::Lost { count: n });
                n += 1;
            }
            assert!(dec.buf.len() <= COMPACT_THRESHOLD + 2 * chunk_len);
        }
        assert_eq!(n, 40_000);
        dec.finish().expect("clean end");
    }

    #[test]
    fn bad_magic_is_fatal_and_sticky() {
        let mut dec = StreamDecoder::new();
        dec.feed(b"NOTAPERF");
        assert_eq!(dec.next_record(), Err(ReadError::BadMagic));
        assert_eq!(dec.next_record(), Err(ReadError::BadMagic));
        assert_eq!(dec.finish(), Err(ReadError::BadMagic));
    }

    #[test]
    fn early_magic_mismatch_detected_on_first_byte() {
        let mut dec = StreamDecoder::new();
        dec.feed(b"X");
        assert_eq!(dec.next_record(), Err(ReadError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = codec::write(&sample_data()).to_vec();
        bytes[8] = 42;
        let mut dec = StreamDecoder::new();
        dec.feed(&bytes);
        assert_eq!(dec.next_record(), Err(ReadError::BadVersion { found: 42 }));
    }

    #[test]
    fn truncated_tail_matches_batch_reader() {
        let data = sample_data();
        let bytes = codec::write(&data);
        for cut in 0..bytes.len() {
            let mut dec = StreamDecoder::new();
            dec.feed(&bytes[..cut]);
            let mut records = Vec::new();
            let decode_err = loop {
                match dec.next_record() {
                    Ok(Some(r)) => records.push(r),
                    Ok(None) => break None,
                    Err(e) => break Some(e),
                }
            };
            assert_eq!(decode_err, None, "valid prefix never errors mid-decode");
            let finish = dec.finish();
            match codec::read(&bytes[..cut]) {
                Ok(batch) => {
                    assert_eq!(records, batch.records(), "cut={cut}");
                    assert!(finish.is_ok(), "cut={cut}");
                }
                Err(e) => {
                    // The streaming decoder yields the valid record prefix,
                    // then reports the identical verdict at finish.
                    assert_eq!(finish, Err(e), "cut={cut}");
                }
            }
        }
    }

    #[test]
    fn unknown_record_types_skipped() {
        let mut bytes = codec::write(&sample_data()).to_vec();
        bytes.push(200);
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut dec = StreamDecoder::new();
        dec.feed(&bytes);
        let records = drain(&mut dec);
        assert_eq!(records.len(), sample_data().len());
        let stats = dec.finish().unwrap();
        assert_eq!(stats.unknown_skipped, 1);
    }

    #[test]
    fn strict_mode_fails_on_corrupt_frame() {
        let mut d = PerfData::new();
        d.push(PerfRecord::Lost { count: 1 });
        let mut bytes = codec::write(&d).to_vec();
        bytes[codec::HEADER_LEN] = 5; // retype the LOST frame as SAMPLE
        let mut dec = StreamDecoder::new();
        dec.feed(&bytes);
        assert_eq!(
            dec.next_record(),
            Err(ReadError::Corrupt { record_type: 5 })
        );
    }

    #[test]
    fn strict_mode_rejects_overlong_length_prefix() {
        // A frame whose declared length exceeds its actual payload is
        // Corrupt for both readers (the decode must consume it exactly).
        let mut d = PerfData::new();
        d.push(PerfRecord::Lost { count: 9 });
        let mut bytes = codec::write(&d).to_vec();
        // LOST payload is 8 bytes; declare 10 and pad with two junk bytes.
        let len_at = codec::HEADER_LEN + 1;
        bytes[len_at..len_at + 4].copy_from_slice(&10u32.to_le_bytes());
        bytes.extend_from_slice(&[0, 0]);
        assert_eq!(
            codec::read(&bytes),
            Err(ReadError::Corrupt { record_type: 6 })
        );
        let mut dec = StreamDecoder::new();
        dec.feed(&bytes);
        assert_eq!(
            dec.next_record(),
            Err(ReadError::Corrupt { record_type: 6 })
        );
    }

    #[test]
    fn empty_stream_is_bad_magic_like_batch() {
        let dec = StreamDecoder::new();
        assert_eq!(dec.finish(), Err(ReadError::BadMagic));
        assert_eq!(codec::read(b""), Err(ReadError::BadMagic));
    }
}
