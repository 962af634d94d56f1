//! Binary serialization of perf data files.
//!
//! The format is a simplified perf.data: a magic + version header followed
//! by length-prefixed records. Like the real format, a reader must survive
//! truncated files (collection can die mid-write) and unknown record types
//! (skipped via the length prefix).
//!
//! ```text
//! header   "HBBPPERF" (8 bytes)  version u32 LE
//! record   type u8 | payload_len u32 LE | payload
//! ```
//!
//! ```
//! use hbbp_perf::{codec, PerfData, PerfRecord};
//!
//! let mut data = PerfData::new();
//! data.push(PerfRecord::Comm { pid: 7, tid: 7, name: "demo".into() });
//! data.push(PerfRecord::Exit { pid: 7, time_cycles: 1234 });
//!
//! // write → read round-trips exactly; StreamEncoder produces the same
//! // bytes incrementally (see PerfSession::record_to_sink).
//! let bytes = codec::write(&data);
//! assert_eq!(codec::read(&bytes).unwrap(), data);
//! ```

use crate::view::{RecordView, SampleView};
use crate::{PerfData, PerfRecord};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use hbbp_program::Ring;
use hbbp_sim::{EventKind, EventSpec};
use std::fmt;

pub(crate) const MAGIC: &[u8; 8] = b"HBBPPERF";
pub(crate) const VERSION: u32 = 1;
pub(crate) const HEADER_LEN: usize = MAGIC.len() + 4;

const T_COMM: u8 = 1;
const T_MMAP: u8 = 2;
const T_FORK: u8 = 3;
const T_EXIT: u8 = 4;
const T_SAMPLE: u8 = 5;
const T_LOST: u8 = 6;

/// Errors reading a perf data stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The stream does not start with the magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The stream ended inside a record.
    Truncated,
    /// A record payload is malformed.
    Corrupt {
        /// Offending record type.
        record_type: u8,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::BadMagic => write!(f, "not a perf data stream (bad magic)"),
            ReadError::BadVersion { found } => {
                write!(f, "unsupported perf data version {found}")
            }
            ReadError::Truncated => write!(f, "truncated perf data stream"),
            ReadError::Corrupt { record_type } => {
                write!(f, "corrupt record of type {record_type}")
            }
        }
    }
}

impl std::error::Error for ReadError {}

/// Serialize a perf data file to bytes.
pub fn write(data: &PerfData) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + data.len() * 64);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    for record in data.records() {
        let payload = encode_payload(record);
        buf.put_u8(record_type(record));
        buf.put_u32_le(payload.len() as u32);
        buf.put_slice(&payload);
    }
    buf.freeze()
}

/// Deserialize a perf data file.
///
/// Unknown record types are skipped (forward compatibility); malformed or
/// truncated input is an error.
///
/// # Errors
///
/// Returns a [`ReadError`] describing the first problem encountered.
pub fn read(mut bytes: &[u8]) -> Result<PerfData, ReadError> {
    if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
        return Err(ReadError::BadMagic);
    }
    bytes.advance(MAGIC.len());
    let version = bytes.get_u32_le();
    if version != VERSION {
        return Err(ReadError::BadVersion { found: version });
    }
    let mut data = PerfData::new();
    while bytes.has_remaining() {
        if bytes.remaining() < 5 {
            return Err(ReadError::Truncated);
        }
        let rtype = bytes.get_u8();
        let len = bytes.get_u32_le() as usize;
        if bytes.remaining() < len {
            return Err(ReadError::Truncated);
        }
        let (payload, rest) = bytes.split_at(len);
        bytes = rest;
        match decode_payload(rtype, payload) {
            Ok(Some(record)) => data.push(record),
            Ok(None) => {} // unknown type skipped
            Err(()) => return Err(ReadError::Corrupt { record_type: rtype }),
        }
    }
    Ok(data)
}

/// Incremental encoder of the perf stream format onto any
/// [`std::io::Write`] — the write-side twin of [`crate::StreamDecoder`].
///
/// [`codec::write`](write()) needs the whole [`PerfData`] in memory;
/// `StreamEncoder` emits the identical bytes one record at a time, so a
/// collection session can stream straight onto a socket or a file that a
/// decoder tails concurrently. Byte-identity with the batch writer is
/// pinned by this module's tests.
///
/// As a [`crate::RecordSink`] it can terminate
/// [`crate::PerfSession::record_streaming`] directly; I/O errors raised
/// inside the sink callback are sticky and surface at
/// [`finish`](StreamEncoder::finish) (further records are dropped once an
/// error is recorded).
#[derive(Debug)]
pub struct StreamEncoder<W: std::io::Write> {
    writer: W,
    error: Option<std::io::Error>,
    records: u64,
}

impl<W: std::io::Write> StreamEncoder<W> {
    /// Start a stream: writes the magic + version header.
    ///
    /// # Errors
    ///
    /// Propagates the header write failure.
    pub fn new(mut writer: W) -> std::io::Result<StreamEncoder<W>> {
        writer.write_all(MAGIC)?;
        writer.write_all(&VERSION.to_le_bytes())?;
        Ok(StreamEncoder {
            writer,
            error: None,
            records: 0,
        })
    }

    /// Encode one record frame.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure; the same error is also
    /// kept sticky for [`finish`](StreamEncoder::finish).
    pub fn write_record(&mut self, record: &PerfRecord) -> std::io::Result<()> {
        if let Some(e) = &self.error {
            return Err(std::io::Error::new(e.kind(), e.to_string()));
        }
        let payload = encode_payload(record);
        let frame = |w: &mut W| -> std::io::Result<()> {
            w.write_all(&[record_type(record)])?;
            w.write_all(&(payload.len() as u32).to_le_bytes())?;
            w.write_all(&payload)
        };
        match frame(&mut self.writer) {
            Ok(()) => {
                self.records += 1;
                Ok(())
            }
            Err(e) => {
                self.error = Some(std::io::Error::new(e.kind(), e.to_string()));
                Err(e)
            }
        }
    }

    /// Records successfully encoded so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// End the stream: flush and hand the writer back, or report the
    /// first error swallowed by the [`crate::RecordSink`] path.
    ///
    /// # Errors
    ///
    /// Returns the sticky error from a failed [`crate::RecordSink`]
    /// delivery, or the flush failure.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: std::io::Write> crate::RecordSink for StreamEncoder<W> {
    fn record(&mut self, record: PerfRecord) {
        let _ = self.write_record(&record);
    }
}

fn record_type(record: &PerfRecord) -> u8 {
    match record {
        PerfRecord::Comm { .. } => T_COMM,
        PerfRecord::Mmap { .. } => T_MMAP,
        PerfRecord::Fork { .. } => T_FORK,
        PerfRecord::Exit { .. } => T_EXIT,
        PerfRecord::Sample(_) => T_SAMPLE,
        PerfRecord::Lost { .. } => T_LOST,
    }
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn encode_payload(record: &PerfRecord) -> BytesMut {
    let mut buf = BytesMut::new();
    match record {
        PerfRecord::Comm { pid, tid, name } => {
            buf.put_u32_le(*pid);
            buf.put_u32_le(*tid);
            put_string(&mut buf, name);
        }
        PerfRecord::Mmap {
            pid,
            addr,
            len,
            filename,
            ring,
        } => {
            buf.put_u32_le(*pid);
            buf.put_u64_le(*addr);
            buf.put_u64_le(*len);
            buf.put_u8(ring_code(*ring));
            put_string(&mut buf, filename);
        }
        PerfRecord::Fork {
            parent_pid,
            child_pid,
            time_cycles,
        } => {
            buf.put_u32_le(*parent_pid);
            buf.put_u32_le(*child_pid);
            buf.put_u64_le(*time_cycles);
        }
        PerfRecord::Exit { pid, time_cycles } => {
            buf.put_u32_le(*pid);
            buf.put_u64_le(*time_cycles);
        }
        PerfRecord::Sample(s) => {
            buf.put_u8(s.counter);
            buf.put_u8(s.event.kind.index() as u8);
            buf.put_u8(s.event.precise as u8);
            buf.put_u64_le(s.ip);
            buf.put_u64_le(s.time_cycles);
            buf.put_u32_le(s.pid);
            buf.put_u32_le(s.tid);
            buf.put_u8(ring_code(s.ring));
            buf.put_u16_le(s.lbr.len() as u16);
            for e in &s.lbr {
                buf.put_u64_le(e.from);
                buf.put_u64_le(e.to);
            }
        }
        PerfRecord::Lost { count } => buf.put_u64_le(*count),
    }
    buf
}

/// Decode one frame payload as an owned record: `Ok(None)` for an unknown
/// type, `Err` for a malformed payload. Samples are parsed once, by
/// [`decode_view`], and then materialized.
pub(crate) fn decode_payload(rtype: u8, mut p: &[u8]) -> Result<Option<PerfRecord>, ()> {
    fn need(p: &[u8], n: usize) -> Result<(), ()> {
        if p.remaining() < n {
            Err(())
        } else {
            Ok(())
        }
    }
    fn get_string(p: &mut &[u8]) -> Result<String, ()> {
        need(p, 2)?;
        let n = p.get_u16_le() as usize;
        need(p, n)?;
        let (s, rest) = p.split_at(n);
        let out = String::from_utf8(s.to_vec()).map_err(|_| ())?;
        *p = rest;
        Ok(out)
    }
    let record = match rtype {
        T_COMM => {
            need(p, 8)?;
            let pid = p.get_u32_le();
            let tid = p.get_u32_le();
            let name = get_string(&mut p)?;
            PerfRecord::Comm { pid, tid, name }
        }
        T_MMAP => {
            need(p, 21)?;
            let pid = p.get_u32_le();
            let addr = p.get_u64_le();
            let len = p.get_u64_le();
            let ring = ring_from_code(p.get_u8()).ok_or(())?;
            let filename = get_string(&mut p)?;
            PerfRecord::Mmap {
                pid,
                addr,
                len,
                filename,
                ring,
            }
        }
        T_FORK => {
            need(p, 16)?;
            PerfRecord::Fork {
                parent_pid: p.get_u32_le(),
                child_pid: p.get_u32_le(),
                time_cycles: p.get_u64_le(),
            }
        }
        T_EXIT => {
            need(p, 12)?;
            PerfRecord::Exit {
                pid: p.get_u32_le(),
                time_cycles: p.get_u64_le(),
            }
        }
        T_SAMPLE => return Ok(decode_view(rtype, p)?.map(RecordView::into_owned)),
        T_LOST => {
            need(p, 8)?;
            PerfRecord::Lost {
                count: p.get_u64_le(),
            }
        }
        _ => return Ok(None),
    };
    // A frame whose declared length exceeds what its payload actually
    // encodes is malformed (most likely a corrupted length prefix): a
    // decode must consume the payload exactly.
    if p.has_remaining() {
        return Err(());
    }
    Ok(Some(record))
}

/// Decode one frame payload as a borrowed [`RecordView`]: samples keep
/// their LBR stack as a raw slice of `p`, everything else delegates to
/// [`decode_payload`].
///
/// The validation verdict is pinned identical to [`decode_payload`] —
/// same `Ok(Some)`/`Ok(None)`/`Err` for every `(rtype, payload)` — so the
/// batch reader and the stream decoder reject exactly the same frames
/// (see `view_decode_agrees_with_owned_decode` below).
pub(crate) fn decode_view<'b>(rtype: u8, p: &'b [u8]) -> Result<Option<RecordView<'b>>, ()> {
    if rtype != T_SAMPLE {
        return Ok(decode_payload(rtype, p)?.map(RecordView::Other));
    }
    // Fixed sample header: counter u8, kind u8, precise u8, ip u64,
    // time u64, pid u32, tid u32, ring u8, lbr_count u16.
    const FIXED: usize = 3 + 8 + 8 + 4 + 4 + 1 + 2;
    if p.len() < FIXED {
        return Err(());
    }
    let counter = p[0];
    let kind = *EventKind::ALL.get(p[1] as usize).ok_or(())?;
    let precise = p[2] != 0;
    let ip = u64::from_le_bytes(p[3..11].try_into().expect("8 bytes"));
    let time_cycles = u64::from_le_bytes(p[11..19].try_into().expect("8 bytes"));
    let pid = u32::from_le_bytes(p[19..23].try_into().expect("4 bytes"));
    let tid = u32::from_le_bytes(p[23..27].try_into().expect("4 bytes"));
    let ring = ring_from_code(p[27]).ok_or(())?;
    let n = u16::from_le_bytes(p[28..30].try_into().expect("2 bytes")) as usize;
    let lbr_bytes = &p[FIXED..];
    // Exact consumption, like decode_payload: a declared length that does
    // not match `n` entries is corrupt.
    if lbr_bytes.len() != n * 16 {
        return Err(());
    }
    Ok(Some(RecordView::Sample(SampleView {
        counter,
        event: EventSpec { kind, precise },
        ip,
        time_cycles,
        pid,
        tid,
        ring,
        lbr_bytes,
    })))
}

fn ring_code(ring: Ring) -> u8 {
    match ring {
        Ring::User => 0,
        Ring::Kernel => 1,
    }
}

fn ring_from_code(code: u8) -> Option<Ring> {
    match code {
        0 => Some(Ring::User),
        1 => Some(Ring::Kernel),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PerfSample;
    use hbbp_sim::LbrEntry;

    fn sample_data() -> PerfData {
        let mut d = PerfData::new();
        d.push(PerfRecord::Comm {
            pid: 100,
            tid: 100,
            name: "povray".into(),
        });
        d.push(PerfRecord::Mmap {
            pid: 100,
            addr: 0x400000,
            len: 0x2000,
            filename: "povray.bin".into(),
            ring: Ring::User,
        });
        d.push(PerfRecord::Mmap {
            pid: 0,
            addr: 0xFFFF_FFFF_8100_0000,
            len: 0x1000,
            filename: "vmlinux".into(),
            ring: Ring::Kernel,
        });
        d.push(PerfRecord::Fork {
            parent_pid: 100,
            child_pid: 101,
            time_cycles: 5,
        });
        d.push(PerfRecord::Sample(PerfSample {
            counter: 1,
            event: EventSpec::br_inst_retired_near_taken(),
            ip: 0x400123,
            time_cycles: 999,
            pid: 100,
            tid: 100,
            ring: Ring::User,
            lbr: vec![
                LbrEntry {
                    from: 0x400100,
                    to: 0x400050,
                },
                LbrEntry {
                    from: 0x400080,
                    to: 0x400100,
                },
            ],
        }));
        d.push(PerfRecord::Lost { count: 7 });
        d.push(PerfRecord::Exit {
            pid: 100,
            time_cycles: 12345,
        });
        d
    }

    #[test]
    fn roundtrip() {
        let data = sample_data();
        let bytes = write(&data);
        let back = read(&bytes).expect("read");
        assert_eq!(back, data);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(read(b"NOTPERF!"), Err(ReadError::BadMagic));
        assert_eq!(read(b""), Err(ReadError::BadMagic));
    }

    #[test]
    fn stream_encoder_is_byte_identical_to_batch_writer() {
        let data = sample_data();
        let mut enc = StreamEncoder::new(Vec::new()).expect("header");
        for record in data.records() {
            enc.write_record(record).expect("frame");
        }
        assert_eq!(enc.records_written(), data.len() as u64);
        let bytes = enc.finish().expect("finish");
        assert_eq!(bytes, write(&data).to_vec());
    }

    #[test]
    fn stream_encoder_sink_errors_are_sticky_and_surface_at_finish() {
        /// Writer that accepts the header, then fails every write.
        #[derive(Debug)]
        struct Failing {
            budget: usize,
        }
        impl std::io::Write for Failing {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.budget >= buf.len() {
                    self.budget -= buf.len();
                    Ok(buf.len())
                } else {
                    Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "down"))
                }
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut enc = StreamEncoder::new(Failing { budget: HEADER_LEN }).expect("header fits");
        {
            let sink: &mut dyn crate::RecordSink = &mut enc;
            sink.record(PerfRecord::Lost { count: 1 });
            sink.record(PerfRecord::Lost { count: 2 });
        }
        assert_eq!(enc.records_written(), 0);
        let err = enc.finish().expect_err("sticky error");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = write(&sample_data()).to_vec();
        bytes[8] = 99;
        assert_eq!(read(&bytes), Err(ReadError::BadVersion { found: 99 }));
    }

    #[test]
    fn truncation_detected_at_every_cut() {
        let bytes = write(&sample_data()).to_vec();
        // Any cut strictly inside the stream (past the header) must yield
        // Truncated or a valid prefix — never a panic.
        for cut in 12..bytes.len() {
            match read(&bytes[..cut]) {
                Ok(_) | Err(ReadError::Truncated) => {}
                other => panic!("cut={cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_record_types_skipped() {
        let mut bytes = write(&sample_data()).to_vec();
        // Append an unknown record: type 200, 3-byte payload.
        bytes.push(200);
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        let back = read(&bytes).expect("unknown type skipped");
        assert_eq!(back.len(), sample_data().len());
    }

    #[test]
    fn view_decode_agrees_with_owned_decode() {
        // Every frame of the fixture, plus mutated payloads (truncated,
        // padded, bad kind index, bad ring code), must get the identical
        // verdict from decode_payload and decode_view.
        let data = sample_data();
        let mut frames: Vec<(u8, Vec<u8>)> = data
            .records()
            .iter()
            .map(|r| (record_type(r), encode_payload(r).to_vec()))
            .collect();
        let sample_payload = frames
            .iter()
            .find(|(t, _)| *t == T_SAMPLE)
            .expect("fixture has a sample")
            .1
            .clone();
        for cut in 0..sample_payload.len() {
            frames.push((T_SAMPLE, sample_payload[..cut].to_vec()));
        }
        let mut padded = sample_payload.clone();
        padded.push(0);
        frames.push((T_SAMPLE, padded));
        let mut bad_kind = sample_payload.clone();
        bad_kind[1] = 200;
        frames.push((T_SAMPLE, bad_kind));
        let mut bad_ring = sample_payload.clone();
        bad_ring[27] = 9;
        frames.push((T_SAMPLE, bad_ring));
        frames.push((200, vec![1, 2, 3]));
        for (rtype, payload) in frames {
            let owned = decode_payload(rtype, &payload);
            let view = decode_view(rtype, &payload);
            match (owned, view) {
                (Ok(Some(r)), Ok(Some(v))) => {
                    assert_eq!(v.into_owned(), r, "type {rtype}");
                }
                (Ok(None), Ok(None)) | (Err(()), Err(())) => {}
                (o, v) => panic!("type {rtype}: owned {o:?} vs view {v:?}"),
            }
        }
    }

    #[test]
    fn corrupt_sample_detected() {
        let mut d = PerfData::new();
        d.push(PerfRecord::Lost { count: 1 });
        let mut bytes = write(&d).to_vec();
        // Rewrite the record type to SAMPLE with a lost-payload (too short).
        let header = MAGIC.len() + 4;
        bytes[header] = T_SAMPLE;
        assert_eq!(
            read(&bytes),
            Err(ReadError::Corrupt {
                record_type: T_SAMPLE
            })
        );
    }
}
