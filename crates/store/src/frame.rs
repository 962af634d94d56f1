//! The segment-log frame codec: CRC-framed, varint/delta-encoded records.
//!
//! A store file is a header followed by self-describing frames:
//!
//! ```text
//! header   "HBBPSTOR" (8 bytes)  version u32 LE
//! frame    type u8 | payload_len u32 LE | crc32 u32 LE | payload
//! ```
//!
//! The CRC (IEEE 802.3, over **type + length + payload** — the header
//! fields are covered too, so a flipped type byte cannot masquerade as a
//! skippable unknown frame) is what makes recovery decidable at the file
//! layer: a torn append, a bit flip, or a bogus length prefix all fail
//! the checksum, and [`crate::ProfileStore::open`] truncates the log at
//! the first frame that does. Frames of an unknown type whose checksum
//! verifies are skipped (forward compatibility), mirroring the perf
//! codec's unknown-record rule.
//!
//! Payload encodings favour the dominant frame: a [`CountsRecord`] holds a
//! BBEC whose block start addresses are ascending, so they are stored as
//! varint **deltas**; counts are `f64` and cross the file bit-exactly as
//! raw little-endian bits (the store's merge guarantees are bitwise, so no
//! textual or lossy form is acceptable).

use bytes::{Buf, BufMut, BytesMut};
use hbbp_isa::Mnemonic;
use hbbp_program::{Bbec, MnemonicMix, Ring};

pub(crate) const MAGIC: &[u8; 8] = b"HBBPSTOR";
pub(crate) const VERSION: u32 = 1;
pub(crate) const HEADER_LEN: usize = MAGIC.len() + 4;
/// Frame bytes before the payload: type + length + checksum.
pub(crate) const FRAME_OVERHEAD: usize = 1 + 4 + 4;

pub(crate) const T_IDENTITY: u8 = 1;
pub(crate) const T_COUNTS: u8 = 2;
pub(crate) const T_WINDOW: u8 = 3;
pub(crate) const T_EPOCH: u8 = 4;

/// CRC-32 (IEEE 802.3) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 over a sequence of byte slices (one running checksum).
pub(crate) fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    c ^ 0xFFFF_FFFF
}

/// CRC-32 of a byte slice.
#[cfg(test)]
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    crc32_parts(&[bytes])
}

/// One module's address span inside a [`StoreIdentity`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleSpan {
    /// Module file name (e.g. `phased.bin`).
    pub name: String,
    /// Load base address.
    pub base: u64,
    /// Text span length in bytes.
    pub len: u64,
    /// Privilege ring of the module's code.
    pub ring: Ring,
}

/// The program/module identity a store is keyed by.
///
/// Profiles are only mergeable when they were collected against the same
/// address space: the identity header pins the program name, the block
/// count of its static map and every module's load span, and
/// [`crate::ProfileStore`] refuses to append to or merge stores whose
/// identities differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreIdentity {
    /// Program name.
    pub program: String,
    /// Number of blocks in the static block map (a cheap fingerprint of
    /// the text contents, over and above the module spans).
    pub block_count: u32,
    /// Every module's load span, in program order.
    pub modules: Vec<ModuleSpan>,
}

/// One recording's profile: the per-block execution counts a single
/// analyzed run (one collector connection, one perf.data file) produced.
///
/// The store's aggregate is the correctly rounded exact sum of these
/// records, per epoch — see [`crate::Snapshot::aggregate`].
#[derive(Debug, Clone, PartialEq)]
pub struct CountsRecord {
    /// Collector-chosen origin id (client/session id in the daemon).
    pub source: u32,
    /// Per-source sequence number, assigned by the store on append.
    pub seq: u32,
    /// EBS-event samples the recording contributed.
    pub ebs_samples: u64,
    /// LBR-event samples the recording contributed.
    pub lbr_samples: u64,
    /// The recording's HBBP per-block execution counts.
    pub bbec: Bbec,
}

/// One closed analysis window's timeline record: where in (cycle) time a
/// recording was, and what instruction mix it executed there.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRecord {
    /// Collector-chosen origin id.
    pub source: u32,
    /// Window emission index within its recording.
    pub index: u32,
    /// Window start in core cycles.
    pub start_cycles: u64,
    /// Window end in core cycles (exclusive for time windows).
    pub end_cycles: u64,
    /// EBS-event samples in the window.
    pub ebs_samples: u64,
    /// LBR-event samples in the window.
    pub lbr_samples: u64,
    /// The window's HBBP instruction mix.
    pub mix: MnemonicMix,
}

/// A decoded segment frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// The program/module identity header.
    Identity(StoreIdentity),
    /// One recording's counts.
    Counts(CountsRecord),
    /// One window timeline record.
    Window(WindowRecord),
    /// An epoch boundary: every counts/window frame after this marker
    /// belongs to the named epoch (frames before the first marker belong
    /// to epoch 0). Markers must ascend within a log; readers of version
    /// 1 stores written before epochs existed skip nothing (no markers),
    /// and pre-epoch readers skip the marker as an unknown type.
    Epoch(u32),
}

/// Outcome of attempting to decode one frame from a byte slice.
#[derive(Debug)]
pub(crate) enum FrameOutcome {
    /// A frame was consumed. `frame` is `None` for a checksum-valid frame
    /// of an unknown type (skipped for forward compatibility).
    Frame {
        /// The decoded frame, if of a known type.
        frame: Option<Frame>,
        /// Bytes consumed from the input.
        consumed: usize,
    },
    /// The slice ends inside the frame (torn write / still being written).
    Incomplete,
    /// Checksum or payload decode failure: the log is damaged here.
    Corrupt,
}

pub(crate) fn put_varint(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

pub(crate) fn get_varint(p: &mut &[u8]) -> Result<u64, ()> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !p.has_remaining() || shift >= 64 {
            return Err(());
        }
        let b = p.get_u8();
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_string(p: &mut &[u8]) -> Result<String, ()> {
    if p.remaining() < 2 {
        return Err(());
    }
    let n = p.get_u16_le() as usize;
    if p.remaining() < n {
        return Err(());
    }
    let (s, rest) = p.split_at(n);
    let out = String::from_utf8(s.to_vec()).map_err(|_| ())?;
    *p = rest;
    Ok(out)
}

fn ring_code(ring: Ring) -> u8 {
    match ring {
        Ring::User => 0,
        Ring::Kernel => 1,
    }
}

fn ring_from_code(code: u8) -> Result<Ring, ()> {
    match code {
        0 => Ok(Ring::User),
        1 => Ok(Ring::Kernel),
        _ => Err(()),
    }
}

/// Delta/varint encode an address-keyed BBEC (addresses ascend, counts
/// cross as raw `f64` bits).
fn put_bbec(buf: &mut BytesMut, bbec: &Bbec) {
    buf.put_u32_le(bbec.len() as u32);
    let mut prev = 0u64;
    for (addr, count) in bbec.iter() {
        put_varint(buf, addr - prev);
        buf.put_u64_le(count.to_bits());
        prev = addr;
    }
}

fn get_bbec(p: &mut &[u8]) -> Result<Bbec, ()> {
    if p.remaining() < 4 {
        return Err(());
    }
    let n = p.get_u32_le() as usize;
    let mut bbec = Bbec::new();
    let mut prev = 0u64;
    for _ in 0..n {
        let delta = get_varint(p)?;
        if p.remaining() < 8 {
            return Err(());
        }
        let count = f64::from_bits(p.get_u64_le());
        let addr = prev.checked_add(delta).ok_or(())?;
        bbec.set(addr, count);
        prev = addr;
    }
    Ok(bbec)
}

fn put_mix(buf: &mut BytesMut, mix: &MnemonicMix) {
    buf.put_u32_le(mix.len() as u32);
    for (mnemonic, count) in mix.iter() {
        put_varint(buf, u64::from(mnemonic.opcode()));
        buf.put_u64_le(count.to_bits());
    }
}

/// Walk an encoded mix, handing each entry to `visit`: the one parser
/// behind both decoding a window and checking one.
fn walk_mix(p: &mut &[u8], mut visit: impl FnMut(Mnemonic, f64)) -> Result<(), ()> {
    if p.remaining() < 4 {
        return Err(());
    }
    let n = p.get_u32_le() as usize;
    for _ in 0..n {
        let opcode = u16::try_from(get_varint(p)?).map_err(|_| ())?;
        let mnemonic = Mnemonic::from_opcode(opcode).ok_or(())?;
        if p.remaining() < 8 {
            return Err(());
        }
        visit(mnemonic, f64::from_bits(p.get_u64_le()));
    }
    Ok(())
}

fn get_mix(p: &mut &[u8]) -> Result<MnemonicMix, ()> {
    let mut mix = MnemonicMix::new();
    walk_mix(p, |mnemonic, count| mix.add(mnemonic, count))?;
    Ok(mix)
}

/// Bytes of a window payload before its mix.
const WINDOW_HEAD: usize = 40;

fn frame_type(frame: &Frame) -> u8 {
    match frame {
        Frame::Identity(_) => T_IDENTITY,
        Frame::Counts(_) => T_COUNTS,
        Frame::Window(_) => T_WINDOW,
        Frame::Epoch(_) => T_EPOCH,
    }
}

fn encode_payload(frame: &Frame) -> BytesMut {
    let mut buf = BytesMut::new();
    match frame {
        Frame::Identity(id) => {
            put_string(&mut buf, &id.program);
            buf.put_u32_le(id.block_count);
            buf.put_u16_le(id.modules.len() as u16);
            for m in &id.modules {
                put_string(&mut buf, &m.name);
                buf.put_u64_le(m.base);
                buf.put_u64_le(m.len);
                buf.put_u8(ring_code(m.ring));
            }
        }
        Frame::Counts(c) => {
            buf.put_u32_le(c.source);
            buf.put_u32_le(c.seq);
            buf.put_u64_le(c.ebs_samples);
            buf.put_u64_le(c.lbr_samples);
            put_bbec(&mut buf, &c.bbec);
        }
        Frame::Window(w) => {
            buf.put_u32_le(w.source);
            buf.put_u32_le(w.index);
            buf.put_u64_le(w.start_cycles);
            buf.put_u64_le(w.end_cycles);
            buf.put_u64_le(w.ebs_samples);
            buf.put_u64_le(w.lbr_samples);
            put_mix(&mut buf, &w.mix);
        }
        Frame::Epoch(epoch) => {
            buf.put_u32_le(*epoch);
        }
    }
    buf
}

fn decode_payload(rtype: u8, mut p: &[u8]) -> Result<Option<Frame>, ()> {
    let frame = match rtype {
        T_IDENTITY => {
            let program = get_string(&mut p)?;
            if p.remaining() < 6 {
                return Err(());
            }
            let block_count = p.get_u32_le();
            let n = p.get_u16_le() as usize;
            let mut modules = Vec::with_capacity(n);
            for _ in 0..n {
                let name = get_string(&mut p)?;
                if p.remaining() < 17 {
                    return Err(());
                }
                let base = p.get_u64_le();
                let len = p.get_u64_le();
                let ring = ring_from_code(p.get_u8())?;
                modules.push(ModuleSpan {
                    name,
                    base,
                    len,
                    ring,
                });
            }
            Frame::Identity(StoreIdentity {
                program,
                block_count,
                modules,
            })
        }
        T_COUNTS => {
            if p.remaining() < 24 {
                return Err(());
            }
            let source = p.get_u32_le();
            let seq = p.get_u32_le();
            let ebs_samples = p.get_u64_le();
            let lbr_samples = p.get_u64_le();
            let bbec = get_bbec(&mut p)?;
            Frame::Counts(CountsRecord {
                source,
                seq,
                ebs_samples,
                lbr_samples,
                bbec,
            })
        }
        T_WINDOW => {
            if p.remaining() < WINDOW_HEAD {
                return Err(());
            }
            let source = p.get_u32_le();
            let index = p.get_u32_le();
            let start_cycles = p.get_u64_le();
            let end_cycles = p.get_u64_le();
            let ebs_samples = p.get_u64_le();
            let lbr_samples = p.get_u64_le();
            let mix = get_mix(&mut p)?;
            Frame::Window(WindowRecord {
                source,
                index,
                start_cycles,
                end_cycles,
                ebs_samples,
                lbr_samples,
                mix,
            })
        }
        T_EPOCH => {
            if p.remaining() < 4 {
                return Err(());
            }
            Frame::Epoch(p.get_u32_le())
        }
        _ => return Ok(None),
    };
    // A decode must consume the payload exactly (same rule as the perf
    // codec): leftover bytes mean a corrupted length prefix.
    if p.has_remaining() {
        return Err(());
    }
    Ok(Some(frame))
}

/// Encode one full frame (type, length, checksum, payload).
pub(crate) fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = encode_payload(frame);
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    out.push(frame_type(frame));
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = crc32_parts(&[&out[..5], &payload]);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Total length (overhead + payload) of the frame starting `bytes`, as
/// its length word declares; `None` while the frame header is not all
/// there.
pub(crate) fn frame_len(bytes: &[u8]) -> Option<usize> {
    let header = bytes.get(..FRAME_OVERHEAD)?;
    let len = u32::from_le_bytes(header[1..5].try_into().expect("4 length bytes"));
    Some(FRAME_OVERHEAD + len as usize)
}

/// Whether a whole frame's checksum holds (over type, length and
/// payload).
pub(crate) fn crc_holds(frame: &[u8]) -> bool {
    let crc = u32::from_le_bytes(frame[5..9].try_into().expect("4 crc bytes"));
    crc32_parts(&[&frame[..5], &frame[FRAME_OVERHEAD..]]) == crc
}

/// Whether a whole frame of type [`T_WINDOW`] passes its checksum and
/// decodes — the verdict [`read_frame`] gives — without building the
/// window or its mix. Replay only counts windows, so this is all it
/// needs of one.
pub(crate) fn window_frame_holds(frame: &[u8]) -> bool {
    if !crc_holds(frame) {
        return false;
    }
    let Some(mut p) = frame[FRAME_OVERHEAD..].get(WINDOW_HEAD..) else {
        return false;
    };
    walk_mix(&mut p, |_, _| {}).is_ok() && !p.has_remaining()
}

/// Try to decode the frame at the start of `bytes`.
pub(crate) fn read_frame(bytes: &[u8]) -> FrameOutcome {
    let Some(frame) = frame_len(bytes).and_then(|len| bytes.get(..len)) else {
        return FrameOutcome::Incomplete;
    };
    if !crc_holds(frame) {
        return FrameOutcome::Corrupt;
    }
    match decode_payload(frame[0], &frame[FRAME_OVERHEAD..]) {
        Ok(decoded) => FrameOutcome::Frame {
            frame: decoded,
            consumed: frame.len(),
        },
        Err(()) => FrameOutcome::Corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counts() -> CountsRecord {
        let mut bbec = Bbec::new();
        bbec.set(0x400000, 128.5);
        bbec.set(0x400010, 3.0);
        bbec.set(0x7fff_0000_0000, 1.0 / 3.0);
        CountsRecord {
            source: 7,
            seq: 2,
            ebs_samples: 100,
            lbr_samples: 42,
            bbec,
        }
    }

    fn sample_identity() -> StoreIdentity {
        StoreIdentity {
            program: "phased".into(),
            block_count: 99,
            modules: vec![
                ModuleSpan {
                    name: "phased.bin".into(),
                    base: 0x400000,
                    len: 0x2000,
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

    fn sample_window() -> WindowRecord {
        let mut mix = MnemonicMix::new();
        mix.add(Mnemonic::Add, 1000.25);
        mix.add(Mnemonic::Addps, 17.0);
        WindowRecord {
            source: 7,
            index: 3,
            start_cycles: 1_000_000,
            end_cycles: 2_000_000,
            ebs_samples: 55,
            lbr_samples: 44,
            mix,
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE 802.3 CRC of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn varint_roundtrips_at_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut p: &[u8] = &buf;
            assert_eq!(get_varint(&mut p), Ok(v));
            assert!(!p.has_remaining());
        }
    }

    #[test]
    fn frames_roundtrip_bit_exactly() {
        for frame in [
            Frame::Identity(sample_identity()),
            Frame::Counts(sample_counts()),
            Frame::Window(sample_window()),
            Frame::Epoch(0),
            Frame::Epoch(7),
            Frame::Epoch(u32::MAX),
        ] {
            let bytes = encode_frame(&frame);
            match read_frame(&bytes) {
                FrameOutcome::Frame {
                    frame: Some(back),
                    consumed,
                } => {
                    assert_eq!(back, frame);
                    assert_eq!(consumed, bytes.len());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn counts_preserve_f64_bits() {
        // Counts must cross the file bitwise, including values that have
        // no short decimal form.
        let rec = sample_counts();
        let bytes = encode_frame(&Frame::Counts(rec.clone()));
        let FrameOutcome::Frame {
            frame: Some(Frame::Counts(back)),
            ..
        } = read_frame(&bytes)
        else {
            panic!("decode");
        };
        for (addr, count) in rec.bbec.iter() {
            assert_eq!(back.bbec.get(addr).to_bits(), count.to_bits());
        }
    }

    #[test]
    fn bit_flips_anywhere_in_the_frame_are_caught() {
        // The checksum covers type + length + payload: no single-bit flip
        // may decode as a frame (a flip that inflates the length field
        // reads as Incomplete, which recovery also truncates).
        for frame in [Frame::Counts(sample_counts()), Frame::Epoch(3)] {
            let bytes = encode_frame(&frame);
            for at in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[at] ^= 1 << bit;
                    assert!(
                        !matches!(read_frame(&bad), FrameOutcome::Frame { .. }),
                        "flip at byte {at} bit {bit} slipped through"
                    );
                }
            }
        }
    }

    #[test]
    fn epoch_frame_payload_is_exactly_four_bytes() {
        // An epoch payload with trailing bytes means a corrupted length
        // prefix (the consume-exactly rule), even if the CRC was forged
        // over the longer span.
        let payload = [5u8, 0, 0, 0, 9];
        let mut bytes = vec![T_EPOCH];
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = crc32_parts(&[&bytes, &payload]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(read_frame(&bytes), FrameOutcome::Corrupt));
    }

    #[test]
    fn truncation_is_incomplete_not_corrupt() {
        let bytes = encode_frame(&Frame::Window(sample_window()));
        for cut in 0..bytes.len() {
            assert!(
                matches!(read_frame(&bytes[..cut]), FrameOutcome::Incomplete),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn unknown_type_with_valid_crc_is_skipped() {
        let payload = b"future frame kind";
        let mut bytes = vec![200u8];
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let crc = crc32_parts(&[&bytes, payload]);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes.extend_from_slice(payload);
        match read_frame(&bytes) {
            FrameOutcome::Frame {
                frame: None,
                consumed,
            } => assert_eq!(consumed, bytes.len()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn overlong_length_prefix_is_corrupt() {
        // Declare two extra payload bytes: the CRC no longer matches the
        // claimed span.
        let mut bytes = encode_frame(&Frame::Counts(sample_counts()));
        let len = u32::from_le_bytes(bytes[1..5].try_into().unwrap());
        bytes[1..5].copy_from_slice(&(len + 2).to_le_bytes());
        bytes.extend_from_slice(&[0, 0]);
        assert!(matches!(read_frame(&bytes), FrameOutcome::Corrupt));
    }
}
