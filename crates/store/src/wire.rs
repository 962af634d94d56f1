//! The daemon wire protocol and the collector-side client.
//!
//! Everything on the wire is a length-prefixed message:
//!
//! ```text
//! message   op u8 | payload_len u32 LE | payload
//! ```
//!
//! A connection performs one operation. The interesting one is
//! [`OP_STREAM`]: after the message (whose payload is the collector's
//! `source` id), the client sends a **perf stream in the `hbbp-perf`
//! binary codec** — exactly the bytes `codec::write` / `StreamEncoder`
//! produce — and half-closes the socket; end-of-stream is the frame
//! boundary. The daemon decodes it incrementally with a strict
//! [`hbbp_perf::StreamDecoder`], so a client that dies mid-frame is
//! detected (truncated stream) and contributes no counts to the
//! aggregate (window timeline records already flushed mid-stream
//! remain — see the daemon docs).
//!
//! Query responses carry mix counts as raw `f64` bits so that a queried
//! aggregate compares bit-identically against a local analysis.

use crate::store::EpochStats;
use bytes::{Buf, BufMut, BytesMut};
use hbbp_isa::Mnemonic;
use hbbp_perf::{PerfData, PerfSession, RecordError};
use hbbp_program::MnemonicMix;
use hbbp_workloads::Workload;
use std::fmt;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

/// Stream a recording into the daemon (payload: `source` u32).
pub const OP_STREAM: u8 = 1;
/// Query the full aggregate instruction mix.
pub const OP_QUERY_MIX: u8 = 2;
/// Query the top-K mnemonics of the aggregate mix (payload: `k` u32).
pub const OP_QUERY_TOP: u8 = 3;
/// Query daemon/store statistics.
pub const OP_STATS: u8 = 4;
/// Ask every partition to tier-compact its log (one fold per epoch,
/// per-epoch aggregates preserved bit-exactly) and seal the current
/// epoch: appends after the reply land in a fresh epoch.
pub const OP_COMPACT: u8 = 5;
/// List the store's epochs with per-epoch frame/sample accounting.
pub const OP_EPOCHS: u8 = 6;
/// Query the top-K mix movers between two epochs (payload: `epoch_a`,
/// `epoch_b`, `k`, all u32). The reply reuses the `MIX` encoding with
/// **signed** `current − baseline` deltas as the `f64` bits.
pub const OP_DRIFT: u8 = 7;
/// Query the daemon's self-observability metrics: a full snapshot of the
/// lock-free registry (counters, gauges with high-water marks, log2
/// histograms) covering the acceptor, workers, writers and the streaming
/// decode/analyze hot path.
pub const OP_METRICS: u8 = 8;
/// Stop accepting connections and shut down.
pub const OP_SHUTDOWN: u8 = 255;

/// Generic acknowledgement.
pub const RESP_OK: u8 = 100;
/// Reply to [`OP_STREAM`]: ingestion accounting.
pub const RESP_INGESTED: u8 = 101;
/// Reply to the mix queries: `(mnemonic, count)` entries.
pub const RESP_MIX: u8 = 102;
/// Reply to [`OP_STATS`].
pub const RESP_STATS: u8 = 104;
/// Reply to [`OP_EPOCHS`]: per-epoch accounting entries.
pub const RESP_EPOCHS: u8 = 105;
/// Reply to [`OP_METRICS`]: a self-describing
/// [`hbbp_obs::Snapshot`] encoding.
pub const RESP_METRICS: u8 = 106;
/// The daemon rejected the operation; payload is a message string.
pub const RESP_ERR: u8 = 199;

/// Upper bound on a single message payload (a mix over the full mnemonic
/// set is a few KiB; this is generous headroom, not a real limit).
pub(crate) const MAX_MSG_LEN: usize = 16 << 20;

/// One operation of the daemon wire protocol — the single source of
/// truth behind `hbbp serve --help`, the `hbbpd` shim, and the
/// generated sections of `docs/PROTOCOL.md` (golden-pinned by
/// `crates/store/tests/protocol_doc.rs`), so the listing cannot drift
/// between surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    /// The `op` byte on the wire.
    pub code: u8,
    /// Protocol name, as printed in help text and docs.
    pub name: &'static str,
    /// Request payload (and any trailing byte stream), human-readable.
    pub request: &'static str,
    /// The reply message the daemon sends on success.
    pub reply: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every operation of the protocol, in op-code order (the shutdown op
/// last, mirroring its out-of-band code).
pub const PROTOCOL_OPS: &[OpSpec] = &[
    OpSpec {
        code: OP_STREAM,
        name: "STREAM",
        request: "source u32 LE, then a perf byte stream + half-close",
        reply: "INGESTED",
        summary: "ingest one collector's recording",
    },
    OpSpec {
        code: OP_QUERY_MIX,
        name: "QUERY_MIX",
        request: "empty",
        reply: "MIX",
        summary: "aggregate mix (canonical fold)",
    },
    OpSpec {
        code: OP_QUERY_TOP,
        name: "QUERY_TOP",
        request: "k u32 LE",
        reply: "MIX",
        summary: "k most-executed mnemonics",
    },
    OpSpec {
        code: OP_STATS,
        name: "STATS",
        request: "empty",
        reply: "STATS",
        summary: "shards/frames/sources/bytes",
    },
    OpSpec {
        code: OP_COMPACT,
        name: "COMPACT",
        request: "empty",
        reply: "OK",
        summary: "tier-compact logs, seal the epoch",
    },
    OpSpec {
        code: OP_EPOCHS,
        name: "EPOCHS",
        request: "empty",
        reply: "EPOCHS",
        summary: "list epochs with accounting",
    },
    OpSpec {
        code: OP_DRIFT,
        name: "DRIFT",
        request: "epoch_a u32, epoch_b u32, k u32 (all LE)",
        reply: "MIX",
        summary: "top-k mix movers a -> b (signed deltas)",
    },
    OpSpec {
        code: OP_METRICS,
        name: "METRICS",
        request: "empty",
        reply: "METRICS",
        summary: "self-observability registry snapshot",
    },
    OpSpec {
        code: OP_SHUTDOWN,
        name: "SHUTDOWN",
        request: "empty",
        reply: "OK",
        summary: "stop accepting, drain, exit",
    },
];

/// The reply codes, `(code, name, payload)` — same pinning story as
/// [`PROTOCOL_OPS`].
pub const PROTOCOL_REPLIES: &[(u8, &str, &str)] = &[
    (RESP_OK, "OK", "empty"),
    (
        RESP_INGESTED,
        "INGESTED",
        "records u64, samples u64, windows_flushed u32, counts_seq u32 (all LE)",
    ),
    (
        RESP_MIX,
        "MIX",
        "n u32, then n x (opcode u16, count f64 bits) (all LE)",
    ),
    (
        RESP_STATS,
        "STATS",
        "shards u32, counts_frames u64, window_frames u64, sources u32, store_bytes u64, \
         parked_conns u32, n u32, then n x (queue_depth u32, queue_high_water u32) (all LE)",
    ),
    (
        RESP_EPOCHS,
        "EPOCHS",
        "n u32, then n x (epoch u32, counts_frames u32, ebs_samples u64, lbr_samples u64) (all LE)",
    ),
    (
        RESP_METRICS,
        "METRICS",
        "self-describing metrics snapshot (see docs/OBSERVABILITY.md)",
    ),
    (RESP_ERR, "ERR", "UTF-8 error message"),
];

/// The op listing as printed by `hbbp serve --help` and `hbbpd --help`
/// (one aligned line per op), generated from [`PROTOCOL_OPS`].
pub fn protocol_listing() -> String {
    let line = |left: &str, mid: &str, right: &str| format!("  {left:<19} {mid:<35} -> {right}\n");
    let mut out = String::new();
    for op in PROTOCOL_OPS {
        let left = match op.request {
            "empty" => op.name.to_owned(),
            _ if op.code == OP_STREAM => format!("{}(source u32)", op.name),
            _ if op.code == OP_QUERY_TOP => format!("{}(k u32)", op.name),
            _ if op.code == OP_DRIFT => format!("{}(a, b, k u32)", op.name),
            _ => op.name.to_owned(),
        };
        let mid = match op.code {
            OP_STREAM => "+ perf byte stream, then half-close".to_owned(),
            _ => op.summary.to_owned(),
        };
        out.push_str(&line(&left, &mid, op.reply));
    }
    out
}

/// The request/reply tables of `docs/PROTOCOL.md`, as markdown —
/// generated here and pinned against the document by
/// `crates/store/tests/protocol_doc.rs`.
pub fn protocol_tables() -> String {
    let mut out = String::new();
    out.push_str("| op | code | request payload | reply | summary |\n");
    out.push_str("|---|---|---|---|---|\n");
    for op in PROTOCOL_OPS {
        out.push_str(&format!(
            "| `{}` | {} | {} | `{}` | {} |\n",
            op.name, op.code, op.request, op.reply, op.summary
        ));
    }
    out.push('\n');
    out.push_str("| reply | code | payload |\n");
    out.push_str("|---|---|---|\n");
    for (code, name, payload) in PROTOCOL_REPLIES {
        out.push_str(&format!("| `{name}` | {code} | {payload} |\n"));
    }
    out
}

/// Errors speaking the daemon protocol.
#[derive(Debug)]
pub enum WireError {
    /// Socket I/O failed.
    Io(std::io::Error),
    /// The peer sent something that is not protocol.
    Protocol(String),
    /// The daemon refused the operation ([`RESP_ERR`]).
    Daemon(String),
    /// Collection failed while streaming a live session.
    Record(RecordError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Protocol(m) => write!(f, "protocol violation: {m}"),
            WireError::Daemon(m) => write!(f, "daemon error: {m}"),
            WireError::Record(e) => write!(f, "collection failed: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<RecordError> for WireError {
    fn from(e: RecordError) -> WireError {
        WireError::Record(e)
    }
}

/// Write one `op | len | payload` message.
pub(crate) fn write_msg(w: &mut impl Write, op: u8, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&[op])?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one `op | len | payload` message. `Ok(None)` on a clean EOF
/// before any header byte.
pub(crate) fn read_msg(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, WireError> {
    let mut header = [0u8; 5];
    let mut got = 0;
    while got < header.len() {
        let n = r.read(&mut header[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(WireError::Protocol("message header cut short".into()));
        }
        got += n;
    }
    let op = header[0];
    let len = u32::from_le_bytes(header[1..5].try_into().expect("4 length bytes")) as usize;
    if len > MAX_MSG_LEN {
        return Err(WireError::Protocol(format!("message of {len} bytes")));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| WireError::Protocol(format!("message payload cut short: {e}")))?;
    Ok(Some((op, payload)))
}

/// Encode a mix as `(opcode u16, f64 bits)` entries.
pub(crate) fn encode_mix(entries: &[(Mnemonic, f64)]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u32_le(entries.len() as u32);
    for (m, c) in entries {
        buf.put_u16_le(m.opcode());
        buf.put_u64_le(c.to_bits());
    }
    buf.to_vec()
}

pub(crate) fn decode_mix_entries(mut p: &[u8]) -> Result<Vec<(Mnemonic, f64)>, WireError> {
    let bad = |m: &str| WireError::Protocol(m.into());
    if p.remaining() < 4 {
        return Err(bad("mix reply too short"));
    }
    let n = p.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if p.remaining() < 10 {
            return Err(bad("mix entry cut short"));
        }
        let opcode = p.get_u16_le();
        let mnemonic = Mnemonic::from_opcode(opcode)
            .ok_or_else(|| bad(&format!("unknown mnemonic opcode {opcode}")))?;
        out.push((mnemonic, f64::from_bits(p.get_u64_le())));
    }
    Ok(out)
}

/// What the daemon reports after ingesting one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReply {
    /// Records decoded from the wire.
    pub records: u64,
    /// Profiled samples analyzed.
    pub samples: u64,
    /// Window timeline records this stream flushed into the store.
    pub windows_flushed: u32,
    /// Sequence number the recording's counts frame received.
    pub counts_seq: u32,
}

/// One shard's writer-queue occupancy, as reported by [`OP_STATS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardQueueDepth {
    /// Messages currently queued for the shard's writer thread.
    pub current: u32,
    /// Deepest the queue has ever been.
    pub high_water: u32,
}

/// Daemon/store statistics ([`OP_STATS`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonStats {
    /// Store partitions (shards).
    pub shards: u32,
    /// Counts frames across all partitions.
    pub counts_frames: u64,
    /// Window timeline frames across all partitions.
    pub window_frames: u64,
    /// Distinct source ids seen.
    pub sources: u32,
    /// Total bytes across all partition logs.
    pub store_bytes: u64,
    /// Connections currently parked on writer-queue backpressure (see
    /// `docs/DAEMON.md`); zero when the daemon runs without metrics.
    pub parked_connections: u32,
    /// Per-shard writer queue occupancy, one entry per shard in shard
    /// order; zeros when the daemon runs without metrics.
    pub writer_queues: Vec<ShardQueueDepth>,
}

pub(crate) fn encode_ingest(reply: &IngestReply) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u64_le(reply.records);
    buf.put_u64_le(reply.samples);
    buf.put_u32_le(reply.windows_flushed);
    buf.put_u32_le(reply.counts_seq);
    buf.to_vec()
}

/// Encode an `EPOCHS` reply from per-epoch accounting (ascending epoch).
pub(crate) fn encode_epochs(entries: &[EpochStats]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u32_le(entries.len() as u32);
    for e in entries {
        buf.put_u32_le(e.epoch);
        buf.put_u32_le(e.counts_frames);
        buf.put_u64_le(e.ebs_samples);
        buf.put_u64_le(e.lbr_samples);
    }
    buf.to_vec()
}

pub(crate) fn decode_epoch_entries(mut p: &[u8]) -> Result<Vec<EpochStats>, WireError> {
    let bad = |m: &str| WireError::Protocol(m.into());
    if p.remaining() < 4 {
        return Err(bad("epochs reply too short"));
    }
    let n = p.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if p.remaining() < 24 {
            return Err(bad("epoch entry cut short"));
        }
        out.push(EpochStats {
            epoch: p.get_u32_le(),
            counts_frames: p.get_u32_le(),
            ebs_samples: p.get_u64_le(),
            lbr_samples: p.get_u64_le(),
        });
    }
    Ok(out)
}

pub(crate) fn encode_stats(stats: &DaemonStats) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_u32_le(stats.shards);
    buf.put_u64_le(stats.counts_frames);
    buf.put_u64_le(stats.window_frames);
    buf.put_u32_le(stats.sources);
    buf.put_u64_le(stats.store_bytes);
    buf.put_u32_le(stats.parked_connections);
    buf.put_u32_le(stats.writer_queues.len() as u32);
    for q in &stats.writer_queues {
        buf.put_u32_le(q.current);
        buf.put_u32_le(q.high_water);
    }
    buf.to_vec()
}

/// A client of a running `hbbpd` daemon. Stateless: every operation opens
/// its own connection, so one client value can be shared across threads.
#[derive(Debug, Clone, Copy)]
pub struct StoreClient {
    addr: SocketAddr,
}

impl StoreClient {
    /// A client of the daemon at `addr`.
    pub fn new(addr: SocketAddr) -> StoreClient {
        StoreClient { addr }
    }

    /// The daemon address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn request(&self, op: u8, payload: &[u8]) -> Result<(u8, Vec<u8>), WireError> {
        let mut stream = TcpStream::connect(self.addr)?;
        write_msg(&mut stream, op, payload)?;
        stream.shutdown(Shutdown::Write)?;
        self.reply(&mut stream)
    }

    fn reply(&self, stream: &mut TcpStream) -> Result<(u8, Vec<u8>), WireError> {
        let (op, payload) =
            read_msg(stream)?.ok_or_else(|| WireError::Protocol("daemon closed early".into()))?;
        if op == RESP_ERR {
            return Err(WireError::Daemon(
                String::from_utf8_lossy(&payload).into_owned(),
            ));
        }
        Ok((op, payload))
    }

    fn expect(&self, got: u8, want: u8) -> Result<(), WireError> {
        if got == want {
            Ok(())
        } else {
            Err(WireError::Protocol(format!(
                "expected reply {want}, got {got}"
            )))
        }
    }

    fn decode_ingest(&self, op: u8, mut p: &[u8]) -> Result<IngestReply, WireError> {
        self.expect(op, RESP_INGESTED)?;
        if p.remaining() < 24 {
            return Err(WireError::Protocol("ingest reply too short".into()));
        }
        Ok(IngestReply {
            records: p.get_u64_le(),
            samples: p.get_u64_le(),
            windows_flushed: p.get_u32_le(),
            counts_seq: p.get_u32_le(),
        })
    }

    /// Stream pre-encoded perf bytes (the `codec::write` format) as
    /// `source`.
    ///
    /// # Errors
    ///
    /// Socket failures, protocol violations, or a daemon-side rejection
    /// (e.g. a corrupt stream).
    pub fn stream_bytes(&self, source: u32, bytes: &[u8]) -> Result<IngestReply, WireError> {
        let mut stream = TcpStream::connect(self.addr)?;
        write_msg(&mut stream, OP_STREAM, &source.to_le_bytes())?;
        stream.write_all(bytes)?;
        stream.flush()?;
        stream.shutdown(Shutdown::Write)?;
        let (op, payload) = self.reply(&mut stream)?;
        self.decode_ingest(op, &payload)
    }

    /// Encode and stream an in-memory recording as `source`.
    ///
    /// # Errors
    ///
    /// Same as [`StoreClient::stream_bytes`].
    pub fn stream_data(&self, source: u32, data: &PerfData) -> Result<IngestReply, WireError> {
        self.stream_bytes(source, &hbbp_perf::codec::write(data))
    }

    /// Collect a live session straight onto the daemon socket — no
    /// in-memory recording at any point: the session encodes each record
    /// onto the wire as it is produced
    /// ([`PerfSession::record_to_sink`]).
    ///
    /// # Errors
    ///
    /// Collection errors ([`RecordError`]) plus everything
    /// [`StoreClient::stream_bytes`] can return.
    pub fn stream_session(
        &self,
        source: u32,
        session: &PerfSession,
        workload: &Workload,
    ) -> Result<(hbbp_sim::RunResult, IngestReply), WireError> {
        let mut stream = TcpStream::connect(self.addr)?;
        write_msg(&mut stream, OP_STREAM, &source.to_le_bytes())?;
        let (run, _) = session.record_to_sink(
            workload.program(),
            workload.layout(),
            workload.oracle(),
            &mut stream,
        )?;
        stream.shutdown(Shutdown::Write)?;
        let (op, payload) = self.reply(&mut stream)?;
        Ok((run, self.decode_ingest(op, &payload)?))
    }

    /// The aggregate instruction mix over everything the daemon has
    /// stored, derived from the exact aggregate of all counts frames
    /// ([`crate::Snapshot::aggregate`]).
    ///
    /// # Errors
    ///
    /// Socket failures, protocol violations, or a daemon-side rejection.
    pub fn query_mix(&self) -> Result<MnemonicMix, WireError> {
        let (op, payload) = self.request(OP_QUERY_MIX, &[])?;
        self.expect(op, RESP_MIX)?;
        Ok(decode_mix_entries(&payload)?.into_iter().collect())
    }

    /// The `k` most-executed mnemonics of the aggregate mix, descending.
    ///
    /// # Errors
    ///
    /// Socket failures, protocol violations, or a daemon-side rejection.
    pub fn query_top(&self, k: u32) -> Result<Vec<(Mnemonic, f64)>, WireError> {
        let (op, payload) = self.request(OP_QUERY_TOP, &k.to_le_bytes())?;
        self.expect(op, RESP_MIX)?;
        decode_mix_entries(&payload)
    }

    /// The store's epochs with per-epoch accounting, ascending, combined
    /// across all partitions.
    ///
    /// # Errors
    ///
    /// Socket failures, protocol violations, or a daemon-side rejection.
    pub fn query_epochs(&self) -> Result<Vec<EpochStats>, WireError> {
        let (op, payload) = self.request(OP_EPOCHS, &[])?;
        self.expect(op, RESP_EPOCHS)?;
        decode_epoch_entries(&payload)
    }

    /// The `k` largest mix movers from epoch `from` to epoch `to`,
    /// descending by `|delta|` (ties: ascending opcode). Each count is
    /// the **signed** `current − baseline` delta of the two epochs'
    /// aggregates, bit-identical to an offline
    /// [`hbbp_core::MixDrift`] recompute over the same counts.
    ///
    /// # Errors
    ///
    /// Socket failures, protocol violations, or a daemon-side rejection
    /// (e.g. an epoch the store does not hold).
    pub fn query_drift(
        &self,
        from: u32,
        to: u32,
        k: u32,
    ) -> Result<Vec<(Mnemonic, f64)>, WireError> {
        let mut payload = Vec::with_capacity(12);
        payload.extend_from_slice(&from.to_le_bytes());
        payload.extend_from_slice(&to.to_le_bytes());
        payload.extend_from_slice(&k.to_le_bytes());
        let (op, payload) = self.request(OP_DRIFT, &payload)?;
        self.expect(op, RESP_MIX)?;
        decode_mix_entries(&payload)
    }

    /// Daemon/store statistics.
    ///
    /// # Errors
    ///
    /// Socket failures, protocol violations, or a daemon-side rejection.
    pub fn stats(&self) -> Result<DaemonStats, WireError> {
        let (op, payload) = self.request(OP_STATS, &[])?;
        self.expect(op, RESP_STATS)?;
        let p = &mut payload.as_slice();
        if p.remaining() < 40 {
            return Err(WireError::Protocol("stats reply too short".into()));
        }
        let mut stats = DaemonStats {
            shards: p.get_u32_le(),
            counts_frames: p.get_u64_le(),
            window_frames: p.get_u64_le(),
            sources: p.get_u32_le(),
            store_bytes: p.get_u64_le(),
            parked_connections: p.get_u32_le(),
            writer_queues: Vec::new(),
        };
        let n = p.get_u32_le() as usize;
        if p.remaining() < n * 8 {
            return Err(WireError::Protocol("stats queue entries cut short".into()));
        }
        for _ in 0..n {
            stats.writer_queues.push(ShardQueueDepth {
                current: p.get_u32_le(),
                high_water: p.get_u32_le(),
            });
        }
        Ok(stats)
    }

    /// The daemon's full self-observability snapshot ([`OP_METRICS`]).
    ///
    /// # Errors
    ///
    /// Socket failures, protocol violations (including a malformed
    /// snapshot payload), or a daemon-side rejection.
    pub fn query_metrics(&self) -> Result<hbbp_obs::Snapshot, WireError> {
        let (op, payload) = self.request(OP_METRICS, &[])?;
        self.expect(op, RESP_METRICS)?;
        hbbp_obs::Snapshot::decode(&payload).map_err(|e| WireError::Protocol(e.to_string()))
    }

    /// Ask every partition to compact its log.
    ///
    /// # Errors
    ///
    /// Socket failures, protocol violations, or a daemon-side rejection.
    pub fn compact(&self) -> Result<(), WireError> {
        let (op, _) = self.request(OP_COMPACT, &[])?;
        self.expect(op, RESP_OK)
    }

    /// Ask the daemon to stop accepting connections and exit.
    ///
    /// # Errors
    ///
    /// Socket failures or protocol violations.
    pub fn shutdown(&self) -> Result<(), WireError> {
        let (op, _) = self.request(OP_SHUTDOWN, &[])?;
        self.expect(op, RESP_OK)
    }
}
