//! The event-driven connection engine behind `hbbpd`.
//!
//! A small pool of workers, each multiplexing many **nonblocking**
//! connections. A worker sleeps in one readiness wait (an epoll set,
//! see the `poll` module) until a socket it watches is ready or its
//! doorbell rings; it never scans idle connections, so an idle daemon
//! costs no CPU. Every connection is a state machine ([`ConnState`])
//! that tolerates partial reads and writes at any byte boundary — a
//! client trickling one byte at a time costs one wake-up per byte and
//! nothing while it is silent.
//!
//! What a connection is waited on for follows its state
//! ([`Conn::interest`]): readable while it reads a request or a stream,
//! writable while it flushes a reply. A connection waiting on a shard
//! writer (the committed `seq`, stats, a compaction ack) leaves the
//! epoll set — a hung-up peer would otherwise report ready forever —
//! and goes on the worker's short waiting list, ticked after every
//! wake. The writer rings the worker's doorbell once the answer is in
//! (once per request, however many shards it spans), and the acceptor
//! rings it after queueing a new connection. A read query waits on
//! nothing: the worker answers it in the tick its request completes,
//! from the sums every writer publishes (see the `writer` module).
//!
//! Fairness and backpressure:
//!
//! * each connection gets at most [`READ_BUDGET`] bytes per tick, so a
//!   fire-hose stream yields to its peers (the epoll set is
//!   level-triggered, so the rest is reported again on the next wait);
//! * parsed results are handed to the shard writers with non-blocking
//!   sends; when a shard's bounded queue is full, the connection keeps
//!   its batch locally, retries within [`RETRY_WAIT`], and — above
//!   [`WINDOW_HIGH_WATER`] — stops reading until the queue drains
//!   (backpressure propagates to the client's socket, never to other
//!   streams);
//! * a client that never reads its response parks in [`ConnState::Flush`]
//!   with the bytes buffered; the worker moves on.
//!
//! Shutdown: once the acceptor closes the inbox (and rings the
//! doorbell), a worker keeps serving until its connections finish,
//! force-dropping stragglers after [`DRAIN_GRACE`] without progress,
//! then drops its writer senders so the shard writers drain and exit.

use crate::daemon::Shared;
use crate::frame::WindowRecord;
use crate::poll::{Doorbell, Event, Interest, Poller};
use crate::store::{Partials, COMPACTED_SOURCE};
use crate::wire::{
    encode_epochs, encode_ingest, encode_mix, encode_stats, DaemonStats, IngestReply,
    ShardQueueDepth, MAX_MSG_LEN, OP_COMPACT, OP_DRIFT, OP_EPOCHS, OP_METRICS, OP_QUERY_MIX,
    OP_QUERY_TOP, OP_SHUTDOWN, OP_STATS, OP_STREAM, RESP_EPOCHS, RESP_ERR, RESP_INGESTED,
    RESP_METRICS, RESP_MIX, RESP_OK, RESP_STATS,
};
use crate::writer::{Reply, ShardStats, WriterMsg};
use hbbp_core::{MixDrift, OnlineAnalyzer, OnlineOutcome, WindowedAnalysis};
use hbbp_obs::{Counter, Gauge, Histogram, Metrics};
use hbbp_perf::{StreamDecoder, StreamStats};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-connection, per-tick read budget (bytes): fairness between
/// streams multiplexed on one worker.
const READ_BUDGET: usize = 64 * 1024;

/// Window records a connection may buffer locally while its shard queue
/// is full before its reads are deprioritized (backpressure).
const WINDOW_HIGH_WATER: usize = 1024;

/// Time without any progress before a *draining* worker force-drops
/// its remaining connections — enough for any live peer to make a byte
/// of progress.
const DRAIN_GRACE: Duration = Duration::from_millis(200);

/// Longest wait while a connection holds results a full shard queue
/// refused: the writers do not signal free queue space, so the worker
/// retries on this timer.
const RETRY_WAIT: Duration = Duration::from_millis(1);

/// Ready events taken from the epoll set per wait.
const EVENTS_PER_WAIT: usize = 256;

/// The epoll token of the worker's doorbell (connection tokens are
/// their slot indices).
pub(crate) const BELL_TOKEN: u64 = u64::MAX;

/// Everything a worker needs to drive its connections.
struct WorkerCtx<'a> {
    shared: &'a Shared,
    shards: &'a [SyncSender<WriterMsg>],
    /// This worker's doorbell, rung by the writers when they answer.
    bell: &'a Arc<Doorbell>,
}

impl WorkerCtx<'_> {
    fn shard_of(&self, source: u32) -> usize {
        source as usize % self.shards.len()
    }

    fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Offer one message to a shard writer without blocking, keeping the
    /// queue-depth gauge in step: the gauge rises here per offered
    /// message (settled back if the queue rejects it) and falls in the
    /// writer as the batch leaves the queue. The increment must precede
    /// the send — the channel's internal synchronization then orders it
    /// before the writer's matching decrement, so the gauge can never
    /// underflow (the reverse order races the writer and wraps).
    fn try_send_shard(&self, shard: usize, msg: WriterMsg) -> Result<(), TrySendError<WriterMsg>> {
        self.metrics()
            .gauge_shard_inc(Gauge::WriterQueueDepth, shard);
        match self.shards[shard].try_send(msg) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.metrics()
                    .gauge_shard_dec(Gauge::WriterQueueDepth, shard);
                Err(e)
            }
        }
    }

    /// Fan a control message (`STATS`, `COMPACT`) out to every shard
    /// writer (the closure gets that shard's reply handle); returns where
    /// the answers arrive. The replies share one countdown, so the
    /// doorbell rings once, after the last shard answers. Blocking sends:
    /// control traffic is rare and a writer never blocks on its
    /// consumers, so this cannot deadlock — at worst the whole worker
    /// waits for one queue drain. Read queries never come here. Same
    /// inc-before-send protocol as [`WorkerCtx::try_send_shard`].
    fn fan_out<T>(&self, make: impl Fn(Reply<T>) -> WriterMsg) -> Receiver<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        let replies = Reply::fan(&tx, self.bell, self.shards.len());
        for ((i, shard), reply) in self.shards.iter().enumerate().zip(replies) {
            self.metrics().gauge_shard_inc(Gauge::WriterQueueDepth, i);
            if shard.send(make(reply)).is_err() {
                self.metrics().gauge_shard_dec(Gauge::WriterQueueDepth, i);
            }
        }
        rx
    }
}

/// A request fanned out to every shard writer: the answers so far.
struct Gather<T> {
    rx: Receiver<T>,
    want: usize,
    got: Vec<T>,
}

/// A reply rendered from every shard's answers: a response message, or
/// the text of an error reply.
type Rendered = Result<(u8, Vec<u8>), String>;

/// Where a [`Gather`] stands after taking what has arrived.
enum Gathered {
    /// Some shard has yet to answer; whether any answer came in.
    Waiting(bool),
    /// Every shard answered, or a writer went away without answering.
    Reply(Rendered),
}

impl<T> Gather<T> {
    fn new(rx: Receiver<T>, want: usize) -> Gather<T> {
        Gather {
            rx,
            want,
            got: Vec::new(),
        }
    }

    /// Take every answer that has arrived, without blocking; once every
    /// shard has answered, `render` the answers (in arrival order).
    fn poll(&mut self, render: impl FnOnce(Vec<T>) -> Rendered) -> Gathered {
        let mut progress = false;
        loop {
            match self.rx.try_recv() {
                Ok(answer) => {
                    self.got.push(answer);
                    progress = true;
                }
                Err(TryRecvError::Empty) => break,
                // All repliers dropped their senders — expected once every
                // shard has answered; fatal only if one never did.
                Err(TryRecvError::Disconnected) if self.got.len() < self.want => {
                    return Gathered::Reply(Err("shard writer gone".to_owned()));
                }
                Err(TryRecvError::Disconnected) => break,
            }
        }
        if self.got.len() == self.want {
            Gathered::Reply(render(std::mem::take(&mut self.got)))
        } else {
            Gathered::Waiting(progress)
        }
    }
}

/// A read query, rendered from the published sums.
enum SnapQuery {
    Mix,
    Top(u32),
    Epochs,
    Drift { from: u32, to: u32, k: u32 },
}

/// An `OP_STREAM` connection mid-decode.
struct Ingest<'a> {
    source: u32,
    decoder: StreamDecoder,
    /// The stream's one analyzer: windowed (with whole-stream totals for
    /// the counts frame) when the daemon keeps a timeline.
    online: OnlineAnalyzer<'a>,
    /// Closed windows not yet accepted by the shard writer.
    pending_windows: Vec<WindowRecord>,
    windows_flushed: u32,
    /// Reads are deprioritized under shard-queue backpressure (see
    /// [`Conn::tick_ingest`]); tracked so the park/unpark counters see
    /// each transition exactly once.
    parked: bool,
}

/// The timeline record of a window `source`'s stream closed.
fn window_record(source: u32, closed: WindowedAnalysis) -> WindowRecord {
    WindowRecord {
        source,
        index: closed.index as u32,
        start_cycles: closed.start_cycles,
        end_cycles: closed.end_cycles,
        ebs_samples: closed.ebs_samples,
        lbr_samples: closed.lbr_samples,
        mix: closed.mix,
    }
}

/// A completed stream handing its results to the shard writer and
/// waiting for the committed sequence number.
struct CommitState {
    windows: Vec<WindowRecord>,
    /// The [`WriterMsg::Counts`] message, until the shard queue takes
    /// it. Kept whole across retries: dropping its reply handle would
    /// ring the doorbell.
    counts: Option<WriterMsg>,
    shard: usize,
    rx: Receiver<Result<u32, String>>,
    records: u64,
    samples: u64,
    windows_flushed: u32,
}

/// The per-connection protocol state machine. A read query has no state
/// of its own: it is answered from the published sums in the tick its
/// request completes, so only ingest, `STATS` and `COMPACT` ever wait on
/// a shard writer.
enum ConnState<'a> {
    /// Accumulating the `op | len | payload` request message.
    ReadRequest,
    /// `OP_STREAM`: decoding the embedded perf byte stream.
    Ingest(Box<Ingest<'a>>),
    /// Stream complete: submitting results, awaiting the committed seq.
    Commit(Box<CommitState>),
    /// `OP_STATS`: awaiting one [`ShardStats`] per shard.
    GatherStats(Gather<ShardStats>),
    /// `OP_COMPACT`: awaiting one ack per shard.
    GatherCompact(Gather<Result<(), String>>),
    /// Response queued; writing it out, then closing (or lingering).
    Flush,
    /// An error reply went out before the peer finished sending (say, a
    /// refused `STREAM`): our side is shut down, and the rest of the
    /// peer's input is discarded until it closes. Closing with unread
    /// input would reset the connection under a client still writing,
    /// and it would see a failed write instead of the reply.
    Linger,
    /// Finished or failed: the connection is dropped by the worker.
    Done,
}

/// One multiplexed connection.
struct Conn<'a> {
    stream: TcpStream,
    /// Unparsed request bytes (header + payload accumulate here).
    inbuf: Vec<u8>,
    /// Response bytes not yet written.
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState<'a>,
    /// What the connection is registered in the epoll set for (`None`:
    /// not in the set).
    registered: Option<Interest>,
    /// On the worker's waiting list.
    listed: bool,
    /// The peer closed its sending side.
    peer_closed: bool,
    /// Linger after the reply instead of closing (see
    /// [`ConnState::Linger`]).
    linger: bool,
}

/// What one read pass produced.
struct ReadPass {
    bytes: usize,
    eof: bool,
    failed: bool,
}

impl<'a> Conn<'a> {
    fn new(stream: TcpStream) -> Conn<'a> {
        Conn {
            stream,
            inbuf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            state: ConnState::ReadRequest,
            registered: None,
            listed: false,
            peer_closed: false,
            linger: false,
        }
    }

    fn done(&self) -> bool {
        matches!(self.state, ConnState::Done)
    }

    /// What the worker waits on for this connection: socket readiness,
    /// or — `None` — nothing the socket can signal (a writer's answer,
    /// or a parked stream's queue space), so the connection sits on the
    /// waiting list instead of in the epoll set.
    fn interest(&self) -> Option<Interest> {
        match &self.state {
            ConnState::ReadRequest => Some(Interest::Readable),
            ConnState::Ingest(i) if !i.parked => Some(Interest::Readable),
            ConnState::Flush => Some(Interest::Writable),
            ConnState::Linger => Some(Interest::Readable),
            _ => None,
        }
    }

    /// Holding results a full shard queue refused, to be retried
    /// within [`RETRY_WAIT`].
    fn held_back(&self) -> bool {
        match &self.state {
            ConnState::Ingest(i) => !i.pending_windows.is_empty(),
            ConnState::Commit(c) => !c.windows.is_empty() || c.counts.is_some(),
            _ => false,
        }
    }

    /// Drive the connection until its state stops changing — so that,
    /// say, a gather completed in one tick flushes its reply in the same
    /// pass. Returns whether anything moved.
    fn drive(&mut self, ctx: &WorkerCtx<'a>, scratch: &mut [u8], tally: &mut TickCounters) -> bool {
        let mut progress = false;
        loop {
            let before = std::mem::discriminant(&self.state);
            tally.conn_ticks += 1;
            progress |= self.tick(ctx, scratch);
            if self.done() || std::mem::discriminant(&self.state) == before {
                return progress;
            }
        }
    }

    /// Read up to [`READ_BUDGET`] bytes into `inbuf`.
    fn read_pass(&mut self, scratch: &mut [u8]) -> ReadPass {
        let mut pass = ReadPass {
            bytes: 0,
            eof: false,
            failed: false,
        };
        while pass.bytes < READ_BUDGET {
            match self.stream.read(scratch) {
                Ok(0) => {
                    pass.eof = true;
                    self.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    pass.bytes += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    pass.failed = true;
                    break;
                }
            }
        }
        pass
    }

    /// Queue a response message and move to [`ConnState::Flush`].
    fn respond(&mut self, op: u8, payload: &[u8]) {
        self.out.clear();
        self.out_pos = 0;
        self.out.push(op);
        self.out
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.out.extend_from_slice(payload);
        self.state = ConnState::Flush;
    }

    fn respond_err(&mut self, message: &str) {
        self.respond(RESP_ERR, message.as_bytes());
        self.linger = !self.peer_closed;
    }

    /// Queue a rendered reply: its response message, or an error reply.
    fn respond_rendered(&mut self, rendered: Rendered) {
        match rendered {
            Ok((code, payload)) => self.respond(code, &payload),
            Err(message) => self.respond_err(&message),
        }
    }

    /// Drive the connection one step. Returns whether anything moved.
    fn tick(&mut self, ctx: &WorkerCtx<'a>, scratch: &mut [u8]) -> bool {
        match &mut self.state {
            ConnState::ReadRequest => self.tick_read_request(ctx, scratch),
            ConnState::Ingest(_) => self.tick_ingest(ctx, scratch),
            ConnState::Commit(_) => self.tick_commit(ctx),
            ConnState::GatherStats(_) | ConnState::GatherCompact(_) => self.tick_gather(ctx),
            ConnState::Flush => self.tick_flush(),
            ConnState::Linger => self.tick_linger(scratch),
            ConnState::Done => false,
        }
    }

    fn tick_read_request(&mut self, ctx: &WorkerCtx<'a>, scratch: &mut [u8]) -> bool {
        let pass = self.read_pass(scratch);
        if pass.bytes >= READ_BUDGET {
            ctx.metrics().inc(Counter::WorkerReadBudgetExhausted);
        }
        if pass.failed {
            self.state = ConnState::Done;
            return true;
        }
        if self.inbuf.len() >= 5 {
            let op = self.inbuf[0];
            let len =
                u32::from_le_bytes(self.inbuf[1..5].try_into().expect("4 length bytes")) as usize;
            if len > MAX_MSG_LEN {
                self.respond_err(&format!("message of {len} bytes"));
                return true;
            }
            if self.inbuf.len() >= 5 + len {
                let payload: Vec<u8> = self.inbuf[5..5 + len].to_vec();
                let leftover: Vec<u8> = self.inbuf[5 + len..].to_vec();
                self.inbuf.clear();
                self.dispatch(ctx, op, &payload, leftover, pass.eof);
                return true;
            }
        }
        if pass.eof {
            // Clean close before a request, or a header cut short —
            // either way there is nobody to answer.
            self.state = ConnState::Done;
            return true;
        }
        pass.bytes > 0
    }

    /// A complete request message arrived: enter the op's state.
    fn dispatch(
        &mut self,
        ctx: &WorkerCtx<'a>,
        op: u8,
        payload: &[u8],
        leftover: Vec<u8>,
        eof: bool,
    ) {
        match op {
            OP_STREAM => {
                let Ok(source) = <[u8; 4]>::try_from(payload) else {
                    self.respond_err("STREAM payload must be a u32 source id");
                    return;
                };
                let source = u32::from_le_bytes(source);
                if source == COMPACTED_SOURCE {
                    self.respond_err(&format!(
                        "source id {COMPACTED_SOURCE} is reserved for compacted records"
                    ));
                    return;
                }
                let shared = ctx.shared;
                let online =
                    OnlineAnalyzer::new(&shared.analyzer, shared.periods, shared.rule.clone());
                let mut ingest = Box::new(Ingest {
                    source,
                    decoder: StreamDecoder::new(),
                    online: match shared.window {
                        Some(w) => online.with_window(w).with_whole_stream(),
                        None => online,
                    },
                    pending_windows: Vec::new(),
                    windows_flushed: 0,
                    parked: false,
                });
                // Stream bytes pipelined behind the request message.
                if !leftover.is_empty() {
                    ingest.decoder.feed(&leftover);
                }
                self.state = ConnState::Ingest(ingest);
                if let Err(message) = self.pump_decoder(ctx) {
                    self.respond_err(&message);
                    return;
                }
                if eof {
                    self.finish_ingest(ctx);
                }
            }
            OP_QUERY_MIX => self.respond_rendered(render_query(ctx, &SnapQuery::Mix)),
            OP_QUERY_TOP => {
                let Ok(k) = <[u8; 4]>::try_from(payload) else {
                    self.respond_err("TOP payload must be a u32 k");
                    return;
                };
                self.respond_rendered(render_query(ctx, &SnapQuery::Top(u32::from_le_bytes(k))));
            }
            OP_EPOCHS => self.respond_rendered(render_query(ctx, &SnapQuery::Epochs)),
            OP_DRIFT => {
                let Ok(raw) = <[u8; 12]>::try_from(payload) else {
                    self.respond_err("DRIFT payload must be epoch_a, epoch_b, k (u32 LE each)");
                    return;
                };
                let word = |i: usize| {
                    u32::from_le_bytes(raw[i * 4..i * 4 + 4].try_into().expect("4 bytes"))
                };
                let query = SnapQuery::Drift {
                    from: word(0),
                    to: word(1),
                    k: word(2),
                };
                self.respond_rendered(render_query(ctx, &query));
            }
            OP_STATS => {
                let rx = ctx.fan_out(WriterMsg::Stats);
                self.state = ConnState::GatherStats(Gather::new(rx, ctx.shards.len()));
            }
            OP_COMPACT => {
                let rx = ctx.fan_out(WriterMsg::Compact);
                self.state = ConnState::GatherCompact(Gather::new(rx, ctx.shards.len()));
            }
            OP_METRICS => {
                let payload = ctx.metrics().snapshot().encode();
                self.respond(RESP_METRICS, &payload);
            }
            OP_SHUTDOWN => {
                ctx.shared.shutdown.store(true, Ordering::SeqCst);
                self.respond(RESP_OK, &[]);
                // Unblock the acceptor so it observes the flag.
                let _ = TcpStream::connect(ctx.shared.addr);
            }
            other => self.respond_err(&format!("unknown op {other}")),
        }
    }

    /// Decode everything buffered in the stream decoder into the online
    /// analyzer and collect any windows that closed.
    ///
    /// Ingest goes through the fused zero-copy path: the decoder drives
    /// the analyzer with borrowed [`hbbp_perf::RecordView`]s, so sample
    /// records — the bulk of any stream — are never materialized as owned
    /// `PerfRecord`s. Results are pinned bit-identical to the owned
    /// `next_record` → `RecordSink` path by the core property suite.
    fn pump_decoder(&mut self, ctx: &WorkerCtx<'a>) -> Result<(), String> {
        let ConnState::Ingest(ingest) = &mut self.state else {
            unreachable!("pump_decoder outside Ingest");
        };
        ingest
            .decoder
            .decode_into(&mut ingest.online)
            .map_err(|e| format!("perf stream: {e}"))?;
        let source = ingest.source;
        let closed = ingest.online.take_closed_windows().into_iter();
        ingest
            .pending_windows
            .extend(closed.map(|c| window_record(source, c)));
        self.flush_windows(ctx);
        Ok(())
    }

    /// Offer pending windows to the shard writer without blocking.
    /// Returns whether anything was accepted.
    fn flush_windows(&mut self, ctx: &WorkerCtx<'a>) -> bool {
        let ConnState::Ingest(ingest) = &mut self.state else {
            return false;
        };
        if ingest.pending_windows.is_empty() {
            return false;
        }
        let batch = std::mem::take(&mut ingest.pending_windows);
        let n = batch.len() as u32;
        match ctx.try_send_shard(ctx.shard_of(ingest.source), WriterMsg::Windows(batch)) {
            Ok(()) => {
                ingest.windows_flushed += n;
                true
            }
            Err(TrySendError::Full(WriterMsg::Windows(batch)))
            | Err(TrySendError::Disconnected(WriterMsg::Windows(batch))) => {
                // Keep the batch; backpressure deprioritizes our reads.
                ingest.pending_windows = batch;
                false
            }
            Err(_) => unreachable!("windows come back as windows"),
        }
    }

    fn tick_ingest(&mut self, ctx: &WorkerCtx<'a>, scratch: &mut [u8]) -> bool {
        // Backpressure: while the shard queue rejects our windows and the
        // local buffer is over the high-water mark, do not read — the
        // client's socket fills up and TCP pushes back, without delaying
        // any other stream on this worker.
        let mut progress = self.flush_windows(ctx);
        let over_high_water = match &mut self.state {
            ConnState::Ingest(i) => {
                let over = i.pending_windows.len() >= WINDOW_HIGH_WATER;
                if over != i.parked {
                    i.parked = over;
                    let m = ctx.metrics();
                    if over {
                        m.inc(Counter::WorkerParks);
                        m.gauge_inc(Gauge::WorkerParkedConnections);
                    } else {
                        m.inc(Counter::WorkerUnparks);
                        m.gauge_dec(Gauge::WorkerParkedConnections);
                    }
                }
                over
            }
            _ => return true,
        };
        if over_high_water {
            return progress;
        }
        let pass = self.read_pass(scratch);
        progress |= pass.bytes > 0;
        if pass.bytes >= READ_BUDGET {
            ctx.metrics().inc(Counter::WorkerReadBudgetExhausted);
        }
        if pass.failed {
            self.state = ConnState::Done;
            return true;
        }
        if pass.bytes > 0 {
            if let ConnState::Ingest(ingest) = &mut self.state {
                // `read_pass` appended raw stream bytes to `inbuf`; they
                // belong to the decoder.
                ingest.decoder.feed(&self.inbuf);
            }
            self.inbuf.clear();
            if let Err(message) = self.pump_decoder(ctx) {
                self.respond_err(&message);
                return true;
            }
        }
        if pass.eof {
            self.finish_ingest(ctx);
            return true;
        }
        progress
    }

    /// Fold one finished stream's decoder counters into the registry —
    /// the hot path never touches an atomic per record; the decoder's
    /// existing local counters are harvested once per stream here.
    fn harvest_stream(metrics: &Metrics, stats: &StreamStats) {
        metrics.add(Counter::DecoderRecords, stats.records);
        metrics.add(Counter::DecoderCompactions, stats.compactions);
        metrics.add(Counter::DecoderUnknownSkipped, stats.unknown_skipped);
    }

    /// Fold a windowed analyzer's outcome into the registry. An
    /// unwindowed outcome is not harvested: it "closes" a single
    /// whole-stream pseudo-window that is not a timeline event.
    fn harvest_windows(metrics: &Metrics, outcome: &OnlineOutcome) {
        if outcome.windowed {
            metrics.add(Counter::AnalyzerWindowCloses, outcome.windows_closed as u64);
        }
    }

    /// End of stream: close the analyzer and hand everything to the
    /// shard writer via [`ConnState::Commit`].
    fn finish_ingest(&mut self, ctx: &WorkerCtx<'a>) {
        let ConnState::Ingest(ingest) = std::mem::replace(&mut self.state, ConnState::Done) else {
            unreachable!("finish_ingest outside Ingest");
        };
        let Ingest {
            source,
            decoder,
            online,
            mut pending_windows,
            windows_flushed,
            parked: _,
        } = *ingest;
        let metrics = ctx.metrics().clone();
        // Read the counters before `finish` consumes the decoder, so a
        // stream that fails its end-of-stream verdict still accounts for
        // everything it decoded.
        let partial = decoder.stats().clone();
        match decoder.finish() {
            Ok(stats) => Self::harvest_stream(&metrics, &stats),
            Err(e) => {
                // Already-flushed timeline windows remain (that is the
                // point of flush-as-you-go); the counts frame is never
                // written, so the aggregate cannot see a partial
                // recording. The registry still accounts for the work.
                Self::harvest_stream(&metrics, &partial);
                Self::harvest_windows(&metrics, &online.finish());
                self.respond_err(&format!("perf stream: {e}"));
                return;
            }
        }
        let mut outcome = online.finish();
        Self::harvest_windows(&metrics, &outcome);
        let whole = outcome
            .take_whole()
            .expect("the analyzer yields its whole-stream analysis");
        // Left only in a windowed outcome: the last windows closed.
        let closed = outcome.windows.into_iter();
        pending_windows.extend(closed.map(|c| window_record(source, c)));
        let (tx, rx) = std::sync::mpsc::channel();
        let reply = Reply::fan(&tx, ctx.bell, 1).pop().expect("one reply");
        self.state = ConnState::Commit(Box::new(CommitState {
            windows: pending_windows,
            counts: Some(WriterMsg::Counts {
                source,
                ebs_samples: whole.ebs_samples,
                lbr_samples: whole.lbr_samples,
                bbec: whole.analysis.hbbp.bbec,
                reply,
            }),
            shard: ctx.shard_of(source),
            rx,
            records: outcome.records_seen,
            samples: outcome.samples_seen,
            windows_flushed,
        }));
        self.tick_commit(ctx);
    }

    /// Submit remaining windows, then the counts frame, then collect the
    /// committed sequence number — all without blocking (a full shard
    /// queue just means this connection retries next tick).
    fn tick_commit(&mut self, ctx: &WorkerCtx<'a>) -> bool {
        let ConnState::Commit(commit) = &mut self.state else {
            return false;
        };
        let mut progress = false;
        if !commit.windows.is_empty() {
            let batch = std::mem::take(&mut commit.windows);
            let n = batch.len() as u32;
            match ctx.try_send_shard(commit.shard, WriterMsg::Windows(batch)) {
                Ok(()) => {
                    commit.windows_flushed += n;
                    progress = true;
                }
                Err(TrySendError::Full(WriterMsg::Windows(batch))) => {
                    commit.windows = batch;
                    return false;
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.respond_err("shard writer gone");
                    return true;
                }
                Err(_) => unreachable!("windows come back as windows"),
            }
        }
        if let Some(counts) = commit.counts.take() {
            match ctx.try_send_shard(commit.shard, counts) {
                Ok(()) => progress = true,
                Err(TrySendError::Full(counts)) => {
                    commit.counts = Some(counts);
                    return progress;
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.respond_err("shard writer gone");
                    return true;
                }
            }
        }
        match commit.rx.try_recv() {
            Ok(Ok(seq)) => {
                let payload = encode_ingest(&IngestReply {
                    records: commit.records,
                    samples: commit.samples,
                    windows_flushed: commit.windows_flushed,
                    counts_seq: seq,
                });
                self.respond(RESP_INGESTED, &payload);
                true
            }
            Ok(Err(m)) => {
                self.respond_err(&m);
                true
            }
            Err(TryRecvError::Empty) => progress,
            Err(TryRecvError::Disconnected) => {
                self.respond_err("shard writer gone");
                true
            }
        }
    }

    /// Take the shard writers' answers to a fanned-out request; once
    /// every shard has answered, render and queue the reply.
    fn tick_gather(&mut self, ctx: &WorkerCtx<'a>) -> bool {
        let gathered = match &mut self.state {
            ConnState::GatherStats(gather) => gather.poll(|shards| render_stats(ctx, shards)),
            // The first failure in arrival order, if any shard failed.
            ConnState::GatherCompact(gather) => gather.poll(|acks| {
                let acked: Result<(), String> = acks.into_iter().collect();
                acked.map(|()| (RESP_OK, Vec::new()))
            }),
            _ => return false,
        };
        match gathered {
            Gathered::Waiting(progress) => progress,
            Gathered::Reply(rendered) => {
                self.respond_rendered(rendered);
                true
            }
        }
    }

    fn tick_flush(&mut self) -> bool {
        let mut progress = false;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.state = ConnState::Done;
                    return true;
                }
                Ok(n) => {
                    self.out_pos += n;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return progress,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.state = ConnState::Done;
                    return true;
                }
            }
        }
        let _ = self.stream.flush();
        self.state = if self.linger {
            let _ = self.stream.shutdown(Shutdown::Write);
            ConnState::Linger
        } else {
            ConnState::Done
        };
        true
    }

    fn tick_linger(&mut self, scratch: &mut [u8]) -> bool {
        let pass = self.read_pass(scratch);
        self.inbuf.clear();
        if pass.eof || pass.failed {
            self.state = ConnState::Done;
            return true;
        }
        pass.bytes > 0
    }
}

/// A read query's reply, from every shard's published epoch partials:
/// no writer is asked, so a stalled or busy shard delays no read.
fn render_query(ctx: &WorkerCtx<'_>, query: &SnapQuery) -> Rendered {
    let published: Vec<_> = ctx.shared.sums.iter().map(|slot| slot.load()).collect();
    let combined = Partials::gather(published.iter().flat_map(|p| p.iter().cloned()));
    let analyzer = &ctx.shared.analyzer;
    Ok(match query {
        SnapQuery::Mix => {
            let mix = analyzer.mix(&combined.aggregate());
            let entries: Vec<_> = mix.iter().collect();
            (RESP_MIX, encode_mix(&entries))
        }
        SnapQuery::Top(k) => {
            let mix = analyzer.mix(&combined.aggregate());
            (RESP_MIX, encode_mix(&mix.top(*k as usize)))
        }
        SnapQuery::Epochs => (RESP_EPOCHS, encode_epochs(&combined.epoch_stats())),
        SnapQuery::Drift { from, to, k } => {
            for e in [*from, *to] {
                if !combined.has_epoch(e) {
                    return Err(format!("store has no epoch {e}"));
                }
            }
            let baseline = analyzer.mix(&combined.epoch_aggregate(*from));
            let current = analyzer.mix(&combined.epoch_aggregate(*to));
            let movers: Vec<_> = MixDrift::between(&baseline, &current)
                .top_movers(*k as usize)
                .into_iter()
                .map(|row| (row.mnemonic, row.delta))
                .collect();
            (RESP_MIX, encode_mix(&movers))
        }
    })
}

/// The `STATS` reply, from every shard's statistics and the registry.
fn render_stats(ctx: &WorkerCtx<'_>, shards: Vec<ShardStats>) -> Rendered {
    let m = ctx.metrics();
    let mut stats = DaemonStats {
        shards: ctx.shards.len() as u32,
        counts_frames: 0,
        window_frames: 0,
        sources: 0,
        store_bytes: 0,
        parked_connections: m.gauge_value(Gauge::WorkerParkedConnections, 0).0 as u32,
        writer_queues: (0..ctx.shards.len())
            .map(|i| {
                let (current, high_water) = m.gauge_value(Gauge::WriterQueueDepth, i);
                ShardQueueDepth {
                    current: current as u32,
                    high_water: high_water as u32,
                }
            })
            .collect(),
    };
    let mut sources: Vec<u32> = Vec::new();
    for shard in shards {
        stats.counts_frames += shard.counts_frames;
        stats.window_frames += shard.window_frames;
        stats.store_bytes += shard.bytes;
        sources.extend(shard.sources);
    }
    sources.sort_unstable();
    sources.dedup();
    stats.sources = sources.len() as u32;
    Ok((RESP_STATS, encode_stats(&stats)))
}

/// A worker's locally batched tick counters, flushed into the registry
/// before every blocking wait (and at exit) — a pass never pays an
/// atomic per connection tick, and an idle worker's counters are
/// always current.
#[derive(Default)]
struct TickCounters {
    ticks: u64,
    conn_ticks: u64,
    sleeps: u64,
}

impl TickCounters {
    fn flush(&mut self, metrics: &Metrics) {
        metrics.add(Counter::WorkerTicks, self.ticks);
        metrics.add(Counter::WorkerConnTicks, self.conn_ticks);
        metrics.add(Counter::WorkerSleeps, self.sleeps);
        *self = TickCounters::default();
    }
}

/// One worker's connections, in slots indexed by their epoll token.
struct Worker<'a> {
    poller: Poller,
    slots: Vec<Option<Conn<'a>>>,
    free: Vec<usize>,
    live: usize,
    /// Slots ticked after every wake: connections waiting on a writer,
    /// parked, or holding results a full queue refused.
    waiting: Vec<usize>,
    metrics: Metrics,
    tally: TickCounters,
}

impl<'a> Worker<'a> {
    /// Take over a freshly accepted connection, waiting for its request.
    fn adopt(&mut self, stream: TcpStream) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        if self
            .poller
            .add(&stream, slot as u64, Interest::Readable)
            .is_err()
        {
            // Out of kernel memory for the epoll set: refuse the
            // connection rather than serve it blind.
            self.free.push(slot);
            return;
        }
        let mut conn = Conn::new(stream);
        conn.registered = Some(Interest::Readable);
        self.slots[slot] = Some(conn);
        self.live += 1;
        self.metrics.gauge_inc(Gauge::WorkerConnections);
    }

    /// Drive one connection, then bring its epoll registration and
    /// waiting-list entry in line with its new state (or drop it once
    /// done). Returns whether anything moved.
    fn drive(&mut self, ctx: &WorkerCtx<'a>, slot: usize, scratch: &mut [u8]) -> bool {
        let Some(conn) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return false;
        };
        let progress = conn.drive(ctx, scratch, &mut self.tally);
        let want = conn.interest();
        let registered = match (conn.done(), conn.registered, want) {
            // Closing a socket removes it from the set, so a finished
            // connection needs no `delete`.
            (true, ..) => false,
            (false, from, to) if from == to => true,
            (false, None, Some(to)) => self.poller.add(&conn.stream, slot as u64, to).is_ok(),
            (false, Some(_), Some(to)) => self.poller.modify(&conn.stream, slot as u64, to).is_ok(),
            (false, Some(_), None) => self.poller.delete(&conn.stream).is_ok(),
            (false, None, None) => unreachable!("equal interests matched above"),
        };
        if !registered {
            self.release(slot);
            return true;
        }
        conn.registered = want;
        if (want.is_none() || conn.held_back()) && !conn.listed {
            conn.listed = true;
            self.waiting.push(slot);
        }
        progress
    }

    /// Drop a connection, settling the gauges it holds.
    fn release(&mut self, slot: usize) {
        let Some(conn) = self.slots[slot].take() else {
            return;
        };
        self.free.push(slot);
        self.live -= 1;
        self.metrics.gauge_dec(Gauge::WorkerConnections);
        if let ConnState::Ingest(i) = &conn.state {
            if i.parked {
                self.metrics.gauge_dec(Gauge::WorkerParkedConnections);
            }
        }
    }

    /// Whether a listed connection holds results a full queue refused.
    fn retry_due(&self) -> bool {
        self.waiting
            .iter()
            .any(|&slot| self.slots[slot].as_ref().is_some_and(Conn::held_back))
    }
}

/// One worker: wait for readiness or the doorbell, adopt connections
/// from the inbox, drive whatever is ready, drain on shutdown.
pub(crate) fn worker_loop(
    shared: Arc<Shared>,
    inbox: Receiver<TcpStream>,
    poller: Poller,
    bell: Arc<Doorbell>,
    shards: Vec<SyncSender<WriterMsg>>,
) {
    let shared: &Shared = &shared;
    let ctx = WorkerCtx {
        shared,
        shards: &shards,
        bell: &bell,
    };
    let mut worker = Worker {
        poller,
        slots: Vec::new(),
        free: Vec::new(),
        live: 0,
        waiting: Vec::new(),
        metrics: shared.metrics.clone(),
        tally: TickCounters::default(),
    };
    let mut events = vec![Event::default(); EVENTS_PER_WAIT];
    let mut scratch = vec![0u8; READ_BUDGET];
    // Set once the inbox closes: when the drain last made progress.
    let mut draining: Option<Instant> = None;
    loop {
        // No timer unless a connection must retry a full queue or the
        // drain grace is running out.
        let mut timeout = worker.retry_due().then_some(RETRY_WAIT);
        if let Some(since) = draining {
            let left = DRAIN_GRACE.saturating_sub(since.elapsed());
            timeout = Some(timeout.map_or(left, |t| t.min(left)));
        }
        worker.tally.sleeps += 1;
        worker.tally.flush(&worker.metrics);
        let ready = worker
            .poller
            .wait(&mut events, timeout)
            .expect("epoll_wait on a valid set");
        let scan_start = worker.metrics.enabled().then(Instant::now);
        let mut ticked = false;
        let mut progress = false;
        // The doorbell first: a ring that lands after this drain stays
        // pending for the next wait, so an answer that arrives while
        // the waiting list is ticked below is never missed.
        if ready.iter().any(|event| event.token() == BELL_TOKEN) {
            bell.drain();
            while draining.is_none() {
                match inbox.try_recv() {
                    Ok(stream) => {
                        worker.adopt(stream);
                        progress = true;
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => draining = Some(Instant::now()),
                }
            }
        }
        for slot in std::mem::take(&mut worker.waiting) {
            if let Some(conn) = worker.slots[slot].as_mut() {
                conn.listed = false;
                ticked = true;
                progress |= worker.drive(&ctx, slot, &mut scratch);
            }
        }
        for event in ready.iter().filter(|event| event.token() != BELL_TOKEN) {
            let slot = event.token() as usize;
            // A waiting connection's stale event (it left the set after
            // this wait returned) is not a readiness signal.
            let registered = worker
                .slots
                .get(slot)
                .and_then(Option::as_ref)
                .is_some_and(|c| c.registered.is_some());
            if registered {
                ticked = true;
                progress |= worker.drive(&ctx, slot, &mut scratch);
            }
        }
        if ticked {
            worker.tally.ticks += 1;
            if let Some(start) = scan_start {
                worker.metrics.observe(
                    Histogram::WorkerTickScanUs,
                    start.elapsed().as_micros() as u64,
                );
            }
        }
        if let Some(since) = &mut draining {
            if worker.live == 0 {
                break;
            }
            if progress {
                *since = Instant::now();
            } else if since.elapsed() >= DRAIN_GRACE {
                // Stragglers (stalled clients, never-reading peers) are
                // dropped; everything they completed is already with
                // the writers.
                break;
            }
        }
    }
    // Force-dropped stragglers: settle the gauges they still hold so a
    // restart-free observer never sees phantom connections.
    for slot in 0..worker.slots.len() {
        worker.release(slot);
    }
    worker.tally.flush(&worker.metrics);
    // `shards` drops here: when the last worker exits, the writers see
    // their queues disconnect, commit their tails, and exit.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::StoreIdentity;
    use crate::store::ProfileStore;
    use crate::wire::RESP_EPOCHS;
    use crate::writer::PublishedSums;
    use hbbp_core::{Analyzer, HybridRule, SamplingPeriods, Window};
    use hbbp_program::{Bbec, ImageView, MnemonicMix};
    use hbbp_workloads::{phased_client, Scale};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;

    fn window_record(index: u32) -> WindowRecord {
        WindowRecord {
            source: 0,
            index,
            start_cycles: 0,
            end_cycles: 0,
            ebs_samples: 0,
            lbr_samples: 0,
            mix: MnemonicMix::new(),
        }
    }

    /// Backpressure parking is observable, and each transition counts
    /// exactly once: a connection over [`WINDOW_HIGH_WATER`] against a
    /// full shard queue parks (counter +1, gauge up) and stays parked
    /// across further ticks without re-counting; draining the queue
    /// unparks it symmetrically.
    #[test]
    fn park_unpark_transitions_count_exactly_once() {
        let w = phased_client(Scale::Tiny, 0);
        let analyzer = Analyzer::from_images(&w.images(ImageView::Disk), w.layout().symbols())
            .expect("discovery");
        let metrics = Metrics::new(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shared = Shared {
            analyzer,
            periods: SamplingPeriods {
                ebs: 1009,
                lbr: 211,
            },
            rule: HybridRule::paper_default(),
            window: Some(Window::Samples(64)),
            addr,
            shutdown: AtomicBool::new(false),
            metrics: metrics.clone(),
            sums: Vec::new(),
        };
        // One shard, one queue slot, pre-stuffed: every flush sees Full
        // until the test drains the receiver.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        tx.send(WriterMsg::Windows(Vec::new()))
            .expect("stuff queue");
        let shards = vec![tx];
        let bell = Arc::new(Doorbell::new().expect("eventfd"));
        let ctx = WorkerCtx {
            shared: &shared,
            shards: &shards,
            bell: &bell,
        };

        // Keep the client end alive so reads yield WouldBlock, not EOF.
        let _client = TcpStream::connect(addr).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nonblocking(true).expect("nonblocking");
        let mut conn = Conn::new(stream);
        conn.state = ConnState::Ingest(Box::new(Ingest {
            source: 0,
            decoder: StreamDecoder::new(),
            online: OnlineAnalyzer::new(&shared.analyzer, shared.periods, shared.rule.clone()),
            pending_windows: (0..WINDOW_HIGH_WATER as u32).map(window_record).collect(),
            windows_flushed: 0,
            parked: false,
        }));
        let mut scratch = vec![0u8; READ_BUDGET];

        conn.tick(&ctx, &mut scratch);
        assert_eq!(metrics.counter_value(Counter::WorkerParks), 1, "parked");
        assert_eq!(metrics.counter_value(Counter::WorkerUnparks), 0);
        assert_eq!(
            metrics.gauge_value(Gauge::WorkerParkedConnections, 0),
            (1, 1)
        );

        // Still over the high-water mark: no re-count.
        conn.tick(&ctx, &mut scratch);
        assert_eq!(metrics.counter_value(Counter::WorkerParks), 1);
        assert_eq!(metrics.counter_value(Counter::WorkerUnparks), 0);

        // Drain the stuffed message; the next flush succeeds and the
        // connection unparks.
        drop(rx.recv().expect("drain stuffed message"));
        conn.tick(&ctx, &mut scratch);
        assert_eq!(metrics.counter_value(Counter::WorkerParks), 1);
        assert_eq!(metrics.counter_value(Counter::WorkerUnparks), 1, "unparked");
        assert_eq!(
            metrics.gauge_value(Gauge::WorkerParkedConnections, 0),
            (0, 1),
            "gauge settled, high-water remembers the park"
        );
        // The accepted flush raised the queue-depth gauge in step.
        assert_eq!(metrics.gauge_value(Gauge::WriterQueueDepth, 0), (1, 1));
        match rx.recv().expect("flushed batch") {
            WriterMsg::Windows(batch) => assert_eq!(batch.len(), WINDOW_HIGH_WATER),
            _ => panic!("expected the window batch"),
        }
    }

    /// A read query never waits on a shard writer: with the only shard's
    /// queue full and nobody draining it, `QUERY_MIX` and `EPOCHS` still
    /// answer, from the sums the writer published. A worker that asked
    /// the writer would block on the full queue, and the client's read
    /// would time out instead.
    #[test]
    fn reads_answer_while_the_shard_writer_is_stalled() {
        let w = phased_client(Scale::Tiny, 0);
        let analyzer = Analyzer::from_images(&w.images(ImageView::Disk), w.layout().symbols())
            .expect("discovery");
        let dir = std::env::temp_dir().join(format!("hbbp-server-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("stalled.hbbp");
        let _ = std::fs::remove_file(&path);
        let identity = StoreIdentity::of_workload(&w, analyzer.map());
        let mut store = ProfileStore::open_with_identity(&path, identity).expect("store");
        let block = analyzer.map().blocks()[0].start;
        let counts: Bbec = [(block, 123.0)].into_iter().collect();
        store.append_counts(7, 10, 5, counts).expect("append");
        let mix = analyzer.mix(&store.partials().aggregate());
        let want_mix = encode_mix(&mix.iter().collect::<Vec<_>>());
        assert!(
            mix.iter().next().is_some(),
            "the store's mix must not be empty"
        );
        let epochs = store.partials().epoch_stats();
        assert_eq!(
            (
                epochs[0].counts_frames,
                epochs[0].ebs_samples,
                epochs[0].lbr_samples
            ),
            (1, 10, 5)
        );

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shared = Arc::new(Shared {
            analyzer,
            periods: SamplingPeriods {
                ebs: 1009,
                lbr: 211,
            },
            rule: HybridRule::paper_default(),
            window: None,
            addr,
            shutdown: AtomicBool::new(false),
            metrics: Metrics::disabled(),
            sums: vec![Arc::new(PublishedSums::new(&store))],
        });
        // One shard, one queue slot, pre-stuffed, and no writer draining
        // it.
        let (tx, stalled) = std::sync::mpsc::sync_channel(1);
        tx.send(WriterMsg::Windows(Vec::new()))
            .expect("stuff queue");
        let poller = Poller::new().expect("epoll");
        let bell = Arc::new(Doorbell::new().expect("eventfd"));
        poller
            .add(&*bell, BELL_TOKEN, Interest::Readable)
            .expect("watch the doorbell");
        let (inbox_tx, inbox) = std::sync::mpsc::channel();
        let worker = {
            let shared = Arc::clone(&shared);
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || worker_loop(shared, inbox, poller, bell, vec![tx]))
        };

        let ask = |op: u8| -> (u8, Vec<u8>) {
            let mut client = TcpStream::connect(addr).expect("connect");
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nonblocking(true).expect("nonblocking");
            inbox_tx.send(stream).expect("worker inbox");
            bell.ring();
            client
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            client.write_all(&[op, 0, 0, 0, 0]).expect("request");
            let mut header = [0u8; 5];
            client
                .read_exact(&mut header)
                .unwrap_or_else(|e| panic!("op {op}: no reply while the writer stalls: {e}"));
            let len = u32::from_le_bytes(header[1..5].try_into().expect("4 bytes"));
            let mut payload = vec![0u8; len as usize];
            client.read_exact(&mut payload).expect("payload");
            (header[0], payload)
        };
        assert_eq!(ask(OP_QUERY_MIX), (RESP_MIX, want_mix));
        assert_eq!(ask(OP_EPOCHS), (RESP_EPOCHS, encode_epochs(&epochs)));

        drop(inbox_tx);
        bell.ring();
        worker.join().expect("worker exits");
        drop(stalled);
        let _ = std::fs::remove_file(&path);
    }
}
