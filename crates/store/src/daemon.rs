//! `hbbpd` — the concurrent collection daemon.
//!
//! Event-driven: one acceptor thread, a small pool of workers (the
//! `server` module) each multiplexing many **nonblocking** connections
//! behind one readiness wait (an epoll set plus an eventfd doorbell;
//! Linux only), and one single-writer thread per store shard (the
//! `writer` module). Nothing polls on a timer: a worker wakes only when
//! a socket it watches is ready or its doorbell rings — the acceptor
//! rings it after queueing a connection, a writer after answering it.
//! There is no `Mutex<ProfileStore>` anywhere — each shard file
//! (`part-<i>.hbbp`, shard = `source % shards`) is owned outright by
//! its writer, which drains a bounded queue and group-commits batched
//! appends as single file writes.
//! `docs/DAEMON.md` is the spec for this concurrency model.
//!
//! Each [`OP_STREAM`](crate::wire::OP_STREAM) connection is decoded
//! incrementally (strict [`hbbp_perf::StreamDecoder`], tolerant of
//! partial reads at any byte boundary) and fed through **one**
//! [`hbbp_core::OnlineAnalyzer`], which yields both of its outputs from
//! the one pass:
//!
//! * the whole-stream analysis — bit-identical to
//!   `Analyzer::analyze_fused` over the same recording (pinned in
//!   `hbbp-core`), it becomes the connection's counts frame at end of
//!   stream. This is what makes a queried aggregate bit-identical to
//!   folding single-process batch analyses. A windowed daemon builds
//!   the analyzer [`with_whole_stream`](hbbp_core::OnlineAnalyzer::with_whole_stream),
//!   so each window's tallies also go into whole-stream totals;
//! * when the daemon keeps a timeline, the closed windows, drained
//!   through [`hbbp_core::OnlineAnalyzer::take_closed_windows`] and
//!   flushed into the store **while the stream is still running** — the
//!   timeline survives even if the daemon is killed mid-connection.
//!
//! A connection that errors (corrupt stream, truncated tail from a dying
//! client) contributes no **counts**: the COUNTS frame is written only
//! after its stream decoded completely, so the aggregate profile never
//! sees a partial recording. WINDOW timeline frames flushed before the
//! failure do remain — that is the point of flush-as-you-go (the
//! timeline survives daemon and client crashes), and timeline consumers
//! should treat it as an observability stream, not as proof of a
//! complete recording.
//!
//! Shutdown ordering (each arrow is "unblocks / joins"): a client's
//! SHUTDOWN sets the flag and pokes the acceptor → the acceptor stops
//! accepting, drops the worker inboxes and rings every doorbell →
//! workers drain their live connections (force-dropping stragglers
//! after a grace period) and drop their writer senders → writers drain
//! their queues, commit their tails and exit → the acceptor joins
//! workers, then writers → the [`DaemonHandle`] joins the acceptor.

use crate::frame::StoreIdentity;
use crate::poll::{Doorbell, Interest, Poller};
use crate::server::{worker_loop, BELL_TOKEN};
use crate::store::{ProfileStore, StoreError};
use crate::wire::{StoreClient, WireError};
use crate::writer::{writer_loop, WriterMsg};
use hbbp_core::{Analyzer, HybridRule, SamplingPeriods, Window};
use hbbp_obs::{Counter, Metrics};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default bound of each shard writer's ingest queue (messages).
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Cap on the auto-sized worker pool (`workers: 0`).
const MAX_AUTO_WORKERS: usize = 8;

/// Pause after a failed `accept` (other than an interrupt). Errors such
/// as running out of file descriptors repeat immediately until some
/// connection closes; retrying at once would pin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Configuration of a daemon instance.
#[derive(Debug)]
pub struct DaemonConfig {
    /// The analysis engine (owns the static block map all clients'
    /// streams resolve against).
    pub analyzer: Analyzer,
    /// The program identity every partition store is keyed by.
    pub identity: StoreIdentity,
    /// Sampling periods the collectors used.
    pub periods: SamplingPeriods,
    /// The HBBP decision rule to apply.
    pub rule: HybridRule,
    /// When set, each connection also runs a windowed analyzer and
    /// flushes closed windows into the store as timeline records.
    pub window: Option<Window>,
    /// Store partitions (files `part-<i>.hbbp` under `dir`), each owned
    /// by one writer thread.
    pub shards: usize,
    /// Directory holding the partition files (created if absent).
    pub dir: PathBuf,
    /// Worker threads multiplexing connections; `0` sizes the
    /// pool automatically (available parallelism, capped at 8).
    pub workers: usize,
    /// Bound of each shard writer's ingest queue, in messages; `0`
    /// means [`DEFAULT_QUEUE_DEPTH`]. A full queue exerts backpressure
    /// on the streams writing to that shard only.
    pub queue_depth: usize,
    /// Run the self-observability registry (`hbbp-obs`): every serving
    /// layer counts into it, [`OP_METRICS`](crate::wire::OP_METRICS)
    /// snapshots it, and STATS gains backpressure fields. When `false`
    /// the daemon carries a no-op handle (one predicted branch per
    /// would-be update) and METRICS returns an empty snapshot.
    pub metrics: bool,
}

/// What the connection state machines need from the daemon.
pub(crate) struct Shared {
    pub(crate) analyzer: Analyzer,
    pub(crate) periods: SamplingPeriods,
    pub(crate) rule: HybridRule,
    pub(crate) window: Option<Window>,
    pub(crate) addr: SocketAddr,
    pub(crate) shutdown: AtomicBool,
    pub(crate) metrics: Metrics,
}

/// A running daemon: join handle plus the bound address.
#[derive(Debug)]
pub struct DaemonHandle {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    metrics: Metrics,
}

impl DaemonHandle {
    /// The address the daemon is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's metrics handle (a no-op handle when the daemon was
    /// spawned with `metrics: false`) — e.g. for wiring a scrape
    /// endpoint via [`hbbp_obs::serve_text_endpoint`].
    pub fn metrics(&self) -> Metrics {
        self.metrics.clone()
    }

    /// A client speaking to this daemon.
    pub fn client(&self) -> StoreClient {
        StoreClient::new(self.addr)
    }

    /// Block until the daemon shuts down (a client sends
    /// [`OP_SHUTDOWN`](crate::wire::OP_SHUTDOWN)), joining the acceptor
    /// (which joins the workers and writers).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            h.join().expect("accept loop panicked");
        }
    }

    /// Send [`OP_SHUTDOWN`](crate::wire::OP_SHUTDOWN) and join the
    /// acceptor (which in turn joins every worker and shard writer).
    ///
    /// # Errors
    ///
    /// Propagates the shutdown request's wire errors; the join itself
    /// cannot fail (a panicked accept loop panics here).
    pub fn shutdown(mut self) -> Result<(), WireError> {
        self.client().shutdown()?;
        if let Some(h) = self.accept.take() {
            h.join().expect("accept loop panicked");
        }
        Ok(())
    }
}

/// Accept backlog requested for the daemon's listener (clamped by the
/// kernel to `net.core.somaxconn`). `TcpListener::bind` hard-codes a
/// backlog of 128, which a fleet of collectors connecting at once
/// overflows — dropped SYNs then cost each affected client a ~1 s
/// retransmission timeout.
const ACCEPT_BACKLOG: i32 = 1024;

/// Widen the accept backlog of an already-listening socket.
///
/// POSIX allows calling `listen(2)` again on a listening socket, and on
/// Linux this simply updates the backlog. std offers no way to pass a
/// backlog, hence the single raw syscall; it cannot create UB (the fd is
/// valid and owned for the call's duration) and a failure merely leaves
/// the default backlog in place.
#[cfg(unix)]
#[allow(unsafe_code)]
fn widen_accept_backlog(listener: &TcpListener) -> bool {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn listen(fd: std::os::raw::c_int, backlog: std::os::raw::c_int) -> std::os::raw::c_int;
    }
    // SAFETY: `listen` neither reads nor writes user memory; the fd is
    // kept alive by the borrow.
    unsafe { listen(listener.as_raw_fd(), ACCEPT_BACKLOG) == 0 }
}

#[cfg(not(unix))]
fn widen_accept_backlog(_listener: &TcpListener) -> bool {
    false
}

/// Resolve `workers: 0` to the machine's available parallelism, capped.
fn auto_workers(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_AUTO_WORKERS)
}

/// Spawn a daemon on a loopback ephemeral port.
///
/// # Errors
///
/// Store-opening failures for any partition, or the listener bind.
pub fn spawn(config: DaemonConfig) -> Result<DaemonHandle, StoreError> {
    std::fs::create_dir_all(&config.dir)?;
    let queue_depth = if config.queue_depth == 0 {
        DEFAULT_QUEUE_DEPTH
    } else {
        config.queue_depth
    };
    let metrics = if config.metrics {
        Metrics::new(config.shards.max(1))
    } else {
        Metrics::disabled()
    };
    let mut shard_txs: Vec<SyncSender<WriterMsg>> = Vec::new();
    let mut writers: Vec<JoinHandle<()>> = Vec::new();
    for i in 0..config.shards.max(1) {
        let path = config.dir.join(format!("part-{i}.hbbp"));
        let store = ProfileStore::open_with_identity(path, config.identity.clone())?;
        let (tx, rx) = std::sync::mpsc::sync_channel(queue_depth);
        shard_txs.push(tx);
        let writer_metrics = metrics.clone();
        writers.push(std::thread::spawn(move || {
            writer_loop(store, rx, writer_metrics, i)
        }));
    }

    let listener = TcpListener::bind("127.0.0.1:0")?;
    if widen_accept_backlog(&listener) {
        metrics.inc(Counter::AcceptorBacklogRearms);
    }
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        analyzer: config.analyzer,
        periods: config.periods,
        rule: config.rule,
        window: config.window,
        addr,
        shutdown: AtomicBool::new(false),
        metrics: metrics.clone(),
    });

    // Every worker's epoll set and doorbell exist before any worker
    // starts: a failure here leaves no thread blocked on a wait that
    // nobody would ring.
    let wakes = (0..auto_workers(config.workers))
        .map(|_| {
            let poller = Poller::new()?;
            let bell = Arc::new(Doorbell::new()?);
            poller.add(&*bell, BELL_TOKEN, Interest::Readable)?;
            Ok((poller, bell))
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut worker_txs: Vec<Sender<TcpStream>> = Vec::new();
    let mut bells: Vec<Arc<Doorbell>> = Vec::new();
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for (poller, bell) in wakes {
        let (tx, rx) = std::sync::mpsc::channel();
        worker_txs.push(tx);
        bells.push(Arc::clone(&bell));
        let shared = Arc::clone(&shared);
        let shards = shard_txs.clone();
        workers.push(std::thread::spawn(move || {
            worker_loop(shared, rx, poller, bell, shards)
        }));
    }
    // The workers hold the only long-lived writer senders: when the last
    // worker drains and exits, the writers see disconnect and exit too.
    drop(shard_txs);

    let accept = std::thread::spawn(move || {
        let mut next = 0usize;
        for stream in listener.incoming() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    std::thread::sleep(ACCEPT_BACKOFF);
                    continue;
                }
            };
            // The workers require readiness semantics; nodelay keeps
            // small replies from waiting on Nagle.
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            shared.metrics.inc(Counter::AcceptorAccepts);
            // Round-robin connection placement across the pool.
            let worker = next % worker_txs.len();
            if worker_txs[worker].send(stream).is_ok() {
                bells[worker].ring();
            }
            next += 1;
        }
        // Shutdown ordering: close the inboxes and wake every worker so
        // it sees them closed and drains...
        drop(worker_txs);
        for bell in &bells {
            bell.ring();
        }
        for w in workers {
            let _ = w.join();
        }
        // ...then the writers (their queues disconnect once the last
        // worker drops its senders).
        for w in writers {
            let _ = w.join();
        }
    });

    Ok(DaemonHandle {
        addr,
        accept: Some(accept),
        metrics,
    })
}
