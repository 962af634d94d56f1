//! Per-shard single-writer ingest queues.
//!
//! Each store shard is owned outright by one writer thread — no
//! `Mutex<ProfileStore>` anywhere. Workers parse and analyze streams,
//! then hand *completed* results (window batches, counts frames) over a
//! **bounded** queue; the writer drains whatever has accumulated and
//! group-commits the whole batch as a single file write
//! ([`ProfileStore::commit`]). An ingest reply (the assigned `seq`) is
//! released only after the commit that made its frame durable, so a
//! client that has its `INGESTED` reply knows the counts frame is in
//! the log.
//!
//! Read queries (`QUERY_MIX`, `QUERY_TOP`, `EPOCHS`, `DRIFT`) are
//! serialized through the same queue, which gives them read-your-writes
//! consistency per shard for free: the writer commits everything
//! buffered before answering. The answer is the shard's counts frames
//! and their epoch stamps only — window frames never leave the writer —
//! and the frames' counts tables are shared, not copied.
//!
//! Shutdown: the writer exits when every sender is gone (workers drop
//! their clones as they drain), after committing its tail — the
//! drain-on-shutdown path.

use crate::frame::{CountsRecord, WindowRecord};
use crate::store::ProfileStore;
use hbbp_obs::{Counter, Gauge, Histogram, Metrics};
use hbbp_program::Bbec;
use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

/// Messages a shard writer consumes, in arrival order.
pub(crate) enum WriterMsg {
    /// Closed timeline windows from an in-flight stream (fire and
    /// forget: the timeline is an observability stream).
    Windows(Vec<WindowRecord>),
    /// A completed stream's counts frame; `reply` carries the assigned
    /// `seq`, sent only after the group commit that durably wrote it.
    Counts {
        /// Collector source id.
        source: u32,
        /// EBS samples the stream contributed.
        ebs_samples: u64,
        /// LBR samples the stream contributed.
        lbr_samples: u64,
        /// The whole-stream analysis (bit-exact `f64` counts).
        bbec: Bbec,
        /// Where the committed `seq` (or error) goes.
        reply: Sender<Result<u32, String>>,
    },
    /// The shard's counts frames for a read query (pending appends
    /// committed first). The shard index is echoed back so gathering
    /// workers can fold partitions in index order — compacted fold
    /// frames all share the same `(source, seq)` key, so arrival order
    /// must not leak into the canonical aggregate.
    ReadCounts(usize, Sender<ShardCounts>),
    /// Shard statistics (pending appends committed first).
    Stats(Sender<ShardStats>),
    /// Compact the shard's log (pending appends absorbed by the rewrite).
    Compact(Sender<Result<(), String>>),
}

/// One shard's answer to [`WriterMsg::ReadCounts`]: the shard index,
/// its counts frames in log order, and each frame's epoch stamp.
pub(crate) type ShardCounts = (usize, Vec<CountsRecord>, Vec<u32>);

/// One shard's contribution to [`crate::wire::DaemonStats`].
pub(crate) struct ShardStats {
    pub counts_frames: u64,
    pub window_frames: u64,
    pub bytes: u64,
    /// Source ids in this shard's counts frames (deduped globally by the
    /// gathering worker).
    pub sources: Vec<u32>,
}

/// Upper bound on messages folded into one group commit — bounds reply
/// latency under a sustained ingest firehose.
const MAX_BATCH: usize = 512;

/// The shard writer: drain the queue, apply appends deferred, group
/// commit, release replies. Runs until every sender is dropped.
pub(crate) fn writer_loop(
    mut store: ProfileStore,
    rx: Receiver<WriterMsg>,
    metrics: Metrics,
    shard: usize,
) {
    // Ingest replies withheld until the commit that makes them true.
    let mut uncommitted: Vec<(Sender<Result<u32, String>>, u32)> = Vec::new();
    let mut batch: Vec<WriterMsg> = Vec::new();
    // Deferred appends are pending (the commit will actually write).
    let mut dirty = false;
    while let Ok(first) = rx.recv() {
        batch.push(first);
        while batch.len() < MAX_BATCH {
            match rx.try_recv() {
                Ok(msg) => batch.push(msg),
                Err(_) => break,
            }
        }
        // The sending worker raised the queue-depth gauge per message;
        // lower it as the batch leaves the queue.
        for _ in 0..batch.len() {
            metrics.gauge_shard_dec(Gauge::WriterQueueDepth, shard);
        }
        metrics.observe(Histogram::WriterBatchMessages, batch.len() as u64);
        for msg in batch.drain(..) {
            match msg {
                WriterMsg::Windows(records) => {
                    metrics.add(Counter::WriterWindowsAppended, records.len() as u64);
                    dirty = true;
                    for w in records {
                        // Cannot fail: the store was opened with an
                        // identity; I/O is deferred to the commit.
                        let _ = store.append_window_deferred(w);
                    }
                }
                WriterMsg::Counts {
                    source,
                    ebs_samples,
                    lbr_samples,
                    bbec,
                    reply,
                } => match store.append_counts_deferred(source, ebs_samples, lbr_samples, bbec) {
                    Ok(seq) => {
                        metrics.inc(Counter::WriterCountsAppended);
                        dirty = true;
                        uncommitted.push((reply, seq));
                    }
                    Err(e) => {
                        let _ = reply.send(Err(e.to_string()));
                    }
                },
                WriterMsg::ReadCounts(shard, reply) => {
                    commit(&mut store, &mut uncommitted, &metrics, &mut dirty);
                    let (counts, epochs) = store.counts_view();
                    let _ = reply.send((shard, counts, epochs));
                }
                WriterMsg::Stats(reply) => {
                    commit(&mut store, &mut uncommitted, &metrics, &mut dirty);
                    let _ = reply.send(ShardStats {
                        counts_frames: store.counts().len() as u64,
                        window_frames: store.windows().len() as u64,
                        bytes: store.file_bytes(),
                        sources: store.counts().iter().map(|c| c.source).collect(),
                    });
                }
                WriterMsg::Compact(reply) => {
                    commit(&mut store, &mut uncommitted, &metrics, &mut dirty);
                    let _ = reply.send(store.compact().map_err(|e| e.to_string()));
                }
            }
        }
        // Group commit: one file write for every append in the batch,
        // then release the ingest replies it covers.
        commit(&mut store, &mut uncommitted, &metrics, &mut dirty);
    }
    // Drain on shutdown: all senders gone, every queued message already
    // consumed by the loop above — just make sure the tail is written.
    let _ = store.commit();
}

fn commit(
    store: &mut ProfileStore,
    uncommitted: &mut Vec<(Sender<Result<u32, String>>, u32)>,
    metrics: &Metrics,
    dirty: &mut bool,
) {
    let result = if *dirty {
        *dirty = false;
        let bytes_before = store.file_bytes();
        let started = Instant::now();
        let result = store.commit().map_err(|e| e.to_string());
        metrics.inc(Counter::WriterCommits);
        metrics.observe(
            Histogram::WriterCommitUs,
            started.elapsed().as_micros() as u64,
        );
        metrics.add(
            Counter::WriterBytesCommitted,
            store.file_bytes().saturating_sub(bytes_before),
        );
        result
    } else {
        // Nothing deferred: the commit is a no-op and not worth a
        // latency observation.
        store.commit().map_err(|e| e.to_string())
    };
    for (reply, seq) in uncommitted.drain(..) {
        let _ = reply.send(result.clone().map(|()| seq));
    }
}
