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
//! buffered before answering. The answer is the shard's running exact
//! sums — per epoch, its accounting and each block's sum as an
//! expansion — so its size and the gathering worker's cost depend on
//! epochs and blocks, never on the number of frames. Sealed epochs'
//! partials are shared, not copied.
//!
//! Every answer goes back through a [`Reply`], which rings the asking
//! worker's doorbell once the answer is in its channel — once per
//! request, even when the request was fanned out to every shard.
//!
//! Shutdown: the writer exits when every sender is gone (workers drop
//! their clones as they drain), after committing its tail — the
//! drain-on-shutdown path.

use crate::frame::WindowRecord;
use crate::poll::Doorbell;
use crate::store::{EpochPartial, ProfileStore};
use hbbp_obs::{Counter, Gauge, Histogram, Metrics};
use hbbp_program::Bbec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Where a writer's answer goes: a channel back to the asking worker,
/// plus that worker's doorbell.
///
/// The replies of one request share a countdown: a request fanned out
/// to every shard rings the doorbell once, when the last shard answers,
/// so the gathering worker wakes once per query rather than once per
/// shard. A reply dropped unsent (its writer failed) counts down too —
/// after closing its channel end, so the woken worker sees the shard
/// gone instead of waiting for an answer that never comes.
pub(crate) struct Reply<T> {
    tx: Option<Sender<T>>,
    bell: Arc<Doorbell>,
    outstanding: Arc<AtomicUsize>,
}

impl<T> Reply<T> {
    /// The `n` replies of one request answered on `tx`.
    pub(crate) fn fan(tx: &Sender<T>, bell: &Arc<Doorbell>, n: usize) -> Vec<Reply<T>> {
        let outstanding = Arc::new(AtomicUsize::new(n));
        (0..n)
            .map(|_| Reply {
                tx: Some(tx.clone()),
                bell: Arc::clone(bell),
                outstanding: Arc::clone(&outstanding),
            })
            .collect()
    }

    /// Answer; the doorbell rings if this was the request's last reply.
    pub(crate) fn send(mut self, value: T) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(value);
        }
    }
}

impl<T> Drop for Reply<T> {
    fn drop(&mut self) {
        drop(self.tx.take());
        // AcqRel: each reply's send (or channel close) is released by
        // its own count-down, and the last count-down acquires them all
        // before ringing, so the woken worker finds every answer.
        if self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.bell.ring();
        }
    }
}

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
        reply: Reply<Result<u32, String>>,
    },
    /// The shard's exact partial of every epoch, ascending by epoch, for
    /// a read query (pending appends committed first). Exact sums do not
    /// depend on order, so the gathering worker adds the shards' answers
    /// as they arrive.
    ReadSums(Reply<Vec<Arc<EpochPartial>>>),
    /// Shard statistics (pending appends committed first).
    Stats(Reply<ShardStats>),
    /// Compact the shard's log (pending appends absorbed by the rewrite).
    Compact(Reply<Result<(), String>>),
}

/// One shard's contribution to [`crate::wire::DaemonStats`].
pub(crate) struct ShardStats {
    pub counts_frames: u64,
    pub window_frames: u64,
    pub bytes: u64,
    /// Distinct source ids in this shard's counts frames (the gathering
    /// worker dedups them across shards).
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
    let mut uncommitted: Vec<(Reply<Result<u32, String>>, u32)> = Vec::new();
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
                    Err(e) => reply.send(Err(e.to_string())),
                },
                WriterMsg::ReadSums(reply) => {
                    commit(&mut store, &mut uncommitted, &metrics, &mut dirty);
                    reply.send(store.epoch_partials());
                }
                WriterMsg::Stats(reply) => {
                    commit(&mut store, &mut uncommitted, &metrics, &mut dirty);
                    reply.send(ShardStats {
                        counts_frames: store.counts_frames(),
                        window_frames: store.window_frames(),
                        bytes: store.file_bytes(),
                        sources: store.sources(),
                    });
                }
                WriterMsg::Compact(reply) => {
                    commit(&mut store, &mut uncommitted, &metrics, &mut dirty);
                    reply.send(store.compact().map_err(|e| e.to_string()));
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
    uncommitted: &mut Vec<(Reply<Result<u32, String>>, u32)>,
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
        reply.send(result.clone().map(|()| seq));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request fanned out to N shards rings the doorbell exactly
    /// once, after the last shard's answer is in the channel.
    #[test]
    fn fan_out_rings_once_after_the_last_reply() {
        const SHARDS: usize = 4;
        let bell = Arc::new(Doorbell::new().expect("eventfd"));
        let (tx, rx) = std::sync::mpsc::channel();
        let replies = Reply::fan(&tx, &bell, SHARDS);
        drop(tx);
        for (i, reply) in replies.into_iter().enumerate() {
            assert_eq!(bell.drain(), 0, "silent before reply {i} of {SHARDS}");
            reply.send(i);
        }
        assert_eq!(bell.drain(), 1, "one ring for the whole fan-out");
        let got: Vec<usize> = rx.try_iter().collect();
        assert_eq!(got, (0..SHARDS).collect::<Vec<_>>(), "every answer arrived");
    }

    /// A reply dropped unsent still counts down, and its channel end is
    /// closed by the time the doorbell rings.
    #[test]
    fn a_dropped_reply_rings_with_its_channel_closed() {
        let bell = Arc::new(Doorbell::new().expect("eventfd"));
        let (tx, rx) = std::sync::mpsc::channel::<u32>();
        let mut replies = Reply::fan(&tx, &bell, 2);
        drop(tx);
        let unsent = replies.pop().expect("second");
        replies.pop().expect("first").send(7);
        assert_eq!(bell.drain(), 0, "one reply still outstanding");
        drop(unsent);
        assert_eq!(bell.drain(), 1);
        assert_eq!(rx.try_recv(), Ok(7));
        assert_eq!(
            rx.try_recv(),
            Err(std::sync::mpsc::TryRecvError::Disconnected)
        );
    }
}
