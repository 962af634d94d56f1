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
//! Read queries (`QUERY_MIX`, `QUERY_TOP`, `EPOCHS`, `DRIFT`) never
//! reach the queue. Each writer **publishes** its shard's running exact
//! sums in a [`PublishedSums`] slot — per epoch, its accounting and each
//! block's sum: sealed epochs as shared expansions, the open epoch as a
//! copy of its superaccumulators — and a worker answers a read from the
//! slots alone, so its cost depends on epochs and blocks, never on the
//! number of frames, and never waits on a writer. A writer publishes
//! only when its sums changed (a commit that covers counts frames, a
//! compaction), and always before it releases the replies of that
//! commit: a client that has its `INGESTED` reply reads its own write.
//!
//! What does go through the queue — an ingest's committed `seq`,
//! `STATS`, a `COMPACT` ack — is answered through a [`Reply`], which
//! rings the asking worker's doorbell once the answer is in its
//! channel — once per request, even when the request was fanned out to
//! every shard.
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
use std::sync::{Arc, Mutex, PoisonError};
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

/// One shard's running sums as its writer last published them: every
/// epoch's exact partial, ascending by epoch.
pub(crate) struct PublishedSums(Mutex<Arc<[Arc<EpochPartial>]>>);

impl PublishedSums {
    /// The sums of a freshly opened store.
    pub(crate) fn new(store: &ProfileStore) -> PublishedSums {
        PublishedSums(Mutex::new(store.epoch_partials().into()))
    }

    /// Replace the published sums with the store's current ones. Each
    /// update is one pointer store, so a guard recovered from a poisoned
    /// lock still holds a whole publication.
    fn publish(&self, store: &ProfileStore) {
        let sums: Arc<[Arc<EpochPartial>]> = store.epoch_partials().into();
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = sums;
    }

    /// The sums last published; the lock is held for one reference-count
    /// bump.
    pub(crate) fn load(&self) -> Arc<[Arc<EpochPartial>]> {
        Arc::clone(&self.0.lock().unwrap_or_else(PoisonError::into_inner))
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
/// commit, publish the sums, release replies. Runs until every sender is
/// dropped.
pub(crate) fn writer_loop(
    store: ProfileStore,
    rx: Receiver<WriterMsg>,
    published: Arc<PublishedSums>,
    metrics: Metrics,
    shard: usize,
) {
    let mut w = Writer {
        store,
        published,
        metrics,
        uncommitted: Vec::new(),
        dirty: false,
    };
    let mut batch: Vec<WriterMsg> = Vec::new();
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
            w.metrics.gauge_shard_dec(Gauge::WriterQueueDepth, shard);
        }
        w.metrics
            .observe(Histogram::WriterBatchMessages, batch.len() as u64);
        for msg in batch.drain(..) {
            match msg {
                WriterMsg::Windows(records) => {
                    w.metrics
                        .add(Counter::WriterWindowsAppended, records.len() as u64);
                    w.dirty = true;
                    for rec in records {
                        // Cannot fail: the store was opened with an
                        // identity; I/O is deferred to the commit.
                        let _ = w.store.append_window_deferred(rec);
                    }
                }
                WriterMsg::Counts {
                    source,
                    ebs_samples,
                    lbr_samples,
                    bbec,
                    reply,
                } => match w
                    .store
                    .append_counts_deferred(source, ebs_samples, lbr_samples, bbec)
                {
                    Ok(seq) => {
                        w.metrics.inc(Counter::WriterCountsAppended);
                        w.dirty = true;
                        w.uncommitted.push((reply, seq));
                    }
                    Err(e) => reply.send(Err(e.to_string())),
                },
                WriterMsg::Stats(reply) => {
                    w.commit();
                    reply.send(ShardStats {
                        counts_frames: w.store.counts_frames(),
                        window_frames: w.store.window_frames(),
                        bytes: w.store.file_bytes(),
                        sources: w.store.sources(),
                    });
                }
                WriterMsg::Compact(reply) => {
                    w.commit();
                    let result = w.store.compact().map_err(|e| e.to_string());
                    w.published.publish(&w.store);
                    reply.send(result);
                }
            }
        }
        // Group commit: one file write for every append in the batch,
        // then release the ingest replies it covers.
        w.commit();
    }
    // Drain on shutdown: all senders gone, every queued message already
    // consumed by the loop above — just make sure the tail is written.
    let _ = w.store.commit();
}

/// A shard writer's state between messages.
struct Writer {
    store: ProfileStore,
    published: Arc<PublishedSums>,
    metrics: Metrics,
    /// Ingest replies withheld until the commit that makes them true.
    uncommitted: Vec<(Reply<Result<u32, String>>, u32)>,
    /// Deferred appends are pending (the commit will actually write).
    dirty: bool,
}

impl Writer {
    /// Write the deferred appends; when they include counts frames,
    /// publish the sums that now hold them, then release those frames'
    /// replies.
    fn commit(&mut self) {
        let store = &mut self.store;
        let result = if self.dirty {
            self.dirty = false;
            let bytes_before = store.file_bytes();
            let started = Instant::now();
            let result = store.commit().map_err(|e| e.to_string());
            self.metrics.inc(Counter::WriterCommits);
            self.metrics.observe(
                Histogram::WriterCommitUs,
                started.elapsed().as_micros() as u64,
            );
            self.metrics.add(
                Counter::WriterBytesCommitted,
                store.file_bytes().saturating_sub(bytes_before),
            );
            result
        } else {
            // Nothing deferred: the commit is a no-op and not worth a
            // latency observation.
            store.commit().map_err(|e| e.to_string())
        };
        // Every counts frame appended leaves a reply here, so the sums
        // changed exactly when one is waiting; a commit of window frames
        // alone publishes nothing.
        if !self.uncommitted.is_empty() {
            self.published.publish(store);
        }
        for (reply, seq) in self.uncommitted.drain(..) {
            reply.send(result.clone().map(|()| seq));
        }
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
