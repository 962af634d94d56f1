//! # hbbp-obs — self-observability for the serving stack
//!
//! The source paper's pitch is *low-overhead* profiling; this crate is
//! how the reproduction holds itself to the same standard. It provides a
//! **lock-free metrics registry** — atomic counters, gauges with
//! high-water tracking, and fixed-bucket log2 histograms — that `hbbpd`
//! threads through its acceptor, workers, shard writers and
//! the streaming hot path, so the daemon's own cost under fleet load is
//! continuously measurable (and pinned by the `instrumentation_overhead`
//! block of `BENCH_store.json`).
//!
//! Design rules, in order:
//!
//! * **No locks on the hot path.** Every update is a single relaxed
//!   atomic RMW; a snapshot is a relaxed read sweep. Totals observed by
//!   a quiesced snapshot are exact (pinned by the concurrency suite).
//! * **One cache line per metric.** Counter and gauge cells are
//!   64-byte-aligned so two hot metrics never false-share; a histogram's
//!   buckets are contiguous lines of their own.
//! * **Cheap to not use.** A [`Metrics`] handle is either a registry or
//!   a no-op (one predicted branch per update) — the overhead bench
//!   ingests through both and pins the difference.
//! * **Hot loops batch.** Per-record costs (decoder, analyzer) are never
//!   paid per record: the existing local counters on
//!   `StreamDecoder`/`OnlineAnalyzer` are harvested into the registry
//!   once per stream, and the worker flushes its tick counters
//!   periodically.
//!
//! The metric catalog ([`Counter`], [`Gauge`], [`Histogram`], each with
//! a [`MetricSpec`]) is the single source of truth behind the registry
//! layout, the rendered snapshot, the Prometheus exposition, and the
//! table in `docs/OBSERVABILITY.md` (golden-pinned by
//! `tests/metrics_doc.rs`). Snapshots travel the daemon wire protocol
//! self-describing ([`Snapshot::encode`]/[`Snapshot::decode`]), so a
//! client renders metrics a newer daemon grew without recompiling.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod endpoint;
mod registry;
mod snapshot;

pub use endpoint::serve_text_endpoint;
pub use registry::Metrics;
pub use snapshot::{CounterSample, GaugeSample, HistogramSample, Snapshot, SnapshotDecodeError};

/// What kind of instrument a metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing event count.
    Counter,
    /// A level with a high-water mark (current value + maximum ever).
    Gauge,
    /// A log2-bucketed value distribution with count and sum.
    Histogram,
}

impl MetricKind {
    /// The kind name as printed in docs and text renderings.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One catalog entry: everything the registry, the renderers and the
/// documentation need to know about a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Dotted metric name (`family.metric`), stable on the wire.
    pub name: &'static str,
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// Value unit (empty for plain event counts).
    pub unit: &'static str,
    /// `true` for metrics with one instance per store shard.
    pub per_shard: bool,
    /// One-line description (docs table, Prometheus `# HELP`).
    pub help: &'static str,
}

impl MetricSpec {
    /// The metric family — the name's leading `family.` component.
    pub fn family(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

macro_rules! catalog {
    ($enum_name:ident, $kind:expr, $all:ident;
     $($variant:ident => { $name:literal, $unit:literal, $per_shard:literal, $help:literal }),+ $(,)?) => {
        /// Catalog index of one registry metric (see [`MetricSpec`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        #[allow(missing_docs)] // each variant is documented by its spec
        pub enum $enum_name {
            $($variant,)+
        }

        /// Every metric of this kind, in catalog (and snapshot) order.
        pub const $all: &[$enum_name] = &[$($enum_name::$variant,)+];

        impl $enum_name {
            /// The metric's catalog entry.
            pub fn spec(self) -> MetricSpec {
                match self {
                    $($enum_name::$variant => MetricSpec {
                        name: $name,
                        kind: $kind,
                        unit: $unit,
                        per_shard: $per_shard,
                        help: $help,
                    },)+
                }
            }

            pub(crate) fn index(self) -> usize {
                self as usize
            }
        }
    };
}

catalog!(Counter, MetricKind::Counter, COUNTERS;
    AcceptorAccepts => { "acceptor.accepts", "connections", false,
        "connections handed to the worker pool by the accept loop" },
    AcceptorBacklogRearms => { "acceptor.backlog_rearms", "", false,
        "listen(2) re-arms widening the accept backlog past std's 128" },
    WorkerTicks => { "worker.ticks", "", false,
        "worker passes that drove ready or waiting connections" },
    WorkerConnTicks => { "worker.conn_ticks", "", false,
        "per-connection state-machine steps across all workers" },
    WorkerSleeps => { "worker.sleeps", "", false,
        "blocking waits on readiness or a doorbell across all workers" },
    WorkerReadBudgetExhausted => { "worker.read_budget_exhausted", "", false,
        "read passes cut off by the per-tick fairness budget" },
    WorkerParks => { "worker.parks", "", false,
        "connections that stopped reading under shard-queue backpressure" },
    WorkerUnparks => { "worker.unparks", "", false,
        "parked connections that resumed reading after their queue drained" },
    WriterCountsAppended => { "writer.counts_appended", "frames", false,
        "COUNTS frames appended by the shard writers this process" },
    WriterWindowsAppended => { "writer.windows_appended", "frames", false,
        "WINDOW timeline frames appended by the shard writers this process" },
    WriterBytesCommitted => { "writer.bytes_committed", "bytes", false,
        "segment-log bytes made durable by group commits" },
    WriterCommits => { "writer.commits", "", false,
        "group commits executed across all shard writers" },
    DecoderRecords => { "decoder.records", "records", false,
        "perf records decoded from ingest streams" },
    DecoderCompactions => { "decoder.compactions", "", false,
        "stream-buffer compactions (consumed prefix reclaimed)" },
    DecoderUnknownSkipped => { "decoder.unknown_skipped", "frames", false,
        "unknown-type frames skipped (forward compatibility)" },
    AnalyzerWindowCloses => { "analyzer.window_closes", "windows", false,
        "timeline windows closed by the online analyzers" },
);

catalog!(Gauge, MetricKind::Gauge, GAUGES;
    WorkerConnections => { "worker.connections", "connections", false,
        "connections currently multiplexed across the worker pool" },
    WorkerParkedConnections => { "worker.parked_connections", "connections", false,
        "connections currently parked (reads deprioritized) under backpressure" },
    WriterQueueDepth => { "writer.queue_depth", "messages", true,
        "messages queued to this shard's writer (bounded; full = backpressure)" },
);

catalog!(Histogram, MetricKind::Histogram, HISTOGRAMS;
    WorkerTickScanUs => { "worker.tick_scan_us", "us", false,
        "microseconds per worker pass spent driving ready and waiting connections" },
    WriterBatchMessages => { "writer.batch_messages", "messages", false,
        "queue messages folded into one group commit" },
    WriterCommitUs => { "writer.commit_us", "us", false,
        "microseconds per group commit (segment-log write)" },
);

/// Number of log2 histogram buckets. Bucket `0` holds the value `0`;
/// bucket `i` holds `[2^(i-1), 2^i)`; the last bucket absorbs everything
/// at or above `2^(HIST_BUCKETS-2)`.
pub const HIST_BUCKETS: usize = 32;

/// The bucket index a value lands in (see [`HIST_BUCKETS`]).
pub fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// The inclusive upper bound of bucket `i` (`None` for the unbounded
/// last bucket) — the `le` edge of the Prometheus exposition.
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    if i + 1 >= HIST_BUCKETS {
        None
    } else if i == 0 {
        Some(0)
    } else {
        Some((1u64 << i) - 1)
    }
}

/// Look up a catalog entry by its dotted name (any kind).
pub fn spec_for_name(name: &str) -> Option<MetricSpec> {
    COUNTERS
        .iter()
        .map(|c| c.spec())
        .chain(GAUGES.iter().map(|g| g.spec()))
        .chain(HISTOGRAMS.iter().map(|h| h.spec()))
        .find(|s| s.name == name)
}

/// The metric-catalog table of `docs/OBSERVABILITY.md`, as markdown —
/// generated from the same [`MetricSpec`] catalog the registry is built
/// from, and pinned against the document by `tests/metrics_doc.rs`.
pub fn catalog_tables() -> String {
    let mut out = String::new();
    out.push_str("| metric | kind | unit | per shard | description |\n");
    out.push_str("|---|---|---|---|---|\n");
    let specs = COUNTERS
        .iter()
        .map(|c| c.spec())
        .chain(GAUGES.iter().map(|g| g.spec()))
        .chain(HISTOGRAMS.iter().map(|h| h.spec()));
    for s in specs {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            s.name,
            s.kind.name(),
            if s.unit.is_empty() { "-" } else { s.unit },
            if s.per_shard { "yes" } else { "no" },
            s.help
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_dotted_and_indexed() {
        let mut names: Vec<&str> = Vec::new();
        for (i, c) in COUNTERS.iter().enumerate() {
            assert_eq!(c.index(), i);
            names.push(c.spec().name);
        }
        for (i, g) in GAUGES.iter().enumerate() {
            assert_eq!(g.index(), i);
            names.push(g.spec().name);
        }
        for (i, h) in HISTOGRAMS.iter().enumerate() {
            assert_eq!(h.index(), i);
            names.push(h.spec().name);
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
        for name in names {
            assert!(name.contains('.'), "{name} must be family.metric");
            assert!(spec_for_name(name).is_some());
        }
    }

    #[test]
    fn bucket_edges_partition_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // Every bounded bucket's upper edge lands in that bucket, and the
        // next value lands in the next bucket.
        for i in 0..HIST_BUCKETS {
            match bucket_upper_bound(i) {
                Some(ub) => {
                    assert_eq!(bucket_index(ub), i, "upper bound of bucket {i}");
                    assert_eq!(bucket_index(ub + 1), i + 1);
                }
                None => assert_eq!(i, HIST_BUCKETS - 1),
            }
        }
    }

    #[test]
    fn catalog_tables_cover_every_metric() {
        let tables = catalog_tables();
        for c in COUNTERS {
            assert!(tables.contains(c.spec().name));
        }
        for g in GAUGES {
            assert!(tables.contains(g.spec().name));
        }
        for h in HISTOGRAMS {
            assert!(tables.contains(h.spec().name));
        }
    }

    #[test]
    fn families_are_the_documented_set() {
        let mut families: Vec<&str> = COUNTERS
            .iter()
            .map(|c| c.spec().family())
            .chain(GAUGES.iter().map(|g| g.spec().family()))
            .chain(HISTOGRAMS.iter().map(|h| h.spec().family()))
            .collect();
        families.sort_unstable();
        families.dedup();
        assert_eq!(
            families,
            ["acceptor", "analyzer", "decoder", "worker", "writer"]
        );
    }
}
