//! The fleet-aggregation experiment: many collectors, one daemon, one
//! durable aggregate profile.
//!
//! Spawns an in-process `hbbpd` over loopback TCP, streams N phased-fleet
//! clients ([`hbbp_workloads::phased_client`] — same binary, different
//! run shapes and hardware seeds) into it **concurrently**, then queries
//! the aggregate instruction mix back and checks it bit-identical against
//! the single-process reference (the correctly rounded exact sum of
//! per-recording `analyze_fused` results, computed offline by
//! [`Snapshot::aggregate`]). Also reports the store footprint before and
//! after compaction.

use super::{pct, ExpOptions};
use hbbp_core::{Analyzer, SamplingPeriods, Window};
use hbbp_perf::{PerfSession, Recording};
use hbbp_program::{ImageView, MnemonicMix};
use hbbp_sim::Cpu;
use hbbp_store::{CountsRecord, DaemonConfig, Snapshot, StoreIdentity};
use hbbp_workloads::{phased_client, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;

/// How many fleet clients the experiment streams.
pub const FLEET_CLIENTS: u32 = 4;

/// One client's ingestion summary.
#[derive(Debug, Clone)]
pub struct ClientRow {
    /// Client/source id.
    pub source: u32,
    /// Records streamed over the wire.
    pub records: u64,
    /// Profiled samples analyzed by the daemon.
    pub samples: u64,
    /// Window timeline records flushed into the store.
    pub windows: u32,
    /// Estimated instructions of this client's run.
    pub instructions: f64,
}

/// Everything the fleet run produces.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Per-client rows, by source id.
    pub clients: Vec<ClientRow>,
    /// The queried aggregate mix.
    pub mix: MnemonicMix,
    /// Whether the queried aggregate equals the single-process fold
    /// bit for bit.
    pub bit_identical: bool,
    /// Counts + window frames across all partitions before compaction.
    pub frames: u64,
    /// Store bytes before compaction.
    pub bytes_before: u64,
    /// Store bytes after compaction.
    pub bytes_after: u64,
    /// Total estimated instructions across the fleet.
    pub total_instructions: f64,
}

/// Run the fleet: record each client, spawn the daemon, stream
/// concurrently, query, compact.
pub fn fleet(opts: &ExpOptions, n_clients: u32) -> FleetOutcome {
    let periods = SamplingPeriods {
        ebs: 1009,
        lbr: 211,
    };
    let clients: Vec<(Workload, Recording)> = (0..n_clients)
        .map(|c| {
            let w = phased_client(opts.scale, c);
            let session = PerfSession::hbbp(
                Cpu::with_seed(opts.seed ^ u64::from(c + 1)),
                periods.ebs,
                periods.lbr,
            )
            .with_pid(1000 + c);
            let rec = session
                .record(w.program(), w.layout(), w.oracle())
                .expect("recording");
            (w, rec)
        })
        .collect();
    let analyzer = Analyzer::from_images(
        &clients[0].0.images(ImageView::Disk),
        clients[0].0.layout().symbols(),
    )
    .expect("discovery");
    let identity = StoreIdentity::of_workload(&clients[0].0, analyzer.map());

    // Unique per invocation: concurrent fleet() calls (e.g. parallel
    // tests in one process) must not share or delete each other's
    // partition directories while a daemon holds them open.
    static NEXT_RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "hbbp-fleet-exp-{}-{}-{}",
        std::process::id(),
        opts.seed,
        NEXT_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = hbbp_store::spawn(DaemonConfig {
        analyzer: Analyzer::from_images(
            &clients[0].0.images(ImageView::Disk),
            clients[0].0.layout().symbols(),
        )
        .expect("discovery"),
        identity,
        periods,
        rule: opts.rule.clone(),
        window: Some(Window::Samples(256)),
        shards: 2,
        dir: dir.clone(),
        workers: 0,
        queue_depth: 0,
        metrics: false,
    })
    .expect("daemon");
    let client = handle.client();

    let mut rows: Vec<ClientRow> = std::thread::scope(|scope| {
        let joins: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(source, (_, rec))| {
                let source = source as u32;
                scope.spawn(move || {
                    let reply = client
                        .stream_data(source, &rec.data)
                        .expect("stream to daemon");
                    (source, reply)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| {
                let (source, reply) = j.join().expect("client thread");
                ClientRow {
                    source,
                    records: reply.records,
                    samples: reply.samples,
                    windows: reply.windows_flushed,
                    instructions: 0.0,
                }
            })
            .collect()
    });
    rows.sort_by_key(|r| r.source);

    // The single-process reference: the batch analyses as one epoch of
    // counts frames, aggregated offline.
    let mut reference = Snapshot {
        identity: None,
        counts: Vec::new(),
        windows: Vec::new(),
        counts_epochs: Vec::new(),
        window_epochs: Vec::new(),
    };
    let mut total_instructions = 0.0;
    for (i, (_, rec)) in clients.iter().enumerate() {
        let analysis = analyzer.analyze_fused(&rec.data, periods, &opts.rule);
        rows[i].instructions = analyzer.total_instructions(&analysis.hbbp.bbec);
        total_instructions += rows[i].instructions;
        reference.counts.push(CountsRecord {
            source: i as u32,
            seq: 0,
            ebs_samples: 0,
            lbr_samples: 0,
            bbec: analysis.hbbp.bbec,
        });
        reference.counts_epochs.push(0);
    }

    let mix = client.query_mix().expect("mix query");
    let bit_identical = mix == analyzer.mix(&reference.aggregate());
    let stats = client.stats().expect("stats");
    client.compact().expect("compact");
    let after = client.stats().expect("stats after compact");
    handle.shutdown().expect("shutdown");
    let _ = std::fs::remove_dir_all(&dir);

    FleetOutcome {
        clients: rows,
        mix,
        bit_identical,
        frames: stats.counts_frames + stats.window_frames,
        bytes_before: stats.store_bytes,
        bytes_after: after.store_bytes,
        total_instructions,
    }
}

/// The `fleet-aggregation` experiment: render the fleet run as a table.
pub fn fleet_aggregation(opts: &ExpOptions) -> String {
    let outcome = fleet(opts, FLEET_CLIENTS);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fleet aggregation: {} clients of the phased binary streaming\n\
         concurrently into hbbpd (loopback TCP, 2 store partitions), then\n\
         one aggregate mix query over the persistent store.\n",
        outcome.clients.len()
    );
    let _ = writeln!(
        out,
        "{:<7} {:>8} {:>8} {:>8} {:>14}",
        "client", "records", "samples", "windows", "instructions"
    );
    for row in &outcome.clients {
        let _ = writeln!(
            out,
            "{:<7} {:>8} {:>8} {:>8} {:>14.0}",
            row.source, row.records, row.samples, row.windows, row.instructions
        );
    }
    let _ = writeln!(
        out,
        "\naggregate mix (top 8 of {} mnemonics, {:.0} instructions):",
        outcome.mix.len(),
        outcome.total_instructions
    );
    let total = outcome.mix.total();
    for (mnemonic, count) in outcome.mix.top(8) {
        let _ = writeln!(
            out,
            "  {:<12} {:>14.0}  {:>7}",
            mnemonic.name(),
            count,
            pct(count / total)
        );
    }
    let _ = writeln!(
        out,
        "\naggregate ≡ single-process fold of batch analyses: {}",
        if outcome.bit_identical {
            "bit-identical"
        } else {
            "MISMATCH"
        }
    );
    let _ = writeln!(
        out,
        "store: {} frames, {} bytes -> {} bytes after compaction ({:.1}x)",
        outcome.frames,
        outcome.bytes_before,
        outcome.bytes_after,
        outcome.bytes_before as f64 / outcome.bytes_after.max(1) as f64
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_aggregate_is_bit_identical_and_deterministic() {
        let opts = ExpOptions::default_tiny();
        let a = fleet(&opts, 3);
        assert!(a.bit_identical, "daemon aggregate must match the fold");
        assert_eq!(a.clients.len(), 3);
        assert!(a.clients.iter().all(|c| c.samples > 0 && c.windows > 0));
        // Compaction keeps each partition's exact partial: here one or two
        // recordings, whose exact sum takes no more terms than frames, so
        // the log grows by at most one 13-byte seal marker per partition.
        assert!(a.bytes_after <= a.bytes_before + 2 * 13);
        let b = fleet(&opts, 3);
        assert_eq!(a.mix, b.mix, "fleet runs are deterministic");
        assert_eq!(a.bytes_before, b.bytes_before);
        assert_eq!(a.bytes_after, b.bytes_after);
    }

    #[test]
    fn rendered_fleet_report_carries_the_verdict() {
        let out = fleet_aggregation(&ExpOptions::default_tiny());
        assert!(out.contains("bit-identical"), "{out}");
        assert!(out.contains("aggregate mix"));
        assert!(!out.contains("MISMATCH"));
    }
}
