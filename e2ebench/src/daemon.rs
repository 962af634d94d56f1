//! The daemon under test: `hbbp serve` (the production entry,
//! `hbbp_cli::main_impl`) in a child process of its own, with its shape
//! pinned — 4 shards, `samples:512` windows, metrics on, 2 poll-loop
//! workers — and the offline fold its answers are checked against.

use crate::inputs::Recording;
use crate::report::Outcome;
use crate::sys;
use hbbp_core::Analyzer;
use hbbp_program::MnemonicMix;
use hbbp_store::{CountsRecord, IngestReply, Snapshot, StoreClient};
use std::io::{BufRead, BufReader, Read as _};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Store partitions, as `hbbp serve` defaults to.
pub const SHARDS: usize = 4;
/// Poll-loop workers: pinned to the host size the benchmark was tuned
/// on instead of auto-sized.
pub const WORKERS: usize = 2;
/// TCP connections one run may open. `StoreClient` opens one per
/// operation, and each closed connection holds a port in `TIME_WAIT`
/// for a minute; back-to-back runs share the host's ~28k ephemeral
/// ports, and a connect that finds none counts as a failed operation.
pub const CONNECTION_BUDGET: usize = 10_000;

/// A running `hbbp serve` child.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Start the daemon for the `phased` address space at `scale` over
    /// the partition files in `dir` and wait for its listening banner.
    pub fn spawn(dir: &Path, scale: &str) -> Daemon {
        let mut child = Command::new(std::env::current_exe().expect("own executable"))
            .args(["serve", "--workload", "phased", "--scale", scale, "--dir"])
            .arg(dir)
            .args([
                "--shards",
                &SHARDS.to_string(),
                "--workers",
                &WORKERS.to_string(),
            ])
            .args(["--window", "samples:512"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn the daemon");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let _ = stdout.read_line(&mut banner);
        let Some(addr) = banner
            .trim()
            .strip_prefix("hbbpd listening on ")
            .and_then(|a| a.parse().ok())
        else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon did not start: {banner:?}");
        };
        Daemon {
            child,
            stdout,
            addr,
        }
    }

    pub fn client(&self) -> StoreClient {
        StoreClient::new(self.addr)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// On-CPU nanoseconds of the daemon process so far.
    pub fn cpu_ns(&self) -> u64 {
        sys::cpu_ns(self.pid()).expect("daemon schedstat")
    }

    /// The daemon's high-water RSS in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        sys::peak_rss_kib(self.pid()).expect("daemon status") as f64 / 1024.0
    }

    /// Ask the daemon to shut down and wait for the process to exit.
    pub fn stop(mut self) {
        let asked = self.client().shutdown();
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().expect("wait for the daemon");
        assert!(
            asked.is_ok() && status.success(),
            "daemon shutdown failed: {asked:?}, {status}"
        );
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached without `stop` when the run is failing: never
        // leave the child behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One acknowledged stream, as the offline fold needs it.
pub struct Acked {
    pub shard: usize,
    pub epoch: u32,
    pub record: CountsRecord,
}

/// The mix the daemon must answer `QUERY_MIX` with: per shard (in shard
/// order, as the daemon gathers them) the preloaded frames followed by
/// every acknowledged stream, folded canonically.
pub fn offline_mix(analyzer: &Analyzer, preload: &[Snapshot], acked: &[Acked]) -> MnemonicMix {
    let mut combined = Snapshot {
        identity: None,
        counts: Vec::new(),
        counts_epochs: Vec::new(),
        windows: Vec::new(),
        window_epochs: Vec::new(),
    };
    for shard in 0..SHARDS {
        if let Some(snap) = preload.get(shard) {
            combined.counts.extend(snap.counts.iter().cloned());
            combined.counts_epochs.extend(&snap.counts_epochs);
        }
        for a in acked.iter().filter(|a| a.shard == shard) {
            combined.counts.push(a.record.clone());
            combined.counts_epochs.push(a.epoch);
        }
    }
    analyzer.mix(&combined.aggregate())
}

/// One stream's outcome, as the load generator saw it.
pub struct Streamed {
    /// Which input it was (index into the workload's recordings).
    pub input: usize,
    pub source: u32,
    /// Connect → `INGESTED`.
    pub latency_ms: f64,
    pub reply: Result<IngestReply, String>,
}

/// Stream one pre-encoded recording as `source` and time it.
pub fn stream_one(client: &StoreClient, input: usize, source: u32, bytes: &[u8]) -> Streamed {
    let started = Instant::now();
    let reply = client
        .stream_bytes(source, bytes)
        .map_err(|e| e.to_string());
    Streamed {
        input,
        source,
        latency_ms: started.elapsed().as_secs_f64() * 1e3,
        reply,
    }
}

/// Count one stream as an operation: it must be acknowledged with the
/// record and sample counts of its input.
pub fn check_stream(out: &mut Outcome, s: &Streamed, rec: &Recording) {
    let ok = matches!(&s.reply, Ok(r)
        if r.records == rec.records && r.samples == rec.ebs_samples + rec.lbr_samples);
    out.check(ok, || {
        format!(
            "stream of {} as source {}: {:?}, expected {} records",
            rec.workload, s.source, s.reply, rec.records
        )
    });
}

/// The acknowledged streams as store records in `epoch`.
pub fn acked(streams: &[Streamed], recs: &[Recording], epoch: u32) -> Vec<Acked> {
    streams
        .iter()
        .filter_map(|s| {
            let reply = s.reply.as_ref().ok()?;
            let rec = &recs[s.input];
            Some(Acked {
                shard: s.source as usize % SHARDS,
                epoch,
                record: CountsRecord {
                    source: s.source,
                    seq: reply.counts_seq,
                    ebs_samples: rec.ebs_samples,
                    lbr_samples: rec.lbr_samples,
                    bbec: rec.analysis.hbbp.bbec.clone(),
                },
            })
        })
        .collect()
}

/// Run operations `0..count` over `connections` threads on a fixed
/// schedule: operation `i` is due at `t0 + due(i)` and is sent when due,
/// or — when every connection is still busy — as soon as one is free
/// (each connection is a closed loop). `op` gets the operation index and
/// its due time. Results come back in operation order.
pub fn paced<T: Send>(
    t0: Instant,
    count: usize,
    due: impl Fn(usize) -> Duration + Sync,
    connections: usize,
    op: impl Fn(usize, Instant) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break mine;
                        }
                        let due = t0 + due(i);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        mine.push((i, op(i, due)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, t)| t).collect()
}
