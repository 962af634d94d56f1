//! Scaffolding shared by the store integration tests: a scratch
//! directory per test, the fleet's client recordings, and the
//! single-process batch fold the daemon's aggregates must reproduce.

// Each test binary compiles this module and uses a different subset.
#![allow(dead_code)]

use hbbp_core::{Analyzer, HybridRule, SamplingPeriods};
use hbbp_perf::{PerfData, PerfSession, Recording};
use hbbp_program::{Bbec, ImageView};
use hbbp_sim::Cpu;
use hbbp_store::{CountsRecord, Snapshot};
use hbbp_workloads::{phased_client, Scale, Workload};
use std::path::PathBuf;

/// The sampling periods every client records and every daemon analyzes
/// with.
pub const PERIODS: SamplingPeriods = SamplingPeriods {
    ebs: 1009,
    lbr: 211,
};

/// A fresh, empty scratch directory for the test called `name`.
pub fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbbp-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// One fleet client: the shared phased binary run under this client's
/// shape and hardware seed. Different clients exercise visibly
/// different phase mixtures.
pub fn client_recording(client: u32) -> (Workload, Recording) {
    let w = phased_client(Scale::Tiny, client);
    let session = PerfSession::hbbp(
        Cpu::with_seed(100 + u64::from(client)),
        PERIODS.ebs,
        PERIODS.lbr,
    )
    .with_pid(1000 + client);
    let rec = session
        .record(w.program(), w.layout(), w.oracle())
        .expect("recording");
    (w, rec)
}

/// The analyzer over the workload's on-disk images.
pub fn analyzer_for(w: &Workload) -> Analyzer {
    Analyzer::from_images(&w.images(ImageView::Disk), w.layout().symbols()).expect("discovery")
}

/// The single-process reference: the aggregate of per-recording batch
/// analyses, one counts frame each in one epoch — the correctly rounded
/// exact sum, whatever the order of the recordings.
pub fn batch_fold(analyzer: &Analyzer, recordings: &[&PerfData]) -> Bbec {
    let rule = HybridRule::paper_default();
    let counts: Vec<CountsRecord> = recordings
        .iter()
        .enumerate()
        .map(|(source, data)| CountsRecord {
            source: source as u32,
            seq: 0,
            ebs_samples: 0,
            lbr_samples: 0,
            bbec: analyzer.analyze_fused(data, PERIODS, &rule).hbbp.bbec,
        })
        .collect();
    Snapshot {
        identity: None,
        counts_epochs: vec![0; counts.len()],
        counts,
        windows: Vec::new(),
        window_epochs: Vec::new(),
    }
    .aggregate()
}
