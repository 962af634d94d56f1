//! `hbbp watch` acceptance: replaying the recording the baseline was
//! folded from stays quiet, while a client with a genuinely different
//! phase mixture (same binary, different shape) is flagged as DRIFT.
//! Also pins which store epochs `watch` and `synth --store` may fold:
//! only those holding counts frames.

use hbbp_cli::common::analyzer_for;
use hbbp_cli::record::RecordOptions;
use hbbp_cli::synth::SynthOptions;
use hbbp_cli::watch::WatchOptions;
use hbbp_core::{HybridRule, SamplingPeriods};
use hbbp_isa::Mnemonic;
use hbbp_perf::PerfSession;
use hbbp_program::MnemonicMix;
use hbbp_sim::Cpu;
use hbbp_store::{ProfileStore, StoreIdentity, WindowRecord};
use hbbp_workloads::{phased, phased_client, Scale};
use std::path::{Path, PathBuf};

const PERIODS: SamplingPeriods = SamplingPeriods {
    ebs: 1009,
    lbr: 211,
};

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_owned()).collect()
}

/// Record `phased` to a file, fold it offline, and store that fold as
/// the baseline epoch under the workload's identity.
fn build_baseline(tmp: &Path) -> (std::path::PathBuf, std::path::PathBuf) {
    let recording = tmp.join("baseline.bin");
    RecordOptions::parse(&args(&[
        "--workload",
        "phased",
        "--out",
        recording.to_str().unwrap(),
    ]))
    .unwrap()
    .run()
    .unwrap();

    let w = phased(Scale::Tiny);
    let analyzer = analyzer_for(&w).unwrap();
    let bytes = std::fs::read(&recording).unwrap();
    let data = hbbp_perf::codec::read(&bytes).unwrap();
    let batch = analyzer.analyze_fused(&data, PERIODS, &HybridRule::paper_default());

    let store_path = tmp.join("baseline.hbbp");
    let mut store = ProfileStore::open_with_identity(
        &store_path,
        StoreIdentity::of_workload(&w, analyzer.map()),
    )
    .unwrap();
    store.append_counts(0, 1, 1, batch.hbbp.bbec).unwrap();
    (recording, store_path)
}

/// Record the shifted fleet client (same phased binary, different phase
/// mixture) to `tmp`; its windows drift from the baseline fold.
fn record_shifted(tmp: &Path) -> PathBuf {
    let shifted = phased_client(Scale::Tiny, 0);
    let session = PerfSession::hbbp(Cpu::with_seed(7), PERIODS.ebs, PERIODS.lbr);
    let rec = session
        .record(shifted.program(), shifted.layout(), shifted.oracle())
        .unwrap();
    let path = tmp.join("shifted.bin");
    std::fs::write(&path, hbbp_perf::codec::write(&rec.data)).unwrap();
    path
}

#[test]
fn replayed_baseline_is_quiet_and_a_shifted_mix_is_flagged() {
    let tmp = std::env::temp_dir().join(format!("hbbp-cli-watch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let (recording, store_path) = build_baseline(&tmp);

    // Replay: one window spanning the whole recording reproduces the
    // baseline fold, so nothing is flagged.
    let quiet = WatchOptions::parse(&args(&[
        recording.to_str().unwrap(),
        "--baseline",
        store_path.to_str().unwrap(),
        "--window",
        "samples:1000000",
    ]))
    .unwrap()
    .run()
    .unwrap();
    assert!(
        !quiet.contains("DRIFT"),
        "replayed baseline must stay quiet:\n{quiet}"
    );
    assert!(quiet.contains("0 flagged"), "{quiet}");
    assert!(quiet.contains("against epoch 0"), "{quiet}");

    // Injected divergence: a fleet client runs the *same* phased binary
    // (identical identity) with a different phase mixture; its windows
    // drift from the stored epoch and must be flagged.
    let drift_path = record_shifted(&tmp);

    let noisy = WatchOptions::parse(&args(&[
        drift_path.to_str().unwrap(),
        "--baseline",
        store_path.to_str().unwrap(),
        "--window",
        "samples:32",
    ]))
    .unwrap()
    .run()
    .unwrap();
    assert!(
        noisy.contains("DRIFT window"),
        "shifted mix must be flagged:\n{noisy}"
    );
    assert!(!noisy.contains("0 flagged"), "{noisy}");

    // Guardrails: an epoch the store does not hold, and a store recorded
    // from a different workload, are both refused with pinned messages.
    let err = WatchOptions::parse(&args(&[
        recording.to_str().unwrap(),
        "--baseline",
        store_path.to_str().unwrap(),
        "--epoch",
        "3",
    ]))
    .unwrap()
    .run()
    .unwrap_err();
    assert!(err.to_string().contains("has no epoch 3"), "{err}");

    let err = WatchOptions::parse(&args(&[
        recording.to_str().unwrap(),
        "--baseline",
        store_path.to_str().unwrap(),
        "--workload",
        "test40",
    ]))
    .unwrap()
    .run()
    .unwrap_err();
    assert!(
        err.to_string().contains("was not recorded from workload"),
        "{err}"
    );

    let _ = std::fs::remove_dir_all(&tmp);
}

/// A stream that flushed timeline windows and then failed, after a
/// `COMPACT`, leaves an epoch holding window frames but no counts. That
/// epoch folds to an empty mix, and an empty mix hides every drift, so
/// neither `watch` nor `synth --store` may pick it: the default baseline
/// skips it, and naming it is an error listing the epochs with counts.
#[test]
fn window_only_epochs_are_never_folded() {
    let tmp = std::env::temp_dir().join(format!("hbbp-cli-watch-wo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let (_, store_path) = build_baseline(&tmp);
    {
        let mut store = ProfileStore::open(&store_path).unwrap();
        assert_eq!(store.advance_epoch().unwrap(), 1);
        let mut mix = MnemonicMix::new();
        mix.add(Mnemonic::Add, 64.0);
        store
            .append_window(WindowRecord {
                source: 9,
                index: 0,
                start_cycles: 0,
                end_cycles: 1000,
                ebs_samples: 1,
                lbr_samples: 1,
                mix,
            })
            .unwrap();
        assert_eq!(store.snapshot().epochs(), vec![0, 1]);
    }
    let store_arg = store_path.to_str().unwrap();

    // Default baseline: the latest epoch *with counts*, so the shifted
    // client is still flagged instead of diffed against an empty mix.
    let drift_path = record_shifted(&tmp);
    let report = WatchOptions::parse(&args(&[
        drift_path.to_str().unwrap(),
        "--baseline",
        store_arg,
        "--window",
        "samples:32",
    ]))
    .unwrap()
    .run()
    .unwrap();
    assert!(report.contains("against epoch 0"), "{report}");
    assert!(report.contains("DRIFT window"), "{report}");
    assert!(!report.contains("0 flagged"), "{report}");

    // Naming the window-only epoch is refused by both commands, with the
    // same message.
    let want =
        format!("store {store_arg} has no epoch 1 holding counts (epochs holding counts: [0])");
    let err = WatchOptions::parse(&args(&[
        drift_path.to_str().unwrap(),
        "--baseline",
        store_arg,
        "--epoch",
        "1",
    ]))
    .unwrap()
    .run()
    .unwrap_err();
    assert_eq!(err.to_string(), want);
    let err = SynthOptions::parse(&args(&["--store", store_arg, "--epoch", "1"]))
        .unwrap()
        .target()
        .unwrap_err();
    assert_eq!(err.to_string(), want);

    // The epoch with counts still resolves, to its fold.
    let (mix, what) = SynthOptions::parse(&args(&["--store", store_arg, "--epoch", "0"]))
        .unwrap()
        .target()
        .unwrap();
    assert_eq!(what, format!("store {store_arg} epoch 0"));
    let analyzer = analyzer_for(&phased(Scale::Tiny)).unwrap();
    let counts = ProfileStore::open(&store_path).unwrap().snapshot();
    assert_eq!(mix, analyzer.mix(&counts.epoch_aggregate(0)));

    let _ = std::fs::remove_dir_all(&tmp);
}
