//! The offline store readers — `hbbp store stats`, `report --store`,
//! `synth --store` and `watch --baseline` — read a store file that must
//! already exist, check its identity the same way, select timeline
//! windows in a canonical order that arrival interleaving cannot move,
//! and never write the file they read, torn tail or not.

use hbbp_cli::common::analyzer_for;
use hbbp_cli::record::RecordOptions;
use hbbp_cli::report::ReportOptions;
use hbbp_cli::store_cmd::StoreOptions;
use hbbp_cli::synth::SynthOptions;
use hbbp_cli::watch::WatchOptions;
use hbbp_core::{HybridRule, SamplingPeriods};
use hbbp_isa::Mnemonic;
use hbbp_program::{MnemonicMix, Ring};
use hbbp_store::{ModuleSpan, ProfileStore, StoreIdentity, WindowRecord};
use hbbp_workloads::{phased, Scale};
use std::path::{Path, PathBuf};

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_owned()).collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hbbp-readers-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn readers_refuse_a_missing_store_and_create_no_file() {
    let dir = tmp_dir("missing");
    let missing = dir.join("typo.hbbp");
    let store = missing.to_str().unwrap();
    let want =
        format!("cannot open {store}: store I/O error: No such file or directory (os error 2)");
    let errors = [
        StoreOptions::parse(&args(&["stats", store]))
            .unwrap()
            .run()
            .unwrap_err(),
        StoreOptions::parse(&args(&["compact", store]))
            .unwrap()
            .run()
            .unwrap_err(),
        ReportOptions::parse(&args(&["--store", store]))
            .unwrap()
            .run()
            .unwrap_err(),
        ReportOptions::parse(&args(&["--store", store, "--timeline"]))
            .unwrap()
            .run()
            .unwrap_err(),
        SynthOptions::parse(&args(&["--store", store]))
            .unwrap()
            .target()
            .unwrap_err(),
        SynthOptions::parse(&args(&["--store", store, "--window", "0"]))
            .unwrap()
            .target()
            .unwrap_err(),
        WatchOptions::parse(&args(&["p.bin", "--baseline", store]))
            .unwrap()
            .run()
            .unwrap_err(),
    ];
    for err in errors {
        assert_eq!(err.to_string(), want);
    }
    assert!(!missing.exists(), "a reader created {store}");

    // A merge source must exist too; its destination may be created.
    let into = dir.join("merged.hbbp");
    let err = StoreOptions::parse(&args(&["merge", "--into", into.to_str().unwrap(), store]))
        .unwrap()
        .run()
        .unwrap_err();
    assert_eq!(err.to_string(), want);
    assert!(!missing.exists(), "a merge created its source {store}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_refuses_an_identity_less_store() {
    let dir = tmp_dir("no-identity");
    let path = dir.join("bare.hbbp");
    drop(ProfileStore::open(&path).unwrap());
    let store = path.to_str().unwrap();
    let err = ReportOptions::parse(&args(&["--store", store]))
        .unwrap()
        .run()
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        format!(
            "store {store} was not recorded from workload `phased` — wrong --workload or --scale?"
        )
    );
    // The timeline needs no workload, so it stays identity-free.
    let timeline = ReportOptions::parse(&args(&["--store", store, "--timeline"]))
        .unwrap()
        .run()
        .unwrap();
    assert!(!timeline.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

fn identity() -> StoreIdentity {
    StoreIdentity {
        program: "p".into(),
        block_count: 3,
        modules: vec![ModuleSpan {
            name: "p.bin".into(),
            base: 0x400000,
            len: 0x1000,
            ring: Ring::User,
        }],
    }
}

/// A window of `source` at timeline `index` whose mix is `weight` ADDs.
fn window(source: u32, index: u32, weight: f64) -> WindowRecord {
    let mut mix = MnemonicMix::new();
    mix.add(Mnemonic::Add, weight);
    WindowRecord {
        source,
        index,
        start_cycles: u64::from(index) * 100,
        end_cycles: u64::from(index + 1) * 100,
        ebs_samples: 1,
        lbr_samples: 1,
        mix,
    }
}

/// `synth --store FILE --window n`'s target, with the store path in its
/// description replaced by `STORE`.
fn window_target(path: &Path, n: usize) -> (MnemonicMix, String) {
    let store = path.to_str().unwrap();
    let (mix, what) = SynthOptions::parse(&args(&["--store", store, "--window", &n.to_string()]))
        .unwrap()
        .target()
        .unwrap();
    (mix, what.replace(store, "STORE"))
}

/// Every window target of the store at `path`, checked against the
/// canonical `(source, index)` order.
fn window_targets(path: &Path) -> Vec<(MnemonicMix, String)> {
    let canonical = [(1, 0), (1, 1), (2, 0), (2, 1)];
    let targets: Vec<_> = (0..canonical.len())
        .map(|n| window_target(path, n))
        .collect();
    for (n, ((source, index), (mix, what))) in canonical.iter().zip(&targets).enumerate() {
        assert_eq!(
            what,
            &format!("store STORE window {n} (source {source} index {index})")
        );
        let weight = f64::from(source * 10 + index);
        assert_eq!(mix.get(Mnemonic::Add).to_bits(), weight.to_bits());
    }
    let store = path.to_str().unwrap();
    let err = SynthOptions::parse(&args(&["--store", store, "--window", "4"]))
        .unwrap()
        .target()
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        format!("store {store} holds 4 timeline windows; --window 4 is out of range")
    );
    targets
}

#[test]
fn window_selection_is_canonical_across_arrival_order() {
    let dir = tmp_dir("window-select");
    let arrivals = [
        [(2, 0), (1, 1), (1, 0), (2, 1)],
        [(1, 1), (2, 1), (2, 0), (1, 0)],
    ];
    let mut stores = Vec::new();
    for (i, arrival) in arrivals.iter().enumerate() {
        let path = dir.join(format!("arrival-{i}.hbbp"));
        let mut store = ProfileStore::open_with_identity(&path, identity()).unwrap();
        for &(source, index) in arrival {
            let weight = f64::from(source * 10 + index);
            store.append_window(window(source, index, weight)).unwrap();
        }
        stores.push((path, store));
    }
    // Interleaved arrival from two sources, out of index order, selects
    // the same windows: the same mix bits and description per index.
    let first = window_targets(&stores[0].0);
    assert_eq!(window_targets(&stores[1].0), first);

    // The selection survives a reopen, and a compaction of one store.
    let mut paths = Vec::new();
    for (path, mut store) in stores {
        if paths.is_empty() {
            store.compact().unwrap();
        }
        drop(store);
        paths.push(path);
    }
    for path in &paths {
        assert_eq!(window_targets(path), first);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn readers_leave_a_torn_tail_in_place() {
    let dir = tmp_dir("torn-tail");
    let recording = dir.join("phased.bin");
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
    let data = hbbp_perf::codec::read(&std::fs::read(&recording).unwrap()).unwrap();
    let periods = SamplingPeriods {
        ebs: 1009,
        lbr: 211,
    };
    let fold = analyzer.analyze_fused(&data, periods, &HybridRule::paper_default());
    let clean = dir.join("clean.hbbp");
    {
        let identity = StoreIdentity::of_workload(&w, analyzer.map());
        let mut store = ProfileStore::open_with_identity(&clean, identity).unwrap();
        store.append_counts(1, 1, 1, fold.hbbp.bbec).unwrap();
        store.append_window(window(1, 0, 10.0)).unwrap();
        store.append_window(window(1, 1, 11.0)).unwrap();
    }
    // A copy with a torn append: 12 garbage bytes after the last frame.
    let torn = dir.join("torn.hbbp");
    let mut bytes = std::fs::read(&clean).unwrap();
    bytes.extend_from_slice(&[0xA5; 12]);
    std::fs::write(&torn, &bytes).unwrap();

    // Each reader answers from the valid prefix, as it does on the clean
    // store, and leaves every byte of the torn file where it was.
    let readers: [&dyn Fn(&Path) -> String; 6] = [
        &|p| {
            StoreOptions::parse(&args(&["stats", p.to_str().unwrap()]))
                .unwrap()
                .run()
                .unwrap()
        },
        &|p| {
            ReportOptions::parse(&args(&["--store", p.to_str().unwrap()]))
                .unwrap()
                .run()
                .unwrap()
        },
        &|p| {
            ReportOptions::parse(&args(&["--store", p.to_str().unwrap(), "--timeline"]))
                .unwrap()
                .run()
                .unwrap()
        },
        &|p| {
            let (mix, what) = SynthOptions::parse(&args(&["--store", p.to_str().unwrap()]))
                .unwrap()
                .target()
                .unwrap();
            format!("{what}: {:?}", mix.top(8))
        },
        &|p| {
            let opts =
                SynthOptions::parse(&args(&["--store", p.to_str().unwrap(), "--window", "1"]));
            let (mix, what) = opts.unwrap().target().unwrap();
            format!("{what}: {:?}", mix.top(8))
        },
        &|p| {
            let baseline = p.to_str().unwrap();
            WatchOptions::parse(&args(&[
                recording.to_str().unwrap(),
                "--baseline",
                baseline,
            ]))
            .unwrap()
            .run()
            .unwrap()
        },
    ];
    for (i, read) in readers.iter().enumerate() {
        let answer = read(&torn);
        assert_eq!(
            std::fs::read(&torn).unwrap(),
            bytes,
            "reader {i} wrote the store"
        );
        let same = read(&clean).replace("clean.hbbp", "torn.hbbp");
        if i == 0 {
            let tail = "  torn tail     12 corrupt bytes past the valid log, left in place\n";
            assert_eq!(answer, format!("{same}{tail}"));
        } else {
            assert_eq!(answer, same, "reader {i}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
