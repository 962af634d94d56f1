//! Shard writers keep no window records: they count the window frames
//! they write, and `STATS` reports that count. It must equal the windows
//! the streams flushed — before and after `COMPACT`, and across a
//! restart — and the partitions must read back exactly the windows the
//! streams produced.

mod common;

use common::{analyzer_for, client_recording, tmp_dir, PERIODS};
use hbbp_core::{Analyzer, HybridRule, OnlineAnalyzer, Window};
use hbbp_perf::{PerfData, StreamDecoder};
use hbbp_store::{DaemonConfig, DaemonHandle, ProfileStore, StoreIdentity, WindowRecord};
use std::path::Path;

const SHARDS: usize = 2;
const WINDOW: Window = Window::Samples(16);

fn spawn(analyzer: Analyzer, identity: StoreIdentity, dir: &Path) -> DaemonHandle {
    hbbp_store::spawn(DaemonConfig {
        analyzer,
        identity,
        periods: PERIODS,
        rule: HybridRule::paper_default(),
        window: Some(WINDOW),
        shards: SHARDS,
        dir: dir.to_path_buf(),
        workers: 0,
        queue_depth: 0,
        metrics: false,
    })
    .expect("daemon")
}

/// The windows a daemon stream of `data` from `source` flushes: the
/// windowed online analysis of the same bytes.
fn offline_windows(analyzer: &Analyzer, source: u32, data: &PerfData) -> Vec<WindowRecord> {
    let mut online =
        OnlineAnalyzer::new(analyzer, PERIODS, HybridRule::paper_default()).with_window(WINDOW);
    let mut decoder = StreamDecoder::new();
    decoder.feed(&hbbp_perf::codec::write(data));
    decoder.decode_into(&mut online).expect("recording decodes");
    decoder.finish().expect("recording is whole");
    online
        .finish()
        .windows
        .into_iter()
        .map(|w| WindowRecord {
            source,
            index: w.index as u32,
            start_cycles: w.start_cycles,
            end_cycles: w.end_cycles,
            ebs_samples: w.ebs_samples,
            lbr_samples: w.lbr_samples,
            mix: w.mix,
        })
        .collect()
}

#[test]
fn stats_counts_the_windows_the_streams_flushed() {
    let dir = tmp_dir("window-frames");
    let clients: Vec<_> = (0..4).map(client_recording).collect();
    let analyzer = analyzer_for(&clients[0].0);
    let identity = StoreIdentity::of_workload(&clients[0].0, analyzer.map());

    let handle = spawn(analyzer_for(&clients[0].0), identity.clone(), &dir);
    let client = handle.client();
    let mut flushed = 0u64;
    let mut want = Vec::new();
    // Three streams, a compaction, then a fourth stream into the sealed
    // store's fresh epoch.
    for (source, (_, rec)) in clients.iter().enumerate().take(3) {
        let reply = client
            .stream_data(source as u32, &rec.data)
            .expect("stream");
        assert!(reply.windows_flushed > 1, "source {source}");
        flushed += u64::from(reply.windows_flushed);
        want.extend(offline_windows(&analyzer, source as u32, &rec.data));
    }
    assert_eq!(client.stats().expect("stats").window_frames, flushed);
    client.compact().expect("compact");
    assert_eq!(client.stats().expect("stats").window_frames, flushed);
    let reply = client.stream_data(3, &clients[3].1.data).expect("stream");
    flushed += u64::from(reply.windows_flushed);
    want.extend(offline_windows(&analyzer, 3, &clients[3].1.data));
    let live = client.stats().expect("stats");
    assert_eq!(live.window_frames, flushed);
    assert_eq!(want.len() as u64, flushed);
    handle.shutdown().expect("shutdown");

    // A restarted daemon counts the same frames while replaying the logs.
    let handle = spawn(analyzer_for(&clients[0].0), identity, &dir);
    let stats = handle.client().stats().expect("stats after restart");
    assert_eq!(stats.window_frames, flushed);
    // Each shard's compacted frames (at least one), then the fourth
    // stream's frame.
    assert_eq!(stats.counts_frames, live.counts_frames);
    assert!(stats.counts_frames > SHARDS as u64);
    handle.shutdown().expect("shutdown");

    // The partitions read back exactly the streams' windows.
    let mut got = Vec::new();
    for shard in 0..SHARDS {
        let store = ProfileStore::open(dir.join(format!("part-{shard}.hbbp"))).expect("open");
        assert_eq!(store.open_report().truncated_bytes, 0);
        let snap = store.snapshot();
        assert_eq!(store.window_frames(), snap.windows.len() as u64);
        assert_eq!(store.windows().expect("windows"), snap.windows);
        got.extend(snap.windows);
    }
    let key = |w: &WindowRecord| (w.source, w.index);
    got.sort_by_key(key);
    want.sort_by_key(key);
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(&dir);
}
