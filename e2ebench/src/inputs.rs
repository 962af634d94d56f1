//! Seeded input generation: simulated collection runs (`hbbp-sim` via the
//! end-to-end `HbbpProfiler`) and instrumentation ground truth
//! (`hbbp-instrument`). Everything here runs in set-up, before timing.

use hbbp_core::{
    Analysis, Analyzer, HbbpProfiler, HybridRule, OnlineAnalyzer, SamplingPeriods, Window,
};
use hbbp_instrument::Instrumenter;
use hbbp_perf::StreamDecoder;
use hbbp_program::{MnemonicMix, Ring};
use hbbp_sim::{Cpu, EventSpec};
use hbbp_store::WindowRecord;
use hbbp_workloads::{phased_client, Scale, Workload};
use std::time::{Duration, Instant};

/// The sampling periods `hbbp record` and `hbbp serve` default to.
pub const CLI_PERIODS: SamplingPeriods = SamplingPeriods {
    ebs: 1009,
    lbr: 211,
};

/// The simulated-hardware seed of input `index` under benchmark seed
/// `seed`: every input of a run draws its own PMU skid and jitter.
pub fn cpu_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// One encoded recording and everything known about it offline.
pub struct Recording {
    /// Registry name of the workload that produced it.
    pub workload: String,
    /// The encoded perf stream (`hbbp_perf::codec` format).
    pub bytes: Vec<u8>,
    pub records: u64,
    pub ebs_samples: u64,
    pub lbr_samples: u64,
    /// The batch `Analyzer::analyze_fused` result over the recording:
    /// the oracle every streamed or windowed result is checked against.
    pub analysis: Analysis,
    pub periods: SamplingPeriods,
    /// Simulated-cycle collection overhead relative to the clean run
    /// (`ProfileResult::overhead_fraction`, paper Fig. 2).
    pub overhead: f64,
    /// Wall time the simulated collection took.
    pub sim_ns: u64,
    /// Blocks in the program's static block map.
    pub blocks: usize,
}

/// Profile `w` end to end on a simulated machine seeded with
/// `cpu_seed`, with fixed `periods` or (when `None`) the paper's period
/// policy scaled to the run's size.
pub fn record(
    name: &str,
    w: &Workload,
    cpu_seed: u64,
    periods: Option<SamplingPeriods>,
) -> Recording {
    assert!(
        w.program().modules().iter().all(|m| m.ring() == Ring::User),
        "{name}: the benchmark corpus is user-mode only, so the rendered mix is the user-mode mix"
    );
    let started = Instant::now();
    let mut profiler = HbbpProfiler::new(Cpu::with_seed(cpu_seed));
    if let Some(p) = periods {
        profiler = profiler.with_periods(p);
    }
    let result = profiler.profile(w).expect("registry workloads profile");
    let sim_ns = started.elapsed().as_nanos() as u64;
    let data = &result.recording.data;
    Recording {
        workload: name.to_owned(),
        bytes: hbbp_perf::codec::write(data).to_vec(),
        records: data.len() as u64,
        ebs_samples: data.samples_of(EventSpec::inst_retired_prec_dist()).count() as u64,
        lbr_samples: data
            .samples_of(EventSpec::br_inst_retired_near_taken())
            .count() as u64,
        periods: result.periods,
        overhead: result.overhead_fraction(),
        blocks: result.analyzer.map().len(),
        analysis: result.analysis,
        sim_ns,
    }
}

/// `f(0..n)` in index order, spread over the host's cores (at most the
/// two the benchmark is sized for). Set-up only.
pub fn par_map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = crate::sys::nproc().clamp(1, 2);
    crate::daemon::paced(Instant::now(), n, |_| Duration::ZERO, threads, |i, _| f(i))
}

/// Recordings of `phased_client` 0..`n` at `scale` and the CLI's
/// periods, each on its own simulated-hardware seed, with each one's
/// ground truth and the total time the truth took (ns).
pub fn clients(scale: Scale, n: u32, seed: u64) -> (Vec<Recording>, Vec<MnemonicMix>, u64) {
    let made = par_map(n as usize, |c| {
        let w = phased_client(scale, c as u32);
        let rec = record(
            &format!("phased-client:{c}"),
            &w,
            cpu_seed(seed, c as u64),
            Some(CLI_PERIODS),
        );
        let started = Instant::now();
        let truth = ground_truth(&w);
        (rec, truth, started.elapsed().as_nanos() as u64)
    });
    let truth_ns = made.iter().map(|m| m.2).sum();
    let (recs, truths) = made.into_iter().map(|(r, t, _)| (r, t)).unzip();
    (recs, truths, truth_ns)
}

/// Exact user-mode instruction mix of one execution of `w`.
pub fn ground_truth(w: &Workload) -> MnemonicMix {
    Instrumenter::new()
        .run(w.program(), w.layout(), w.oracle())
        .mix
}

/// Average weighted error of `measured` against `truth`, in percent
/// (paper Table 1).
pub fn mix_error_pct(truth: &MnemonicMix, measured: &MnemonicMix) -> f64 {
    hbbp_core::MixComparison::compare(truth, measured).avg_weighted_error() * 100.0
}

/// `(opcode, f64 bits)` of mix entries: what bit-identity compares.
pub fn mix_bits(entries: &[(hbbp_isa::Mnemonic, f64)]) -> Vec<(u16, u64)> {
    entries
        .iter()
        .map(|(m, v)| (m.opcode(), v.to_bits()))
        .collect()
}

/// Whether two mixes are bit-identical.
pub fn same_mix(a: &MnemonicMix, b: &MnemonicMix) -> bool {
    mix_bits(&a.iter().collect::<Vec<_>>()) == mix_bits(&b.iter().collect::<Vec<_>>())
}

/// The timeline windows the daemon flushes for `rec` at its
/// `samples:512` (the production windowed analyzer), with source 0.
pub fn windows_of(analyzer: &Analyzer, rec: &Recording) -> Vec<WindowRecord> {
    let mut online = OnlineAnalyzer::new(analyzer, rec.periods, HybridRule::paper_default())
        .with_window(Window::Samples(512));
    let mut decoder = StreamDecoder::new();
    decoder.feed(&rec.bytes);
    decoder.decode_into(&mut online).expect("recording decodes");
    decoder.finish().expect("recording is whole");
    online
        .finish()
        .windows
        .into_iter()
        .map(|w| WindowRecord {
            source: 0,
            index: w.index as u32,
            start_cycles: w.start_cycles,
            end_cycles: w.end_cycles,
            ebs_samples: w.ebs_samples,
            lbr_samples: w.lbr_samples,
            mix: w.mix,
        })
        .collect()
}
