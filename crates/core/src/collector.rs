//! The one-stop HBBP profiler: clean run → period selection → dual-event
//! collection → kernel-text patching → analysis.
//!
//! This is the end-to-end tool of paper §V ("The tool is composed of two
//! main components: a collector that computes BBECs, and an analyzer that
//! combines the BBECs with static information to produce instruction
//! mixes").

use crate::{Analysis, Analyzer, HybridRule, SamplingPeriods};
use hbbp_perf::{PerfSession, Recording};
use hbbp_program::{DiscoverError, ImageView, MnemonicMix, Ring, TextImage};
use hbbp_sim::{Cpu, PmuConfig, PmuError, RunResult};
use hbbp_workloads::Workload;
use std::fmt;

/// Errors from end-to-end profiling.
#[derive(Debug, Clone)]
pub enum ProfileError {
    /// PMU programming failed.
    Pmu(PmuError),
    /// Static block discovery failed.
    Discover(DiscoverError),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Pmu(e) => write!(f, "pmu error: {e}"),
            ProfileError::Discover(e) => write!(f, "discovery error: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<PmuError> for ProfileError {
    fn from(e: PmuError) -> ProfileError {
        ProfileError::Pmu(e)
    }
}

impl From<DiscoverError> for ProfileError {
    fn from(e: DiscoverError) -> ProfileError {
        ProfileError::Discover(e)
    }
}

/// End-to-end HBBP profiler configuration.
#[derive(Debug, Clone)]
pub struct HbbpProfiler {
    /// The machine to run on.
    pub cpu: Cpu,
    /// Per-block decision rule.
    pub rule: HybridRule,
    /// Apply the §III.C remedy: patch on-disk kernel text from the live
    /// image before building the block map.
    pub patch_kernel_text: bool,
    /// Fixed periods; `None` selects them from the clean run's size
    /// (Table 4 policy, scaled for simulation).
    pub periods: Option<SamplingPeriods>,
    /// Base PMU configuration (the dual-LBR HBBP collector); periods are
    /// overwritten per run.
    pub pmu_template: PmuConfig,
    /// PMI cost as a fraction of one EBS period's worth of cycles.
    ///
    /// Simulated runs are orders of magnitude shorter than the paper's,
    /// but carry similar *sample counts* (statistical power). A fixed
    /// physical PMI cost would therefore dwarf the scaled-down runtime, so
    /// the profiler preserves the full-scale **overhead ratio** instead:
    /// on the paper's hardware one PMI (~2,400 cycles) costs ≈0.2–0.7% of
    /// an EBS sampling period. See DESIGN.md ("wall-clock comparisons").
    pub pmi_period_fraction: f64,
    /// Pid stamped into every record of the collection stream.
    pub pid: u32,
}

impl HbbpProfiler {
    /// Default profiler: paper rule, kernel patching on, auto periods.
    pub fn new(cpu: Cpu) -> HbbpProfiler {
        HbbpProfiler {
            cpu,
            rule: HybridRule::paper_default(),
            patch_kernel_text: true,
            periods: None,
            pmu_template: PmuConfig::hbbp_collector(1, 1),
            pmi_period_fraction: 0.004,
            pid: 1000,
        }
    }

    /// Use a specific decision rule.
    pub fn with_rule(mut self, rule: HybridRule) -> HbbpProfiler {
        self.rule = rule;
        self
    }

    /// Record under a specific pid.
    pub fn with_pid(mut self, pid: u32) -> HbbpProfiler {
        self.pid = pid;
        self
    }

    /// Use fixed sampling periods.
    pub fn with_periods(mut self, periods: SamplingPeriods) -> HbbpProfiler {
        self.periods = Some(periods);
        self
    }

    /// Disable the kernel text patch step (ablation: reproduces the
    /// stale-text distortion).
    pub fn without_kernel_patching(mut self) -> HbbpProfiler {
        self.patch_kernel_text = false;
        self
    }

    /// Profile a workload end to end.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] on invalid PMU programming or undecodable
    /// images.
    pub fn profile(&self, workload: &Workload) -> Result<ProfileResult, ProfileError> {
        // 1. Clean run: baseline timing + workload size for period policy.
        let clean = self
            .cpu
            .run_clean(workload.program(), workload.layout(), workload.oracle())?;
        let policy = SamplingPeriods::scaled_for(clean.instructions);
        let periods = self.periods.unwrap_or(policy);

        // 2. Collection: single run, two counters in LBR mode (§V.A).
        let mut pmu = self.pmu_template.clone();
        pmu.counters[0].period = periods.ebs;
        pmu.counters[1].period = periods.lbr;
        // PMI cost is anchored to the *policy* period so that overriding
        // periods (denser sampling) visibly trades overhead for accuracy.
        pmu.pmi_cost_cycles = ((policy.ebs as f64 * self.pmi_period_fraction).ceil() as u64).max(1);
        let session = PerfSession {
            cpu: self.cpu.clone(),
            pmu,
            pid: self.pid,
        };
        let recording = session.record(workload.program(), workload.layout(), workload.oracle())?;

        // 3. Static side: disk images, patched from the live text where
        //    kernel modules self-modify (§III.C).
        let mut disk = workload.images(ImageView::Disk);
        if self.patch_kernel_text {
            let live = workload.images(ImageView::Live);
            for (d, l) in disk.iter_mut().zip(&live) {
                if d.ring() == Ring::Kernel {
                    d.patch_from(l).expect("same module images");
                }
            }
        }
        let analyzer = Analyzer::from_images(&disk, workload.layout().symbols())?;

        // 4. Analysis: EBS, LBR and HBBP estimates.
        let analysis = analyzer.analyze_fused(&recording.data, periods, &self.rule);
        Ok(ProfileResult {
            periods,
            clean,
            recording,
            analyzer,
            analysis,
        })
    }

    /// The images used for analysis (useful for tests/inspection).
    pub fn analysis_images(&self, workload: &Workload) -> Vec<TextImage> {
        let mut disk = workload.images(ImageView::Disk);
        if self.patch_kernel_text {
            let live = workload.images(ImageView::Live);
            for (d, l) in disk.iter_mut().zip(&live) {
                if d.ring() == Ring::Kernel {
                    d.patch_from(l).expect("same module images");
                }
            }
        }
        disk
    }
}

/// Everything an end-to-end profile produces.
#[derive(Debug, Clone)]
pub struct ProfileResult {
    /// The sampling periods used.
    pub periods: SamplingPeriods,
    /// The clean (unsampled) run: baseline wall time.
    pub clean: RunResult,
    /// The collection run: perf data + overheads.
    pub recording: Recording,
    /// The analyzer (owns the block map).
    pub analyzer: Analyzer,
    /// The three estimates.
    pub analysis: Analysis,
}

impl ProfileResult {
    /// HBBP instruction mix.
    pub fn hbbp_mix(&self) -> MnemonicMix {
        self.analyzer.mix(&self.analysis.hbbp.bbec)
    }

    /// EBS-only instruction mix.
    pub fn ebs_mix(&self) -> MnemonicMix {
        self.analyzer.mix(&self.analysis.ebs.bbec)
    }

    /// LBR-only instruction mix.
    pub fn lbr_mix(&self) -> MnemonicMix {
        self.analyzer.mix(&self.analysis.lbr.bbec)
    }

    /// HBBP mix restricted to one ring (Table 7).
    pub fn hbbp_mix_for_ring(&self, ring: Ring) -> MnemonicMix {
        self.analyzer.mix_for_ring(&self.analysis.hbbp.bbec, ring)
    }

    /// Collection overhead vs the clean run.
    pub fn overhead_fraction(&self) -> f64 {
        self.recording.run.overhead_fraction()
    }

    /// Wall seconds of the collection run.
    pub fn collection_seconds(&self) -> f64 {
        self.recording.run.wall_seconds()
    }

    /// Wall seconds of the clean run.
    pub fn clean_seconds(&self) -> f64 {
        self.clean.clean_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbp_sim::EventSpec;
    use hbbp_workloads::{generate, GenSpec, Scale};

    #[test]
    fn end_to_end_profile_produces_all_estimates() {
        let w = generate(&GenSpec::default(), Scale::Tiny);
        let result = HbbpProfiler::new(Cpu::with_seed(7)).profile(&w).unwrap();
        assert!(result.analysis.ebs.samples_used > 100);
        assert!(result.analysis.lbr.stacks > 50);
        assert!(!result.analysis.hbbp.bbec.is_empty());
        // Total instruction estimates should be within a few percent of
        // the true count.
        let total = result
            .analyzer
            .total_instructions(&result.analysis.hbbp.bbec);
        let truth = result.clean.instructions as f64;
        let err = (total - truth).abs() / truth;
        assert!(err < 0.15, "total estimate off by {:.1}%", err * 100.0);
    }

    #[test]
    fn overhead_is_small() {
        let w = generate(&GenSpec::default(), Scale::Tiny);
        let result = HbbpProfiler::new(Cpu::with_seed(8)).profile(&w).unwrap();
        let overhead = result.overhead_fraction();
        assert!(
            overhead < 0.06,
            "collection overhead {:.2}% too large",
            overhead * 100.0
        );
        assert!(result.collection_seconds() > result.clean_seconds());
    }

    #[test]
    fn configured_pid_reaches_every_record() {
        let w = generate(&GenSpec::default(), Scale::Tiny);
        let result = HbbpProfiler::new(Cpu::with_seed(7))
            .with_pid(31337)
            .profile(&w)
            .unwrap();
        for record in result.recording.data.records() {
            let pid = match record {
                hbbp_perf::PerfRecord::Comm { pid, .. }
                | hbbp_perf::PerfRecord::Exit { pid, .. } => *pid,
                hbbp_perf::PerfRecord::Mmap { pid, ring, .. } => {
                    if *ring == Ring::Kernel {
                        continue;
                    }
                    *pid
                }
                hbbp_perf::PerfRecord::Sample(s) => {
                    assert_eq!(s.tid, 31337);
                    s.pid
                }
                _ => continue,
            };
            assert_eq!(pid, 31337);
        }
    }

    #[test]
    fn fixed_periods_respected() {
        let w = generate(&GenSpec::default(), Scale::Tiny);
        let periods = SamplingPeriods {
            ebs: 4001,
            lbr: 563,
        };
        let result = HbbpProfiler::new(Cpu::with_seed(9))
            .with_periods(periods)
            .profile(&w)
            .unwrap();
        assert_eq!(result.periods, periods);
        let ebs_n = result
            .recording
            .data
            .samples_of(EventSpec::inst_retired_prec_dist())
            .count() as u64;
        let expect = result.clean.instructions / periods.ebs;
        assert!(
            (ebs_n as i64 - expect as i64).unsigned_abs() <= expect / 5 + 2,
            "ebs samples {ebs_n} vs expected {expect}"
        );
    }
}
