//! Cross-crate integration tests: the full HBBP pipeline from workload
//! generation through collection, analysis and error metrics.

use hbbp::prelude::*;
use hbbp::workloads::{generate, GenSpec};

fn eval(workload: &Workload, seed: u64, rule: HybridRule) -> (ProfileResult, f64, f64, f64) {
    let truth = Instrumenter::new().run(workload.program(), workload.layout(), workload.oracle());
    let result = HbbpProfiler::new(Cpu::with_seed(seed))
        .with_rule(rule)
        .profile(workload)
        .expect("profile");
    let hbbp = MixComparison::compare(&truth.mix, &result.hbbp_mix_for_ring(Ring::User))
        .avg_weighted_error();
    let lbr = MixComparison::compare(
        &truth.mix,
        &result
            .analyzer
            .mix_for_ring(&result.analysis.lbr.bbec, Ring::User),
    )
    .avg_weighted_error();
    let ebs = MixComparison::compare(
        &truth.mix,
        &result
            .analyzer
            .mix_for_ring(&result.analysis.ebs.bbec, Ring::User),
    )
    .avg_weighted_error();
    (result, hbbp, lbr, ebs)
}

#[test]
fn hbbp_accuracy_envelope() {
    // On a generic workload HBBP must deliver a small average weighted
    // error at a small overhead — the paper's headline tradeoff.
    let w = generate(&GenSpec::default(), Scale::Tiny);
    let (result, hbbp, lbr, ebs) = eval(&w, 0xAA, HybridRule::paper_default());
    assert!(hbbp < 0.06, "HBBP error {hbbp:.4} too large");
    assert!(
        result.overhead_fraction() < 0.03,
        "overhead {:.4}",
        result.overhead_fraction()
    );
    // HBBP must not be dramatically worse than the best single method.
    assert!(
        hbbp <= 1.8 * lbr.min(ebs) + 0.005,
        "hbbp {hbbp} lbr {lbr} ebs {ebs}"
    );
}

#[test]
fn hybrid_dodges_both_failure_modes() {
    use hbbp::workloads::{fitter, FitterVariant};
    // SSE: long sticky-biased blocks → LBR much worse than HBBP.
    let sse = fitter(FitterVariant::Sse, Scale::Tiny);
    let (_, hbbp, lbr, _) = eval(&sse, 0xBB, HybridRule::paper_default());
    assert!(
        lbr > 1.5 * hbbp,
        "SSE variant: LBR {lbr:.4} should be much worse than HBBP {hbbp:.4}"
    );
    // AVX: short blocks with trailing divides → EBS much worse than HBBP.
    let avx = fitter(FitterVariant::Avx, Scale::Tiny);
    let (_, hbbp, _, ebs) = eval(&avx, 0xBB, HybridRule::paper_default());
    assert!(
        ebs > 1.5 * hbbp,
        "AVX variant: EBS {ebs:.4} should be much worse than HBBP {hbbp:.4}"
    );
}

#[test]
fn ablation_rules_bracket_the_hybrid() {
    let w = generate(&GenSpec::default(), Scale::Tiny);
    let (_, hybrid, _, _) = eval(&w, 0xCC, HybridRule::paper_default());
    let (_, always_ebs, _, _) = eval(&w, 0xCC, HybridRule::AlwaysEbs);
    let (_, always_lbr, _, _) = eval(&w, 0xCC, HybridRule::AlwaysLbr);
    // The hybrid should never lose badly to both degenerate rules at once.
    assert!(
        hybrid <= always_ebs.max(always_lbr) + 1e-9,
        "hybrid {hybrid} vs ebs {always_ebs} / lbr {always_lbr}"
    );
}

#[test]
fn profiles_are_deterministic_per_seed() {
    let w = generate(&GenSpec::default(), Scale::Tiny);
    let a = HbbpProfiler::new(Cpu::with_seed(5)).profile(&w).unwrap();
    let b = HbbpProfiler::new(Cpu::with_seed(5)).profile(&w).unwrap();
    assert_eq!(a.recording.data, b.recording.data);
    let c = HbbpProfiler::new(Cpu::with_seed(6)).profile(&w).unwrap();
    assert_ne!(a.recording.data, c.recording.data);
}

#[test]
fn perf_data_roundtrips_through_binary_codec() {
    let w = generate(&GenSpec::default(), Scale::Tiny);
    let result = HbbpProfiler::new(Cpu::with_seed(9)).profile(&w).unwrap();
    let bytes = hbbp::perf::codec::write(&result.recording.data);
    let back = hbbp::perf::codec::read(&bytes).expect("read back");
    assert_eq!(back, result.recording.data);
    // And the decoded stream supports the same analysis.
    let re = result
        .analyzer
        .analyze_fused(&back, result.periods, &HybridRule::paper_default());
    assert_eq!(re.hbbp.bbec.total(), result.analysis.hbbp.bbec.total());
}

#[test]
fn instrumentation_fault_caught_by_pmu_cross_check() {
    use hbbp::instrument::MiscountFault;
    let w = generate(&GenSpec::default(), Scale::Tiny);
    let faulty = Instrumenter::new()
        .with_fault(MiscountFault {
            mnemonic: Mnemonic::Mov,
            factor: 0.8,
        })
        .run(w.program(), w.layout(), w.oracle());
    let clean = Cpu::with_seed(1)
        .run_clean(w.program(), w.layout(), w.oracle())
        .unwrap();
    let check = cross_check(&faulty, &clean.counts, 0);
    assert!(!check.agrees(0.005), "{check}");
}

#[test]
fn total_instruction_estimates_track_truth() {
    let w = generate(&GenSpec::default(), Scale::Tiny);
    let result = HbbpProfiler::new(Cpu::with_seed(11)).profile(&w).unwrap();
    let estimated = result
        .analyzer
        .total_instructions(&result.analysis.hbbp.bbec);
    let actual = result.clean.instructions as f64;
    let err = (estimated - actual).abs() / actual;
    assert!(err < 0.1, "total estimate off by {:.2}%", err * 100.0);
}
