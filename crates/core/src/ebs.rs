//! The EBS estimator — paper §III.A.
//!
//! "We enhance classic EBS by applying every IP sample to all instructions
//! of the enclosing basic block. … To obtain proper instruction counts, we
//! must then divide the number of samples recorded for a basic block by
//! the instruction length of that block."
//!
//! Estimation works in the block **index** coordinate system: raw sample
//! tallies live in a plain vector indexed by [`BlockMap`] block index and
//! IPs resolve through the map's page-indexed [`BlockMap::enclosing`], so
//! the hot loop performs no hashing.

use hbbp_perf::PerfData;
use hbbp_program::{Bbec, BlockMap, DenseBbec};
use hbbp_sim::EventSpec;
use std::collections::HashMap;

/// Result of EBS estimation.
#[derive(Debug, Clone)]
pub struct EbsEstimate {
    /// Estimated per-block execution counts (address-keyed).
    pub bbec: Bbec,
    /// The same counts in the block-index coordinate system of the map
    /// the estimate was built over.
    pub dense: DenseBbec,
    /// Raw IP-sample counts per block (keyed by block start).
    pub samples_per_block: HashMap<u64, u64>,
    /// Samples whose IP fell inside the block map.
    pub samples_used: u64,
    /// Samples outside any known block (stub regions, unmapped code).
    pub samples_unmapped: u64,
    /// The sampling period used for extrapolation.
    pub period: u64,
}

impl EbsEstimate {
    /// Estimated executions of the block starting at `addr`.
    pub fn count(&self, addr: u64) -> f64 {
        self.bbec.get(addr)
    }

    /// Estimated executions of the block at map index `bi`.
    pub fn count_idx(&self, bi: usize) -> f64 {
        self.dense.get(bi)
    }
}

/// Streaming EBS accumulator: feed it the eventing IPs of
/// `INST_RETIRED:PREC_DIST` samples one at a time (event filtering is the
/// caller's job), then [`take_estimate`] into an [`EbsEstimate`]. This is
/// the building block [`crate::OnlineAnalyzer`] dispatches into.
///
/// [`take_estimate`]: EbsAccum::take_estimate
#[derive(Debug, Clone)]
pub(crate) struct EbsAccum<'m> {
    map: &'m BlockMap,
    samples: Vec<u64>,
    used: u64,
    unmapped: u64,
    period: u64,
}

impl<'m> EbsAccum<'m> {
    pub(crate) fn new(map: &'m BlockMap, period: u64) -> EbsAccum<'m> {
        EbsAccum {
            map,
            samples: vec![0; map.len()],
            used: 0,
            unmapped: 0,
            period,
        }
    }

    /// Attribute one sample's eventing IP. Attached LBR stacks are
    /// **discarded** (paper §V.A), so the sample itself is not needed.
    pub(crate) fn observe_ip(&mut self, ip: u64) {
        match self.map.enclosing(ip) {
            Some(bi) => {
                self.samples[bi] += 1;
                self.used += 1;
            }
            None => self.unmapped += 1,
        }
    }

    /// Produce the [`EbsEstimate`] of everything observed so far and reset
    /// the accumulator in place, keeping its allocations — the windowed
    /// online analyzer calls this once per window instead of building a
    /// fresh accumulator (and tally vector) each time.
    pub(crate) fn take_estimate(&mut self) -> EbsEstimate {
        let mut dense = DenseBbec::for_map(self.map);
        let mut bbec = Bbec::new();
        let mut samples_per_block = HashMap::new();
        for (bi, &n) in self.samples.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let block = &self.map.blocks()[bi];
            samples_per_block.insert(block.start, n);
            let len = block.len().max(1) as f64;
            let value = n as f64 * self.period as f64 / len;
            dense.set(bi, value);
            // Built directly (not via `to_bbec`) so a sampled block keeps
            // its entry even when a degenerate period of 0 zeroes the
            // value, like the address-keyed reference does.
            bbec.set(block.start, value);
        }
        let estimate = EbsEstimate {
            bbec,
            dense,
            samples_per_block,
            samples_used: self.used,
            samples_unmapped: self.unmapped,
            period: self.period,
        };
        self.samples.fill(0);
        self.used = 0;
        self.unmapped = 0;
        estimate
    }
}

/// Build the EBS estimate from the eventing IPs of
/// `INST_RETIRED:PREC_DIST` samples. LBR stacks attached to those samples
/// are **discarded** (paper §V.A).
pub fn estimate(data: &PerfData, map: &BlockMap, period: u64) -> EbsEstimate {
    let mut acc = EbsAccum::new(map, period);
    for sample in data.samples_of(EventSpec::inst_retired_prec_dist()) {
        acc.observe_ip(sample.ip);
    }
    acc.take_estimate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbbp_isa::instruction::build;
    use hbbp_isa::{Mnemonic, Reg};
    use hbbp_perf::{PerfRecord, PerfSample};
    use hbbp_program::{ImageView, Layout, ProgramBuilder, Ring, TextImage};

    /// One 5-instruction block + exit block.
    fn map_fixture() -> (BlockMap, u64, u64) {
        let mut b = ProgramBuilder::new("f");
        let m = b.module("f.bin", Ring::User);
        let f = b.function(m, "main");
        let b0 = b.block(f);
        let b1 = b.block(f);
        for i in 0..4 {
            b.push(b0, build::rr(Mnemonic::Add, Reg::gpr(i), Reg::gpr(5)));
        }
        b.terminate_branch(b0, Mnemonic::Jnz, b0, b1);
        b.terminate_exit(b1, build::bare(Mnemonic::Syscall));
        let mut p = b.build(f).unwrap();
        let layout = Layout::compute(&mut p).unwrap();
        let image = TextImage::encode(&p, &layout, p.modules()[0].id(), ImageView::Disk);
        let map = BlockMap::discover(&[image], layout.symbols()).unwrap();
        (map, layout.block_start(b0), layout.instr_addr(b0, 2))
    }

    fn sample_at(ip: u64) -> PerfRecord {
        PerfRecord::Sample(PerfSample {
            counter: 0,
            event: EventSpec::inst_retired_prec_dist(),
            ip,
            time_cycles: 0,
            pid: 1,
            tid: 1,
            ring: Ring::User,
            lbr: vec![],
        })
    }

    #[test]
    fn whole_block_crediting_and_length_normalization() {
        let (map, b0_start, mid_ip) = map_fixture();
        // 10 samples anywhere inside the 5-instruction block ⇒
        // count = 10 * period / 5.
        let mut data = PerfData::new();
        for i in 0..10 {
            data.push(sample_at(if i % 2 == 0 { b0_start } else { mid_ip }));
        }
        let est = estimate(&data, &map, 1000);
        assert_eq!(est.samples_used, 10);
        assert_eq!(est.samples_unmapped, 0);
        assert!((est.count(b0_start) - 10.0 * 1000.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn unmapped_samples_counted_not_attributed() {
        let (map, b0_start, _) = map_fixture();
        let mut data = PerfData::new();
        data.push(sample_at(0xdead_beef));
        data.push(sample_at(b0_start));
        let est = estimate(&data, &map, 100);
        assert_eq!(est.samples_used, 1);
        assert_eq!(est.samples_unmapped, 1);
        assert_eq!(est.bbec.len(), 1);
    }

    #[test]
    fn other_event_samples_ignored() {
        let (map, b0_start, _) = map_fixture();
        let mut data = PerfData::new();
        data.push(PerfRecord::Sample(PerfSample {
            counter: 1,
            event: EventSpec::br_inst_retired_near_taken(),
            ip: b0_start,
            time_cycles: 0,
            pid: 1,
            tid: 1,
            ring: Ring::User,
            lbr: vec![],
        }));
        let est = estimate(&data, &map, 100);
        assert_eq!(est.samples_used, 0);
        assert!(est.bbec.is_empty());
    }

    #[test]
    fn empty_data_is_empty_estimate() {
        let (map, _, _) = map_fixture();
        let est = estimate(&PerfData::new(), &map, 100);
        assert!(est.bbec.is_empty());
        assert_eq!(est.samples_used + est.samples_unmapped, 0);
    }
}
