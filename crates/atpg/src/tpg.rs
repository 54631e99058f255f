//! The complete ATPG engine: random bootstrap → deterministic PODEM →
//! reverse-order static compaction.
//!
//! This is the "automatic test pattern generation tool" the paper uses to
//! back-annotate each predesigned component with its pattern count `np`
//! and fault coverage (Table 1, columns "our approach" and "FC").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tta_netlist::Netlist;

use crate::collapse;
use crate::fault::{Fault, FaultUniverse};
use crate::faultsim::FaultSimulator;
use crate::pattern::{Pattern, PatternBatch, TestSet};
use crate::podem::{Podem, PodemOutcome};
use crate::v5::V3;
use crate::view::CombView;

/// Tuning knobs of the ATPG run.
#[derive(Debug, Clone)]
pub struct AtpgConfig {
    /// Maximum number of random bootstrap patterns (0 disables the phase).
    pub max_random_patterns: usize,
    /// Stop the random phase after this many consecutive batches without a
    /// new detection.
    pub random_stale_batches: usize,
    /// RNG seed — runs are fully deterministic.
    pub seed: u64,
    /// PODEM backtrack limit per fault. With X-path pruning most
    /// redundancy proofs finish in a handful of backtracks; the limit
    /// only bounds pathological reconvergent searches, so it sits in the
    /// classic tens-to-hundreds range used by industrial engines.
    pub backtrack_limit: u32,
    /// Run reverse-order static compaction at the end.
    pub compaction: bool,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            max_random_patterns: 512,
            random_stale_batches: 2,
            seed: 0xDA7E_2000,
            backtrack_limit: 512,
            compaction: true,
        }
    }
}

impl AtpgConfig {
    /// The throughput profile used for design-space sweeps: a tighter
    /// abort limit for the handful of pathological reconvergent faults.
    /// On the paper's components this produces the *same* test sets as
    /// [`AtpgConfig::default`] (the extra backtracks only ever resolved
    /// untestable-vs-aborted verdicts), but back-annotates an order of
    /// magnitude faster; only the reported untestable/aborted split — and
    /// with it the adjusted-coverage figure — can differ.
    pub fn sweep() -> Self {
        AtpgConfig {
            backtrack_limit: 128,
            ..AtpgConfig::default()
        }
    }
}

/// Per-fault final status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStatus {
    /// Detected by some pattern in the final set.
    Detected,
    /// Proven combinationally redundant by exhaustive PODEM.
    Untestable,
    /// PODEM hit its backtrack limit.
    Aborted,
}

/// Result of an ATPG run.
#[derive(Debug, Clone)]
pub struct AtpgResult {
    /// The final (possibly compacted) test set.
    pub test_set: TestSet,
    /// Collapsed fault universe the run targeted.
    pub faults: Vec<Fault>,
    /// Status per collapsed fault (same indexing as `faults`).
    pub status: Vec<FaultStatus>,
    /// Size of the uncollapsed universe (reporting only).
    pub uncollapsed_faults: usize,
    /// Patterns produced by the random phase (before compaction).
    pub random_phase_patterns: usize,
    /// Patterns produced by PODEM (before compaction).
    pub deterministic_patterns: usize,
}

impl AtpgResult {
    /// `np`: number of test patterns (the quantity eq. (11)/(12) consume).
    pub fn pattern_count(&self) -> usize {
        self.test_set.len()
    }

    /// Detected / total collapsed faults.
    pub fn fault_coverage(&self) -> f64 {
        let detected = self
            .status
            .iter()
            .filter(|s| **s == FaultStatus::Detected)
            .count();
        detected as f64 / self.faults.len().max(1) as f64
    }

    /// Detected / (total − proven-redundant): the coverage figure ATPG
    /// tools usually quote ("test efficiency" counts aborts as misses).
    pub fn adjusted_coverage(&self) -> f64 {
        let detected = self
            .status
            .iter()
            .filter(|s| **s == FaultStatus::Detected)
            .count();
        let redundant = self
            .status
            .iter()
            .filter(|s| **s == FaultStatus::Untestable)
            .count();
        detected as f64 / (self.faults.len() - redundant).max(1) as f64
    }

    /// Number of faults per status.
    pub fn status_counts(&self) -> (usize, usize, usize) {
        let mut d = 0;
        let mut u = 0;
        let mut a = 0;
        for s in &self.status {
            match s {
                FaultStatus::Detected => d += 1,
                FaultStatus::Untestable => u += 1,
                FaultStatus::Aborted => a += 1,
            }
        }
        (d, u, a)
    }
}

/// The ATPG engine.
#[derive(Debug, Clone)]
pub struct Atpg {
    config: AtpgConfig,
}

impl Atpg {
    /// Creates an engine with the given configuration.
    pub fn new(config: AtpgConfig) -> Self {
        Atpg { config }
    }

    /// Runs ATPG on the full-scan view of `nl`.
    pub fn run(&self, nl: &Netlist) -> AtpgResult {
        self.run_view(nl, CombView::full_scan(nl))
    }

    /// Runs ATPG with an explicit test-access view.
    pub fn run_view(&self, nl: &Netlist, view: CombView) -> AtpgResult {
        let universe = FaultUniverse::enumerate(nl);
        let collapsed = collapse::collapse(nl, &universe);
        let faults: Vec<Fault> = collapsed.representatives.faults().to_vec();
        let n_inputs = view.inputs().len();
        let mut fs = FaultSimulator::with_view(nl.clone(), view.clone());
        let mut rng = StdRng::seed_from_u64(self.config.seed);

        let mut status = vec![FaultStatus::Aborted; faults.len()];
        let mut remaining: Vec<usize> = (0..faults.len()).collect();
        let mut test_set = TestSet::new();

        // ---- phase 1: random bootstrap --------------------------------
        let mut random_phase_patterns = 0usize;
        let mut stale = 0usize;
        let mut generated = 0usize;
        while generated < self.config.max_random_patterns
            && !remaining.is_empty()
            && stale < self.config.random_stale_batches
        {
            let count = 64.min(self.config.max_random_patterns - generated);
            let patterns: Vec<Pattern> = (0..count)
                .map(|_| Pattern::new((0..n_inputs).map(|_| rng.random()).collect()))
                .collect();
            generated += count;
            let refs: Vec<&Pattern> = patterns.iter().collect();
            let batch = PatternBatch::pack(fs.view(), &refs);
            let mut good = fs.good_values(&batch);
            let mut keep_mask = 0u64;
            let mut newly_detected = Vec::new();
            for &fi in &remaining {
                let mask = fs.detect_mask(&mut good, faults[fi]);
                if mask != 0 {
                    keep_mask |= 1 << mask.trailing_zeros();
                    newly_detected.push(fi);
                }
            }
            if newly_detected.is_empty() {
                stale += 1;
                continue;
            }
            stale = 0;
            for fi in &newly_detected {
                status[*fi] = FaultStatus::Detected;
            }
            remaining.retain(|fi| status[*fi] != FaultStatus::Detected);
            for (k, p) in patterns.into_iter().enumerate() {
                if keep_mask >> k & 1 == 1 {
                    test_set.push(p);
                    random_phase_patterns += 1;
                }
            }
        }

        // ---- phase 2: deterministic PODEM ------------------------------
        let mut deterministic_patterns = 0usize;
        let podem_view = fs.view().clone();
        let mut podem = Podem::new(nl, &podem_view, self.config.backtrack_limit);
        while let Some(&fi) = remaining.first() {
            match podem.generate(faults[fi]) {
                PodemOutcome::Test(cube) => {
                    let bits: Vec<bool> = cube
                        .iter()
                        .map(|v| match v {
                            V3::One => true,
                            V3::Zero => false,
                            V3::X => rng.random(),
                        })
                        .collect();
                    let pattern = Pattern::new(bits);
                    // Fault-sim the new pattern against everything still
                    // remaining (fault dropping).
                    let batch = PatternBatch::pack(fs.view(), &[&pattern]);
                    let mut good = fs.good_values(&batch);
                    let mut hit_target = false;
                    for &fj in &remaining {
                        if fs.detect_mask(&mut good, faults[fj]) != 0 {
                            status[fj] = FaultStatus::Detected;
                            hit_target |= fj == fi;
                        }
                    }
                    debug_assert!(
                        hit_target,
                        "PODEM pattern must detect its target {}",
                        faults[fi]
                    );
                    if !hit_target {
                        // Defensive: never loop forever on a bad cube.
                        status[fi] = FaultStatus::Aborted;
                    }
                    remaining.retain(|fj| {
                        status[*fj] != FaultStatus::Detected
                            && !(status[*fj] == FaultStatus::Aborted && *fj == fi)
                    });
                    test_set.push(pattern);
                    deterministic_patterns += 1;
                    // `remaining` shrank in place; do not advance `i`.
                }
                PodemOutcome::Untestable => {
                    status[fi] = FaultStatus::Untestable;
                    remaining.remove(0);
                }
                PodemOutcome::Aborted => {
                    status[fi] = FaultStatus::Aborted;
                    remaining.remove(0);
                }
            }
        }

        // ---- phase 3: reverse-order static compaction -------------------
        if self.config.compaction && !test_set.is_empty() {
            let detected_faults: Vec<Fault> = faults
                .iter()
                .zip(&status)
                .filter(|(_, s)| **s == FaultStatus::Detected)
                .map(|(f, _)| *f)
                .collect();
            let keep = compact_reverse(&mut fs, &test_set, &detected_faults);
            test_set.retain_indices(&keep);
        }

        AtpgResult {
            test_set,
            faults,
            status,
            uncollapsed_faults: collapsed.original_count,
            random_phase_patterns,
            deterministic_patterns,
        }
    }
}

/// Reverse-order static compaction: keep, for every fault, the *last*
/// pattern that detects it; drop every pattern that is nobody's last
/// detector. Returns the sorted indices of kept patterns.
fn compact_reverse(fs: &mut FaultSimulator, test_set: &TestSet, faults: &[Fault]) -> Vec<usize> {
    let patterns = test_set.patterns();
    let mut last_detector: Vec<Option<usize>> = vec![None; faults.len()];
    for (chunk_idx, chunk) in patterns.chunks(64).enumerate() {
        let refs: Vec<&Pattern> = chunk.iter().collect();
        let batch = PatternBatch::pack(fs.view(), &refs);
        let mut good = fs.good_values(&batch);
        for (fi, fault) in faults.iter().enumerate() {
            let mask = fs.detect_mask(&mut good, *fault);
            if mask != 0 {
                let hi = 63 - mask.leading_zeros() as usize;
                let idx = chunk_idx * 64 + hi;
                let cur = last_detector[fi].unwrap_or(0);
                if last_detector[fi].is_none() || idx > cur {
                    last_detector[fi] = Some(idx);
                }
            }
        }
    }
    let mut keep: Vec<usize> = last_detector.into_iter().flatten().collect();
    keep.sort_unstable();
    keep.dedup();
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_netlist::components;

    #[test]
    fn full_coverage_on_small_alu() {
        let alu = components::alu(4);
        let result = Atpg::new(AtpgConfig::default()).run(&alu.netlist);
        let (detected, untestable, aborted) = result.status_counts();
        assert!(aborted == 0, "no aborts expected on a 4-bit ALU");
        assert!(
            result.adjusted_coverage() > 0.999,
            "coverage {:.4} (d={detected} u={untestable} a={aborted})",
            result.adjusted_coverage()
        );
        assert!(result.pattern_count() >= 5);
        assert!(result.pattern_count() < 200);
    }

    #[test]
    fn compaction_never_loses_coverage() {
        let cmp = components::cmp(4);
        let with = Atpg::new(AtpgConfig::default()).run(&cmp.netlist);
        let without = Atpg::new(AtpgConfig {
            compaction: false,
            ..AtpgConfig::default()
        })
        .run(&cmp.netlist);
        assert_eq!(
            with.status_counts().0,
            without.status_counts().0,
            "same detected count"
        );
        assert!(with.pattern_count() <= without.pattern_count());
    }

    #[test]
    fn deterministic_only_still_covers() {
        let alu = components::alu(4);
        let result = Atpg::new(AtpgConfig {
            max_random_patterns: 0,
            ..AtpgConfig::default()
        })
        .run(&alu.netlist);
        assert!(result.adjusted_coverage() > 0.999);
        assert_eq!(result.random_phase_patterns, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let alu = components::alu(4);
        let r1 = Atpg::new(AtpgConfig::default()).run(&alu.netlist);
        let r2 = Atpg::new(AtpgConfig::default()).run(&alu.netlist);
        assert_eq!(r1.pattern_count(), r2.pattern_count());
        assert_eq!(r1.status, r2.status);
    }

    #[test]
    fn coverage_verified_by_independent_fault_sim() {
        // Re-simulate the final test set from scratch: every fault marked
        // Detected must actually be detected by it.
        let alu = components::alu(4);
        let result = Atpg::new(AtpgConfig::default()).run(&alu.netlist);
        let mut fs = FaultSimulator::new(alu.netlist.clone());
        let (redetected, _) = fs.run_with_dropping(result.test_set.patterns(), &result.faults);
        for (i, s) in result.status.iter().enumerate() {
            if *s == FaultStatus::Detected {
                assert!(
                    redetected[i],
                    "fault {} lost by compaction",
                    result.faults[i]
                );
            }
        }
    }
}
