//! The classical full-scan baseline of Table 1.
//!
//! Full scan replaces *every* flip-flop — pipeline registers, socket
//! state and (for the flip-flop implementation) register-file storage —
//! by scan flip-flops on one chain, and shifts every pattern through it:
//! `cycles = np·(nl+1) + nl`. The paper's point is that this costs an
//! order of magnitude more cycles than applying the same structural
//! patterns functionally over the move buses.

use std::collections::HashMap;

use tta_atpg::{Atpg, AtpgConfig};
use tta_dft::scan::insert_scan;
use tta_dft::testtime::full_scan_cycles;

use crate::backannotate::{ComponentKey, Part};
use crate::testcost::socket_state_bits;

/// Full-scan figures for one component.
#[derive(Debug, Clone)]
pub struct FullScanRecord {
    /// Scan pattern count (component logic + socket logic).
    pub np: usize,
    /// Total chain length: every flip-flop of component + sockets.
    pub nl: usize,
    /// Test application cycles `np·(nl+1) + nl`.
    pub cycles: usize,
    /// Area overhead of scan insertion, NAND2 equivalents.
    pub area_overhead: f64,
    /// Fault coverage of the scan pattern set (testable faults).
    pub fault_coverage: f64,
}

/// Lazy cache of full-scan baselines.
#[derive(Debug)]
pub struct FullScanDb {
    atpg: Atpg,
    cache: HashMap<ComponentKey, FullScanRecord>,
}

impl Default for FullScanDb {
    fn default() -> Self {
        Self::new()
    }
}

impl FullScanDb {
    /// Database with default ATPG settings.
    pub fn new() -> Self {
        FullScanDb {
            atpg: Atpg::new(AtpgConfig::default()),
            cache: HashMap::new(),
        }
    }

    /// Fetches (computing on first use) the full-scan record for `part`
    /// (keyed by its component: the socket group follows from it).
    ///
    /// ATPG runs on the unscanned component netlist: the engine already
    /// treats every flip-flop as a pseudo primary input and output, which
    /// is what full scan makes them. The scan-inserted copy only prices
    /// the area overhead. Socket logic patterns and state bits are added
    /// on top (one chain, as the paper assumes).
    pub fn get(&mut self, part: &Part<'_>) -> &FullScanRecord {
        let key = part.key;
        if !self.cache.contains_key(&key) {
            let record = self.compute(part);
            self.cache.insert(key, record);
        }
        &self.cache[&key]
    }

    fn compute(&self, part: &Part<'_>) -> FullScanRecord {
        let component = part.key.generate();
        let scanned = insert_scan(&component.netlist);
        let comp_result = self.atpg.run(&component.netlist);
        // Socket logic joins the same chain.
        let sock_result = self.atpg.run(&part.socket.generate().netlist);
        let np = comp_result.pattern_count() + sock_result.pattern_count();
        let nl = component.netlist.dff_count() + socket_state_bits(part.input_ports);
        FullScanRecord {
            np,
            nl,
            cycles: full_scan_cycles(np, nl),
            area_overhead: scanned.area_overhead(),
            fault_coverage: comp_result.adjusted_coverage(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backannotate::{parts, ComponentDb};
    use crate::testcost::architecture_test_cost;
    use tta_arch::template::TemplateBuilder;
    use tta_arch::{Architecture, FuKind};

    fn arch8() -> Architecture {
        TemplateBuilder::new("t", 8, 2)
            .fu(FuKind::Alu)
            .fu(FuKind::Cmp)
            .fu(FuKind::LdSt)
            .fu(FuKind::Pc)
            .fu(FuKind::Immediate)
            .rf(8, 1, 2)
            .build()
    }

    /// The part of `arch` whose component is `key`.
    fn part_of(arch: &Architecture, key: ComponentKey) -> Part<'_> {
        parts(arch).unwrap().find(|p| p.key == key).unwrap()
    }

    #[test]
    fn full_scan_costs_an_order_of_magnitude_more() {
        // The paper's headline comparison, at 8 bits: the functional
        // approach needs far fewer cycles than full scan.
        let mut fsdb = FullScanDb::new();
        let db = ComponentDb::new();
        let arch = arch8();
        let ours = architecture_test_cost(&arch, &db);
        let alu_ours = ours
            .components
            .iter()
            .find(|c| c.name.starts_with("alu"))
            .unwrap()
            .our_approach_cycles();
        let alu_scan = fsdb.get(&part_of(&arch, ComponentKey::Alu(8))).cycles as f64;
        assert!(
            alu_scan > 3.0 * alu_ours,
            "full scan {alu_scan} vs ours {alu_ours}"
        );
    }

    #[test]
    fn scan_adds_area() {
        let mut fsdb = FullScanDb::new();
        let arch = arch8();
        let rec = fsdb.get(&part_of(&arch, ComponentKey::Cmp(8))).clone();
        assert!(rec.area_overhead > 0.0);
        assert!(rec.fault_coverage > 0.98);
        assert_eq!(rec.cycles, full_scan_cycles(rec.np, rec.nl));
    }
}
