//! The analytical test-cost functions of the paper — eqs. (11)–(14).
//!
//! * eq. (11): `ftfu = np · CDfu(tDin, tDout)` — the functional-unit cost
//!   is its pattern count times the per-pattern transport distance. The
//!   paper's `⌈nconn/nb⌉` ratio materialises through the socket→bus
//!   assignment: when a unit has more connectors than there are buses,
//!   ports share a bus and `CD` grows per eq. (10) (see
//!   [`tta_arch::timing::transport_cycles`]). The explicit ratio form is
//!   also provided ([`ftfu_ratio`]) for the Figure 6 experiment.
//! * eq. (12): `ftrf` — marching patterns divided by the usable port
//!   parallelism, with a serialisation penalty when both `nin` and `nout`
//!   exceed the bus count.
//! * eq. (13): `fts = np · nl` — socket logic is scan-tested; the chain
//!   spans the socket control state *and* the component's pipeline
//!   registers.
//! * eq. (14): the total is the sum over FUs, RFs and sockets.
//!
//! LD/ST, PC and the Immediate unit "always appear once for arbitrary
//! architecture and application; hence, they contribute equally" — they
//! are reported but excluded from the comparative total, as in the paper.
//!
//! [`architecture_test_cost`] and the scan model of [`crate::models`]
//! share one fold over the architecture's parts ([`parts`]): the part
//! list, the domain check and the exclusion rule are the walk's, and
//! the two models differ only in how they price one part.

use tta_arch::{timing, Architecture};

use crate::backannotate::{parts, ComponentDb, ComponentRecord, Part, Unit};

/// Test cost of one datapath component (one Table 1 row).
#[derive(Debug, Clone)]
pub struct ComponentTestCost {
    /// Display name (`ALU`, `CMP`, `RF1`, …).
    pub name: String,
    /// Structural/marching pattern count `np`.
    pub np: usize,
    /// Transport distance `CD(tDin, tDout)` in cycles.
    pub cd: u32,
    /// `ftfu` or `ftrf` (functional application cycles).
    pub functional_cost: f64,
    /// Socket pattern count (scan).
    pub socket_np: usize,
    /// Socket scan-chain length `nl` (pipeline registers + socket state).
    pub nl: usize,
    /// `fts = socket_np · nl` (eq. 13).
    pub fts: f64,
    /// Fault coverage of the functional pattern set.
    pub fault_coverage: f64,
    /// Excluded from the comparative total (LD/ST, PC, IMM)?
    pub excluded: bool,
}

impl ComponentTestCost {
    /// Total cycles of the proposed approach for this component
    /// (functional patterns + socket scan), the paper's "our approach"
    /// column.
    pub fn our_approach_cycles(&self) -> f64 {
        self.functional_cost + self.fts
    }
}

/// Complete test cost of one architecture.
#[derive(Debug, Clone)]
pub struct ArchTestCost {
    /// Per-component breakdown.
    pub components: Vec<ComponentTestCost>,
    /// eq. (14) total over the non-excluded components.
    pub total: f64,
}

/// eq. (11) in the explicit ratio form: `np · CD_const · max(1, nconn/nb)`.
///
/// Used by the Figure 6 harness to show two *identical* units costing
/// differently purely through their port/bus situation.
pub fn ftfu_ratio(np: usize, cd: u32, nconn: usize, nb: usize) -> f64 {
    let ratio = (nconn as f64 / nb as f64).max(1.0);
    np as f64 * f64::from(cd) * ratio
}

/// eq. (12): register-file cost from marching pattern count and port/bus
/// parallelism.
pub fn ftrf(np: usize, cd: u32, nin: usize, nout: usize, nb: usize) -> f64 {
    let both_exceed = nin > nb && nout > nb;
    if both_exceed {
        // Port accesses must be serialised over the buses.
        let serialisation = nin.max(nout) as f64 / nb as f64;
        np as f64 * f64::from(cd) * serialisation
    } else {
        // Marching vectors applied in parallel over the usable ports.
        let parallel = nin.min(nout).min(nb).max(1) as f64;
        np as f64 * f64::from(cd) / parallel
    }
}

/// eq. (13): socket scan cost.
pub fn fts(socket_np: usize, nl: usize) -> f64 {
    (socket_np * nl) as f64
}

/// Socket/stage control state bits added around a component with
/// `n_input_ports` (Fin per input, Fout, 3-bit stage FSM).
pub fn socket_state_bits(n_input_ports: usize) -> usize {
    n_input_ports + 4
}

/// The test cost of `arch` with each part priced by `price` from the
/// part and the records of its component and socket group: one row per
/// part in datapath order, and the eq. (14) total over the rows not
/// excluded.
///
/// Architectures outside the component model's domain get an empty
/// breakdown with an infinite total (the convention of the area/timing
/// models: the sweep and any selection drop such points instead of
/// trusting a silently truncated key).
pub(crate) fn fold_test_cost(
    arch: &Architecture,
    db: &ComponentDb,
    price: impl Fn(&Part<'_>, &ComponentRecord, &ComponentRecord) -> ComponentTestCost,
) -> ArchTestCost {
    let Some(parts) = parts(arch) else {
        return ArchTestCost {
            components: Vec::new(),
            total: f64::INFINITY,
        };
    };
    db.fold(|records| {
        let mut components = Vec::with_capacity(arch.fus().len() + arch.rfs().len());
        for part in parts.clone() {
            let (rec, sock) = (records.get(part.key), records.get(part.socket));
            components.push(price(&part, rec, sock));
        }
        let total = components
            .iter()
            .filter(|c| !c.excluded)
            .map(ComponentTestCost::our_approach_cycles)
            .sum();
        ArchTestCost { components, total }
    })
}

/// Computes the full eq.-(14) test cost of `arch`, back-annotating
/// components through `db` as needed. Outside the component model's
/// domain the total is infinite (see [`parts`]).
pub fn architecture_test_cost(arch: &Architecture, db: &ComponentDb) -> ArchTestCost {
    fold_test_cost(arch, db, |part, rec, sock| {
        let (cd, functional_cost) = match part.unit() {
            Unit::Fu(fu) => {
                let cd = timing::transport_cycles(fu);
                (cd, rec.np as f64 * f64::from(cd))
            }
            Unit::Rf(rf) => {
                let cd = timing::rf_transport_cycles(rf.write_ports[0], rf.read_ports[0]);
                (cd, ftrf(rec.np, cd, rf.nin(), rf.nout(), arch.bus_count()))
            }
        };
        let nl = rec.ff_infrastructure + socket_state_bits(part.input_ports);
        ComponentTestCost {
            name: part.name().to_owned(),
            np: rec.np,
            cd,
            functional_cost,
            socket_np: sock.np,
            nl,
            fts: fts(sock.np, nl),
            fault_coverage: rec.adjusted_coverage,
            excluded: part.excluded,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_arch::template::TemplateBuilder;
    use tta_arch::FuKind;

    fn arch8(buses: usize) -> Architecture {
        TemplateBuilder::new(format!("t{buses}"), 8, buses)
            .fu(FuKind::Alu)
            .fu(FuKind::Cmp)
            .fu(FuKind::LdSt)
            .fu(FuKind::Pc)
            .fu(FuKind::Immediate)
            .rf(8, 1, 2)
            .build()
    }

    #[test]
    fn fewer_buses_cost_more() {
        let db = ComponentDb::new();
        let wide = architecture_test_cost(&arch8(4), &db).total;
        let narrow = architecture_test_cost(&arch8(1), &db).total;
        assert!(
            narrow > wide,
            "1-bus cost {narrow} must exceed 4-bus cost {wide}"
        );
    }

    #[test]
    fn excluded_units_not_in_total() {
        let db = ComponentDb::new();
        let cost = architecture_test_cost(&arch8(2), &db);
        let included: f64 = cost
            .components
            .iter()
            .filter(|c| !c.excluded)
            .map(|c| c.our_approach_cycles())
            .sum();
        assert_eq!(cost.total, included);
        assert!(cost.components.iter().any(|c| c.excluded));
    }

    #[test]
    fn ratio_form_matches_figure6_story() {
        // Identical FU, dedicated vs shared buses.
        let dedicated = ftfu_ratio(14, 3, 3, 3);
        let shared = ftfu_ratio(14, 3, 3, 2);
        assert!(shared > dedicated);
        assert_eq!(dedicated, 14.0 * 3.0);
    }

    #[test]
    fn rf_port_parallelism_divides_cost() {
        // 2 write + 2 read ports on a 2-bus machine: march halves.
        let two_ports = ftrf(80, 3, 2, 2, 2);
        let one_port = ftrf(80, 3, 1, 1, 2);
        assert_eq!(two_ports, 80.0 * 3.0 / 2.0);
        assert_eq!(one_port, 80.0 * 3.0);
        // Both port counts above the bus count: serialisation penalty.
        let clogged = ftrf(80, 3, 3, 3, 2);
        assert_eq!(clogged, 80.0 * 3.0 * 1.5);
    }

    #[test]
    fn out_of_model_rf_costs_infinity_not_a_truncated_key() {
        // 70_000 registers overflow the u16 key field; the old `as` cast
        // aliased this to a tiny RF and returned a confident wrong cost.
        let arch = TemplateBuilder::new("wide", 8, 2)
            .fu(FuKind::Alu)
            .fu(FuKind::Pc)
            .rf(70_000, 1, 2)
            .build();
        let db = ComponentDb::new();
        let cost = architecture_test_cost(&arch, &db);
        assert!(cost.total.is_infinite());
        assert!(cost.components.is_empty());
    }

    #[test]
    fn socket_cost_uses_pipeline_chain() {
        let db = ComponentDb::new();
        let cost = architecture_test_cost(&arch8(2), &db);
        let alu = cost
            .components
            .iter()
            .find(|c| c.name.starts_with("alu"))
            .unwrap();
        // 8-bit ALU: O+T+R (24) + opcode (3) + v (1) + sockets (2+4).
        assert_eq!(alu.nl, 24 + 3 + 1 + 6);
        assert!(alu.fts > 0.0);
    }
}
