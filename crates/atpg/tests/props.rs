//! Property-based tests of the test-generation stack on *random*
//! combinational circuits: PODEM's verdicts are always confirmed by
//! independent fault simulation, fault simulation itself agrees with
//! brute-force faulty-circuit resimulation, and PODEM's incrementally
//! kept implication state always equals a fresh full implication.

use proptest::prelude::*;
use tta_atpg::fault::{Fault, FaultSite, FaultUniverse};
use tta_atpg::pattern::{Pattern, PatternBatch};
use tta_atpg::podem::{Podem, PodemOutcome};
use tta_atpg::v5::V3;
use tta_atpg::{CombView, FaultSimulator};
use tta_netlist::{components, sim, GateKind, NetId, Netlist, NetlistBuilder};

/// Deterministically builds a random DAG circuit from a seed.
fn random_circuit(seed: u64, n_inputs: usize, n_gates: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("rand{seed}"));
    let mut lcg = seed | 1;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) as usize
    };
    let mut nets: Vec<NetId> = (0..n_inputs).map(|i| b.input(format!("i{i}"))).collect();
    let kinds = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Mux2,
    ];
    for _ in 0..n_gates {
        let kind = kinds[next() % kinds.len()];
        let pick = |next: &mut dyn FnMut() -> usize, nets: &[NetId]| nets[next() % nets.len()];
        let out = match kind.arity() {
            1 => {
                let a = pick(&mut next, &nets);
                b.gate(kind, &[a])
            }
            2 => {
                let a = pick(&mut next, &nets);
                let c = pick(&mut next, &nets);
                b.gate(kind, &[a, c])
            }
            _ => {
                let s = pick(&mut next, &nets);
                let a = pick(&mut next, &nets);
                let c = pick(&mut next, &nets);
                b.gate(kind, &[s, a, c])
            }
        };
        nets.push(out);
    }
    // Observe the last few nets so deep logic stays visible.
    for (k, net) in nets.iter().rev().take(4).enumerate() {
        b.output(format!("o{k}"), *net);
    }
    b.finish()
}

/// Brute force: the whole circuit re-simulated with `fault` forced, all
/// 64 slots of `words` at once. Returns the slots in which some observe
/// point differs from the fault-free circuit.
fn brute_force_mask(nl: &Netlist, fault: Fault, words: &[u64]) -> u64 {
    let view = CombView::full_scan(nl);
    let (pi, state) = view.split_assignment(words);
    let good = sim::eval(nl, pi, state);
    let forced = if fault.stuck { u64::MAX } else { 0 };
    let mut faulty = good.clone();
    if let FaultSite::Net(fnet) = fault.site {
        faulty[fnet.index()] = forced;
    }
    let mut ins = [0u64; 3];
    for &gid in nl.topo_order() {
        let g = nl.gate(gid);
        for (k, inp) in g.inputs().iter().enumerate() {
            ins[k] = faulty[inp.index()];
        }
        // A stuck pin corrupts only its own gate's view of the net.
        if let FaultSite::GatePin(fg, pin) = fault.site {
            if fg == gid {
                ins[pin as usize] = forced;
            }
        }
        let out = g.kind().eval(&ins[..g.inputs().len()]);
        if fault.site != FaultSite::Net(g.output()) {
            faulty[g.output().index()] = out;
        }
    }
    view.observes()
        .iter()
        .fold(0, |mask, o| mask | (good[o.index()] ^ faulty[o.index()]))
}

/// `count` seeded pseudo-random patterns over `n` inputs.
fn seeded_patterns(seed: u64, n: usize, count: usize) -> Vec<Pattern> {
    let mut lcg = seed | 1;
    (0..count)
        .map(|_| {
            Pattern::new(
                (0..n)
                    .map(|_| {
                        lcg = lcg
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        lcg >> 63 == 1
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Runs PODEM on every `stride`-th fault of `nl` and checks, after every
/// implication, that the incrementally kept values and D-frontier equal
/// a fresh full `imply` of the same assignment. Returns the first
/// mismatch, described.
fn incremental_mismatch(nl: &Netlist, stride: usize, limit: u32) -> Option<String> {
    let view = CombView::full_scan(nl);
    let universe = FaultUniverse::enumerate(nl);
    let mut podem = Podem::new(nl, &view, limit);
    let mut reference = Podem::new(nl, &view, limit);
    let mut mismatch = None;
    let mut checked = 0usize;
    for fault in universe.faults().iter().step_by(stride) {
        podem.generate_observed(*fault, |assignment, values, frontier| {
            checked += 1;
            if mismatch.is_some() {
                return;
            }
            if reference.imply(assignment, *fault) != values {
                mismatch = Some(format!("{fault}: values differ after step {checked}"));
            } else if reference.frontier() != frontier {
                mismatch = Some(format!("{fault}: frontier differs after step {checked}"));
            }
        });
    }
    assert!(checked > 0, "no implication was observed");
    mismatch
}

#[test]
fn incremental_podem_state_matches_fresh_implication_on_components() {
    for component in [components::alu(8), components::cmp(8), components::mul(8)] {
        let name = component.netlist.name().to_string();
        if let Some(m) = incremental_mismatch(&component.netlist, 3, 128) {
            panic!("{name}: {m}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fault_sim_agrees_with_brute_force(seed in 0u64..10_000, pat_seed in 0u64..1000) {
        let nl = random_circuit(seed, 5, 20);
        let universe = FaultUniverse::enumerate(&nl);
        let mut fs = FaultSimulator::new(nl.clone());
        let n = fs.view().inputs().len();
        // A full batch, then a partial one whose idle slots must stay
        // clear. Stem and pin faults alike, sharing one batch's memo.
        for count in [64, 1 + (pat_seed % 64) as usize] {
            let patterns = seeded_patterns(pat_seed, n, count);
            let refs: Vec<&Pattern> = patterns.iter().collect();
            let batch = PatternBatch::pack(fs.view(), &refs);
            let mut good = fs.good_values(&batch);
            for fault in universe.faults() {
                let fast = fs.detect_mask(&mut good, *fault);
                let brute = brute_force_mask(&nl, *fault, &batch.words) & batch.active_mask;
                prop_assert_eq!(fast, brute, "fault {} seed {} count {}", fault, seed, count);
            }
        }
    }

    #[test]
    fn incremental_podem_state_matches_fresh_implication(seed in 0u64..10_000) {
        let nl = random_circuit(seed, 6, 24);
        let mismatch = incremental_mismatch(&nl, 1, 2_000);
        prop_assert!(mismatch.is_none(), "seed {}: {:?}", seed, mismatch);
    }

    #[test]
    fn podem_tests_always_confirmed_by_fault_sim(seed in 0u64..10_000) {
        let nl = random_circuit(seed, 5, 16);
        let view = CombView::full_scan(&nl);
        let universe = FaultUniverse::enumerate(&nl);
        let mut podem = Podem::new(&nl, &view, 2_000);
        let mut fs = FaultSimulator::new(nl.clone());
        for fault in universe.faults().iter().take(30) {
            match podem.generate(*fault) {
                PodemOutcome::Test(cube) => {
                    let bits: Vec<bool> = cube.iter().map(|v| *v == V3::One).collect();
                    let p = Pattern::new(bits);
                    let batch = PatternBatch::pack(fs.view(), &[&p]);
                    let mut good = fs.good_values(&batch);
                    prop_assert!(
                        fs.detect_mask(&mut good, *fault) & 1 == 1,
                        "PODEM cube fails for {} on seed {}", fault, seed
                    );
                }
                PodemOutcome::Untestable | PodemOutcome::Aborted => {}
            }
        }
    }

    #[test]
    fn untestable_verdicts_survive_random_patterns(seed in 0u64..5_000) {
        // If PODEM proves a fault redundant, no random pattern may detect
        // it.
        let nl = random_circuit(seed, 4, 12);
        let view = CombView::full_scan(&nl);
        let universe = FaultUniverse::enumerate(&nl);
        let mut podem = Podem::new(&nl, &view, 50_000);
        let mut fs = FaultSimulator::new(nl.clone());
        let n = view.inputs().len();
        // 64 deterministic pseudo-random patterns.
        let patterns: Vec<Pattern> = (0..64u64)
            .map(|k| {
                Pattern::new(
                    (0..n)
                        .map(|i| (seed ^ (k * 0x9E3779B9)) >> (i % 53) & 1 == 1)
                        .collect(),
                )
            })
            .collect();
        let refs: Vec<&Pattern> = patterns.iter().collect();
        let batch = PatternBatch::pack(&view, &refs);
        let mut good = fs.good_values(&batch);
        for fault in universe.faults().iter().take(20) {
            if podem.generate(*fault) == PodemOutcome::Untestable {
                prop_assert_eq!(
                    fs.detect_mask(&mut good, *fault), 0,
                    "redundant fault {} detected!", fault
                );
            }
        }
    }
}
