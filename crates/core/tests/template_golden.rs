//! Golden template points: every point of the fast and paper spaces and
//! a seeded sample of the huge space must keep its name, bus count and
//! every unit's and register file's name, geometry and bus attachments.
//! Point names key the rendered output and instance names and buses key
//! every sweep-cache address, so a faster `TemplateSpace::point` that
//! changed any of them would change output bytes and miss every
//! existing cache.
//!
//! The huge space also *aliases* machines: distinct point indices can
//! build the same machine under different names. That is pinned here
//! too, so a change to it is a deliberate one.

use std::collections::HashSet;

use tta_arch::template::TemplateSpace;
use tta_arch::{Architecture, BusId};
use tta_core::cache::{arch_fingerprint, Fingerprint};

/// One line per space: points pinned and the digest of every point.
const GOLDEN: &str = "
fast 24 b6e93950b1abc8dd
paper 144 003f9e5b4285a46d
huge 2048 ea577e64534d771e
";

/// Folds everything a point is made of into `f`.
fn digest(mut f: Fingerprint, arch: &Architecture) -> Fingerprint {
    f = f
        .str(&arch.name)
        .u64(arch.width as u64)
        .u64(arch.buses as u64);
    f = f.u64(arch.fus.len() as u64);
    for fu in &arch.fus {
        f = f.str(fu.kind.mnemonic()).str(&fu.name);
        f = f.u64(fu.operand_bus.0.into()).u64(fu.trigger_bus.0.into());
        f = f.u64(fu.result_bus.0.into());
    }
    f = f.u64(arch.rfs.len() as u64);
    for rf in &arch.rfs {
        f = f.str(&rf.name).u64(rf.regs as u64);
        f = f
            .u64(rf.write_ports.len() as u64)
            .u64(rf.read_ports.len() as u64);
        for bus in rf.write_ports.iter().chain(&rf.read_ports) {
            f = f.u64(bus.0.into());
        }
    }
    f
}

/// SplitMix64: a fixed, dependency-free sequence for the huge sample.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn line(label: &str, space: &TemplateSpace, indices: &[usize]) -> String {
    let f = indices
        .iter()
        .fold(Fingerprint::new(), |f, &i| digest(f, &space.point(i)));
    format!("{label} {} {:016x}", indices.len(), f.finish())
}

#[test]
fn template_points_are_golden() {
    let fast = TemplateSpace::fast_default();
    let paper = TemplateSpace::paper_default();
    let huge = TemplateSpace::huge();
    let mut state = 0x7e47_1a7e_u64;
    let sample: Vec<usize> = (0..2048)
        .map(|_| (splitmix(&mut state) % huge.len() as u64) as usize)
        .collect();
    // The sample reaches every digit of the hierarchical knobs
    // (clusters, pipes, RF banks: digits 1, 6 and 7).
    for knob in [1, 6, 7] {
        let seen: HashSet<usize> = sample.iter().map(|&i| huge.coords(i)[knob]).collect();
        assert_eq!(seen.len(), huge.knob_radices()[knob], "knob {knob}");
    }
    let actual = [
        line("fast", &fast, &(0..fast.len()).collect::<Vec<_>>()),
        line("paper", &paper, &(0..paper.len()).collect::<Vec<_>>()),
        line("huge", &huge, &sample),
    ]
    .join("\n");
    assert_eq!(
        actual,
        GOLDEN.trim(),
        "template points moved; the actual lines are:\n{actual}"
    );
}

#[test]
fn a_huge_point_is_pinned_in_full() {
    let huge = TemplateSpace::huge();
    // buses, clusters, ALUs, CMPs, MULs, imms, pipes, RF banks, RF set.
    let arch = huge.point(huge.index_of([1, 2, 1, 0, 1, 1, 1, 2, 6]));
    assert_eq!(arch.name, "b2a2c1m1i2r8.2.2x3p2k3");
    assert_eq!(arch.buses, 6);
    let fus: Vec<String> = arch
        .fus
        .iter()
        .map(|f| {
            let (o, t, r) = (f.operand_bus.0, f.trigger_bus.0, f.result_bus.0);
            format!("{} {} {o}/{t}/{r}", f.kind.mnemonic(), f.name)
        })
        .collect();
    let rfs: Vec<String> = arch
        .rfs
        .iter()
        .map(|r| {
            let buses = |ports: &[BusId]| ports.iter().map(|b| b.0).collect::<Vec<_>>();
            let (w, rd) = (buses(&r.write_ports), buses(&r.read_ports));
            format!("{} {} w{w:?} r{rd:?}", r.name, r.regs)
        })
        .collect();
    assert_eq!(
        fus.join(", "),
        "ALU alu0 0/1/2, ALU alu1 3/4/5, ALU alu2 0/1/2, ALU alu3 3/4/5, \
         CMP cmp0 0/1/2, CMP cmp1 3/4/5, MUL mul0 0/1/2, MUL mul1 3/4/5, \
         IMM imm0 0/0/1, IMM imm1 2/2/3, LD/ST ldst0 4/5/0, PC pc0 1/2/3"
    );
    assert_eq!(
        rfs.join(", "),
        "rf1 3 w[4, 5] r[0, 1], rf2 3 w[2, 3] r[4, 5], rf3 3 w[0, 1] r[2, 3]"
    );
}

#[test]
fn the_huge_space_aliases_machines() {
    let huge = TemplateSpace::huge();
    // Knob digits: buses, clusters, ALUs, CMPs, MULs, imms, pipes, RF
    // banks, RF sets. 8 and 4 registers over 4 banks both clamp to 2 per
    // bank (RF sets 7 and 3 are (8, 2, 3) and (4, 2, 3)); 2 pipes of one
    // ALU and one CMP are 2 ALUs and 2 CMPs; 2 clusters of 1 bus are 2
    // buses.
    let aliases = [
        ([0, 0, 0, 0, 0, 0, 0, 3, 7], [0, 0, 0, 0, 0, 0, 0, 3, 3]),
        ([0, 0, 1, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0, 0]),
        ([1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0, 0]),
    ];
    let names: Vec<[String; 2]> = aliases
        .iter()
        .map(|&(a, b)| {
            let (a, b) = (huge.point(huge.index_of(a)), huge.point(huge.index_of(b)));
            assert_eq!(arch_fingerprint(&a), arch_fingerprint(&b), "{}", a.name);
            [a.name, b.name]
        })
        .collect();
    assert_eq!(
        names,
        [
            ["b1a1c1m0i1r8.2.3k4", "b1a1c1m0i1r4.2.3k4"],
            ["b1a2c2m0i1r4.1.1", "b1a1c1m0i1r4.1.1p2"],
            ["b2a1c1m0i1r4.1.1", "b1a1c1m0i1r4.1.1x2"],
        ]
        .map(|pair| pair.map(String::from))
    );
    // The 16,384-point neighbour walk builds 14,400 distinct machines.
    let distinct: HashSet<u64> = huge
        .neighbour_order()
        .take(1 << 14)
        .map(|i| arch_fingerprint(&huge.point(i)))
        .collect();
    assert_eq!(distinct.len(), 14_400);
}
