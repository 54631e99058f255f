//! Golden netlists: every component generator the annotation database
//! calls, and every elaborated point the `--fidelity netlist` path
//! builds, must keep its structure bit for bit. The first table pins
//! `ComponentKey::generate` for each key the fast, paper and huge spaces
//! and Table 1 read (the same set `annotation_golden.rs` walks); the
//! second pins the elaborated netlist of every fast point, a seeded paper
//! sample and a Gray-order prefix of the huge space, all fed through one
//! `IncrementalElaborator` so its component cache serves 8- and 16-bit
//! points alike. A refactor of the key → generator mapping, the
//! elaborator's cache key or the socket-id width would change these
//! lines.

use std::collections::BTreeSet;

use tta_arch::template::TemplateSpace;
use tta_arch::Architecture;
use tta_core::cache::Fingerprint;
use tta_core::models::keys_of;
use tta_core::ComponentKey;
use tta_netlist::{timing, to_verilog, IncrementalElaborator, Netlist};

/// One line per key, in key order: `key gates ffs area ports`, with the
/// area as its bit pattern and `ports` a hash of the primary input and
/// output names in declaration order.
const COMPONENTS: &str = "
Alu(8) 189 28 407f500000000000 2cb3fb2bc8b1fbea
Alu(16) 389 52 408fa80000000000 82cf8c3097492a10
Cmp(8) 79 21 406c080000000000 53f5c65724b3a713
Cmp(16) 143 37 4078c40000000000 0405d09784391529
Mul(8) 179 25 407ae40000000000 a59b14146bdec156
Mul(16) 739 49 4097510000000000 958adb6d4ba53ff4
Rf(8, 2, 1, 1) 45 36 4070380000000000 eca5d8757e674961
Rf(8, 2, 1, 2) 62 46 40756c0000000000 c4a1535c07f3e8b0
Rf(8, 2, 2, 2) 90 56 407bf00000000000 4dfd65db28edfffd
Rf(8, 2, 2, 3) 107 66 4080920000000000 bdd635328f6b751e
Rf(8, 3, 1, 1) 76 46 4077080000000000 0846c32e17d11bc8
Rf(8, 3, 1, 2) 110 57 407ee80000000000 9b4696904f702510
Rf(8, 3, 2, 2) 152 68 4083a80000000000 4e34bed689954a25
Rf(8, 3, 2, 3) 186 79 4087980000000000 d25d325b3626b71e
Rf(8, 4, 1, 1) 86 54 407a900000000000 0846c32e17d11bc8
Rf(8, 4, 1, 2) 120 65 4081380000000000 9b4696904f702510
Rf(8, 4, 2, 2) 172 76 4086100000000000 4e34bed689954a25
Rf(8, 4, 2, 3) 206 87 408a000000000000 d25d325b3626b71e
Rf(8, 6, 1, 1) 147 72 4083bc0000000000 da54301435a97165
Rf(8, 6, 1, 2) 214 84 408a220000000000 78ad031ff997f545
Rf(8, 6, 2, 2) 294 96 40905c0000000000 7a5aa0e3bb1d1775
Rf(8, 6, 2, 3) 361 108 40938f0000000000 cfc39c86b06b012d
Rf(8, 8, 1, 1) 169 88 4087580000000000 da54301435a97165
Rf(8, 8, 1, 2) 236 100 408dbe0000000000 78ad031ff997f545
Rf(8, 8, 2, 2) 338 112 4092d80000000000 7a5aa0e3bb1d1775
Rf(8, 8, 2, 3) 405 124 40960b0000000000 cfc39c86b06b012d
Rf(8, 11, 1, 1) 280 114 4091100000000000 0f8d24a9346531ea
Rf(8, 11, 1, 2) 412 127 40969e0000000000 0e7f4f0d97896077
Rf(8, 11, 2, 2) 560 140 409bf00000000000 ad37f5def8b34389
Rf(8, 11, 2, 3) 692 153 40a0bf0000000000 cba6ffc1e9c51921
Rf(8, 16, 1, 1) 340 154 4095ac0000000000 0f8d24a9346531ea
Rf(8, 16, 1, 2) 472 167 409b3a0000000000 0e7f4f0d97896077
Rf(8, 16, 2, 2) 680 180 40a12c0000000000 ad37f5def8b34389
Rf(8, 16, 2, 3) 812 193 40a3f30000000000 cba6ffc1e9c51921
Rf(8, 32, 1, 1) 695 284 40a4e20000000000 b43556afe44122bd
Rf(8, 32, 1, 2) 956 298 40a9f68000000000 770f07ad0cb1c534
Rf(8, 32, 2, 2) 1390 312 40b0620000000000 eab565d822079c1d
Rf(8, 32, 2, 3) 1651 326 40b2ec4000000000 27e7e17e8cc99736
Rf(16, 8, 1, 2) 436 188 409c170000000000 99aa4d9d0c652363
Rf(16, 12, 1, 2) 784 255 40a6510000000000 bb6efed7b27516fd
Rf(16, 16, 2, 2) 1208 340 40b00a0000000000 51b87d920f153d6d
LdSt(8) 30 27 4066d00000000000 55ca84973450fae5
LdSt(16) 54 51 4075880000000000 f4d2b6943c457ce5
Pc(8) 41 18 4064e80000000000 5a65e61ae355e502
Pc(16) 81 34 4074340000000000 38355df2e4486b4c
Imm(8) 8 8 404b000000000000 82d6f1d740168bad
Imm(16) 16 16 405b000000000000 a00e23bb6249911d
SocketGroup(8, 1) 35 5 404ea00000000000 2764f05ddc586fa2
SocketGroup(8, 2) 53 6 4055300000000000 0e5af8d258237430
SocketGroup(16, 1) 51 5 4054500000000000 9271608b2a2298ca
SocketGroup(16, 2) 77 6 405cb00000000000 4124ebba4248b18e
";

/// One line per point set: `label points digest`, the digest folding
/// each point's Verilog text, gate count, area and minimum clock period.
const ELABORATED: &str = "
fast 24 847ab8b0cf611b64
paper 12 2e5224668e617a8d
huge 64 23e65a8182224aad
";

/// Every key the given architectures read.
fn keys_of_all(archs: impl IntoIterator<Item = Architecture>, keys: &mut BTreeSet<ComponentKey>) {
    for arch in archs {
        keys.extend(keys_of(&arch).expect("template points are in the model's domain"));
    }
}

/// The keys of the fast, paper and huge spaces plus Table 1's figure-9
/// machine; the huge space is covered by one point per (MUL present?,
/// RF banks, RF set) combination, as in `annotation_golden.rs`.
fn touched_keys() -> BTreeSet<ComponentKey> {
    let mut keys = BTreeSet::new();
    keys_of_all(TemplateSpace::fast_default().points(), &mut keys);
    keys_of_all(TemplateSpace::paper_default().points(), &mut keys);
    let covering = TemplateSpace {
        buses: vec![1],
        clusters: vec![1],
        alus: vec![1],
        cmps: vec![1],
        muls: vec![0, 1],
        imms: vec![1],
        pipes: vec![1],
        ..TemplateSpace::huge()
    };
    keys_of_all(covering.points(), &mut keys);
    keys_of_all([Architecture::figure9()], &mut keys);
    keys
}

/// Hash of a netlist's port names, inputs then outputs.
fn ports(nl: &Netlist) -> u64 {
    let mut f = Fingerprint::new().u64(nl.primary_inputs().len() as u64);
    for &id in nl.primary_inputs() {
        f = f.str(nl.net(id).name().unwrap_or(""));
    }
    f = f.u64(nl.primary_outputs().len() as u64);
    for (name, _) in nl.primary_outputs() {
        f = f.str(name);
    }
    f.finish()
}

fn component_line(key: ComponentKey) -> String {
    let nl = key.generate().netlist;
    format!(
        "{key:?} {} {} {:016x} {:016x}",
        nl.gate_count(),
        nl.dff_count(),
        nl.area().to_bits(),
        ports(&nl)
    )
}

/// SplitMix64: a fixed, dependency-free sequence for the paper sample.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn elaborated_line(
    label: &str,
    archs: &[Architecture],
    elab: &mut IncrementalElaborator,
) -> String {
    let f = archs.iter().fold(Fingerprint::new(), |f, arch| {
        let nl = elab
            .advance(arch)
            .unwrap_or_else(|e| panic!("{}: {e}", arch.name));
        f.str(&to_verilog(&nl))
            .u64(nl.gate_count() as u64)
            .f64(nl.area())
            .f64(timing::min_clock_period(&nl))
    });
    format!("{label} {} {:016x}", archs.len(), f.finish())
}

#[test]
fn every_touched_component_keeps_its_golden_netlist() {
    let actual: Vec<String> = touched_keys().into_iter().map(component_line).collect();
    let actual = actual.join("\n");
    assert_eq!(
        actual,
        COMPONENTS.trim(),
        "component netlists moved; the actual lines are:\n{actual}"
    );
}

#[test]
fn elaborated_points_keep_their_golden_netlists() {
    let paper = TemplateSpace::paper_default();
    let mut state = 0x6e37_115d_u64;
    let paper_sample: Vec<Architecture> = (0..12)
        .map(|_| paper.point((splitmix(&mut state) % paper.len() as u64) as usize))
        .collect();
    let huge = TemplateSpace::huge();
    let huge_prefix: Vec<Architecture> = huge
        .neighbour_order()
        .take(64)
        .map(|i| huge.point(i))
        .collect();
    // One elaborator throughout: its component cache must tell the 8-bit
    // fast units from the 16-bit paper ones, and the huge prefix walks
    // every register-file geometry of its last knob.
    let mut elab = IncrementalElaborator::new();
    let actual = [
        elaborated_line(
            "fast",
            &TemplateSpace::fast_default().enumerate(),
            &mut elab,
        ),
        elaborated_line("paper", &paper_sample, &mut elab),
        elaborated_line("huge", &huge_prefix, &mut elab),
    ]
    .join("\n");
    assert_eq!(
        actual,
        ELABORATED.trim(),
        "elaborated netlists moved; the actual lines are:\n{actual}"
    );
}
