//! Golden back-annotation records: every component the fast, paper and
//! huge spaces and Table 1 read, annotated with the sweep-profile ATPG
//! and March C−, must keep its pattern count, fault verdicts, coverage,
//! area, critical path and final test set bit for bit. The sweep cache
//! addresses records by the engines' fingerprint alone, so an ATPG
//! speed-up that changed any of these would serve stale records from
//! every existing cache; this table is what makes such a change visible.

use std::collections::BTreeSet;

use tta_arch::template::TemplateSpace;
use tta_arch::Architecture;
use tta_atpg::Atpg;
use tta_atpg::AtpgConfig;
use tta_core::cache::Fingerprint;
use tta_core::models::keys_of;
use tta_core::{ComponentDb, ComponentKey};

/// `ComponentDb::new().fingerprint()`: every cache address depends on it.
const DB_FINGERPRINT: u64 = 0xd0e5_5251_780a_aeaf;

/// One line per key, in key order:
/// `key np d/u/a fc afc area cp tests` for ATPG-annotated components
/// (f64 fields as bit patterns, `tests` a hash of the final test set),
/// `key np fc afc area cp` for march-annotated register files.
const GOLDEN: &str = "
Alu(8) 59 1047/8/3 3fefaad3f65244b8 3fefe898231bcb56 407f500000000000 403d99999999999a d14f82f595ef6e49
Alu(16) 75 2191/16/3 3fefb9922fb99230 3feff4cc6d36d729 408fa80000000000 404799999999999c 475898f1c4ea375c
Cmp(8) 39 370/4/0 3fefa862911cbfa8 3ff0000000000000 406c080000000000 403ccccccccccccb 9052305bdedffd2c
Cmp(16) 65 641/5/0 3fefc0982c624755 3ff0000000000000 4078c40000000000 4047333333333335 cc16b7f6949466ab
Mul(8) 22 805/18/3 3fef2fba9386822b 3fefe1958b67ebb9 407ae40000000000 4045733333333334 fce6911367baae97
Mul(16) 45 3117/34/11 3fef8b6a62200f8b 3fefe3311ad80fb7 4097510000000000 4056533333333333 038cf429ad007549
Rf(8, 2, 1, 1) 20 3ff0000000000000 3ff0000000000000 4070380000000000 401399999999999a
Rf(8, 2, 1, 2) 20 3ff0000000000000 3ff0000000000000 40756c0000000000 401399999999999a
Rf(8, 2, 2, 2) 20 3ff0000000000000 3ff0000000000000 407bf00000000000 4019333333333334
Rf(8, 2, 2, 3) 20 3ff0000000000000 3ff0000000000000 4080920000000000 4019333333333334
Rf(8, 3, 1, 1) 30 3ff0000000000000 3ff0000000000000 4077080000000000 4018cccccccccccc
Rf(8, 3, 1, 2) 30 3ff0000000000000 3ff0000000000000 407ee80000000000 4018cccccccccccc
Rf(8, 3, 2, 2) 30 3ff0000000000000 3ff0000000000000 4083a80000000000 401d99999999999a
Rf(8, 3, 2, 3) 30 3ff0000000000000 3ff0000000000000 4087980000000000 401d99999999999a
Rf(8, 4, 1, 1) 40 3ff0000000000000 3ff0000000000000 407a900000000000 4018cccccccccccc
Rf(8, 4, 1, 2) 40 3ff0000000000000 3ff0000000000000 4081380000000000 4018cccccccccccc
Rf(8, 4, 2, 2) 40 3ff0000000000000 3ff0000000000000 4086100000000000 401d99999999999a
Rf(8, 4, 2, 3) 40 3ff0000000000000 3ff0000000000000 408a000000000000 401d99999999999a
Rf(8, 6, 1, 1) 60 3ff0000000000000 3ff0000000000000 4083bc0000000000 401e666666666666
Rf(8, 6, 1, 2) 60 3ff0000000000000 3ff0000000000000 408a220000000000 401e666666666666
Rf(8, 6, 2, 2) 60 3ff0000000000000 3ff0000000000000 40905c0000000000 4021000000000000
Rf(8, 6, 2, 3) 60 3ff0000000000000 3ff0000000000000 40938f0000000000 4021000000000000
Rf(8, 8, 1, 1) 80 3ff0000000000000 3ff0000000000000 4087580000000000 401e666666666666
Rf(8, 8, 1, 2) 80 3ff0000000000000 3ff0000000000000 408dbe0000000000 401e666666666666
Rf(8, 8, 2, 2) 80 3ff0000000000000 3ff0000000000000 4092d80000000000 4021000000000000
Rf(8, 8, 2, 3) 80 3ff0000000000000 3ff0000000000000 40960b0000000000 4021000000000000
Rf(8, 11, 1, 1) 110 3ff0000000000000 3ff0000000000000 4091100000000000 4022000000000000
Rf(8, 11, 1, 2) 110 3ff0000000000000 3ff0000000000000 40969e0000000000 4022000000000000
Rf(8, 11, 2, 2) 110 3ff0000000000000 3ff0000000000000 409bf00000000000 4022000000000000
Rf(8, 11, 2, 3) 110 3ff0000000000000 3ff0000000000000 40a0bf0000000000 4022000000000000
Rf(8, 16, 1, 1) 160 3ff0000000000000 3ff0000000000000 4095ac0000000000 4022000000000000
Rf(8, 16, 1, 2) 160 3ff0000000000000 3ff0000000000000 409b3a0000000000 4022000000000000
Rf(8, 16, 2, 2) 160 3ff0000000000000 3ff0000000000000 40a12c0000000000 4022000000000000
Rf(8, 16, 2, 3) 160 3ff0000000000000 3ff0000000000000 40a3f30000000000 4022000000000000
Rf(8, 32, 1, 1) 320 3ff0000000000000 3ff0000000000000 40a4e20000000000 4024cccccccccccd
Rf(8, 32, 1, 2) 320 3ff0000000000000 3ff0000000000000 40a9f68000000000 4024cccccccccccd
Rf(8, 32, 2, 2) 320 3ff0000000000000 3ff0000000000000 40b0620000000000 4024cccccccccccd
Rf(8, 32, 2, 3) 320 3ff0000000000000 3ff0000000000000 40b2ec4000000000 4024cccccccccccd
Rf(16, 8, 1, 2) 80 3ff0000000000000 3ff0000000000000 409c170000000000 401e666666666666
Rf(16, 12, 1, 2) 120 3ff0000000000000 3ff0000000000000 40a6510000000000 4022000000000000
Rf(16, 16, 2, 2) 160 3ff0000000000000 3ff0000000000000 40b00a0000000000 4022000000000000
LdSt(8) 11 270/0/0 3ff0000000000000 3ff0000000000000 4066d00000000000 401399999999999a f2adf104bffd5805
LdSt(16) 13 510/0/0 3ff0000000000000 3ff0000000000000 4075880000000000 401399999999999a cfe879000b45fed8
Pc(8) 19 285/3/0 3fefaaaaaaaaaaab 3ff0000000000000 4064e80000000000 402c99999999999a eec1ca93e89c7b3e
Pc(16) 27 557/3/0 3fefd41d41d41d42 3ff0000000000000 4074340000000000 4037199999999999 20bed1e5c88412ab
Imm(8) 8 82/0/0 3ff0000000000000 3ff0000000000000 404b000000000000 400b333333333333 99a4bcd7c5ca42b0
Imm(16) 11 162/0/0 3ff0000000000000 3ff0000000000000 405b000000000000 400b333333333333 794b359c8b23f728
SocketGroup(8, 1) 11 108/2/0 3fef6b0df6b0df6b 3ff0000000000000 404ea00000000000 4016ccccccccccce 565d7fad0472683f
SocketGroup(8, 2) 15 183/1/0 3fefd37a6f4de9bd 3ff0000000000000 4055300000000000 4016ccccccccccce 0541a2a3b5101b17
SocketGroup(16, 1) 12 172/2/0 3fefa1d6cdfa1d6d 3ff0000000000000 4054500000000000 4016ccccccccccce 75b78c4f581918d8
SocketGroup(16, 2) 17 295/1/0 3fefe45306eb3e45 3ff0000000000000 405cb00000000000 4016ccccccccccce 3e966a1d07ad3f15
";

/// Every key the given architectures read.
fn keys_of_all(archs: impl IntoIterator<Item = Architecture>, keys: &mut BTreeSet<ComponentKey>) {
    for arch in archs {
        keys.extend(keys_of(&arch).expect("template points are in the model's domain"));
    }
}

/// The keys of the fast, paper and huge spaces plus Table 1's figure-9
/// machine. A template point's keys depend only on its width, which
/// unit kinds it has at all, and its register-file geometries after
/// banking; bus, cluster and replica counts never reach a key. So the
/// huge space is covered by one point per (MUL present?, RF banks, RF
/// set) combination instead of its 2^20 points.
fn touched_keys() -> BTreeSet<ComponentKey> {
    let mut keys = BTreeSet::new();
    keys_of_all(TemplateSpace::fast_default().points(), &mut keys);
    keys_of_all(TemplateSpace::paper_default().points(), &mut keys);
    let huge = TemplateSpace::huge();
    let covering = TemplateSpace {
        buses: vec![1],
        clusters: vec![1],
        alus: vec![1],
        cmps: vec![1],
        muls: vec![0, 1],
        imms: vec![1],
        pipes: vec![1],
        ..huge
    };
    keys_of_all(covering.points(), &mut keys);
    keys_of_all([Architecture::figure9()], &mut keys);
    keys
}

fn golden_line(db: &ComponentDb, key: ComponentKey) -> String {
    let record = db.get(key);
    let common = format!(
        "{:016x} {:016x} {:016x} {:016x}",
        record.fault_coverage.to_bits(),
        record.adjusted_coverage.to_bits(),
        record.area.to_bits(),
        record.critical_path.to_bits()
    );
    if matches!(key, ComponentKey::Rf(..)) {
        return format!("{key:?} {} {common}", record.np);
    }
    let result = Atpg::new(AtpgConfig::sweep()).run(&key.generate().netlist);
    assert_eq!(result.pattern_count(), record.np, "{key:?}: database np");
    let (d, u, a) = result.status_counts();
    let mut tests = Fingerprint::new().u64(result.test_set.len() as u64);
    for pattern in result.test_set.patterns() {
        let bytes: Vec<u8> = pattern.bits().iter().map(|&b| u8::from(b)).collect();
        tests = tests.u64(bytes.len() as u64).bytes(&bytes);
    }
    format!(
        "{key:?} {} {d}/{u}/{a} {common} {:016x}",
        record.np,
        tests.finish()
    )
}

#[test]
fn every_touched_component_keeps_its_golden_record() {
    let db = ComponentDb::new();
    let actual: Vec<String> = touched_keys()
        .into_iter()
        .map(|key| golden_line(&db, key))
        .collect();
    let actual = actual.join("\n");
    assert_eq!(
        actual,
        GOLDEN.trim(),
        "back-annotation records moved; the actual table is:\n{actual}"
    );
}

#[test]
fn database_fingerprint_is_pinned() {
    assert_eq!(
        ComponentDb::new().fingerprint(),
        DB_FINGERPRINT,
        "actual {:#018x}",
        ComponentDb::new().fingerprint()
    );
}
