//! Golden cost figures: for every point of the tiny, fast and paper
//! spaces and a seeded sample of the huge space, the table-tier area,
//! clock period, eq. (14) test cost (total and every per-component
//! field), the scan test totals at one and three chains and the
//! component keys must keep their exact bits; so must the Table 1 rows
//! of the Figure 9 machine and of the fast-scale selection. Every sweep
//! cache entry and every rendered figure is made of these numbers, so a
//! refactor of the cost models that moved one bit would change output
//! bytes and serve stale cache entries; this table makes that visible.

use std::collections::HashSet;

use tta_arch::template::TemplateSpace;
use tta_arch::Architecture;
use tta_bench::{table1, table1_for, Experiments, Scale, Table1};
use tta_core::cache::Fingerprint;
use tta_core::models::{
    keys_of, AnnotatedAreaModel, AnnotatedTimingModel, AreaModel, Eq14TestCostModel,
    ScanTestCostModel, TestCostModel, TimingModel,
};
use tta_core::ComponentDb;

/// One line per point set (points pinned, digest) and one per Table 1
/// (machine, rows pinned, digest).
const GOLDEN: &str = "
tiny 2 debab0f250286249
fast 24 909e4eba6355f782
paper 144 6d59298bdc5c6c00
huge 512 a35421335e3782ed
table1 figure9 7 14d0aeb1874e70bc
table1 b3a1c1m0i1r4.1.1 6 ed24e390665dfe69
";

/// Folds every cost figure of `arch` into `f`.
fn digest(mut f: Fingerprint, arch: &Architecture, db: &ComponentDb) -> Fingerprint {
    f = f
        .f64(AnnotatedAreaModel::default().area(arch, db))
        .f64(AnnotatedTimingModel::default().clock_period(arch, db));
    let eq14 = Eq14TestCostModel.test_cost(arch, db);
    f = f.f64(eq14.total).u64(eq14.components.len() as u64);
    for c in &eq14.components {
        f = f
            .str(&c.name)
            .u64(c.np as u64)
            .u64(c.cd.into())
            .f64(c.functional_cost)
            .u64(c.socket_np as u64)
            .u64(c.nl as u64)
            .f64(c.fts)
            .f64(c.fault_coverage)
            .u64(c.excluded.into());
    }
    for chains in [1, 3] {
        f = f.f64(
            ScanTestCostModel::with_chains(chains)
                .test_cost(arch, db)
                .total,
        );
    }
    let keys = keys_of(arch).expect("template points are in the model's domain");
    f = f.u64(keys.len() as u64);
    for key in keys {
        f = f.str(&format!("{key:?}"));
    }
    f
}

fn line(label: &str, archs: &[Architecture], db: &ComponentDb) -> String {
    let f = archs
        .iter()
        .fold(Fingerprint::new(), |f, arch| digest(f, arch, db));
    format!("{label} {} {:016x}", archs.len(), f.finish())
}

fn table_line(table: &Table1) -> String {
    let mut f = Fingerprint::new();
    for r in &table.rows {
        f = f
            .str(&r.component)
            .u64(r.full_scan as u64)
            .f64(r.ours)
            .u64(r.nl as u64)
            .f64(r.ftfu.unwrap_or(f64::NAN))
            .f64(r.ftrf.unwrap_or(f64::NAN))
            .f64(r.fts)
            .f64(r.coverage)
            .u64(r.excluded.into());
    }
    format!(
        "table1 {} {} {:016x}",
        table.architecture.name,
        table.rows.len(),
        f.finish()
    )
}

/// SplitMix64: a fixed, dependency-free sequence for the huge sample.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn cost_figures_are_golden() {
    let db = ComponentDb::new();
    let huge = TemplateSpace::huge();
    let mut state = 0xc057_901d_u64;
    let sample: Vec<usize> = (0..512)
        .map(|_| (splitmix(&mut state) % huge.len() as u64) as usize)
        .collect();
    // The sample reaches every RF-bank count and every RF set (digits 7
    // and 8): the only knobs that change register-file keys.
    for knob in [7, 8] {
        let seen: HashSet<usize> = sample.iter().map(|&i| huge.coords(i)[knob]).collect();
        assert_eq!(seen.len(), huge.knob_radices()[knob], "knob {knob}");
    }
    let huge_points: Vec<Architecture> = sample.iter().map(|&i| huge.point(i)).collect();
    let mut exp = Experiments::new(Scale::Fast);
    let actual = [
        line("tiny", &TemplateSpace::tiny().enumerate(), &db),
        line("fast", &TemplateSpace::fast_default().enumerate(), &db),
        line("paper", &TemplateSpace::paper_default().enumerate(), &db),
        line("huge", &huge_points, &db),
        table_line(&table1_for(&mut exp, Architecture::figure9())),
        table_line(&table1(&mut exp)),
    ]
    .join("\n");
    assert_eq!(
        actual,
        GOLDEN.trim(),
        "cost figures moved; the actual lines are:\n{actual}"
    );
}
