//! Golden schedules: every point of the tiny, fast and paper spaces and
//! a seeded sample of the huge space, scheduled for every standard
//! workload, must keep its full [`Schedule`] bit for bit — the cycle
//! count the sweep folds, and also the moves, operation bindings and
//! per-FU transports that `--cycles simulate` and `ttadse sim` lower
//! into an executable program. A scheduler speed-up that changed any
//! of them, or any error verdict, moves a digest here.

use tta_arch::template::TemplateSpace;
use tta_arch::FuKind;
use tta_core::cache::Fingerprint;
use tta_movec::schedule::Endpoint;
use tta_movec::{Schedule, ScheduleError, Scheduler};
use tta_workloads::{SuiteParams, SuiteRegistry};

/// One line per `(space, workload)`: points scheduled, points that
/// scheduled, and the digest of every outcome in point order.
const GOLDEN: &str = "
tiny crypt 2 2 dd67f19ba9fd47ab
tiny fir16 2 0 e9632c54d29891d5
tiny bitcount 2 2 6c75519eda86e098
tiny checksum32 2 2 8696aa37a2e2d160
tiny dct8 2 0 e9632c54d29891d5
tiny gcd12 2 2 7739de8d749d4059
tiny fft 2 0 e9632c54d29891d5
tiny viterbi 2 2 f3ae424df2741f99
fast crypt 24 24 1938082b365e19e1
fast fir16 24 12 86af8c52274434f9
fast bitcount 24 24 a9d2751be6aef379
fast checksum32 24 24 9e69ab4078b88c25
fast dct8 24 12 540551a3f2fc759a
fast gcd12 24 24 dc97168c4883ccc5
fast fft 24 12 755681c7d0626c13
fast viterbi 24 24 1eb818e37271b309
paper crypt 144 144 bdb9d04a7889cec9
paper fir16 144 72 45a42ee14004cdd7
paper bitcount 144 144 d77ffa047c20fbe9
paper checksum32 144 144 995ea59b4c3136c9
paper dct8 144 72 7ea8c372164469a9
paper gcd12 144 144 de8ac921973ef3a9
paper fft 144 72 9e3a15db85133275
paper viterbi 144 144 d2b6effbd494973d
huge crypt 512 512 b3e701443bb57dfd
huge fir16 512 395 16e1edd6b1cf1099
huge bitcount 512 512 5b911cd7d90df410
huge checksum32 512 512 7023a5aa9a0c9eda
huge dct8 512 395 54e641d0d149a7dc
huge gcd12 512 512 1bae4cf900a212e9
huge fft 512 395 d6bc83d7213ff9d3
huge viterbi 512 512 76fcb07c9da22a62
";

fn endpoint(f: Fingerprint, e: Endpoint) -> Fingerprint {
    let (tag, i) = match e {
        Endpoint::FuResult(i) => ("fu-result", i),
        Endpoint::FuOperand(i) => ("fu-operand", i),
        Endpoint::FuTrigger(i) => ("fu-trigger", i),
        Endpoint::RfWrite(i) => ("rf-write", i),
        Endpoint::RfRead(i) => ("rf-read", i),
        Endpoint::Imm(i) => ("imm", i),
    };
    f.str(tag).u64(i as u64)
}

/// Folds one scheduler outcome into `f`: every field of a schedule
/// (transports sorted by FU), or the error variant with its payload.
fn digest(mut f: Fingerprint, outcome: &Result<Schedule, ScheduleError>) -> Fingerprint {
    let s = match outcome {
        Err(ScheduleError::MissingFu(class)) => return f.str("missing").str(&format!("{class:?}")),
        Err(ScheduleError::InvalidArchitecture(e)) => return f.str("invalid").str(&e.to_string()),
        Err(ScheduleError::ResourceDeadlock) => return f.str("deadlock"),
        Ok(s) => s,
    };
    f = f.str("ok").u64(s.cycles.into()).u64(s.makespan.into());
    f = f.u64(s.spills.into()).u64(s.moves.len() as u64);
    for m in &s.moves {
        f = endpoint(f.u64(m.cycle.into()), m.src);
        f = endpoint(f, m.dst).u64(m.value.index() as u64);
    }
    f = f.u64(s.ops.len() as u64);
    for op in &s.ops {
        f = f
            .u64(op.node as u64)
            .u64(op.fu as u64)
            .u64(op.trigger.into());
    }
    let mut fus: Vec<_> = s.transports.iter().collect();
    fus.sort_by_key(|(&fu, _)| fu);
    f = f.u64(fus.len() as u64);
    for (&fu, ops) in fus {
        f = f.u64(fu as u64).u64(ops.len() as u64);
        for t in ops {
            f = f.u64(t.o.map_or(u64::MAX, u64::from)).u64(t.t.into());
            f = f.u64(t.r.into()).u64(t.fin.into()).u64(t.fout.into());
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

/// The golden lines of `indices` of `space` for every standard workload
/// built with `params`.
fn lines(label: &str, space: &TemplateSpace, indices: &[usize], params: &SuiteParams) -> String {
    let archs: Vec<_> = indices.iter().map(|&i| space.point(i)).collect();
    let registry = SuiteRegistry::standard();
    let mut out = Vec::new();
    for name in registry.workload_names() {
        let w = registry.build(name, params).expect("registered");
        let (mut f, mut ok) = (Fingerprint::new(), 0);
        for arch in &archs {
            let outcome = Scheduler::new(arch).run(&w.dfg);
            ok += usize::from(outcome.is_ok());
            f = digest(f, &outcome);
        }
        out.push(format!(
            "{label} {name} {} {ok} {:016x}",
            archs.len(),
            f.finish()
        ));
    }
    out.join("\n")
}

fn golden(label: &str) -> String {
    let prefix = format!("{label} ");
    let lines: Vec<&str> = GOLDEN
        .trim()
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .collect();
    lines.join("\n")
}

fn check(label: &str, space: &TemplateSpace, indices: &[usize], params: &SuiteParams) {
    let actual = lines(label, space, indices, params);
    assert_eq!(
        actual,
        golden(label),
        "{label} schedules moved; the actual lines are:\n{actual}"
    );
}

fn every_point(space: &TemplateSpace) -> Vec<usize> {
    (0..space.len()).collect()
}

#[test]
fn tiny_space_schedules_are_golden() {
    let space = TemplateSpace::tiny();
    check("tiny", &space, &every_point(&space), &SuiteParams::fast());
}

#[test]
fn fast_space_schedules_are_golden() {
    let space = TemplateSpace::fast_default();
    check("fast", &space, &every_point(&space), &SuiteParams::fast());
}

#[test]
fn paper_space_schedules_are_golden() {
    let space = TemplateSpace::paper_default();
    check("paper", &space, &every_point(&space), &SuiteParams::paper());
}

#[test]
fn huge_space_sample_schedules_are_golden() {
    let space = TemplateSpace::huge();
    let mut state = 0x5c4e_d01e;
    let sample: Vec<usize> = (0..512)
        .map(|_| (splitmix(&mut state) % space.len() as u64) as usize)
        .collect();
    // The sample must reach the many-ALU views, where most candidate
    // units of a class are probed per node.
    let many_alus = sample
        .iter()
        .filter(|&&i| space.point(i).fus_of(FuKind::Alu).count() >= 16)
        .count();
    assert!(many_alus >= 64, "{many_alus} points with 16+ ALUs");
    check("huge", &space, &sample, &SuiteParams::fast());
}
