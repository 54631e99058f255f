//! Traced replay of the ttadse benchmark ops, one layer call at a time.
//!
//! Each op is a `JobSpec` JSON line — the exact spec the daemon receives,
//! or the flags a CLI op passes. The replay drives it serially through
//! the layers' public functions in the sweep engine's order:
//!
//! plan → materialise → cache lookup → annotate → schedule → fold →
//! cache store + per-chunk flush → front insert → lift → render
//!
//! and records a span around every call (one per layer per chunk of
//! `CACHE_FLUSH_CHUNK` points). Spans stay in memory and are written to
//! the `--spans` file at the end; stdout gets one JSON summary with
//! every op's counts and front (so the caller can check the replay
//! reproduced the real program's answer) plus per-layer totals.
//!
//! Usage:
//!
//! ```text
//! replay --ops FILE --spans FILE [--cache-dir DIR | --memory-cache]
//! ```
//!
//! `--cache-dir` opens a persistent sweep cache at the start of every op
//! (as `ttadse explore --cache-dir` does); `--memory-cache` shares one
//! in-memory cache across all ops (as the daemon does). After the ops,
//! netlist generation, ATPG and march counting are timed once for every
//! component the ops annotated, outside the op spans.
//!
//! Only the specs the benchmark sends are replayed: the paper and huge
//! spaces, the exhaustive, neighbour and random strategies, a `bus_area`
//! override, table or netlist fidelity, and otherwise the default models
//! (the Pareto-only lift, the eq. (14) test model and modelled cycles).
//! Any other spec is refused rather than replayed approximately.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use tta_arch::template::TemplateSpace;
use tta_arch::{Architecture, InstructionFormat};
use tta_atpg::{Atpg, AtpgConfig};
use tta_core::cache::{
    arch_fingerprint, workload_fingerprint, EvalEntry, Fingerprint, SweepCache,
    CACHE_ADDRESS_VERSION,
};
use tta_core::explore::{
    CycleSource, EvaluatedArch, FidelityMode, LiftMode, Objective, ObjectiveVector,
    CACHE_FLUSH_CHUNK,
};
use tta_core::models::{
    keys_of, AnnotatedAreaModel, AnnotatedTimingModel, AreaModel, Eq14TestCostModel,
    InterconnectModel, NetlistAreaModel, NetlistEvaluator, NetlistTimingModel, TestCostModel,
    TimingModel,
};
use tta_core::search::{
    Exhaustive, Observation, RandomSample, SearchState, SearchStrategy, WalkOrder,
};
use tta_core::{ComponentDb, ComponentKey, ParetoArchive};
use tta_movec::schedule::Scheduler;
use tta_netlist::{timing, IncrementalElaborator};
use tta_serve::exec::{front_point_json, parse_workload_spec};
use tta_serve::spec::{JobSpec, Strategy, TestModel};
use tta_workloads::{SuiteParams, SuiteRegistry, WeightedWorkload};

/// One recorded interval. `parent` indexes the span list; the op root
/// spans have no parent.
struct Span {
    name: &'static str,
    op: usize,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
    count: u64,
}

/// In-memory span recorder plus named counters.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Opens a root span; close it with [`Tracer::close`].
    fn open(&mut self, name: &'static str, op: usize) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            op,
            parent: None,
            start: now,
            end: now,
            count: 0,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Records a child of `parent` that started at `start` and ends now.
    fn child(&mut self, parent: usize, name: &'static str, start: Instant, count: u64) {
        let op = self.spans[parent].op;
        self.spans.push(Span {
            name,
            op,
            parent: Some(parent),
            start,
            end: Instant::now(),
            count,
        });
    }

    fn add(&mut self, counter: &'static str, v: f64) {
        *self.counters.entry(counter).or_insert(0.0) += v;
    }

    /// Seconds covered by the direct children of `parent`.
    fn child_seconds(&self, parent: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum()
    }

    fn write_spans(&self, path: &PathBuf) -> std::io::Result<()> {
        let ns = |t: Instant| (t - self.t0).as_nanos();
        let mut out = String::from("id,parent,op,name,start_ns,end_ns,count\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            out.push_str(&format!(
                "{id},{parent},{},{},{},{},{}\n",
                s.op,
                s.name,
                ns(s.start),
                ns(s.end),
                s.count
            ));
        }
        std::fs::write(path, out)
    }
}

/// What one replayed op produced.
struct OpOutcome {
    evaluated: usize,
    infeasible: usize,
    front_json: String,
    wall_s: f64,
    attributed_s: f64,
}

/// The area/clock axis source of one op.
enum Axes {
    Table(AnnotatedAreaModel, AnnotatedTimingModel),
    Netlist(Box<IncrementalElaborator>, InterconnectModel),
}

fn space_of(spec: &JobSpec) -> Result<TemplateSpace, String> {
    match spec.space.as_deref() {
        Some("paper") => Ok(TemplateSpace::paper_default()),
        Some("huge") => Ok(TemplateSpace::huge()),
        other => Err(format!(
            "the replay covers the paper and huge spaces, not {other:?}"
        )),
    }
}

fn workloads_of(spec: &JobSpec, width: usize) -> Result<Vec<WeightedWorkload>, String> {
    let params = if width == 16 {
        SuiteParams::paper()
    } else {
        SuiteParams::fast()
    };
    if spec.suite.is_some() || spec.rounds.is_some() {
        return Err("the replay resolves plain workload lists at default rounds only".into());
    }
    let registry = SuiteRegistry::standard();
    if spec.workloads.is_empty() {
        return registry
            .instantiate("paper", &params)
            .ok_or_else(|| "no paper suite".into());
    }
    spec.workloads
        .iter()
        .map(|item| {
            let (name, weight) = parse_workload_spec(item)?;
            let workload = registry
                .build(name, &params)
                .ok_or_else(|| format!("unknown workload {name:?}"))?;
            Ok(WeightedWorkload { workload, weight })
        })
        .collect()
}

fn strategy_of(spec: &JobSpec) -> Result<Box<dyn SearchStrategy>, String> {
    match spec.strategy {
        Strategy::Exhaustive => Ok(Box::new(Exhaustive)),
        Strategy::Neighbour => Ok(Box::new(Exhaustive::neighbour())),
        Strategy::Random => Ok(Box::new(RandomSample)),
        Strategy::HillClimb => Err("the replay covers exhaustive, neighbour and random".into()),
    }
}

fn interconnect_of(spec: &JobSpec) -> Result<InterconnectModel, String> {
    if spec.bus_delay.is_some() || spec.control_area.is_some() {
        return Err("the replay overrides bus_area only".into());
    }
    let mut ic = InterconnectModel::paper();
    if let Some(v) = spec.bus_area {
        ic.bus_area_per_bit = v;
    }
    Ok(ic)
}

fn point_key(base: u64, arch: &Architecture) -> u64 {
    Fingerprint::new()
        .u64(base)
        .u64(arch_fingerprint(arch))
        .finish()
}

fn weighted_sum(workload_cycles: &[u64], weights: &[f64]) -> f64 {
    workload_cycles
        .iter()
        .zip(weights)
        .map(|(&c, &w)| w * c as f64)
        .sum()
}

fn evaluated_arch(
    arch: &Architecture,
    workload_cycles: Vec<u64>,
    spills: u32,
    weights: &[f64],
    area: f64,
    exec_time: f64,
) -> EvaluatedArch {
    EvaluatedArch {
        architecture: arch.clone(),
        cycles: workload_cycles.iter().sum(),
        weighted_cycles: weighted_sum(&workload_cycles, weights),
        workload_cycles,
        spills,
        objectives: ObjectiveVector::new([
            (Objective::Area, area),
            (Objective::ExecTime, exec_time),
        ]),
    }
}

/// A cache-missing point's schedules: per-workload cycles and spills,
/// or the suite member that failed to schedule.
type Scheduled = Result<(Vec<u64>, u32), usize>;

/// A point's outcome: feasible, or infeasible with the blocking suite
/// member (`None`: a cost model returned a non-finite value).
type Outcome = Result<EvaluatedArch, Option<usize>>;

fn rehydrate(arch: &Architecture, weights: &[f64], entry: EvalEntry) -> Option<Outcome> {
    match entry {
        EvalEntry::Infeasible { blocked } => match blocked {
            None => Some(Err(None)),
            Some(w) if (w as usize) < weights.len() => Some(Err(Some(w as usize))),
            Some(_) => None,
        },
        EvalEntry::Feasible {
            workload_cycles,
            spills,
            area_bits,
            exec_bits,
            ..
        } => {
            if workload_cycles.len() != weights.len() {
                return None;
            }
            Some(Ok(evaluated_arch(
                arch,
                workload_cycles,
                spills,
                weights,
                f64::from_bits(area_bits),
                f64::from_bits(exec_bits),
            )))
        }
    }
}

fn dehydrate(outcome: &Outcome) -> EvalEntry {
    match outcome {
        Err(blocked) => EvalEntry::Infeasible {
            blocked: blocked.map(|w| w as u32),
        },
        Ok(e) => EvalEntry::Feasible {
            cycles: e.cycles,
            workload_cycles: e.workload_cycles.clone(),
            spills: e.spills,
            area_bits: e.area().to_bits(),
            exec_bits: e.exec_time().to_bits(),
            test: None,
        },
    }
}

/// Annotates every key of `archs` the database lacks, inside one
/// `backannotate.annotate` span.
fn annotate<'a>(
    tr: &mut Tracer,
    root: usize,
    db: &ComponentDb,
    archs: impl Iterator<Item = &'a Architecture>,
    annotated: &mut Vec<ComponentKey>,
) {
    let t = Instant::now();
    let mut keys: Vec<ComponentKey> = archs.filter_map(keys_of).flatten().collect();
    let refs = keys.len();
    keys.sort_unstable();
    keys.dedup();
    keys.retain(|&k| !db.contains(k));
    for &k in &keys {
        db.get(k);
    }
    tr.child(root, "backannotate.annotate", t, keys.len() as u64);
    tr.add("backannotate.key_refs", refs as f64);
    tr.add("backannotate.keys", keys.len() as f64);
    annotated.extend(keys);
}

/// Which op is replayed, and where its sweep cache comes from.
struct OpContext<'a> {
    op: usize,
    file_cache: Option<&'a PathBuf>,
    memory_cache: Option<&'a SweepCache>,
}

fn replay_op(
    tr: &mut Tracer,
    ctx: &OpContext<'_>,
    spec: &JobSpec,
    annotated: &mut Vec<ComponentKey>,
) -> Result<OpOutcome, String> {
    if spec.lift != LiftMode::ParetoOnly
        || spec.test_model != TestModel::Eq14
        || spec.cycles != CycleSource::Model
    {
        return Err("the replay covers the default lift, test model and cycle source".into());
    }
    let space = space_of(spec)?;
    let suite = workloads_of(spec, space.width)?;
    let weights: Vec<f64> = suite.iter().map(|w| w.weight).collect();
    let ic = interconnect_of(spec)?;
    let mut strategy = strategy_of(spec)?;
    let seed = spec.seed.unwrap_or(0);
    let budget = spec.budget.unwrap_or(usize::MAX);
    let test_model = Eq14TestCostModel;

    let root = tr.open("op", ctx.op);
    let opened;
    let cache: Option<&SweepCache> = match (ctx.file_cache, ctx.memory_cache) {
        (Some(dir), _) => {
            let t = Instant::now();
            opened = SweepCache::open(dir).map_err(|e| format!("cache: {e}"))?;
            tr.child(root, "cache.load", t, opened.len() as u64);
            Some(&opened)
        }
        (None, memory) => memory,
    };
    let db = ComponentDb::new();
    let (mut axes, area_fp, timing_fp) = match spec.fidelity {
        FidelityMode::Table => {
            let (a, t) = (AnnotatedAreaModel::new(ic), AnnotatedTimingModel::new(ic));
            let fps = (a.fingerprint(), t.fingerprint());
            (Axes::Table(a, t), fps.0, fps.1)
        }
        FidelityMode::Netlist => {
            let eval = Arc::new(NetlistEvaluator::new());
            let a = NetlistAreaModel::new(ic, Arc::clone(&eval)).fingerprint();
            let t = NetlistTimingModel::new(ic, eval).fingerprint();
            (Axes::Netlist(Box::default(), ic), a, t)
        }
    };
    // The content addresses follow the engine's recipe, so the replay
    // hits exactly the entries a real run (or an earlier op) stored.
    let salted = |f: Fingerprint| match strategy.cache_salt() {
        None => f,
        Some(salt) => f
            .str("strategy")
            .str(strategy.name())
            .u64(salt)
            .u64(spec.budget.map_or(u64::MAX, |b| b as u64))
            .u64(seed),
    };
    let eval_base = {
        let base = Fingerprint::new()
            .str("eval")
            .u64(u64::from(CACHE_ADDRESS_VERSION))
            .u64(area_fp.expect("default area models fingerprint"))
            .u64(timing_fp.expect("default timing models fingerprint"))
            .u64(db.fingerprint())
            .u64(suite.len() as u64);
        let base = suite.iter().fold(base, |f, w| {
            f.u64(workload_fingerprint(&w.workload)).f64(w.weight)
        });
        salted(base).finish()
    };
    let test_base = salted(
        Fingerprint::new()
            .str("test")
            .u64(u64::from(CACHE_ADDRESS_VERSION))
            .u64(test_model.fingerprint().expect("eq14 fingerprints"))
            .u64(db.fingerprint()),
    )
    .finish();

    let mut state = SearchState::new();
    let mut archive = ParetoArchive::new();
    let mut evaluated: Vec<EvaluatedArch> = Vec::new();
    let mut eval_space_index: Vec<usize> = Vec::new();
    let mut infeasible = 0usize;

    loop {
        let remaining = budget.saturating_sub(state.visited());
        if remaining == 0 {
            break;
        }
        let t = Instant::now();
        let front_spaces: Vec<usize> = archive
            .ids()
            .iter()
            .map(|&id| eval_space_index[id])
            .collect();
        let batch = strategy.next_batch(&state.context(&space, seed, remaining, &front_spaces));
        let proposed = batch.len();
        let mut fresh: Vec<usize> = Vec::new();
        for i in batch {
            if i < space.len() && state.claim(i) {
                fresh.push(i);
                if fresh.len() == remaining {
                    break;
                }
            }
        }
        if strategy.walk_order() == WalkOrder::Neighbour {
            fresh.sort_by_key(|&i| space.neighbour_rank(i));
        }
        tr.child(root, "search.plan", t, fresh.len() as u64);
        tr.add("search.proposed", proposed as f64);
        tr.add("search.fresh", fresh.len() as f64);
        if fresh.is_empty() {
            break;
        }
        state.begin_round();
        for chunk in fresh.chunks(CACHE_FLUSH_CHUNK) {
            let t = Instant::now();
            let archs: Vec<Architecture> = chunk.iter().map(|&i| space.point(i)).collect();
            tr.child(root, "template.point", t, archs.len() as u64);

            // Cache lookup: hits are final; misses go through the layers.
            let mut outcomes: Vec<Option<Outcome>> = vec![None; archs.len()];
            let mut keys: Vec<u64> = Vec::new();
            if let Some(cache) = cache {
                let t = Instant::now();
                keys = archs.iter().map(|a| point_key(eval_base, a)).collect();
                let prefetched = cache.lookup_eval_batch(&keys);
                let mut hits = 0u64;
                for (k, entry) in prefetched.into_iter().enumerate() {
                    outcomes[k] = entry.and_then(|e| rehydrate(&archs[k], &weights, e));
                    hits += u64::from(outcomes[k].is_some());
                }
                tr.child(root, "cache.lookup", t, keys.len() as u64);
                tr.add("cache.lookups", keys.len() as f64);
                tr.add("cache.hits", hits as f64);
            }
            let misses: Vec<usize> = (0..archs.len())
                .filter(|&k| outcomes[k].is_none())
                .collect();

            annotate(tr, root, &db, misses.iter().map(|&k| &archs[k]), annotated);

            let t = Instant::now();
            let mut scheduled: Vec<(usize, Scheduled)> = Vec::new();
            let mut calls = 0u64;
            let mut failed = 0u64;
            for &k in &misses {
                let mut cycles = Vec::with_capacity(suite.len());
                let mut spills = 0u32;
                let mut blocked = None;
                for (i, w) in suite.iter().enumerate() {
                    calls += 1;
                    match Scheduler::new(&archs[k]).run(&w.workload.dfg) {
                        Ok(s) => {
                            cycles.push(w.workload.application_cycles(s.cycles));
                            spills += s.spills;
                        }
                        Err(_) => {
                            failed += 1;
                            blocked = Some(i);
                            break;
                        }
                    }
                }
                scheduled.push((k, blocked.map_or(Ok((cycles, spills)), Err)));
            }
            tr.child(root, "movec.schedule", t, calls);
            tr.add("movec.calls", calls as f64);
            tr.add("movec.infeasible", failed as f64);

            // Netlist fidelity elaborates (then times) only the points
            // that scheduled, as the netlist models do, one point at a
            // time: each netlist is dropped once its figures are taken.
            let mut figures: BTreeMap<usize, Option<(f64, f64)>> = BTreeMap::new();
            if let Axes::Netlist(elab, _) = &mut axes {
                for (k, r) in &scheduled {
                    if r.is_err() {
                        continue;
                    }
                    let t = Instant::now();
                    let netlist = elab.advance(&archs[*k]).ok();
                    tr.child(root, "netlist.elaborate", t, 1);
                    tr.add("netlist.elaborations", 1.0);
                    let t = Instant::now();
                    let f = netlist.map(|nl| {
                        tr.add("netlist.gates", nl.gate_count() as f64);
                        (nl.area(), timing::min_clock_period(&nl))
                    });
                    tr.child(root, "netlist.sta", t, 1);
                    figures.insert(*k, f);
                }
            }

            let t = Instant::now();
            for (k, r) in scheduled {
                let arch = &archs[k];
                outcomes[k] = Some(r.map_err(Some).and_then(|(cycles, spills)| {
                    let (area, clock) = match &axes {
                        Axes::Table(a, t) => (a.area(arch, &db), t.clock_period(arch, &db)),
                        Axes::Netlist(_, ic) => match figures[&k] {
                            None => (f64::INFINITY, f64::INFINITY),
                            Some((cell_area, critical_path)) => {
                                let control = f64::from(InstructionFormat::of(arch).width())
                                    * ic.control_area_per_instr_bit;
                                (
                                    cell_area
                                        + control
                                        + arch.bus_count() as f64
                                            * arch.width as f64
                                            * ic.bus_area_per_bit,
                                    critical_path + arch.bus_count() as f64 * ic.bus_delay_penalty,
                                )
                            }
                        },
                    };
                    let exec_time = weighted_sum(&cycles, &weights) * clock;
                    if !area.is_finite() || !clock.is_finite() || !exec_time.is_finite() {
                        return Err(None);
                    }
                    Ok(evaluated_arch(
                        arch, cycles, spills, &weights, area, exec_time,
                    ))
                }));
            }
            tr.child(root, "models.fold", t, misses.len() as u64);

            if let Some(cache) = cache {
                let t = Instant::now();
                for &k in &misses {
                    let outcome = outcomes[k].as_ref().expect("evaluated above");
                    cache.store_eval(keys[k], dehydrate(outcome));
                }
                tr.child(root, "cache.store", t, misses.len() as u64);
                tr.add("cache.stores", misses.len() as f64);
                flush(tr, root, cache)?;
            }

            let t = Instant::now();
            for (k, outcome) in outcomes.into_iter().enumerate() {
                let index = chunk[k];
                match outcome.expect("every point has an outcome") {
                    Ok(e) => {
                        archive.try_insert(evaluated.len(), e.objectives.values());
                        state.record(Observation {
                            index,
                            objectives: Some((e.area(), e.exec_time())),
                        });
                        eval_space_index.push(index);
                        evaluated.push(e);
                    }
                    Err(_) => {
                        infeasible += 1;
                        state.record(Observation {
                            index,
                            objectives: None,
                        });
                    }
                }
            }
            tr.child(root, "pareto.insert", t, chunk.len() as u64);
        }
        state.finish_round();
    }
    tr.add("pareto.offered", evaluated.len() as f64);

    // Lift: the test axis on the front only.
    let pareto = archive.ids();
    tr.add("pareto.kept", pareto.len() as f64);
    let unlifted: Vec<&Architecture> = pareto
        .iter()
        .map(|&i| &evaluated[i].architecture)
        .filter(|a| !cache.is_some_and(|c| c.contains_test(point_key(test_base, a))))
        .collect();
    annotate(tr, root, &db, unlifted.into_iter(), annotated);
    let t = Instant::now();
    for &i in &pareto {
        let arch = &evaluated[i].architecture;
        let total = match cache {
            Some(cache) => {
                let key = point_key(test_base, arch);
                cache.lookup_test(key).unwrap_or_else(|| {
                    let total = test_model.test_cost(arch, &db).total;
                    cache.store_test(key, total);
                    total
                })
            }
            None => test_model.test_cost(arch, &db).total,
        };
        evaluated[i].objectives.push(Objective::TestCost, total);
    }
    tr.child(root, "models.test_cost", t, pareto.len() as u64);
    if let Some(cache) = cache {
        flush(tr, root, cache)?;
    }

    let t = Instant::now();
    let mut front: Vec<&EvaluatedArch> = pareto.iter().map(|&i| &evaluated[i]).collect();
    front.sort_by(|a, b| a.area().total_cmp(&b.area()));
    let front_json = format!(
        "[{}]",
        front
            .iter()
            .map(|e| front_point_json(e))
            .collect::<Vec<_>>()
            .join(",")
    );
    tr.child(root, "render.render", t, front.len() as u64);
    tr.add("render.bytes", front_json.len() as f64);
    tr.close(root);

    let s = &tr.spans[root];
    Ok(OpOutcome {
        evaluated: evaluated.len(),
        infeasible,
        front_json,
        wall_s: (s.end - s.start).as_secs_f64(),
        attributed_s: tr.child_seconds(root),
    })
}

fn flush(tr: &mut Tracer, root: usize, cache: &SweepCache) -> Result<(), String> {
    let t = Instant::now();
    cache.flush().map_err(|e| format!("cache flush: {e}"))?;
    let bytes = std::fs::metadata(cache.path()).map_or(0, |m| m.len());
    tr.child(root, "cache.flush", t, bytes);
    if !cache.path().as_os_str().is_empty() {
        tr.add("cache.flushes", 1.0);
        tr.add("cache.bytes_written", bytes as f64);
    }
    Ok(())
}

/// Times the annotation sub-steps reachable through public calls —
/// netlist generation, stuck-at ATPG (logic) and march counting (RF
/// storage) — once per distinct key, outside every op span. Returns
/// the per-key seconds of each sub-step.
fn probe(tr: &mut Tracer, keys: &BTreeSet<ComponentKey>) -> BTreeMap<ComponentKey, [f64; 3]> {
    let root = tr.open("probe", usize::MAX);
    let db = ComponentDb::new();
    let atpg = Atpg::new(AtpgConfig::sweep());
    let mut out = BTreeMap::new();
    for &key in keys {
        let t = Instant::now();
        let component = key.generate();
        let generate = t.elapsed().as_secs_f64();
        tr.child(root, "backannotate.generate", t, 1);
        let t = Instant::now();
        let (atpg_s, march_s) = match key {
            ComponentKey::Rf(_, regs, _, _) => {
                std::hint::black_box(db.march().pattern_count(regs as usize));
                tr.child(root, "backannotate.march", t, 1);
                (0.0, t.elapsed().as_secs_f64())
            }
            _ => {
                std::hint::black_box(atpg.run(&component.netlist).pattern_count());
                tr.child(root, "backannotate.atpg", t, 1);
                (t.elapsed().as_secs_f64(), 0.0)
            }
        };
        out.insert(key, [generate, atpg_s, march_s]);
    }
    tr.close(root);
    out
}

fn run() -> Result<(), String> {
    let mut ops_file = None;
    let mut spans_file = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut memory_cache = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ops" => ops_file = args.next().map(PathBuf::from),
            "--spans" => spans_file = args.next().map(PathBuf::from),
            "--cache-dir" => cache_dir = args.next().map(PathBuf::from),
            "--memory-cache" => memory_cache = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let ops_file = ops_file.ok_or("--ops FILE is required")?;
    let spans_file = spans_file.ok_or("--spans FILE is required")?;
    let text = std::fs::read_to_string(&ops_file).map_err(|e| format!("{e}"))?;
    let specs: Vec<JobSpec> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(JobSpec::from_json)
        .collect::<Result<_, _>>()?;

    let mut tr = Tracer::new();
    let shared = memory_cache.then(SweepCache::in_memory);
    let mut per_op_keys: Vec<Vec<ComponentKey>> = Vec::new();
    let mut outcomes = Vec::new();
    for (op, spec) in specs.iter().enumerate() {
        let ctx = OpContext {
            op,
            file_cache: cache_dir.as_ref(),
            memory_cache: shared.as_ref(),
        };
        let mut annotated = Vec::new();
        outcomes.push(replay_op(&mut tr, &ctx, spec, &mut annotated)?);
        per_op_keys.push(annotated);
    }

    // Annotation sub-steps: every op with a fresh database pays them for
    // each key it annotated.
    let mut sub = [0.0f64; 3];
    let distinct: BTreeSet<ComponentKey> = per_op_keys.iter().flatten().copied().collect();
    let per_key = probe(&mut tr, &distinct);
    for key in per_op_keys.iter().flatten() {
        for (acc, v) in sub.iter_mut().zip(per_key[key]) {
            *acc += v;
        }
    }

    tr.write_spans(&spans_file)
        .map_err(|e| format!("spans: {e}"))?;

    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in tr
        .spans
        .iter()
        .filter(|s| s.parent.is_some() && s.op != usize::MAX)
    {
        *layers.entry(s.name).or_insert(0.0) += (s.end - s.start).as_secs_f64();
    }
    let num = |v: f64| format!("{v:e}");
    let map = |m: &BTreeMap<&'static str, f64>| {
        m.iter()
            .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
            .collect::<Vec<_>>()
            .join(",")
    };
    let ops = outcomes
        .iter()
        .map(|o| {
            format!(
                "{{\"evaluated\":{},\"infeasible\":{},\"wall_s\":{},\"attributed_s\":{},\"front\":{}}}",
                o.evaluated,
                o.infeasible,
                num(o.wall_s),
                num(o.attributed_s),
                o.front_json
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"ops\":[{ops}],\"layers\":{{{}}},\"counters\":{{{}}},\"probe\":{{\"generate_s\":{},\"atpg_s\":{},\"march_s\":{}}}}}",
        map(&layers),
        map(&tr.counters),
        num(sub[0]),
        num(sub[1]),
        num(sub[2])
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("replay: {e}");
            ExitCode::FAILURE
        }
    }
}
