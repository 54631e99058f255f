//! The shared sweep executor: resolve a [`JobSpec`], run it, render it.
//!
//! `ttadse explore` (local) and the serve daemon's workers run jobs
//! through the *same* [`prepare`] → [`PreparedJob::run`] pipeline, and
//! both emit the string [`JobOutput::output`] verbatim — which is how
//! `--remote` output is byte-identical to a local run *by construction*
//! rather than by parallel maintenance of two render paths.
//!
//! Validation ([`prepare`]) is deliberately split from execution: the
//! daemon rejects an unresolvable spec with a clean HTTP error before
//! the job ever reaches the queue, while the sweep itself can only fail
//! by being cancelled (or by the injected test fault).

use std::io::Write;

use tta_arch::template::TemplateSpace;
use tta_core::cache::SweepCache;
use tta_core::explore::{
    CacheStatus, CancelToken, Exploration, ExploreResult, FidelityMode, LiftMode, SweepProgress,
};
use tta_core::models::{InterconnectModel, ScanTestCostModel};
use tta_core::parallel::default_threads;
use tta_core::report::TextTable;
use tta_core::{ComponentDb, ScheduleStats};
use tta_workloads::{SuiteParams, SuiteRegistry, WeightedWorkload};

use crate::json;
use crate::spec::{Format, JobSpec, Strategy, TestModel};

/// Splits a `name[:weight]` workload item into its parts.
///
/// # Errors
///
/// A usage message for an unparsable or non-positive weight.
pub fn parse_workload_spec(spec: &str) -> Result<(&str, f64), String> {
    let (name, weight) = match spec.split_once(':') {
        None => (spec, 1.0),
        Some((name, raw)) => {
            let weight: f64 = raw
                .parse()
                .map_err(|_| format!("workload weight {raw:?} in {spec:?} does not parse"))?;
            (name, weight)
        }
    };
    if !weight.is_finite() || weight <= 0.0 {
        return Err(format!(
            "workload weight in {spec:?} must be finite and > 0"
        ));
    }
    Ok((name, weight))
}

fn space_of(spec: &JobSpec) -> Result<TemplateSpace, String> {
    // `fast` is the scale shorthand the figure subcommands use; let it
    // pick the space here too, but an explicit space name always wins.
    let name = match &spec.space {
        Some(name) => name.as_str(),
        None if spec.fast => "fast",
        None => "paper",
    };
    match name {
        "paper" => Ok(TemplateSpace::paper_default()),
        "fast" => Ok(TemplateSpace::fast_default()),
        "tiny" => Ok(TemplateSpace::tiny()),
        "huge" => Ok(TemplateSpace::huge()),
        other => Err(format!(
            "unknown space {other:?} (expected paper, fast, tiny or huge)"
        )),
    }
}

/// Workload sizing for a scale, with the spec's `rounds` overriding the
/// crypt trace length.
fn suite_params(spec: &JobSpec, paper_scale: bool) -> SuiteParams {
    let mut params = if paper_scale {
        SuiteParams::paper()
    } else {
        SuiteParams::fast()
    };
    if let Some(rounds) = spec.rounds {
        params.crypt_rounds = rounds;
    }
    params
}

/// Registry names of the members of `suite_name`, when it names a
/// registered suite.
fn suite_member_names<'r>(registry: &'r SuiteRegistry, suite_name: &str) -> Option<Vec<&'r str>> {
    registry
        .suites()
        .iter()
        .find(|s| s.name == suite_name)
        .map(|s| s.members.iter().map(|(n, _)| n.as_str()).collect())
}

/// Resolves the spec's `suite` and every `workloads` item against the
/// standard registry. The candidate lists in error messages are derived
/// from the registry, so a newly registered workload can never drift
/// out of the help text.
fn workloads_of(
    registry: &SuiteRegistry,
    spec: &JobSpec,
    paper_scale: bool,
) -> Result<Vec<WeightedWorkload>, String> {
    let params = suite_params(spec, paper_scale);
    let mut out: Vec<WeightedWorkload> = Vec::new();
    if let Some(name) = &spec.suite {
        out.extend(registry.instantiate(name, &params).ok_or_else(|| {
            format!(
                "unknown suite {name:?} (expected {})",
                registry.suite_names().join(", ")
            )
        })?);
    }
    // Repeats of the same *explicit* workload are rejected — as is an
    // explicit workload that a requested suite already includes: the
    // user almost certainly meant one weight, and silently compounding
    // (`fft:2 fft:3` acting as a single heavier member, or a dsp suite
    // plus `fft:2` scheduling fft twice) mis-scales the exec-time axis
    // with no diagnostic. Scaling a *suite* in workload position stays
    // multiplicative per member by design — `dsp:2` means "the dsp
    // suite, every member twice as heavy". `in_suite` is pre-scanned so
    // the rejection is order-independent.
    let mut in_suite: std::collections::HashMap<&str, &str> = std::collections::HashMap::new();
    let suite_specs = spec.suite.iter().map(|s| s.as_str()).chain(
        spec.workloads
            .iter()
            .filter_map(|s| parse_workload_spec(s).ok().map(|(n, _)| n)),
    );
    for suite_name in suite_specs {
        if let Some(members) = suite_member_names(registry, suite_name) {
            for member in members {
                in_suite.entry(member).or_insert(suite_name);
            }
        }
    }
    let mut explicit_seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for item in &spec.workloads {
        let (name, weight) = parse_workload_spec(item)?;
        if let Some(w) = registry.build(name, &params) {
            if !explicit_seen.insert(name) {
                return Err(format!(
                    "workload {name:?} appears more than once; \
                     give it a single name:weight spec instead of repeating it"
                ));
            }
            if let Some(suite) = in_suite.get(name) {
                return Err(format!(
                    "workload {name:?} is already included by suite {suite:?}; \
                     scale the suite ({suite}:W) or list its members explicitly \
                     instead of adding the workload twice"
                ));
            }
            out.push(WeightedWorkload {
                workload: w,
                weight,
            });
        } else if let Some(members) = registry.instantiate(name, &params) {
            // A suite name in workload position (e.g. the historical
            // `all`); a `:weight` scales every member. A *repeated*
            // suite name would duplicate every member with compounding
            // weights — rejected like a repeated workload.
            if !explicit_seen.insert(name) {
                return Err(format!(
                    "suite {name:?} appears more than once; \
                     give it a single name:weight spec instead of repeating it"
                ));
            }
            if spec.suite.as_deref() == Some(name) {
                return Err(format!(
                    "suite {name:?} was already requested; \
                     scaling it again would double every member"
                ));
            }
            out.extend(members.into_iter().map(|mut m| {
                m.weight *= weight;
                m
            }));
        } else {
            return Err(format!(
                "unknown workload {name:?} (expected a workload: {}; or a suite: {})",
                registry.workload_names().join(", "),
                registry.suite_names().join(", ")
            ));
        }
    }
    if out.is_empty() {
        // The historical default: the paper's application.
        out.extend(
            registry
                .instantiate("paper", &params)
                .expect("the standard registry has a `paper` suite"),
        );
    }
    Ok(out)
}

/// A validated, resolved job, ready to run any number of times.
#[derive(Debug)]
pub struct PreparedJob {
    spec: JobSpec,
    space: TemplateSpace,
    workloads: Vec<WeightedWorkload>,
}

/// Everything a finished (or cancelled) job reports besides its exit:
/// the rendered stdout document plus the telemetry the CLI prints to
/// stderr and the daemon streams as its `done` event.
#[derive(Debug)]
pub struct JobOutput {
    /// The rendered stdout document — emitted *verbatim* by both the
    /// local CLI and the remote client, which is the whole
    /// byte-identity story.
    pub output: String,
    /// Points evaluated.
    pub evaluations: usize,
    /// Pareto-front size.
    pub front: usize,
    /// Whether the job was cancelled before finishing.
    pub cancelled: bool,
    /// Schedule-memo counters (stderr-only observability).
    pub schedule: ScheduleStats,
    /// Per-job cache outcome, as a wire-stable label (`none`,
    /// `bypassed`, `flushed`, `flush-failed`).
    pub cache: &'static str,
    /// The flush error, when `cache` is `flush-failed`.
    pub flush_failure: Option<String>,
}

/// Wire-stable label for a job's [`CacheStatus`].
fn cache_label(status: &CacheStatus) -> &'static str {
    match status {
        CacheStatus::NotAttached => "none",
        CacheStatus::Bypassed => "bypassed",
        CacheStatus::Flushed => "flushed",
        CacheStatus::FlushFailed(_) => "flush-failed",
    }
}

/// Validates `spec` and resolves its space and workloads.
///
/// # Errors
///
/// A usage-class message (unknown space/workload/suite, bad weight,
/// zero budget, unknown fault tag).
pub fn prepare(spec: &JobSpec) -> Result<PreparedJob, String> {
    spec.validate()?;
    let space = space_of(spec)?;
    let paper_scale = space.width == 16;
    let registry = SuiteRegistry::standard();
    let workloads = workloads_of(&registry, spec, paper_scale)?;
    Ok(PreparedJob {
        spec: spec.clone(),
        space,
        workloads,
    })
}

impl PreparedJob {
    /// Number of template points the resolved space holds.
    pub fn space_points(&self) -> usize {
        self.space.len()
    }

    /// Number of resolved workloads.
    pub fn workload_count(&self) -> usize {
        self.workloads.len()
    }

    /// The validated spec this job was prepared from.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Runs the sweep: an optional shared cache, an optional cancel
    /// token (checked between chunks) and an optional per-chunk
    /// progress observer. Running a cancelled job again over the same
    /// cache resumes it: the merged chunks answer as hits.
    ///
    /// The injected `"panic"` fault (see [`JobSpec::fault`]) fires
    /// here, before any evaluation — the daemon's workers run jobs
    /// under `catch_unwind` and the fault suite asserts a panicking job
    /// degrades alone.
    pub fn run(
        &self,
        cache: Option<&SweepCache>,
        cancel: Option<CancelToken>,
        mut progress: Option<&mut dyn FnMut(&SweepProgress)>,
    ) -> JobOutput {
        assert!(
            self.spec.fault.is_none(),
            "fault injection: panic requested by the job spec"
        );
        let spec = &self.spec;
        let mut interconnect = InterconnectModel::paper();
        if let Some(v) = spec.bus_area {
            interconnect.bus_area_per_bit = v;
        }
        if let Some(v) = spec.bus_delay {
            interconnect.bus_delay_penalty = v;
        }
        if let Some(v) = spec.control_area {
            interconnect.control_area_per_instr_bit = v;
        }
        let db = ComponentDb::new();
        let mut e = Exploration::over(self.space.clone())
            .suite(&self.workloads)
            .with_db(&db)
            .interconnect(interconnect)
            .lift(spec.lift)
            // `cycles` is deliberately NOT echoed in any output
            // format: CI `cmp`s a model run against a simulate run to
            // assert the scheduler model reproduces execution
            // byte-identically.
            .cycle_source(spec.cycles)
            .fidelity(spec.fidelity)
            .threads(spec.threads.unwrap_or_else(default_threads));
        if spec.test_model == TestModel::Scan {
            e = e.test_cost_model(ScanTestCostModel::default());
        }
        e = match spec.strategy {
            Strategy::Exhaustive => e.strategy(tta_core::search::Exhaustive),
            Strategy::Neighbour => e.strategy(tta_core::search::Exhaustive::neighbour()),
            Strategy::Random => e.strategy(tta_core::search::RandomSample),
            Strategy::HillClimb => e.strategy(tta_core::search::HillClimb::default()),
        };
        if let Some(b) = spec.budget {
            e = e.budget(b);
        }
        if let Some(s) = spec.seed {
            e = e.seed(s);
        }
        if let Some(c) = cache {
            e = e.cache(c);
        }
        if let Some(token) = cancel {
            e = e.cancel_token(token);
        }
        if let Some(observer) = progress.as_mut() {
            e = e.progress(|p| observer(p));
        }
        let result = e.run();
        let mut output = Vec::new();
        render_explore(&result, spec.test_model, spec.format, &mut output)
            .expect("rendering into a Vec cannot fail");
        let flush_failure = match &result.cache_status {
            CacheStatus::FlushFailed(msg) => Some(msg.clone()),
            _ => None,
        };
        JobOutput {
            output: String::from_utf8(output).expect("rendered output is utf-8"),
            evaluations: result.search.evaluations,
            front: result.pareto.len(),
            cancelled: result.cancelled,
            schedule: result.schedule,
            cache: cache_label(&result.cache_status),
            flush_failure,
        }
    }
}

/// JSON object for one Pareto-front member, including its per-workload
/// cycle breakdown (in the result's `workloads` order). Shared with the
/// CLI's figure subcommands.
pub fn front_point_json(e: &tta_core::explore::EvaluatedArch) -> String {
    json::object([
        ("architecture", json::string(&e.architecture.name)),
        ("area", json::number(e.area())),
        ("exec_time", json::number(e.exec_time())),
        ("test_cost", json::opt_number(e.test_cost())),
        ("cycles", json::int(e.cycles)),
        (
            "workload_cycles",
            json::array(e.workload_cycles.iter().map(|&c| json::int(c))),
        ),
    ])
}

/// Renders an exploration result in the requested format. This is the
/// single render path: the local CLI and the daemon both call it, so
/// their stdout bytes cannot drift apart.
///
/// # Errors
///
/// Propagates write failures from `out` (infallible for in-memory
/// buffers).
pub fn render_explore(
    result: &ExploreResult,
    test_model: TestModel,
    format: Format,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let s = &result.search;
    match format {
        Format::Table => {
            writeln!(
                out,
                "strategy {}: visited {} of {} template points{}{}",
                s.strategy,
                s.evaluations,
                s.space_len,
                s.budget.map_or(String::new(), |b| format!(" (budget {b})")),
                s.seed.map_or(String::new(), |v| format!(" (seed {v})")),
            )?;
            if result.lift == LiftMode::Full {
                writeln!(
                    out,
                    "lift full: test axis ({}) swept as a third objective; \
                     the front below is the true 3-D front",
                    test_model.label()
                )?;
            }
            if result.fidelity == FidelityMode::Netlist {
                writeln!(
                    out,
                    "fidelity netlist: area/clock axes from per-point gate-level \
                     elaboration (loaded STA), not the component tables"
                )?;
            }
            writeln!(
                out,
                "explored {} feasible points ({} infeasible) over [{}]; {} on the Pareto front",
                result.evaluated.len(),
                result.infeasible,
                result.workloads.join(", "),
                result.pareto.len()
            )?;
            let mut t = TextTable::new(["architecture", "area [GE]", "exec time", "test cost"]);
            let mut front = result.pareto_points();
            front.sort_by(|a, b| a.area().total_cmp(&b.area()));
            for e in front {
                t.row([
                    e.architecture.name.clone(),
                    format!("{:.0}", e.area()),
                    format!("{:.0}", e.exec_time()),
                    e.test_cost().map_or("-".into(), |c| format!("{c:.0}")),
                ]);
            }
            writeln!(out, "{t}")?;
            writeln!(out, "per-workload breakdown:")?;
            let mut b = TextTable::new(["workload", "weight", "blocked", "cycles@selected"]);
            for row in result.workload_breakdown() {
                b.row([
                    row.name.to_string(),
                    format!("{}", row.weight),
                    row.blocked.to_string(),
                    row.selected_cycles.map_or("-".into(), |c| c.to_string()),
                ]);
            }
            writeln!(out, "{b}")?;
            let best = result.try_select_equal_weights();
            if let Some(best) = best {
                writeln!(out, "selected (equal-weight Euclid): {}", best.architecture)?;
            }
        }
        Format::Json => {
            let mut front = result.pareto_points();
            front.sort_by(|a, b| a.area().total_cmp(&b.area()));
            let selected = result.try_select_equal_weights();
            let doc = json::object([
                ("command", json::string("explore")),
                ("lift", json::string(result.lift.label())),
                ("fidelity", json::string(result.fidelity.label())),
                ("test_model", json::string(test_model.label())),
                (
                    "search",
                    json::object([
                        ("strategy", json::string(&s.strategy)),
                        (
                            "budget",
                            s.budget
                                .map_or_else(|| "null".into(), |b| json::int(b as u64)),
                        ),
                        ("seed", s.seed.map_or_else(|| "null".into(), json::int)),
                        ("space_points", json::int(s.space_len as u64)),
                        ("evaluations", json::int(s.evaluations as u64)),
                    ]),
                ),
                (
                    "workloads",
                    json::array(result.workload_breakdown().iter().map(|b| {
                        json::object([
                            ("name", json::string(b.name)),
                            ("weight", json::number(b.weight)),
                            ("blocked", json::int(b.blocked as u64)),
                            (
                                "selected_cycles",
                                b.selected_cycles.map_or_else(|| "null".into(), json::int),
                            ),
                        ])
                    })),
                ),
                ("evaluated", json::int(result.evaluated.len() as u64)),
                ("infeasible", json::int(result.infeasible as u64)),
                (
                    "front",
                    json::array(front.iter().map(|e| front_point_json(e))),
                ),
                (
                    "selected",
                    selected.map_or_else(|| "null".into(), front_point_json),
                ),
            ]);
            writeln!(out, "{doc}")?;
        }
        Format::Csv => {
            // Strategy metadata rides along as a comment line, so a
            // sampled front in a results directory is never mistaken
            // for an exhaustive one.
            writeln!(
                out,
                "# strategy={} budget={} seed={} space_points={} evaluations={} lift={} fidelity={} test_model={}",
                s.strategy,
                s.budget.map_or("none".into(), |b| b.to_string()),
                s.seed.map_or("none".into(), |v| v.to_string()),
                s.space_len,
                s.evaluations,
                result.lift.label(),
                result.fidelity.label(),
                test_model.label(),
            )?;
            for b in result.workload_breakdown() {
                writeln!(
                    out,
                    "# workload={} weight={} blocked={}",
                    b.name, b.weight, b.blocked
                )?;
            }
            write!(
                out,
                "architecture,area,exec_time,cycles,spills,on_front,test_cost"
            )?;
            for name in &result.workloads {
                write!(out, ",cycles:{name}")?;
            }
            writeln!(out)?;
            for (i, e) in result.evaluated.iter().enumerate() {
                write!(
                    out,
                    "{},{},{},{},{},{},{}",
                    e.architecture.name,
                    e.area(),
                    e.exec_time(),
                    e.cycles,
                    e.spills,
                    u8::from(result.is_on_front(i)),
                    e.test_cost().map_or(String::new(), |c| c.to_string()),
                )?;
                for c in &e.workload_cycles {
                    write!(out, ",{c}")?;
                }
                writeln!(out)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> JobSpec {
        JobSpec {
            space: Some("tiny".into()),
            workloads: vec!["crypt".into()],
            format: Format::Json,
            ..JobSpec::default()
        }
    }

    #[test]
    fn prepare_validates_and_run_renders() {
        let job = prepare(&tiny_spec()).unwrap();
        assert!(job.space_points() > 0);
        assert_eq!(job.workload_count(), 1);
        let out = job.run(None, None, None);
        assert!(!out.cancelled);
        assert!(out.output.starts_with('{'));
        assert!(out.output.contains("\"command\":\"explore\""));
        assert_eq!(out.cache, "none");
    }

    #[test]
    fn bad_specs_fail_at_prepare_time() {
        for (mutate, needle) in [
            (
                Box::new(|s: &mut JobSpec| s.space = Some("galaxy".into()))
                    as Box<dyn Fn(&mut JobSpec)>,
                "unknown space",
            ),
            (
                Box::new(|s: &mut JobSpec| s.workloads = vec!["nope".into()]),
                "unknown workload",
            ),
            (
                Box::new(|s: &mut JobSpec| s.workloads = vec!["crypt:-1".into()]),
                "must be finite and > 0",
            ),
            (
                Box::new(|s: &mut JobSpec| s.suite = Some("nope".into())),
                "unknown suite",
            ),
            (
                Box::new(|s: &mut JobSpec| s.budget = Some(0)),
                "budget must be at least 1",
            ),
            (
                Box::new(|s: &mut JobSpec| s.fault = Some("segfault".into())),
                "unknown fault",
            ),
        ] {
            let mut spec = tiny_spec();
            mutate(&mut spec);
            let err = prepare(&spec).unwrap_err();
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn runs_are_deterministic_and_cache_is_reported() {
        let spec = tiny_spec();
        let job = prepare(&spec).unwrap();
        let cache = SweepCache::in_memory();
        let cold = job.run(Some(&cache), None, None);
        let warm = job.run(Some(&cache), None, None);
        assert_eq!(cold.output, warm.output, "warm must be byte-identical");
        assert_eq!(cold.cache, "flushed");
        assert!(cache.hits() > 0);
    }

    #[test]
    #[should_panic(expected = "fault injection")]
    fn the_panic_fault_fires_in_run() {
        let mut spec = tiny_spec();
        spec.fault = Some("panic".into());
        // prepare() rejects it; build a PreparedJob around validation
        // the way the daemon never would, to pin where the panic fires.
        let job = PreparedJob {
            spec,
            space: TemplateSpace::tiny(),
            workloads: Vec::new(),
        };
        let _ = job.run(None, None, None);
    }
}
