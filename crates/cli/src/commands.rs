//! Subcommand implementations: `explore`, the six figure/table
//! regenerations, and `cache` management.

use std::io::Write;
use std::path::PathBuf;

use tta_arch::Architecture;
use tta_bench::{
    compare_suites, fig2, fig6, fig7, fig8, fig9, table1, table1_for, Experiments, Scale,
};
use tta_core::cache::SweepCache;
use tta_core::report::TextTable;
use tta_movec::schedule::Scheduler;
use tta_serve::client::run_remote;
use tta_serve::exec::{self, front_point_json};
use tta_serve::server::{install_signal_handlers, Server};
use tta_serve::spec::{cycles_parse, fidelity_parse, lift_parse, JobSpec, Strategy, TestModel};
use tta_sim::{SimOptions, Simulator, Trace};
use tta_workloads::{SuiteRegistry, Workload};

use crate::json;
use crate::opts::{unknown_flag, ArgCursor, CommonOpts, Format};
use crate::CliError;

// ---------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------

/// Opens the persistent cache named by `--cache-dir`, if any. A run
/// over a cache an interrupted run left behind resumes it: the entries
/// that run stored answer as hits.
fn open_cache(common: &CommonOpts) -> Result<Option<SweepCache>, CliError> {
    let Some(dir) = &common.cache_dir else {
        return Ok(None);
    };
    SweepCache::open(dir)
        .map(Some)
        .map_err(|e| CliError::runtime(format!("cannot open cache dir {}: {e}", dir.display())))
}

/// Prints hit/miss accounting on stderr (never stdout — stdout must be
/// byte-identical between cold and warm runs).
fn cache_report(cache: &Option<SweepCache>, err: &mut dyn Write) -> Result<(), CliError> {
    if let Some(cache) = cache {
        let compactions = cache.compactions();
        writeln!(
            err,
            "cache: {} hits, {} misses, {} checkpoints ({} KB), {compactions} compaction{} -> {}",
            cache.hits(),
            cache.misses(),
            cache.checkpoints(),
            cache.journal_bytes().div_ceil(1024),
            if compactions == 1 { "" } else { "s" },
            cache.path().display()
        )?;
    }
    Ok(())
}

/// The shared flush-failure warning line (stderr only — stdout stays
/// byte-identical across cache fates).
fn warn_flush_failure(msg: &str, err: &mut dyn Write) -> Result<(), CliError> {
    writeln!(
        err,
        "warning: sweep cache could not be persisted ({msg}); \
         results are complete but the next run will re-evaluate"
    )?;
    Ok(())
}

/// The flush warning for the figure-harness context: covers every
/// exploration the `Experiments` ran (fig2/fig8/fig9/table1 and the
/// `--full` comparison all sweep through it).
fn warn_experiments_cache(exp: &Experiments, err: &mut dyn Write) -> Result<(), CliError> {
    if let Some(msg) = exp.flush_failure() {
        warn_flush_failure(msg, err)?;
    }
    Ok(())
}

fn scale_of(common: &CommonOpts) -> Scale {
    if common.fast {
        Scale::Fast
    } else {
        Scale::Paper
    }
}

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Paper => "paper",
        Scale::Fast => "fast",
    }
}

/// Builds the figure experiment context, wired to the cache when one is
/// configured.
fn experiments<'c>(common: &CommonOpts, cache: &'c Option<SweepCache>) -> Experiments<'c> {
    let scale = scale_of(common);
    match cache {
        Some(c) => Experiments::with_cache(scale, c),
        None => Experiments::new(scale),
    }
}

// ---------------------------------------------------------------------
// explore & serve
// ---------------------------------------------------------------------

struct ExploreOpts {
    common: CommonOpts,
    spec: JobSpec,
    remote: Option<String>,
}

/// Builds a [`JobSpec`] from `ttadse explore` flags. The spec is the
/// same object `--remote` posts to the daemon, so every knob parsed
/// here round-trips the wire unchanged.
fn parse_explore(args: &[String]) -> Result<ExploreOpts, CliError> {
    let mut common = CommonOpts::default();
    let mut spec = JobSpec::default();
    let mut remote = None;
    let mut cursor = ArgCursor::new(args);
    while let Some(arg) = cursor.next() {
        if common.consume(&arg, &mut cursor)? {
            continue;
        }
        match arg.as_str() {
            "--space" => spec.space = Some(cursor.value_for("--space")?),
            "--workload" => spec
                .workloads
                .extend(cursor.value_for("--workload")?.split(',').map(String::from)),
            "--suite" => spec.suite = Some(cursor.value_for("--suite")?),
            "--rounds" => spec.rounds = Some(cursor.parse_for("--rounds")?),
            "--parallel" => spec.threads = None,
            "--serial" => spec.threads = Some(1),
            "--threads" => spec.threads = Some(cursor.parse_for("--threads")?),
            "--strategy" => {
                spec.strategy =
                    Strategy::parse(&cursor.value_for("--strategy")?).map_err(flag_err)?;
            }
            "--budget" => spec.budget = Some(cursor.parse_for("--budget")?),
            "--seed" => spec.seed = Some(cursor.parse_for("--seed")?),
            "--lift" => spec.lift = lift_parse(&cursor.value_for("--lift")?).map_err(flag_err)?,
            "--test-model" => {
                spec.test_model =
                    TestModel::parse(&cursor.value_for("--test-model")?).map_err(flag_err)?;
            }
            "--cycles" => {
                spec.cycles = cycles_parse(&cursor.value_for("--cycles")?).map_err(flag_err)?;
            }
            "--fidelity" => {
                spec.fidelity =
                    fidelity_parse(&cursor.value_for("--fidelity")?).map_err(flag_err)?;
            }
            "--bus-area" => spec.bus_area = Some(cursor.parse_for("--bus-area")?),
            "--bus-delay" => spec.bus_delay = Some(cursor.parse_for("--bus-delay")?),
            "--control-area" => spec.control_area = Some(cursor.parse_for("--control-area")?),
            "--remote" => remote = Some(cursor.value_for("--remote")?),
            "--priority" => spec.priority = cursor.parse_for("--priority")?,
            other => return Err(unknown_flag("explore", other)),
        }
    }
    spec.fast = common.fast;
    spec.format = common.format;
    spec.validate().map_err(flag_err)?;
    Ok(ExploreOpts {
        common,
        spec,
        remote,
    })
}

/// Maps a spec-layer usage message onto the CLI's exit-code-2 error.
fn flag_err(message: String) -> CliError {
    CliError::usage(message)
}

/// `ttadse explore`: one full sweep with every knob exposed — run
/// locally, or streamed from a `ttadse serve` daemon with `--remote`
/// (byte-identical stdout either way: both paths render through
/// `tta_serve::exec`).
pub fn explore(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Result<(), CliError> {
    let o = parse_explore(args)?;
    if let Some(url) = &o.remote {
        return explore_remote(url, &o, out, err);
    }
    let job = exec::prepare(&o.spec).map_err(flag_err)?;
    let cache = open_cache(&o.common)?;
    writeln!(
        err,
        "exploring {} template points x {} workload(s)...",
        job.space_points(),
        job.workload_count()
    )?;
    let result = job.run(cache.as_ref(), None, None);
    out.write_all(result.output.as_bytes())?;
    writeln!(
        err,
        "scheduler: {} runs for {} (point, workload) lookups",
        result.schedule.runs, result.schedule.lookups
    )?;
    if let Some(msg) = &result.flush_failure {
        warn_flush_failure(msg, err)?;
    }
    cache_report(&cache, err)
}

/// The `--remote` path: post the spec, stream progress to stderr, and
/// emit the daemon's rendered document verbatim on stdout.
fn explore_remote(
    url: &str,
    o: &ExploreOpts,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), CliError> {
    if o.common.cache_dir.is_some() {
        return Err(CliError::usage(
            "--cache-dir is a local option; with --remote the daemon owns the warm cache",
        ));
    }
    let summary = run_remote(url, &o.spec, out, err).map_err(CliError::runtime)?;
    writeln!(
        err,
        "remote job {}: {} evaluations, {} on the front, cache {}",
        summary.job, summary.evaluations, summary.front, summary.cache
    )?;
    if let Some(msg) = &summary.flush_failure {
        warn_flush_failure(msg, err)?;
    }
    if summary.cancelled {
        writeln!(
            err,
            "remote job {} was cancelled server-side; the output above is the partial render",
            summary.job
        )?;
    }
    Ok(())
}

/// `ttadse serve`: the sweep daemon. Serves until SIGTERM/SIGINT or
/// `POST /shutdown`, then drains jobs, flushes the warm cache and
/// exits 0.
pub fn serve_cmd(
    args: &[String],
    _out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), CliError> {
    let mut addr = String::from("127.0.0.1:7878");
    let mut workers = 2usize;
    let mut cache_dir: Option<PathBuf> = None;
    let mut cursor = ArgCursor::new(args);
    while let Some(arg) = cursor.next() {
        match arg.as_str() {
            "--addr" => addr = cursor.value_for("--addr")?,
            "--workers" => workers = cursor.parse_for("--workers")?,
            "--cache-dir" => {
                cache_dir = Some(PathBuf::from(cursor.value_for("--cache-dir")?));
            }
            other => return Err(unknown_flag("serve", other)),
        }
    }
    if workers == 0 {
        return Err(CliError::usage("--workers must be at least 1"));
    }
    let cache = match &cache_dir {
        Some(dir) => SweepCache::open(dir).map_err(|e| {
            CliError::runtime(format!("cannot open cache dir {}: {e}", dir.display()))
        })?,
        None => SweepCache::in_memory(),
    };
    install_signal_handlers();
    let server = Server::bind(&addr, workers, cache)
        .map_err(|e| CliError::runtime(format!("cannot bind {addr}: {e}")))?;
    let bound = server.local_addr()?;
    writeln!(
        err,
        "ttadse serve: listening on {bound} ({workers} workers, cache: {})",
        cache_dir
            .as_deref()
            .map_or_else(|| "in-memory".into(), |d| d.display().to_string())
    )?;
    server
        .run()
        .map_err(|e| CliError::runtime(format!("serve failed: {e}")))
}

// ---------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------

fn parse_common_only(cmd: &'static str, args: &[String]) -> Result<CommonOpts, CliError> {
    let mut common = CommonOpts::default();
    let mut cursor = ArgCursor::new(args);
    while let Some(arg) = cursor.next() {
        if !common.consume(&arg, &mut cursor)? {
            return Err(unknown_flag(cmd, &arg));
        }
    }
    Ok(common)
}

/// `ttadse fig2`: the 2-D (area, time) solution space.
pub fn fig2_cmd(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Result<(), CliError> {
    let common = parse_common_only("fig2", args)?;
    let scale = scale_of(&common);
    writeln!(err, "running Figure 2 at {} scale...", scale_label(scale))?;
    let cache = open_cache(&common)?;
    let mut exp = experiments(&common, &cache);
    let fig = fig2(&mut exp);
    match common.format {
        Format::Table => writeln!(out, "{fig}")?,
        Format::Json => {
            let doc = json::object([
                ("figure", json::string("fig2")),
                ("scale", json::string(scale_label(scale))),
                (
                    "points",
                    json::array(fig.points.iter().map(|(a, t, on)| {
                        json::object([
                            ("area", json::number(*a)),
                            ("exec_time", json::number(*t)),
                            ("on_front", json::boolean(*on)),
                        ])
                    })),
                ),
                (
                    "front",
                    json::array(fig.front.iter().map(|(a, t, name)| {
                        json::object([
                            ("area", json::number(*a)),
                            ("exec_time", json::number(*t)),
                            ("architecture", json::string(name)),
                        ])
                    })),
                ),
                ("infeasible", json::int(fig.infeasible as u64)),
            ]);
            writeln!(out, "{doc}")?;
        }
        Format::Csv => {
            writeln!(out, "area,exec_time,on_front")?;
            for (a, t, on) in &fig.points {
                writeln!(out, "{a:.1},{t:.1},{}", u8::from(*on))?;
            }
        }
    }
    warn_experiments_cache(&exp, err)?;
    cache_report(&cache, err)
}

/// `ttadse fig6`: identical FUs, different test cost.
pub fn fig6_cmd(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Result<(), CliError> {
    let common = parse_common_only("fig6", args)?;
    let cache = open_cache(&common)?;
    let mut exp = experiments(&common, &cache);
    let fig = fig6(&mut exp);
    match common.format {
        Format::Table => writeln!(out, "{fig}")?,
        Format::Json => {
            let doc = json::object([
                ("figure", json::string("fig6")),
                ("np", json::int(fig.np as u64)),
                (
                    "dedicated",
                    json::object([
                        ("cd", json::int(u64::from(fig.dedicated.0))),
                        ("ftfu", json::number(fig.dedicated.1)),
                    ]),
                ),
                (
                    "shared",
                    json::object([
                        ("cd", json::int(u64::from(fig.shared.0))),
                        ("ftfu", json::number(fig.shared.1)),
                    ]),
                ),
                (
                    "ratio_form",
                    json::array([
                        json::number(fig.ratio_form.0),
                        json::number(fig.ratio_form.1),
                    ]),
                ),
            ]);
            writeln!(out, "{doc}")?;
        }
        Format::Csv => {
            writeln!(out, "unit,cd,ftfu")?;
            writeln!(out, "dedicated,{},{}", fig.dedicated.0, fig.dedicated.1)?;
            writeln!(out, "shared,{},{}", fig.shared.0, fig.shared.1)?;
        }
    }
    warn_experiments_cache(&exp, err)?;
    cache_report(&cache, err)
}

/// `ttadse fig7`: VLIW test access and order. No sweep runs, but the
/// common cache flags are still honoured (an attached cache reports
/// zero traffic) so one flag set works across every subcommand.
pub fn fig7_cmd(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Result<(), CliError> {
    let common = parse_common_only("fig7", args)?;
    let cache = open_cache(&common)?;
    let fig = fig7();
    match common.format {
        Format::Table => writeln!(out, "{fig}")?,
        Format::Json => {
            let doc = json::object([
                ("figure", json::string("fig7")),
                (
                    "direct",
                    json::array(fig.direct.iter().map(|s| json::string(s))),
                ),
                (
                    "order",
                    json::array(fig.order.iter().map(|s| json::string(s))),
                ),
            ]);
            writeln!(out, "{doc}")?;
        }
        Format::Csv => {
            writeln!(out, "role,component")?;
            for c in &fig.direct {
                writeln!(out, "direct,{c}")?;
            }
            for c in &fig.order {
                writeln!(out, "order,{c}")?;
            }
        }
    }
    cache_report(&cache, err)
}

/// `ttadse fig8`: the lifted 3-D Pareto set; `--full` additionally
/// runs the true 3-D co-exploration and reports what the Pareto-only
/// lift misses.
pub fn fig8_cmd(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Result<(), CliError> {
    let mut common = CommonOpts::default();
    let mut full = false;
    let mut cursor = ArgCursor::new(args);
    while let Some(arg) = cursor.next() {
        if common.consume(&arg, &mut cursor)? {
            continue;
        }
        match arg.as_str() {
            "--full" => full = true,
            other => return Err(unknown_flag("fig8", other)),
        }
    }
    let scale = scale_of(&common);
    writeln!(err, "running Figure 8 at {} scale...", scale_label(scale))?;
    let cache = open_cache(&common)?;
    let mut exp = experiments(&common, &cache);
    if full {
        return fig8_full_render(&mut exp, &common, out, err, &cache);
    }
    let fig = fig8(&mut exp);
    match common.format {
        Format::Table => writeln!(out, "{fig}")?,
        Format::Json => {
            let doc = json::object([
                ("figure", json::string("fig8")),
                ("scale", json::string(scale_label(scale))),
                (
                    "points",
                    json::array(fig.points.iter().map(|(a, t, tc, name)| {
                        json::object([
                            ("area", json::number(*a)),
                            ("exec_time", json::number(*t)),
                            ("test_cost", json::number(*tc)),
                            ("architecture", json::string(name)),
                        ])
                    })),
                ),
                ("projection_holds", json::boolean(fig.projection_holds)),
                ("test_spread", json::number(fig.test_spread)),
            ]);
            writeln!(out, "{doc}")?;
        }
        Format::Csv => {
            writeln!(out, "area,exec_time,test_cost,architecture")?;
            for (a, t, tc, name) in &fig.points {
                writeln!(out, "{a:.1},{t:.1},{tc:.1},{name}")?;
            }
        }
    }
    warn_experiments_cache(&exp, err)?;
    cache_report(&cache, err)
}

/// Renders `ttadse fig8 --full`: the co-explored 3-D front compared
/// with the paper's Pareto-only lift.
fn fig8_full_render(
    exp: &mut Experiments,
    common: &CommonOpts,
    out: &mut dyn Write,
    err: &mut dyn Write,
    cache: &Option<SweepCache>,
) -> Result<(), CliError> {
    let fig = tta_bench::fig8_full(exp);
    match common.format {
        Format::Table => writeln!(out, "{fig}")?,
        Format::Json => {
            let doc = json::object([
                ("figure", json::string("fig8-full")),
                ("scale", json::string(scale_label(exp.scale))),
                ("lift", json::string("full")),
                ("design_front", json::int(fig.design_front as u64)),
                ("full_front", json::int(fig.full_front as u64)),
                ("missed_by_pareto_lift", json::int(fig.missed.len() as u64)),
                (
                    "missed",
                    json::array(fig.missed.iter().map(|(a, t, tc, name)| {
                        json::object([
                            ("area", json::number(*a)),
                            ("exec_time", json::number(*t)),
                            ("test_cost", json::number(*tc)),
                            ("architecture", json::string(name)),
                        ])
                    })),
                ),
                ("projection_holds", json::boolean(fig.projection_holds)),
            ]);
            writeln!(out, "{doc}")?;
        }
        Format::Csv => {
            writeln!(
                out,
                "area,exec_time,test_cost,architecture,missed_by_pareto_lift"
            )?;
            for (a, t, tc, name) in &fig.missed {
                writeln!(out, "{a:.1},{t:.1},{tc:.1},{name},1")?;
            }
        }
    }
    warn_experiments_cache(exp, err)?;
    cache_report(cache, err)
}

/// `ttadse fig9`: the weighted-norm selection.
pub fn fig9_cmd(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Result<(), CliError> {
    let common = parse_common_only("fig9", args)?;
    let scale = scale_of(&common);
    writeln!(err, "running Figure 9 at {} scale...", scale_label(scale))?;
    let cache = open_cache(&common)?;
    let mut exp = experiments(&common, &cache);
    let fig = fig9(&mut exp);
    match common.format {
        Format::Table => writeln!(out, "{fig}")?,
        Format::Json => {
            let doc = json::object([
                ("figure", json::string("fig9")),
                ("scale", json::string(scale_label(scale))),
                ("selected", front_point_json(&fig.selected)),
                (
                    "alternatives",
                    json::array(fig.alternatives.iter().map(|(label, name)| {
                        json::object([
                            ("label", json::string(label)),
                            ("architecture", json::string(name)),
                        ])
                    })),
                ),
            ]);
            writeln!(out, "{doc}")?;
        }
        Format::Csv => {
            writeln!(out, "label,architecture")?;
            writeln!(out, "selected,{}", fig.selected.architecture.name)?;
            for (label, name) in &fig.alternatives {
                writeln!(out, "{},{name}", label.replace(',', ";"))?;
            }
        }
    }
    warn_experiments_cache(&exp, err)?;
    cache_report(&cache, err)
}

/// `ttadse table1`: full scan vs the functional methodology.
pub fn table1_cmd(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), CliError> {
    let mut common = CommonOpts::default();
    let mut figure9 = false;
    let mut cursor = ArgCursor::new(args);
    while let Some(arg) = cursor.next() {
        if common.consume(&arg, &mut cursor)? {
            continue;
        }
        match arg.as_str() {
            "--figure9" => figure9 = true,
            other => return Err(unknown_flag("table1", other)),
        }
    }
    let scale = scale_of(&common);
    let cache = open_cache(&common)?;
    let mut exp = experiments(&common, &cache);
    let table = if figure9 {
        table1_for(&mut exp, tta_arch::Architecture::figure9())
    } else {
        writeln!(
            err,
            "selecting the architecture at {} scale...",
            scale_label(scale)
        )?;
        table1(&mut exp)
    };
    match common.format {
        Format::Table => writeln!(out, "{table}")?,
        Format::Json => {
            let (fs, ours) = table.totals();
            let doc = json::object([
                ("table", json::string("table1")),
                ("architecture", json::string(&table.architecture.name)),
                (
                    "rows",
                    json::array(table.rows.iter().map(|r| {
                        json::object([
                            ("component", json::string(&r.component)),
                            ("full_scan", json::int(r.full_scan as u64)),
                            ("ours", json::number(r.ours)),
                            ("nl", json::int(r.nl as u64)),
                            ("ftfu", json::opt_number(r.ftfu)),
                            ("ftrf", json::opt_number(r.ftrf)),
                            ("fts", json::number(r.fts)),
                            ("coverage_pct", json::number(r.coverage)),
                            ("excluded", json::boolean(r.excluded)),
                        ])
                    })),
                ),
                (
                    "totals",
                    json::object([
                        ("full_scan", json::number(fs)),
                        ("ours", json::number(ours)),
                    ]),
                ),
            ]);
            writeln!(out, "{doc}")?;
        }
        Format::Csv => {
            writeln!(
                out,
                "component,full_scan,ours,nl,ftfu,ftrf,fts,coverage_pct,excluded"
            )?;
            for r in &table.rows {
                writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{}",
                    r.component,
                    r.full_scan,
                    r.ours,
                    r.nl,
                    r.ftfu.map_or(String::new(), |v| v.to_string()),
                    r.ftrf.map_or(String::new(), |v| v.to_string()),
                    r.fts,
                    r.coverage,
                    u8::from(r.excluded),
                )?;
            }
        }
    }
    warn_experiments_cache(&exp, err)?;
    cache_report(&cache, err)
}

// ---------------------------------------------------------------------
// sim / asm
// ---------------------------------------------------------------------

/// `--arch` selector for `ttadse sim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimArch {
    /// The maximal point of the scale's template space — the one
    /// machine guaranteed to schedule every registered workload.
    Max,
    /// The paper's published Figure 9 machine.
    Figure9,
}

fn parse_sim_arch(s: &str) -> Result<SimArch, CliError> {
    match s {
        "max" => Ok(SimArch::Max),
        "figure9" => Ok(SimArch::Figure9),
        other => Err(CliError::usage(format!(
            "unknown --arch {other:?} (expected max or figure9)"
        ))),
    }
}

fn sim_arch(choice: SimArch, scale: Scale) -> Architecture {
    match choice {
        SimArch::Figure9 => Architecture::figure9(),
        SimArch::Max => {
            let space = scale.space();
            space.point(space.len() - 1)
        }
    }
}

/// The per-cycle move log as table rows / JSON objects.
fn render_trace_table(trace: &Trace, out: &mut dyn Write) -> Result<(), CliError> {
    let mut t = TextTable::new(["cycle", "instr", "moves"]);
    for step in &trace.steps {
        let moves = step
            .moves
            .iter()
            .map(|m| format!("{} -> {} = {}", m.src, m.dst, m.value))
            .collect::<Vec<_>>()
            .join("; ");
        t.row([step.cycle.to_string(), step.instr.to_string(), moves]);
    }
    writeln!(out, "{t}")?;
    Ok(())
}

fn trace_json(trace: &Trace) -> String {
    json::array(trace.steps.iter().map(|step| {
        json::object([
            ("cycle", json::int(step.cycle)),
            ("instr", json::int(step.instr as u64)),
            (
                "moves",
                json::array(step.moves.iter().map(|m| {
                    json::object([
                        ("src", json::string(&m.src.to_string())),
                        ("dst", json::string(&m.dst.to_string())),
                        ("value", json::int(m.value)),
                    ])
                })),
            ),
        ])
    }))
}

/// `ttadse sim`: execute a registered workload (or an assembled
/// program) on the cycle-accurate simulator and report executed vs
/// modeled cycles. A workload run exits non-zero when the simulator
/// disagrees with the analytic model, so it doubles as a drift check.
pub fn sim_cmd(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Result<(), CliError> {
    let mut common = CommonOpts::default();
    let mut workload: Option<String> = None;
    let mut program: Option<PathBuf> = None;
    let mut arch_choice: Option<SimArch> = None;
    let mut trace_flag = false;
    let mut cursor = ArgCursor::new(args);
    while let Some(arg) = cursor.next() {
        if common.consume(&arg, &mut cursor)? {
            continue;
        }
        match arg.as_str() {
            "--workload" => workload = Some(cursor.value_for("--workload")?),
            "--program" => program = Some(PathBuf::from(cursor.value_for("--program")?)),
            "--arch" => arch_choice = Some(parse_sim_arch(&cursor.value_for("--arch")?)?),
            "--trace" => trace_flag = true,
            other => return Err(unknown_flag("sim", other)),
        }
    }
    match (workload, program) {
        (Some(name), None) => sim_workload(&name, arch_choice, trace_flag, &common, out, err),
        (None, Some(path)) => sim_program(&path, arch_choice, trace_flag, &common, out, err),
        _ => Err(CliError::usage(
            "ttadse sim needs exactly one of --workload NAME or --program FILE",
        )),
    }
}

fn sim_workload(
    name: &str,
    arch_choice: Option<SimArch>,
    trace_flag: bool,
    common: &CommonOpts,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), CliError> {
    let scale = scale_of(common);
    let registry = SuiteRegistry::standard();
    let w: Workload = registry.build(name, &scale.suite_params()).ok_or_else(|| {
        CliError::usage(format!(
            "unknown workload {name:?} (expected {})",
            registry.workload_names().join(", ")
        ))
    })?;
    let arch = sim_arch(arch_choice.unwrap_or(SimArch::Max), scale);
    writeln!(err, "simulating {} on {}...", w.name, arch.name)?;
    let schedule = Scheduler::new(&arch).run(&w.dfg).map_err(|e| {
        CliError::runtime(format!(
            "{} does not schedule on {}: {e}",
            w.name, arch.name
        ))
    })?;
    let prog = tta_sim::lower(&arch, &w.dfg, &schedule, &w.inputs, &w.mem)
        .map_err(|e| CliError::runtime(format!("lowering failed: {e}")))?;
    let options = SimOptions {
        allow_register_overflow: true, // lowered spills may exceed hw registers
        ..Default::default()
    };
    let trace = Simulator::new(&arch)
        .options(options)
        .run(&prog)
        .map_err(|e| CliError::runtime(format!("simulation failed: {e}")))?;
    let golden = {
        let mut mem = w.mem.clone();
        w.dfg.eval(&w.inputs, &mut mem)
    };
    let scheduled = u64::from(schedule.cycles);
    let delta = trace.cycles as i64 - scheduled as i64;
    let outputs_match = trace.outputs == golden;
    match common.format {
        Format::Table => {
            writeln!(out, "workload {} on {}", w.name, arch.name)?;
            writeln!(out, "scheduled cycles (model):   {scheduled}")?;
            writeln!(out, "executed cycles (simulate): {}", trace.cycles)?;
            writeln!(out, "delta (simulate - model):   {delta}")?;
            writeln!(
                out,
                "outputs match golden: {}",
                if outputs_match { "yes" } else { "NO" }
            )?;
            if trace_flag {
                render_trace_table(&trace, out)?;
            }
        }
        Format::Json => {
            let mut fields = vec![
                ("command", json::string("sim")),
                ("workload", json::string(&w.name)),
                ("architecture", json::string(&arch.name)),
                ("scheduled_cycles", json::int(scheduled)),
                ("executed_cycles", json::int(trace.cycles)),
                ("delta", delta.to_string()),
                ("outputs_match", json::boolean(outputs_match)),
                (
                    "outputs",
                    json::array(trace.outputs.iter().map(|&v| json::int(v))),
                ),
            ];
            if trace_flag {
                fields.push(("trace", trace_json(&trace)));
            }
            writeln!(out, "{}", json::object(fields))?;
        }
        Format::Csv => {
            writeln!(
                out,
                "workload,architecture,scheduled_cycles,executed_cycles,delta,outputs_match"
            )?;
            writeln!(
                out,
                "{},{},{scheduled},{},{delta},{}",
                w.name,
                arch.name,
                trace.cycles,
                u8::from(outputs_match),
            )?;
        }
    }
    if delta != 0 || !outputs_match {
        return Err(CliError::runtime(format!(
            "simulator disagrees with the analytic model on {} / {} \
             (delta {delta}, outputs match: {outputs_match})",
            w.name, arch.name
        )));
    }
    Ok(())
}

fn sim_program(
    path: &std::path::Path,
    arch_choice: Option<SimArch>,
    trace_flag: bool,
    common: &CommonOpts,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {}: {e}", path.display())))?;
    let prog = tta_asm::assemble(&text)
        .map_err(|e| CliError::runtime(format!("{}: {e}", path.display())))?;
    // Hand-written programs run under the strict rules: declaring more
    // registers than the machine has is an error, not a spill.
    let arch = sim_arch(arch_choice.unwrap_or(SimArch::Figure9), scale_of(common));
    writeln!(err, "simulating {} on {}...", path.display(), arch.name)?;
    let trace = Simulator::new(&arch)
        .run(&prog)
        .map_err(|e| CliError::runtime(format!("simulation failed: {e}")))?;
    let outputs: Vec<(String, u64)> = prog
        .outputs
        .iter()
        .zip(&trace.outputs)
        .map(|(loc, &v)| (format!("{}[{}]", loc.rf, loc.reg), v))
        .collect();
    match common.format {
        Format::Table => {
            writeln!(out, "program {} on {}", path.display(), arch.name)?;
            writeln!(out, "executed cycles: {}", trace.cycles)?;
            for (loc, v) in &outputs {
                writeln!(out, "  {loc} = {v}")?;
            }
            if trace_flag {
                render_trace_table(&trace, out)?;
            }
        }
        Format::Json => {
            let mut fields = vec![
                ("command", json::string("sim")),
                ("program", json::string(&path.display().to_string())),
                ("architecture", json::string(&arch.name)),
                ("executed_cycles", json::int(trace.cycles)),
                (
                    "outputs",
                    json::array(outputs.iter().map(|(loc, v)| {
                        json::object([("location", json::string(loc)), ("value", json::int(*v))])
                    })),
                ),
            ];
            if trace_flag {
                fields.push(("trace", trace_json(&trace)));
            }
            writeln!(out, "{}", json::object(fields))?;
        }
        Format::Csv => {
            writeln!(out, "location,value")?;
            for (loc, v) in &outputs {
                writeln!(out, "{loc},{v}")?;
            }
        }
    }
    Ok(())
}

/// `ttadse asm FILE [--check]`: assemble FILE and print its canonical
/// disassembly; `--check` fails unless FILE already is canonical (so CI
/// can `cmp`-assert byte-identity without a rewrite).
pub fn asm_cmd(args: &[String], out: &mut dyn Write, _err: &mut dyn Write) -> Result<(), CliError> {
    let mut file: Option<PathBuf> = None;
    let mut check = false;
    for arg in ArgCursor::new(args) {
        match arg.as_str() {
            "--check" => check = true,
            other if !other.starts_with('-') && file.is_none() => {
                file = Some(PathBuf::from(other));
            }
            other => return Err(unknown_flag("asm", other)),
        }
    }
    let Some(path) = file else {
        return Err(CliError::usage("ttadse asm needs a program file"));
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| CliError::runtime(format!("cannot read {}: {e}", path.display())))?;
    let program = tta_asm::assemble(&text)
        .map_err(|e| CliError::runtime(format!("{}: {e}", path.display())))?;
    let canonical = tta_asm::disassemble(&program);
    // The assembler's round-trip invariant, kept hot on every CLI use.
    let reparsed = tta_asm::assemble(&canonical)
        .map_err(|e| CliError::runtime(format!("round-trip failure: {e}")))?;
    if reparsed != program {
        return Err(CliError::runtime(
            "round-trip failure: canonical text decodes differently",
        ));
    }
    if check && text != canonical {
        return Err(CliError::runtime(format!(
            "{} is not in canonical form (pipe `ttadse asm` output back to rewrite it)",
            path.display()
        )));
    }
    write!(out, "{canonical}")?;
    Ok(())
}

// ---------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------

/// `ttadse workloads [list]`: the registered workloads and suites;
/// `ttadse workloads compare --suites a,b,…`: sweep the space once per
/// suite and show how the weighted-norm selection moves.
pub fn workloads_cmd(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), CliError> {
    let mut common = CommonOpts::default();
    let mut action: Option<String> = None;
    let mut suites: Option<String> = None;
    let mut cursor = ArgCursor::new(args);
    while let Some(arg) = cursor.next() {
        if common.consume(&arg, &mut cursor)? {
            continue;
        }
        match arg.as_str() {
            "list" | "compare" if action.is_none() => action = Some(arg),
            "--suites" => suites = Some(cursor.value_for("--suites")?),
            other => return Err(unknown_flag("workloads", other)),
        }
    }
    let registry = SuiteRegistry::standard();
    match action.as_deref().unwrap_or("list") {
        "list" => {
            if suites.is_some() {
                return Err(CliError::usage(
                    "--suites only applies to `ttadse workloads compare`",
                ));
            }
            workloads_list(&registry, &common, out)
        }
        "compare" => workloads_compare(&registry, &common, suites, out, err),
        _ => unreachable!("action is validated above"),
    }
}

fn workloads_list(
    registry: &SuiteRegistry,
    common: &CommonOpts,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let scale = scale_of(common);
    let params = scale.suite_params();
    match common.format {
        Format::Table => {
            writeln!(out, "workloads at {} scale:", scale_label(scale))?;
            let mut t = TextTable::new(["name", "instance", "ops", "trace iters"]);
            for name in registry.workload_names() {
                let w = registry.build(name, &params).expect("listed => buildable");
                t.row([
                    name.to_string(),
                    w.name.clone(),
                    w.dfg.operation_count().to_string(),
                    w.trace_iterations.to_string(),
                ]);
            }
            writeln!(out, "{t}")?;
            writeln!(out, "suites:")?;
            let mut t = TextTable::new(["name", "members", "description"]);
            for s in registry.suites() {
                let members = s
                    .members
                    .iter()
                    .map(|(n, w)| format!("{n}:{w}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                t.row([s.name.clone(), members, s.description.clone()]);
            }
            writeln!(out, "{t}")?;
        }
        Format::Json => {
            let doc = json::object([
                ("command", json::string("workloads")),
                ("scale", json::string(scale_label(scale))),
                (
                    "workloads",
                    json::array(registry.workload_names().iter().map(|name| {
                        let w = registry.build(name, &params).expect("listed => buildable");
                        json::object([
                            ("name", json::string(name)),
                            ("instance", json::string(&w.name)),
                            ("operations", json::int(w.dfg.operation_count() as u64)),
                            ("trace_iterations", json::int(w.trace_iterations)),
                        ])
                    })),
                ),
                (
                    "suites",
                    json::array(registry.suites().iter().map(|s| {
                        json::object([
                            ("name", json::string(&s.name)),
                            ("description", json::string(&s.description)),
                            (
                                "members",
                                json::array(s.members.iter().map(|(n, w)| {
                                    json::object([
                                        ("workload", json::string(n)),
                                        ("weight", json::number(*w)),
                                    ])
                                })),
                            ),
                        ])
                    })),
                ),
            ]);
            writeln!(out, "{doc}")?;
        }
        Format::Csv => {
            writeln!(out, "suite,workload,weight")?;
            for s in registry.suites() {
                for (n, w) in &s.members {
                    writeln!(out, "{},{n},{w}", s.name)?;
                }
            }
        }
    }
    Ok(())
}

fn workloads_compare(
    registry: &SuiteRegistry,
    common: &CommonOpts,
    suites: Option<String>,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), CliError> {
    let scale = scale_of(common);
    let names: Vec<String> = suites
        .as_deref()
        .unwrap_or("paper,dsp,control")
        .split(',')
        .map(String::from)
        .collect();
    let cache = open_cache(common)?;
    writeln!(
        err,
        "comparing {} suite(s) at {} scale...",
        names.len(),
        scale_label(scale)
    )?;
    let cmp = compare_suites(scale, &names, cache.as_ref()).map_err(|bad| {
        CliError::usage(format!(
            "unknown suite {bad:?} (expected {})",
            registry.suite_names().join(", ")
        ))
    })?;
    match common.format {
        Format::Table => {
            writeln!(out, "{cmp}")?;
            let distinct: std::collections::HashSet<&str> = cmp
                .rows
                .iter()
                .filter_map(|r| r.selected.as_ref())
                .map(|e| e.architecture.name.as_str())
                .collect();
            writeln!(
                out,
                "{} suite(s) -> {} distinct selected architecture(s)",
                cmp.rows.len(),
                distinct.len()
            )?;
        }
        Format::Json => {
            let doc = json::object([
                ("command", json::string("workloads-compare")),
                ("scale", json::string(scale_label(scale))),
                ("space_points", json::int(cmp.space_points as u64)),
                (
                    "suites",
                    json::array(cmp.rows.iter().map(|r| {
                        json::object([
                            ("suite", json::string(&r.suite)),
                            (
                                "members",
                                json::array(r.members.iter().map(|(n, w)| {
                                    json::object([
                                        ("workload", json::string(n)),
                                        ("weight", json::number(*w)),
                                    ])
                                })),
                            ),
                            ("feasible", json::int(r.feasible as u64)),
                            ("infeasible", json::int(r.infeasible as u64)),
                            (
                                "blocked",
                                json::array(r.members.iter().zip(&r.blocked).map(|((n, _), b)| {
                                    json::object([
                                        ("workload", json::string(n)),
                                        ("blocked", json::int(*b as u64)),
                                    ])
                                })),
                            ),
                            (
                                "cycle_deltas",
                                json::array(r.members.iter().zip(&r.cycle_deltas).map(
                                    |((n, _), d)| {
                                        json::object([
                                            ("workload", json::string(n)),
                                            (
                                                "delta",
                                                d.map_or_else(|| "null".into(), |v| v.to_string()),
                                            ),
                                        ])
                                    },
                                )),
                            ),
                            (
                                "selected",
                                r.selected
                                    .as_ref()
                                    .map_or_else(|| "null".into(), front_point_json),
                            ),
                        ])
                    })),
                ),
            ]);
            writeln!(out, "{doc}")?;
        }
        Format::Csv => {
            writeln!(
                out,
                "suite,selected,area,exec_time,test_cost,feasible,infeasible,cycle_deltas"
            )?;
            for r in &cmp.rows {
                // Per-member sim-minus-model deltas, ';'-joined in
                // members order (blank when a member did not execute).
                let deltas = r
                    .cycle_deltas
                    .iter()
                    .map(|d| d.map_or(String::new(), |v| v.to_string()))
                    .collect::<Vec<_>>()
                    .join(";");
                match &r.selected {
                    Some(e) => writeln!(
                        out,
                        "{},{},{},{},{},{},{},{deltas}",
                        r.suite,
                        e.architecture.name,
                        e.area(),
                        e.exec_time(),
                        e.test_cost().map_or(String::new(), |c| c.to_string()),
                        r.feasible,
                        r.infeasible,
                    )?,
                    None => writeln!(out, "{},,,,,0,{},{deltas}", r.suite, r.infeasible)?,
                }
            }
        }
    }
    if let Some(msg) = &cmp.flush_failure {
        warn_flush_failure(msg, err)?;
    }
    cache_report(&cache, err)
}

// ---------------------------------------------------------------------
// netlist
// ---------------------------------------------------------------------

/// Resolves a `--space` name for the netlist subcommand (the explore
/// path resolves the same names inside `tta_serve::exec`).
fn netlist_space(name: &str) -> Result<tta_arch::template::TemplateSpace, CliError> {
    use tta_arch::template::TemplateSpace;
    match name {
        "paper" => Ok(TemplateSpace::paper_default()),
        "fast" => Ok(TemplateSpace::fast_default()),
        "tiny" => Ok(TemplateSpace::tiny()),
        "huge" => Ok(TemplateSpace::huge()),
        other => Err(CliError::usage(format!(
            "unknown space {other:?} (expected paper, fast, tiny or huge)"
        ))),
    }
}

/// `ttadse netlist`: elaborate one explored template point down to its
/// gate-level netlist, report loaded STA + fanout statistics, optionally
/// run the structural lint pass (`--lint`, non-zero exit on findings)
/// and export structural Verilog (`--verilog PATH`, `-` for stdout).
///
/// When the Verilog goes to stdout the summary moves to stderr, so
/// `ttadse netlist --verilog - | iverilog …`-style pipelines see only
/// the module text.
pub fn netlist_cmd(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), CliError> {
    let mut common = CommonOpts::default();
    let mut space_name: Option<String> = None;
    let mut point = 0usize;
    let mut clock: Option<f64> = None;
    let mut verilog: Option<String> = None;
    let mut lint_flag = false;
    let mut cursor = ArgCursor::new(args);
    while let Some(arg) = cursor.next() {
        if common.consume(&arg, &mut cursor)? {
            continue;
        }
        match arg.as_str() {
            "--space" => space_name = Some(cursor.value_for("--space")?),
            "--point" => point = cursor.parse_for("--point")?,
            "--clock" => clock = Some(cursor.parse_for("--clock")?),
            "--verilog" => verilog = Some(cursor.value_for("--verilog")?),
            "--lint" => lint_flag = true,
            other => return Err(unknown_flag("netlist", other)),
        }
    }
    let space = match &space_name {
        Some(name) => netlist_space(name)?,
        None => scale_of(&common).space(),
    };
    if point >= space.len() {
        return Err(CliError::usage(format!(
            "--point {point} is out of range (the space has {} points)",
            space.len()
        )));
    }
    let arch = space.point(point);
    writeln!(err, "elaborating point {point}: {}...", arch.name)?;
    let nl = tta_netlist::elaborate(&arch)
        .map_err(|e| CliError::runtime(format!("elaboration failed: {e}")))?;
    let stats = tta_netlist::NetlistStats::of(&nl);
    let report = tta_netlist::timing::sta(
        &nl,
        clock.unwrap_or_else(|| tta_netlist::timing::min_clock_period(&nl)),
    );
    let load = tta_netlist::timing::load_distribution(&nl);
    let diagnostics = if lint_flag {
        tta_netlist::lint(&nl)
    } else {
        Vec::new()
    };
    // `--verilog -` claims stdout for the module text; the summary then
    // renders to stderr so both stay machine-readable.
    let verilog_to_stdout = verilog.as_deref() == Some("-");
    let summary: &mut dyn Write = if verilog_to_stdout { err } else { out };
    match common.format {
        Format::Table => {
            writeln!(summary, "{stats}")?;
            writeln!(
                summary,
                "loaded STA: min clock {:.2}, worst slack {:+.2} @ clock {:.2}, {} violation(s)",
                report.critical_path, report.worst_slack, report.clock, report.violations
            )?;
            writeln!(
                summary,
                "fanout: {} nets, mean {:.2}, max {} (net {})",
                load.nets,
                load.mean_fanout(),
                load.max_fanout,
                load.max_net,
            )?;
            if lint_flag {
                for d in &diagnostics {
                    writeln!(summary, "lint: {d}")?;
                }
                writeln!(summary, "lint: {} diagnostic(s)", diagnostics.len())?;
            }
        }
        Format::Json => {
            let mut fields = vec![
                ("command", json::string("netlist")),
                ("architecture", json::string(&arch.name)),
                ("point", json::int(point as u64)),
                (
                    "stats",
                    json::object([
                        ("inputs", json::int(stats.inputs as u64)),
                        ("outputs", json::int(stats.outputs as u64)),
                        ("gates", json::int(stats.gates as u64)),
                        ("dffs", json::int(stats.dffs as u64)),
                        ("area", json::number(stats.area)),
                        ("depth", json::int(u64::from(stats.depth))),
                    ]),
                ),
                (
                    "sta",
                    json::object([
                        ("clock", json::number(report.clock)),
                        ("min_clock", json::number(report.critical_path)),
                        ("worst_slack", json::number(report.worst_slack)),
                        ("violations", json::int(report.violations as u64)),
                    ]),
                ),
                (
                    "fanout",
                    json::object([
                        ("nets", json::int(load.nets as u64)),
                        ("total_readers", json::int(load.total_readers as u64)),
                        ("mean", json::number(load.mean_fanout())),
                        ("max", json::int(load.max_fanout as u64)),
                    ]),
                ),
            ];
            if lint_flag {
                fields.push((
                    "lint",
                    json::array(diagnostics.iter().map(|d| {
                        json::object([
                            ("kind", json::string(d.kind.code())),
                            ("message", json::string(&d.message)),
                        ])
                    })),
                ));
            }
            writeln!(summary, "{}", json::object(fields))?;
        }
        Format::Csv => {
            writeln!(
                summary,
                "architecture,inputs,outputs,gates,dffs,area,min_clock,worst_slack,max_fanout,lint_diagnostics"
            )?;
            writeln!(
                summary,
                "{},{},{},{},{},{},{},{},{},{}",
                arch.name,
                stats.inputs,
                stats.outputs,
                stats.gates,
                stats.dffs,
                stats.area,
                report.critical_path,
                report.worst_slack,
                load.max_fanout,
                if lint_flag {
                    diagnostics.len().to_string()
                } else {
                    String::new()
                },
            )?;
        }
    }
    if let Some(path) = &verilog {
        let text = tta_netlist::to_verilog(&nl);
        if verilog_to_stdout {
            out.write_all(text.as_bytes())?;
        } else {
            std::fs::write(path, &text)
                .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
            writeln!(err, "wrote {} bytes of Verilog to {path}", text.len())?;
        }
    }
    if lint_flag && !diagnostics.is_empty() {
        return Err(CliError::runtime(format!(
            "lint found {} diagnostic(s) in {}",
            diagnostics.len(),
            arch.name
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// cache
// ---------------------------------------------------------------------

/// `ttadse cache <stats|clear> --cache-dir DIR`.
pub fn cache_cmd(
    args: &[String],
    out: &mut dyn Write,
    _err: &mut dyn Write,
) -> Result<(), CliError> {
    let mut common = CommonOpts::default();
    let mut action: Option<String> = None;
    let mut cursor = ArgCursor::new(args);
    while let Some(arg) = cursor.next() {
        if common.consume(&arg, &mut cursor)? {
            continue;
        }
        match arg.as_str() {
            "stats" | "clear" if action.is_none() => action = Some(arg),
            other => return Err(unknown_flag("cache", other)),
        }
    }
    let action = action.unwrap_or_else(|| "stats".into());
    let Some(dir) = &common.cache_dir else {
        return Err(CliError::usage("ttadse cache needs --cache-dir"));
    };
    let cache = SweepCache::open(dir)
        .map_err(|e| CliError::runtime(format!("cannot open cache dir {}: {e}", dir.display())))?;
    match action.as_str() {
        "stats" => {
            // An interrupted cold run may have left only a journal.
            let exists = cache.path().exists() || cache.journal_path().exists();
            match common.format {
                Format::Json => {
                    let doc = json::object([
                        ("command", json::string("cache-stats")),
                        ("path", json::string(&cache.path().display().to_string())),
                        ("exists", json::boolean(exists)),
                        ("entries", json::int(cache.len() as u64)),
                    ]);
                    writeln!(out, "{doc}")?;
                }
                Format::Csv => {
                    writeln!(out, "path,exists,entries")?;
                    writeln!(
                        out,
                        "{},{},{}",
                        cache.path().display(),
                        u8::from(exists),
                        cache.len()
                    )?;
                }
                Format::Table => {
                    writeln!(
                        out,
                        "cache {}: {} entries{}",
                        cache.path().display(),
                        cache.len(),
                        if exists { "" } else { " (no file yet)" }
                    )?;
                }
            }
        }
        "clear" => {
            let n = cache.len();
            cache
                .invalidate()
                .map_err(|e| CliError::runtime(format!("cannot clear cache: {e}")))?;
            writeln!(out, "cleared {n} entries from {}", cache.path().display())?;
        }
        _ => unreachable!("action is validated above"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_worker_count_flag_wins() {
        let threads = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_explore(&args).unwrap().spec.threads
        };
        assert_eq!(threads(&[]), None);
        assert_eq!(threads(&["--threads", "4", "--serial"]), Some(1));
        assert_eq!(threads(&["--serial", "--threads", "4"]), Some(4));
        assert_eq!(threads(&["--threads", "4", "--parallel"]), None);
    }
}
