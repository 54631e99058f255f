//! The job specification: every knob of an exploration sweep as plain,
//! wire-friendly data.
//!
//! A [`JobSpec`] is what `ttadse explore` builds from its flags, what
//! `--remote` posts to the daemon, and what the daemon validates and
//! queues. Its JSON form ([`JobSpec::to_json`] / [`JobSpec::from_json`])
//! is the one schema `docs/SERVE.md` documents: unknown fields are
//! rejected so a typoed knob fails loudly instead of silently sweeping
//! with defaults — the same philosophy as the CLI's flag parser.

use tta_core::explore::{CycleSource, FidelityMode, LiftMode};

use crate::json;
use crate::jsonparse::Json;

/// Output rendering selector (the CLI's `--format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Human-readable tables (the default).
    #[default]
    Table,
    /// One JSON document on stdout, byte-identical for identical
    /// results.
    Json,
    /// Comma-separated rows with a header line.
    Csv,
}

impl Format {
    /// Parses a format name.
    ///
    /// # Errors
    ///
    /// A usage message naming the accepted values.
    pub fn parse(s: &str) -> Result<Format, String> {
        match s {
            "table" => Ok(Format::Table),
            "json" => Ok(Format::Json),
            "csv" => Ok(Format::Csv),
            other => Err(format!(
                "unknown format {other:?} (expected table, json or csv)"
            )),
        }
    }

    /// The wire/flag name.
    pub fn label(self) -> &'static str {
        match self {
            Format::Table => "table",
            Format::Json => "json",
            Format::Csv => "csv",
        }
    }
}

/// Search-strategy selector (the CLI's `--strategy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Every template point, in enumeration order.
    #[default]
    Exhaustive,
    /// Every template point, in Gray-code neighbour order.
    Neighbour,
    /// Uniform random sampling (pair with a budget).
    Random,
    /// Restarted stochastic hill climbing.
    HillClimb,
}

impl Strategy {
    /// Parses a strategy name.
    ///
    /// # Errors
    ///
    /// A usage message naming the accepted values.
    pub fn parse(s: &str) -> Result<Strategy, String> {
        match s {
            "exhaustive" => Ok(Strategy::Exhaustive),
            "neighbour" => Ok(Strategy::Neighbour),
            "random" => Ok(Strategy::Random),
            "hillclimb" => Ok(Strategy::HillClimb),
            other => Err(format!(
                "unknown strategy {other:?} (expected exhaustive, neighbour, random or hillclimb)"
            )),
        }
    }

    /// The wire/flag name.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Exhaustive => "exhaustive",
            Strategy::Neighbour => "neighbour",
            Strategy::Random => "random",
            Strategy::HillClimb => "hillclimb",
        }
    }
}

/// Test-cost-model selector (the CLI's `--test-model`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TestModel {
    /// The paper's functional test-cost functions, eqs. (11)–(14).
    #[default]
    Eq14,
    /// DfT scan-chain partitioning + shift time.
    Scan,
}

impl TestModel {
    /// Parses a test-model name.
    ///
    /// # Errors
    ///
    /// A usage message naming the accepted values.
    pub fn parse(s: &str) -> Result<TestModel, String> {
        match s {
            "eq14" => Ok(TestModel::Eq14),
            "scan" => Ok(TestModel::Scan),
            other => Err(format!(
                "unknown test model {other:?} (expected eq14 or scan)"
            )),
        }
    }

    /// The wire/flag name.
    pub fn label(self) -> &'static str {
        match self {
            TestModel::Eq14 => "eq14",
            TestModel::Scan => "scan",
        }
    }
}

/// Parses a lift-mode name (`pareto`/`full`).
///
/// # Errors
///
/// A usage message naming the accepted values.
pub fn lift_parse(s: &str) -> Result<LiftMode, String> {
    match s {
        "pareto" => Ok(LiftMode::ParetoOnly),
        "full" => Ok(LiftMode::Full),
        other => Err(format!("unknown lift {other:?} (expected pareto or full)")),
    }
}

/// Parses a cycle-source name (`model`/`simulate`).
///
/// # Errors
///
/// A usage message naming the accepted values.
pub fn cycles_parse(s: &str) -> Result<CycleSource, String> {
    match s {
        "model" => Ok(CycleSource::Model),
        "simulate" => Ok(CycleSource::Simulate),
        other => Err(format!(
            "unknown cycle source {other:?} (expected model or simulate)"
        )),
    }
}

fn cycles_label(c: CycleSource) -> &'static str {
    match c {
        CycleSource::Model => "model",
        CycleSource::Simulate => "simulate",
    }
}

/// Parses a fidelity name (`table`/`netlist`).
///
/// # Errors
///
/// A usage message naming the accepted values.
pub fn fidelity_parse(s: &str) -> Result<FidelityMode, String> {
    match s {
        "table" => Ok(FidelityMode::Table),
        "netlist" => Ok(FidelityMode::Netlist),
        other => Err(format!(
            "unknown fidelity {other:?} (expected table or netlist)"
        )),
    }
}

/// One sweep job, fully specified. [`Default`] is exactly the CLI's
/// default `ttadse explore` invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobSpec {
    /// Template space name (`paper`/`fast`/`tiny`/`huge`); `None`
    /// follows `fast` (the `--fast`/`--paper` shorthand).
    pub space: Option<String>,
    /// The `--fast` shorthand: reduced 8-bit space and workload sizing.
    pub fast: bool,
    /// `name[:weight]` workload (or suite) specs, the CLI's
    /// `--workload` items.
    pub workloads: Vec<String>,
    /// A named weighted suite (the CLI's `--suite`).
    pub suite: Option<String>,
    /// Crypt Feistel rounds per trace (`--rounds`).
    pub rounds: Option<usize>,
    /// Search strategy.
    pub strategy: Strategy,
    /// Evaluation budget (`--budget`); must be ≥ 1 when given.
    pub budget: Option<usize>,
    /// Seed for the stochastic strategies (`--seed`).
    pub seed: Option<u64>,
    /// Test-axis lift mode (`--lift`).
    pub lift: LiftMode,
    /// Test-cost model (`--test-model`).
    pub test_model: TestModel,
    /// Cycle-count source (`--cycles`).
    pub cycles: CycleSource,
    /// Area/clock axis source (`--fidelity`): back-annotated component
    /// tables, or per-point gate-level netlist elaboration.
    pub fidelity: FidelityMode,
    /// Output rendering (`--format`).
    pub format: Format,
    /// Sweep worker count: `None` uses every available core
    /// (`--parallel`, the default), `Some(1)` sweeps serially
    /// (`--serial`), `Some(n)` pins `n` workers (`--threads`).
    pub threads: Option<usize>,
    /// Interconnect override: bus area per bit \[GE\] (`--bus-area`).
    pub bus_area: Option<f64>,
    /// Interconnect override: clock penalty per bus (`--bus-delay`).
    pub bus_delay: Option<f64>,
    /// Interconnect override: area per instruction bit (`--control-area`).
    pub control_area: Option<f64>,
    /// Queue priority (higher runs first; `--priority`, daemon only).
    pub priority: i64,
    /// Fault-injection hook for the daemon's test harness: `None` in
    /// real use; `"panic"` makes the worker panic mid-job so the fault
    /// suite can assert per-job degradation. Any other value is
    /// rejected at validation time.
    pub fault: Option<String>,
}

fn opt_str(v: &Option<String>) -> String {
    v.as_deref().map_or_else(|| "null".into(), json::string)
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), json::int)
}

fn opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), json::number)
}

impl JobSpec {
    /// Renders the spec as its canonical JSON document (the exact
    /// schema [`JobSpec::from_json`] accepts, and the wire body of
    /// `POST /run`).
    pub fn to_json(&self) -> String {
        json::object([
            ("space", opt_str(&self.space)),
            ("fast", json::boolean(self.fast)),
            (
                "workloads",
                json::array(self.workloads.iter().map(|w| json::string(w))),
            ),
            ("suite", opt_str(&self.suite)),
            ("rounds", opt_u64(self.rounds.map(|r| r as u64))),
            ("strategy", json::string(self.strategy.label())),
            ("budget", opt_u64(self.budget.map(|b| b as u64))),
            ("seed", opt_u64(self.seed)),
            ("lift", json::string(self.lift.label())),
            ("test_model", json::string(self.test_model.label())),
            ("cycles", json::string(cycles_label(self.cycles))),
            ("fidelity", json::string(self.fidelity.label())),
            ("format", json::string(self.format.label())),
            ("threads", opt_u64(self.threads.map(|t| t as u64))),
            ("bus_area", opt_f64(self.bus_area)),
            ("bus_delay", opt_f64(self.bus_delay)),
            ("control_area", opt_f64(self.control_area)),
            ("priority", self.priority.to_string()),
            ("fault", opt_str(&self.fault)),
        ])
    }

    /// Parses and validates a spec document. Every field is optional
    /// (absent → the [`Default`] value); unknown fields and ill-typed
    /// values are errors.
    ///
    /// # Errors
    ///
    /// A usage-class message describing the first offending field.
    pub fn from_json(text: &str) -> Result<JobSpec, String> {
        let doc = Json::parse(text).map_err(|e| format!("bad job spec JSON: {e}"))?;
        let Json::Obj(map) = &doc else {
            return Err("job spec must be a JSON object".into());
        };
        const KNOWN: &[&str] = &[
            "space",
            "fast",
            "workloads",
            "suite",
            "rounds",
            "strategy",
            "budget",
            "seed",
            "lift",
            "test_model",
            "cycles",
            "fidelity",
            "format",
            "threads",
            "bus_area",
            "bus_delay",
            "control_area",
            "priority",
            "fault",
        ];
        for key in map.keys() {
            if !KNOWN.contains(&key.as_str()) {
                return Err(format!("unknown job spec field {key:?}"));
            }
        }
        let defaults = JobSpec::default();
        let mut workloads = Vec::new();
        if let Some(v) = field(&doc, "workloads") {
            let items = v
                .as_arr()
                .ok_or_else(|| "field \"workloads\" must be an array".to_string())?;
            for item in items {
                workloads.push(
                    item.as_str()
                        .ok_or_else(|| "workload entries must be strings".to_string())?
                        .to_string(),
                );
            }
        }
        let priority = match field(&doc, "priority") {
            None => defaults.priority,
            Some(v) => {
                let raw = v
                    .as_f64()
                    .ok_or_else(|| "field \"priority\" must be a number".to_string())?;
                if raw.fract() != 0.0 || raw.abs() > 9_007_199_254_740_992.0 {
                    return Err("field \"priority\" must be an integer".into());
                }
                #[allow(clippy::cast_possible_truncation)]
                {
                    raw as i64
                }
            }
        };
        let spec = JobSpec {
            space: field_opt_string(&doc, "space")?,
            fast: field_opt_bool(&doc, "fast")?.unwrap_or(defaults.fast),
            workloads,
            suite: field_opt_string(&doc, "suite")?,
            rounds: field_opt_usize(&doc, "rounds")?,
            strategy: field_opt_string(&doc, "strategy")?
                .map_or(Ok(defaults.strategy), |s| Strategy::parse(&s))?,
            budget: field_opt_usize(&doc, "budget")?,
            seed: field_opt_u64(&doc, "seed")?,
            lift: field_opt_string(&doc, "lift")?.map_or(Ok(defaults.lift), |s| lift_parse(&s))?,
            test_model: field_opt_string(&doc, "test_model")?
                .map_or(Ok(defaults.test_model), |s| TestModel::parse(&s))?,
            cycles: field_opt_string(&doc, "cycles")?
                .map_or(Ok(defaults.cycles), |s| cycles_parse(&s))?,
            fidelity: field_opt_string(&doc, "fidelity")?
                .map_or(Ok(defaults.fidelity), |s| fidelity_parse(&s))?,
            format: field_opt_string(&doc, "format")?
                .map_or(Ok(defaults.format), |s| Format::parse(&s))?,
            threads: field_opt_usize(&doc, "threads")?,
            bus_area: field_opt_f64(&doc, "bus_area")?,
            bus_delay: field_opt_f64(&doc, "bus_delay")?,
            control_area: field_opt_f64(&doc, "control_area")?,
            priority,
            fault: field_opt_string(&doc, "fault")?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Cross-field checks shared by the CLI and the daemon.
    ///
    /// # Errors
    ///
    /// A usage-class message for a zero budget or an unknown fault tag.
    pub fn validate(&self) -> Result<(), String> {
        if self.budget == Some(0) {
            return Err("budget must be at least 1 (0 would evaluate nothing)".into());
        }
        if let Some(fault) = &self.fault {
            if fault != "panic" {
                return Err(format!(
                    "unknown fault {fault:?} (the only supported injection is \"panic\")"
                ));
            }
        }
        Ok(())
    }
}

fn field<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    doc.get(key).filter(|v| !v.is_null())
}

fn field_opt_string(doc: &Json, key: &str) -> Result<Option<String>, String> {
    field(doc, key)
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("field {key:?} must be a string"))
        })
        .transpose()
}

fn field_opt_bool(doc: &Json, key: &str) -> Result<Option<bool>, String> {
    field(doc, key)
        .map(|v| {
            v.as_bool()
                .ok_or_else(|| format!("field {key:?} must be a boolean"))
        })
        .transpose()
}

fn field_opt_u64(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    field(doc, key)
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("field {key:?} must be a non-negative integer"))
        })
        .transpose()
}

fn field_opt_usize(doc: &Json, key: &str) -> Result<Option<usize>, String> {
    Ok(field_opt_u64(doc, key)?.map(|v| v as usize))
}

fn field_opt_f64(doc: &Json, key: &str) -> Result<Option<f64>, String> {
    field(doc, key)
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| format!("field {key:?} must be a number"))
        })
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_roundtrips() {
        let spec = JobSpec::default();
        let parsed = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn full_spec_roundtrips() {
        let spec = JobSpec {
            space: Some("tiny".into()),
            fast: true,
            workloads: vec!["crypt:2".into(), "fir".into()],
            suite: Some("dsp".into()),
            rounds: Some(3),
            strategy: Strategy::HillClimb,
            budget: Some(100),
            seed: Some(7),
            lift: LiftMode::Full,
            test_model: TestModel::Scan,
            cycles: CycleSource::Simulate,
            fidelity: FidelityMode::Netlist,
            format: Format::Csv,
            threads: Some(2),
            bus_area: Some(6.5),
            bus_delay: Some(0.25),
            control_area: Some(1.0),
            priority: -3,
            fault: Some("panic".into()),
        };
        let parsed = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn empty_object_is_the_default_spec() {
        assert_eq!(JobSpec::from_json("{}").unwrap(), JobSpec::default());
    }

    #[test]
    fn unknown_fields_and_bad_values_fail_loudly() {
        assert!(JobSpec::from_json("{\"spcae\":\"tiny\"}")
            .unwrap_err()
            .contains("spcae"));
        assert!(JobSpec::from_json("{\"budget\":0}").is_err());
        assert!(JobSpec::from_json("{\"budget\":1.5}").is_err());
        assert!(JobSpec::from_json("{\"strategy\":\"dfs\"}").is_err());
        assert!(JobSpec::from_json("{\"fidelity\":\"rtl\"}").is_err());
        assert!(JobSpec::from_json("{\"fault\":\"segfault\"}").is_err());
        // There is one evaluation engine: a spec naming one is refused
        // like any other unknown field.
        assert!(JobSpec::from_json("{\"eval\":\"scratch\"}")
            .unwrap_err()
            .contains("unknown job spec field \"eval\""));
        // `threads` is the one worker-count field.
        assert!(JobSpec::from_json("{\"parallel\": true}")
            .unwrap_err()
            .contains("unknown job spec field \"parallel\""));
        assert!(JobSpec::from_json("[1,2]").is_err());
        assert!(JobSpec::from_json("not json at all").is_err());
    }
}
