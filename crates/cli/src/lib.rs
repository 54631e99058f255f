//! The unified `ttadse` command line.
//!
//! One binary drives the whole reproduction — template-space sweeps,
//! every figure/table of the paper's evaluation, and the persistent
//! sweep cache:
//!
//! ```text
//! ttadse explore --space fast --workload crypt --parallel --format json
//! ttadse fig2 --fast --format json --cache-dir .ttadse-cache
//! ttadse fig8 --cache-dir .ttadse-cache     # reuses fig2's sweep
//! ttadse table1 --figure9
//! ttadse cache stats --cache-dir .ttadse-cache
//! ```
//!
//! Output goes to stdout in `--format table` (human), `json` (one
//! document, byte-identical for identical results) or `csv`; progress
//! and cache accounting go to stderr, so stdout is always scriptable.
//!
//! Each figure and table of the paper is a subcommand of this one
//! binary.

#![warn(missing_docs)]

use std::io::Write;

mod commands;
pub mod opts;

// The deterministic JSON renderer moved into `tta_serve` (the daemon
// needs it for byte-stable wire documents); re-exported so existing
// `ttadse_cli::json` users keep compiling.
pub use tta_serve::json;

/// A CLI failure: what to print and which exit code to use.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message (printed to stderr by the binaries).
    pub message: String,
    /// Process exit code: 2 for usage errors, 1 for runtime failures.
    pub exit_code: u8,
}

impl CliError {
    /// A bad-invocation error (exit code 2).
    pub fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            exit_code: 2,
        }
    }

    /// A runtime failure (exit code 1).
    pub fn runtime(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            exit_code: 1,
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            // Downstream closed (e.g. `ttadse fig7 | head`): exit
            // quietly like every well-behaved pipe citizen.
            return CliError {
                message: String::new(),
                exit_code: 0,
            };
        }
        CliError::runtime(format!("i/o error: {e}"))
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

const USAGE: &str = "\
ttadse — TTA design/test space exploration (DATE 2000 reproduction)

USAGE:
    ttadse <SUBCOMMAND> [FLAGS]

SUBCOMMANDS:
    explore   Run one exploration sweep end to end
    serve     Run the sweep daemon (`explore --remote URL` submits to it)
    workloads List workloads/suites, or `compare` selections across suites
    sim       Execute a workload or program on the cycle-accurate simulator
    asm       Canonicalise a move-program file (assemble + disassemble)
    netlist   Elaborate one template point to gates: STA, lint, Verilog
    fig2      Figure 2: (area, exec time) solution space + Pareto front
    fig6      Figure 6: identical FUs, different test cost
    fig7      Figure 7: VLIW ASIP test access and test order
    fig8      Figure 8: Pareto set lifted with the test-cost axis
    fig9      Figure 9: weighted-norm architecture selection
    table1    Table 1: full scan vs the functional methodology
    cache     Inspect (`stats`) or delete (`clear`) a sweep cache
    help      Print this help

COMMON FLAGS:
    --fast                 Reduced 8-bit space (default: the paper's 16-bit)
    --format FORMAT        table (default) | json | csv
    --cache-dir DIR        Persistent sweep cache; re-runs skip cached points,
                           so re-running an interrupted sweep resumes it

EXPLORE FLAGS:
    --workload LIST        Comma-separated `name[:weight]` items; see
                           `ttadse workloads` for every registered name
    --suite NAME           A named weighted suite (paper | dsp | control | all)
    --space NAME           paper | fast | tiny | huge (hierarchical
                           clusters/pipelining/RF banking; 2^20 points —
                           pair with --budget)
    --rounds N             Crypt Feistel rounds per trace
    --strategy NAME        exhaustive (default) | neighbour (exhaustive in
                           Gray-code order) | random | hillclimb
    --budget N             Evaluate at most N template points
    --seed S               Seed for random/hillclimb (deterministic per seed)
    --lift MODE            pareto (default): lift test cost onto the 2-D front
                           post-hoc, as the paper does; full: sweep the test
                           axis as a third objective (true 3-D front)
    --test-model NAME      eq14 (default): the paper's functional test cost;
                           scan: DfT scan-chain partitioning + shift time
    --cycles SOURCE        model (default): the scheduler's analytic cycle
                           count; simulate: execute every scheduled point on
                           the simulator (identical results, slower)
    --parallel             Sweep on every available core (default)
    --serial               Sweep on one thread (same as --threads 1)
    --threads N            Pin the worker count (the last of --parallel,
                           --serial and --threads wins)
    --bus-area X           Interconnect model: bus area per bit [GE]
    --bus-delay X          Interconnect model: clock penalty per bus
    --control-area X       Interconnect model: area per instruction bit [GE]
    --fidelity MODE        table (default): area/clock from the back-annotated
                           component tables; netlist: elaborate every explored
                           point to gates and source both axes from loaded STA
    --remote URL           Submit the sweep to a `ttadse serve` daemon and
                           stream it; stdout is byte-identical to a local run
    --priority N           Daemon queue priority (higher runs first; only
                           meaningful with --remote)

SERVE FLAGS:
    --addr HOST:PORT       Listen address (default 127.0.0.1:7878; port 0
                           picks an ephemeral port, reported on stderr)
    --workers N            Concurrent sweep jobs (default 2)
    --cache-dir DIR        Persistent warm cache shared by every job
                           (default: in-memory for the daemon's lifetime)

FIG8 FLAGS:
    --full                 Co-explore the test axis (3-D sweep) and report the
                           true front points the Pareto-only lift misses

WORKLOADS FLAGS:
    list                   List registered workloads and suites (default)
    compare                Sweep once per suite; show how selection moves
    --suites LIST          Suites to compare (default paper,dsp,control)

SIM FLAGS:
    --workload NAME        Execute one registered workload end to end and
                           check executed cycles/outputs against the model
    --program FILE         Assemble FILE and execute it instead
    --arch NAME            max (default for --workload) | figure9 (default
                           for --program)
    --trace                Include the per-cycle move trace in the output

ASM FLAGS:
    FILE                   Program to assemble; canonical text on stdout
    --check                Fail unless FILE is already in canonical form

NETLIST FLAGS:
    --space NAME           paper | fast | tiny | huge (default: the scale's)
    --point I              Template-point index to elaborate (default 0)
    --clock X              Candidate clock period for the STA slack report
                           (default: the netlist's own minimum period)
    --verilog PATH         Export structural Verilog to PATH (`-` = stdout;
                           the summary then moves to stderr)
    --lint                 Run the structural lint pass; exit non-zero when
                           any diagnostic fires

TABLE1 FLAGS:
    --figure9              Cost the paper's published architecture directly

Cache accounting and progress go to stderr; stdout carries only the
requested output, byte-identical across warm and cold cache runs.
";

/// Dispatches a full argument list (without the binary name).
///
/// # Errors
///
/// Returns a [`CliError`] for unknown subcommands/flags (exit code 2) or
/// runtime failures (exit code 1).
pub fn run(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        write!(out, "{USAGE}")?;
        return Ok(());
    };
    match cmd.as_str() {
        "explore" => commands::explore(rest, out, err),
        "serve" => commands::serve_cmd(rest, out, err),
        "workloads" => commands::workloads_cmd(rest, out, err),
        "sim" => commands::sim_cmd(rest, out, err),
        "asm" => commands::asm_cmd(rest, out, err),
        "netlist" => commands::netlist_cmd(rest, out, err),
        "fig2" => commands::fig2_cmd(rest, out, err),
        "fig6" => commands::fig6_cmd(rest, out, err),
        "fig7" => commands::fig7_cmd(rest, out, err),
        "fig8" => commands::fig8_cmd(rest, out, err),
        "fig9" => commands::fig9_cmd(rest, out, err),
        "table1" => commands::table1_cmd(rest, out, err),
        "cache" => commands::cache_cmd(rest, out, err),
        "help" | "--help" | "-h" => {
            write!(out, "{USAGE}")?;
            Ok(())
        }
        "--version" | "-V" => {
            writeln!(out, "ttadse {}", env!("CARGO_PKG_VERSION"))?;
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown subcommand {other:?} (see `ttadse help`)"
        ))),
    }
}

/// Entry point of the `ttadse` binary: runs `args`, reporting errors
/// on stderr with the right exit code.
///
/// Stderr is passed unlocked: a command runs for as long as a sweep or
/// a daemon does, and holding the process-wide stderr lock for all of
/// it would hang the first `eprintln!` from any other thread.
pub fn main_with_args(args: Vec<String>) -> std::process::ExitCode {
    let stdout = std::io::stdout();
    let result = run(&args, &mut stdout.lock(), &mut std::io::stderr());
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            if !e.message.is_empty() {
                eprintln!("ttadse: {}", e.message);
            }
            std::process::ExitCode::from(e.exit_code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_capture(args: &[&str]) -> Result<(String, String), CliError> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let mut err = Vec::new();
        run(&args, &mut out, &mut err)?;
        Ok((
            String::from_utf8(out).expect("stdout is utf-8"),
            String::from_utf8(err).expect("stderr is utf-8"),
        ))
    }

    #[test]
    fn help_prints_usage() {
        let (out, _) = run_capture(&["help"]).unwrap();
        assert!(out.contains("SUBCOMMANDS"));
        let (bare, _) = run_capture(&[]).unwrap();
        assert_eq!(out, bare);
    }

    #[test]
    fn unknown_subcommand_is_usage_error() {
        let e = run_capture(&["figure2"]).unwrap_err();
        assert_eq!(e.exit_code, 2);
        assert!(e.message.contains("figure2"));
    }

    #[test]
    fn unknown_flag_is_usage_error() {
        let e = run_capture(&["fig2", "--fastest"]).unwrap_err();
        assert_eq!(e.exit_code, 2);
    }

    #[test]
    fn fig7_renders_all_formats() {
        let (table, _) = run_capture(&["fig7"]).unwrap();
        assert!(table.contains("test order"));
        let (json_out, _) = run_capture(&["fig7", "--format", "json"]).unwrap();
        assert!(json_out.starts_with('{') && json_out.contains("\"order\""));
        let (csv, _) = run_capture(&["fig7", "--format", "csv"]).unwrap();
        assert!(csv.starts_with("role,component"));
    }

    #[test]
    fn cache_subcommand_requires_dir() {
        let e = run_capture(&["cache", "stats"]).unwrap_err();
        assert_eq!(e.exit_code, 2);
    }

    #[test]
    fn sim_executes_crypt_to_the_model() {
        let (out, _) = run_capture(&["sim", "--workload", "crypt", "--fast"]).unwrap();
        assert!(out.contains("delta (simulate - model):   0"), "{out}");
        assert!(out.contains("outputs match golden: yes"), "{out}");
        let (json_out, _) =
            run_capture(&["sim", "--workload", "crypt", "--fast", "--format", "json"]).unwrap();
        assert!(json_out.contains("\"delta\":0"), "{json_out}");
        assert!(json_out.contains("\"outputs_match\":true"), "{json_out}");
    }

    #[test]
    fn sim_needs_exactly_one_input() {
        let e = run_capture(&["sim"]).unwrap_err();
        assert_eq!(e.exit_code, 2);
        let e = run_capture(&["sim", "--workload", "crypt", "--program", "x.tta"]).unwrap_err();
        assert_eq!(e.exit_code, 2);
    }

    #[test]
    fn asm_canonicalises_and_checks() {
        let dir = std::env::temp_dir().join(format!("ttadse-asm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prog.tta");
        std::fs::write(
            &path,
            "; demo\n.width 16\n.rf rf1 4 = 1 2 0 0\n.out rf1[2]\n\
             rf1[0] -> alu0.o, rf1[1] -> alu0.add\n-\nalu0.r -> rf1[2]\n",
        )
        .unwrap();
        let (canon, _) = run_capture(&["asm", path.to_str().unwrap()]).unwrap();
        // The comment is stripped, so the original is not canonical...
        let e = run_capture(&["asm", path.to_str().unwrap(), "--check"]).unwrap_err();
        assert_eq!(e.exit_code, 1);
        // ...but the canonical text is a byte-exact fixed point.
        let canon_path = dir.join("canon.tta");
        std::fs::write(&canon_path, &canon).unwrap();
        let (twice, _) = run_capture(&["asm", canon_path.to_str().unwrap(), "--check"]).unwrap();
        assert_eq!(twice, canon);
        // And the canonical program executes on the default machine.
        let (out, _) = run_capture(&["sim", "--program", canon_path.to_str().unwrap()]).unwrap();
        assert!(out.contains("rf1[2] = 3"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explore_simulate_output_is_byte_identical_to_model() {
        let base = [
            "explore",
            "--space",
            "tiny",
            "--workload",
            "crypt",
            "--format",
            "json",
        ];
        let (model, _) = run_capture(&base).unwrap();
        let mut sim_args = base.to_vec();
        sim_args.extend(["--cycles", "simulate"]);
        let (sim, _) = run_capture(&sim_args).unwrap();
        assert_eq!(model, sim, "--cycles simulate must not change any byte");
    }

    #[test]
    fn netlist_subcommand_elaborates_lints_and_exports() {
        let (out, errtxt) = run_capture(&["netlist", "--space", "tiny", "--point", "0"]).unwrap();
        assert!(out.contains("loaded STA"), "{out}");
        assert!(errtxt.contains("elaborating point 0"), "{errtxt}");
        // --lint on a shipped point reports zero diagnostics and exits 0.
        let (out, _) =
            run_capture(&["netlist", "--space", "tiny", "--point", "0", "--lint"]).unwrap();
        assert!(out.contains("lint: 0 diagnostic(s)"), "{out}");
        // JSON carries the stats/sta/fanout objects.
        let (json_out, _) = run_capture(&[
            "netlist", "--space", "tiny", "--point", "0", "--lint", "--format", "json",
        ])
        .unwrap();
        assert!(json_out.contains("\"command\":\"netlist\""), "{json_out}");
        assert!(json_out.contains("\"sta\":{"), "{json_out}");
        assert!(json_out.contains("\"lint\":[]"), "{json_out}");
        // --verilog - moves the summary to stderr and emits a module.
        let (v, summary) = run_capture(&[
            "netlist",
            "--space",
            "tiny",
            "--point",
            "0",
            "--verilog",
            "-",
        ])
        .unwrap();
        assert!(v.starts_with("// generated by ttadse"), "{v}");
        assert!(v.contains("module "), "{v}");
        assert!(v.trim_end().ends_with("endmodule"), "{v}");
        assert!(summary.contains("loaded STA"), "{summary}");
        // Out-of-range points are usage errors.
        let e = run_capture(&["netlist", "--space", "tiny", "--point", "99"]).unwrap_err();
        assert_eq!(e.exit_code, 2);
        assert!(e.message.contains("out of range"), "{}", e.message);
    }

    #[test]
    fn explore_fidelity_netlist_runs_and_is_echoed() {
        let base = [
            "explore",
            "--space",
            "tiny",
            "--workload",
            "crypt",
            "--format",
            "json",
        ];
        let (table_run, _) = run_capture(&base).unwrap();
        assert!(table_run.contains("\"fidelity\":\"table\""), "{table_run}");
        let mut args = base.to_vec();
        args.extend(["--fidelity", "netlist"]);
        let (netlist_run, _) = run_capture(&args).unwrap();
        assert!(
            netlist_run.contains("\"fidelity\":\"netlist\""),
            "{netlist_run}"
        );
        // Serial and parallel netlist-fidelity sweeps render the same bytes.
        let mut serial_args = args.clone();
        serial_args.push("--serial");
        let (serial_run, _) = run_capture(&serial_args).unwrap();
        let mut parallel_args = args.clone();
        parallel_args.push("--parallel");
        let (parallel_run, _) = run_capture(&parallel_args).unwrap();
        assert_eq!(serial_run, parallel_run);
        let e = run_capture(&["explore", "--fidelity", "rtl"]).unwrap_err();
        assert_eq!(e.exit_code, 2);
    }

    #[test]
    fn explore_neighbour_walk_output_matches_enumeration_order() {
        let base = [
            "explore",
            "--space",
            "tiny",
            "--workload",
            "crypt",
            "--format",
            "json",
        ];
        let (plain, _) = run_capture(&base).unwrap();
        // Gray-code visit order must not change the reported front or
        // objective bytes (JSON output is order-canonicalised by area,
        // not visit order); only the strategy label differs.
        let mut gray_args = base.to_vec();
        gray_args.extend(["--strategy", "neighbour"]);
        let (gray, _) = run_capture(&gray_args).unwrap();
        assert_eq!(gray.replace("exhaustive-neighbour", "exhaustive"), plain);
        // There is one evaluation engine: the old `--eval` flag is an
        // unknown flag now.
        let mut eval_args = base.to_vec();
        eval_args.extend(["--eval", "scratch"]);
        assert_eq!(run_capture(&eval_args).unwrap_err().exit_code, 2);
    }
}
