//! Golden figure output: the stdout bytes of every figure and table
//! subcommand, and of `workloads list` and `workloads compare`, at
//! `--fast` in all three formats, run in-process through
//! `ttadse_cli::run`, plus the cold `--cache-dir` file of every command
//! that sweeps. Each line pins the byte length and an FNV-1a digest of
//! one document, so any change that moves one output or cache byte
//! (the sweep's space, workload sizing or lift mode, a cost figure, a
//! renderer) fails here with the actual lines to compare against. The
//! cache lines see what stdout cannot: on the fast crypt sweep the full
//! lift finds the same front as the Pareto-only one, but only its cache
//! entries carry every point's test cost.

use std::fs;

use tta_core::cache::{Fingerprint, CACHE_FILE_NAME};
use ttadse_cli::run;

/// One line per (command, format): byte length and digest of stdout;
/// then one per sweeping command: byte length and digest of its cache.
const GOLDEN: &str = "
fig2 table 539 e320b59096ea3a65
fig2 json 2030 aa2920cc85a71b28
fig2 csv 482 de62cb1861715d4f
fig6 table 292 b8ff487c3603e031
fig6 json 118 1b44d2e81c313677
fig6 csv 42 f07cde2be75f2404
fig7 table 187 0b3d569f70e6e449
fig7 json 140 3e9953e07507d22d
fig7 csv 174 d14d831b75a0a33c
fig8 table 670 9cef97f742a2dd04
fig8 json 756 5ba1408ea6d94bba
fig8 csv 325 4d1f4c903d9ad8f4
fig8 --full table 204 3fb56ea0b32128b3
fig8 --full json 146 e1ea7fb07947592a
fig8 --full csv 60 8613c75b1fe7eee7
fig9 table 567 7e01bf120a9503df
fig9 json 479 aa6bd1783bc26090
fig9 csv 205 5a9859e0e193cc9a
table1 table 745 57eba09690622ace
table1 json 912 6931492f553e0bad
table1 csv 263 2472f2efda92fd38
table1 --figure9 table 813 bd48fedc901e2358
table1 --figure9 json 1046 f2733344528a2b34
table1 --figure9 csv 303 80420694d23044a1
workloads list table 1497 dd3f7c0f02f7a981
workloads list json 1642 d22d9c41adaba7ed
workloads list csv 246 2c3f5936884daa1f
workloads compare --suites paper,dsp,control table 838 f40fac585250c174
workloads compare --suites paper,dsp,control json 1667 f84f60c6d96049cd
workloads compare --suites paper,dsp,control csv 256 b1289f113053f7a3
fig2 cache 2001 bd18ddb327d7c564
fig8 cache 2001 bd18ddb327d7c564
fig8 --full cache 2613 50621ddffd3594f4
fig9 cache 2001 bd18ddb327d7c564
table1 cache 2001 bd18ddb327d7c564
workloads compare --suites paper,dsp,control cache 5742 389e8822ba6080a3
";

/// The pinned commands; each runs as `<command> --fast --format <f>`,
/// and those that sweep once more over a fresh `--cache-dir`.
const COMMANDS: &[&[&str]] = &[
    &["fig2"],
    &["fig6"],
    &["fig7"],
    &["fig8"],
    &["fig8", "--full"],
    &["fig9"],
    &["table1"],
    &["table1", "--figure9"],
    &["workloads", "list"],
    &["workloads", "compare", "--suites", "paper,dsp,control"],
];

/// Runs `command` at `--fast` with `extra` flags; returns its stdout.
fn run_fast(command: &[&str], extra: &[&str]) -> Vec<u8> {
    let args: Vec<String> = [command, &["--fast"], extra]
        .concat()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut out = Vec::new();
    run(&args, &mut out, &mut Vec::new()).unwrap_or_else(|e| panic!("{args:?}: {e}"));
    out
}

fn line(command: &[&str], what: &str, bytes: &[u8]) -> String {
    format!(
        "{} {what} {} {:016x}",
        command.join(" "),
        bytes.len(),
        Fingerprint::new().bytes(bytes).finish()
    )
}

/// The line of the cache file a cold `--cache-dir` run of `command`
/// leaves, or `None` when the command sweeps nothing.
fn cache_line(index: usize, command: &[&str]) -> Option<String> {
    let dir = std::env::temp_dir().join(format!(
        "ttadse-figures-golden-{index}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    run_fast(command, &["--format", "json", "--cache-dir", dir.to_str()?]);
    let cache = fs::read(dir.join(CACHE_FILE_NAME)).ok();
    let _ = fs::remove_dir_all(&dir);
    Some(line(command, "cache", &cache?))
}

#[test]
fn figure_outputs_are_golden() {
    let mut actual: Vec<String> = COMMANDS
        .iter()
        .flat_map(|command| {
            ["table", "json", "csv"]
                .map(|format| line(command, format, &run_fast(command, &["--format", format])))
        })
        .collect();
    actual.extend(
        COMMANDS
            .iter()
            .enumerate()
            .filter_map(|(i, command)| cache_line(i, command)),
    );
    let actual = actual.join("\n");
    assert_eq!(
        actual,
        GOLDEN.trim(),
        "figure output moved; the actual lines are:\n{actual}"
    );
}
