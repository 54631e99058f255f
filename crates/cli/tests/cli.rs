//! End-to-end CLI tests through `ttadse_cli::run`: the warm-cache
//! byte-identity contract, resume accounting, and cache management.

use std::fs;
use std::path::PathBuf;

use ttadse_cli::run;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ttadse-cli-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn run_ok(args: &[&str]) -> (String, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let mut err = Vec::new();
    run(&args, &mut out, &mut err).unwrap_or_else(|e| panic!("{args:?}: {e}"));
    (
        String::from_utf8(out).expect("stdout utf-8"),
        String::from_utf8(err).expect("stderr utf-8"),
    )
}

#[test]
fn warm_cache_json_is_byte_identical_and_all_hits() {
    let dir = tmpdir("explore");
    let cache_dir = dir.to_str().expect("utf-8 temp path");
    let explore = [
        "explore",
        "--space",
        "tiny",
        "--rounds",
        "1",
        "--serial",
        "--format",
        "json",
        "--cache-dir",
        cache_dir,
    ];
    let (cold_out, cold_err) = run_ok(&explore);
    assert!(cold_out.starts_with('{'), "one JSON document: {cold_out}");
    assert!(cold_err.contains("misses"), "{cold_err}");

    // Second run over the same cache: every point a hit, stdout
    // byte-identical. This re-run is also how an interrupted sweep
    // resumes, so `--resume` is an unknown flag.
    let (warm_out, warm_err) = run_ok(&explore);
    assert_eq!(cold_out, warm_out, "stdout must be byte-identical");
    assert!(warm_err.contains("0 misses"), "{warm_err}");
    let args: Vec<String> = explore
        .iter()
        .chain(&["--resume"])
        .map(|s| s.to_string())
        .collect();
    let e = run(&args, &mut Vec::new(), &mut Vec::new()).unwrap_err();
    assert_eq!(e.exit_code, 2, "{}", e.message);

    // The cache subcommand sees the same file…
    let (stats, _) = run_ok(&[
        "cache",
        "stats",
        "--cache-dir",
        cache_dir,
        "--format",
        "json",
    ]);
    assert!(stats.contains("\"exists\":true"), "{stats}");
    // …and clears it.
    let (cleared, _) = run_ok(&["cache", "clear", "--cache-dir", cache_dir]);
    assert!(cleared.contains("cleared"), "{cleared}");
    let (stats, _) = run_ok(&[
        "cache",
        "stats",
        "--cache-dir",
        cache_dir,
        "--format",
        "json",
    ]);
    assert!(stats.contains("\"entries\":0"), "{stats}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn seeded_random_search_is_deterministic_and_budgeted() {
    let base = [
        "explore",
        "--space",
        "fast",
        "--rounds",
        "1",
        "--workload",
        "checksum32",
        "--strategy",
        "random",
        "--budget",
        "4",
        "--seed",
        "42",
        "--format",
        "json",
    ];
    let (a, _) = run_ok(&base);
    let (b, _) = run_ok(&base);
    assert_eq!(a, b, "same seed must be byte-identical");
    assert!(
        a.contains("\"search\":{\"strategy\":\"random\",\"budget\":4,\"seed\":42"),
        "{a}"
    );
    // At most `budget` points visited.
    let evals = a
        .split("\"evaluations\":")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse::<usize>().ok())
        .expect("evaluations field");
    assert!(evals <= 4, "{evals}");

    let mut other_seed: Vec<&str> = base.to_vec();
    let n = other_seed.len();
    other_seed[n - 3] = "7";
    let (c, _) = run_ok(&other_seed);
    assert_ne!(a, c, "a different seed samples a different subset");
}

#[test]
fn unknown_strategy_is_a_usage_error() {
    let args: Vec<String> = ["explore", "--strategy", "simulated-annealing"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut out = Vec::new();
    let mut err = Vec::new();
    let e = run(&args, &mut out, &mut err).unwrap_err();
    assert_eq!(e.exit_code, 2);
    assert!(e.message.contains("simulated-annealing"), "{}", e.message);
}

#[test]
fn csv_and_table_render_the_same_sweep() {
    let dir = tmpdir("formats");
    let cache_dir = dir.to_str().expect("utf-8 temp path");
    let base = [
        "explore",
        "--space",
        "tiny",
        "--rounds",
        "1",
        "--cache-dir",
        cache_dir,
    ];
    let (csv, _) = run_ok(&[&base[..], &["--format", "csv"]].concat());
    let mut lines = csv.lines();
    let meta = lines.next().expect("strategy metadata comment");
    assert!(
        meta.starts_with("# strategy=exhaustive"),
        "metadata line: {meta}"
    );
    // One breakdown comment per suite member rides along.
    let breakdown = lines.next().expect("workload breakdown comment");
    assert!(
        breakdown.starts_with("# workload=crypt[1r] weight=1 blocked="),
        "breakdown line: {breakdown}"
    );
    assert_eq!(
        lines.next(),
        Some("architecture,area,exec_time,cycles,spills,on_front,test_cost,cycles:crypt[1r]")
    );
    let rows = lines.count();
    let (table, _) = run_ok(&[&base[..], &["--format", "table"]].concat());
    assert!(
        table.contains(&format!("explored {rows} feasible points")),
        "table and csv must agree: {table}"
    );
    assert!(table.contains("per-workload breakdown:"), "{table}");
    assert!(table.contains("selected (equal-weight Euclid):"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fast_does_not_resize_an_explicit_space() {
    // `--fast` only picks the space when `--space` is absent, and the
    // workload sizing follows the resolved space: on the 16-bit paper
    // space the run keeps paper sizing (crypt[16r]) either way.
    let base = [
        "explore", "--space", "paper", "--budget", "2", "--format", "json",
    ];
    let (plain, _) = run_ok(&base);
    let (fast, _) = run_ok(&[&base[..], &["--fast"]].concat());
    assert_eq!(
        fast, plain,
        "--fast must not change an explicit space's run"
    );
    assert!(plain.contains("\"name\":\"crypt[16r]\""), "{plain}");
}

#[test]
fn weighted_suite_runs_report_breakdowns_and_stay_deterministic() {
    // A weighted multi-workload suite: serial and parallel runs must be
    // byte-identical, and every output format carries the breakdown.
    let base = [
        "explore",
        "--space",
        "tiny",
        "--workload",
        "checksum32:3,bitcount",
        "--format",
        "json",
    ];
    let (serial, _) = run_ok(&[&base[..], &["--serial"]].concat());
    let (parallel, _) = run_ok(&[&base[..], &["--parallel"]].concat());
    assert_eq!(
        serial, parallel,
        "weighted sweep must not depend on threads"
    );
    assert!(
        serial.contains("\"name\":\"checksum32\",\"weight\":3.0,\"blocked\":"),
        "{serial}"
    );
    assert!(serial.contains("\"workload_cycles\":["), "{serial}");
}

#[test]
fn suite_flag_and_workloads_subcommand_agree_on_names() {
    // `--suite dsp` resolves through the registry…
    let (json_out, _) = run_ok(&[
        "explore", "--space", "tiny", "--suite", "control", "--format", "json",
    ]);
    assert!(json_out.contains("\"name\":\"viterbi[4s]\""), "{json_out}");
    // …and the listing subcommand shows the same suite composition.
    let (list, _) = run_ok(&["workloads", "--format", "csv"]);
    assert!(list.contains("control,viterbi,4"), "{list}");
    assert!(list.contains("dsp,fft,4"), "{list}");
}

#[test]
fn unknown_workloads_and_suites_name_the_registry() {
    let args: Vec<String> = ["explore", "--workload", "mp3"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut out = Vec::new();
    let mut err = Vec::new();
    let e = run(&args, &mut out, &mut err).unwrap_err();
    assert_eq!(e.exit_code, 2);
    // The candidate list is derived from the registry, so new
    // workloads can never drift out of the error text.
    for name in ["crypt", "fft", "viterbi", "dsp"] {
        assert!(e.message.contains(name), "{}: {}", name, e.message);
    }

    let args: Vec<String> = ["workloads", "compare", "--suites", "media"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let e = run(&args, &mut Vec::new(), &mut Vec::new()).unwrap_err();
    assert_eq!(e.exit_code, 2);
    assert!(e.message.contains("paper"), "{}", e.message);
}

#[test]
fn repeated_explicit_workloads_are_rejected_not_compounded() {
    // `--workload fft:2 --workload fft:3` used to fold into one member
    // with a silently compounded weight; now it is a loud usage error.
    for args in [
        vec![
            "explore",
            "--space",
            "tiny",
            "--workload",
            "fft:2",
            "--workload",
            "fft:3",
        ],
        vec!["explore", "--space", "tiny", "--workload", "fft,fft"],
        vec!["explore", "--space", "tiny", "--workload", "crypt:2,crypt"],
        // Repeated *suite* names in --workload position would duplicate
        // every member with compounding weights — same rejection.
        vec![
            "explore",
            "--space",
            "tiny",
            "--workload",
            "dsp:2",
            "--workload",
            "dsp:3",
        ],
        vec!["explore", "--space", "tiny", "--workload", "dsp,dsp"],
    ] {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let e = run(&args, &mut Vec::new(), &mut Vec::new()).unwrap_err();
        assert_eq!(e.exit_code, 2, "{args:?}");
        assert!(e.message.contains("more than once"), "{}", e.message);
    }
}

#[test]
fn suite_and_explicit_workload_overlap_is_rejected() {
    // A workload reached both via a suite and via an explicit spec
    // would be scheduled twice with compounding weights — rejected in
    // either argument order, and whichever way the suite arrived.
    for args in [
        vec![
            "explore",
            "--space",
            "tiny",
            "--suite",
            "dsp",
            "--workload",
            "fft:2",
        ],
        vec![
            "explore",
            "--space",
            "tiny",
            "--workload",
            "fft",
            "--workload",
            "dsp",
        ],
        vec![
            "explore",
            "--space",
            "tiny",
            "--suite",
            "dsp",
            "--workload",
            "dsp:2",
        ],
    ] {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let e = run(&args, &mut Vec::new(), &mut Vec::new()).unwrap_err();
        assert_eq!(e.exit_code, 2, "{args:?}");
        assert!(e.message.contains("dsp"), "{}", e.message);
    }
}

#[test]
fn suite_scaling_in_workload_position_stays_multiplicative() {
    // `--workload dsp:2` scales every member of the dsp suite (fft
    // carries weight 4 there, so it lands at 8) — documented behaviour,
    // distinct from repeating an explicit workload.
    let (json_out, _) = run_ok(&[
        "explore",
        "--space",
        "tiny",
        "--workload",
        "dsp:2",
        "--format",
        "json",
    ]);
    assert!(
        json_out.contains("\"name\":\"fft[8p]\",\"weight\":8.0"),
        "{json_out}"
    );
}

#[test]
fn full_lift_is_deterministic_and_carries_the_test_axis_everywhere() {
    let dir = tmpdir("full-lift");
    let cache_dir = dir.to_str().expect("utf-8 temp path");
    let base = [
        "explore",
        "--space",
        "tiny",
        "--rounds",
        "1",
        "--lift",
        "full",
        "--format",
        "csv",
        "--cache-dir",
        cache_dir,
    ];
    let (cold, _) = run_ok(&base);
    let meta = cold.lines().next().expect("metadata comment");
    assert!(meta.contains("lift=full"), "{meta}");
    // Every feasible row carries a test cost (the column before the
    // per-workload cycles is non-empty).
    for row in cold.lines().filter(|l| !l.starts_with('#')).skip(1) {
        let cols: Vec<&str> = row.split(',').collect();
        assert!(!cols[6].is_empty(), "full lift must cost every row: {row}");
    }
    // Warm v3 cache: byte-identical, all hits.
    let (warm, warm_err) = run_ok(&base);
    assert_eq!(cold, warm, "warm full-lift run must be byte-identical");
    assert!(warm_err.contains("0 misses"), "{warm_err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn scan_test_model_is_selectable_and_reported() {
    let (json_out, _) = run_ok(&[
        "explore",
        "--space",
        "tiny",
        "--lift",
        "full",
        "--test-model",
        "scan",
        "--format",
        "json",
    ]);
    assert!(json_out.contains("\"lift\":\"full\""), "{json_out}");
    assert!(json_out.contains("\"test_model\":\"scan\""), "{json_out}");

    for (flag, bad) in [("--lift", "3d"), ("--test-model", "bist")] {
        let args: Vec<String> = ["explore", flag, bad]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&args, &mut Vec::new(), &mut Vec::new()).unwrap_err();
        assert_eq!(e.exit_code, 2, "{flag} {bad}");
        assert!(e.message.contains(bad), "{}", e.message);
    }
}

#[test]
fn figure_commands_warn_when_the_cache_cannot_persist() {
    let dir = tmpdir("flush-warn");
    // Wedge a directory where the cache file must land: the sweep
    // completes but the flush's atomic rename fails (even as root).
    fs::create_dir_all(dir.join(tta_core::cache::CACHE_FILE_NAME)).unwrap();
    let (out, err) = run_ok(&["fig2", "--fast", "--cache-dir", dir.to_str().unwrap()]);
    assert!(err.contains("could not be persisted"), "{err}");
    assert!(!out.contains("warning"), "stdout must stay clean: {out}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fig8_full_reports_the_comparison() {
    let (json_out, _) = run_ok(&["fig8", "--full", "--fast", "--format", "json"]);
    assert!(json_out.contains("\"figure\":\"fig8-full\""), "{json_out}");
    assert!(json_out.contains("\"design_front\":"), "{json_out}");
    assert!(
        json_out.contains("\"missed_by_pareto_lift\":"),
        "{json_out}"
    );
    let (table, _) = run_ok(&["fig8", "--full", "--fast"]);
    assert!(table.contains("true 3-D front"), "{table}");
}

#[test]
fn bad_workload_weights_are_usage_errors() {
    for spec in ["crypt:x", "crypt:0", "crypt:-1", "crypt:inf"] {
        let args: Vec<String> = ["explore", "--workload", spec]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = run(&args, &mut Vec::new(), &mut Vec::new()).unwrap_err();
        assert_eq!(e.exit_code, 2, "{spec}");
    }
}

#[test]
fn scheduler_counts_go_to_stderr_and_leave_stdout_byte_identical() {
    let model = [
        "explore",
        "--space",
        "fast",
        "--workload",
        "crypt",
        "--format",
        "json",
    ];
    let (model_out, model_err) = run_ok(&model);
    // The simulate run bypasses the schedule memo: one scheduler run
    // per (point, workload) lookup, yet the same stdout bytes.
    let simulate: Vec<&str> = model
        .iter()
        .copied()
        .chain(["--cycles", "simulate"])
        .collect();
    let (simulate_out, simulate_err) = run_ok(&simulate);
    assert_eq!(model_out, simulate_out);
    assert!(!model_out.contains("scheduler"), "{model_out}");
    // Crypt has no CMP or MUL op, so the fast space's MUL knob halves
    // the distinct scheduler views.
    assert!(
        model_err.contains("scheduler: 12 runs for 24 (point, workload) lookups"),
        "{model_err}"
    );
    assert!(
        simulate_err.contains("scheduler: 24 runs for 24 (point, workload) lookups"),
        "{simulate_err}"
    );
    // Serial and parallel sweeps agree on stdout and on the counts.
    for format in ["table", "csv"] {
        let base = [
            "explore", "--space", "fast", "--suite", "all", "--format", format,
        ];
        let serial: Vec<&str> = base.iter().copied().chain(["--serial"]).collect();
        let parallel: Vec<&str> = base.iter().copied().chain(["--parallel"]).collect();
        let (serial_out, serial_err) = run_ok(&serial);
        let (parallel_out, parallel_err) = run_ok(&parallel);
        assert_eq!(serial_out, parallel_out, "{format}");
        assert!(!serial_out.contains("scheduler:"), "{serial_out}");
        let counts = |err: &str| {
            err.lines()
                .find(|l| l.starts_with("scheduler: "))
                .map(str::to_string)
        };
        assert_eq!(counts(&serial_err), counts(&parallel_err), "{format}");
        assert!(counts(&serial_err).is_some(), "{serial_err}");
    }
}

#[test]
fn journal_accounting_goes_to_stderr_and_leaves_stdout_byte_identical() {
    let dir = tmpdir("journal-stderr");
    // A multi-chunk sweep (160 points = 3 chunks of 64).
    for format in ["json", "table", "csv"] {
        let plain = [
            "explore",
            "--space",
            "huge",
            "--strategy",
            "random",
            "--budget",
            "160",
            "--seed",
            "3",
            "--format",
            format,
        ];
        let cache_dir = dir.join(format);
        let cached: Vec<&str> = plain
            .iter()
            .copied()
            .chain(["--cache-dir", cache_dir.to_str().expect("utf-8 temp path")])
            .collect();
        let (plain_out, plain_err) = run_ok(&plain);
        let (cached_out, cached_err) = run_ok(&cached);
        assert_eq!(plain_out, cached_out, "{format}");
        assert!(!plain_err.contains("cache:"), "{plain_err}");
        assert!(!cached_out.contains("checkpoint"), "{cached_out}");
        let line = cached_err
            .lines()
            .find(|l| l.starts_with("cache: "))
            .unwrap_or_else(|| panic!("no cache line: {cached_err}"));
        assert!(
            line.contains(" 3 checkpoints (") && line.contains(" KB), 1 compaction -> "),
            "{line}"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cache_stats_and_clear_see_a_journal_left_by_an_interrupted_run() {
    use tta_core::cache::{CACHE_FILE_NAME, JOURNAL_FILE_NAME};
    let dir = tmpdir("journal-only");
    let cache_dir = dir.to_str().expect("utf-8 temp path");
    run_ok(&[
        "explore",
        "--space",
        "tiny",
        "--rounds",
        "1",
        "--cache-dir",
        cache_dir,
    ]);
    // What a run killed before its end-of-run flush leaves behind: the
    // checkpointed lines in a journal, no v3 file.
    let text = fs::read_to_string(dir.join(CACHE_FILE_NAME)).expect("flushed");
    let entries = text.lines().count() - 1;
    let journal: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
    fs::write(dir.join(JOURNAL_FILE_NAME), journal).unwrap();
    fs::remove_file(dir.join(CACHE_FILE_NAME)).unwrap();

    let stats = |format: &str| {
        run_ok(&[
            "cache",
            "stats",
            "--cache-dir",
            cache_dir,
            "--format",
            format,
        ])
        .0
    };
    let json = stats("json");
    assert!(json.contains("\"exists\":true"), "{json}");
    assert!(json.contains(&format!("\"entries\":{entries}")), "{json}");
    let table = stats("table");
    assert!(!table.contains("no file yet"), "{table}");

    // Clearing removes the journal too, so nothing comes back.
    run_ok(&["cache", "clear", "--cache-dir", cache_dir]);
    assert!(!dir.join(JOURNAL_FILE_NAME).exists());
    let json = stats("json");
    assert!(json.contains("\"exists\":false"), "{json}");
    assert!(json.contains("\"entries\":0"), "{json}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn explore_output_carries_no_engine_statistics() {
    // One evaluation engine: no format reports engine counters, on
    // stdout or stderr, in either visit order.
    for strategy in ["exhaustive", "neighbour"] {
        for format in ["json", "table", "csv"] {
            let (out, err) = run_ok(&[
                "explore",
                "--space",
                "tiny",
                "--workload",
                "crypt",
                "--strategy",
                strategy,
                "--format",
                format,
            ]);
            assert!(!out.is_empty());
            assert!(!out.contains("delta"), "{strategy} {format}:\n{out}");
            assert!(!err.contains("delta"), "{strategy} {format}:\n{err}");
        }
    }
}

/// A running command must not hold the process-wide stderr lock: sweep
/// workers and library code may write diagnostics to
/// `std::io::stderr()` from other threads, and a held lock turns the
/// first such write into a hang. The daemon is the command that runs
/// until told to stop, so the write happens while it surely runs; a
/// blocked write fails the test after a timeout instead of hanging it.
#[test]
fn other_threads_can_write_stderr_while_a_command_runs() {
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::sync::mpsc;
    use std::thread;
    use std::time::{Duration, Instant};

    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("a free local port")
        .port();
    let addr = format!("127.0.0.1:{port}");
    let args = ["serve", "--addr", &addr, "--workers", "1"].map(String::from);
    let daemon = thread::spawn(move || ttadse_cli::main_with_args(args.to_vec()));
    // The listener is bound before the daemon serves: once a connect
    // succeeds, the command is running.
    let deadline = Instant::now() + Duration::from_secs(30);
    while TcpStream::connect(&addr).is_err() {
        assert!(Instant::now() < deadline, "ttadse serve never came up");
        thread::sleep(Duration::from_millis(10));
    }
    let (tx, rx) = mpsc::channel();
    let writer = thread::spawn(move || {
        let _ = writeln!(std::io::stderr(), "a diagnostic from another thread");
        let _ = tx.send(());
    });
    let wrote = rx.recv_timeout(Duration::from_secs(10));
    tta_serve::client::control(&format!("http://{addr}"), "/shutdown").expect("shutdown");
    let code = daemon.join().expect("the serve command returns");
    writer
        .join()
        .expect("the writer finishes once stderr is free");
    assert!(
        wrote.is_ok(),
        "a stderr write from another thread blocked while the command ran"
    );
    assert_eq!(code, std::process::ExitCode::SUCCESS);
}

/// A register count past what a register file can hold is an assembler
/// error on its line (exit 1), for `asm` and `sim --program` alike, not
/// an allocation of the declared size.
#[test]
fn an_oversized_rf_is_an_assembler_error_not_a_panic() {
    let dir = tmpdir("asm-rf");
    fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("huge-rf.tta");
    fs::write(&file, ".width 16\n.rf rf1 4611686018427387904 =\n").expect("program file");
    let path = file.to_str().expect("utf-8 temp path");
    let expected = format!(
        "{path}: line 2: .rf `rf1`: 4611686018427387904 registers, more than the 65535 a \
         register file can hold"
    );
    for args in [vec!["asm", path], vec!["sim", "--program", path]] {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let e = run(&args, &mut Vec::new(), &mut Vec::new()).unwrap_err();
        assert_eq!(e.exit_code, 1, "{args:?}");
        assert_eq!(e.message, expected, "{args:?}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A register file without registers, or an output past the registers
/// its `.rf` declares, is an assembler error on its line (exit 1): the
/// simulator never reads a register the program did not declare.
#[test]
fn a_degenerate_rf_or_output_is_an_assembler_error() {
    let dir = tmpdir("asm-degenerate-rf");
    fs::create_dir_all(&dir).expect("temp dir");
    let cases = [
        (
            "empty-rf.tta",
            ".width 16\n.rf rf1 0 =\n.out rf1[0]\n-\n",
            "line 2: .rf `rf1`: no registers",
        ),
        (
            "out-past-rf.tta",
            ".width 16\n.rf rf1 2 =\n.out rf1[5]\n-\n",
            "line 3: .out `rf1[5]`: .rf `rf1` has 2 registers",
        ),
    ];
    for (name, text, msg) in cases {
        let file = dir.join(name);
        fs::write(&file, text).expect("program file");
        let path = file.to_str().expect("utf-8 temp path");
        let args = ["sim", "--program", path].map(String::from);
        let e = run(&args, &mut Vec::new(), &mut Vec::new()).unwrap_err();
        assert_eq!(e.exit_code, 1, "{name}");
        assert_eq!(e.message, format!("{path}: {msg}"));
    }
    let _ = fs::remove_dir_all(&dir);
}
