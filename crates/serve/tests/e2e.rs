//! End-to-end daemon tests: a real listener on an ephemeral port, real
//! TCP clients, and the headline contract — remote output is
//! byte-identical to a local run, across spaces, strategies, formats
//! and lift modes, for one client or many concurrent ones.

mod common;

use common::{http_get, local_output, start, tiny_spec};
use tta_core::cache::SweepCache;
use tta_serve::client::{control, run_remote};
use tta_serve::jsonparse::Json;
use tta_serve::spec::{Format, JobSpec, Strategy, TestModel};

/// One remote run against `addr`, returning (stdout document, stderr
/// transcript, summary).
fn remote(addr: &str, spec: &JobSpec) -> (String, String, tta_serve::client::RemoteSummary) {
    let mut out = Vec::new();
    let mut err = Vec::new();
    let summary = run_remote(addr, spec, &mut out, &mut err).expect("remote run succeeds");
    (
        String::from_utf8(out).expect("stdout utf-8"),
        String::from_utf8(err).expect("stderr utf-8"),
        summary,
    )
}

#[test]
fn remote_output_is_byte_identical_to_local_across_specs() {
    // The matrix the issue asks for: different spaces, strategies,
    // formats, lift modes and test models — each remote document must
    // equal the local render byte for byte.
    let specs: Vec<JobSpec> = vec![
        tiny_spec(),
        JobSpec {
            format: Format::Table,
            ..tiny_spec()
        },
        JobSpec {
            format: Format::Csv,
            ..tiny_spec()
        },
        JobSpec {
            strategy: Strategy::Neighbour,
            budget: Some(5),
            ..tiny_spec()
        },
        JobSpec {
            strategy: Strategy::Random,
            seed: Some(42),
            budget: Some(4),
            ..tiny_spec()
        },
        JobSpec {
            lift: tta_core::explore::LiftMode::Full,
            ..tiny_spec()
        },
        JobSpec {
            test_model: TestModel::Scan,
            ..tiny_spec()
        },
        JobSpec {
            space: Some("fast".into()),
            workloads: vec!["crypt".into()],
            strategy: Strategy::HillClimb,
            seed: Some(7),
            budget: Some(12),
            format: Format::Json,
            ..JobSpec::default()
        },
    ];
    for spec in &specs {
        // A fresh daemon per spec: its first job runs against a cold
        // cache.
        let daemon = start(2, SweepCache::in_memory());
        let want = local_output(spec);
        let (got, stderr, summary) = remote(&daemon.addr, spec);
        assert_eq!(
            got, want,
            "remote bytes must equal local bytes for {spec:?}"
        );
        assert!(!summary.cancelled);
        assert_eq!(summary.cache, "flushed", "daemon cache is always warm");
        assert!(
            stderr.contains(&format!("remote job {}: started", summary.job)),
            "stderr should narrate the stream: {stderr}"
        );
        daemon.stop().expect("clean shutdown");
    }
}

#[test]
fn warm_daemon_cache_changes_no_byte() {
    // One daemon, the same job three times: later runs hit the warm
    // cache, and every byte must still equal the local run.
    let spec = tiny_spec();
    let want = local_output(&spec);
    let daemon = start(1, SweepCache::in_memory());
    for round in 0..3 {
        let (got, _, summary) = remote(&daemon.addr, &spec);
        assert_eq!(got, want, "round {round} drifted");
        assert_eq!(summary.cache, "flushed");
    }
    daemon.stop().expect("clean shutdown");
}

#[test]
fn concurrent_clients_all_get_identical_bytes() {
    // Two distinct specs, four clients each, all in flight at once on
    // a two-worker daemon sharing one warm cache. Every client must
    // read exactly the local document for its spec — concurrency and
    // cache sharing may never leak between jobs.
    let spec_a = tiny_spec();
    let spec_b = JobSpec {
        strategy: Strategy::Neighbour,
        lift: tta_core::explore::LiftMode::Full,
        ..tiny_spec()
    };
    let want_a = local_output(&spec_a);
    let want_b = local_output(&spec_b);
    let daemon = start(2, SweepCache::in_memory());
    let addr = daemon.addr.clone();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..8 {
            let addr = &addr;
            let (spec, want) = if i % 2 == 0 {
                (&spec_a, &want_a)
            } else {
                (&spec_b, &want_b)
            };
            handles.push(scope.spawn(move || {
                let (got, _, summary) = remote(addr, spec);
                assert_eq!(got, *want, "client {i} saw different bytes");
                summary.job
            }));
        }
        let mut jobs: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        jobs.sort_unstable();
        jobs.dedup();
        assert_eq!(jobs.len(), 8, "every client ran its own job");
    });
    daemon.stop().expect("clean shutdown");
}

#[test]
fn health_and_job_table_endpoints_answer_json() {
    let daemon = start(1, SweepCache::in_memory());
    let health = control(&daemon.addr, "/healthz");
    // control() posts; healthz is a GET — use the raw client path via
    // a plain GET request instead.
    assert!(health.is_err(), "POST /healthz is not a route");

    let (_, _, summary) = remote(&daemon.addr, &tiny_spec());
    let jobs = http_get(&daemon.addr, "/jobs");
    let arr = jobs.as_arr().expect("jobs is an array");
    assert_eq!(arr.len(), 1);
    assert_eq!(arr[0].get("job").and_then(Json::as_u64), Some(summary.job));
    assert_eq!(
        arr[0].get("state").and_then(Json::as_str),
        Some("done"),
        "{jobs:?}"
    );
    assert_eq!(arr[0].get("resumable").and_then(Json::as_bool), Some(false));

    let health = http_get(&daemon.addr, "/healthz");
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
    assert!(
        health.get("cache_entries").and_then(Json::as_u64).unwrap() > 0,
        "the finished job warmed the cache: {health:?}"
    );

    // Two paper jobs that differ only in the bus area: the second
    // misses the sweep cache but finds every component annotated.
    let components = |addr: &str| {
        http_get(addr, "/healthz")
            .get("components")
            .and_then(Json::as_u64)
            .expect("healthz counts the database's records")
    };
    let before = components(&daemon.addr);
    remote(&daemon.addr, &paper_spec(3.5));
    let after_one = components(&daemon.addr);
    assert!(after_one > before, "the paper job annotated its components");
    remote(&daemon.addr, &paper_spec(7.25));
    assert_eq!(
        components(&daemon.addr),
        after_one,
        "a second paper job annotated a component again"
    );
    daemon.stop().expect("clean shutdown");
}

/// A paper-space job with the default workload suite and its own bus
/// area, so it shares no sweep-cache address with another bus area.
fn paper_spec(bus_area: f64) -> JobSpec {
    JobSpec {
        space: Some("paper".into()),
        bus_area: Some(bus_area),
        threads: Some(1),
        format: Format::Json,
        ..JobSpec::default()
    }
}

#[test]
fn a_warm_shared_database_changes_no_byte_in_any_order() {
    // Two clients interleave jobs of every kind on one daemon, so each
    // job meets a database that other jobs have warmed to a different
    // degree. Every document must equal a local run on a fresh
    // database.
    let random = |seed: u64| JobSpec {
        space: Some("huge".into()),
        strategy: Strategy::Random,
        budget: Some(1024),
        seed: Some(seed),
        format: Format::Json,
        ..JobSpec::default()
    };
    let netlist = JobSpec {
        space: Some("huge".into()),
        strategy: Strategy::Random,
        budget: Some(32),
        seed: Some(2000),
        fidelity: tta_core::explore::FidelityMode::Netlist,
        format: Format::Json,
        ..JobSpec::default()
    };
    let lifted = JobSpec {
        space: Some("fast".into()),
        workloads: vec!["crypt".into()],
        lift: tta_core::explore::LiftMode::Full,
        test_model: TestModel::Scan,
        format: Format::Table,
        ..JobSpec::default()
    };
    let clients = [
        vec![paper_spec(3.5), random(11), netlist, paper_spec(5.0)],
        vec![random(12), lifted, paper_spec(7.25), random(13)],
    ];
    let wants: Vec<Vec<String>> = clients
        .iter()
        .map(|jobs| jobs.iter().map(local_output).collect())
        .collect();
    let daemon = start(2, SweepCache::in_memory());
    std::thread::scope(|scope| {
        for (jobs, wants) in clients.iter().zip(&wants) {
            let addr = &daemon.addr;
            scope.spawn(move || {
                for (spec, want) in jobs.iter().zip(wants) {
                    let (got, _, _) = remote(addr, spec);
                    assert_eq!(&got, want, "remote bytes drifted for {spec:?}");
                }
            });
        }
    });
    daemon.stop().expect("clean shutdown");
}
