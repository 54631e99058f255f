//! Concurrency stress: randomized mixes of overlapping jobs, all in
//! flight at once against one shared warm-cache daemon. Every job's
//! stdout document must be bit-identical to its own serial, cacheless
//! run — concurrency, queue scheduling, and cache sharing may never
//! leak between jobs —
//! and every job must report its [`CacheStatus`] outcome.
//!
//! [`CacheStatus`]: tta_core::explore::CacheStatus

mod common;

use proptest::prelude::*;

use common::{local_output, start, tiny_spec};
use tta_core::cache::SweepCache;
use tta_serve::client::run_remote;
use tta_serve::spec::{Format, JobSpec, Strategy};

/// One randomized job: the space/strategy pairing from `choice`, the
/// search `seed`, the evaluation `budget`, and a queue priority.
fn spec_of(choice: u64, seed: u64, budget: usize) -> JobSpec {
    let (space, strategy) = match choice % 4 {
        0 => ("tiny", Strategy::Exhaustive),
        1 => ("tiny", Strategy::Neighbour),
        2 => ("fast", Strategy::Random),
        _ => ("fast", Strategy::HillClimb),
    };
    JobSpec {
        space: Some(space.into()),
        workloads: vec!["crypt".into()],
        strategy,
        seed: match strategy {
            Strategy::Random | Strategy::HillClimb => Some(seed),
            _ => None,
        },
        budget: match strategy {
            Strategy::Exhaustive => None,
            _ => Some(budget),
        },
        format: Format::Json,
        priority: (choice % 3) as i64 - 1,
        ..JobSpec::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn concurrent_overlapping_jobs_match_their_serial_runs(
        choices in proptest::collection::vec((0u64..4, 0u64..1_000, 3usize..12), 6..9),
    ) {
        let specs: Vec<JobSpec> = choices
            .iter()
            .map(|&(choice, seed, budget)| spec_of(choice, seed, budget))
            .collect();
        // The oracle: each spec run serially, in-process, cacheless.
        let wants: Vec<String> = specs.iter().map(local_output).collect();
        // The system under stress: every spec at once, three workers,
        // one shared cache the overlapping spaces keep warming.
        let daemon = start(3, SweepCache::in_memory());
        let addr = daemon.addr.clone();
        std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .zip(&wants)
                .enumerate()
                .map(|(i, (spec, want))| {
                    let addr = &addr;
                    scope.spawn(move || {
                        let (mut out, mut err) = (Vec::new(), Vec::new());
                        let summary = run_remote(addr, spec, &mut out, &mut err)
                            .expect("remote run succeeds under load");
                        let got = String::from_utf8(out).expect("utf-8");
                        assert_eq!(
                            got, **want,
                            "client {i} ({spec:?}) drifted from its serial run"
                        );
                        assert!(!summary.cancelled, "client {i} was not cancelled");
                        assert_eq!(
                            summary.cache, "flushed",
                            "client {i} must report its cache outcome"
                        );
                        summary.job
                    })
                })
                .collect();
            let mut jobs: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            jobs.sort_unstable();
            jobs.dedup();
            prop_assert_eq!(jobs.len(), specs.len(), "every client ran its own job");
            Ok(())
        })?;
        daemon.stop().expect("clean shutdown");
    }

    #[test]
    fn repeated_identical_jobs_stay_deterministic_as_the_cache_warms(
        knobs in (0u64..4, 0u64..1_000, 3usize..12),
    ) {
        // The same spec hammered concurrently AND repeatedly: cache
        // state at admission time differs per round, bytes may not.
        let (choice, seed, budget) = knobs;
        let spec = spec_of(choice, seed, budget);
        let want = local_output(&spec);
        let daemon = start(2, SweepCache::in_memory());
        let addr = daemon.addr.clone();
        for _round in 0..2 {
            std::thread::scope(|scope| {
                for _client in 0..3 {
                    let (addr, spec, want) = (&addr, &spec, &want);
                    scope.spawn(move || {
                        let (mut out, mut err) = (Vec::new(), Vec::new());
                        run_remote(addr, spec, &mut out, &mut err).expect("remote run");
                        let got = String::from_utf8(out).expect("utf-8");
                        assert_eq!(&got, want, "warm rounds must not drift");
                    });
                }
            });
        }
        daemon.stop().expect("clean shutdown");
    }
}

/// Not a property, but the anchor the properties lean on: the shared
/// harness oracle itself is stable across invocations.
#[test]
fn the_serial_oracle_is_reproducible() {
    let spec = tiny_spec();
    assert_eq!(local_output(&spec), local_output(&spec));
}
