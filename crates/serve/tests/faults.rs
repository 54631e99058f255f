//! Fault injection against a live daemon: truncated requests, garbage
//! specs, panicking workers, cancellation mid-batch, clients vanishing
//! mid-stream. The contract under test is *per-job* degradation — one
//! broken job or client must never wedge the queue, corrupt the shared
//! cache, or take the daemon down.

mod common;

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use common::{http_get, local_output, start, tiny_spec};
use tta_core::cache::{SweepCache, CACHE_FILE_NAME};
use tta_serve::client::{control, run_remote};
use tta_serve::jsonparse::Json;
use tta_serve::spec::{Format, JobSpec, Strategy};

/// A job slow enough (thousands of points sampled from the huge space,
/// several seconds in a debug build) that a disconnect reliably lands
/// mid-sweep.
fn long_spec() -> JobSpec {
    JobSpec {
        space: Some("huge".into()),
        workloads: vec!["crypt".into()],
        strategy: Strategy::Random,
        seed: Some(11),
        budget: Some(8_000),
        format: Format::Json,
        ..JobSpec::default()
    }
}

/// Sends a raw POST and returns the whole wire answer as text.
fn raw_post(addr: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut answer = String::new();
    BufReader::new(&stream)
        .read_to_string(&mut answer)
        .expect("read answer");
    answer
}

/// Polls `GET /jobs` until job `id` reports `want` (or times out).
fn wait_for_state(addr: &str, id: u64, want: &str, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        let jobs = http_get(addr, "/jobs");
        let found = jobs.as_arr().is_some_and(|arr| {
            arr.iter().any(|j| {
                j.get("job").and_then(Json::as_u64) == Some(id)
                    && j.get("state").and_then(Json::as_str) == Some(want)
            })
        });
        if found {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ttadse-faults-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn truncated_requests_answer_400_and_the_daemon_stays_healthy() {
    let daemon = start(1, SweepCache::in_memory());

    // Head cut off mid-line: the parser sees EOF inside the request
    // line and answers 400 (half-close keeps our read side open).
    {
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        stream.write_all(b"POST /run HT").expect("partial head");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut answer = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut answer)
            .expect("read answer");
        assert!(
            answer.starts_with("HTTP/1.1 400"),
            "truncated head should answer 400: {answer:?}"
        );
    }

    // Body shorter than its Content-Length.
    {
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        stream
            .write_all(b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{\"spa")
            .expect("partial body");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut answer = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut answer)
            .expect("read answer");
        assert!(
            answer.starts_with("HTTP/1.1 400"),
            "truncated body should answer 400: {answer:?}"
        );
    }

    // A head past the 16 KiB limit answers 413. The server may close
    // while we are still writing, so the send is best-effort.
    {
        let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
        let giant = format!(
            "POST /run HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "y".repeat(20 * 1024)
        );
        let _ = stream.write_all(giant.as_bytes());
        let mut answer = String::new();
        let _ = BufReader::new(&stream).read_to_string(&mut answer);
        assert!(
            answer.starts_with("HTTP/1.1 413"),
            "oversized head should answer 413: {answer:?}"
        );
    }

    // None of it left a mark: healthy, no job records, and a real job
    // still runs to completion.
    let health = http_get(&daemon.addr, "/healthz");
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        http_get(&daemon.addr, "/jobs").as_arr().map(<[Json]>::len),
        Some(0)
    );
    let (mut out, mut err) = (Vec::new(), Vec::new());
    run_remote(&daemon.addr, &tiny_spec(), &mut out, &mut err).expect("daemon still serves jobs");
    daemon.stop().expect("clean shutdown");
}

#[test]
fn malformed_specs_answer_400_and_never_reach_the_queue() {
    let daemon = start(1, SweepCache::in_memory());
    let bad_bodies = [
        "",                       // empty body
        "{not json",              // unparsable
        "{\"space\": 7}",         // ill-typed field
        "{\"bogus\": 1}",         // unknown field
        "{\"space\": \"nope\"}",  // unresolvable space
        "{\"budget\": 0}",        // invalid value
        "{\"fault\": \"quake\"}", // unknown fault kind
        "{\"parallel\": true}",   // `threads` is the one worker count
    ];
    for body in bad_bodies {
        let answer = raw_post(&daemon.addr, "/run", body);
        assert!(
            answer.starts_with("HTTP/1.1 400"),
            "{body:?} should answer 400: {answer:?}"
        );
        assert!(answer.contains("\"error\""), "{answer:?}");
    }

    // Control-path errors are equally contained: unknown job, unknown
    // route.
    let e = control(&daemon.addr, "/jobs/99/cancel").expect_err("no such job");
    assert!(e.contains("404"), "{e}");
    let e = control(&daemon.addr, "/nope").expect_err("no such route");
    assert!(e.contains("404"), "{e}");

    // Not one of those attempts became a job record.
    assert_eq!(
        http_get(&daemon.addr, "/jobs").as_arr().map(<[Json]>::len),
        Some(0),
        "rejected specs must never be admitted"
    );
    daemon.stop().expect("clean shutdown");
}

#[test]
fn a_poisoned_worker_fails_alone_and_the_queue_keeps_draining() {
    // A single worker makes the point sharper: the very thread that
    // just panicked must pick up and finish the next job.
    let daemon = start(1, SweepCache::in_memory());

    let faulty = JobSpec {
        fault: Some("panic".into()),
        ..tiny_spec()
    };
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let failure =
        run_remote(&daemon.addr, &faulty, &mut out, &mut err).expect_err("the fault fires");
    assert!(failure.contains("fault injection"), "{failure}");
    assert!(out.is_empty(), "a failed job must not emit a document");

    let jobs = http_get(&daemon.addr, "/jobs");
    let arr = jobs.as_arr().expect("jobs array");
    assert_eq!(arr[0].get("state").and_then(Json::as_str), Some("failed"));
    assert_eq!(
        arr[0].get("resumable").and_then(Json::as_bool),
        Some(false),
        "a job that panicked before evaluating has nothing to resume"
    );

    // The clean follow-up runs on the same worker thread against a
    // still-cold cache (the panic fired before any evaluation), so its
    // bytes equal the local run exactly.
    let spec = tiny_spec();
    let want = local_output(&spec);
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let summary = run_remote(&daemon.addr, &spec, &mut out, &mut err)
        .expect("the queue drains past the poisoned job");
    assert_eq!(String::from_utf8(out).expect("utf-8"), want);
    assert!(!summary.cancelled);
    assert_eq!(
        http_get(&daemon.addr, "/healthz")
            .get("ok")
            .and_then(Json::as_bool),
        Some(true)
    );
    daemon.stop().expect("clean shutdown");
}

/// A stderr sink for [`run_remote`] that cancels job `id` the first
/// time the client reports progress, so the cancel lands after the
/// first merged chunk and well before the job's last.
struct CancelOnProgress {
    addr: String,
    id: u64,
    sent: bool,
}

impl Write for CancelOnProgress {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if !self.sent && String::from_utf8_lossy(buf).contains("visited") {
            self.sent = true;
            let path = format!("/jobs/{}/cancel", self.id);
            let answer = control(&self.addr, &path).expect("cancel accepted");
            assert_eq!(answer.get("cancelled").and_then(Json::as_bool), Some(true));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `POST /jobs/<id>/resume` and the terminal event of its stream.
fn resume(addr: &str, id: u64) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST /jobs/{id}/resume HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )
    .expect("send resume");
    let mut reader = BufReader::new(&stream);
    let head = tta_serve::http::read_response_head(&mut reader).expect("resume head");
    assert_eq!(head.status, 200);
    assert!(head.chunked, "resume streams NDJSON like /run");
    let body = tta_serve::http::read_chunked_body(&mut reader).expect("resume stream");
    let text = String::from_utf8_lossy(&body);
    let done = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .expect("terminal event");
    Json::parse(done).expect("done event json")
}

#[test]
fn cancel_mid_batch_then_resume_renders_the_uninterrupted_document() {
    // Resume re-runs the stored spec over the daemon's cache: the chunks
    // the cancelled run merged answer as hits, so every strategy — the
    // seeded hill climb included — renders exactly the local
    // uninterrupted document and spends exactly its budget.
    for (strategy, budget) in [
        (Strategy::Exhaustive, 4_096),
        (Strategy::Neighbour, 4_096),
        (Strategy::Random, 2_048),
        (Strategy::HillClimb, 2_048),
    ] {
        let daemon = start(2, SweepCache::in_memory());
        let spec = JobSpec {
            space: Some("huge".into()),
            workloads: vec!["crypt".into()],
            strategy,
            seed: Some(7),
            budget: Some(budget),
            format: Format::Json,
            ..JobSpec::default()
        };
        let label = strategy.label();
        let mut err = CancelOnProgress {
            addr: daemon.addr.clone(),
            id: 1,
            sent: false,
        };
        let mut out = Vec::new();
        let summary = run_remote(&daemon.addr, &spec, &mut out, &mut err)
            .expect("a cancelled job still streams its partial document");
        assert!(
            summary.cancelled,
            "{label}: the done event reports the cancellation"
        );
        assert!(!out.is_empty(), "{label}: the partial render still streams");
        assert!(
            summary.evaluations > 0 && summary.evaluations < budget as u64,
            "{label}: cancel landed mid-sweep: {} of {budget}",
            summary.evaluations
        );

        let jobs = http_get(&daemon.addr, "/jobs");
        let record = &jobs.as_arr().expect("jobs array")[0];
        assert_eq!(
            record.get("state").and_then(Json::as_str),
            Some("cancelled")
        );
        assert_eq!(
            record.get("resumable").and_then(Json::as_bool),
            Some(true),
            "{label}: a cancelled job is resumable"
        );

        let done = resume(&daemon.addr, 1);
        assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));
        assert_eq!(done.get("job").and_then(Json::as_u64), Some(2));
        assert_eq!(done.get("cancelled").and_then(Json::as_bool), Some(false));
        assert_eq!(
            done.get("evaluations").and_then(Json::as_u64),
            Some(budget as u64),
            "{label}: the resumed job spends exactly its budget"
        );
        assert!(
            done.get("output").and_then(Json::as_str) == Some(local_output(&spec).as_str()),
            "{label}: the resumed job renders the uninterrupted document"
        );
        // Only a cancelled job resumes; the finished one answers 409.
        let e = control(&daemon.addr, "/jobs/2/resume").expect_err("job 2 is done");
        assert!(e.contains("409"), "{label}: {e}");
        daemon.stop().expect("clean shutdown");
    }
}

#[test]
fn a_client_vanishing_mid_stream_cancels_its_job_cooperatively() {
    let daemon = start(1, SweepCache::in_memory());
    let body = long_spec().to_json();
    let mut stream = TcpStream::connect(&daemon.addr).expect("connect");
    write!(
        stream,
        "POST /run HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        daemon.addr,
        body.len()
    )
    .expect("submit long job");
    // Read just enough to know the stream started, then vanish. The
    // daemon notices the broken pipe on its next progress chunk and
    // cancels the job cooperatively.
    let mut first = [0u8; 64];
    let _ = stream.read(&mut first);
    drop(stream);

    assert!(
        wait_for_state(&daemon.addr, 1, "cancelled", Duration::from_secs(30)),
        "the orphaned job should land in the cancelled state"
    );
    let jobs = http_get(&daemon.addr, "/jobs");
    let record = &jobs.as_arr().expect("jobs array")[0];
    assert_eq!(
        record.get("resumable").and_then(Json::as_bool),
        Some(true),
        "the orphaned job stopped cancelled, so it resumes"
    );

    // The daemon shrugged it off: healthy, and a fresh client gets a
    // complete run.
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let summary = run_remote(&daemon.addr, &tiny_spec(), &mut out, &mut err)
        .expect("daemon still serves jobs");
    assert!(!summary.cancelled);
    daemon.stop().expect("clean shutdown");
}

#[test]
fn faulted_daemons_flush_byte_identical_cache_files() {
    // Two dir-backed daemons run the same real job; one of them also
    // absorbs a panicking job first. The injected panic fires before
    // any evaluation, so the fault contributes nothing to the cache —
    // after graceful shutdown both flushed files must match byte for
    // byte. Any drift would mean a failing job corrupted shared state.
    let clean_dir = scratch_dir("clean");
    let fault_dir = scratch_dir("fault");
    let clean = start(1, SweepCache::open(&clean_dir).expect("open clean cache"));
    let faulted = start(1, SweepCache::open(&fault_dir).expect("open faulted cache"));

    let faulty = JobSpec {
        fault: Some("panic".into()),
        ..tiny_spec()
    };
    let (mut out, mut err) = (Vec::new(), Vec::new());
    run_remote(&faulted.addr, &faulty, &mut out, &mut err).expect_err("the fault fires");

    let spec = tiny_spec();
    for daemon in [&clean, &faulted] {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let summary =
            run_remote(&daemon.addr, &spec, &mut out, &mut err).expect("the real job runs");
        assert_eq!(summary.cache, "flushed");
    }

    clean.stop().expect("clean daemon shutdown");
    faulted.stop().expect("faulted daemon shutdown");

    let clean_bytes = std::fs::read(clean_dir.join(CACHE_FILE_NAME)).expect("clean cache file");
    let fault_bytes = std::fs::read(fault_dir.join(CACHE_FILE_NAME)).expect("faulted cache file");
    assert!(!clean_bytes.is_empty(), "the job populated the cache");
    assert_eq!(
        clean_bytes, fault_bytes,
        "a failing job must not perturb the flushed cache"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&fault_dir);
}
