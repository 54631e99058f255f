//! The sweep daemon: one warm cache, a worker pool, streamed jobs.
//!
//! A [`Server`] owns one process-wide [`SweepCache`] (sharded internally
//! — see `tta_core::cache`) that every job warms for the next, a
//! [`Queue`] scheduling admitted jobs by priority/budget/FIFO, and a
//! small worker pool that runs each job under `catch_unwind` so a
//! panicking job (or the fault suite's injected `"panic"`) fails alone:
//! the queue keeps draining, the cache stays consistent, and later jobs
//! succeed.
//!
//! ## Endpoints
//!
//! | method & path            | behaviour                                   |
//! |--------------------------|---------------------------------------------|
//! | `GET /healthz`           | liveness + queue/cache counters             |
//! | `POST /run`              | submit a job spec; streams NDJSON events    |
//! | `GET /jobs`              | job table snapshot                          |
//! | `POST /jobs/<id>/cancel` | cooperative cancel (stops within one chunk) |
//! | `POST /jobs/<id>/resume` | re-submit a cancelled job as a new job      |
//! | `POST /shutdown`         | graceful shutdown (also `SIGTERM`)          |
//!
//! `POST /run` answers `200` with `Transfer-Encoding: chunked` and one
//! JSON event per line: `queued`, `started`, `progress` (one per
//! evaluated chunk, carrying the live visit and front counts), then
//! exactly one of `done` (with the fully rendered stdout document
//! embedded as a JSON string) or `error`. Invalid specs never reach the
//! queue — they answer `400` immediately. A client that disconnects
//! mid-stream cancels its job cooperatively; a cancelled job resumes by
//! re-running its spec over the shared cache, where the chunks it
//! merged answer as hits.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use tta_core::cache::SweepCache;
use tta_core::explore::{CancelToken, SweepProgress};

use crate::exec::{self, JobOutput, PreparedJob};
use crate::http::{
    parse_error_status, read_request, write_error, write_response, ChunkedWriter, Request,
};
use crate::json;
use crate::queue::Queue;
use crate::spec::JobSpec;

/// Process-wide flag a `SIGTERM`/`SIGINT` handler flips; the accept
/// loop polls it alongside the `/shutdown` flag.
static TERMINATED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_terminate(_signum: i32) {
    TERMINATED.store(true, Ordering::Release);
}

/// Installs the graceful-shutdown signal handler for `SIGTERM` and
/// `SIGINT`. Idempotent; only the daemon binary calls this (tests stop
/// servers via `/shutdown`).
pub fn install_signal_handlers() {
    // The container has no libc crate; the two-argument signal(2) ABI
    // is stable enough to declare by hand. 15 = SIGTERM, 2 = SIGINT.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_terminate as *const () as usize;
    unsafe {
        signal(15, handler);
        signal(2, handler);
    }
}

/// Lifecycle of one admitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Cancelled,
    Failed(String),
}

impl JobState {
    fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed(_) => "failed",
        }
    }
}

/// The server-side record of a job, kept after completion so cancelled
/// jobs can be resumed and `GET /jobs` can report history.
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    cancel: CancelToken,
    evaluations: usize,
    front: usize,
}

/// One queue entry: everything a worker needs to run a job and stream
/// its events back to the waiting connection handler.
struct QueuedJob {
    id: u64,
    prepared: PreparedJob,
    cancel: CancelToken,
    events: mpsc::Sender<Event>,
}

/// Worker→handler messages; the handler turns each into one NDJSON
/// line on the wire.
enum Event {
    Started,
    Progress(SweepProgress),
    Finished(Box<JobOutput>),
    Failed(String),
}

struct ServerState {
    cache: SweepCache,
    queue: Queue<QueuedJob>,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
}

impl ServerState {
    fn jobs(&self) -> MutexGuard<'_, HashMap<u64, JobRecord>> {
        // Poison tolerance everywhere a panicking worker might have
        // held a guard: one wedged job must never wedge the daemon.
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) || TERMINATED.load(Ordering::Acquire)
    }
}

/// The daemon. [`Server::bind`] claims the socket (so callers learn the
/// ephemeral port before any client races in); [`Server::run`] serves
/// until `/shutdown` or a signal, then drains gracefully.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, port 0 for ephemeral) and
    /// starts `workers` job workers over `cache`.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(addr: &str, workers: usize, cache: SweepCache) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let state = Arc::new(ServerState {
            cache,
            queue: Queue::new(),
            jobs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();
        Ok(Server {
            listener,
            state,
            workers,
        })
    }

    /// The bound address (port resolved when binding `:0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until shutdown is requested, then drains: the queue
    /// closes, running jobs are cancelled cooperatively, workers are
    /// joined, and the warm cache is flushed one final time.
    ///
    /// # Errors
    ///
    /// A final cache-flush failure (connection-level errors are
    /// per-connection, never fatal to the daemon).
    pub fn run(self) -> std::io::Result<()> {
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.state.stopping() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let state = Arc::clone(&self.state);
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(stream, &state)
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
            handlers.retain(|h| !h.is_finished());
        }
        // Graceful drain: no new jobs, cancel whatever is running (the
        // cancel is cooperative — each job stops within a chunk),
        // then wait for workers and in-flight connections.
        self.state.queue.close();
        for record in self.state.jobs().values() {
            if record.state == JobState::Running {
                record.cancel.cancel();
            }
        }
        for w in self.workers {
            let _ = w.join();
        }
        for h in handlers {
            let _ = h.join();
        }
        self.state.cache.flush()
    }
}

/// Runs jobs off the queue until it closes. Each job executes under
/// `catch_unwind`: a panic marks that job failed and the loop continues
/// — the poisoned worker never takes the daemon down with it.
fn worker_loop(state: &ServerState) {
    while let Some(job) = state.queue.pop() {
        if let Some(r) = state.jobs().get_mut(&job.id) {
            r.state = JobState::Running;
        }
        let _ = job.events.send(Event::Started);
        let events = job.events.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut observer = |p: &SweepProgress| {
                let _ = events.send(Event::Progress(p.clone()));
            };
            job.prepared.run(
                Some(&state.cache),
                Some(job.cancel.clone()),
                Some(&mut observer),
            )
        }));
        let mut jobs = state.jobs();
        match outcome {
            Ok(out) => {
                if let Some(r) = jobs.get_mut(&job.id) {
                    r.state = if out.cancelled {
                        JobState::Cancelled
                    } else {
                        JobState::Done
                    };
                    r.evaluations = out.evaluations;
                    r.front = out.front;
                }
                drop(jobs);
                let _ = job.events.send(Event::Finished(Box::new(out)));
            }
            Err(panic) => {
                // `&*panic` reaches the payload itself; a plain `&panic`
                // would coerce the Box into `dyn Any` and the downcasts
                // below would never match.
                let msg = panic_message(&*panic);
                if let Some(r) = jobs.get_mut(&job.id) {
                    r.state = JobState::Failed(msg.clone());
                }
                drop(jobs);
                let _ = job.events.send(Event::Failed(msg));
            }
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("job panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("job panicked: {s}")
    } else {
        "job panicked".into()
    }
}

fn handle_connection(stream: TcpStream, state: &ServerState) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let request = match read_request(&mut reader) {
        Ok(r) => r,
        Err(None) => return,
        Err(Some(e)) => {
            let (status, reason) = parse_error_status(&e);
            let _ = write_error(&mut writer, status, reason, &e.to_string());
            return;
        }
    };
    let _ = route(&request, &mut writer, state);
}

fn route(req: &Request, w: &mut TcpStream, state: &ServerState) -> std::io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let body = json::object([
                ("ok", json::boolean(true)),
                ("queued", json::int(state.queue.len() as u64)),
                ("jobs", json::int(state.jobs().len() as u64)),
                ("cache_entries", json::int(state.cache.len() as u64)),
            ]);
            write_json(w, &body)
        }
        ("GET", "/jobs") => {
            let jobs = state.jobs();
            let mut ids: Vec<_> = jobs.keys().copied().collect();
            ids.sort_unstable();
            let body = json::array(ids.iter().map(|id| {
                let r = &jobs[id];
                json::object([
                    ("job", json::int(*id)),
                    ("state", json::string(r.state.label())),
                    ("evaluations", json::int(r.evaluations as u64)),
                    ("front", json::int(r.front as u64)),
                    ("resumable", json::boolean(r.state == JobState::Cancelled)),
                ])
            }));
            write_json(w, &body)
        }
        ("POST", "/run") => match std::str::from_utf8(&req.body) {
            Ok(body) if !body.trim().is_empty() => match JobSpec::from_json(body) {
                Ok(spec) => run_job(spec, w, state),
                Err(e) => write_error(w, 400, "Bad Request", &e),
            },
            _ => write_error(w, 400, "Bad Request", "expected a JSON job spec body"),
        },
        ("POST", "/shutdown") => {
            state.shutdown.store(true, Ordering::Release);
            write_json(w, &json::object([("shutting_down", json::boolean(true))]))
        }
        ("POST", path) => {
            if let Some(id) = path
                .strip_prefix("/jobs/")
                .and_then(|rest| rest.strip_suffix("/cancel"))
                .and_then(|id| id.parse::<u64>().ok())
            {
                return cancel_job(id, w, state);
            }
            if let Some(id) = path
                .strip_prefix("/jobs/")
                .and_then(|rest| rest.strip_suffix("/resume"))
                .and_then(|id| id.parse::<u64>().ok())
            {
                return resume_job(id, w, state);
            }
            write_error(w, 404, "Not Found", &format!("no route for {path}"))
        }
        (method, path) => write_error(
            w,
            404,
            "Not Found",
            &format!("no route for {method} {path}"),
        ),
    }
}

fn write_json(w: &mut TcpStream, body: &str) -> std::io::Result<()> {
    let mut framed = body.to_string();
    framed.push('\n');
    write_response(w, 200, "OK", "application/json", framed.as_bytes())
}

fn cancel_job(id: u64, w: &mut TcpStream, state: &ServerState) -> std::io::Result<()> {
    let jobs = state.jobs();
    match jobs.get(&id) {
        None => {
            drop(jobs);
            write_error(w, 404, "Not Found", &format!("no job {id}"))
        }
        Some(r) => {
            r.cancel.cancel();
            let was = r.state.label();
            drop(jobs);
            write_json(
                w,
                &json::object([
                    ("job", json::int(id)),
                    ("cancelled", json::boolean(true)),
                    ("state", json::string(was)),
                ]),
            )
        }
    }
}

/// Re-submits a cancelled job's stored spec as a new job; the shared
/// cache makes it finish exactly as an uninterrupted run would.
fn resume_job(id: u64, w: &mut TcpStream, state: &ServerState) -> std::io::Result<()> {
    let jobs = state.jobs();
    let Some(r) = jobs.get(&id) else {
        drop(jobs);
        return write_error(w, 404, "Not Found", &format!("no job {id}"));
    };
    if r.state != JobState::Cancelled {
        let state_label = r.state.label();
        drop(jobs);
        return write_error(
            w,
            409,
            "Conflict",
            &format!("job {id} is {state_label}; only a cancelled job can be resumed"),
        );
    }
    let spec = r.spec.clone();
    drop(jobs);
    run_job(spec, w, state)
}

/// Admits and streams one job: a spec parsed from a `POST /run` body,
/// or a cancelled job's stored spec (the `/jobs/<id>/resume` path).
fn run_job(spec: JobSpec, w: &mut TcpStream, state: &ServerState) -> std::io::Result<()> {
    // Validation runs *before* queueing: a bad spec answers 400 here
    // and the queue never sees it.
    let prepared = match exec::prepare(&spec) {
        Ok(p) => p,
        Err(e) => return write_error(w, 400, "Bad Request", &e),
    };
    let id = state.next_id.fetch_add(1, Ordering::Relaxed);
    let cancel = CancelToken::new();
    let (tx, rx) = mpsc::channel();
    state.jobs().insert(
        id,
        JobRecord {
            spec: spec.clone(),
            state: JobState::Queued,
            cancel: cancel.clone(),
            evaluations: 0,
            front: 0,
        },
    );
    let admitted = state.queue.push(
        QueuedJob {
            id,
            prepared,
            cancel: cancel.clone(),
            events: tx,
        },
        spec.priority,
        spec.budget,
    );
    if !admitted {
        state.jobs().remove(&id);
        return write_error(w, 503, "Service Unavailable", "daemon is shutting down");
    }
    let mut line = json::object([("event", json::string("queued")), ("job", json::int(id))]);
    line.push('\n');
    // Drain events until the job reaches a terminal state. If the
    // client hangs up — mid-stream, or before the stream even started
    // — cancel the job cooperatively but keep draining so the record
    // still lands in a terminal state (a cancelled one resumes).
    let mut out = w
        .try_clone()
        .and_then(|stream| ChunkedWriter::begin(stream, "application/x-ndjson"))
        .and_then(|mut out| out.chunk(line.as_bytes()).map(|()| out))
        .ok();
    if out.is_none() {
        cancel.cancel();
    }
    while let Ok(event) = rx.recv() {
        let (line, terminal) = render_event(id, &event);
        if out
            .as_mut()
            .is_some_and(|out| out.chunk(line.as_bytes()).is_err())
        {
            out = None;
            cancel.cancel();
        }
        if terminal {
            break;
        }
    }
    if let Some(out) = out {
        let _ = out.finish();
    }
    Ok(())
}

/// Renders one event as an NDJSON line; the bool marks terminal events.
fn render_event(id: u64, event: &Event) -> (String, bool) {
    let (mut line, terminal) = match event {
        Event::Started => (
            json::object([("event", json::string("started")), ("job", json::int(id))]),
            false,
        ),
        Event::Progress(p) => (
            json::object([
                ("event", json::string("progress")),
                ("job", json::int(id)),
                ("round", json::int(p.round as u64)),
                ("visited", json::int(p.visited as u64)),
                ("feasible", json::int(p.feasible as u64)),
                ("infeasible", json::int(p.infeasible as u64)),
                ("front", json::int(p.front as u64)),
                ("space_points", json::int(p.space_len as u64)),
            ]),
            false,
        ),
        Event::Finished(out) => (
            json::object([
                ("event", json::string("done")),
                ("job", json::int(id)),
                ("evaluations", json::int(out.evaluations as u64)),
                ("front", json::int(out.front as u64)),
                ("cancelled", json::boolean(out.cancelled)),
                ("cache", json::string(out.cache)),
                (
                    "flush_failure",
                    out.flush_failure
                        .as_deref()
                        .map_or_else(|| "null".into(), json::string),
                ),
                ("output", json::string(&out.output)),
            ]),
            true,
        ),
        Event::Failed(msg) => (
            json::object([
                ("event", json::string("error")),
                ("job", json::int(id)),
                ("error", json::string(msg)),
            ]),
            true,
        ),
    };
    line.push('\n');
    (line, terminal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonparse::Json;

    /// The keys of one rendered event line, sorted.
    fn keys(line: &str) -> Vec<String> {
        match Json::parse(line.trim_end()).expect("event is JSON") {
            Json::Obj(map) => map.into_keys().collect(),
            other => panic!("event is not an object: {other:?}"),
        }
    }

    #[test]
    fn progress_events_carry_exactly_the_sweep_counters() {
        let progress = SweepProgress {
            round: 2,
            visited: 128,
            feasible: 120,
            infeasible: 8,
            front: 5,
            space_len: 16_384,
        };
        let (line, terminal) = render_event(7, &Event::Progress(progress));
        assert!(!terminal);
        assert!(line.ends_with('\n') && line.matches('\n').count() == 1);
        assert_eq!(
            keys(&line),
            [
                "event",
                "feasible",
                "front",
                "infeasible",
                "job",
                "round",
                "space_points",
                "visited"
            ]
        );
        let event = Json::parse(line.trim_end()).unwrap();
        assert_eq!(event.get("visited").and_then(Json::as_u64), Some(128));
        assert_eq!(
            event.get("space_points").and_then(Json::as_u64),
            Some(16_384)
        );
    }

    #[test]
    fn done_events_carry_the_document_and_no_engine_statistics() {
        let out = JobOutput {
            output: "{\"front\":[]}\n".into(),
            evaluations: 24,
            front: 3,
            cancelled: false,
            schedule: Default::default(),
            cache: "flushed",
            flush_failure: None,
        };
        let (line, terminal) = render_event(9, &Event::Finished(Box::new(out)));
        assert!(terminal);
        assert_eq!(
            keys(&line),
            [
                "cache",
                "cancelled",
                "evaluations",
                "event",
                "flush_failure",
                "front",
                "job",
                "output"
            ]
        );
        let event = Json::parse(line.trim_end()).unwrap();
        assert_eq!(
            event.get("output").and_then(Json::as_str),
            Some("{\"front\":[]}\n"),
            "the document travels verbatim"
        );
        assert_eq!(event.get("flush_failure"), Some(&Json::Null));
    }
}
