//! The sweep daemon: one warm cache and one annotation database, one
//! thread per request, streamed jobs.
//!
//! A [`Server`] owns one process-wide [`SweepCache`] (its entries
//! behind one lock — see `tta_core::cache`) and one [`ComponentDb`]
//! that every job warms for the next, and a [`Gate`] that lets at most
//! `--workers` jobs run at once, starting waiting ones by
//! priority/budget/FIFO. The cache
//! answers points a finished job already evaluated; the database keeps
//! each component's ATPG and march record, so a job that misses the
//! cache (say, a new interconnect constant) annotates nothing another
//! job already annotated. Both are deterministic in their keys, so a
//! warm daemon renders exactly the bytes a cold local run does.
//!
//! Every connection is served on its own thread, and a job runs on the
//! thread of the connection that submitted it: its events go straight
//! to that connection's stream.
//! Each job runs under `catch_unwind`, so a panicking job (or the fault
//! suite's injected `"panic"`) fails alone: waiting jobs keep starting,
//! the cache stays consistent, and later jobs succeed.
//!
//! Every connection has fixed [`READ_DEADLINE`] and [`WRITE_DEADLINE`]s,
//! so a silent client cannot hold up shutdown, and one that stops
//! reading its stream cancels its job and frees the slot.
//!
//! ## Endpoints
//!
//! | method & path            | behaviour                                   |
//! |--------------------------|---------------------------------------------|
//! | `GET /healthz`           | liveness + queue/cache/database counters    |
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
//! gate — they answer `400` immediately. A client that disconnects
//! mid-stream cancels its job cooperatively; a cancelled job resumes by
//! re-running its spec over the shared cache, where the chunks it
//! merged answer as hits.

use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use tta_core::cache::SweepCache;
use tta_core::explore::{CancelToken, SweepProgress};
use tta_core::ComponentDb;

use crate::exec::{self, JobOutput};
use crate::http::{
    parse_error_status, read_request, write_error, write_response, ChunkedWriter, Request,
};
use crate::json;
use crate::queue::Gate;
use crate::spec::JobSpec;

/// How long a connection may go silent while sending its request; a
/// request that misses it answers `400`.
pub const READ_DEADLINE: Duration = Duration::from_secs(5);

/// How long one write to a connection may block before the client
/// counts as gone (and its job is cancelled).
pub const WRITE_DEADLINE: Duration = Duration::from_secs(30);

/// How often the shutdown watcher looks at the stop flags. A signal
/// handler can only set a flag, so the watcher has to poll.
const STOP_POLL: Duration = Duration::from_millis(20);

/// How many finished (done, cancelled or failed) job records the daemon
/// keeps for `GET /jobs` and `POST /jobs/<id>/resume`. Past it, the
/// record that finished first goes; queued and running records are
/// never dropped.
const RETAINED_FINISHED_JOBS: usize = 1024;

/// Process-wide flag a `SIGTERM`/`SIGINT` handler flips; the shutdown
/// watcher polls it alongside the `/shutdown` flag.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Cancelled,
    Failed,
}

impl JobState {
    fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
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

/// Every queued and running job, plus the last
/// [`RETAINED_FINISHED_JOBS`] to finish.
#[derive(Default)]
struct JobTable {
    records: HashMap<u64, JobRecord>,
    // Ids of the finished records, first finished first.
    finished: VecDeque<u64>,
}

impl JobTable {
    /// Moves job `id` into the finished state `to` with its final
    /// counts, then drops the earliest-finished records beyond the cap.
    fn finish(&mut self, id: u64, to: JobState, evaluations: usize, front: usize) {
        let Some(r) = self.records.get_mut(&id) else {
            return;
        };
        r.state = to;
        r.evaluations = evaluations;
        r.front = front;
        self.finished.push_back(id);
        while self.finished.len() > RETAINED_FINISHED_JOBS {
            if let Some(oldest) = self.finished.pop_front() {
                self.records.remove(&oldest);
            }
        }
    }
}

/// One NDJSON line of a job stream.
enum Event<'a> {
    Queued,
    Started,
    Progress(&'a SweepProgress),
    Done(&'a JobOutput),
    Error(&'a str),
}

struct ServerState {
    cache: SweepCache,
    db: ComponentDb,
    gate: Gate,
    jobs: Mutex<JobTable>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
}

impl ServerState {
    fn jobs(&self) -> MutexGuard<'_, JobTable> {
        // Poison tolerance everywhere a panicking job's thread might
        // have held a guard: one wedged job must never wedge the daemon.
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
    state: ServerState,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, port 0 for ephemeral) and
    /// admits at most `workers` jobs at once over `cache` and a fresh
    /// annotation database that lives as long as the daemon.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(addr: &str, workers: usize, cache: SweepCache) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state: ServerState {
                cache,
                db: ComponentDb::new(),
                gate: Gate::new(workers),
                jobs: Mutex::default(),
                next_id: AtomicU64::new(1),
                shutdown: AtomicBool::new(false),
            },
        })
    }

    /// The bound address (port resolved when binding `:0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until shutdown is requested, then drains: the gate
    /// closes, running jobs are cancelled cooperatively, every
    /// connection thread is joined, and the warm cache is flushed one
    /// final time.
    ///
    /// # Errors
    ///
    /// A final cache-flush failure (connection-level errors are
    /// per-connection, never fatal to the daemon).
    pub fn run(self) -> std::io::Result<()> {
        let Server { listener, state } = self;
        // On Linux a connect to an unspecified address (`0.0.0.0`)
        // reaches the local host, so the bound address always works.
        let wake = listener.local_addr()?;
        std::thread::scope(|scope| {
            // The accept below blocks; once a stop flag is set, this
            // watcher connects to the listener so the loop sees it.
            scope.spawn(|| {
                while !state.stopping() {
                    std::thread::sleep(STOP_POLL);
                }
                let _ = TcpStream::connect(wake);
            });
            for stream in listener.incoming() {
                if state.stopping() {
                    break;
                }
                if let Ok(stream) = stream {
                    let state = &state;
                    scope.spawn(move || handle_connection(stream, state));
                }
            }
            // Graceful drain: no new jobs, cancel whatever is running
            // (the cancel is cooperative — each job stops within a
            // chunk). Waiting jobs still run; the scope joins every
            // connection thread.
            state.gate.close();
            for record in state.jobs().records.values() {
                if record.state == JobState::Running {
                    record.cancel.cancel();
                }
            }
        });
        state.cache.flush()
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
    let deadlines = stream
        .set_read_timeout(Some(READ_DEADLINE))
        .and_then(|()| stream.set_write_timeout(Some(WRITE_DEADLINE)));
    let Ok(read_half) = deadlines.and_then(|()| stream.try_clone()) else {
        return;
    };
    let mut reader = BufReader::new(read_half);
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
    if request.method == "POST" {
        // Close first: the client has its answer before the trim runs.
        drop((reader, writer));
        release_free_heap();
    }
}

/// Hands the allocator's free pages back to the OS. Each job runs on a
/// fresh connection thread, and glibc gives such threads whichever
/// malloc arena is free, so a job's transient memory lands in a
/// rotating set of arenas that each keep their high-water mark. A trim
/// after each job keeps the daemon's resident set at its live data.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only walks the
        // allocator's own free lists under its arena locks, so any
        // thread may call it at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

fn route(req: &Request, w: &mut TcpStream, state: &ServerState) -> std::io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let body = json::object([
                ("ok", json::boolean(true)),
                ("queued", json::int(state.gate.waiting() as u64)),
                ("jobs", json::int(state.jobs().records.len() as u64)),
                ("cache_entries", json::int(state.cache.len() as u64)),
                ("components", json::int(state.db.len() as u64)),
            ]);
            write_json(w, &body)
        }
        ("GET", "/jobs") => {
            let jobs = state.jobs();
            let mut ids: Vec<_> = jobs.records.keys().copied().collect();
            ids.sort_unstable();
            let body = json::array(ids.iter().map(|id| {
                let r = &jobs.records[id];
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
            let job = path
                .strip_prefix("/jobs/")
                .and_then(|rest| rest.split_once('/'));
            match job.and_then(|(id, action)| Some((id.parse::<u64>().ok()?, action))) {
                Some((id, "cancel")) => cancel_job(id, w, state),
                Some((id, "resume")) => resume_job(id, w, state),
                _ => write_error(w, 404, "Not Found", &format!("no route for {path}")),
            }
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
    let was = state.jobs().records.get(&id).map(|r| {
        r.cancel.cancel();
        r.state.label()
    });
    match was {
        None => write_error(w, 404, "Not Found", &format!("no job {id}")),
        Some(was) => write_json(
            w,
            &json::object([
                ("job", json::int(id)),
                ("cancelled", json::boolean(true)),
                ("state", json::string(was)),
            ]),
        ),
    }
}

/// Re-submits a cancelled job's stored spec as a new job; the shared
/// cache makes it finish exactly as an uninterrupted run would. A
/// record past [`RETAINED_FINISHED_JOBS`] is gone and answers `404`.
fn resume_job(id: u64, w: &mut TcpStream, state: &ServerState) -> std::io::Result<()> {
    let found = state.jobs().records.get(&id).map(|r| {
        let resumable = r.state == JobState::Cancelled;
        (r.state.label(), resumable.then(|| r.spec.clone()))
    });
    match found {
        None => write_error(w, 404, "Not Found", &format!("no job {id}")),
        Some((_, Some(spec))) => run_job(spec, w, state),
        Some((label, None)) => write_error(
            w,
            409,
            "Conflict",
            &format!("job {id} is {label}; only a cancelled job can be resumed"),
        ),
    }
}

/// Admits and runs one job on this connection's thread, streaming its
/// events: a spec parsed from a `POST /run` body, or a cancelled job's
/// stored spec (the `/jobs/<id>/resume` path).
fn run_job(spec: JobSpec, w: &mut TcpStream, state: &ServerState) -> std::io::Result<()> {
    // Validation runs *before* queueing: a bad spec answers 400 here
    // and the gate never sees it.
    let prepared = match exec::prepare(&spec) {
        Ok(p) => p,
        Err(e) => return write_error(w, 400, "Bad Request", &e),
    };
    let id = state.next_id.fetch_add(1, Ordering::Relaxed);
    let cancel = CancelToken::new();
    state.jobs().records.insert(
        id,
        JobRecord {
            spec: spec.clone(),
            state: JobState::Queued,
            cancel: cancel.clone(),
            evaluations: 0,
            front: 0,
        },
    );
    let Some(mut ticket) = state.gate.enter(spec.priority, spec.budget) else {
        state.jobs().records.remove(&id);
        return write_error(w, 503, "Service Unavailable", "daemon is shutting down");
    };
    // If the client hangs up — mid-stream, before the stream even
    // started, or by not reading past the write deadline — cancel the
    // job cooperatively but run it on, so the record still lands in a
    // terminal state (a cancelled one resumes).
    let mut out = ChunkedWriter::begin(&mut *w, "application/x-ndjson").ok();
    let mut send = |event: Event| {
        let line = render_event(id, &event);
        if out
            .as_mut()
            .is_some_and(|out| out.chunk(line.as_bytes()).is_err())
        {
            out = None;
        }
        if out.is_none() {
            cancel.cancel();
        }
    };
    send(Event::Queued);
    ticket.wait();
    if let Some(r) = state.jobs().records.get_mut(&id) {
        r.state = JobState::Running;
    }
    send(Event::Started);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut observer = |p: &SweepProgress| send(Event::Progress(p));
        prepared.run(
            &state.db,
            Some(&state.cache),
            Some(cancel.clone()),
            Some(&mut observer),
        )
    }));
    match outcome {
        Ok(done) => {
            let to = if done.cancelled {
                JobState::Cancelled
            } else {
                JobState::Done
            };
            state.jobs().finish(id, to, done.evaluations, done.front);
            // The slot is free before the (possibly large) document
            // goes out.
            drop(ticket);
            send(Event::Done(&done));
        }
        Err(panic) => {
            // `&*panic` reaches the payload itself; a plain `&panic`
            // would coerce the Box into `dyn Any` and the downcasts
            // would never match.
            let msg = panic_message(&*panic);
            state.jobs().finish(id, JobState::Failed, 0, 0);
            drop(ticket);
            send(Event::Error(&msg));
        }
    }
    if let Some(out) = out {
        let _ = out.finish();
    }
    Ok(())
}

/// Renders one event as an NDJSON line.
fn render_event(id: u64, event: &Event) -> String {
    let mut line = match event {
        Event::Queued => json::object([("event", json::string("queued")), ("job", json::int(id))]),
        Event::Started => {
            json::object([("event", json::string("started")), ("job", json::int(id))])
        }
        Event::Progress(p) => json::object([
            ("event", json::string("progress")),
            ("job", json::int(id)),
            ("round", json::int(p.round as u64)),
            ("visited", json::int(p.visited as u64)),
            ("feasible", json::int(p.feasible as u64)),
            ("infeasible", json::int(p.infeasible as u64)),
            ("front", json::int(p.front as u64)),
            ("space_points", json::int(p.space_len as u64)),
        ]),
        Event::Done(out) => json::object([
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
        Event::Error(msg) => json::object([
            ("event", json::string("error")),
            ("job", json::int(id)),
            ("error", json::string(msg)),
        ]),
    };
    line.push('\n');
    line
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

    fn record(state: JobState) -> JobRecord {
        JobRecord {
            spec: JobSpec::default(),
            state,
            cancel: CancelToken::new(),
            evaluations: 0,
            front: 0,
        }
    }

    #[test]
    fn the_job_table_drops_the_earliest_finished_records_first() {
        let mut table = JobTable::default();
        table.records.insert(1, record(JobState::Queued));
        table.records.insert(2, record(JobState::Running));
        // Three more jobs than the cap finish, newest job first, so
        // finishing order and admission order disagree.
        let last = 2 + RETAINED_FINISHED_JOBS as u64 + 3;
        for id in 3..=last {
            table.records.insert(id, record(JobState::Running));
        }
        for id in (3..=last).rev() {
            let to = [JobState::Done, JobState::Cancelled, JobState::Failed][id as usize % 3];
            table.finish(id, to, 5, 2);
        }
        assert_eq!(table.records.len(), 2 + RETAINED_FINISHED_JOBS);
        assert_eq!(table.finished.len(), RETAINED_FINISHED_JOBS);
        for id in last - 2..=last {
            assert!(!table.records.contains_key(&id), "job {id} finished first");
        }
        assert_eq!(table.records[&1].state, JobState::Queued, "never evicted");
        assert_eq!(table.records[&2].state, JobState::Running, "never evicted");
        let kept = &table.records[&3];
        assert_eq!(kept.state, JobState::Done, "finished last, kept");
        assert_eq!((kept.evaluations, kept.front), (5, 2));
        // The queued and running jobs finish last and push out the next
        // earliest-finished records, whatever their state.
        table.finish(1, JobState::Cancelled, 0, 0);
        table.finish(2, JobState::Done, 7, 3);
        assert!(!table.records.contains_key(&(last - 3)));
        assert!(!table.records.contains_key(&(last - 4)));
        assert_eq!(table.records[&1].state, JobState::Cancelled, "resumable");
        assert_eq!(table.records.len(), RETAINED_FINISHED_JOBS);
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
        let line = render_event(7, &Event::Progress(&progress));
        assert!(line.ends_with('\n') && line.matches('\n').count() == 1);
        assert_eq!(
            keys(&line).join(" "),
            "event feasible front infeasible job round space_points visited"
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
        let line = render_event(9, &Event::Done(&out));
        assert_eq!(
            keys(&line).join(" "),
            "cache cancelled evaluations event flush_failure front job output"
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
