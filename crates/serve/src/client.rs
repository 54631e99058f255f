//! The thin `--remote` client: submit a spec, stream events, emit the
//! daemon's rendered output verbatim.
//!
//! The client never renders anything itself — the `done` event carries
//! the complete stdout document the daemon produced via the same
//! [`crate::exec`] path a local run uses, so writing it through
//! untouched is what makes `ttadse explore --remote URL` byte-identical
//! to `ttadse explore`. Progress events become human-readable stderr
//! lines (stderr carries telemetry everywhere in this workspace; stdout
//! is the deterministic document).

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;

use crate::http::{read_chunk_into, read_response_head};
use crate::jsonparse::Json;
use crate::spec::JobSpec;

/// What a finished remote job reported besides its stdout document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteSummary {
    /// The daemon-assigned job id.
    pub job: u64,
    /// Points evaluated server-side.
    pub evaluations: u64,
    /// Pareto-front size.
    pub front: u64,
    /// Whether the job was cancelled (output is the partial render).
    pub cancelled: bool,
    /// The daemon's per-job cache outcome label.
    pub cache: String,
    /// The daemon's cache-flush error, if flushing failed.
    pub flush_failure: Option<String>,
}

/// Splits an `http://host:port` (or bare `host:port`) URL into the
/// address to connect to.
///
/// # Errors
///
/// A usage message for unsupported schemes or a missing port.
pub fn server_addr(url: &str) -> Result<&str, String> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    if rest.starts_with("https://") || (url.contains("://") && !url.starts_with("http://")) {
        return Err(format!(
            "unsupported URL {url:?}: only http:// is supported"
        ));
    }
    let addr = rest.split('/').next().unwrap_or("");
    if addr.is_empty() || !addr.contains(':') {
        return Err(format!("remote URL {url:?} must include host:port"));
    }
    Ok(addr)
}

/// Submits `spec` to the daemon at `url` and streams the job: progress
/// events to `err`, the final rendered document to `out` — verbatim,
/// byte-identical to a local run.
///
/// # Errors
///
/// Connection failures, protocol violations, HTTP error answers
/// (`{"error": ...}` bodies are unwrapped), and server-side job
/// failures, all as displayable strings.
pub fn run_remote(
    url: &str,
    spec: &JobSpec,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<RemoteSummary, String> {
    let addr = server_addr(url)?;
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let body = spec.to_json();
    {
        let mut w = &stream;
        write!(
            w,
            "POST /run HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .and_then(|()| w.write_all(body.as_bytes()))
        .and_then(|()| w.flush())
        .map_err(|e| format!("request to {addr} failed: {e}"))?;
    }
    let mut reader = BufReader::new(&stream);
    let head =
        read_response_head(&mut reader).map_err(|e| format!("bad response from {addr}: {e}"))?;
    if head.status != 200 {
        return Err(error_body(&mut reader, &head, addr));
    }
    if !head.chunked {
        return Err(format!("response from {addr} is not a chunked stream"));
    }
    stream_events(&mut reader, out, err).map_err(|e| format!("stream from {addr} failed: {e}"))?
}

/// Reads an HTTP error body and extracts its `{"error": ...}` message.
fn error_body(
    reader: &mut BufReader<&TcpStream>,
    head: &crate::http::ResponseHead,
    addr: &str,
) -> String {
    let mut body = Vec::new();
    if head.chunked {
        if let Ok(b) = crate::http::read_chunked_body(reader) {
            body = b;
        }
    } else if let Some(n) = head.content_length {
        body = vec![0u8; n];
        let _ = reader.read_exact(&mut body);
    }
    let text = String::from_utf8_lossy(&body);
    let message = Json::parse(text.trim())
        .ok()
        .and_then(|j| j.get("error").and_then(Json::as_str).map(String::from))
        .unwrap_or_else(|| text.trim().to_string());
    format!("server at {addr} answered {}: {message}", head.status)
}

/// Drains the NDJSON event stream. Chunk boundaries need not align
/// with line boundaries, so lines are re-framed from a rolling buffer.
fn stream_events(
    reader: &mut BufReader<&TcpStream>,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> std::io::Result<Result<RemoteSummary, String>> {
    let mut buffer: Vec<u8> = Vec::new();
    let mut scanned = 0usize;
    loop {
        let n = read_chunk_into(reader, &mut buffer)?;
        while let Some(nl) = buffer[scanned..].iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buffer.drain(..scanned + nl + 1).collect();
            scanned = 0;
            let line = String::from_utf8_lossy(&line);
            match handle_event(line.trim(), err)? {
                EventOutcome::Continue => {}
                EventOutcome::Done(summary, output) => {
                    out.write_all(output.as_bytes())?;
                    out.flush()?;
                    return Ok(Ok(summary));
                }
                EventOutcome::Failed(message) => return Ok(Err(message)),
            }
        }
        scanned = buffer.len();
        if n == 0 {
            return Ok(Err("stream ended without a terminal event".into()));
        }
    }
}

enum EventOutcome {
    Continue,
    Done(RemoteSummary, String),
    Failed(String),
}

fn handle_event(line: &str, err: &mut dyn Write) -> std::io::Result<EventOutcome> {
    if line.is_empty() {
        return Ok(EventOutcome::Continue);
    }
    let Ok(event) = Json::parse(line) else {
        return Ok(EventOutcome::Failed(format!(
            "unparsable event from server: {line:?}"
        )));
    };
    let kind = event.get("event").and_then(Json::as_str).unwrap_or("");
    let job = event.get("job").and_then(Json::as_u64).unwrap_or(0);
    match kind {
        "queued" => writeln!(err, "remote job {job}: queued")?,
        "started" => writeln!(err, "remote job {job}: started")?,
        "progress" => {
            let visited = event.get("visited").and_then(Json::as_u64).unwrap_or(0);
            let space = event
                .get("space_points")
                .and_then(Json::as_u64)
                .unwrap_or(0);
            let front = event.get("front").and_then(Json::as_u64).unwrap_or(0);
            writeln!(
                err,
                "remote job {job}: visited {visited}/{space}, front {front}"
            )?;
        }
        "done" => {
            let Some(output) = event.get("output").and_then(Json::as_str) else {
                return Ok(EventOutcome::Failed("done event without output".into()));
            };
            let summary = RemoteSummary {
                job,
                evaluations: event.get("evaluations").and_then(Json::as_u64).unwrap_or(0),
                front: event.get("front").and_then(Json::as_u64).unwrap_or(0),
                cancelled: event
                    .get("cancelled")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
                cache: event
                    .get("cache")
                    .and_then(Json::as_str)
                    .unwrap_or("none")
                    .to_string(),
                flush_failure: event
                    .get("flush_failure")
                    .and_then(Json::as_str)
                    .map(String::from),
            };
            return Ok(EventOutcome::Done(summary, output.to_string()));
        }
        "error" => {
            let message = event
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown server-side failure")
                .to_string();
            return Ok(EventOutcome::Failed(format!(
                "remote job {job} failed: {message}"
            )));
        }
        other => writeln!(err, "remote job {job}: ignoring unknown event {other:?}")?,
    }
    Ok(EventOutcome::Continue)
}

/// Sends `POST path` with an empty body and returns the JSON answer —
/// the helper behind cancel/resume/shutdown control calls and tests.
///
/// # Errors
///
/// Connection/protocol failures and non-200 answers, as displayable
/// strings.
pub fn control(url: &str, path: &str) -> Result<Json, String> {
    let addr = server_addr(url)?;
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    {
        let mut w = &stream;
        write!(
            w,
            "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        )
        .and_then(|()| w.flush())
        .map_err(|e| format!("request to {addr} failed: {e}"))?;
    }
    let mut reader = BufReader::new(&stream);
    let head =
        read_response_head(&mut reader).map_err(|e| format!("bad response from {addr}: {e}"))?;
    if head.status != 200 {
        return Err(error_body(&mut reader, &head, addr));
    }
    let mut body = vec![0u8; head.content_length.unwrap_or(0)];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("short response from {addr}: {e}"))?;
    Json::parse(String::from_utf8_lossy(&body).trim())
        .map_err(|e| format!("unparsable answer from {addr}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_forms_resolve_to_addresses() {
        assert_eq!(
            server_addr("http://127.0.0.1:7878").unwrap(),
            "127.0.0.1:7878"
        );
        assert_eq!(server_addr("127.0.0.1:7878").unwrap(), "127.0.0.1:7878");
        assert_eq!(server_addr("http://[::1]:7878/").unwrap(), "[::1]:7878");
        assert!(server_addr("https://secure:443").is_err());
        assert!(server_addr("ftp://x:1").is_err());
        assert!(server_addr("http://portless").is_err());
    }

    #[test]
    fn progress_events_print_one_plain_line() {
        let mut err = Vec::new();
        let line = r#"{"event":"progress","job":3,"round":1,"visited":64,"feasible":60,"infeasible":4,"front":2,"space_points":256}"#;
        assert!(matches!(
            handle_event(line, &mut err).unwrap(),
            EventOutcome::Continue
        ));
        // Keys the client does not know (an older daemon's engine
        // statistics, say) are ignored.
        let older = line.replace("}", r#","delta":{"carries":63}}"#);
        assert!(matches!(
            handle_event(&older, &mut err).unwrap(),
            EventOutcome::Continue
        ));
        assert_eq!(
            String::from_utf8(err).unwrap(),
            "remote job 3: visited 64/256, front 2\n".repeat(2)
        );
    }

    #[test]
    fn done_events_yield_the_summary_and_the_document() {
        let mut err = Vec::new();
        let line = r#"{"event":"done","job":5,"evaluations":24,"front":3,"cancelled":false,"cache":"flushed","flush_failure":null,"output":"doc\n"}"#;
        match handle_event(line, &mut err).unwrap() {
            EventOutcome::Done(summary, output) => {
                assert_eq!(summary.job, 5);
                assert_eq!(summary.evaluations, 24);
                assert_eq!(summary.front, 3);
                assert!(!summary.cancelled);
                assert_eq!(summary.cache, "flushed");
                assert_eq!(summary.flush_failure, None);
                assert_eq!(output, "doc\n");
            }
            _ => panic!("a done event finishes the stream"),
        }
        assert!(err.is_empty(), "the summary is the caller's to print");
        let headless = r#"{"event":"done","job":5}"#;
        assert!(matches!(
            handle_event(headless, &mut err).unwrap(),
            EventOutcome::Failed(_)
        ));
    }
}
