//! A deliberately small HTTP/1.1 subset for the serve daemon.
//!
//! The container has no HTTP stack, and the protocol surface the
//! daemon needs is tiny: framed requests with `Content-Length` bodies,
//! plain responses, and `Transfer-Encoding: chunked` responses for
//! streaming job events. Hand-rolling that subset keeps the whole wire
//! layer auditable and — like the hand-rolled JSON in [`crate::json`] —
//! byte-deterministic.
//!
//! Hard limits protect the daemon from hostile or broken clients: the
//! request head is capped at 16 KiB and bodies at 1 MiB; anything over
//! (or malformed, or truncated) parses to an error the server answers
//! with a clean 4xx before the job queue is ever involved — the
//! fault-injection suite drives exactly these paths.

use std::io::{BufRead, BufReader, Read, Write};

/// Maximum accepted request-head size (request line + headers).
pub const MAX_HEAD: usize = 16 * 1024;
/// Maximum accepted request-body size.
pub const MAX_BODY: usize = 1024 * 1024;

/// A parsed request: method, path, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token, e.g. `GET`.
    pub method: String,
    /// Origin-form path, e.g. `/jobs/3/cancel`.
    pub path: String,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Why a request could not be parsed; maps onto a 4xx answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The peer closed before a full request was read.
    Truncated,
    /// The bytes were not a well-formed HTTP/1.1 request.
    Malformed(String),
    /// The head or body exceeded its cap.
    TooLarge(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Truncated => write!(f, "truncated request"),
            ParseError::Malformed(m) => write!(f, "malformed request: {m}"),
            ParseError::TooLarge(m) => write!(f, "request too large: {m}"),
        }
    }
}

/// The status code a [`ParseError`] answers with.
pub fn parse_error_status(e: &ParseError) -> (u16, &'static str) {
    match e {
        ParseError::Truncated | ParseError::Malformed(_) => (400, "Bad Request"),
        ParseError::TooLarge(_) => (413, "Payload Too Large"),
    }
}

/// Reads one request off `stream`. `Err(None)` means the peer closed
/// cleanly before sending anything (not worth answering).
///
/// # Errors
///
/// [`ParseError`] for truncated, malformed or oversized requests.
pub fn read_request(stream: &mut BufReader<impl Read>) -> Result<Request, Option<ParseError>> {
    let mut line = String::new();
    match read_crlf_line(stream, &mut line) {
        Ok(0) => return Err(None),
        Ok(_) => {}
        Err(e) => return Err(Some(e)),
    }
    let mut parts = line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(Some(ParseError::Malformed(format!(
                "bad request line {line:?}"
            ))))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(Some(ParseError::Malformed(format!(
            "unsupported version {version:?}"
        ))));
    }
    let method = method.to_string();
    let path = path.to_string();
    let mut head_bytes = line.len();
    let mut content_length: usize = 0;
    loop {
        line.clear();
        match read_crlf_line(stream, &mut line) {
            Ok(0) => return Err(Some(ParseError::Truncated)),
            Ok(n) => head_bytes += n,
            Err(e) => return Err(Some(e)),
        }
        if line.is_empty() {
            break;
        }
        if head_bytes > MAX_HEAD {
            return Err(Some(ParseError::TooLarge(format!(
                "request head exceeds {MAX_HEAD} bytes"
            ))));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(Some(ParseError::Malformed(format!(
                "header without colon: {line:?}"
            ))));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().map_err(|_| {
                Some(ParseError::Malformed(format!(
                    "bad content-length {:?}",
                    value.trim()
                )))
            })?;
        }
    }
    if content_length > MAX_BODY {
        return Err(Some(ParseError::TooLarge(format!(
            "body of {content_length} bytes exceeds {MAX_BODY}"
        ))));
    }
    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|_| Some(ParseError::Truncated))?;
    Ok(Request { method, path, body })
}

/// Reads one CRLF-terminated line (CRLF stripped) into `out`, returning
/// the number of raw bytes consumed (0 at clean EOF).
fn read_crlf_line(
    stream: &mut BufReader<impl Read>,
    out: &mut String,
) -> Result<usize, ParseError> {
    let mut raw = Vec::new();
    let n = stream
        .read_until(b'\n', &mut raw)
        .map_err(|e| ParseError::Malformed(format!("read failed: {e}")))?;
    if n == 0 {
        return Ok(0);
    }
    if raw.len() > MAX_HEAD {
        return Err(ParseError::TooLarge(format!(
            "header line exceeds {MAX_HEAD} bytes"
        )));
    }
    if !raw.ends_with(b"\n") {
        return Err(ParseError::Truncated);
    }
    raw.pop();
    if raw.ends_with(b"\r") {
        raw.pop();
    }
    let line = String::from_utf8(raw)
        .map_err(|_| ParseError::Malformed("non-utf8 header bytes".into()))?;
    out.push_str(&line);
    Ok(n)
}

/// Writes a complete (non-streaming) response.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a JSON error body `{"error": ...}` with the given status.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_error(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    message: &str,
) -> std::io::Result<()> {
    let body = format!("{{\"error\":{}}}\n", crate::json::string(message));
    write_response(stream, status, reason, "application/json", body.as_bytes())
}

/// A `Transfer-Encoding: chunked` response writer: one chunk per
/// streamed event line, flushed eagerly so clients see progress live.
pub struct ChunkedWriter<W: Write> {
    stream: W,
    finished: bool,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the streaming response head and returns the writer.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn begin(mut stream: W, content_type: &str) -> std::io::Result<Self> {
        write!(
            stream,
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        )?;
        stream.flush()?;
        Ok(ChunkedWriter {
            stream,
            finished: false,
        })
    }

    /// Sends one chunk. A write failure here is how the daemon learns
    /// the client hung up mid-stream.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures (e.g. peer disconnect).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Sends the terminating zero-length chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.finished = true;
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// A parsed response head as the thin client sees it.
#[derive(Debug)]
pub struct ResponseHead {
    /// Numeric status code.
    pub status: u16,
    /// Whether the body is chunk-framed.
    pub chunked: bool,
    /// `Content-Length` when present.
    pub content_length: Option<usize>,
}

/// Reads a response head (status line + headers).
///
/// # Errors
///
/// An [`std::io::Error`] describing the malformed or truncated head.
pub fn read_response_head(stream: &mut BufReader<impl Read>) -> std::io::Result<ResponseHead> {
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let mut line = String::new();
    read_crlf_line(stream, &mut line).map_err(|e| bad(e.to_string()))?;
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut head = ResponseHead {
        status,
        chunked: false,
        content_length: None,
    };
    loop {
        line.clear();
        match read_crlf_line(stream, &mut line).map_err(|e| bad(e.to_string()))? {
            0 => return Err(bad("truncated response head".into())),
            _ if line.is_empty() => break,
            _ => {}
        }
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("transfer-encoding")
                && value.eq_ignore_ascii_case("chunked")
            {
                head.chunked = true;
            } else if name.eq_ignore_ascii_case("content-length") {
                head.content_length = value.parse().ok();
            }
        }
    }
    Ok(head)
}

/// Reads a chunk-framed body to completion, returning the payload.
///
/// # Errors
///
/// An [`std::io::Error`] for malformed framing or early EOF.
pub fn read_chunked_body(stream: &mut BufReader<impl Read>) -> std::io::Result<Vec<u8>> {
    let mut out = Vec::new();
    while read_chunk_into(stream, &mut out)? > 0 {}
    Ok(out)
}

/// Reads one chunk into `out`, returning its size (0 = final chunk).
///
/// # Errors
///
/// An [`std::io::Error`] for malformed framing or early EOF.
pub fn read_chunk_into(
    stream: &mut BufReader<impl Read>,
    out: &mut Vec<u8>,
) -> std::io::Result<usize> {
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let mut line = String::new();
    if read_crlf_line(stream, &mut line).map_err(|e| bad(e.to_string()))? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "stream ended mid-body (no terminating chunk)",
        ));
    }
    let size = usize::from_str_radix(line.trim(), 16)
        .map_err(|_| bad(format!("bad chunk size {line:?}")))?;
    let framed = size
        .checked_add(2)
        .ok_or_else(|| bad(format!("chunk size {line:?} is out of range")))?;
    // The size is the peer's claim: read through `take` so memory grows
    // with the bytes that actually arrive, not with the claim.
    let mut payload = Vec::new();
    Read::by_ref(stream)
        .take(framed as u64)
        .read_to_end(&mut payload)?;
    if payload.len() < framed {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    if &payload[size..] != b"\r\n" {
        return Err(bad("chunk missing CRLF terminator".into()));
    }
    out.extend_from_slice(&payload[..size]);
    Ok(size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, Option<ParseError>> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn hostile_chunk_sizes_are_errors_not_panics_or_allocations() {
        let read = |raw: &[u8]| {
            let mut out = Vec::new();
            let e = read_chunk_into(&mut BufReader::new(raw), &mut out).unwrap_err();
            assert!(out.is_empty());
            e.kind()
        };
        // A size whose CRLF framing overflows `usize`.
        assert_eq!(
            read(b"ffffffffffffffff\r\nabc"),
            std::io::ErrorKind::InvalidData
        );
        // A valid but huge size with three bytes behind it.
        assert_eq!(read(b"40000000\r\nabc"), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn parses_a_framed_post() {
        let req = parse(b"POST /run HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn rejects_truncated_and_malformed_requests() {
        assert!(matches!(parse(b""), Err(None)), "clean close");
        assert!(matches!(
            parse(b"POST /run HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort"),
            Err(Some(ParseError::Truncated))
        ));
        assert!(matches!(
            parse(b"POST /run HTTP/1.1\r\nContent-Leng"),
            Err(Some(ParseError::Truncated))
        ));
        assert!(matches!(
            parse(b"NOT-HTTP\r\n\r\n"),
            Err(Some(ParseError::Malformed(_)))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/9.9\r\n\r\n"),
            Err(Some(ParseError::Malformed(_)))
        ));
        assert!(matches!(
            parse(b"POST /run HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(Some(ParseError::Malformed(_)))
        ));
    }

    #[test]
    fn caps_oversized_requests() {
        let huge = format!(
            "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(Some(ParseError::TooLarge(_)))
        ));
        let mut long_head = String::from("GET / HTTP/1.1\r\n");
        long_head.push_str(&"X-Pad: y\r\n".repeat(MAX_HEAD / 8));
        long_head.push_str("\r\n");
        assert!(matches!(
            parse(long_head.as_bytes()),
            Err(Some(ParseError::TooLarge(_)))
        ));
    }

    #[test]
    fn chunked_roundtrip() {
        let mut wire = Vec::new();
        let mut w = ChunkedWriter::begin(&mut wire, "application/x-ndjson").unwrap();
        w.chunk(b"{\"event\":\"queued\"}\n").unwrap();
        w.chunk(b"{\"event\":\"done\"}\n").unwrap();
        w.finish().unwrap();

        let mut r = BufReader::new(wire.as_slice());
        let head = read_response_head(&mut r).unwrap();
        assert_eq!(head.status, 200);
        assert!(head.chunked);
        let body = read_chunked_body(&mut r).unwrap();
        assert_eq!(body, b"{\"event\":\"queued\"}\n{\"event\":\"done\"}\n");
    }

    #[test]
    fn plain_response_roundtrip() {
        let mut wire = Vec::new();
        write_error(&mut wire, 400, "Bad Request", "nope").unwrap();
        let mut r = BufReader::new(wire.as_slice());
        let head = read_response_head(&mut r).unwrap();
        assert_eq!(head.status, 400);
        assert!(!head.chunked);
        let mut body = vec![0u8; head.content_length.unwrap()];
        r.read_exact(&mut body).unwrap();
        assert_eq!(body, b"{\"error\":\"nope\"}\n");
    }
}
