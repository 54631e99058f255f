//! Shared harness for the serve integration suites: an in-process
//! daemon on an ephemeral port, stopped via `POST /shutdown`.

// Each integration binary uses a different subset of this harness.
#![allow(dead_code)]

use tta_core::cache::SweepCache;
use tta_core::ComponentDb;
use tta_serve::client::control;
use tta_serve::server::Server;
use tta_serve::spec::JobSpec;

/// A running in-process daemon; dropping it without [`Daemon::stop`]
/// leaks the serve thread (tests should always stop).
pub struct Daemon {
    /// `host:port` of the bound listener.
    pub addr: String,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

/// Boots a daemon on `127.0.0.1:0` with `workers` workers over `cache`.
pub fn start(workers: usize, cache: SweepCache) -> Daemon {
    let server = Server::bind("127.0.0.1:0", workers, cache).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = std::thread::spawn(move || server.run());
    Daemon { addr, handle }
}

impl Daemon {
    /// Graceful shutdown: `POST /shutdown`, then join the serve thread
    /// and propagate its final cache-flush result.
    pub fn stop(self) -> std::io::Result<()> {
        control(&self.addr, "/shutdown").expect("shutdown accepted");
        self.handle.join().expect("serve thread joins cleanly")
    }
}

/// The standard quick job the suites submit: the tiny space, one
/// workload, JSON output.
pub fn tiny_spec() -> JobSpec {
    JobSpec {
        space: Some("tiny".into()),
        workloads: vec!["crypt".into()],
        format: tta_serve::spec::Format::Json,
        ..JobSpec::default()
    }
}

/// What a local (in-process, cacheless) run of `spec` on a fresh
/// annotation database prints — the byte-identity oracle for every
/// remote comparison.
pub fn local_output(spec: &JobSpec) -> String {
    tta_serve::exec::prepare(spec)
        .expect("spec resolves")
        .run(&ComponentDb::new(), None, None, None)
        .output
}

/// Minimal raw GET helper (the thin client only POSTs).
pub fn http_get(addr: &str, path: &str) -> tta_serve::jsonparse::Json {
    use std::io::{BufReader, Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut reader = BufReader::new(&stream);
    let head = tta_serve::http::read_response_head(&mut reader).expect("response head");
    assert_eq!(head.status, 200, "GET {path}");
    let mut body = vec![0u8; head.content_length.expect("framed body")];
    reader.read_exact(&mut body).expect("body");
    tta_serve::jsonparse::Json::parse(String::from_utf8_lossy(&body).trim()).expect("json body")
}
