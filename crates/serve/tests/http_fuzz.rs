//! Property fuzz over the HTTP parser plus bounded-read server tests.
//!
//! The parser contract under test: arbitrary bytes, arbitrarily split
//! reads, oversized heads, and truncated bodies all map to clean
//! [`ParseError`]s — never a panic, never an unbounded read — and a
//! stalled peer is answered (or dropped) within the configured
//! deadline rather than wedging a worker.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "test code: a failed unwrap or panic is a failed test, and output is diagnostics"
)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use nanocost_numeric::Rng64;
use nanocost_serve::http::{MAX_BODY_BYTES, MAX_HEAD_BYTES};
use nanocost_serve::{read_request, ParseError, Request, Server, ServerConfig};

/// A reader that hands out a byte stream in caller-chosen slice sizes,
/// modelling TCP segmentation. Returns `Ok(0)` (EOF) once drained.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    turn: usize,
}

impl ChunkedReader {
    fn new(data: Vec<u8>, chunks: Vec<usize>) -> Self {
        ChunkedReader {
            data,
            pos: 0,
            chunks,
            turn: 0,
        }
    }
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let planned = self.chunks[self.turn % self.chunks.len()].max(1);
        self.turn += 1;
        let n = planned.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn parse_chunked(data: &[u8], rng: &mut Rng64) -> Result<Request, ParseError> {
    let chunks: Vec<usize> = (0..8).map(|_| rng.random_range(1..97usize)).collect();
    let mut reader = ChunkedReader::new(data.to_vec(), chunks);
    read_request(&mut reader)
}

fn parse_whole(data: &[u8]) -> Result<Request, ParseError> {
    let mut cursor = std::io::Cursor::new(data.to_vec());
    read_request(&mut cursor)
}

const VALID: &[u8] =
    b"POST /v1/cost HTTP/1.1\r\nHost: fuzz\r\nContent-Type: application/json\r\nContent-Length: 18\r\n\r\n{\"lambda_um\":0.18}";

#[test]
fn arbitrary_byte_streams_never_panic() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0001);
    for _ in 0..500 {
        let len = rng.random_range(0..4096usize);
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Any outcome is fine; panicking or hanging is not.
        let _ = parse_chunked(&data, &mut rng);
    }
}

#[test]
fn one_byte_reads_reassemble_identically() {
    let mut reader = ChunkedReader::new(VALID.to_vec(), vec![1]);
    let split = read_request(&mut reader).expect("split reads must reassemble");
    let whole = parse_whole(VALID).expect("whole read must parse");
    assert_eq!(split, whole);
    assert_eq!(split.body, b"{\"lambda_um\":0.18}".to_vec());
}

#[test]
fn random_segmentation_never_changes_the_parse() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0002);
    let whole = parse_whole(VALID).expect("whole read must parse");
    for _ in 0..200 {
        let split = parse_chunked(VALID, &mut rng).expect("segmentation must not matter");
        assert_eq!(split, whole);
    }
}

#[test]
fn oversized_heads_are_cut_off_with_413() {
    // A head that never terminates: the parser must give up at the
    // bound, not buffer forever.
    let mut data = b"GET / HTTP/1.1\r\n".to_vec();
    while data.len() <= MAX_HEAD_BYTES + 4096 {
        data.extend_from_slice(b"X-Padding: yyyyyyyyyyyyyyyyyyyyyyyyyyyy\r\n");
    }
    let err = parse_whole(&data).expect_err("oversized head must fail");
    assert_eq!(err, ParseError::HeadTooLarge);
    assert_eq!(err.status(), 413);
}

#[test]
fn oversized_declared_bodies_are_rejected_before_reading() {
    let head = format!(
        "POST /v1/batch HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    let err = parse_whole(head.as_bytes()).expect_err("oversized body must fail");
    assert_eq!(err, ParseError::BodyTooLarge);
    assert_eq!(err.status(), 413);
}

#[test]
fn every_truncation_of_a_valid_request_fails_cleanly() {
    for cut in 0..VALID.len() {
        let err = parse_whole(&VALID[..cut]).expect_err("truncations must not parse");
        // Either the head never completed or the body came up short;
        // both surface as clean EOF-category errors, never a panic.
        assert!(
            matches!(err, ParseError::UnexpectedEof | ParseError::BadRequestLine),
            "cut at {cut}: {err:?}"
        );
    }
    assert!(parse_whole(VALID).is_ok());
}

#[test]
fn mutated_requests_never_panic_and_keep_invariants() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0003);
    for _ in 0..500 {
        let mut data = VALID.to_vec();
        for _ in 0..rng.random_range(1..6usize) {
            match rng.random_range(0..3u32) {
                0 => {
                    let i = rng.random_range(0..data.len());
                    data[i] = rng.next_u64() as u8;
                }
                1 => {
                    let i = rng.random_range(0..data.len());
                    data.remove(i);
                }
                _ => {
                    let i = rng.random_range(0..=data.len());
                    data.insert(i, rng.next_u64() as u8);
                }
            }
        }
        if let Ok(req) = parse_chunked(&data, &mut rng) {
            // Whatever survived mutation must still satisfy the parsed
            // invariants the router relies on.
            assert!(req.method.bytes().all(|b| b.is_ascii_alphabetic()));
            assert!(req.path.starts_with('/'));
            assert!(req.version.starts_with("HTTP/"));
        }
    }
}

/// Raises the shutdown flag when dropped, so an assertion that fails
/// inside [`with_server`] stops the server instead of leaving the scope
/// waiting on it forever.
struct ShutdownOnDrop<'a>(&'a AtomicBool);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Runs `f` against a live server bound to an ephemeral port with a
/// short I/O deadline, then shuts the server down cleanly.
fn with_server(io_timeout: Duration, f: impl FnOnce(std::net::SocketAddr)) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        io_timeout,
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&shutdown));
        {
            let _stop = ShutdownOnDrop(&shutdown);
            f(addr);
        }
        handle.join().expect("server thread").expect("server run");
    });
}

#[test]
fn stalled_peer_is_answered_within_the_deadline() {
    with_server(Duration::from_millis(200), |addr| {
        let started = Instant::now();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        // Send a partial head and then stall.
        stream
            .write_all(b"POST /v1/cost HTTP/1.1\r\nContent-")
            .expect("partial write");
        stream.flush().expect("flush");
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        let elapsed = started.elapsed();
        // The worker must give up at its deadline: either a 408 response
        // or a bare close, but promptly — not a wedged connection.
        assert!(
            elapsed < Duration::from_secs(5),
            "stalled peer held a worker for {elapsed:?}"
        );
        if !response.is_empty() {
            let text = String::from_utf8_lossy(&response);
            assert!(text.starts_with("HTTP/1.1 408"), "{text}");
        }
    });
}

#[test]
fn slow_client_burst_is_shed_not_queued_without_bound() {
    // 2 workers × 8 queue slots: a burst of 40 idle (slowloris-style)
    // connections overflows the bounded queue, so the overflow must be
    // answered 503 immediately instead of accumulating open fds, and
    // the server must come back once the burst drains.
    with_server(Duration::from_millis(200), |addr| {
        let idle: Vec<TcpStream> = (0..40)
            .map(|_| TcpStream::connect(addr).expect("connect"))
            .collect();
        let mut shed = 0;
        for mut stream in idle {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            let mut response = Vec::new();
            let _ = stream.read_to_end(&mut response);
            if String::from_utf8_lossy(&response).starts_with("HTTP/1.1 503") {
                shed += 1;
            }
        }
        assert!(shed > 0, "overflow connections must be shed with a 503");
        // The pool recovers: a real request succeeds once slots free up.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            let _ = stream.write_all(b"GET /v1/metrics HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut response = Vec::new();
            let _ = stream.read_to_end(&mut response);
            if String::from_utf8_lossy(&response).starts_with("HTTP/1.1 200") {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "server did not recover after the burst"
            );
            std::thread::sleep(Duration::from_millis(100));
        }
    });
}

/// A well-formed `/v1/cost` query.
const COST_BODY: &str =
    r#"{"lambda_um":0.18,"sd":300,"transistors":1e7,"volume":5000,"fab_yield":0.4}"#;

/// Posts `body` to `path` on a fresh connection and returns the raw
/// response (empty if the server closed without answering).
fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write");
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
}

#[test]
fn end_to_end_cost_request_round_trips() {
    with_server(Duration::from_secs(2), |addr| {
        let text = post(addr, "/v1/cost", COST_BODY);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("\"req_id\":\"r1\""), "{text}");
        assert!(text.contains("\"total\":"), "{text}");
    });
}

#[test]
fn overflowing_die_areas_answer_422_and_keep_both_workers() {
    // At least two bodies for the two workers: if each killed the
    // worker that took it, none would be left to answer the cost
    // request. A finite `lambda_um` whose λ² overflows is the same
    // domain violation as an overflowing `N_tr · s_d`.
    with_server(Duration::from_secs(2), |addr| {
        for (path, body) in [
            (
                "/v1/yield",
                r#"{"lambda_um":0.07,"sd":1e300,"transistors":1e300,"volume":1000,"fab_yield":0.9}"#,
            ),
            (
                "/v1/chiplet",
                r#"{"lambda_um":0.07,"sd":1e300,"transistors":1e300,"units":1000,"chiplets":4}"#,
            ),
            (
                "/v1/cost",
                r#"{"lambda_um":1e200,"sd":300,"transistors":1e7,"volume":5000,"fab_yield":0.4}"#,
            ),
            (
                "/v1/yield",
                r#"{"lambda_um":1e200,"sd":300,"transistors":1e7,"volume":1000,"fab_yield":0.9}"#,
            ),
        ] {
            let text = post(addr, path, body);
            assert!(text.starts_with("HTTP/1.1 422"), "{path}: {text}");
            assert!(text.contains("domain violation"), "{path}: {text}");
        }
        let text = post(addr, "/v1/cost", COST_BODY);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    });
}

#[test]
fn garbage_over_the_wire_gets_a_4xx_not_a_hang() {
    with_server(Duration::from_secs(2), |addr| {
        let mut rng = Rng64::seed_from_u64(0x5eed_0004);
        for _ in 0..20 {
            let len = rng.random_range(1..512usize);
            let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            stream.write_all(&garbage).expect("write");
            // Half-close so the server sees EOF instead of waiting out
            // its read deadline.
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let mut response = Vec::new();
            let _ = stream.read_to_end(&mut response);
            if !response.is_empty() {
                let text = String::from_utf8_lossy(&response);
                let status: u16 = text
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                assert!(
                    (400..500).contains(&status),
                    "garbage must map to a 4xx: {text}"
                );
            }
        }
    });
}
