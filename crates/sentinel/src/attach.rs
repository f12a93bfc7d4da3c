//! The workspace's one HTTP/1.1 client: a zero-dependency, single
//! connection-per-request client for talking to running
//! `nanocost-serve` replicas (`/v1/metrics`, `/v1/metrics/raw`,
//! `/v1/profile`, `/v1/trace/<req-id>`, and the model endpoints).
//!
//! `fleet_report`, `loadgen`, and the serve
//! integration tests all speak to servers through this module, so
//! target normalization, response framing, deadlines, partial-read
//! handling, and retry policy live in exactly one place. A request is
//! bounded end-to-end: connect, request, and body reads all draw from
//! one deadline, a declared `Content-Length` is enforced (a connection
//! that closes mid-body is a truncation error, not a silently short
//! payload), and [`scrape`] retries transport failures with a fixed
//! backoff so a fleet snapshot survives a replica mid-restart. Load
//! requests ([`request`]) make a single attempt. Errors are plain
//! strings — the callers are CLIs that print them and exit 2.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// End-to-end budget for one request (connect + request + body).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Number of attempts [`scrape`] makes before giving up.
const SCRAPE_ATTEMPTS: u32 = 3;

/// Pause between [`scrape`] attempts.
const SCRAPE_BACKOFF: Duration = Duration::from_millis(100);

/// Floor for socket read/write timeouts: a deadline expiring mid-way
/// must still map to a valid (non-zero) socket timeout.
const MIN_SOCKET_TIMEOUT: Duration = Duration::from_millis(1);

/// Read chunk size for the incremental body loop.
const READ_CHUNK: usize = 8 * 1024;

/// Normalizes a server target to `host:port`: accepts a bare
/// `host:port` or an `http://host:port[/...]` URL.
///
/// # Errors
///
/// A descriptive message when the target has no valid `host:port`.
pub fn parse_attach_target(url: &str) -> Result<String, String> {
    let stripped = url.strip_prefix("http://").unwrap_or(url);
    let host_port = stripped.split('/').next().unwrap_or_default();
    let (host, port) = host_port
        .rsplit_once(':')
        .ok_or_else(|| format!("{url}: expected host:port"))?;
    if host.is_empty() || port.parse::<u16>().is_err() {
        return Err(format!("{url}: expected host:port"));
    }
    Ok(host_port.to_string())
}

/// One raw HTTP/1.1 GET against `target` (a `host:port`): [`request`]
/// with no body.
///
/// # Errors
///
/// Everything [`request`] rejects.
pub fn http_get(target: &str, path: &str) -> Result<(u16, String), String> {
    request(target, "GET", path, None)
}

/// [`http_get`] that additionally treats any non-200 status as an
/// error — the common case for scrapes of always-available endpoints.
///
/// # Errors
///
/// Everything [`http_get`] rejects, plus non-200 statuses.
pub fn http_get_ok(target: &str, path: &str) -> Result<String, String> {
    let (status, body) = http_get(target, path)?;
    require_ok(target, path, status, body)
}

/// A retrying GET: up to three bounded requests, pausing 100 ms between
/// them. Transport failures (refused connections, truncated bodies,
/// deadline overruns) retry; any well-framed HTTP response — whatever
/// its status — is returned as soon as it arrives, because a live
/// server saying 503 is an answer, not an outage.
///
/// # Errors
///
/// The last attempt's error once every attempt has failed.
pub fn scrape(target: &str, path: &str) -> Result<(u16, String), String> {
    let mut last_err = String::new();
    for attempt in 0..SCRAPE_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(SCRAPE_BACKOFF);
        }
        match http_get(target, path) {
            Ok(reply) => return Ok(reply),
            Err(e) => last_err = e,
        }
    }
    Err(format!("{last_err} (after {SCRAPE_ATTEMPTS} attempts)"))
}

/// [`scrape`] that treats any non-200 status as an error.
///
/// # Errors
///
/// Everything [`scrape`] rejects, plus non-200 statuses.
pub fn scrape_ok(target: &str, path: &str) -> Result<String, String> {
    let (status, body) = scrape(target, path)?;
    require_ok(target, path, status, body)
}

/// Passes a 200 body through; any other status becomes an error.
fn require_ok(target: &str, path: &str, status: u16, body: String) -> Result<String, String> {
    if status != 200 {
        return Err(format!("{target}{path} answered {status}"));
    }
    Ok(body)
}

/// One bounded HTTP/1.1 exchange with `target` (a `host:port`): resolve,
/// connect, write the request, and read the response incrementally,
/// charging every step against one 10 s deadline. A `body` is sent with
/// its `Content-Length`; `None` sends no body headers. Returns the
/// status code and body; non-2xx statuses are not errors — callers
/// decide what a 410 or 503 means for them. Makes a single attempt.
///
/// # Errors
///
/// Connect/read/write failures, deadline overruns, responses with no
/// header/body split, and bodies shorter than their `Content-Length`.
pub fn request(
    target: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let started = Instant::now();
    let remaining = |started: Instant| -> Result<Duration, String> {
        REQUEST_TIMEOUT
            .checked_sub(started.elapsed())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| format!("{target}{path}: deadline ({REQUEST_TIMEOUT:?}) exceeded"))
    };
    let addrs = target
        .to_socket_addrs()
        .map_err(|e| format!("resolve {target}: {e}"))?;
    let mut stream: Option<TcpStream> = None;
    let mut connect_err = format!("connect {target}: no addresses resolved");
    for addr in addrs {
        match TcpStream::connect_timeout(&addr, remaining(started)?) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) => connect_err = format!("connect {target}: {e}"),
        }
    }
    let mut stream = stream.ok_or(connect_err)?;
    stream
        .set_write_timeout(Some(remaining(started)?.max(MIN_SOCKET_TIMEOUT)))
        .map_err(|e| format!("set timeout: {e}"))?;
    // One write_all of the pre-formatted request: `write!` would issue
    // one syscall per format fragment, and a peer that answers (or
    // resets) after the first fragment would turn a served request into
    // a spurious EPIPE.
    let length = body.map_or_else(String::new, |b| format!("Content-Length: {}\r\n", b.len()));
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {target}\r\n{length}Connection: close\r\n\r\n{}",
        body.unwrap_or_default()
    );
    stream
        .write_all(message.as_bytes())
        .map_err(|e| format!("write {target}: {e}"))?;
    // Incremental read: partial TCP segments reassemble, each read is
    // bounded by what is left of the deadline, and the loop ends as
    // soon as the declared Content-Length is satisfied (a server that
    // keeps the socket open cannot stall the request past its budget).
    let mut response: Vec<u8> = Vec::new();
    let mut chunk = [0u8; READ_CHUNK];
    let mut eof = false;
    while !eof && !body_complete(&response) {
        stream
            .set_read_timeout(Some(remaining(started)?.max(MIN_SOCKET_TIMEOUT)))
            .map_err(|e| format!("set timeout: {e}"))?;
        match stream.read(&mut chunk) {
            Ok(0) => eof = true,
            Ok(n) => response.extend_from_slice(&chunk[..n]),
            Err(e) => {
                return Err(format!(
                    "read {target}{path}: {e} after {} bytes",
                    response.len()
                ))
            }
        }
    }
    let text = String::from_utf8_lossy(&response);
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{target}{path}: malformed HTTP response"))?;
    if let Some(declared) = declared_content_length(head) {
        if body.len() < declared {
            return Err(format!(
                "{target}{path}: truncated body ({} of {declared} bytes)",
                body.len()
            ));
        }
    }
    Ok((status, body.to_string()))
}

/// Is the buffered response a complete head plus its declared body?
/// `false` while the head is still arriving or the body is short;
/// responses with no `Content-Length` read to EOF.
fn body_complete(buffered: &[u8]) -> bool {
    let text = String::from_utf8_lossy(buffered);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return false;
    };
    match declared_content_length(head) {
        Some(declared) => body.len() >= declared,
        None => false,
    }
}

/// The response head's `Content-Length`, if it declares one.
fn declared_content_length(head: &str) -> Option<usize> {
    head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            value.trim().parse().ok()
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_targets_normalize() {
        assert_eq!(
            parse_attach_target("http://127.0.0.1:8077/v1/metrics").as_deref(),
            Ok("127.0.0.1:8077")
        );
        assert_eq!(parse_attach_target("localhost:9").as_deref(), Ok("localhost:9"));
        assert!(parse_attach_target(":8077").is_err());
        assert!(parse_attach_target("host:notaport").is_err());
        // The message names only the target: callers take it as a
        // positional argument or a `--replica` value.
        assert_eq!(
            parse_attach_target("no-port"),
            Err("no-port: expected host:port".to_string())
        );
    }

    #[test]
    fn post_requests_round_trip_against_a_local_listener() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let body = r#"{"lambda_um":0.18,"sd":300}"#;
        let expected_len = body.len();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let mut request = Vec::new();
            let mut buf = [0u8; 1024];
            // Read until the head and the whole declared body are in.
            while !request.ends_with(b"}") {
                let n = sock.read(&mut buf).expect("read request");
                assert!(n > 0, "request truncated");
                request.extend_from_slice(&buf[..n]);
            }
            sock.write_all(b"HTTP/1.1 201 Created\r\nContent-Length: 7\r\n\r\ncreated")
                .expect("write response");
            String::from_utf8(request).expect("utf-8 request")
        });
        let (status, reply) = request(&addr, "POST", "/v1/cost", Some(body)).expect("exchange");
        assert_eq!((status, reply.as_str()), (201, "created"));
        let request = server.join().expect("server thread");
        let (head, sent) = request.split_once("\r\n\r\n").expect("head/body split");
        assert!(head.starts_with("POST /v1/cost HTTP/1.1\r\n"), "{head}");
        assert!(head.contains(&format!("\r\nContent-Length: {expected_len}")), "{head}");
        assert_eq!(sent, body);
    }

    #[test]
    fn http_get_round_trips_against_a_local_listener() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 1024];
            let n = sock.read(&mut buf).expect("read request");
            let request = String::from_utf8_lossy(&buf[..n]).into_owned();
            sock.write_all(b"HTTP/1.1 410 Gone\r\nContent-Length: 4\r\n\r\ngone")
                .expect("write response");
            request
        });
        let (status, body) = http_get(&addr, "/v1/trace/r1").expect("exchange");
        assert_eq!(status, 410);
        assert_eq!(body, "gone");
        let request = server.join().expect("server thread");
        assert!(request.starts_with("GET /v1/trace/r1 HTTP/1.1\r\n"), "{request}");
    }

    #[test]
    fn strict_variant_rejects_non_200() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 1024];
            let _ = sock.read(&mut buf).expect("read request");
            sock.write_all(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n")
                .expect("write response");
        });
        let err = http_get_ok(&addr, "/missing").expect_err("404 must error");
        assert!(err.contains("404"), "{err}");
        server.join().expect("server thread");
    }

    #[test]
    fn transport_failures_are_clean_errors() {
        // A port nothing listens on: connect (or read) fails, no panic.
        assert!(http_get("127.0.0.1:1", "/v1/metrics").is_err());
    }

    #[test]
    fn split_segments_reassemble_and_stop_at_content_length() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 1024];
            let _ = sock.read(&mut buf).expect("read request");
            // Head and body in separate segments, then the socket is
            // held open: only Content-Length tracking ends the read.
            sock.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 8\r\n\r\n")
                .expect("write head");
            sock.flush().expect("flush head");
            std::thread::sleep(Duration::from_millis(20));
            sock.write_all(b"abcd").expect("write body 1");
            sock.flush().expect("flush body 1");
            std::thread::sleep(Duration::from_millis(20));
            sock.write_all(b"efgh").expect("write body 2");
            sock.flush().expect("flush body 2");
            // Keep the connection open long enough that an EOF-driven
            // reader would block instead of returning.
            std::thread::sleep(Duration::from_millis(200));
        });
        let (status, body) = http_get(&addr, "/v1/metrics").expect("exchange");
        assert_eq!(status, 200);
        assert_eq!(body, "abcdefgh");
        server.join().expect("server thread");
    }

    #[test]
    fn truncated_bodies_are_rejected_not_returned_short() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 1024];
            let _ = sock.read(&mut buf).expect("read request");
            sock.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc")
                .expect("write partial");
            // Drop: the peer sees EOF three bytes into a ten-byte body.
        });
        let err = http_get(&addr, "/v1/metrics").expect_err("truncation must error");
        assert!(err.contains("truncated"), "{err}");
        server.join().expect("server thread");
    }

    #[test]
    fn scrape_retries_transport_failures() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = std::thread::spawn(move || {
            // First connection: dropped without a byte (a replica
            // mid-restart). Second: a real answer.
            let (sock, _) = listener.accept().expect("accept 1");
            drop(sock);
            let (mut sock, _) = listener.accept().expect("accept 2");
            let mut request = Vec::new();
            let mut buf = [0u8; 1024];
            while !request.windows(4).any(|w| w == b"\r\n\r\n") {
                let n = sock.read(&mut buf).expect("read request");
                assert!(n > 0, "request truncated");
                request.extend_from_slice(&buf[..n]);
            }
            sock.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                .expect("write response");
        });
        let body = scrape_ok(&addr, "/v1/metrics").expect("second attempt lands");
        assert_eq!(body, "ok");
        server.join().expect("server thread");
    }

    #[test]
    fn scrape_reports_the_final_error_with_attempt_count() {
        let err = scrape("127.0.0.1:1", "/v1/metrics").expect_err("nothing listens");
        assert!(err.contains("after 3 attempts"), "{err}");
    }
}
