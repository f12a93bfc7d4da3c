//! A bounded HTTP/1.1 request parser and response writer over plain
//! `std::io` streams.
//!
//! The parser is deliberately small and hostile-input-proof: every
//! dimension of a request (head size, header count, body size) is
//! bounded by a constant, reads are incremental so split TCP segments
//! reassemble correctly, and every malformed input maps to a typed
//! [`ParseError`] — never a panic. The property fuzz suite in
//! `tests/http_fuzz.rs` drives arbitrary byte streams, split reads,
//! oversized heads, and truncated bodies through [`read_request`].

use std::io::Read;

/// Upper bound on the request line plus header block, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on the number of request headers.
pub const MAX_HEADERS: usize = 64;

/// Upper bound on a request body, in bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Read chunk size; small enough that bounds are enforced promptly.
const CHUNK: usize = 2048;

/// One parsed HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request target path, as sent (no normalization).
    pub path: String,
    /// Protocol version token (`HTTP/1.1`).
    pub version: String,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value matching `name`, ASCII-case-insensitively.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The peer closed (or the stream ended) before a full request
    /// arrived.
    UnexpectedEof,
    /// The request line + headers exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// More than [`MAX_HEADERS`] headers.
    TooManyHeaders,
    /// The request line is not `METHOD SP PATH SP HTTP/x.y`.
    BadRequestLine,
    /// A header line is not `name: value` (or is not valid UTF-8).
    BadHeader,
    /// `Content-Length` is not a plain ASCII-digit value (signs,
    /// leading zeros, and non-digits are all rejected), or is repeated
    /// with conflicting values.
    BadContentLength,
    /// A `Transfer-Encoding` header was present; this server only
    /// supports `Content-Length`-delimited bodies, and silently
    /// treating a chunked body as length 0 would desynchronize framing
    /// if keep-alive were ever added.
    UnsupportedTransferEncoding,
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// The underlying stream failed (including read timeouts).
    Io(std::io::ErrorKind),
}

impl ParseError {
    /// The HTTP status code this parse failure maps to.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            ParseError::HeadTooLarge | ParseError::BodyTooLarge => 413,
            ParseError::Io(std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => 408,
            // RFC 9112 §6.1: an unhandled transfer coding gets a 501.
            ParseError::UnsupportedTransferEncoding => 501,
            _ => 400,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnexpectedEof => write!(f, "connection closed mid-request"),
            ParseError::HeadTooLarge => write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes"),
            ParseError::TooManyHeaders => write!(f, "more than {MAX_HEADERS} headers"),
            ParseError::BadRequestLine => write!(f, "malformed request line"),
            ParseError::BadHeader => write!(f, "malformed header"),
            ParseError::BadContentLength => write!(f, "malformed content-length"),
            ParseError::UnsupportedTransferEncoding => {
                write!(f, "transfer-encoding is not supported")
            }
            ParseError::BodyTooLarge => write!(f, "body exceeds {MAX_BODY_BYTES} bytes"),
            ParseError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Reads one request from `stream`, reassembling split reads and
/// enforcing every bound.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first violation; the caller
/// maps it to a 400/408/413 response via [`ParseError::status`].
pub fn read_request(stream: &mut impl Read) -> Result<Request, ParseError> {
    let mut buf: Vec<u8> = Vec::with_capacity(CHUNK);
    let mut chunk = [0u8; CHUNK];
    // Phase 1: accumulate until the blank line ending the head.
    let head_end = loop {
        if let Some(end) = find_head_end(&buf) {
            break end;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ParseError::HeadTooLarge);
        }
        let n = stream.read(&mut chunk).map_err(|e| ParseError::Io(e.kind()))?;
        if n == 0 {
            return Err(ParseError::UnexpectedEof);
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    if head_end.head_len > MAX_HEAD_BYTES {
        return Err(ParseError::HeadTooLarge);
    }
    let head =
        std::str::from_utf8(&buf[..head_end.head_len]).map_err(|_| ParseError::BadHeader)?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().ok_or(ParseError::BadRequestLine)?;
    let (method, path, version) = parse_request_line(request_line)?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::TooManyHeaders);
        }
        let (name, value) = line.split_once(':').ok_or(ParseError::BadHeader)?;
        let name = name.trim();
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(ParseError::BadHeader);
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
    if headers
        .iter()
        .any(|(n, _)| n.eq_ignore_ascii_case("transfer-encoding"))
    {
        return Err(ParseError::UnsupportedTransferEncoding);
    }
    let content_length = content_length(&headers)?;
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::BodyTooLarge);
    }
    // Phase 2: the body — whatever arrived past the head plus the rest.
    let mut body: Vec<u8> = buf[head_end.body_start.min(buf.len())..].to_vec();
    body.truncate(content_length);
    while body.len() < content_length {
        let want = (content_length - body.len()).min(CHUNK);
        let n = stream
            .read(&mut chunk[..want])
            .map_err(|e| ParseError::Io(e.kind()))?;
        if n == 0 {
            return Err(ParseError::UnexpectedEof);
        }
        body.extend_from_slice(&chunk[..n]);
    }
    Ok(Request {
        method,
        path,
        version,
        headers,
        body,
    })
}

struct HeadEnd {
    /// Bytes of the head, excluding the terminating blank line.
    head_len: usize,
    /// Offset of the first body byte.
    body_start: usize,
}

/// Locates the end-of-head blank line (`\r\n\r\n`, tolerating bare
/// `\n\n`), if fully buffered.
fn find_head_end(buf: &[u8]) -> Option<HeadEnd> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            // "\n\r\n" or "\n\n" terminates the head.
            if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                return Some(HeadEnd {
                    head_len: i,
                    body_start: i + 3,
                });
            }
            if buf.get(i + 1) == Some(&b'\n') {
                return Some(HeadEnd {
                    head_len: i,
                    body_start: i + 2,
                });
            }
        }
        i += 1;
    }
    None
}

fn parse_request_line(line: &str) -> Result<(String, String, String), ParseError> {
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let method = parts.next().ok_or(ParseError::BadRequestLine)?;
    let path = parts.next().ok_or(ParseError::BadRequestLine)?;
    let version = parts.next().ok_or(ParseError::BadRequestLine)?;
    if parts.next().is_some()
        || !version.starts_with("HTTP/")
        || method.is_empty()
        || !method.bytes().all(|b| b.is_ascii_alphabetic())
        || !path.starts_with('/')
    {
        return Err(ParseError::BadRequestLine);
    }
    Ok((method.to_string(), path.to_string(), version.to_string()))
}

fn content_length(headers: &[(String, String)]) -> Result<usize, ParseError> {
    let mut out: Option<usize> = None;
    for (name, value) in headers {
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        // RFC 9110 grammar is 1*DIGIT. `usize::from_str` alone also
        // admits `+42`, and `042` normalizes silently — reject both so
        // the parsed length is exactly what the client wrote.
        if value.is_empty()
            || !value.bytes().all(|b| b.is_ascii_digit())
            || (value.len() > 1 && value.starts_with('0'))
        {
            return Err(ParseError::BadContentLength);
        }
        let parsed: usize = value.parse().map_err(|_| ParseError::BadContentLength)?;
        match out {
            Some(prev) if prev != parsed => return Err(ParseError::BadContentLength),
            _ => out = Some(parsed),
        }
    }
    Ok(out.unwrap_or(0))
}

/// One HTTP/1.1 response, always `Connection: close`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A JSON-lines (JSONL) response, as `/v1/trace/<id>` serves.
    #[must_use]
    pub fn jsonl(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/x-ndjson",
            body: body.into_bytes(),
        }
    }

    /// A `{"error": …}` JSON response for the given status and message.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(
            status,
            format!(
                "{{\"error\":{}}}",
                nanocost_trace::value::json_string(message)
            ),
        )
    }

    /// The standard reason phrase for this status code.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            410 => "Gone",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    /// Serializes status line, headers, and body to `w`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, ParseError> {
        let mut cursor = std::io::Cursor::new(bytes.to_vec());
        read_request(&mut cursor)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            b"POST /v1/cost HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/cost");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse(b"GET /v1/metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn tolerates_bare_lf_line_endings() {
        let req = parse(b"GET / HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn rejects_garbage_request_lines() {
        for bad in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /\r\n\r\n",
            b"G@T / HTTP/1.1\r\n\r\n",
            b"GET relative HTTP/1.1\r\n\r\n",
            b"GET / FTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn enforces_body_bound_before_reading_it() {
        let head = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse(head.as_bytes()), Err(ParseError::BodyTooLarge));
    }

    #[test]
    fn truncated_body_is_unexpected_eof() {
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(ParseError::UnexpectedEof)
        );
    }

    #[test]
    fn non_canonical_content_lengths_are_rejected() {
        // `+4` and `042` parse under usize::from_str but are not RFC
        // 9110 1*DIGIT forms a well-formed client sends.
        for bad in ["+4", "042", "4a", "0x4", "-1", ""] {
            let req = format!("POST / HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nabcd");
            assert_eq!(
                parse(req.as_bytes()),
                Err(ParseError::BadContentLength),
                "{bad:?}"
            );
        }
        // A bare zero stays canonical.
        assert!(parse(b"POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n").is_ok());
    }

    #[test]
    fn transfer_encoding_is_rejected_not_ignored() {
        let err = parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n")
            .expect_err("chunked framing must be rejected");
        assert_eq!(err, ParseError::UnsupportedTransferEncoding);
        assert_eq!(err.status(), 501);
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd"),
            Err(ParseError::BadContentLength)
        );
    }
}
