//! A minimal, std-only HTTP/1.1 subset: just enough wire protocol for
//! the gateway's four routes, with hard input limits so arbitrary bytes
//! from a socket can never allocate unboundedly or panic the server.
//!
//! Scope (deliberate):
//! - requests: request-line + headers + `Content-Length` bodies; no
//!   chunked transfer encoding, no continuation lines, no trailers;
//! - responses: always `Content-Length`-framed;
//! - keep-alive: HTTP/1.1 persistent connections honoured unless the
//!   client sends `Connection: close`.
//!
//! Anything outside that subset maps to a typed [`HttpError`] which the
//! connection loop turns into `400`/`413`/`431` — malformed input is a
//! *response*, never a panic (pinned by proptest over garbage bytes in
//! `tests/integration_gateway.rs`).

use std::io::{self, BufRead, Read, Write};

/// Cap on request-line + headers, bytes. Over → `431`.
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Cap on a request body, bytes. Over → `413`.
pub(crate) const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Cap on header count (each costs an allocation).
pub(crate) const MAX_HEADERS: usize = 64;

/// One parsed request. Header names are lower-cased at parse time.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    pub method: String,
    pub path: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (lower-case) name.
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to drop the connection after this
    /// exchange (`Connection: close`).
    pub(crate) fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read. Everything except `Closed` / `Io`
/// is answerable on the wire.
#[derive(Debug)]
pub(crate) enum HttpError {
    /// Peer closed the connection cleanly between requests.
    Closed,
    /// Not an HTTP/1.x request we can parse → `400 Bad Request`.
    Malformed(String),
    /// Head exceeded [`MAX_HEAD_BYTES`] → `431`.
    HeadTooLarge,
    /// Body exceeded [`MAX_BODY_BYTES`] → `413`.
    BodyTooLarge,
    /// Transport error (timeout, reset); the connection is unusable.
    Io,
}

impl From<io::Error> for HttpError {
    fn from(_: io::Error) -> Self {
        HttpError::Io
    }
}

fn malformed(msg: impl Into<String>) -> HttpError {
    HttpError::Malformed(msg.into())
}

/// Read one line (through `\n`), enforcing the running head budget.
fn read_line(
    r: &mut impl BufRead,
    head_bytes: &mut usize,
    first: bool,
) -> Result<String, HttpError> {
    let mut line = Vec::new();
    // take() bounds the read so a \n-free flood cannot grow `line`
    // past the head budget.
    let budget = (MAX_HEAD_BYTES - *head_bytes + 1) as u64;
    let n = r.take(budget).read_until(b'\n', &mut line)?;
    if n == 0 {
        return if first {
            Err(HttpError::Closed)
        } else {
            Err(malformed("unexpected end of header block"))
        };
    }
    *head_bytes += n;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(HttpError::HeadTooLarge);
    }
    if line.last() != Some(&b'\n') {
        return Err(malformed("header line without newline"));
    }
    line.pop();
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| malformed("non-UTF-8 bytes in header"))
}

/// Read and parse one request off the stream.
pub(crate) fn read_request(r: &mut impl BufRead) -> Result<Request, HttpError> {
    let mut head_bytes = 0usize;
    // RFC 9112 §2.2: tolerate CRLFs before the request-line.
    let mut request_line = read_line(r, &mut head_bytes, true)?;
    let mut skipped = 0;
    while request_line.is_empty() {
        skipped += 1;
        if skipped > 4 {
            return Err(malformed("blank flood before request line"));
        }
        request_line = read_line(r, &mut head_bytes, true)?;
    }

    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => return Err(malformed(format!("bad request line: {request_line:?}"))),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(malformed(format!("bad method: {method:?}")));
    }
    if !path.starts_with('/') {
        return Err(malformed(format!("bad path: {path:?}")));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(malformed(format!("unsupported version: {version:?}")));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(r, &mut head_bytes, false)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::HeadTooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(malformed(format!("bad header line: {line:?}")));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(malformed(format!("bad header name: {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| malformed(format!("bad content-length: {v:?}")))?,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;

    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    })
}

/// Reason phrase for the status codes the gateway emits.
pub(crate) fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// One response, always `Content-Length`-framed.
#[derive(Debug, Clone)]
pub(crate) struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub extra_headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub(crate) fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    pub(crate) fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    pub(crate) fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.extra_headers.push((name.into(), value.into()));
        self
    }

    /// Serialise onto the wire. Returns total bytes written (for the
    /// `gateway.bytes` counter).
    pub(crate) fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<usize> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()?;
        Ok(head.len() + self.body.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_get_with_headers() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Tag: a b\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("x-tag"), Some("a b"));
        assert!(req.body.is_empty());
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let req = parse(b"POST /v1/x HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn lf_only_lines_are_accepted() {
        let req = parse(b"GET / HTTP/1.0\nHost: y\n\n").unwrap();
        assert_eq!(req.header("host"), Some("y"));
    }

    #[test]
    fn eof_before_any_bytes_is_closed() {
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
    }

    #[test]
    fn garbage_is_malformed_not_panic() {
        for bytes in [
            &b"\x00\xffbinary\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"GET / SPDY/3\r\n\r\n",
            b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bytes), Err(HttpError::Malformed(_))),
                "{bytes:?}"
            );
        }
    }

    #[test]
    fn truncated_body_is_io_error() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::Io)
        ));
    }

    #[test]
    fn oversized_declarations_are_rejected() {
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(HttpError::BodyTooLarge)
        ));
        let mut flood = String::from("GET / HTTP/1.1\r\n");
        for i in 0..2000 {
            flood.push_str(&format!("x-h{i}: {}\r\n", "v".repeat(32)));
        }
        flood.push_str("\r\n");
        assert!(matches!(
            parse(flood.as_bytes()),
            Err(HttpError::HeadTooLarge)
        ));
    }

    #[test]
    fn newline_free_flood_stops_at_head_cap() {
        let flood = vec![b'A'; MAX_HEAD_BYTES * 2];
        assert!(matches!(
            parse(&flood),
            Err(HttpError::HeadTooLarge) | Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn response_wire_format_and_byte_count() {
        let mut out = Vec::new();
        let n = Response::json(429, "{}".into())
            .header("retry-after", "1")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(n, text.len());
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
