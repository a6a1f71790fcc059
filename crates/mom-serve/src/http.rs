//! A minimal HTTP/1.1 reader and writer over `std::net`.
//!
//! The daemon needs exactly enough of the protocol to serve line-oriented
//! tools (`curl`, the `momsim submit` client): one request per connection
//! (`Connection: close`), a `Content-Length` body, and sane limits on head
//! and body sizes.  Chunked encoding, keep-alive and TLS are out of scope.

use mom_obs::json::Json;
use std::io::{BufRead, Write};

/// Longest accepted request line or header line, in bytes.
const MAX_HEAD_LINE: usize = 8192;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;
/// Largest accepted request body, in bytes.
const MAX_BODY: usize = 4 * 1024 * 1024;

/// A parsed request: method, path and (possibly empty) body.
#[derive(Debug)]
pub struct Request {
    /// The request method (`GET`, `POST`, `DELETE`, ...), uppercased.
    pub method: String,
    /// The request path, query string included verbatim.
    pub path: String,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

/// A request-reading failure, mapped to a response status by the router.
#[derive(Debug)]
pub enum HttpError {
    /// The request is malformed (400).
    Bad(String),
    /// The head or body exceeds a size limit (413).
    TooLarge(String),
    /// The peer stopped sending mid-request (408): the socket's read
    /// deadline expired with bytes still owed.  Distinct from [`Io`]
    /// (a closed or reset connection, where nobody is left to answer).
    ///
    /// [`Io`]: HttpError::Io
    Timeout(String),
    /// The connection failed mid-read.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Bad(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
            HttpError::Timeout(m) => write!(f, "request timed out: {m}"),
            HttpError::Io(e) => write!(f, "connection error: {e}"),
        }
    }
}

/// Classifies a read failure: an expired socket deadline (`WouldBlock` on
/// Unix sockets with `SO_RCVTIMEO`, `TimedOut` elsewhere) is a slow peer,
/// everything else a dead one.
fn read_failure(e: std::io::Error, what: &str) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            HttpError::Timeout(format!("timed out reading {what}"))
        }
        _ => HttpError::Io(e),
    }
}

/// Reads one head line (request line or header), tolerating both CRLF and
/// bare LF terminators, and enforcing [`MAX_HEAD_LINE`].
fn read_head_line(stream: &mut impl BufRead) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > MAX_HEAD_LINE {
                    return Err(HttpError::TooLarge(format!(
                        "head line exceeds {MAX_HEAD_LINE} bytes"
                    )));
                }
            }
            Err(e) => return Err(read_failure(e, "a head line")),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::Bad("head line is not UTF-8".into()))
}

/// A parsed request line plus headers, before the body is read.  The
/// server reads the head and body separately so it can scale the body's
/// read deadline with the advertised `Content-Length`.
#[derive(Debug)]
pub struct RequestHead {
    /// The request method, uppercased.
    pub method: String,
    /// The request path, verbatim.
    pub path: String,
    /// The advertised body length (0 without a `Content-Length`).
    pub content_length: usize,
}

/// Reads and parses one request head (request line + headers).
pub fn read_request_head(stream: &mut impl BufRead) -> Result<RequestHead, HttpError> {
    let request_line = read_head_line(stream)?;
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => {
            return Err(HttpError::Bad(format!(
                "malformed request line '{request_line}'"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Bad(format!("unsupported version '{version}'")));
    }
    let mut content_length = 0usize;
    for _ in 0..=MAX_HEADERS {
        let line = read_head_line(stream)?;
        if line.is_empty() {
            return Ok(RequestHead {
                method: method.to_ascii_uppercase(),
                path: path.to_string(),
                content_length,
            });
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Bad(format!("malformed header '{line}'")))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Bad(format!("bad content-length '{}'", value.trim())))?;
            if content_length > MAX_BODY {
                return Err(HttpError::TooLarge(format!(
                    "body of {content_length} bytes exceeds {MAX_BODY}"
                )));
            }
        }
    }
    Err(HttpError::TooLarge(format!(
        "more than {MAX_HEADERS} headers"
    )))
}

/// Reads the `content_length`-byte request body following a head.
pub fn read_request_body(
    stream: &mut impl BufRead,
    content_length: usize,
) -> Result<Vec<u8>, HttpError> {
    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|e| read_failure(e, "the request body"))?;
    Ok(body)
}

/// Reads and parses one complete request from a connection.
pub fn read_request(stream: &mut impl BufRead) -> Result<Request, HttpError> {
    let head = read_request_head(stream)?;
    let body = read_request_body(stream, head.content_length)?;
    Ok(Request {
        method: head.method,
        path: head.path,
        body,
    })
}

/// The canonical reason phrase of the status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A response about to be written: status, body and content type.
#[derive(Debug)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The response body.
    pub body: Vec<u8>,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response rendered with the workspace emitter.
    pub fn json(status: u16, doc: &Json) -> Response {
        Response {
            status,
            body: doc.pretty().into_bytes(),
            content_type: "application/json",
        }
    }

    /// A JSON error envelope: `{"error": message}`.
    pub fn error(status: u16, message: impl Into<String>) -> Response {
        Response::json(status, &Json::obj([("error", Json::Str(message.into()))]))
    }

    /// A raw (already rendered) JSON document — the replay path, where the
    /// bytes must pass through untouched.
    pub fn raw_json(status: u16, body: Vec<u8>) -> Response {
        Response {
            status,
            body,
            content_type: "application/json",
        }
    }

    /// A plain-text response in the Prometheus exposition content type
    /// (the `GET /metrics` route).
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            body: body.into_bytes(),
            content_type: "text/plain; version=0.0.4",
        }
    }

    /// Writes the response with `Content-Length` and `Connection: close`.
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Reads one response from a client connection: `(status, body)`.  Honours
/// `Content-Length` when present, else reads to connection close.
pub fn read_response(stream: &mut impl BufRead) -> Result<(u16, Vec<u8>), HttpError> {
    let status_line = read_head_line(stream)?;
    if status_line.is_empty() {
        // EOF before a single response byte: the daemon dropped the
        // connection (crash, restart, injected accept fault).  That is a
        // transport failure, not a protocol one — clients retry it.
        return Err(HttpError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        )));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Bad(format!("malformed status line '{status_line}'")))?;
    let mut content_length = None;
    for _ in 0..=MAX_HEADERS {
        let line = read_head_line(stream)?;
        if line.is_empty() {
            let body = match content_length {
                Some(n) => {
                    let mut body = vec![0u8; n];
                    stream.read_exact(&mut body).map_err(HttpError::Io)?;
                    body
                }
                None => {
                    let mut body = Vec::new();
                    stream.read_to_end(&mut body).map_err(HttpError::Io)?;
                    body
                }
            };
            return Ok((status, body));
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = Some(value.trim().parse().map_err(|_| {
                    HttpError::Bad(format!("bad content-length '{}'", value.trim()))
                })?);
            }
        }
    }
    Err(HttpError::TooLarge(format!(
        "more than {MAX_HEADERS} headers"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let req = read_request(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn tolerates_bare_lf_and_rejects_garbage() {
        let raw = b"GET /healthz HTTP/1.0\nHost: x\n\n";
        let req = read_request(&mut Cursor::new(&raw[..])).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, b"");

        assert!(matches!(
            read_request(&mut Cursor::new(&b"NOT A REQUEST\r\n\r\n"[..])),
            Err(HttpError::Bad(_))
        ));
        assert!(matches!(
            read_request(&mut Cursor::new(
                &b"POST / HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"[..]
            )),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn response_round_trips() {
        let mut wire = Vec::new();
        Response::json(202, &Json::obj([("job", Json::int(1))]))
            .write_to(&mut wire)
            .unwrap();
        let (status, body) = read_response(&mut Cursor::new(wire)).unwrap();
        assert_eq!(status, 202);
        let doc = mom_obs::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(doc.get("job").and_then(Json::as_u64), Some(1));
    }
}
