//! The HTTP client side of `momsim submit` / `status` / `report` /
//! `shutdown`: one request per connection against a running daemon, with
//! a retry policy that rides out daemon restarts.
//!
//! Connection failures (refused, reset, mid-read) and `503 Service
//! Unavailable` answers are transient from the client's seat: the daemon
//! may be restarting, draining, or briefly overloaded.  Both are retried
//! with jittered exponential backoff up to the policy's limit
//! (`--retries`/`--backoff`/`--timeout` on every client subcommand).
//! Anything else — including 4xx/5xx answers with a live connection — is
//! returned as-is; the daemon answered, so retrying cannot help.

use crate::http::{read_response, HttpError};
use mom_obs::json::Json;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A client-side failure: connection, protocol or response decoding.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect or the connection failed mid-request.
    Io(String),
    /// The response was not parseable.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(m) | ClientError::Protocol(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for ClientError {}

/// How the client retries transient failures.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Extra attempts after the first (`--retries`).
    pub retries: u32,
    /// Base backoff before the first retry; doubles per attempt with
    /// jitter (`--backoff`).
    pub backoff: Duration,
    /// Socket read deadline per attempt (`--timeout`).
    pub timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            retries: 2,
            backoff: Duration::from_millis(100),
            timeout: Duration::from_secs(120),
        }
    }
}

/// The jittered exponential backoff before retry number `attempt`
/// (1-based): `base * 2^(attempt-1)`, scaled into `[0.5, 1.0]` by a
/// deterministic hash so colliding clients fan out.
fn retry_backoff(base: Duration, attempt: u32) -> Duration {
    let exp = base.saturating_mul(1u32 << (attempt - 1).min(6));
    let mut x = u64::from(std::process::id()) ^ (u64::from(attempt) << 32);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 31;
    let frac = (x >> 11) as f64 / (1u64 << 53) as f64;
    exp.mul_f64(0.5 + 0.5 * frac)
}

/// Performs one request attempt; returns the status code and raw body.
fn request_once(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    timeout: Duration,
) -> Result<(u16, Vec<u8>), ClientError> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| ClientError::Io(format!("cannot connect to {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(30))))
        .map_err(|e| ClientError::Io(format!("cannot configure the connection: {e}")))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| ClientError::Io(format!("cannot clone the connection: {e}")))?;
    let body = body.unwrap_or(&[]);
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .and_then(|()| writer.write_all(body))
    .and_then(|()| writer.flush())
    .map_err(|e| ClientError::Io(format!("request to {addr} failed: {e}")))?;
    let mut reader = BufReader::new(stream);
    read_response(&mut reader).map_err(|e| match e {
        // A connection that died mid-response is as retryable as one that
        // never opened; a malformed response from a live daemon is not.
        HttpError::Io(_) | HttpError::Timeout(_) => ClientError::Io(format!("{addr}: {e}")),
        other => ClientError::Protocol(format!("{addr}: {other}")),
    })
}

/// Performs one request under a retry policy; returns the status code and
/// raw body bytes of the final attempt.
pub fn request_raw_with(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    policy: &RetryPolicy,
) -> Result<(u16, Vec<u8>), ClientError> {
    let mut attempt = 0u32;
    loop {
        let result = request_once(addr, method, path, body, policy.timeout);
        let transient = matches!(&result, Err(ClientError::Io(_)) | Ok((503, _)));
        if !transient || attempt >= policy.retries {
            return result;
        }
        attempt += 1;
        let pause = retry_backoff(policy.backoff, attempt);
        let why = match &result {
            Err(e) => e.to_string(),
            Ok(_) => "daemon answered 503".to_string(),
        };
        mom_obs::log::warn(
            "client",
            &format!(
                "{method} {path}: {why}; retry {attempt}/{} in {:.0}ms",
                policy.retries,
                pause.as_secs_f64() * 1e3
            ),
        );
        std::thread::sleep(pause);
    }
}

/// Performs one request with the default retry policy; returns the status
/// code and raw body bytes.
pub fn request_raw(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<(u16, Vec<u8>), ClientError> {
    request_raw_with(addr, method, path, body, &RetryPolicy::default())
}

/// Performs one request under a retry policy and parses the JSON body (an
/// empty body maps to [`Json::Null`]).
pub fn request_json_with(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    policy: &RetryPolicy,
) -> Result<(u16, Json), ClientError> {
    let (status, bytes) = request_raw_with(addr, method, path, body, policy)?;
    if bytes.is_empty() {
        return Ok((status, Json::Null));
    }
    let text = std::str::from_utf8(&bytes)
        .map_err(|_| ClientError::Protocol(format!("{addr}: response body is not UTF-8")))?;
    let doc = mom_obs::json::parse(text)
        .map_err(|e| ClientError::Protocol(format!("{addr}: response is not valid JSON: {e}")))?;
    Ok((status, doc))
}

/// Performs one request with the default retry policy and parses the JSON
/// body.
pub fn request_json(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<(u16, Json), ClientError> {
    request_json_with(addr, method, path, body, &RetryPolicy::default())
}
