//! A deliberately small HTTP/1.1 server-side implementation.
//!
//! `cogent serve` speaks just enough HTTP for a JSON API behind a load
//! balancer: one request per connection (`Connection: close`), no chunked
//! transfer encoding, no keep-alive, no TLS. What it *does* take
//! seriously is hostile input: every read carries a per-read socket
//! timeout plus an overall deadline for the request head and body
//! (defeating slowloris clients that dribble one byte per second), the
//! head and body have hard size caps, and every failure maps to a typed
//! [`HttpError`] so the caller can answer with the right status code
//! instead of hanging or dying.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cogent_obs::json::Json;

/// Limits applied while reading one request. All fields are hard caps —
/// exceeding any of them aborts the read with a typed error.
#[derive(Debug, Clone, Copy)]
pub struct ReadLimits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of declared (and read) body.
    pub max_body_bytes: usize,
    /// Wall-clock budget for receiving the full head.
    pub head_timeout: Duration,
    /// Wall-clock budget for receiving the full body.
    pub body_timeout: Duration,
    /// Per-`read(2)` socket timeout (bounds how long a silent peer can
    /// hold the thread between bytes).
    pub read_timeout: Duration,
}

impl Default for ReadLimits {
    fn default() -> Self {
        Self {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
            head_timeout: Duration::from_secs(5),
            body_timeout: Duration::from_secs(10),
            read_timeout: Duration::from_secs(2),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request path without query string.
    pub path: String,
    /// Header names are lowercased; values are trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (lowercase) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each variant maps to one HTTP status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed or reset the connection mid-request (no response
    /// can be sent).
    Disconnected,
    /// The head or body did not arrive within its deadline → 408.
    Timeout {
        /// Which part of the request timed out (`"head"` or `"body"`).
        stage: &'static str,
    },
    /// The head exceeded [`ReadLimits::max_head_bytes`] → 431.
    HeadTooLarge,
    /// The declared or received body exceeded
    /// [`ReadLimits::max_body_bytes`] → 413.
    BodyTooLarge,
    /// The bytes received do not parse as HTTP → 400.
    Malformed(String),
}

impl HttpError {
    /// The status code this error answers with (`Disconnected` has none —
    /// there is nobody left to answer).
    pub fn status(&self) -> Option<(u16, &'static str, &'static str)> {
        match self {
            HttpError::Disconnected => None,
            HttpError::Timeout { .. } => Some((408, "Request Timeout", "request_timeout")),
            HttpError::HeadTooLarge => {
                Some((431, "Request Header Fields Too Large", "head_too_large"))
            }
            HttpError::BodyTooLarge => Some((413, "Content Too Large", "oversized_request")),
            HttpError::Malformed(_) => Some((400, "Bad Request", "malformed_request")),
        }
    }

    /// Human-oriented detail string for the error body.
    pub fn detail(&self) -> String {
        match self {
            HttpError::Disconnected => "peer disconnected".to_string(),
            HttpError::Timeout { stage } => format!("timed out receiving request {stage}"),
            HttpError::HeadTooLarge => "request head exceeds the configured limit".to_string(),
            HttpError::BodyTooLarge => "request body exceeds the configured limit".to_string(),
            HttpError::Malformed(why) => why.clone(),
        }
    }
}

/// Classifies one `read(2)` result under a deadline.
fn read_some(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
    stage: &'static str,
) -> Result<usize, HttpError> {
    if Instant::now() >= deadline {
        return Err(HttpError::Timeout { stage });
    }
    match stream.read(buf) {
        Ok(0) => Err(HttpError::Disconnected),
        Ok(n) => Ok(n),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            // Per-read timeout expired; the overall deadline decides
            // whether to keep waiting.
            Ok(0)
        }
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(0),
        Err(_) => Err(HttpError::Disconnected),
    }
}

/// Reads and parses one request under `limits`. The stream's read timeout
/// is set to [`ReadLimits::read_timeout`] as a side effect.
pub fn read_request(stream: &mut TcpStream, limits: &ReadLimits) -> Result<Request, HttpError> {
    let _ = stream.set_read_timeout(Some(limits.read_timeout));
    let _ = stream.set_nodelay(true);

    // Head: accumulate until the blank line, under cap and deadline.
    let head_deadline = Instant::now() + limits.head_timeout;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge);
        }
        let n = read_some(stream, &mut chunk, head_deadline, "head")?;
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec())
        .map_err(|_| HttpError::Malformed("request head is not valid UTF-8".to_string()))?;
    let mut request = parse_head(&head)?;

    // Body: read exactly Content-Length bytes (we never trust the peer to
    // just "send what it has" — a short body is a truncated request).
    let declared = match request.header("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?,
        None => 0,
    };
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::Malformed(
            "chunked transfer encoding is not supported".to_string(),
        ));
    }
    if declared > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = buf[head_end + 4..].to_vec();
    let body_deadline = Instant::now() + limits.body_timeout;
    while body.len() < declared {
        let n = read_some(stream, &mut chunk, body_deadline, "body")?;
        body.extend_from_slice(&chunk[..n]);
        if body.len() > limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge);
        }
    }
    body.truncate(declared);
    request.body = body;
    Ok(request)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(head: &str) -> Result<Request, HttpError> {
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".to_string()))?;
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method: method.to_string(),
        path,
        headers,
        body: Vec::new(),
    })
}

/// The body of [`Response::error`], also nested as a `/v1/batch` result.
pub(crate) fn error_json(code: &str, detail: &str) -> Json {
    Json::obj([(
        "error",
        Json::obj([
            ("code", Json::Str(code.to_string())),
            ("detail", Json::Str(detail.to_string())),
        ]),
    )])
}

/// One response, always `Connection: close`.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Reason phrase for the status line.
    pub reason: &'static str,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra headers (e.g. `Retry-After`).
    pub extra_headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, reason: &'static str, json: &Json) -> Self {
        let mut body = String::new();
        json.write(&mut body);
        body.push('\n');
        Self {
            status,
            reason,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, reason: &'static str, body: String) -> Self {
        Self {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// The typed error envelope every non-2xx JSON response uses:
    /// `{"error":{"code":...,"detail":...}}`.
    pub fn error(status: u16, reason: &'static str, code: &str, detail: &str) -> Self {
        Self::json(status, reason, &error_json(code, detail))
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.extra_headers.push((name.to_string(), value));
        self
    }

    /// Tags the response with its request id: always as an
    /// `X-Request-Id` header, and — for JSON error envelopes (status ≥
    /// 400) — as `error.request_id` in the body too, so the id survives
    /// clients that only log bodies. Success bodies are never rewritten:
    /// warm 200s must stay byte-identical across requests and restarts.
    pub fn with_request_id(mut self, id: &str) -> Self {
        if self.status >= 400 && self.content_type == "application/json" {
            if let Ok(Json::Object(mut members)) = Json::parse(&self.body) {
                let mut tagged = false;
                if let Some((_, Json::Object(error))) =
                    members.iter_mut().find(|(k, _)| k == "error")
                {
                    if !error.iter().any(|(k, _)| k == "request_id") {
                        error.push(("request_id".to_string(), Json::Str(id.to_string())));
                        tagged = true;
                    }
                }
                if tagged {
                    let mut body = String::new();
                    Json::Object(members).write(&mut body);
                    body.push('\n');
                    self.body = body;
                }
            }
        }
        self.extra_headers
            .push(("X-Request-Id".to_string(), id.to_string()));
        self
    }

    /// Serializes and writes the response. Write errors are swallowed —
    /// the peer may already be gone, and the connection closes either way.
    pub fn send(&self, stream: &mut TcpStream) {
        let mut out = String::with_capacity(self.body.len() + 256);
        out.push_str(&format!("HTTP/1.1 {} {}\r\n", self.status, self.reason));
        out.push_str(&format!("Content-Type: {}\r\n", self.content_type));
        out.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        for (name, value) in &self.extra_headers {
            out.push_str(&format!("{name}: {value}\r\n"));
        }
        out.push_str("Connection: close\r\n\r\n");
        out.push_str(&self.body);
        let _ = stream.write_all(out.as_bytes());
        let _ = stream.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_head_extracts_method_path_headers() {
        let req =
            parse_head("POST /v1/generate?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 12")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/generate");
        assert_eq!(req.header("content-length"), Some("12"));
        assert_eq!(req.header("host"), Some("localhost"));
    }

    #[test]
    fn parse_head_rejects_garbage() {
        assert!(matches!(
            parse_head("not http at all"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_head("GET / SPDY/3"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_head("GET / HTTP/1.1\r\nbroken header line"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn error_statuses_are_stable() {
        assert_eq!(
            HttpError::Timeout { stage: "head" }.status(),
            Some((408, "Request Timeout", "request_timeout"))
        );
        assert_eq!(HttpError::HeadTooLarge.status().map(|s| s.0), Some(431));
        assert_eq!(HttpError::BodyTooLarge.status().map(|s| s.0), Some(413));
        assert_eq!(
            HttpError::Malformed(String::new()).status().map(|s| s.0),
            Some(400)
        );
        assert_eq!(HttpError::Disconnected.status(), None);
    }

    #[test]
    fn response_error_envelope_shape() {
        let resp = Response::error(429, "Too Many Requests", "saturated", "queue full");
        assert!(resp.body.contains("\"code\":\"saturated\""));
        assert!(resp.body.contains("\"detail\":\"queue full\""));
    }

    #[test]
    fn request_id_tags_headers_and_error_bodies() {
        // Errors carry the id in both the header and the envelope.
        let resp = Response::error(504, "Gateway Timeout", "deadline_exceeded", "too slow")
            .with_request_id("req-000007");
        assert!(resp
            .extra_headers
            .iter()
            .any(|(k, v)| k == "X-Request-Id" && v == "req-000007"));
        assert!(
            resp.body.contains("\"request_id\":\"req-000007\""),
            "{}",
            resp.body
        );
        // Tagging twice does not duplicate the body member.
        let twice = Response::error(500, "Internal Server Error", "worker_panic", "boom")
            .with_request_id("a")
            .with_request_id("a");
        assert_eq!(twice.body.matches("request_id").count(), 1);
        // Success bodies stay byte-identical; only the header is added.
        let ok_body = "{\"cache\":\"hit\"}\n".to_string();
        let ok = Response::json(200, "OK", &Json::parse(ok_body.trim()).unwrap())
            .with_request_id("req-000008");
        assert_eq!(ok.body, ok_body);
        assert!(ok
            .extra_headers
            .iter()
            .any(|(k, v)| k == "X-Request-Id" && v == "req-000008"));
    }
}
