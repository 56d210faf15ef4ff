//! Minimal HTTP request/response model, with a real wire format.
//!
//! The simulated retailers never leave the process, but the model covers
//! exactly the header surface the paper's methodology interacts with:
//! `Host`, `User-Agent` (the three Spain probes differ only here),
//! `Cookie`/`Set-Cookie` (sessions, login), and the client address
//! (geo-location input).
//!
//! Since the `pd serve` daemon speaks HTTP/1.1 over TCP, both [`Request`]
//! and [`Response`] also carry a byte-level wire codec:
//! [`Request::write_to`] / [`Request::read_from`] (and the `parse` /
//! `to_bytes` convenience pair) emit and accept standard `CRLF`-delimited
//! messages with `content-length` framing. Parsing lowercases header
//! names and folds duplicate headers into one comma-separated value
//! (RFC 7230 §3.2.2), so the in-memory map round-trips bytes exactly.
//!
//! Connection persistence follows HTTP/1.1 semantics: a message is
//! keep-alive unless its `connection` header carries a `close` token
//! ([`Request::keep_alive`] / [`Response::keep_alive`]). A parsed
//! HTTP/1.0 request without an explicit `connection` header gets
//! `connection: close` synthesized — the struct does not carry the
//! version, so the header records the 1.0 default and the decision
//! survives re-serialization (writing always emits HTTP/1.1).

use pd_net::clock::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufRead, Read, Write};
use std::net::Ipv4Addr;

/// Longest accepted request/status/header line, in bytes.
const MAX_LINE_BYTES: usize = 64 * 1024;
/// Largest accepted header section (every header line together, one
/// terminator byte counted per line), in bytes.
const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Largest accepted message body, in bytes.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Errors from the byte-level HTTP codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed the connection before sending a full message.
    Eof,
    /// Underlying I/O failure (message carries the `io::Error` text).
    Io(String),
    /// Malformed `METHOD TARGET HTTP/1.x` request line.
    BadRequestLine(String),
    /// Malformed `HTTP/1.x CODE REASON` status line.
    BadStatusLine(String),
    /// Malformed `name: value` header line.
    BadHeader(String),
    /// Status code outside the model (only 200/400/404/503 exist).
    UnknownStatus(u16),
    /// A line, the header section or the body exceeded its hard size
    /// cap.
    TooLarge(&'static str),
    /// Body was not valid UTF-8 or shorter than `content-length`.
    BadBody(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Eof => write!(f, "connection closed before a full message"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::BadRequestLine(l) => write!(f, "malformed request line: {l:?}"),
            HttpError::BadStatusLine(l) => write!(f, "malformed status line: {l:?}"),
            HttpError::BadHeader(l) => write!(f, "malformed header: {l:?}"),
            HttpError::UnknownStatus(c) => write!(f, "unsupported status code {c}"),
            HttpError::TooLarge(what) => write!(f, "{what} exceeds size limit"),
            HttpError::BadBody(e) => write!(f, "bad message body: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e.to_string())
    }
}

/// Looks `name` up in a map of lowercased header names; only a name with
/// ASCII uppercase is lowercased (allocated) first.
fn header_of<'a>(headers: &'a BTreeMap<String, String>, name: &str) -> Option<&'a str> {
    let value = if name.bytes().any(|b| b.is_ascii_uppercase()) {
        headers.get(&name.to_ascii_lowercase())
    } else {
        headers.get(name)
    };
    value.map(String::as_str)
}

/// Reads one CRLF- (or bare-LF-) terminated line, without the terminator.
/// Returns `None` on clean EOF before any byte.
fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, HttpError> {
    let mut raw = Vec::new();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut raw)?;
    if n == 0 {
        return Ok(None);
    }
    if raw.len() > MAX_LINE_BYTES {
        return Err(HttpError::TooLarge("header line"));
    }
    if raw.last() == Some(&b'\n') {
        raw.pop();
        if raw.last() == Some(&b'\r') {
            raw.pop();
        }
    }
    String::from_utf8(raw)
        .map(Some)
        .map_err(|e| HttpError::BadHeader(e.to_string()))
}

/// Reads `name: value` header lines until the blank separator line.
/// Names are lowercased; duplicates fold into one `", "`-joined value.
/// The whole section is capped at [`MAX_HEADER_BYTES`], so a peer that
/// drips header lines cannot grow the map without bound.
fn read_headers<R: BufRead>(reader: &mut R) -> Result<BTreeMap<String, String>, HttpError> {
    let mut headers = BTreeMap::new();
    let mut section_bytes = 0usize;
    loop {
        let line = read_line(reader)?.ok_or(HttpError::Eof)?;
        if line.is_empty() {
            return Ok(headers);
        }
        section_bytes += line.len() + 1;
        if section_bytes > MAX_HEADER_BYTES {
            return Err(HttpError::TooLarge("header section"));
        }
        if line.starts_with(' ') || line.starts_with('\t') {
            // Obsolete line folding — deprecated by RFC 7230, reject.
            return Err(HttpError::BadHeader(line));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadHeader(line.clone()))?;
        let name = name.trim().to_ascii_lowercase();
        if name.is_empty() {
            return Err(HttpError::BadHeader(line.clone()));
        }
        let value = value.trim().to_owned();
        headers
            .entry(name)
            .and_modify(|prev: &mut String| {
                prev.push_str(", ");
                prev.push_str(&value);
            })
            .or_insert(value);
    }
}

/// Reads a `content-length`-framed UTF-8 body.
fn read_body<R: BufRead>(
    reader: &mut R,
    headers: &BTreeMap<String, String>,
) -> Result<String, HttpError> {
    let len = match headers.get("content-length") {
        None => return Ok(String::new()),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadHeader(format!("content-length: {v}")))?,
    };
    if len > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge("message body"));
    }
    let mut raw = vec![0_u8; len];
    reader.read_exact(&mut raw).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => {
            HttpError::BadBody("body shorter than content-length".to_owned())
        }
        _ => HttpError::Io(e.to_string()),
    })?;
    String::from_utf8(raw).map_err(|e| HttpError::BadBody(e.to_string()))
}

/// Whether a `connection` header value asks to close: any comma-
/// separated token equal to `close`, ASCII case-insensitively
/// (RFC 7230 §6.1 — `Connection` is a list-typed header).
fn wants_close(connection: Option<&str>) -> bool {
    connection.is_some_and(|value| {
        value
            .split(',')
            .any(|token| token.trim().eq_ignore_ascii_case("close"))
    })
}

/// Writes the header block (sorted by name) plus `content-length` framing.
fn write_headers<W: Write>(
    w: &mut W,
    headers: &BTreeMap<String, String>,
    body_len: usize,
) -> io::Result<()> {
    for (name, value) in headers {
        if name == "content-length" {
            continue; // always recomputed from the body
        }
        write!(w, "{name}: {value}\r\n")?;
    }
    write!(w, "content-length: {body_len}\r\n\r\n")
}

/// HTTP-ish response status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    /// 200.
    Ok,
    /// 404.
    NotFound,
    /// 400.
    BadRequest,
    /// 503 — transient upstream failure (failure injection).
    ServiceUnavailable,
}

impl Status {
    /// Numeric code.
    #[must_use]
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::NotFound => 404,
            Status::BadRequest => 400,
            Status::ServiceUnavailable => 503,
        }
    }

    /// Inverse of [`Status::code`]; `None` for codes outside the model.
    #[must_use]
    pub fn from_code(code: u16) -> Option<Self> {
        match code {
            200 => Some(Status::Ok),
            400 => Some(Status::BadRequest),
            404 => Some(Status::NotFound),
            503 => Some(Status::ServiceUnavailable),
            _ => None,
        }
    }

    /// Canonical reason phrase for the status line.
    #[must_use]
    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::NotFound => "Not Found",
            Status::BadRequest => "Bad Request",
            Status::ServiceUnavailable => "Service Unavailable",
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// An HTTP request — to a simulated retailer, or over a real socket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...).
    pub method: String,
    /// Target host, e.g. `www.digitalrev.com`.
    pub host: String,
    /// Path + query, e.g. `/product/camera-nova-0042?ref=a`.
    pub path: String,
    /// Client IPv4 address (the geo-location input). Wire parsing leaves
    /// this unspecified (`0.0.0.0`); servers fill in the peer address.
    pub client_addr: Ipv4Addr,
    /// Simulated send time (wire parsing leaves [`SimTime::EPOCH`]).
    pub time: SimTime,
    /// Request headers (lowercased names, duplicates folded with `", "`).
    /// `host` and `content-length` live in dedicated fields, not here.
    pub headers: BTreeMap<String, String>,
    /// Request body (empty for GET).
    pub body: String,
}

impl Request {
    /// Builds a GET request with no extra headers.
    #[must_use]
    pub fn get(host: &str, path: &str, client_addr: Ipv4Addr, time: SimTime) -> Self {
        Request {
            method: "GET".to_owned(),
            host: host.to_owned(),
            path: path.to_owned(),
            client_addr,
            time,
            headers: BTreeMap::new(),
            body: String::new(),
        }
    }

    /// Builds a POST request carrying `body`.
    #[must_use]
    pub fn post(host: &str, path: &str, body: &str, client_addr: Ipv4Addr, time: SimTime) -> Self {
        Request {
            method: "POST".to_owned(),
            body: body.to_owned(),
            ..Request::get(host, path, client_addr, time)
        }
    }

    /// Adds/replaces a header (name lowercased).
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers
            .insert(name.to_ascii_lowercase(), value.to_owned());
        self
    }

    /// Reads a header (name matched case-insensitively).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        header_of(&self.headers, name)
    }

    /// Parses one cookie value out of the `Cookie` header.
    #[must_use]
    pub fn cookie(&self, name: &str) -> Option<&str> {
        let header = self.header("cookie")?;
        header.split(';').find_map(|pair| {
            let (k, v) = pair.trim().split_once('=')?;
            (k == name).then_some(v)
        })
    }

    /// Sets a cookie (merging with any existing `Cookie` header).
    #[must_use]
    pub fn with_cookie(self, name: &str, value: &str) -> Self {
        let merged = match self.header("cookie") {
            Some(existing) => format!("{existing}; {name}={value}"),
            None => format!("{name}={value}"),
        };
        self.with_header("cookie", &merged)
    }

    /// Full URI for logging and $heriff fan-out. An empty path renders as
    /// `/`, so the URI always round-trips through [`Request::parse`].
    #[must_use]
    pub fn uri(&self) -> String {
        let path = if self.path.is_empty() {
            "/"
        } else {
            &self.path
        };
        format!("http://{}{}", self.host, path)
    }

    /// Path without the query string.
    #[must_use]
    pub fn path_only(&self) -> &str {
        match self.path.split_once('?') {
            Some((path, _)) => path,
            None => self.path.as_str(),
        }
    }

    /// Query string after `?`, if any (without the `?`).
    #[must_use]
    pub fn query(&self) -> Option<&str> {
        self.path.split_once('?').map(|(_, q)| q)
    }

    /// Looks up one `key=value` pair in the query string.
    #[must_use]
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }

    /// Whether the connection should persist after this request
    /// (HTTP/1.1 semantics: keep-alive unless the `connection` header
    /// carries a `close` token; [`Request::read_from`] synthesizes that
    /// header for HTTP/1.0 requests, where close is the default).
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        !wants_close(self.header("connection"))
    }

    /// Serializes the request in HTTP/1.1 wire format.
    ///
    /// The `host` field becomes the `host` header and `content-length` is
    /// computed from the body; both are excluded from [`Request::headers`]
    /// on the way back in, so `parse(to_bytes())` reproduces the request.
    ///
    /// # Errors
    /// Propagates writer failures.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let path = if self.path.is_empty() {
            "/"
        } else {
            &self.path
        };
        write!(w, "{} {} HTTP/1.1\r\n", self.method, path)?;
        write!(w, "host: {}\r\n", self.host)?;
        let extras: BTreeMap<String, String> = self
            .headers
            .iter()
            .filter(|(name, _)| name.as_str() != "host")
            .map(|(name, value)| (name.clone(), value.clone()))
            .collect();
        write_headers(w, &extras, self.body.len())?;
        w.write_all(self.body.as_bytes())
    }

    /// [`Request::write_to`] into a fresh buffer.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_to(&mut buf).expect("Vec write is infallible");
        buf
    }

    /// Reads one wire-format request off a buffered stream.
    ///
    /// `client_addr` is left as `0.0.0.0` and `time` as the epoch —
    /// servers overwrite them with connection metadata.
    ///
    /// # Errors
    /// [`HttpError::Eof`] on a cleanly closed idle connection; other
    /// variants for malformed or oversized messages.
    pub fn read_from<R: BufRead>(reader: &mut R) -> Result<Self, HttpError> {
        let line = read_line(reader)?.ok_or(HttpError::Eof)?;
        let mut parts = line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
                _ => return Err(HttpError::BadRequestLine(line.clone())),
            };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::BadRequestLine(line.clone()));
        }
        // Absolute-form targets carry the host inline; origin-form relies
        // on the `host` header.
        let (mut host, path) = match target.strip_prefix("http://") {
            Some(rest) => match rest.split_once('/') {
                Some((h, p)) => (h.to_owned(), format!("/{p}")),
                None => (rest.to_owned(), "/".to_owned()),
            },
            None => (String::new(), target.to_owned()),
        };
        let mut headers = read_headers(reader)?;
        if let Some(header_host) = headers.remove("host") {
            if host.is_empty() {
                host = header_host;
            }
        }
        // HTTP/1.0 defaults to close. The struct does not carry the
        // version, so record the default as an explicit header — an
        // old client without `connection: keep-alive` is never left
        // waiting on a connection the server holds open.
        if version == "HTTP/1.0" && !headers.contains_key("connection") {
            headers.insert("connection".to_owned(), "close".to_owned());
        }
        let body = read_body(reader, &headers)?;
        headers.remove("content-length");
        Ok(Request {
            method: method.to_owned(),
            host,
            path,
            client_addr: Ipv4Addr::UNSPECIFIED,
            time: SimTime::EPOCH,
            headers,
            body,
        })
    }

    /// Parses a complete wire-format request from a byte slice.
    ///
    /// # Errors
    /// Same as [`Request::read_from`].
    pub fn parse(bytes: &[u8]) -> Result<Self, HttpError> {
        let mut reader = bytes;
        Self::read_from(&mut reader)
    }
}

/// A response from a simulated retailer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Response headers (lowercased names).
    pub headers: BTreeMap<String, String>,
    /// HTML body.
    pub body: String,
}

impl Response {
    /// 200 with an HTML body.
    #[must_use]
    pub fn ok(body: String) -> Self {
        let mut headers = BTreeMap::new();
        headers.insert(
            "content-type".to_owned(),
            "text/html; charset=utf-8".to_owned(),
        );
        Response {
            status: Status::Ok,
            headers,
            body,
        }
    }

    /// 404 with a terse body.
    #[must_use]
    pub fn not_found() -> Self {
        Response {
            status: Status::NotFound,
            headers: BTreeMap::new(),
            body: "<html><body><h1>404 Not Found</h1></body></html>".to_owned(),
        }
    }

    /// 400 with a reason.
    #[must_use]
    pub fn bad_request(reason: &str) -> Self {
        Response {
            status: Status::BadRequest,
            headers: BTreeMap::new(),
            body: format!("<html><body><h1>400</h1><p>{reason}</p></body></html>"),
        }
    }

    /// 503 with a reason (transient; retrying later succeeds).
    #[must_use]
    pub fn service_unavailable(reason: &str) -> Self {
        Response {
            status: Status::ServiceUnavailable,
            headers: BTreeMap::new(),
            body: format!("<html><body><h1>503</h1><p>{reason}</p></body></html>"),
        }
    }

    /// 200 with a JSON body.
    #[must_use]
    pub fn json(body: String) -> Self {
        let mut headers = BTreeMap::new();
        headers.insert("content-type".to_owned(), "application/json".to_owned());
        Response {
            status: Status::Ok,
            headers,
            body,
        }
    }

    /// Reads a header (name matched case-insensitively).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        header_of(&self.headers, name)
    }

    /// Adds/replaces a header (name lowercased).
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers
            .insert(name.to_ascii_lowercase(), value.to_owned());
        self
    }

    /// Replaces the status, keeping headers and body.
    #[must_use]
    pub fn with_status(mut self, status: Status) -> Self {
        self.status = status;
        self
    }

    /// Whether the connection persists after this response (keep-alive
    /// unless the `connection` header carries a `close` token). Clients
    /// use this to decide if the socket is reusable.
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        !wants_close(self.header("connection"))
    }

    /// Serializes the response in HTTP/1.1 wire format
    /// (`content-length` framing recomputed from the body).
    ///
    /// # Errors
    /// Propagates writer failures.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\n",
            self.status.code(),
            self.status.reason()
        )?;
        write_headers(w, &self.headers, self.body.len())?;
        w.write_all(self.body.as_bytes())
    }

    /// [`Response::write_to`] into a fresh buffer.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_to(&mut buf).expect("Vec write is infallible");
        buf
    }

    /// Reads one wire-format response off a buffered stream.
    ///
    /// # Errors
    /// [`HttpError::Eof`] on a closed connection;
    /// [`HttpError::UnknownStatus`] for codes outside the model; other
    /// variants for malformed or oversized messages.
    pub fn read_from<R: BufRead>(reader: &mut R) -> Result<Self, HttpError> {
        let line = read_line(reader)?.ok_or(HttpError::Eof)?;
        let mut parts = line.splitn(3, ' ');
        let (version, code) = match (parts.next(), parts.next()) {
            (Some(v), Some(c)) => (v, c),
            _ => return Err(HttpError::BadStatusLine(line.clone())),
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::BadStatusLine(line.clone()));
        }
        let code: u16 = code
            .parse()
            .map_err(|_| HttpError::BadStatusLine(line.clone()))?;
        let status = Status::from_code(code).ok_or(HttpError::UnknownStatus(code))?;
        let mut headers = read_headers(reader)?;
        let body = read_body(reader, &headers)?;
        headers.remove("content-length");
        Ok(Response {
            status,
            headers,
            body,
        })
    }

    /// Parses a complete wire-format response from a byte slice.
    ///
    /// # Errors
    /// Same as [`Response::read_from`].
    pub fn parse(bytes: &[u8]) -> Result<Self, HttpError> {
        let mut reader = bytes;
        Self::read_from(&mut reader)
    }

    /// Adds a `Set-Cookie` header (single-cookie model: one per response).
    #[must_use]
    pub fn with_set_cookie(mut self, name: &str, value: &str) -> Self {
        self.headers
            .insert("set-cookie".to_owned(), format!("{name}={value}"));
        self
    }

    /// Parses the `Set-Cookie` header, if present.
    #[must_use]
    pub fn set_cookie(&self) -> Option<(&str, &str)> {
        self.header("set-cookie")?.split_once('=')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }

    #[test]
    fn request_headers_case_insensitive() {
        let r = Request::get("shop.example", "/", addr(), SimTime::EPOCH)
            .with_header("User-Agent", "test");
        assert_eq!(r.header("user-agent"), Some("test"));
        assert_eq!(r.header("USER-AGENT"), Some("test"));
        assert_eq!(r.header("missing"), None);
    }

    #[test]
    fn mixed_case_lookups_find_lowercased_names() {
        let req = Request::get("shop.example", "/", addr(), SimTime::EPOCH)
            .with_header("X-Trace-Id", "7")
            .with_cookie("sid", "1");
        let resp = Response::ok(String::new()).with_header("Content-TYPE", "text/html");
        for name in ["x-trace-id", "X-Trace-Id", "X-TRACE-ID", "x-TRACE-id"] {
            assert_eq!(req.header(name), Some("7"), "{name}");
        }
        for name in ["cookie", "Cookie", "COOKIE"] {
            assert_eq!(req.header(name), Some("sid=1"), "{name}");
        }
        for name in ["content-type", "Content-Type", "CONTENT-TYPE"] {
            assert_eq!(resp.header(name), Some("text/html"), "{name}");
        }
        // Non-ASCII case is not folded: the wire lowercases ASCII only.
        assert_eq!(req.header("x-trace-ıd"), None);
        assert_eq!(resp.header("content-typ"), None);
    }

    #[test]
    fn cookies_parse_and_merge() {
        let r = Request::get("shop.example", "/", addr(), SimTime::EPOCH)
            .with_cookie("sid", "123")
            .with_cookie("login", "alice");
        assert_eq!(r.cookie("sid"), Some("123"));
        assert_eq!(r.cookie("login"), Some("alice"));
        assert_eq!(r.cookie("other"), None);
    }

    #[test]
    fn uri_format() {
        let r = Request::get("www.shop.example", "/product/x", addr(), SimTime::EPOCH);
        assert_eq!(r.uri(), "http://www.shop.example/product/x");
    }

    #[test]
    fn response_constructors() {
        let ok = Response::ok("<p>hi</p>".into());
        assert_eq!(ok.status, Status::Ok);
        assert_eq!(ok.status.code(), 200);
        assert!(ok.header("content-type").unwrap().contains("text/html"));
        assert_eq!(Response::not_found().status.code(), 404);
        assert_eq!(Response::bad_request("x").status.code(), 400);
    }

    #[test]
    fn set_cookie_round_trip() {
        let r = Response::ok(String::new()).with_set_cookie("sid", "99");
        assert_eq!(r.set_cookie(), Some(("sid", "99")));
        assert_eq!(Response::ok(String::new()).set_cookie(), None);
    }

    #[test]
    fn request_wire_round_trip_with_query_and_body() {
        let r = Request::post(
            "svc.example",
            "/runs?limit=10&order=desc",
            "{\"scenario\":\"smoke\"}",
            Ipv4Addr::UNSPECIFIED,
            SimTime::EPOCH,
        )
        .with_header("User-Agent", "pd-serve-client")
        .with_cookie("sid", "42");
        let parsed = Request::parse(&r.to_bytes()).expect("round-trip");
        assert_eq!(parsed, r);
        assert_eq!(parsed.query(), Some("limit=10&order=desc"));
        assert_eq!(parsed.query_param("limit"), Some("10"));
        assert_eq!(parsed.query_param("order"), Some("desc"));
        assert_eq!(parsed.query_param("missing"), None);
        assert_eq!(parsed.path_only(), "/runs");
        assert_eq!(parsed.uri(), "http://svc.example/runs?limit=10&order=desc");
    }

    #[test]
    fn request_parse_lowercases_names_and_folds_duplicates() {
        let raw = b"GET /healthz?v=1 HTTP/1.1\r\n\
                    Host: svc.example\r\n\
                    X-Tag: one\r\n\
                    x-TAG: two\r\n\
                    Accept:   text/plain  \r\n\r\n";
        let r = Request::parse(raw).expect("parse");
        assert_eq!(r.method, "GET");
        assert_eq!(r.host, "svc.example");
        assert_eq!(r.path, "/healthz?v=1");
        assert_eq!(r.header("x-tag"), Some("one, two"));
        assert_eq!(r.header("ACCEPT"), Some("text/plain"));
        // host and content-length live in fields, not the map.
        assert_eq!(r.header("host"), None);
        assert_eq!(r.header("content-length"), None);
        assert_eq!(r.body, "");
    }

    #[test]
    fn request_parse_absolute_form_and_bare_lf() {
        let raw = b"GET http://shop.example/a?b=c HTTP/1.1\nhost: ignored.example\n\n";
        let r = Request::parse(raw).expect("parse");
        assert_eq!(r.host, "shop.example");
        assert_eq!(r.path, "/a?b=c");
        let root = Request::parse(b"GET http://shop.example HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(root.path, "/");
        assert_eq!(root.uri(), "http://shop.example/");
    }

    #[test]
    fn empty_path_uri_round_trips_through_wire() {
        let r = Request::get("shop.example", "", Ipv4Addr::UNSPECIFIED, SimTime::EPOCH);
        assert_eq!(r.uri(), "http://shop.example/");
        let parsed = Request::parse(&r.to_bytes()).expect("round-trip");
        assert_eq!(parsed.path, "/");
        assert_eq!(parsed.uri(), r.uri());
    }

    #[test]
    fn request_parse_rejects_garbage() {
        assert_eq!(Request::parse(b""), Err(HttpError::Eof));
        assert!(matches!(
            Request::parse(b"NOT-HTTP\r\n\r\n"),
            Err(HttpError::BadRequestLine(_))
        ));
        assert!(matches!(
            Request::parse(b"GET / SPDY/3\r\n\r\n"),
            Err(HttpError::BadRequestLine(_))
        ));
        assert!(matches!(
            Request::parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::BadHeader(_))
        ));
        assert!(matches!(
            Request::parse(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort"),
            Err(HttpError::BadBody(_))
        ));
    }

    #[test]
    fn keep_alive_follows_connection_semantics() {
        // HTTP/1.1 default: keep-alive.
        let r = Request::parse(b"GET / HTTP/1.1\r\nhost: a\r\n\r\n").expect("parse");
        assert!(r.keep_alive());
        // A `close` token anywhere in the list, any case, closes.
        let r = Request::parse(b"GET / HTTP/1.1\r\nconnection: Keep-Alive, CLOSE\r\n\r\n")
            .expect("parse");
        assert!(!r.keep_alive());
        // ... but a token merely *containing* "close" does not.
        let r = Request::parse(b"GET / HTTP/1.1\r\nconnection: closed\r\n\r\n").expect("parse");
        assert!(r.keep_alive());
        // HTTP/1.0 default: close, recorded as a synthesized header.
        let r = Request::parse(b"GET / HTTP/1.0\r\n\r\n").expect("parse");
        assert!(!r.keep_alive());
        assert_eq!(r.header("connection"), Some("close"));
        // HTTP/1.0 with an explicit keep-alive stays open.
        let r = Request::parse(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n").expect("parse");
        assert!(r.keep_alive());

        assert!(Response::ok(String::new()).keep_alive());
        let closing = Response::ok(String::new()).with_header("Connection", "close");
        assert!(!closing.keep_alive());
        let parsed = Response::parse(&closing.to_bytes()).expect("round-trip");
        assert!(!parsed.keep_alive(), "the decision survives the wire");
    }

    #[test]
    fn response_wire_round_trip() {
        let r = Response::json("{\"id\":\"j-1\"}".to_owned())
            .with_status(Status::ServiceUnavailable)
            .with_header("Retry-After", "1");
        let parsed = Response::parse(&r.to_bytes()).expect("round-trip");
        assert_eq!(parsed, r);
        assert_eq!(parsed.status.code(), 503);
        assert_eq!(parsed.header("retry-after"), Some("1"));
        assert_eq!(parsed.body, "{\"id\":\"j-1\"}");
    }

    #[test]
    fn header_section_is_capped() {
        // Many short, distinct lines and one ever-growing folded header
        // both trip the section cap, while each line stays legal.
        let mut many = b"GET / HTTP/1.1\r\nhost: a\r\n".to_vec();
        for i in 0..10_000 {
            many.extend_from_slice(format!("x-h-{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert_eq!(
            Request::parse(&many).unwrap_err(),
            HttpError::TooLarge("header section")
        );
        let mut folded = b"HTTP/1.1 200 OK\r\n".to_vec();
        for _ in 0..5_000 {
            folded.extend_from_slice(b"x-dup: 0123456789abcdef\r\n");
        }
        folded.extend_from_slice(b"\r\n");
        assert_eq!(
            Response::parse(&folded).unwrap_err(),
            HttpError::TooLarge("header section")
        );
        // A section just under the cap still parses.
        let mut fits = b"GET / HTTP/1.1\r\n".to_vec();
        let filler = "v".repeat(MAX_HEADER_BYTES - 64);
        fits.extend_from_slice(format!("x-big: {filler}\r\n\r\n").as_bytes());
        let request = Request::parse(&fits).expect("fits the cap");
        assert_eq!(request.header("x-big").map(str::len), Some(filler.len()));
    }

    #[test]
    fn response_parse_rejects_unknown_status() {
        assert_eq!(
            Response::parse(b"HTTP/1.1 418 I'm a teapot\r\n\r\n"),
            Err(HttpError::UnknownStatus(418))
        );
        assert!(matches!(
            Response::parse(b"HTTP/1.1 teapot\r\n\r\n"),
            Err(HttpError::BadStatusLine(_))
        ));
    }

    #[test]
    fn status_code_round_trip() {
        for status in [
            Status::Ok,
            Status::BadRequest,
            Status::NotFound,
            Status::ServiceUnavailable,
        ] {
            assert_eq!(Status::from_code(status.code()), Some(status));
            assert!(!status.reason().is_empty());
        }
        assert_eq!(Status::from_code(302), None);
    }
}
