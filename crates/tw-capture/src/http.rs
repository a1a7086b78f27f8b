//! HTTP/1.1 parsing substrate (paper §5.1.2 "Parsing and mapping
//! requests/responses").
//!
//! A real eBPF capture layer sees raw socket bytes, not spans: it must
//! parse HTTP (or gRPC) framing to find request/response boundaries, pair
//! each response with its request on the same connection, and extract the
//! API endpoint from the request line. This module implements that layer
//! for HTTP/1.1:
//!
//! * [`HttpParser`] — an incremental parser for one direction of one
//!   connection: splits a byte stream into messages (request-line /
//!   status-line, headers, `Content-Length` or chunked bodies),
//! * [`ExchangeAssembler`] — pairs the k-th request with the k-th
//!   response per connection (HTTP/1.1 responses are ordered) and stamps
//!   first-byte timestamps,
//! * [`render_http_segments`] / [`segments_to_records`] — the loop
//!   closers used in tests and benchmarks: render simulator RPCs into
//!   synthetic wire traffic at both observation points, then parse the
//!   traffic back into [`RpcRecord`]s. Reconstruction accuracy on the
//!   re-parsed records must match the original.
//!
//! Supported framing: headerless bodies, `Content-Length`, and chunked
//! transfer encoding. Anything else is a parse error (the capture layer
//! must fail loudly, not fabricate spans).

use std::collections::HashMap;
use tw_model::ids::{Endpoint, OperationId, RpcId, ServiceId};
use tw_model::span::{ProcessKey, RpcRecord, EXTERNAL};
use tw_model::time::Nanos;

/// Direction of bytes on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → server (requests).
    C2S,
    /// Server → client (responses).
    S2C,
}

/// A captured chunk of bytes at one observation point.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Connection identity (stands in for the 5-tuple).
    pub conn: u64,
    /// Where the bytes were observed (the capturing host's process).
    pub observer: ProcessKey,
    pub at: Nanos,
    pub dir: Direction,
    pub bytes: Vec<u8>,
}

/// One parsed HTTP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpMessage {
    /// Request: `GET /path`; response: status code as string.
    pub start_line: String,
    pub headers: Vec<(String, String)>,
    pub body_len: usize,
    /// Timestamp of the message's first byte.
    pub first_byte: Nanos,
    /// Timestamp of the message's last byte.
    pub last_byte: Nanos,
}

impl HttpMessage {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// For a request: the path of the request line.
    pub fn path(&self) -> Option<&str> {
        self.start_line.split_whitespace().nth(1)
    }

    /// For a response: the status code.
    pub fn status(&self) -> Option<u16> {
        self.start_line.split_whitespace().nth(1)?.parse().ok()
    }

    fn is_request(&self) -> bool {
        !self.start_line.starts_with("HTTP/")
    }
}

/// Parse error with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "http parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(message: impl Into<String>) -> ParseError {
    ParseError {
        message: message.into(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum BodyFraming {
    None,
    ContentLength(usize),
    Chunked,
}

#[derive(Debug, Default)]
enum ParseState {
    /// Accumulating header bytes until CRLFCRLF.
    #[default]
    Headers,
    /// Consuming a fixed-length body.
    Body { remaining: usize },
    /// Consuming chunked body: reading a chunk-size line.
    ChunkSize,
    /// Consuming chunk payload (+2 for trailing CRLF).
    ChunkData { remaining: usize },
    /// Final CRLF after the zero chunk.
    ChunkTrailer,
}

/// Incremental HTTP/1.1 message parser for one direction of one
/// connection. Feed byte chunks with timestamps; pull complete messages.
#[derive(Debug, Default)]
pub struct HttpParser {
    buf: Vec<u8>,
    state: ParseState,
    current: Option<HttpMessage>,
    ready: Vec<HttpMessage>,
    first_byte_at: Option<Nanos>,
    last_byte_at: Nanos,
}

impl HttpParser {
    pub fn new() -> Self {
        HttpParser::default()
    }

    /// Feed one captured chunk.
    pub fn feed(&mut self, at: Nanos, bytes: &[u8]) -> Result<(), ParseError> {
        if bytes.is_empty() {
            return Ok(());
        }
        if self.first_byte_at.is_none() {
            self.first_byte_at = Some(at);
        }
        self.last_byte_at = at;
        self.buf.extend_from_slice(bytes);
        self.advance()
    }

    /// Pop the next fully parsed message.
    pub fn next_message(&mut self) -> Option<HttpMessage> {
        if self.ready.is_empty() {
            None
        } else {
            Some(self.ready.remove(0))
        }
    }

    /// Bytes buffered but not yet forming a complete message.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    fn advance(&mut self) -> Result<(), ParseError> {
        loop {
            match self.state {
                ParseState::Headers => {
                    let Some(end) = find_crlfcrlf(&self.buf) else {
                        return Ok(());
                    };
                    let head: Vec<u8> = self.buf.drain(..end + 4).collect();
                    let text =
                        std::str::from_utf8(&head[..end]).map_err(|_| err("non-utf8 headers"))?;
                    let mut lines = text.split("\r\n");
                    let start_line = lines.next().ok_or_else(|| err("empty message"))?;
                    if start_line.trim().is_empty() {
                        return Err(err("empty start line"));
                    }
                    let mut headers = Vec::new();
                    for line in lines {
                        let (name, value) = line
                            .split_once(':')
                            .ok_or_else(|| err(format!("malformed header line `{line}`")))?;
                        headers.push((name.trim().to_string(), value.trim().to_string()));
                    }
                    let msg = HttpMessage {
                        start_line: start_line.to_string(),
                        headers,
                        body_len: 0,
                        first_byte: self.first_byte_at.unwrap_or(self.last_byte_at),
                        last_byte: self.last_byte_at,
                    };
                    let framing = body_framing(&msg)?;
                    self.current = Some(msg);
                    self.state = match framing {
                        BodyFraming::None => {
                            self.finish_message();
                            ParseState::Headers
                        }
                        BodyFraming::ContentLength(0) => {
                            self.finish_message();
                            ParseState::Headers
                        }
                        BodyFraming::ContentLength(n) => ParseState::Body { remaining: n },
                        BodyFraming::Chunked => ParseState::ChunkSize,
                    };
                }
                ParseState::Body { remaining } => {
                    let take = remaining.min(self.buf.len());
                    self.buf.drain(..take);
                    if let Some(m) = self.current.as_mut() {
                        m.body_len += take;
                    }
                    if take == remaining {
                        self.finish_message();
                        self.state = ParseState::Headers;
                    } else {
                        self.state = ParseState::Body {
                            remaining: remaining - take,
                        };
                        return Ok(());
                    }
                }
                ParseState::ChunkSize => {
                    let Some(eol) = find_crlf(&self.buf) else {
                        return Ok(());
                    };
                    let line: Vec<u8> = self.buf.drain(..eol + 2).collect();
                    let text = std::str::from_utf8(&line[..eol])
                        .map_err(|_| err("non-utf8 chunk size"))?;
                    let size = usize::from_str_radix(text.trim(), 16)
                        .map_err(|_| err(format!("bad chunk size `{text}`")))?;
                    self.state = if size == 0 {
                        ParseState::ChunkTrailer
                    } else {
                        ParseState::ChunkData {
                            remaining: size + 2, // payload + CRLF
                        }
                    };
                }
                ParseState::ChunkData { remaining } => {
                    let take = remaining.min(self.buf.len());
                    self.buf.drain(..take);
                    if let Some(m) = self.current.as_mut() {
                        m.body_len += take.saturating_sub(2).min(take);
                    }
                    if take == remaining {
                        self.state = ParseState::ChunkSize;
                    } else {
                        self.state = ParseState::ChunkData {
                            remaining: remaining - take,
                        };
                        return Ok(());
                    }
                }
                ParseState::ChunkTrailer => {
                    let Some(eol) = find_crlf(&self.buf) else {
                        return Ok(());
                    };
                    self.buf.drain(..eol + 2);
                    self.finish_message();
                    self.state = ParseState::Headers;
                }
            }
        }
    }

    fn finish_message(&mut self) {
        if let Some(mut m) = self.current.take() {
            m.last_byte = self.last_byte_at;
            self.ready.push(m);
        }
        self.first_byte_at = None;
    }
}

fn body_framing(msg: &HttpMessage) -> Result<BodyFraming, ParseError> {
    if let Some(te) = msg.header("transfer-encoding") {
        if te.eq_ignore_ascii_case("chunked") {
            return Ok(BodyFraming::Chunked);
        }
        return Err(err(format!("unsupported transfer-encoding `{te}`")));
    }
    if let Some(cl) = msg.header("content-length") {
        let n = cl
            .parse::<usize>()
            .map_err(|_| err(format!("bad content-length `{cl}`")))?;
        return Ok(BodyFraming::ContentLength(n));
    }
    Ok(BodyFraming::None)
}

fn find_crlfcrlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

/// One request-response exchange observed on a connection at one point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exchange {
    pub conn: u64,
    pub observer: ProcessKey,
    pub request: HttpMessage,
    pub response: HttpMessage,
}

/// Pairs requests and responses per (connection, observer) — HTTP/1.1
/// guarantees responses come back in request order on a connection.
#[derive(Debug, Default)]
pub struct ExchangeAssembler {
    parsers: HashMap<(u64, ProcessKey, Direction), HttpParser>,
    pending_requests: HashMap<(u64, ProcessKey), Vec<HttpMessage>>,
    pending_responses: HashMap<(u64, ProcessKey), Vec<HttpMessage>>,
    ready: Vec<Exchange>,
}

impl ExchangeAssembler {
    pub fn new() -> Self {
        ExchangeAssembler::default()
    }

    /// Feed one captured segment. Segments of one (conn, observer,
    /// direction) must arrive in byte order.
    pub fn feed(&mut self, seg: &Segment) -> Result<(), ParseError> {
        let key = (seg.conn, seg.observer, seg.dir);
        let parser = self.parsers.entry(key).or_default();
        parser.feed(seg.at, &seg.bytes)?;
        let mut messages = Vec::new();
        while let Some(msg) = parser.next_message() {
            messages.push(msg);
        }
        let pair_key = (seg.conn, seg.observer);
        for msg in messages {
            if msg.is_request() {
                self.pending_requests.entry(pair_key).or_default().push(msg);
            } else {
                self.pending_responses
                    .entry(pair_key)
                    .or_default()
                    .push(msg);
            }
            self.try_pair(pair_key);
        }
        Ok(())
    }

    fn try_pair(&mut self, key: (u64, ProcessKey)) {
        let reqs = self.pending_requests.entry(key).or_default();
        let resps = self.pending_responses.entry(key).or_default();
        while !reqs.is_empty() && !resps.is_empty() {
            let request = reqs.remove(0);
            let response = resps.remove(0);
            self.ready.push(Exchange {
                conn: key.0,
                observer: key.1,
                request,
                response,
            });
        }
    }

    pub fn next_exchange(&mut self) -> Option<Exchange> {
        if self.ready.is_empty() {
            None
        } else {
            Some(self.ready.remove(0))
        }
    }
}

// ---------------------------------------------------------------------
// Loop closers: RpcRecords → synthetic HTTP traffic → RpcRecords.
// ---------------------------------------------------------------------

fn path_of(e: Endpoint) -> String {
    format!("/svc/{}/op/{}", e.service.0, e.op.0)
}

fn endpoint_of(path: &str) -> Option<Endpoint> {
    let mut parts = path.split('/').filter(|p| !p.is_empty());
    let (svc, op) = match (parts.next()?, parts.next()?, parts.next()?, parts.next()?) {
        ("svc", s, "op", o) => (s.parse().ok()?, o.parse().ok()?),
        _ => return None,
    };
    Some(Endpoint::new(ServiceId(svc), OperationId(op)))
}

/// Render records into synthetic HTTP/1.1 wire segments, one connection
/// per RPC (the common no-keep-alive RPC pattern), observed at both the
/// caller's and the callee's host. External clients are unobserved on
/// their side, matching reality (we don't run agents on user devices).
pub fn render_http_segments(records: &[RpcRecord]) -> Vec<Segment> {
    let mut segments = Vec::new();
    for rec in records {
        let body = format!("{{\"rpc\":{}}}", rec.rpc.0);
        let request = format!(
            "POST {} HTTP/1.1\r\nHost: svc-{}\r\nContent-Length: {}\r\n\r\n{}",
            path_of(rec.callee),
            rec.callee.service.0,
            body.len(),
            body
        )
        .into_bytes();
        let response = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .into_bytes();
        let conn = rec.rpc.0;

        if rec.caller != EXTERNAL {
            let caller = rec.caller_process();
            segments.push(Segment {
                conn,
                observer: caller,
                at: rec.send_req,
                dir: Direction::C2S,
                bytes: request.clone(),
            });
            segments.push(Segment {
                conn,
                observer: caller,
                at: rec.recv_resp,
                dir: Direction::S2C,
                bytes: response.clone(),
            });
        }
        let callee = rec.callee_process();
        segments.push(Segment {
            conn,
            observer: callee,
            at: rec.recv_req,
            dir: Direction::C2S,
            bytes: request,
        });
        segments.push(Segment {
            conn,
            observer: callee,
            at: rec.send_resp,
            dir: Direction::S2C,
            bytes: response,
        });
    }
    segments.sort_by_key(|s| s.at);
    segments
}

/// Parse captured segments back into [`RpcRecord`]s by merging the two
/// observation points of each connection. Connections observed only at
/// the callee (external clients) use callee-side timestamps for the
/// missing caller side. Thread ids are unrecoverable from wire bytes and
/// stay `None`.
pub fn segments_to_records(segments: &[Segment]) -> Result<Vec<RpcRecord>, ParseError> {
    let mut assembler = ExchangeAssembler::new();
    for seg in segments {
        assembler.feed(seg)?;
    }
    // Group exchanges per connection.
    let mut by_conn: HashMap<u64, Vec<Exchange>> = HashMap::new();
    while let Some(ex) = assembler.next_exchange() {
        by_conn.entry(ex.conn).or_default().push(ex);
    }

    let mut records = Vec::new();
    for (conn, exchanges) in by_conn {
        let endpoint = exchanges
            .first()
            .and_then(|e| e.request.path().and_then(endpoint_of))
            .ok_or_else(|| err(format!("conn {conn}: unparseable endpoint path")))?;
        // The callee-side observation is the one whose observer matches
        // the request path's service.
        let callee_obs = exchanges
            .iter()
            .find(|e| e.observer.service == endpoint.service)
            .ok_or_else(|| err(format!("conn {conn}: no callee-side observation")))?;
        let caller_obs = exchanges
            .iter()
            .find(|e| e.observer.service != endpoint.service);

        let (send_req, recv_resp, caller, caller_replica) = match caller_obs {
            Some(ex) => (
                ex.request.first_byte,
                ex.response.last_byte,
                ex.observer.service,
                ex.observer.replica,
            ),
            None => (
                callee_obs.request.first_byte,
                callee_obs.response.last_byte,
                EXTERNAL,
                0,
            ),
        };
        records.push(RpcRecord {
            rpc: RpcId(conn),
            caller,
            caller_replica,
            callee: endpoint,
            callee_replica: callee_obs.observer.replica,
            send_req,
            recv_req: callee_obs.request.first_byte,
            send_resp: callee_obs.response.first_byte,
            recv_resp,
            caller_thread: None,
            callee_thread: None,
        });
    }
    records.sort_by_key(|r| r.rpc);
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pk(svc: u32) -> ProcessKey {
        ProcessKey::new(ServiceId(svc), 0)
    }

    #[test]
    fn parses_simple_request() {
        let mut p = HttpParser::new();
        p.feed(Nanos(100), b"GET /svc/1/op/2 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let m = p.next_message().unwrap();
        assert_eq!(m.path(), Some("/svc/1/op/2"));
        assert!(m.is_request());
        assert_eq!(m.header("host"), Some("x"));
        assert_eq!(m.body_len, 0);
        assert_eq!(m.first_byte, Nanos(100));
    }

    #[test]
    fn parses_content_length_body_across_chunks() {
        let mut p = HttpParser::new();
        p.feed(
            Nanos(1),
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345",
        )
        .unwrap();
        assert!(p.next_message().is_none(), "body incomplete");
        p.feed(Nanos(5), b"67890").unwrap();
        let m = p.next_message().unwrap();
        assert_eq!(m.body_len, 10);
        assert_eq!(m.first_byte, Nanos(1));
        assert_eq!(m.last_byte, Nanos(5));
    }

    #[test]
    fn parses_chunked_body() {
        let mut p = HttpParser::new();
        p.feed(
            Nanos(1),
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nwiki\r\n5\r\npedia\r\n0\r\n\r\n",
        )
        .unwrap();
        let m = p.next_message().unwrap();
        assert_eq!(m.status(), Some(200));
        assert_eq!(m.body_len, 9);
    }

    #[test]
    fn pipelined_messages_split_correctly() {
        let mut p = HttpParser::new();
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        p.feed(Nanos(1), two).unwrap();
        assert_eq!(p.next_message().unwrap().path(), Some("/a"));
        assert_eq!(p.next_message().unwrap().path(), Some("/b"));
        assert!(p.next_message().is_none());
        assert_eq!(p.pending_bytes(), 0);
    }

    #[test]
    fn byte_at_a_time_parsing() {
        let mut p = HttpParser::new();
        let msg = b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
        for (i, b) in msg.iter().enumerate() {
            p.feed(Nanos(i as u64), &[*b]).unwrap();
        }
        let m = p.next_message().unwrap();
        assert_eq!(m.body_len, 3);
        assert_eq!(m.first_byte, Nanos(0));
        assert_eq!(m.last_byte, Nanos(msg.len() as u64 - 1));
    }

    #[test]
    fn malformed_header_is_error() {
        let mut p = HttpParser::new();
        assert!(p
            .feed(Nanos(1), b"GET / HTTP/1.1\r\nbroken header line\r\n\r\n")
            .is_err());
    }

    #[test]
    fn unsupported_transfer_encoding_rejected() {
        let mut p = HttpParser::new();
        assert!(p
            .feed(
                Nanos(1),
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n"
            )
            .is_err());
    }

    #[test]
    fn assembler_pairs_in_order() {
        let mut a = ExchangeAssembler::new();
        let seg = |at: u64, dir, bytes: &[u8]| Segment {
            conn: 7,
            observer: pk(1),
            at: Nanos(at),
            dir,
            bytes: bytes.to_vec(),
        };
        a.feed(&seg(1, Direction::C2S, b"GET /svc/1/op/0 HTTP/1.1\r\n\r\n"))
            .unwrap();
        a.feed(&seg(2, Direction::C2S, b"GET /svc/1/op/1 HTTP/1.1\r\n\r\n"))
            .unwrap();
        a.feed(&seg(5, Direction::S2C, b"HTTP/1.1 200 OK\r\n\r\n"))
            .unwrap();
        a.feed(&seg(9, Direction::S2C, b"HTTP/1.1 500 ERR\r\n\r\n"))
            .unwrap();
        let first = a.next_exchange().unwrap();
        assert_eq!(first.request.path(), Some("/svc/1/op/0"));
        assert_eq!(first.response.status(), Some(200));
        let second = a.next_exchange().unwrap();
        assert_eq!(second.request.path(), Some("/svc/1/op/1"));
        assert_eq!(second.response.status(), Some(500));
        assert!(a.pending_requests.values().all(Vec::is_empty));
    }

    #[test]
    fn endpoint_path_round_trip() {
        let e = Endpoint::new(ServiceId(3), OperationId(9));
        assert_eq!(endpoint_of(&path_of(e)), Some(e));
        assert_eq!(endpoint_of("/nonsense"), None);
    }

    #[test]
    fn records_round_trip_through_http() {
        // Internal RPC (both sides observed) + external root (callee only).
        let internal = RpcRecord {
            rpc: RpcId(1),
            caller: ServiceId(0),
            caller_replica: 2,
            callee: Endpoint::new(ServiceId(1), OperationId(4)),
            callee_replica: 1,
            send_req: Nanos::from_micros(100),
            recv_req: Nanos::from_micros(150),
            send_resp: Nanos::from_micros(900),
            recv_resp: Nanos::from_micros(950),
            caller_thread: Some(3),
            callee_thread: Some(4),
        };
        let external = RpcRecord {
            rpc: RpcId(2),
            caller: EXTERNAL,
            caller_replica: 0,
            callee: Endpoint::new(ServiceId(0), OperationId(0)),
            callee_replica: 2,
            send_req: Nanos::from_micros(50),
            recv_req: Nanos::from_micros(80),
            send_resp: Nanos::from_micros(1_000),
            recv_resp: Nanos::from_micros(1_030),
            caller_thread: None,
            callee_thread: Some(0),
        };
        let segments = render_http_segments(&[internal, external]);
        let parsed = segments_to_records(&segments).unwrap();
        assert_eq!(parsed.len(), 2);

        let p1 = parsed.iter().find(|r| r.rpc == RpcId(1)).unwrap();
        assert_eq!(p1.caller, internal.caller);
        assert_eq!(p1.caller_replica, internal.caller_replica);
        assert_eq!(p1.callee, internal.callee);
        assert_eq!(p1.send_req, internal.send_req);
        assert_eq!(p1.recv_req, internal.recv_req);
        assert_eq!(p1.send_resp, internal.send_resp);
        assert_eq!(p1.recv_resp, internal.recv_resp);
        assert_eq!(p1.caller_thread, None, "thread ids don't survive the wire");

        let p2 = parsed.iter().find(|r| r.rpc == RpcId(2)).unwrap();
        assert_eq!(p2.caller, EXTERNAL);
        // External roots: caller-side timestamps fall back to callee side.
        assert_eq!(p2.send_req, external.recv_req);
        assert_eq!(p2.recv_resp, external.send_resp);
    }
}
