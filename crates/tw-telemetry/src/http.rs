//! The one way this process speaks HTTP/1.1 (DESIGN.md "HTTP surface"):
//! a bounded request reader, a response writer, a one-shot client, an
//! accept-loop [`Server`] handle, and the jittered retry [`backoff`].
//!
//! Hand-rolled on blocking `std::net`: scrapes and pushes are rare and
//! small, so one connection at a time with short socket timeouts and
//! `Connection: close` is robust and dependency-free. (Parsing *captured*
//! application traffic is a different job and lives in `tw-capture`.)

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Request heads larger than this are dropped unanswered.
const MAX_HEAD: usize = 64 * 1024;
/// Server-side socket read/write timeout per connection.
const SERVER_TIMEOUT: Duration = Duration::from_secs(2);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Everything after the first `?` (empty when absent).
    pub query: String,
    pub body: String,
}

/// What a [`Server`] handler answers with.
#[derive(Debug)]
pub struct Response {
    /// Status code and reason, e.g. `"200 OK"`.
    pub status: &'static str,
    pub content_type: &'static str,
    pub body: String,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: &'static str, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.to_string(),
        }
    }
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Read one request: the head up to [`MAX_HEAD`], then a body of exactly
/// `Content-Length` bytes. A declared length over `max_body` is answered
/// `413` before any of the body is read or allocated.
fn read_request(stream: &mut TcpStream, max_body: usize) -> std::io::Result<Request> {
    let mut data = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    let head_end = loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        data.extend_from_slice(&buf[..n]);
        if let Some(pos) = data.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if data.len() > MAX_HEAD {
            return Err(invalid("request head too large"));
        }
    };
    let head = String::from_utf8_lossy(&data[..head_end]).into_owned();
    let mut lines = head.lines();
    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("");
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let content_length = lines
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    if content_length > max_body {
        respond(
            stream,
            &Response::text("413 Payload Too Large", "body too large\n"),
        )?;
        return Err(invalid("request body too large"));
    }
    let mut body = data.split_off(head_end);
    body.truncate(content_length);
    let have = body.len();
    body.resize(content_length, 0);
    stream.read_exact(&mut body[have..])?;
    Ok(Request {
        method,
        path: path.to_string(),
        query: query.to_string(),
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

fn respond(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let Response {
        status,
        content_type,
        body,
    } = response;
    let message = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

/// One request to `addr`; returns the status code and the body. `timeout`
/// bounds the connect and each socket read/write. A non-empty `body` is
/// sent as `application/json`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut message = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    if !body.is_empty() {
        message.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    message.push_str("\r\n");
    message.push_str(body);
    stream.write_all(message.as_bytes())?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| invalid("malformed HTTP response"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| invalid("malformed HTTP status line"))?;
    Ok((status, body.to_string()))
}

/// A running accept loop answering one connection at a time through a
/// handler. Owns the listener lifecycle: dropping it sets the stop flag,
/// wakes the blocking accept with a connect, and joins the thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind (`"127.0.0.1:0"` picks a free port) and serve. Requests
    /// declaring a body over `max_body` bytes are answered `413` without
    /// reaching `handler`.
    pub fn bind(
        addr: &str,
        max_body: usize,
        mut handler: impl FnMut(Request) -> Response + Send + 'static,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("tw-http".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = conn else { break };
                    let _ = stream.set_read_timeout(Some(SERVER_TIMEOUT));
                    let _ = stream.set_write_timeout(Some(SERVER_TIMEOUT));
                    if let Ok(request) = read_request(&mut stream, max_body) {
                        let _ = respond(&mut stream, &handler(request));
                    }
                }
            })?;
        Ok(Server {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // wake the accept loop
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

/// Backoff before retry `attempt + 1` (1-based `attempt`): `base · 2ⁿ⁻¹`
/// capped at `max`, plus up to +25 % jitter from splitmix64 over
/// (attempt, port) — no RNG state, so schedules are reproducible run to
/// run yet desynchronized across clients of different servers.
pub fn backoff(base: Duration, max: Duration, attempt: u32, port: u16) -> Duration {
    let exp = attempt.saturating_sub(1).min(20);
    let nominal = base.saturating_mul(1u32 << exp).min(max);
    let mut z = ((u64::from(attempt) << 32) | u64::from(port)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    nominal + nominal.mul_f64((z % 256) as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let (base, max) = (Duration::from_millis(20), Duration::from_secs(1));
        assert_eq!(backoff(base, max, 1, 9200), backoff(base, max, 1, 9200));
        for n in 1..=40 {
            // nominal <= max, jitter adds at most 25%.
            assert!(backoff(base, max, n, 9200) <= max.mul_f64(1.25));
        }
    }

    #[test]
    fn server_round_trips_query_and_body() {
        let server = Server::bind("127.0.0.1:0", 16, |req| {
            Response::text(
                "200 OK",
                &format!("{} {} {} {}", req.method, req.path, req.query, req.body),
            )
        })
        .unwrap();
        let timeout = Duration::from_secs(5);
        let (status, body) = request(
            server.local_addr(),
            "POST",
            "/a?b=1&c",
            "{\"k\":1}",
            timeout,
        )
        .unwrap();
        assert_eq!((status, body.as_str()), (200, "POST /a b=1&c {\"k\":1}"));
        let (status, body) = request(server.local_addr(), "GET", "/x", "", timeout).unwrap();
        assert_eq!((status, body.as_str()), (200, "GET /x  "));
    }
}
