//! The one way this process speaks HTTP/1.1 (DESIGN.md §15):
//! a bounded, GET-only request reader, a response writer, a one-shot
//! [`get`] client, and the scrape [`Server`] on the one [`Listener`].
//!
//! Hand-rolled on blocking `std::net`: scrapes are rare and small, so one
//! connection at a time with a short head deadline and `Connection: close`
//! is robust and dependency-free. No request carries a body. (Spans
//! never arrive over HTTP: they come as `tw_capture::wire` frames.)

use crate::listen::Listener;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Request heads larger than this are dropped unanswered.
const MAX_HEAD: usize = 64 * 1024;
/// Server-side deadline for a whole request head, and the socket write
/// timeout.
const SERVER_TIMEOUT: Duration = Duration::from_secs(2);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Everything after the first `?` (empty when absent).
    pub query: String,
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

/// Read one request head, up to [`MAX_HEAD`] bytes and all of it within
/// one [`SERVER_TIMEOUT`]: each read waits only for the time left, so a
/// client trickling bytes cannot hold the one-at-a-time accept loop
/// longer than that. A request that declares a `Content-Length` above 0
/// is answered `413` before anything more is read.
fn read_request(stream: &mut TcpStream) -> std::io::Result<Request> {
    let deadline = Instant::now() + SERVER_TIMEOUT;
    let mut data = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    let head_end = loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
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
                .then(|| v.trim().parse::<u64>().ok())?
        })
        .unwrap_or(0);
    if content_length > 0 {
        respond(
            stream,
            &Response::text("413 Payload Too Large", "request bodies are not accepted\n"),
        )?;
        return Err(invalid("request declares a body"));
    }
    Ok(Request {
        method,
        path: path.to_string(),
        query: query.to_string(),
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

/// `GET path` from `addr`; returns the status code and the body. `timeout`
/// bounds the connect and each socket read/write.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let message = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
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

/// The scrape server: a [`Listener`] answering one connection at a time,
/// inline on its accept thread, through a handler. Dropping it stops the
/// listener, which answers every connection made before the stop.
pub struct Server {
    listener: Listener,
}

impl Server {
    /// Bind (`"127.0.0.1:0"` picks a free port) and serve. Requests
    /// declaring a body are answered `413` without reaching `handler`.
    pub fn bind(
        addr: &str,
        mut handler: impl FnMut(Request) -> Response + Send + 'static,
    ) -> std::io::Result<Server> {
        let listener = Listener::bind(addr, "tw-http", move |mut stream| {
            let _ = stream.set_write_timeout(Some(SERVER_TIMEOUT));
            if let Ok(request) = read_request(&mut stream) {
                let _ = respond(&mut stream, &handler(request));
            }
        })?;
        Ok(Server { listener })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn server_round_trips_path_and_query() {
        let server = Server::bind("127.0.0.1:0", |req| {
            Response::text(
                "200 OK",
                &format!("{} {} {}", req.method, req.path, req.query),
            )
        })
        .unwrap();
        let timeout = Duration::from_secs(5);
        let (status, body) = get(server.local_addr(), "/a?b=1&c", timeout).unwrap();
        assert_eq!((status, body.as_str()), (200, "GET /a b=1&c"));
        let (status, body) = get(server.local_addr(), "/x", timeout).unwrap();
        assert_eq!((status, body.as_str()), (200, "GET /x "));
    }

    /// A server whose handler counts its calls and, like `MetricsServer`,
    /// answers `405` to anything but `GET`.
    fn counting_server() -> (Server, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let server = Server::bind("127.0.0.1:0", move |req| {
            seen.fetch_add(1, Ordering::SeqCst);
            match req.method.as_str() {
                "GET" => Response::text("200 OK", "ok"),
                _ => Response::text("405 Method Not Allowed", "GET only\n"),
            }
        })
        .unwrap();
        (server, calls)
    }

    /// Send `bytes`, half-close the write side so the server sees EOF
    /// rather than waiting out its deadline, and return what came back.
    /// A server that drops the connection with bytes unread resets it,
    /// so write and read errors count as "nothing came back".
    fn exchange(addr: SocketAddr, bytes: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = stream.write_all(bytes);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut answer = Vec::new();
        let _ = stream.read_to_end(&mut answer);
        String::from_utf8_lossy(&answer).into_owned()
    }

    /// The accept loop outlived the previous connection.
    fn still_serves(server: &Server) {
        let (status, body) = get(server.local_addr(), "/", Duration::from_secs(5)).unwrap();
        assert_eq!((status, body.as_str()), (200, "ok"));
    }

    /// Every connection made before the server stops is answered: the one
    /// accept loop drains its backlog on the way out. The handler holds the
    /// accept thread while four requests queue behind it and the stop
    /// begins.
    #[test]
    fn connections_queued_before_the_stop_are_answered() {
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        let server = Server::bind("127.0.0.1:0", move |req| {
            if req.path == "/hold" {
                entered_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            }
            Response::text("200 OK", &req.path)
        })
        .unwrap();
        let (addr, timeout) = (server.local_addr(), Duration::from_secs(5));
        let hold = std::thread::spawn(move || get(addr, "/hold", timeout));
        entered.recv().unwrap();
        let queued: Vec<TcpStream> = (0..4)
            .map(|i| {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.set_read_timeout(Some(timeout)).unwrap();
                write!(stream, "GET /q{i} HTTP/1.1\r\n\r\n").unwrap();
                stream
            })
            .collect();
        // Give the stop time to set its flag before the handler returns, so
        // the queued requests meet the drain (they must be answered anyway).
        let stop = std::thread::spawn(move || drop(server));
        std::thread::sleep(Duration::from_millis(50));
        release.send(()).unwrap();
        stop.join().unwrap();
        assert_eq!(hold.join().unwrap().unwrap(), (200, "/hold".to_string()));
        for (i, mut stream) in queued.into_iter().enumerate() {
            let mut answer = String::new();
            stream.read_to_string(&mut answer).unwrap();
            assert!(answer.starts_with("HTTP/1.1 200 "), "{answer:?}");
            assert!(answer.ends_with(&format!("\r\n\r\n/q{i}")), "{answer:?}");
        }
    }

    #[test]
    fn a_declared_body_is_refused_before_the_handler() {
        let (server, calls) = counting_server();
        let head = b"POST /metrics HTTP/1.1\r\nContent-Length: 5\r\n\r\n";
        let answer = exchange(server.local_addr(), head);
        assert!(answer.starts_with("HTTP/1.1 413 "), "{answer:?}");
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        still_serves(&server);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn an_oversized_head_is_dropped_unanswered() {
        let (server, calls) = counting_server();
        // A complete head, but its end lies past the cap.
        let mut head = b"GET /".to_vec();
        head.resize(MAX_HEAD + 2048, b'a');
        head.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert_eq!(exchange(server.local_addr(), &head), "");
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        still_serves(&server);
    }

    #[test]
    fn garbage_heads_are_survived() {
        let (server, calls) = counting_server();
        // No blank line before EOF: nothing reaches the handler.
        let cut = b"GET / HTTP/1.1\r\nHost: x\r\n";
        assert_eq!(exchange(server.local_addr(), cut), "");
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        still_serves(&server);
        // A complete head that is not a request line, and an empty one:
        // the handler sees a method that is not `GET`.
        let junk: &[u8] = &[
            0xff, 0x00, 0xfe, b' ', 0x80, b'?', 0xc3, b'\r', b'\n', b'\r', b'\n',
        ];
        for head in [junk, b"\r\n\r\n"] {
            let answer = exchange(server.local_addr(), head);
            assert!(answer.starts_with("HTTP/1.1 405 "), "{answer:?}");
            still_serves(&server);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 5);
    }
}
