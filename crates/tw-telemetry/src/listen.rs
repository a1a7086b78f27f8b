//! The one TCP accept loop (DESIGN.md §15): the scrape endpoint
//! ([`crate::http::Server`]) and span ingestion (`tw_pipeline`'s
//! `IngestServer`) each hand it a per-connection callback.
//!
//! Stopping drains: every connection made before [`Listener::stop`] is
//! handed to the callback, so a server that serves each one to EOF loses
//! no client that connected in time. The connection `stop` makes to wake
//! the blocking accept is not a client: the callback never sees it.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A bound listener whose named accept thread runs a callback on each
/// connection, in accept order. Dropping it stops it.
pub struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// The wake-up connection's local address. [`Listener::stop`] holds
    /// this lock from before it sets the stop flag until it has stored the
    /// address, so the accept thread never compares a peer too early.
    waker: Arc<Mutex<Option<SocketAddr>>>,
    thread: Option<JoinHandle<()>>,
}

impl Listener {
    /// Bind `addr` (`"127.0.0.1:0"` picks a free port) and run `on_conn`
    /// on the thread `name` for every connection until [`Listener::stop`].
    pub fn bind(
        addr: &str,
        name: &str,
        mut on_conn: impl FnMut(TcpStream) + Send + 'static,
    ) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let waker: Arc<Mutex<Option<SocketAddr>>> = Arc::default();
        let (stopping, wake_addr) = (stop.clone(), waker.clone());
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                // The wake-up connection is made after the stop flag is
                // set, so only a connection seen with the flag set can be it.
                let mut serve = |stream: TcpStream, peer: SocketAddr| {
                    let wake = stopping.load(Ordering::SeqCst)
                        && *wake_addr.lock().unwrap_or_else(PoisonError::into_inner) == Some(peer);
                    if !wake {
                        let _ = stream.set_nonblocking(false);
                        on_conn(stream);
                    }
                };
                while let Ok((stream, peer)) = listener.accept() {
                    serve(stream, peer);
                    if stopping.load(Ordering::SeqCst) {
                        // Drain the backlog: connections queued behind this
                        // one were made before the stop.
                        let _ = listener.set_nonblocking(true);
                        while let Ok((stream, peer)) = listener.accept() {
                            serve(stream, peer);
                        }
                        break;
                    }
                }
            })?;
        Ok(Listener {
            addr,
            stop,
            waker,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting: set the stop flag, wake the blocking accept with a
    /// connection of its own, and join the accept thread once it has
    /// handed every queued client connection to the callback. Idempotent.
    pub fn stop(&mut self) {
        if let Some(thread) = self.thread.take() {
            let mut waker = self.waker.lock().unwrap_or_else(PoisonError::into_inner);
            self.stop.store(true, Ordering::SeqCst);
            // Held open until the join, so no client can reuse its address.
            let wake = TcpStream::connect(self.addr);
            *waker = wake.as_ref().ok().and_then(|s| s.local_addr().ok());
            drop(waker);
            let _ = thread.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::mpsc;

    /// `stop`'s wake-up connection is not a client: a listener no client
    /// reached runs its callback 0 times, and one that a client reached
    /// serves that client once.
    #[test]
    fn stop_hands_only_clients_to_the_callback() {
        let (tx, rx) = mpsc::channel();
        let served = tx.clone();
        let mut idle = Listener::bind("127.0.0.1:0", "tw-test-idle", move |_| {
            served.send(Vec::new()).unwrap();
        })
        .unwrap();
        idle.stop();
        assert_eq!(rx.try_iter().count(), 0, "the wake-up reached the callback");

        let mut one = Listener::bind("127.0.0.1:0", "tw-test-one", move |mut stream| {
            let mut body = Vec::new();
            stream.read_to_end(&mut body).unwrap();
            tx.send(body).unwrap();
        })
        .unwrap();
        TcpStream::connect(one.local_addr())
            .unwrap()
            .write_all(b"client")
            .unwrap();
        one.stop();
        let bodies: Vec<Vec<u8>> = rx.try_iter().collect();
        assert_eq!(bodies, vec![b"client".to_vec()]);
    }
}
