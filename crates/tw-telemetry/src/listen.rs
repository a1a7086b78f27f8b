//! The one TCP accept loop (DESIGN.md §15): the scrape endpoint
//! ([`crate::http::Server`]) and span ingestion (`tw_pipeline`'s
//! `IngestServer`) each hand it a per-connection callback.
//!
//! Stopping drains: every connection made before [`Listener::stop`] is
//! handed to the callback, so a server that serves each one to EOF loses
//! no client that connected in time.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A bound listener whose named accept thread runs a callback on each
/// connection, in accept order. Dropping it stops it.
pub struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
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
        let stopping = stop.clone();
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    let Ok(stream) = conn else { break };
                    on_conn(stream);
                    if stopping.load(Ordering::SeqCst) {
                        // Drain the backlog: connections queued behind this
                        // one (the wake-up connection among them, which
                        // carries nothing and ends at once) were made
                        // before the stop.
                        let _ = listener.set_nonblocking(true);
                        while let Ok((stream, _)) = listener.accept() {
                            let _ = stream.set_nonblocking(false);
                            on_conn(stream);
                        }
                        break;
                    }
                }
            })?;
        Ok(Listener {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting: set the stop flag, wake the blocking accept with a
    /// connection, and join the accept thread once it has handed every
    /// queued connection to the callback. Idempotent.
    pub fn stop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            let _ = thread.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop();
    }
}
