//! The TCP front door a node ([`crate::Server`]) and a router
//! (`sram_cluster::Router`) share: the bind, a nonblocking accept loop
//! polled against a shutdown flag, one joined thread per connection,
//! line framing, and the stop-and-join sequence. The two differ only in
//! their [`Service`].
//!
//! A connection reads bytes with `read_until` under a `POLL` read
//! timeout, so a timeout inside a UTF-8 character keeps the bytes read
//! so far (`read_line` drops them), and a line that is not UTF-8 is the
//! service's to answer ([`text`]), not a reason to hang up.
//!
//! Start-up has two phases, so every failure comes before any thread
//! starts: [`Front::bind`], then [`Front::serve`], which spawns the
//! acceptor. [`Serving::stop`] raises the shutdown flag and joins the
//! acceptor, then every connection; each finishes the request in hand
//! and exits at its next poll tick.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use sram_probe::log::{LogLevel, LogValue};

use crate::error::ServeError;
use crate::Json;

/// The poll tick: the acceptor's sleep when no client is waiting, and
/// each connection's read timeout. Either sees a raised shutdown flag
/// within one tick.
const POLL: Duration = Duration::from_millis(25);

/// What one front does besides framing.
pub trait Service: Send + Sync + 'static {
    /// Called for each accepted connection before its thread starts.
    /// `false` takes the front down: the acceptor raises the shutdown
    /// flag and returns, dropping the connection and the listener, so
    /// new dials are refused.
    fn admit(&self) -> bool {
        true
    }

    /// The reply to one request line (its raw bytes, newline included);
    /// `None` hangs up without a reply.
    fn reply(&self, line: &[u8]) -> Option<Json>;
}

/// A bound listener whose acceptor has not started.
pub struct Front {
    listener: TcpListener,
    addr: SocketAddr,
}

impl Front {
    /// Binds the first address `addr` resolves to that accepts a bind
    /// (port 0 for an ephemeral port), nonblocking.
    ///
    /// # Errors
    ///
    /// Resolution and bind failures.
    pub fn bind(addr: &str) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Self { listener, addr })
    }

    /// The bound address (resolves an ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts the acceptor. Each connection `service` admits gets a
    /// thread that answers its lines until the client or the service
    /// hangs up, or `shutdown` is raised.
    pub fn serve(self, shutdown: Arc<AtomicBool>, service: impl Service) -> Serving {
        let conns = Arc::new(Mutex::new(Vec::new()));
        #[expect(
            clippy::disallowed_methods,
            reason = "the acceptor exits on `shutdown` and is joined first by `Serving::stop`"
        )]
        let acceptor = {
            let (shutdown, conns) = (Arc::clone(&shutdown), Arc::clone(&conns));
            let service = Arc::new(service);
            std::thread::spawn(move || accept_loop(&self.listener, &service, &shutdown, &conns))
        };
        Serving {
            shutdown,
            acceptor: Some(acceptor),
            conns,
        }
    }
}

/// A front whose acceptor runs; [`Serving::stop`] ends it.
pub struct Serving {
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Serving {
    /// Raises the shutdown flag, then joins the acceptor and every
    /// connection thread. A second call only raises the flag again.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in conns {
            let _ = handle.join();
        }
    }
}

fn accept_loop<S: Service>(
    listener: &TcpListener,
    service: &Arc<S>,
    shutdown: &Arc<AtomicBool>,
    conns: &Mutex<Vec<JoinHandle<()>>>,
) {
    while !shutdown.load(Ordering::SeqCst) {
        let Ok((stream, _peer)) = listener.accept() else {
            std::thread::sleep(POLL);
            continue;
        };
        if !service.admit() {
            shutdown.store(true, Ordering::SeqCst);
            return;
        }
        let (service, shutdown) = (Arc::clone(service), Arc::clone(shutdown));
        #[expect(
            clippy::disallowed_methods,
            reason = "each connection handle goes into `conns`, which `Serving::stop` drains and joins"
        )]
        let handle = std::thread::spawn(move || connection(stream, &*service, &shutdown));
        conns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(handle);
    }
}

/// Serves one client: one reply line per request line, until the
/// client or the service hangs up or the front stops. The flag is read
/// between requests, so an in-flight reply goes out first.
fn connection(stream: TcpStream, service: &impl Service, shutdown: &AtomicBool) {
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => return, // client closed
            Ok(_) if line.ends_with(b"\n") => {
                let Some(reply) = service.reply(&line) else {
                    return;
                };
                line.clear();
                let mut payload = reply.render();
                payload.push('\n');
                if writer.write_all(payload.as_bytes()).is_err() {
                    return;
                }
            }
            // End of stream mid-line (the next read returns 0), or a
            // timeout while idle or mid-line: `line` keeps its bytes.
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

/// A request line as text, its trailing newline trimmed.
///
/// # Errors
///
/// [`ServeError::Protocol`] when the line is not UTF-8.
pub fn text(line: &[u8]) -> Result<&str, ServeError> {
    std::str::from_utf8(line)
        .map(str::trim_end)
        .map_err(|_| ServeError::Protocol("request line is not valid UTF-8".into()))
}

/// Logs a request that took at least the slow-query threshold
/// (`SRAM_LOG_SLOW_MS`, default 1 s) as a warn-level `event` with the
/// fields op, latency, `extra`, id and, for a traced request, the span
/// tree its reply carries, verbatim.
pub fn log_slow_query(
    event: &str,
    op: &str,
    id: Option<&str>,
    latency_ns: u64,
    reply: &Json,
    extra: &[(&str, LogValue)],
) {
    static THRESHOLD_NS: OnceLock<u64> = OnceLock::new();
    let threshold_ns = *THRESHOLD_NS.get_or_init(|| {
        sram_probe::env_var!("SRAM_LOG_SLOW_MS")
            .get()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(1_000)
            .saturating_mul(1_000_000)
    });
    if latency_ns < threshold_ns || !sram_probe::log::enabled(LogLevel::Warn) {
        return;
    }
    let mut fields = vec![
        ("op", LogValue::Str(op.into())),
        ("latency_ms", LogValue::U64(latency_ns / 1_000_000)),
    ];
    fields.extend_from_slice(extra);
    if let Some(id) = id {
        fields.push(("id", LogValue::Str(id.into())));
    }
    if let Some(tree) = reply.get("trace") {
        fields.push(("trace", LogValue::Raw(tree.render())));
    }
    sram_probe::log::log_event(LogLevel::Warn, event, &fields);
}
