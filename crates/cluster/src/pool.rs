//! Per-node connection pooling with bounded forwarding retry.
//!
//! The router holds many concurrent forwards to few nodes, so
//! connections are pooled per node address: an attempt checks one out
//! (or dials), runs one request/reply exchange, and returns it on
//! success. A connection that errored is dropped on the floor — its
//! [`NodeConn`] has already disconnected itself, and the pool never
//! hands out a handle that just failed.
//!
//! Transport failures retry in place with a deterministic doubling
//! backoff, bounded by [`MAX_ATTEMPTS`]; what the retry budget cannot
//! absorb surfaces to the router, which fails over to the next ring
//! candidate instead of hammering a dead node.
//!
//! An exchange can also wait a bounded time ([`Pool::call_within`]):
//! a reply slower than that comes back as an [`InFlight`] exchange, and
//! [`Pool::finish`] reads the rest of it on another thread.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use sram_serve::{Json, NodeConn, ServeError};

/// Most tries one forward makes against a single node before the
/// failure surfaces to the router's failover path.
pub(crate) const MAX_ATTEMPTS: u32 = 3;

/// First retry backoff; doubles per attempt (1 ms, 2 ms).
const RETRY_BASE_BACKOFF: Duration = Duration::from_millis(1);

/// Most idle connections kept per node.
const MAX_IDLE_PER_NODE: usize = 8;

/// A pool of reusable node connections, keyed by node address.
pub(crate) struct Pool {
    timeout: Option<Duration>,
    idle: Mutex<HashMap<String, Vec<NodeConn>>>,
}

impl Pool {
    pub(crate) fn new(timeout: Option<Duration>) -> Self {
        Self {
            timeout,
            idle: Mutex::new(HashMap::new()),
        }
    }

    fn checkout(&self, addr: &str) -> NodeConn {
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        idle.get_mut(addr)
            .and_then(Vec::pop)
            .unwrap_or_else(|| NodeConn::new(addr, self.timeout))
    }

    fn checkin(&self, addr: &str, conn: NodeConn) {
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = idle.entry(addr.to_owned()).or_default();
        if slot.len() < MAX_IDLE_PER_NODE {
            slot.push(conn);
        }
    }

    /// One request/reply exchange against `addr`, retrying transport
    /// failures up to [`MAX_ATTEMPTS`] times with doubling backoff.
    ///
    /// Protocol errors (a malformed reply line) do not retry: the bytes
    /// made it both ways, so resending risks a duplicate execution.
    pub(crate) fn call(&self, addr: &str, line: &str) -> Result<Json, ServeError> {
        self.retry(addr, line, 0, None)
    }

    /// [`Pool::call`] that waits at most `wait` for the reply, retries
    /// included. When the wait runs out first, the exchange is handed
    /// back still in flight, for [`Pool::finish`]; a failure that
    /// leaves no time for a retry is handed back as it is.
    pub(crate) fn call_within(&self, addr: &str, line: &str, wait: Duration) -> Exchange {
        let until = Instant::now() + wait;
        let mut tries = 0;
        loop {
            let mut conn = self.checkout(addr);
            let left = until.saturating_duration_since(Instant::now());
            let sent = conn.send_line_within(line, left);
            match sent
                .and_then(|()| conn.recv_within(until.saturating_duration_since(Instant::now())))
            {
                Ok(Some(reply)) => {
                    self.checkin(addr, conn);
                    return Exchange::Done(Ok(reply));
                }
                Ok(None) => return Exchange::Pending(InFlight { conn, tries }),
                Err(e) if Instant::now() >= until => return Exchange::Done(Err(e)),
                Err(e) => match backoff(e, tries) {
                    Ok(()) => tries += 1,
                    Err(e) => return Exchange::Done(Err(e)),
                },
            }
        }
    }

    /// Reads the rest of an exchange [`Pool::call_within`] left in
    /// flight, within the pool timeout, retrying with the budget it has
    /// left.
    pub(crate) fn finish(
        &self,
        addr: &str,
        line: &str,
        inflight: InFlight,
    ) -> Result<Json, ServeError> {
        self.retry(addr, line, inflight.tries, Some(inflight.conn))
    }

    /// The retry loop of [`Pool::call`] and [`Pool::finish`]. `held` is
    /// a connection whose request is already sent.
    fn retry(
        &self,
        addr: &str,
        line: &str,
        mut tries: u32,
        mut held: Option<NodeConn>,
    ) -> Result<Json, ServeError> {
        loop {
            let (mut conn, sent) = match held.take() {
                Some(conn) => (conn, Ok(())),
                None => {
                    let mut conn = self.checkout(addr);
                    let sent = conn.send_line(line);
                    (conn, sent)
                }
            };
            match sent.and_then(|()| conn.recv_line()) {
                Ok(reply) => {
                    self.checkin(addr, conn);
                    return Ok(reply);
                }
                Err(e) => {
                    backoff(e, tries)?;
                    tries += 1;
                }
            }
        }
    }
}

/// How a [`Pool::call_within`] exchange ended.
pub(crate) enum Exchange {
    /// The reply, or the failure the retry budget could not absorb.
    Done(Result<Json, ServeError>),
    /// The wait ran out with the reply still on the wire.
    Pending(InFlight),
}

/// An exchange whose reply is still on the wire: its connection, which
/// holds any part of the reply already read, and the retries used.
pub(crate) struct InFlight {
    conn: NodeConn,
    tries: u32,
}

/// Sleeps out the backoff before retry `tries + 1` of a transport
/// failure, or hands the error back when it may not retry.
fn backoff(error: ServeError, tries: u32) -> Result<(), ServeError> {
    if matches!(error, ServeError::Io(_) | ServeError::Remote(_)) && tries + 1 < MAX_ATTEMPTS {
        sram_probe::probe_inc!("cluster.forward.retries");
        std::thread::sleep(RETRY_BASE_BACKOFF * 2u32.pow(tries));
        Ok(())
    } else {
        Err(error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_against_a_dead_address_fails_after_bounded_retries() {
        sram_probe::set_level(sram_probe::Level::Summary);
        let retries = || {
            let counters = sram_probe::snapshot().counters;
            counters
                .get("cluster.forward.retries")
                .copied()
                .unwrap_or(0)
        };
        let before = retries();
        // Port 1 on localhost refuses immediately on any sane system.
        let pool = Pool::new(Some(Duration::from_millis(100)));
        let started = Instant::now();
        let result = pool.call("127.0.0.1:1", r#"{"op":"metrics"}"#);
        assert!(result.is_err());
        // 3 attempts with 1+2 ms backoff — nowhere near an unbounded
        // retry loop's runtime.
        assert!(started.elapsed() < Duration::from_secs(5));
        // Each refused dial but the last is retried and counted (other
        // tests in this binary may add retries of their own).
        let counted = retries() - before;
        assert!(counted >= u64::from(MAX_ATTEMPTS - 1), "{counted} retries");
    }

    #[test]
    fn call_within_never_waits_past_its_wait() {
        // Each connection is closed, unanswered, 200 ms after it is
        // accepted: the first try fails late, and the retry has only
        // what is left of the 300 ms wait.
        let node = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = node.local_addr().unwrap().to_string();
        std::thread::scope(|s| {
            s.spawn(|| {
                for conn in node.incoming().take(2) {
                    std::thread::sleep(Duration::from_millis(200));
                    drop(conn);
                }
            });
            let pool = Pool::new(Some(Duration::from_secs(5)));
            let started = Instant::now();
            let exchange =
                pool.call_within(&addr, r#"{"op":"metrics"}"#, Duration::from_millis(300));
            let elapsed = started.elapsed();
            assert!(matches!(exchange, Exchange::Pending(_)), "{elapsed:?}");
            // A fresh 300 ms per try would hand back after about 700 ms.
            assert!(elapsed < Duration::from_millis(500), "{elapsed:?}");
        });
    }

    #[test]
    fn checkin_caps_the_idle_pool() {
        let pool = Pool::new(None);
        for _ in 0..20 {
            pool.checkin("n1", NodeConn::new("127.0.0.1:1", None));
        }
        let idle = pool.idle.lock().unwrap();
        assert_eq!(idle.get("n1").map(Vec::len), Some(MAX_IDLE_PER_NODE));
    }
}
