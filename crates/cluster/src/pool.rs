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

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

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
        let mut attempt: u32 = 0;
        loop {
            let mut conn = self.checkout(addr);
            match conn.call_line(line) {
                Ok(reply) => {
                    self.checkin(addr, conn);
                    return Ok(reply);
                }
                Err(ServeError::Io(_) | ServeError::Remote(_)) if attempt + 1 < MAX_ATTEMPTS => {
                    attempt += 1;
                    sram_probe::probe_inc!("cluster.forward.retries");
                    std::thread::sleep(RETRY_BASE_BACKOFF * 2u32.pow(attempt - 1));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_against_a_dead_address_fails_after_bounded_retries() {
        // Port 1 on localhost refuses immediately on any sane system.
        let pool = Pool::new(Some(Duration::from_millis(100)));
        let started = std::time::Instant::now();
        let result = pool.call("127.0.0.1:1", r#"{"op":"metrics"}"#);
        assert!(result.is_err());
        // 3 attempts with 1+2 ms backoff — nowhere near an unbounded
        // retry loop's runtime.
        assert!(started.elapsed() < Duration::from_secs(5));
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
