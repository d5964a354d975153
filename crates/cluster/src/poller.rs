//! The health poller: node state machine driving ring membership.
//!
//! A background thread polls every configured node's `health` op and
//! walks each node through a three-state machine:
//!
//! ```text
//!            verdict unhealthy                 poll failure ×2
//! Healthy ───────────────────────▶ Draining ───────────────────▶ Down
//!    ▲  ◀──────────────────────────── │  ◀──────────────────────── │
//!    └──────── verdict ok/degraded ───┴── (successful fresh poll) ──┘
//! ```
//!
//! * **Healthy** — on the ring, taking traffic.
//! * **Draining** — the node answered but judged itself `unhealthy`;
//!   it is removed from the ring (no new keys) but keeps being polled,
//!   so it rejoins the moment its verdict recovers.
//! * **Down** — `DOWN_AFTER_FAILURES` consecutive poll failures; the
//!   node is evicted and its last-seen health revision forgotten (a
//!   restarted process restarts its revision counter at 1, which must
//!   not read as stale).
//!
//! Staleness: serve's `health` reply carries a monotonic `revision`
//! (PR 8's small fix). A reply whose revision is at or below the last
//! one seen from the same node is a reordered or duplicated snapshot —
//! it is counted (`cluster.health.stale`) and skipped, never applied.
//!
//! Every ring add/remove bumps the ring epoch, which the router stamps
//! onto forwarded replies — affinity audits group by epoch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use sram_serve::{Json, NodeConn};

use crate::ring::Ring;

/// Consecutive poll failures after which a node is declared down.
const DOWN_AFTER_FAILURES: u32 = 2;

/// Where a node stands in the drain/evict/rejoin state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// On the ring, taking traffic.
    Healthy,
    /// Reachable but self-reported unhealthy: off the ring, polled.
    Draining,
    /// Unreachable: evicted from the ring.
    Down,
}

impl NodeState {
    /// Wire name for `cluster-stats`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Draining => "draining",
            Self::Down => "down",
        }
    }
}

/// Per-node poller bookkeeping.
#[derive(Debug, Clone)]
pub struct NodeStatus {
    /// Current state-machine position.
    pub state: NodeState,
    /// Highest health revision seen from this process incarnation.
    pub last_revision: u64,
    /// Consecutive failed polls (reset by any successful poll).
    pub failures: u32,
}

/// Ring + node states, shared between the poller and the router under
/// one lock (membership changes and candidate reads must be atomic
/// with respect to each other).
pub(crate) struct Membership {
    pub(crate) ring: Ring,
    pub(crate) states: BTreeMap<String, NodeStatus>,
}

impl Membership {
    /// Seeds every configured node as healthy and on the ring: the
    /// router starts optimistic and lets the first poll round correct
    /// it, rather than refusing traffic until the poller has run.
    pub(crate) fn seed(nodes: &[String], vnodes: usize) -> Self {
        let mut ring = Ring::new(vnodes);
        let mut states = BTreeMap::new();
        for node in nodes {
            ring.add(node);
            states.insert(
                node.clone(),
                NodeStatus {
                    state: NodeState::Healthy,
                    last_revision: 0,
                    failures: 0,
                },
            );
        }
        Self { ring, states }
    }
}

/// Applies one successful health reply to the membership. Returns
/// `true` if the sample was applied (fresh), `false` if stale or
/// unusable.
fn apply_health(membership: &mut Membership, node: &str, reply: &Json) -> bool {
    if reply.get("status").and_then(Json::as_str) != Some("ok") {
        // The transport worked but the node answered with a typed
        // error (e.g. `busy`): not a health snapshot, not a failure —
        // leave the state machine where it is and poll again.
        return false;
    }
    // The node wraps the health payload in its standard ok envelope:
    // `{"status":"ok","result":{verdict, revision, …}}`.
    let body = reply.get("result").unwrap_or(reply);
    let revision = body.get("revision").and_then(Json::as_u64).unwrap_or(0);
    let verdict = body
        .get("verdict")
        .and_then(Json::as_str)
        .unwrap_or("unhealthy");
    let Some(status) = membership.states.get_mut(node) else {
        return false;
    };
    if revision != 0 && revision <= status.last_revision {
        sram_probe::probe_handle!(counter "cluster.health.stale").inc();
        return false;
    }
    status.last_revision = revision;
    status.failures = 0;
    let was = status.state;
    if verdict == "unhealthy" {
        status.state = NodeState::Draining;
        if membership.ring.remove(node) {
            sram_probe::probe_handle!(counter "cluster.node.drained").inc();
        }
    } else {
        status.state = NodeState::Healthy;
        if membership.ring.add(node) && was != NodeState::Healthy {
            sram_probe::probe_handle!(counter "cluster.node.rejoined").inc();
        }
    }
    true
}

/// Applies one failed poll. Eviction fires on the transition into
/// `Down`, and the revision watermark resets so the node's restarted
/// incarnation (which counts from 1 again) is not judged stale.
fn apply_failure(membership: &mut Membership, node: &str) {
    let Some(status) = membership.states.get_mut(node) else {
        return;
    };
    status.failures += 1;
    if status.failures >= DOWN_AFTER_FAILURES && status.state != NodeState::Down {
        status.state = NodeState::Down;
        status.last_revision = 0;
        membership.ring.remove(node);
        sram_probe::probe_handle!(counter "cluster.node.evicted").inc();
    }
}

/// The poller thread body: one `health` round over every configured
/// node per tick, until `stop` is raised.
pub(crate) fn poll_loop(
    membership: &Mutex<Membership>,
    nodes: &[String],
    stop: &AtomicBool,
    interval: Duration,
    timeout: Duration,
) {
    let mut conns: Vec<NodeConn> = nodes
        .iter()
        .map(|n| NodeConn::new(n.as_str(), Some(timeout)))
        .collect();
    while !stop.load(Ordering::SeqCst) {
        for conn in &mut conns {
            let node = conn.addr().to_owned();
            match conn.call_line(r#"{"op":"health"}"#) {
                Ok(reply) => {
                    sram_probe::probe_inc!("cluster.health.polls");
                    let mut guard = membership.lock().unwrap_or_else(PoisonError::into_inner);
                    apply_health(&mut guard, &node, &reply);
                }
                Err(_) => {
                    let mut guard = membership.lock().unwrap_or_else(PoisonError::into_inner);
                    apply_failure(&mut guard, &node);
                }
            }
        }
        // One sleep per round, polled in small steps so shutdown is
        // observed promptly even with a long interval.
        let mut slept = Duration::ZERO;
        let step = interval.min(Duration::from_millis(10));
        while slept < interval && !stop.load(Ordering::SeqCst) {
            std::thread::sleep(step);
            slept += step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn membership() -> Membership {
        Membership::seed(&["n1".to_owned(), "n2".to_owned(), "n3".to_owned()], 16)
    }

    fn health(revision: u64, verdict: &str) -> Json {
        Json::parse(&format!(
            r#"{{"status":"ok","result":{{"verdict":"{verdict}","revision":{revision}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn unhealthy_verdict_drains_and_recovery_rejoins() {
        let mut m = membership();
        assert!(apply_health(&mut m, "n2", &health(1, "unhealthy")));
        assert_eq!(m.states["n2"].state, NodeState::Draining);
        assert!(!m.ring.contains("n2"));
        let epoch = m.ring.epoch();
        assert!(apply_health(&mut m, "n2", &health(2, "ok")));
        assert_eq!(m.states["n2"].state, NodeState::Healthy);
        assert!(m.ring.contains("n2"));
        assert_eq!(m.ring.epoch(), epoch + 1);
    }

    #[test]
    fn stale_revision_is_skipped() {
        let mut m = membership();
        assert!(apply_health(&mut m, "n1", &health(5, "ok")));
        // An out-of-order snapshot must not flip the state machine.
        assert!(!apply_health(&mut m, "n1", &health(5, "unhealthy")));
        assert!(!apply_health(&mut m, "n1", &health(4, "unhealthy")));
        assert_eq!(m.states["n1"].state, NodeState::Healthy);
        assert!(apply_health(&mut m, "n1", &health(6, "unhealthy")));
        assert_eq!(m.states["n1"].state, NodeState::Draining);
    }

    #[test]
    fn repeated_failures_evict_and_reset_the_revision_watermark() {
        let mut m = membership();
        assert!(apply_health(&mut m, "n3", &health(9, "ok")));
        apply_failure(&mut m, "n3");
        assert_eq!(m.states["n3"].state, NodeState::Healthy); // one strike
        apply_failure(&mut m, "n3");
        assert_eq!(m.states["n3"].state, NodeState::Down);
        assert!(!m.ring.contains("n3"));
        assert_eq!(m.states["n3"].last_revision, 0);
        // The restarted incarnation counts revisions from 1 again and
        // must be accepted, not judged stale against revision 9.
        assert!(apply_health(&mut m, "n3", &health(1, "ok")));
        assert_eq!(m.states["n3"].state, NodeState::Healthy);
        assert!(m.ring.contains("n3"));
    }

    #[test]
    fn a_typed_error_reply_is_neither_a_sample_nor_a_failure() {
        let mut m = membership();
        let busy = Json::parse(r#"{"status":"busy","retryable":true}"#).unwrap();
        assert!(!apply_health(&mut m, "n1", &busy));
        assert_eq!(m.states["n1"].state, NodeState::Healthy);
        assert_eq!(m.states["n1"].failures, 0);
    }

    #[test]
    fn degraded_verdict_keeps_the_node_on_the_ring() {
        let mut m = membership();
        assert!(apply_health(&mut m, "n1", &health(1, "degraded")));
        assert_eq!(m.states["n1"].state, NodeState::Healthy);
        assert!(m.ring.contains("n1"));
    }
}
