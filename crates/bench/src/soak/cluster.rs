//! `cluster-soak`: three nodes behind the consistent-hash router,
//! driven by concurrent clients while a fixed plan injects a slow
//! characterization (which forces a hedge past the 5 ms floor), two
//! worker panics, two connection drops (absorbed by the router's
//! bounded forward retry), and one node kill.
//!
//! Phases beyond the shared driver:
//!
//! 1. **supervise** — wave `a` runs while a supervisor watches
//!    `cluster-stats` for the eviction, confirms the node really
//!    refuses dials (a connection-drop-driven false eviction heals by
//!    itself), respawns it on the same address, and waits for the
//!    poller to rejoin it; wave `b` then runs on the healed ring;
//! 2. **settle** — the cluster must return to every node healthy;
//! 3. **affinity audit** — every `ok` reply carries the router's
//!    `node`/`epoch`/`via` tags; [`affinity::audit`] must find zero
//!    same-epoch, same-key primary replies answered by different nodes.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use sram_cluster::affinity::{self, Observation};
use sram_serve::{Json, Request, Server};

use super::{inv, Op, Outcome, Rhs, Scenario, Topology};

/// Capacities the clients cycle through.
const CAPACITIES: [u64; 6] = [128, 256, 512, 1024, 2048, 4096];
/// Worker threads per node, respawned node included.
const NODE_WORKERS: usize = 2;
/// Wall budget for the supervisor's evict → respawn → rejoin cycle.
const SUPERVISOR_BUDGET: Duration = Duration::from_secs(120);
/// Wall budget for the cluster to settle back to all-healthy after the
/// second wave (health verdicts are windowed, so injected errors take
/// a moment to age out).
const SETTLE_BUDGET: Duration = Duration::from_secs(60);

fn query(client: usize, r: usize) -> String {
    format!(
        r#""op":"optimize","capacity_bytes":{},"flavor":"hvt","method":"m2""#,
        CAPACITIES[(client + r) % CAPACITIES.len()]
    )
}

/// The cluster scenario row.
pub(crate) const SCENARIO: Scenario = Scenario {
    title: "Cluster soak (sram-cluster): failover under a consistent-hash router",
    topology: Topology::Cluster {
        nodes: 3,
        workers: NODE_WORKERS,
        replicas: 2,
        hedge_ms: 5,
        poll_ms: 20,
    },
    seed: 0x00DA_C209,
    faults: &[
        ("cell.slow", 1, 60),
        ("serve.worker_panic", 2, 0),
        ("serve.conn_drop", 2, 0),
        ("serve.node_kill", 1, 0),
    ],
    clients: 4,
    requests_per_client: 8,
    max_attempts: 12,
    reply_timeout: Duration::from_secs(60),
    query,
    invariants: &[
        inv("cluster.hedge.fired", Op::Ge, Rhs::Num(1.0)),
        inv("cluster.node.evicted", Op::Ge, Rhs::Num(1.0)),
        inv("cluster.node.rejoined", Op::Ge, Rhs::Num(1.0)),
        inv(
            "serve.node.injected_kills",
            Op::Eq,
            Rhs::Cap("serve.node_kill"),
        ),
        inv("cluster.affinity.violations", Op::Eq, Rhs::Num(0.0)),
        inv("cluster.affinity.checked", Op::Ge, Rhs::Num(1.0)),
        inv("healthy_nodes", Op::Eq, Rhs::Key("nodes")),
        inv("final_epoch", Op::Ge, Rhs::Num(1.0)),
        inv("cluster.request.routed", Op::Ge, Rhs::Key("answered")),
        inv("cluster.forward.latency_ns", Op::Ge, Rhs::Key("answered")),
        inv("cluster.health.polls", Op::Ge, Rhs::Num(1.0)),
        // The router fails over only down a request's candidate list.
        inv(
            "cluster.forward.failovers",
            Op::Le,
            Rhs::Key("failover_budget"),
        ),
        inv("cluster.hedge.delay_ms", Op::Ge, Rhs::Key("hedge_ms")),
        inv("cluster.hedge.delay_ms", Op::Le, Rhs::Num(250.0)),
    ],
};

/// Node addresses in the given poller state, read from a
/// `cluster-stats` reply.
fn nodes_in_state(stats: &Json, state: &str) -> Vec<String> {
    stats
        .get("nodes")
        .and_then(Json::as_array)
        .map(|nodes| {
            nodes
                .iter()
                .filter(|n| n.get("state").and_then(Json::as_str) == Some(state))
                .filter_map(|n| n.get("node").and_then(Json::as_str).map(str::to_owned))
                .collect()
        })
        .unwrap_or_default()
}

/// Rebinds a node on its original address. The killed node's old
/// sockets may linger briefly, so bind is retried under a deadline.
fn respawn(addr: &str) -> Result<Server, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match super::spawn_node(addr, NODE_WORKERS) {
            Ok(server) => return Ok(server),
            Err(e) if Instant::now() > deadline => return Err(format!("respawn never bound: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// The failover supervisor: waits for the router to evict the killed
/// node, restarts it on the same address, and waits for the health
/// poller to rejoin it. Owns every node handle meanwhile, so it can
/// shut down and replace the dead one.
fn supervise(
    router: SocketAddr,
    mut nodes: BTreeMap<String, Server>,
) -> Result<BTreeMap<String, Server>, String> {
    let deadline = Instant::now() + SUPERVISOR_BUDGET;
    let mut client = super::connect(router, SCENARIO.reply_timeout)?;
    let mut respawned: Option<String> = None;
    loop {
        if Instant::now() > deadline {
            return Err(match respawned {
                Some(addr) => format!("node {addr} was respawned but never rejoined the ring"),
                None => "no node was evicted within the supervisor budget".to_owned(),
            });
        }
        let stats = client
            .call_line(r#"{"op":"cluster-stats"}"#)
            .map_err(|e| format!("cluster-stats poll: {e}"))?;
        match &respawned {
            None => {
                // Only a node that really refuses dials is the injected
                // kill; a connection-drop-driven false eviction heals on
                // the next successful poll.
                if let Some(addr) = nodes_in_state(&stats, "down")
                    .into_iter()
                    .find(|addr| std::net::TcpStream::connect(addr).is_err())
                {
                    let dead = nodes
                        .remove(&addr)
                        .ok_or_else(|| format!("unknown node {addr} reported down"))?;
                    dead.shutdown();
                    nodes.insert(addr.clone(), respawn(&addr)?);
                    respawned = Some(addr);
                }
            }
            Some(addr) => {
                if nodes_in_state(&stats, "healthy").contains(addr) {
                    return Ok(nodes);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Turns a routed `ok` reply into an affinity observation.
fn observe(line: &str, reply: &Json, into: &Mutex<Vec<Observation>>) -> Result<(), String> {
    let key = Request::from_line(line)
        .map_err(|e| format!("request failed to parse locally: {e}"))?
        .query
        .key();
    let (Some(node), Some(epoch), Some(via)) = (
        reply.get("node").and_then(Json::as_str),
        reply.get("epoch").and_then(Json::as_u64),
        reply.get("via").and_then(Json::as_str),
    ) else {
        return Err(format!(
            "reply is missing its routing tags: {}",
            reply.render()
        ));
    };
    into.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(Observation {
            key,
            epoch,
            node: node.to_owned(),
            via: via.to_owned(),
        });
    Ok(())
}

/// Runs every phase.
///
/// # Errors
///
/// Any hang, unanswered or doubly-answered request, failed respawn, or
/// cluster that never rejoined its killed node.
pub(crate) fn soak(threads: usize) -> Result<Outcome, String> {
    super::drive(&SCENARIO, threads, |soak| {
        soak.start()?;
        let observations = Mutex::new(Vec::new());
        let hook = |line: &str, reply: &Json| observe(line, reply, &observations);
        soak.round(true, |soak| {
            let net = soak.net()?;
            let (addr, nodes) = (net.addr, std::mem::take(&mut net.nodes));
            let (wave, nodes) = std::thread::scope(|scope| {
                let supervisor = scope.spawn(move || supervise(addr, nodes));
                let wave = soak.wave("a", &hook);
                let nodes = supervisor
                    .join()
                    .unwrap_or_else(|_| Err("supervisor thread panicked".to_owned()));
                (wave, nodes)
            });
            soak.net()?.nodes = nodes?;
            wave?;
            soak.wave("b", &hook)
        })?;

        // Settle: windowed health verdicts need a moment to age out the
        // injected errors.
        let addr = soak.net()?.addr;
        let mut client = super::connect(addr, SCENARIO.reply_timeout)?;
        let deadline = Instant::now() + SETTLE_BUDGET;
        let stats = loop {
            let stats = client
                .call_line(r#"{"op":"cluster-stats"}"#)
                .map_err(|e| format!("final cluster-stats: {e}"))?;
            if nodes_in_state(&stats, "healthy").len() == soak.net()?.nodes.len()
                || Instant::now() > deadline
            {
                break stats;
            }
            std::thread::sleep(Duration::from_millis(50));
        };
        let healthy = nodes_in_state(&stats, "healthy").len();
        soak.set("healthy_nodes", healthy as f64);
        let epoch = stats.get("epoch").and_then(Json::as_u64).unwrap_or(0);
        soak.set("final_epoch", epoch as f64);

        let observations = observations
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        for violation in affinity::audit(&observations).details {
            soak.note(format!("affinity violation: {violation}"));
        }
        Ok(())
    })
}

/// Runs the soak and renders the invariant-checked report.
///
/// # Errors
///
/// Propagates the soak's failures and every broken invariant.
pub fn run(threads: usize) -> Result<String, String> {
    super::report(&SCENARIO, &soak(threads)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_in_state_reads_the_cluster_stats_shape() {
        let stats = Json::parse(
            r#"{"status":"ok","nodes":[
                {"node":"127.0.0.1:1","state":"healthy","revision":3,"failures":0},
                {"node":"127.0.0.1:2","state":"down","revision":0,"failures":2},
                {"node":"127.0.0.1:3","state":"healthy","revision":2,"failures":0}
            ]}"#,
        )
        .unwrap();
        assert_eq!(
            nodes_in_state(&stats, "healthy"),
            vec!["127.0.0.1:1".to_owned(), "127.0.0.1:3".to_owned()]
        );
        assert_eq!(
            nodes_in_state(&stats, "down"),
            vec!["127.0.0.1:2".to_owned()]
        );
        assert!(nodes_in_state(&Json::parse("{}").unwrap(), "down").is_empty());
    }
}
