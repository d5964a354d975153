//! `sram-cluster` — a sharded serve cluster: consistent-hash router,
//! hedged requests, and health-driven failover over N `sram-serve`
//! nodes.
//!
//! One `sram-serve` process has one job queue and one in-process
//! cache; the ROADMAP's "heavy traffic" north star needs scale-out.
//! This crate adds the missing layer without touching the wire
//! protocol: a [`Router`] binds the same line-delimited JSON front
//! door the nodes speak and
//!
//! * **shards by content** — each query's canonical content-addressed
//!   key ([`sram_serve::Query::key`]) is placed on a consistent-hash
//!   [`Ring`] of virtual nodes, so the same question always lands on
//!   the node whose LRU already holds the answer (cache affinity), and
//!   a membership change moves only ~`1/N` of the key space;
//! * **hedges the tail** — a second replica is fired after a
//!   windowed-p99-derived delay when the primary is slow; first reply
//!   wins, the loser observes a shared
//!   [`CancelToken`](sram_faults::CancelToken) and discards its reply;
//! * **drains and rebalances from health** — a background poller walks
//!   every node's `health` op (using its monotonic `revision` to skip
//!   stale snapshots) through a healthy → draining → down state
//!   machine that drives ring membership, with bounded retry + backoff
//!   on every forwarding path;
//! * **reports itself** — `cluster.*` probes, windowed telemetry, and
//!   a router-local, never-cached `cluster-stats` op;
//! * **traces end-to-end** — a traced request gets a propagated
//!   `trace_ctx` (trace id + parent span + seeded sampling decision);
//!   each node re-roots its span tree under the router's root, and the
//!   router stitches winner *and* cancelled hedge loser into one
//!   clock-rebased timeline ([`stitch`]);
//! * **federates metrics** — never-cached `cluster-metrics` and
//!   `cluster-health` ops merge the nodes' windowed histograms
//!   bucket-wise ([`collector`]), so cluster-wide p50/p90/p99 come
//!   from one merged distribution instead of averaged per-node
//!   percentiles, and sum the nodes' windowed SLO breach counts.
//!
//! A router is configured by filling [`RouterConfig`] (members,
//! replicas, hedge floor, virtual nodes); in-process clusters (tests,
//! the `cluster-soak` reproducer, edpbench) spawn nodes with
//! [`sram_serve::spawn_local_node`]. See DESIGN.md §14 for the design
//! rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp
    )
)]

mod poller;
mod pool;
mod ring;
mod router;

pub mod affinity;
pub mod collector;
pub mod stitch;

pub use poller::{NodeState, NodeStatus};
pub use ring::{Ring, DEFAULT_VNODES};
pub use router::{Router, RouterConfig};
pub use sram_probe::hash::splitmix64;

use sram_serve::Json;

/// A reply the router answers itself: `status` ok, the `op`, the
/// request's `id` when it had one, then `body`.
pub(crate) fn own_reply(
    op: &str,
    id: Option<&str>,
    body: impl IntoIterator<Item = (String, Json)>,
) -> Json {
    let head = [("status", Some("ok")), ("op", Some(op)), ("id", id)];
    let head = head
        .into_iter()
        .filter_map(|(key, value)| Some((key.to_owned(), Json::Str(value?.into()))));
    Json::Obj(head.chain(body).collect())
}
