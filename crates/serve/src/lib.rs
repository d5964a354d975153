//! `sram-serve` — a concurrent query server over the co-optimization
//! framework.
//!
//! The paper's framework answers one `(capacity, flavor, method)`
//! question per run; this crate turns it into a long-lived service that
//! answers many, concurrently, with two structural optimizations:
//!
//! * **batching** — queries arriving together are grouped by
//!   technology (`(VtFlavor, Method)`), so one cell characterization
//!   pass (the expensive LUT build) is shared by the whole group;
//! * **content-addressed caching** — results are keyed by a canonical
//!   rendering of the query, so a repeated question is answered in
//!   microseconds regardless of the wire formatting it arrived in.
//!
//! The same [`Engine`] backs two transports: an in-process API (used by
//! the `reproduce serve-bench` experiment) and a line-delimited JSON
//! protocol over TCP ([`Server`], `std::net` only — no async runtime,
//! see `DESIGN.md` §9 for why). The TCP front door itself — bind,
//! accept loop, one thread per connection, line framing, stop and
//! join — is [`front`], which the cluster router serves through too.
//!
//! # Wire protocol
//!
//! One request per line, one response per line:
//!
//! ```text
//! → {"op":"optimize","capacity_bytes":4096,"flavor":"hvt","method":"m2"}
//! ← {"status":"ok","cached":false,"result":{"label":"6T-HVT-M2",...}}
//! ```
//!
//! Ops: `optimize`, `evaluate-point`, `pareto-front`, `yield-check`,
//! plus two introspection ops answered directly and never cached —
//! `metrics` (windowed telemetry as JSON: counter rates, gauges and
//! latency quantiles, with uptime, engine counters, and cache
//! occupancy) and `health` (an
//! `ok|degraded|unhealthy` verdict with reasons: worker liveness,
//! queue pressure, windowed expiry/reject rates, and per-op SLO burn —
//! the contract a cluster router polls). Envelope fields `id`
//! (echoed), `deadline_ms` (per-request budget), `trace` (when
//! `true`, the response carries the request's span tree inline under
//! `"trace"`: parse → queue wait → characterize/execute → respond;
//! under `SRAM_TRACE_SAMPLE` < 1 only a seeded, deterministic fraction
//! of traced roots actually record), and `trace_ctx` (a propagated
//! `00-<trace id>-<parent span>-<01|00>` context from an upstream
//! router: its flag byte overrides local sampling, and the node's
//! `serve.request` root adopts the remote parent so cross-process
//! trees stitch into one timeline) are
//! accepted on every op. Error replies carry `"status":"error"`,
//! `"busy"` (queue full — retry), `"deadline_exceeded"`,
//! `"shutting_down"`, or `"internal"` (a worker panicked mid-request;
//! the panic was isolated and the worker respawned), plus a
//! `"retryable"` boolean so clients can react without parsing messages.
//!
//! # Example (in-process)
//!
//! ```
//! use sram_serve::{CacheConfig, Engine, Request};
//! use sram_coopt::{CoOptimizationFramework, DesignSpace};
//!
//! let engine = Engine::new(
//!     CoOptimizationFramework::paper_mode().with_space(DesignSpace::coarse()),
//!     CacheConfig::default(),
//! );
//! let request = Request::from_line(
//!     r#"{"op":"optimize","capacity_bytes":1024,"flavor":"hvt","method":"m2"}"#,
//! )
//! .unwrap();
//! let cold = engine.handle(&request);
//! let warm = engine.handle(&request); // served from the result cache
//! assert_eq!(
//!     cold.get("result").map(|r| r.render()),
//!     warm.get("result").map(|r| r.render()),
//! );
//! ```

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

mod cache;
mod client;
mod engine;
mod error;
pub mod front;
mod query;
mod server;
pub mod slo;

pub use cache::{CacheConfig, CacheCounters, ResultCache};
pub use client::{Client, NodeConn};
pub use engine::{error_response, histogram_json, Engine};
pub use error::{wire_status, ServeError};
pub use query::{ObjectiveKind, Query, Request};
pub use server::{spawn_local_node, Server, ServerConfig};
pub use sram_probe::json::{Json, JsonError};
