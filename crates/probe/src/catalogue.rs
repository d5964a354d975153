//! The probe and environment-variable catalogues, checked by the
//! compiler.
//!
//! Every probe name the workspace records and every `SRAM_*` variable
//! it reads has one row here. The recording macros
//! ([`probe_inc!`](crate::probe_inc), [`probe_handle!`](crate::probe_handle),
//! [`trace_span!`](crate::trace_span), …) and [`env_var!`](crate::env_var)
//! open with a `const` call to [`check`] or [`EnvVar::checked`], so a
//! name that is not catalogued, a kind that disagrees with its row, or a
//! name recorded or read from another workspace library does not
//! compile. The error names the probe and the cause:
//!
//! ```text
//! error[E0080]: evaluation panicked: probe `cell.not_catalogued` is not in the catalogue
//! ```
//!
//! The unchecked registry functions ([`counter`](crate::counter),
//! [`trace::intern`](crate::trace::intern), `std::env::var`, …) are in
//! `clippy.toml`'s `disallowed-methods`, so the macros are the only
//! way in. `PROBES.md` is rendered from [`PROBES`]; a unit test fails on
//! any difference.

/// What a probe name records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count ([`Counter`](crate::Counter)).
    Counter,
    /// A last-write-wins level ([`Gauge`](crate::Gauge)).
    Gauge,
    /// A log-linear [`Histogram`](crate::Histogram).
    Histogram,
    /// A trace span name ([`trace`](crate::trace)).
    Trace,
}

impl Kind {
    /// The word PROBES.md and the compile errors use.
    #[must_use]
    pub const fn word(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
            Kind::Trace => "trace",
        }
    }
}

/// The workspace library that records a probe or reads a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// `sram-spice`: `spice.*`.
    Spice,
    /// `sram-cell`: `cell.*`.
    Cell,
    /// `sram-coopt` (`crates/core`): `coopt.*`.
    Core,
    /// `sram-probe`: `probe.*`, `telemetry.*`, `log.*`.
    Probe,
    /// `sram-serve`: `serve.*`.
    Serve,
    /// `sram-faults`: `faults.*`.
    Faults,
    /// `sram-cluster`: `cluster.*`.
    Cluster,
    /// `sram-bench`: `bench.*`, `repro.*`.
    Bench,
}

impl Owner {
    /// The library's crate name, as `module_path!()` begins.
    #[must_use]
    pub const fn lib(self) -> &'static str {
        match self {
            Owner::Spice => "sram_spice",
            Owner::Cell => "sram_cell",
            Owner::Core => "sram_coopt",
            Owner::Probe => "sram_probe",
            Owner::Serve => "sram_serve",
            Owner::Faults => "sram_faults",
            Owner::Cluster => "sram_cluster",
            Owner::Bench => "sram_bench",
        }
    }
}

/// Where a probe's value is asserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// A repository file (a test, a soak table) whose text quotes the
    /// name outside a recording macro.
    At(&'static str),
    /// Nothing asserts the value yet, and why.
    Unchecked(&'static str),
}

/// One catalogued probe name.
#[derive(Debug, Clone, Copy)]
pub struct ProbeRow {
    /// Lowercase dotted name, first segment owned by [`ProbeRow::owner`].
    pub name: &'static str,
    /// What the name records.
    pub kind: Kind,
    /// The only library that may record it.
    pub owner: Owner,
    /// Where its value is asserted.
    pub site: Site,
}

/// One catalogued `SRAM_*` environment variable.
#[derive(Debug, Clone, Copy)]
pub struct EnvRow {
    /// The variable's name.
    pub name: &'static str,
    /// The only library that may read it.
    pub owner: Owner,
    /// What it sets, in one line.
    pub doc: &'static str,
}

const fn row(name: &'static str, kind: Kind, owner: Owner, site: Site) -> ProbeRow {
    ProbeRow {
        name,
        kind,
        owner,
        site,
    }
}

const fn var(name: &'static str, owner: Owner, doc: &'static str) -> EnvRow {
    EnvRow { name, owner, doc }
}

const OBSERVABILITY_ONLY: Site = Site::Unchecked("observability-only, no assertion site yet");
const SLO_HEALTH: Site =
    Site::Unchecked("read by `health` burn rates; no test drives this op past its objective");
const LOG_SELF: Site = Site::Unchecked("log sink self-accounting; no test reads the count");

use Kind::{Counter, Gauge, Histogram, Trace};
use Owner::{Bench, Cell, Cluster, Core, Faults, Probe, Serve, Spice};
use Site::At;

/// Every probe name the workspace records, sorted by name.
#[rustfmt::skip]
pub const PROBES: &[ProbeRow] = &[
    row("bench.overhead_calibration", Trace, Bench, At("crates/bench/src/serve.rs")),
    row("cell.characterizations", Counter, Cell, At("crates/bench/src/serve.rs")),
    row("cell.characterize", Trace, Cell, At("crates/bench/src/serve.rs")),
    row("cell.characterize_ns", Histogram, Cell, At("crates/bench/src/serve.rs")),
    row("cell.mc_cancelled", Counter, Cell, At("crates/cell/tests/mc_probes.rs")),
    row("cell.mc_collapsed", Counter, Cell, At("crates/cell/tests/mc_probes.rs")),
    row("cell.mc_run", Trace, Cell, At("crates/cell/tests/mc_probes.rs")),
    row("cell.mc_run_ns", Histogram, Cell, At("crates/cell/tests/mc_probes.rs")),
    row("cell.mc_runs", Counter, Cell, At("crates/bench/src/serve.rs")),
    row("cell.mc_samples", Counter, Cell, At("crates/bench/src/serve.rs")),
    row("cell.mc_wm_bracketing_failed", Counter, Cell, At("crates/cell/tests/mc_probes.rs")),
    row("cell.wm_flip_search", Trace, Cell, At("crates/cell/tests/flip_search_probes.rs")),
    row("cluster.affinity.checked", Counter, Cluster, At("crates/bench/src/soak/cluster.rs")),
    row("cluster.affinity.violations", Counter, Cluster, At("crates/bench/tests/cluster_soak.rs")),
    row("cluster.fanout.requests", Counter, Cluster, OBSERVABILITY_ONLY),
    row("cluster.forward.failovers", Counter, Cluster, At("crates/bench/src/soak/cluster.rs")),
    row("cluster.forward.handoffs", Counter, Cluster, At("crates/cluster/tests/hedging.rs")),
    row("cluster.forward.latency_ns", Histogram, Cluster, At("crates/bench/src/soak/cluster.rs")),
    row("cluster.forward.retries", Counter, Cluster, At("crates/cluster/src/pool.rs")),
    row("cluster.health.polls", Counter, Cluster, At("crates/bench/src/soak/cluster.rs")),
    row("cluster.health.stale", Counter, Cluster, OBSERVABILITY_ONLY),
    row("cluster.hedge.cancelled", Counter, Cluster, At("crates/cluster/tests/hedging.rs")),
    row("cluster.hedge.delay_ms", Gauge, Cluster, At("crates/bench/src/soak/cluster.rs")),
    row("cluster.hedge.fired", Counter, Cluster, At("crates/cluster/tests/hedging.rs")),
    row("cluster.hedge.wins", Counter, Cluster, OBSERVABILITY_ONLY),
    row("cluster.metrics.merged_p50", Gauge, Cluster, At("crates/bench/src/soak/trace.rs")),
    row("cluster.metrics.merged_p90", Gauge, Cluster, At("crates/bench/src/soak/trace.rs")),
    row("cluster.metrics.merged_p99", Gauge, Cluster, At("crates/bench/src/soak/trace.rs")),
    row("cluster.metrics.poll_errors", Counter, Cluster, At("crates/bench/src/soak/trace.rs")),
    row("cluster.metrics.polls", Counter, Cluster, At("crates/bench/src/soak/trace.rs")),
    row("cluster.node.drained", Counter, Cluster, OBSERVABILITY_ONLY),
    row("cluster.node.evicted", Counter, Cluster, At("crates/bench/src/soak/cluster.rs")),
    row("cluster.node.rejoined", Counter, Cluster, At("crates/bench/src/soak/cluster.rs")),
    row("cluster.request.parse_errors", Counter, Cluster, OBSERVABILITY_ONLY),
    row("cluster.request.routed", Counter, Cluster, At("crates/bench/src/soak/cluster.rs")),
    row("cluster.trace.forests", Counter, Cluster, At("crates/bench/tests/trace_soak.rs")),
    row("cluster.trace.losers", Counter, Cluster, At("crates/bench/src/soak/trace.rs")),
    row("cluster.trace.propagated", Counter, Cluster, At("crates/bench/src/soak/trace.rs")),
    row("cluster.trace.stitched", Counter, Cluster, At("crates/bench/src/soak/trace.rs")),
    row("cluster.trace.stitched_spans", Counter, Cluster, At("crates/bench/src/soak/trace.rs")),
    row("coopt.best_score", Gauge, Core, At("crates/core/tests/search_probes.rs")),
    row("coopt.candidate_eval_errors", Counter, Core, At("crates/core/tests/search_probes.rs")),
    row("coopt.candidates_evaluated", Counter, Core, At("crates/core/tests/search_probes.rs")),
    row("coopt.candidates_examined", Counter, Core, At("crates/core/tests/search_probes.rs")),
    row("coopt.candidates_infeasible_yield", Counter, Core, At("crates/core/tests/search_probes.rs")),
    row("coopt.candidates_pruned", Counter, Core, At("crates/core/tests/search_probes.rs")),
    row("coopt.search", Trace, Core, At("crates/bench/src/serve.rs")),
    row("coopt.search_cancelled", Counter, Core, At("crates/bench/src/soak/chaos.rs")),
    row("coopt.search_ns", Histogram, Core, At("crates/core/tests/search_probes.rs")),
    row("coopt.searches", Counter, Core, At("crates/core/tests/search_probes.rs")),
    row("coopt.slice", Trace, Core, At("crates/bench/src/serve.rs")),
    row("coopt.slices", Counter, Core, At("crates/core/tests/search_probes.rs")),
    row("faults.injected", Counter, Faults, At("crates/bench/src/soak/mod.rs")),
    row("log.events.dropped", Counter, Probe, LOG_SELF),
    row("log.events.written", Counter, Probe, LOG_SELF),
    row("probe.trace.dropped", Counter, Probe, At("crates/bench/src/soak/telemetry.rs")),
    row("serve.batch.characterizations", Counter, Serve, At("crates/bench/src/serve.rs")),
    row("serve.batch.characterize_ns", Histogram, Serve, OBSERVABILITY_ONLY),
    row("serve.batch.coalesced", Counter, Serve, At("crates/serve/tests/batch_coalesce.rs")),
    row("serve.batch.cross_coalesced", Counter, Serve, At("crates/bench/src/serve.rs")),
    row("serve.batch.size", Histogram, Serve, OBSERVABILITY_ONLY),
    row("serve.cache.bytes", Gauge, Serve, OBSERVABILITY_ONLY),
    row("serve.cache.evictions", Counter, Serve, OBSERVABILITY_ONLY),
    row("serve.cache.hits", Counter, Serve, At("crates/bench/src/serve.rs")),
    row("serve.cache.insertions", Counter, Serve, At("crates/bench/src/soak/mod.rs")),
    row("serve.cache.load_errors", Counter, Serve, At("crates/serve/tests/cache_persist.rs")),
    row("serve.cache.load_failed", Counter, Serve, At("crates/serve/tests/cache_persist.rs")),
    row("serve.cache.misses", Counter, Serve, At("crates/serve/tests/batch_coalesce.rs")),
    row("serve.cache.persisted", Counter, Serve, At("crates/serve/tests/cache_persist.rs")),
    row("serve.cache.save_failed", Counter, Serve, At("crates/serve/tests/cache_persist.rs")),
    row("serve.cache.spilled", Counter, Serve, At("crates/serve/tests/cache_persist.rs")),
    row("serve.cache.warm_started", Counter, Serve, At("crates/serve/tests/cache_persist.rs")),
    row("serve.cache.warmed", Counter, Serve, At("crates/serve/tests/cache_persist.rs")),
    row("serve.characterize", Trace, Serve, At("crates/serve/tests/server_e2e.rs")),
    row("serve.conn.accepted", Counter, Serve, At("crates/bench/src/soak/mod.rs")),
    row("serve.conn.injected_drops", Counter, Serve, At("crates/bench/src/soak/mod.rs")),
    row("serve.evaluate", Trace, Serve, At("crates/serve/tests/server_e2e.rs")),
    row("serve.execute", Trace, Serve, At("crates/serve/tests/server_e2e.rs")),
    row("serve.health.revision", Gauge, Serve, At("crates/bench/src/soak/telemetry.rs")),
    row("serve.node.injected_kills", Counter, Serve, At("crates/bench/src/soak/cluster.rs")),
    row("serve.parse", Trace, Serve, At("crates/serve/tests/server_e2e.rs")),
    row("serve.queue.capacity", Gauge, Serve, OBSERVABILITY_ONLY),
    row("serve.queue.depth", Gauge, Serve, OBSERVABILITY_ONLY),
    row("serve.queue_wait", Trace, Serve, At("crates/serve/tests/server_e2e.rs")),
    row("serve.request", Trace, Serve, At("crates/serve/tests/server_e2e.rs")),
    row("serve.request.errors", Counter, Serve, OBSERVABILITY_ONLY),
    row("serve.request.exec_ns", Histogram, Serve, OBSERVABILITY_ONLY),
    row("serve.request.expired", Counter, Serve, At("crates/serve/tests/faults_e2e.rs")),
    row("serve.request.inline_hits", Counter, Serve, At("crates/serve/tests/faults_e2e.rs")),
    row("serve.request.latency_ns", Histogram, Serve, At("crates/serve/tests/telemetry_surface.rs")),
    row("serve.request.parse_errors", Counter, Serve, OBSERVABILITY_ONLY),
    row("serve.request.queue_wait_ns", Histogram, Serve, At("crates/bench/src/soak/mod.rs")),
    row("serve.request.rejected", Counter, Serve, At("crates/serve/tests/faults_e2e.rs")),
    row("serve.request.total", Counter, Serve, At("crates/bench/src/serve.rs")),
    row("serve.retry.attempts", Counter, Serve, At("crates/serve/tests/faults_e2e.rs")),
    row("serve.retry.recovered", Counter, Serve, At("crates/serve/tests/faults_e2e.rs")),
    row("serve.slo.evaluate_point.breach", Counter, Serve, SLO_HEALTH),
    row("serve.slo.evaluate_point.total", Counter, Serve, SLO_HEALTH),
    row("serve.slo.health.breach", Counter, Serve, SLO_HEALTH),
    row("serve.slo.health.total", Counter, Serve, SLO_HEALTH),
    row("serve.slo.metrics.breach", Counter, Serve, SLO_HEALTH),
    row("serve.slo.metrics.total", Counter, Serve, SLO_HEALTH),
    row("serve.slo.optimize.breach", Counter, Serve, SLO_HEALTH),
    row("serve.slo.optimize.total", Counter, Serve, At("crates/bench/src/soak/telemetry.rs")),
    row("serve.slo.pareto_front.breach", Counter, Serve, SLO_HEALTH),
    row("serve.slo.pareto_front.total", Counter, Serve, SLO_HEALTH),
    row("serve.slo.yield_check.breach", Counter, Serve, SLO_HEALTH),
    row("serve.slo.yield_check.total", Counter, Serve, SLO_HEALTH),
    row("serve.worker.panics", Counter, Serve, At("crates/serve/tests/faults_e2e.rs")),
    row("serve.worker.respawns", Counter, Serve, At("crates/serve/tests/faults_e2e.rs")),
    row("spice.dc_nonconvergent", Counter, Spice, At("crates/cell/tests/flip_search_probes.rs")),
    row("spice.dc_solve", Trace, Spice, At("crates/bench/src/serve.rs")),
    row("spice.dc_solve_ns", Histogram, Spice, At("crates/cell/tests/spice_work_probes.rs")),
    row("spice.dc_solves", Counter, Spice, At("crates/bench/tests/reproduce_cli.rs")),
    row("spice.dc_sweep", Trace, Spice, At("crates/bench/src/serve.rs")),
    row("spice.lu_factorizations", Counter, Spice, At("crates/cell/tests/flip_search_probes.rs")),
    row("spice.newton_iterations", Counter, Spice, At("crates/bench/tests/reproduce_cli.rs")),
    row("spice.newton_iters_per_solve", Histogram, Spice, At("crates/cell/tests/flip_search_probes.rs")),
    row("spice.transient", Trace, Spice, At("crates/bench/src/serve.rs")),
    row("spice.transient_ns", Histogram, Spice, At("crates/cell/tests/spice_work_probes.rs")),
    row("spice.transient_rejected_steps", Counter, Spice, At("crates/cell/tests/spice_work_probes.rs")),
    row("spice.transient_runs", Counter, Spice, At("crates/cell/tests/spice_work_probes.rs")),
    row("spice.transient_steps", Counter, Spice, At("crates/cell/tests/spice_work_probes.rs")),
    row("telemetry.windows.sampled", Counter, Probe, At("crates/bench/src/soak/telemetry.rs")),
];

/// Every `SRAM_*` environment variable the workspace reads, sorted by
/// name.
#[rustfmt::skip]
pub const ENV_VARS: &[EnvRow] = &[
    var("SRAM_CACHE_FILE", Serve, "result-cache spill file, loaded at start and written at shutdown"),
    var("SRAM_LOG", Probe, "JSON-lines event log path, `-` for stderr (off when unset)"),
    var("SRAM_LOG_LEVEL", Probe, "minimum event level written to the log (default info)"),
    var("SRAM_LOG_SLOW_MS", Serve, "slow-query log threshold of nodes and router, ms (default 1000)"),
    var("SRAM_PROBE", Probe, "probe level at startup: 0 off, 1 summary, 2 detail"),
    var("SRAM_SLO_EVALUATE_POINT_MS", Serve, "latency objective of `evaluate-point`, ms"),
    var("SRAM_SLO_HEALTH_MS", Serve, "latency objective of `health`, ms"),
    var("SRAM_SLO_METRICS_MS", Serve, "latency objective of `metrics`, ms"),
    var("SRAM_SLO_MS", Serve, "latency objective of ops without their own, ms (default 250)"),
    var("SRAM_SLO_OPTIMIZE_MS", Serve, "latency objective of `optimize`, ms"),
    var("SRAM_SLO_PARETO_FRONT_MS", Serve, "latency objective of `pareto-front`, ms"),
    var("SRAM_SLO_YIELD_CHECK_MS", Serve, "latency objective of `yield-check`, ms"),
    var("SRAM_TELEMETRY_SLOTS", Probe, "telemetry ring capacity in windows (default 60)"),
    var("SRAM_TELEMETRY_WINDOW", Probe, "telemetry sampling interval, ms (default 1000)"),
    var("SRAM_TRACE", Probe, "`1` turns on process-wide tracing into per-thread rings"),
    var("SRAM_TRACE_OUT", Bench, "file serve-bench writes its Chrome trace export to"),
    var("SRAM_TRACE_SAMPLE", Probe, "fraction of request roots traced, 0 to 1 (default 1)"),
    var("SRAM_TRACE_SAMPLE_SEED", Probe, "seed of the deterministic root sampler"),
    var("SRAM_TRACE_SLOTS", Probe, "per-thread trace ring capacity in events (default 8192)"),
];

/// Fails a `const` check with a message built from `parts` (a `const`
/// panic takes one `&str` argument, so the message is assembled here).
#[expect(
    clippy::panic,
    reason = "evaluated in a `const`: the panic is the compile error that names the probe"
)]
const fn fail(parts: &[&str]) -> ! {
    let mut buf = [0u8; 256];
    let mut len = 0;
    let mut p = 0;
    while p < parts.len() {
        let bytes = parts[p].as_bytes();
        let mut i = 0;
        while i < bytes.len() && len < buf.len() {
            buf[len] = bytes[i];
            len += 1;
            i += 1;
        }
        p += 1;
    }
    let (message, _) = buf.split_at(len);
    match core::str::from_utf8(message) {
        Ok(message) => panic!("{}", message),
        Err(_) => panic!("catalogue check failed"),
    }
}

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// The crate segment of a `module_path!()`.
const fn crate_of(module: &str) -> &str {
    let bytes = module.as_bytes();
    let mut i = 0;
    while i < bytes.len() && bytes[i] != b':' {
        i += 1;
    }
    let (head, _) = module.split_at(i);
    head
}

/// `true` when `module` lies in a workspace library other than
/// `owner`. Test binaries, doctests and examples are not libraries,
/// so they may touch any catalogued name.
const fn foreign_library(module: &str, owner: Owner) -> bool {
    let krate = crate_of(module);
    krate.len() > 5 && str_eq(krate.split_at(5).0, "sram_") && !str_eq(krate, owner.lib())
}

/// Checks one probe site: `name` is catalogued, as `kind`, and
/// `module` lies in the owner's library. Called in a `const` by every
/// probe macro, so a failure is a compile error naming the probe.
///
/// # Panics
///
/// Panics (at compile time, in the macros) on an unknown name, a kind
/// clash, or a name recorded from another workspace library.
pub const fn check(name: &str, kind: Kind, module: &str) {
    let mut i = 0;
    while i < PROBES.len() {
        let row = &PROBES[i];
        if str_eq(row.name, name) {
            if row.kind as u8 != kind as u8 {
                fail(&[
                    "probe `",
                    name,
                    "` is catalogued as a ",
                    row.kind.word(),
                    " but recorded as a ",
                    kind.word(),
                ]);
            }
            if foreign_library(module, row.owner) {
                fail(&[
                    "probe `",
                    name,
                    "` belongs to ",
                    row.owner.lib(),
                    " but is recorded in ",
                    crate_of(module),
                ]);
            }
            return;
        }
        i += 1;
    }
    fail(&[
        "probe `",
        name,
        "` is not in the catalogue (sram_probe::catalogue::PROBES)",
    ]);
}

/// A catalogued `SRAM_*` environment variable, made only by
/// [`env_var!`](crate::env_var) (or [`EnvVar::checked`]), so every read
/// names a variable that [`ENV_VARS`] documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvVar(&'static str);

impl EnvVar {
    /// Checks that `name` is catalogued and that `module` lies in its
    /// owner's library. [`env_var!`](crate::env_var) calls this in a
    /// `const`, so a failure is a compile error naming the variable.
    ///
    /// # Panics
    ///
    /// Panics on an unknown variable or a read from another workspace
    /// library.
    #[must_use]
    pub const fn checked(name: &'static str, module: &str) -> Self {
        let mut i = 0;
        while i < ENV_VARS.len() {
            let row = &ENV_VARS[i];
            if str_eq(row.name, name) {
                if foreign_library(module, row.owner) {
                    fail(&[
                        "env var `",
                        name,
                        "` belongs to ",
                        row.owner.lib(),
                        " but is read in ",
                        crate_of(module),
                    ]);
                }
                return Self(name);
            }
            i += 1;
        }
        fail(&[
            "env var `",
            name,
            "` is not in the catalogue (sram_probe::catalogue::ENV_VARS)",
        ])
    }

    /// The variable's name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        self.0
    }

    /// The variable's value; `None` when unset or not Unicode.
    #[must_use]
    pub fn get(self) -> Option<String> {
        #[allow(clippy::disallowed_methods)]
        let value = std::env::var(self.0).ok();
        value
    }

    /// The variable's raw value; `None` when unset.
    #[must_use]
    pub fn get_os(self) -> Option<std::ffi::OsString> {
        #[allow(clippy::disallowed_methods)]
        let value = std::env::var_os(self.0);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_vars_are_sorted_uppercase_sram_names() {
        for var in ENV_VARS {
            assert!(
                var.name.starts_with("SRAM_")
                    && var
                        .name
                        .bytes()
                        .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_'),
                "{}: SRAM_ and uppercase",
                var.name
            );
        }
        for pair in ENV_VARS.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "{} then {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn checks_accept_the_owner_and_test_code() {
        check("spice.dc_solves", Kind::Counter, "sram_spice::dc");
        check("spice.dc_solves", Kind::Counter, "search_probes");
        assert_eq!(
            EnvVar::checked("SRAM_PROBE", "sram_probe::level").name(),
            "SRAM_PROBE"
        );
        assert_eq!(crate_of("sram_cell::write"), "sram_cell");
        assert!(foreign_library("sram_cell::write", Owner::Spice));
        assert!(!foreign_library("write_fallback", Owner::Spice));
    }

    #[test]
    #[should_panic(expected = "env var `SRAM_X` is not in the catalogue")]
    fn an_unknown_env_var_is_named() {
        let _ = EnvVar::checked("SRAM_X", "sram_cell");
    }
}
