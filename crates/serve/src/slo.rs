//! Per-query-type latency SLOs with multi-window error-budget burn
//! rates.
//!
//! Every op has a latency objective (default [`DEFAULT_SLO_MS`],
//! overridable globally via `SRAM_SLO_MS` or per op via
//! `SRAM_SLO_<OP>_MS`, e.g. `SRAM_SLO_EVALUATE_POINT_MS`). Each served
//! request increments `serve.slo.<op>.total` and, when its end-to-end
//! latency exceeds the objective, `serve.slo.<op>.breach`. Both
//! counters bypass the probe level gate (the `probe.trace.dropped`
//! pattern) because the `health` surface must work with probes off.
//!
//! Burn rate is the classic error-budget form: with a target success
//! ratio of [`TARGET_SUCCESS`], a budget of `1 − target` failures is
//! allowed, and `burn = breach_fraction / (1 − target)` says how many
//! times faster than sustainable the budget is being spent. Burn is
//! computed over two windows from the telemetry ring — the whole ring
//! (long) and the newest window (short) — so `health` can distinguish
//! a slow leak from an active fire.

use std::sync::OnceLock;

use sram_probe::telemetry::Export;
use sram_probe::Counter;

/// Default per-request latency objective in milliseconds.
pub const DEFAULT_SLO_MS: u64 = 250;

/// Target success ratio: 99% of requests inside the objective.
pub const TARGET_SUCCESS: f64 = 0.99;

/// One op's SLO wiring: wire name, env override, counter names.
struct OpSlo {
    op: &'static str,
    env: &'static str,
    total: &'static str,
    breach: &'static str,
}

/// Every wire op, in registry order. Counter names replace `-` with
/// `_` to stay inside the probe naming grammar.
const OPS: &[OpSlo] = &[
    OpSlo {
        op: "optimize",
        env: "SRAM_SLO_OPTIMIZE_MS",
        total: "serve.slo.optimize.total",
        breach: "serve.slo.optimize.breach",
    },
    OpSlo {
        op: "evaluate-point",
        env: "SRAM_SLO_EVALUATE_POINT_MS",
        total: "serve.slo.evaluate_point.total",
        breach: "serve.slo.evaluate_point.breach",
    },
    OpSlo {
        op: "pareto-front",
        env: "SRAM_SLO_PARETO_FRONT_MS",
        total: "serve.slo.pareto_front.total",
        breach: "serve.slo.pareto_front.breach",
    },
    OpSlo {
        op: "yield-check",
        env: "SRAM_SLO_YIELD_CHECK_MS",
        total: "serve.slo.yield_check.total",
        breach: "serve.slo.yield_check.breach",
    },
    OpSlo {
        op: "metrics",
        env: "SRAM_SLO_METRICS_MS",
        total: "serve.slo.metrics.total",
        breach: "serve.slo.metrics.breach",
    },
    OpSlo {
        op: "health",
        env: "SRAM_SLO_HEALTH_MS",
        total: "serve.slo.health.total",
        breach: "serve.slo.health.breach",
    },
];

struct Resolved {
    spec: &'static OpSlo,
    total: &'static Counter,
    breach: &'static Counter,
    objective_ms: u64,
}

fn parse_ms(var: &str) -> Option<u64> {
    std::env::var(var).ok()?.trim().parse::<u64>().ok()
}

/// Counter handles and objectives, resolved once per process (env is
/// read at first use, like the telemetry window knobs).
fn resolved() -> &'static [Resolved] {
    static TABLE: OnceLock<Vec<Resolved>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let global = parse_ms("SRAM_SLO_MS");
        OPS.iter()
            .map(|spec| Resolved {
                spec,
                total: sram_probe::counter(spec.total),
                breach: sram_probe::counter(spec.breach),
                objective_ms: parse_ms(spec.env)
                    .or(global)
                    .unwrap_or(DEFAULT_SLO_MS)
                    .clamp(1, 3_600_000),
            })
            .collect()
    })
}

/// Records one served request against its op's objective. Unknown ops
/// (future protocol growth) are ignored rather than miscounted.
pub fn record(op: &str, latency_ns: u64) {
    for r in resolved() {
        if r.spec.op == op {
            r.total.inc();
            if latency_ns > r.objective_ms.saturating_mul(1_000_000) {
                r.breach.inc();
            }
            return;
        }
    }
}

/// `breach_fraction / (1 − target)` — how many times faster than
/// sustainable the error budget burns. Zero traffic burns nothing.
#[must_use]
pub fn burn_rate(breach: u64, total: u64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    (breach as f64 / total as f64) / (1.0 - TARGET_SUCCESS)
}

/// One op's burn-rate status as surfaced by `health`.
#[derive(Debug, Clone, Copy)]
pub struct SloStatus {
    /// Wire op name.
    pub op: &'static str,
    /// Latency objective in milliseconds.
    pub objective_ms: u64,
    /// Requests observed over the long window (whole ring, or process
    /// lifetime when the ring is empty).
    pub total: u64,
    /// Objective breaches over the same window.
    pub breach: u64,
    /// Burn rate over the whole ring.
    pub burn_long: f64,
    /// Burn rate over the newest window only.
    pub burn_short: f64,
}

/// Burn-rate statuses for every op that has seen traffic, computed
/// from one telemetry [`Export`] (so `health` and `metrics` agree).
#[must_use]
pub fn statuses(export: &Export) -> Vec<SloStatus> {
    let ring_delta = |name: &str| export.counters.get(name).map_or(0, |s| s.delta);
    let last_delta = |name: &str| {
        export
            .windows
            .last()
            .and_then(|w| w.delta.counters.get(name).copied())
            .unwrap_or(0)
    };
    let has_ring = !export.windows.is_empty();
    resolved()
        .iter()
        .filter_map(|r| {
            let (total, breach) = if has_ring {
                (ring_delta(r.spec.total), ring_delta(r.spec.breach))
            } else {
                (r.total.get(), r.breach.get())
            };
            if total == 0 {
                return None;
            }
            let burn_long = burn_rate(breach, total);
            let burn_short = if has_ring {
                burn_rate(last_delta(r.spec.breach), last_delta(r.spec.total))
            } else {
                burn_long
            };
            Some(SloStatus {
                op: r.spec.op,
                objective_ms: r.objective_ms,
                total,
                breach,
                burn_long,
                burn_short,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_rate_scales_with_breach_fraction() {
        assert_eq!(burn_rate(0, 0), 0.0);
        assert_eq!(burn_rate(0, 100), 0.0);
        // Exactly on budget: 1% breaches at a 99% target burns at 1×.
        assert!((burn_rate(1, 100) - 1.0).abs() < 1e-9);
        // Everything breaching burns the budget 100× too fast.
        assert!((burn_rate(50, 50) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn op_table_is_well_formed() {
        for spec in OPS {
            assert!(spec.total.starts_with("serve.slo."), "{}", spec.total);
            assert!(spec.breach.starts_with("serve.slo."), "{}", spec.breach);
            assert!(!spec.total.contains('-'), "{}", spec.total);
            assert!(spec.env.starts_with("SRAM_SLO_"), "{}", spec.env);
        }
        // Names are unique across the table.
        let mut names: Vec<&str> = OPS.iter().flat_map(|s| [s.total, s.breach]).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OPS.len() * 2);
    }
}
