//! Per-query-type latency SLOs with multi-window error-budget burn
//! rates.
//!
//! Every op has a latency objective (default `DEFAULT_SLO_MS`,
//! overridable globally via `SRAM_SLO_MS` or per op via
//! `SRAM_SLO_<OP>_MS`, e.g. `SRAM_SLO_EVALUATE_POINT_MS`). Each served
//! request increments `serve.slo.<op>.total` and, when its end-to-end
//! latency exceeds the objective, `serve.slo.<op>.breach`. Both
//! counters bypass the probe level gate (the `probe.trace.dropped`
//! pattern) because the `health` surface must work with probes off.
//!
//! Burn rate is the classic error-budget form: with a target success
//! ratio of `TARGET_SUCCESS`, a budget of `1 − target` failures is
//! allowed, and `burn = breach_fraction / (1 − target)` says how many
//! times faster than sustainable the budget is being spent. Burn is
//! computed over two windows from the telemetry ring — the whole ring
//! (long) and the newest window (short) — so `health` can distinguish
//! a slow leak from an active fire.

use std::sync::OnceLock;

use sram_probe::telemetry::Export;
use sram_probe::{env_var, probe_handle, Counter, EnvVar};

/// Default per-request latency objective in milliseconds.
const DEFAULT_SLO_MS: u64 = 250;

/// Target success ratio: 99% of requests inside the objective.
const TARGET_SUCCESS: f64 = 0.99;

/// One op's SLO: wire name, objective, and its two counters.
struct Resolved {
    op: &'static str,
    objective_ms: u64,
    total: &'static Counter,
    breach: &'static Counter,
}

fn parse_ms(var: EnvVar) -> Option<u64> {
    var.get()?.trim().parse::<u64>().ok()
}

/// Every wire op, in registry order, with its counter handles and
/// objective, resolved once per process (env is read at first use, like
/// the telemetry window knobs). Counter names replace `-` with `_` to
/// stay inside the probe naming grammar.
fn resolved() -> &'static [Resolved] {
    static TABLE: OnceLock<Vec<Resolved>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let global = parse_ms(env_var!("SRAM_SLO_MS"));
        let op = |op, env, total, breach| Resolved {
            op,
            objective_ms: parse_ms(env)
                .or(global)
                .unwrap_or(DEFAULT_SLO_MS)
                .clamp(1, 3_600_000),
            total,
            breach,
        };
        vec![
            op(
                "optimize",
                env_var!("SRAM_SLO_OPTIMIZE_MS"),
                probe_handle!(counter "serve.slo.optimize.total"),
                probe_handle!(counter "serve.slo.optimize.breach"),
            ),
            op(
                "evaluate-point",
                env_var!("SRAM_SLO_EVALUATE_POINT_MS"),
                probe_handle!(counter "serve.slo.evaluate_point.total"),
                probe_handle!(counter "serve.slo.evaluate_point.breach"),
            ),
            op(
                "pareto-front",
                env_var!("SRAM_SLO_PARETO_FRONT_MS"),
                probe_handle!(counter "serve.slo.pareto_front.total"),
                probe_handle!(counter "serve.slo.pareto_front.breach"),
            ),
            op(
                "yield-check",
                env_var!("SRAM_SLO_YIELD_CHECK_MS"),
                probe_handle!(counter "serve.slo.yield_check.total"),
                probe_handle!(counter "serve.slo.yield_check.breach"),
            ),
            op(
                "metrics",
                env_var!("SRAM_SLO_METRICS_MS"),
                probe_handle!(counter "serve.slo.metrics.total"),
                probe_handle!(counter "serve.slo.metrics.breach"),
            ),
            op(
                "health",
                env_var!("SRAM_SLO_HEALTH_MS"),
                probe_handle!(counter "serve.slo.health.total"),
                probe_handle!(counter "serve.slo.health.breach"),
            ),
        ]
    })
}

/// Records one served request against its op's objective. Unknown ops
/// (future protocol growth) are ignored rather than miscounted.
pub fn record(op: &str, latency_ns: u64) {
    for r in resolved() {
        if r.op == op {
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
                (ring_delta(r.total.name()), ring_delta(r.breach.name()))
            } else {
                (r.total.get(), r.breach.get())
            };
            if total == 0 {
                return None;
            }
            let burn_long = burn_rate(breach, total);
            let burn_short = if has_ring {
                burn_rate(last_delta(r.breach.name()), last_delta(r.total.name()))
            } else {
                burn_long
            };
            Some(SloStatus {
                op: r.op,
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
        for r in resolved() {
            let op = r.op.replace('-', "_");
            assert_eq!(r.total.name(), format!("serve.slo.{op}.total"));
            assert_eq!(r.breach.name(), format!("serve.slo.{op}.breach"));
        }
    }
}
