//! Typed queries: strict wire-to-[`Query`] parsing, canonical cache
//! keys, and the batching key.
//!
//! Every request line is an object with an `"op"` field naming one of
//! the query kinds, the kind's own fields, and four optional envelope
//! fields: `"id"` (echoed verbatim in the response), `"deadline_ms"`
//! (per-request budget), `"trace"` (when `true`, the response carries
//! the request's span tree inline), and `"trace_ctx"` (a propagated
//! [`TraceCtx`] in its `00-<trace id>-<parent span>-<flags>` wire form;
//! when present its sampling flag overrides local sampling and the
//! server re-roots its span tree under the remote parent). Unknown
//! fields are rejected — a misspelled parameter silently falling back
//! to a default is the worst failure mode a query service can have.
//!
//! Two queries that differ only in field order (or envelope fields)
//! must hit the same cache entry, so the cache key is derived from a
//! *canonical* rendering of the parsed query, never from the raw line.

use crate::error::ServeError;
use crate::Json;
use sram_coopt::{
    DelayOnly, EnergyDelayProduct, EnergyDelaySquared, EnergyOnly, Method, Objective,
};
use sram_device::VtFlavor;
use sram_probe::trace::TraceCtx;

/// Largest accepted capacity (64 MiB) — guards the exhaustive search
/// from absurd requests.
const MAX_CAPACITY_BYTES: u64 = 64 * 1024 * 1024;

/// Largest accepted Monte Carlo sample count.
const MAX_YIELD_SAMPLES: u64 = 100_000;

/// Largest accepted per-request deadline (one hour).
const MAX_DEADLINE_MS: u64 = 3_600_000;

/// The optimization objective a query may select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveKind {
    /// `E × D` — the paper's objective (wire: `"edp"`, the default).
    Edp,
    /// `E × D²` (wire: `"ed2p"`).
    Ed2p,
    /// Pure delay (wire: `"delay"`).
    Delay,
    /// Pure energy (wire: `"energy"`).
    Energy,
}

impl ObjectiveKind {
    /// The scoring object behind this kind.
    #[must_use]
    pub fn objective(self) -> &'static (dyn Objective + Sync) {
        match self {
            ObjectiveKind::Edp => &EnergyDelayProduct,
            ObjectiveKind::Ed2p => &EnergyDelaySquared,
            ObjectiveKind::Delay => &DelayOnly,
            ObjectiveKind::Energy => &EnergyOnly,
        }
    }

    /// The wire name.
    #[must_use]
    pub fn wire(self) -> &'static str {
        match self {
            ObjectiveKind::Edp => "edp",
            ObjectiveKind::Ed2p => "ed2p",
            ObjectiveKind::Delay => "delay",
            ObjectiveKind::Energy => "energy",
        }
    }

    fn parse(s: &str) -> Result<Self, ServeError> {
        match s {
            "edp" => Ok(ObjectiveKind::Edp),
            "ed2p" => Ok(ObjectiveKind::Ed2p),
            "delay" => Ok(ObjectiveKind::Delay),
            "energy" => Ok(ObjectiveKind::Energy),
            other => Err(ServeError::InvalidQuery(format!(
                "unknown objective {other:?} (expected edp|ed2p|delay|energy)"
            ))),
        }
    }
}

/// A validated query — the in-process API mirror of the wire protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Full co-optimization of one `(capacity, flavor, method)` under an
    /// objective — one Table-4 row.
    Optimize {
        /// Memory capacity in bytes.
        capacity_bytes: u64,
        /// Cell flavor.
        flavor: VtFlavor,
        /// Rail policy.
        method: Method,
        /// Objective to minimize.
        objective: ObjectiveKind,
    },
    /// Evaluate one explicit design point through the array model.
    EvaluatePoint {
        /// Memory capacity in bytes.
        capacity_bytes: u64,
        /// Cell flavor.
        flavor: VtFlavor,
        /// Rail policy.
        method: Method,
        /// Array rows `n_r` (columns follow from the capacity).
        rows: u32,
        /// Negative-Gnd level in millivolts (≤ 0 for an assist).
        vssc_mv: i64,
        /// Precharger fins `N_pre`.
        n_pre: u32,
        /// Write-buffer fins `N_wr`.
        n_wr: u32,
    },
    /// Energy/delay Pareto front over the feasible design space.
    ParetoFront {
        /// Memory capacity in bytes.
        capacity_bytes: u64,
        /// Cell flavor.
        flavor: VtFlavor,
        /// Rail policy.
        method: Method,
    },
    /// Optimize, then Monte Carlo-verify the winner against the
    /// statistical yield constraint.
    YieldCheck {
        /// Memory capacity in bytes.
        capacity_bytes: u64,
        /// Cell flavor.
        flavor: VtFlavor,
        /// Rail policy.
        method: Method,
        /// Monte Carlo sample count.
        samples: u64,
    },
    /// Windowed telemetry as JSON (rates, deltas, streaming
    /// quantiles), with uptime, the engine's own counters, and cache
    /// occupancy.
    /// Answered directly by the engine (never cached, never
    /// characterized).
    Metrics,
    /// Health verdict (`ok|degraded|unhealthy`) with reasons: worker
    /// liveness/respawns, queue pressure, cache occupancy, windowed
    /// expiry/reject rates, and SLO burn rates. Answered directly by
    /// the engine (never cached, never characterized).
    Health,
}

/// A query plus its request envelope (client id, deadline, trace flag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen id, echoed verbatim in the response.
    pub id: Option<String>,
    /// Per-request deadline budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// When `true`, the server traces this request and inlines its span
    /// tree in the response under `"trace"`.
    pub trace: bool,
    /// Propagated trace context from an upstream caller (a router).
    /// When present, its sampling decision governs tracing (the local
    /// `trace` flag and sampler are bypassed) and the server's
    /// `serve.request` root adopts the context's parent span.
    pub trace_ctx: Option<TraceCtx>,
    /// The validated query.
    pub query: Query,
}

fn flavor_wire(flavor: VtFlavor) -> &'static str {
    match flavor {
        VtFlavor::Lvt => "lvt",
        VtFlavor::Hvt => "hvt",
    }
}

fn method_wire(method: Method) -> &'static str {
    match method {
        Method::M1 => "m1",
        Method::M2 => "m2",
    }
}

fn parse_flavor(s: &str) -> Result<VtFlavor, ServeError> {
    match s.to_ascii_lowercase().as_str() {
        "lvt" => Ok(VtFlavor::Lvt),
        "hvt" => Ok(VtFlavor::Hvt),
        other => Err(ServeError::InvalidQuery(format!(
            "unknown flavor {other:?} (expected lvt|hvt)"
        ))),
    }
}

fn parse_method(s: &str) -> Result<Method, ServeError> {
    match s.to_ascii_lowercase().as_str() {
        "m1" => Ok(Method::M1),
        "m2" => Ok(Method::M2),
        other => Err(ServeError::InvalidQuery(format!(
            "unknown method {other:?} (expected m1|m2)"
        ))),
    }
}

/// Typed field access over a request object with strictness helpers.
struct Fields<'a> {
    obj: &'a [(String, Json)],
}

impl<'a> Fields<'a> {
    fn get(&self, key: &str) -> Option<&'a Json> {
        self.obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn str_field(&self, key: &str) -> Result<&'a str, ServeError> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::InvalidQuery(format!("missing string field {key:?}")))
    }

    fn u64_field(&self, key: &str) -> Result<u64, ServeError> {
        self.get(key).and_then(Json::as_u64).ok_or_else(|| {
            ServeError::InvalidQuery(format!("missing non-negative integer field {key:?}"))
        })
    }

    fn u32_field(&self, key: &str) -> Result<u32, ServeError> {
        u32::try_from(self.u64_field(key)?)
            .map_err(|_| ServeError::InvalidQuery(format!("field {key:?} exceeds 32-bit range")))
    }

    fn i64_field(&self, key: &str) -> Result<i64, ServeError> {
        self.get(key)
            .and_then(Json::as_i64)
            .ok_or_else(|| ServeError::InvalidQuery(format!("missing integer field {key:?}")))
    }

    fn reject_unknown(&self, op_fields: &[&str]) -> Result<(), ServeError> {
        for (key, _) in self.obj {
            if !ENVELOPE.contains(&key.as_str()) && !op_fields.contains(&key.as_str()) {
                return Err(ServeError::InvalidQuery(format!("unknown field {key:?}")));
            }
        }
        Ok(())
    }
}

/// Envelope fields accepted on every op.
const ENVELOPE: [&str; 5] = ["op", "id", "deadline_ms", "trace", "trace_ctx"];

fn capacity_field(fields: &Fields<'_>) -> Result<u64, ServeError> {
    let bytes = fields.u64_field("capacity_bytes")?;
    if bytes == 0 || bytes > MAX_CAPACITY_BYTES {
        return Err(ServeError::InvalidQuery(format!(
            "capacity_bytes must be in 1..={MAX_CAPACITY_BYTES}, got {bytes}"
        )));
    }
    Ok(bytes)
}

impl Request {
    /// Parses and validates one request line.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] for malformed JSON,
    /// [`ServeError::InvalidQuery`] for well-formed JSON that is not a
    /// valid query (wrong shape, unknown op/field, repeated field,
    /// out-of-range value).
    pub fn from_line(line: &str) -> Result<Self, ServeError> {
        let json = Json::parse(line).map_err(|e| ServeError::Protocol(e.to_string()))?;
        Self::from_json(&json)
    }

    /// Validates one already-parsed request.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidQuery`] for a value that is not a valid
    /// query (wrong shape, unknown op/field, repeated field, out-of-range
    /// value).
    pub fn from_json(json: &Json) -> Result<Self, ServeError> {
        let obj = match json {
            Json::Obj(pairs) => pairs.as_slice(),
            _ => return Err(ServeError::InvalidQuery("request must be an object".into())),
        };
        if let Some(key) = sram_probe::json::repeated_key(obj) {
            return Err(ServeError::InvalidQuery(format!("repeated field {key:?}")));
        }
        let fields = Fields { obj };

        let id = match fields.get("id") {
            None => None,
            Some(v) => Some(
                v.as_str()
                    .ok_or_else(|| ServeError::InvalidQuery("id must be a string".into()))?
                    .to_string(),
            ),
        };
        let deadline_ms = match fields.get("deadline_ms") {
            None => None,
            Some(v) => {
                let ms = v.as_u64().ok_or_else(|| {
                    ServeError::InvalidQuery("deadline_ms must be a non-negative integer".into())
                })?;
                if ms == 0 || ms > MAX_DEADLINE_MS {
                    return Err(ServeError::InvalidQuery(format!(
                        "deadline_ms must be in 1..={MAX_DEADLINE_MS}, got {ms}"
                    )));
                }
                Some(ms)
            }
        };
        let trace = match fields.get("trace") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| ServeError::InvalidQuery("trace must be a boolean".into()))?,
        };
        let trace_ctx = match fields.get("trace_ctx") {
            None => None,
            Some(v) => {
                let s = v
                    .as_str()
                    .ok_or_else(|| ServeError::InvalidQuery("trace_ctx must be a string".into()))?;
                Some(TraceCtx::parse(s).ok_or_else(|| {
                    ServeError::InvalidQuery(format!(
                        "trace_ctx must be 00-<16 hex>-<16 hex>-<01|00>, got {s:?}"
                    ))
                })?)
            }
        };

        let op = fields.str_field("op")?;
        let query = match op {
            "optimize" => {
                fields.reject_unknown(&["capacity_bytes", "flavor", "method", "objective"])?;
                Query::Optimize {
                    capacity_bytes: capacity_field(&fields)?,
                    flavor: parse_flavor(fields.str_field("flavor")?)?,
                    method: parse_method(fields.str_field("method")?)?,
                    objective: match fields.get("objective") {
                        None => ObjectiveKind::Edp,
                        Some(v) => ObjectiveKind::parse(v.as_str().ok_or_else(|| {
                            ServeError::InvalidQuery("objective must be a string".into())
                        })?)?,
                    },
                }
            }
            "evaluate-point" => {
                fields.reject_unknown(&[
                    "capacity_bytes",
                    "flavor",
                    "method",
                    "rows",
                    "vssc_mv",
                    "n_pre",
                    "n_wr",
                ])?;
                let rows = fields.u32_field("rows")?;
                if rows == 0 || !rows.is_power_of_two() {
                    return Err(ServeError::InvalidQuery(format!(
                        "rows must be a positive power of two, got {rows}"
                    )));
                }
                let vssc_mv = fields.i64_field("vssc_mv")?;
                if !(-1000..=0).contains(&vssc_mv) {
                    return Err(ServeError::InvalidQuery(format!(
                        "vssc_mv must be in -1000..=0, got {vssc_mv}"
                    )));
                }
                let n_pre = fields.u32_field("n_pre")?;
                let n_wr = fields.u32_field("n_wr")?;
                if n_pre == 0 || n_wr == 0 || n_pre > 1000 || n_wr > 1000 {
                    return Err(ServeError::InvalidQuery(
                        "n_pre and n_wr must be in 1..=1000".into(),
                    ));
                }
                Query::EvaluatePoint {
                    capacity_bytes: capacity_field(&fields)?,
                    flavor: parse_flavor(fields.str_field("flavor")?)?,
                    method: parse_method(fields.str_field("method")?)?,
                    rows,
                    vssc_mv,
                    n_pre,
                    n_wr,
                }
            }
            "pareto-front" => {
                fields.reject_unknown(&["capacity_bytes", "flavor", "method"])?;
                Query::ParetoFront {
                    capacity_bytes: capacity_field(&fields)?,
                    flavor: parse_flavor(fields.str_field("flavor")?)?,
                    method: parse_method(fields.str_field("method")?)?,
                }
            }
            "yield-check" => {
                fields.reject_unknown(&["capacity_bytes", "flavor", "method", "samples"])?;
                let samples = fields.u64_field("samples")?;
                if samples == 0 || samples > MAX_YIELD_SAMPLES {
                    return Err(ServeError::InvalidQuery(format!(
                        "samples must be in 1..={MAX_YIELD_SAMPLES}, got {samples}"
                    )));
                }
                Query::YieldCheck {
                    capacity_bytes: capacity_field(&fields)?,
                    flavor: parse_flavor(fields.str_field("flavor")?)?,
                    method: parse_method(fields.str_field("method")?)?,
                    samples,
                }
            }
            "metrics" => {
                fields.reject_unknown(&[])?;
                Query::Metrics
            }
            "health" => {
                fields.reject_unknown(&[])?;
                Query::Health
            }
            other => {
                return Err(ServeError::InvalidQuery(format!(
                "unknown op {other:?} (expected optimize|evaluate-point|pareto-front|yield-check|metrics|health)"
            )))
            }
        };

        Ok(Request {
            id,
            deadline_ms,
            trace,
            trace_ctx,
            query,
        })
    }

    /// Renders the request back to a wire line (client side).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = Vec::new();
        if let Some(id) = &self.id {
            pairs.push(("id".into(), Json::Str(id.clone())));
        }
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline_ms".into(), Json::Num(ms as f64)));
        }
        if self.trace {
            pairs.push(("trace".into(), Json::Bool(true)));
        }
        if let Some(ctx) = &self.trace_ctx {
            pairs.push(("trace_ctx".into(), Json::Str(ctx.encode())));
        }
        let num = |v: f64| Json::Num(v);
        match &self.query {
            Query::Optimize {
                capacity_bytes,
                flavor,
                method,
                objective,
            } => {
                pairs.push(("op".into(), Json::Str("optimize".into())));
                pairs.push(("capacity_bytes".into(), num(*capacity_bytes as f64)));
                pairs.push(("flavor".into(), Json::Str(flavor_wire(*flavor).into())));
                pairs.push(("method".into(), Json::Str(method_wire(*method).into())));
                pairs.push(("objective".into(), Json::Str(objective.wire().into())));
            }
            Query::EvaluatePoint {
                capacity_bytes,
                flavor,
                method,
                rows,
                vssc_mv,
                n_pre,
                n_wr,
            } => {
                pairs.push(("op".into(), Json::Str("evaluate-point".into())));
                pairs.push(("capacity_bytes".into(), num(*capacity_bytes as f64)));
                pairs.push(("flavor".into(), Json::Str(flavor_wire(*flavor).into())));
                pairs.push(("method".into(), Json::Str(method_wire(*method).into())));
                pairs.push(("rows".into(), num(f64::from(*rows))));
                pairs.push(("vssc_mv".into(), num(*vssc_mv as f64)));
                pairs.push(("n_pre".into(), num(f64::from(*n_pre))));
                pairs.push(("n_wr".into(), num(f64::from(*n_wr))));
            }
            Query::ParetoFront {
                capacity_bytes,
                flavor,
                method,
            } => {
                pairs.push(("op".into(), Json::Str("pareto-front".into())));
                pairs.push(("capacity_bytes".into(), num(*capacity_bytes as f64)));
                pairs.push(("flavor".into(), Json::Str(flavor_wire(*flavor).into())));
                pairs.push(("method".into(), Json::Str(method_wire(*method).into())));
            }
            Query::YieldCheck {
                capacity_bytes,
                flavor,
                method,
                samples,
            } => {
                pairs.push(("op".into(), Json::Str("yield-check".into())));
                pairs.push(("capacity_bytes".into(), num(*capacity_bytes as f64)));
                pairs.push(("flavor".into(), Json::Str(flavor_wire(*flavor).into())));
                pairs.push(("method".into(), Json::Str(method_wire(*method).into())));
                pairs.push(("samples".into(), num(*samples as f64)));
            }
            Query::Metrics => {
                pairs.push(("op".into(), Json::Str("metrics".into())));
            }
            Query::Health => {
                pairs.push(("op".into(), Json::Str("health".into())));
            }
        }
        Json::Obj(pairs)
    }
}

impl Query {
    /// The wire op name (`"optimize"`, `"metrics"`, …) — the key SLO
    /// tracking groups latency objectives by.
    #[must_use]
    pub fn op(&self) -> &'static str {
        match self {
            Query::Optimize { .. } => "optimize",
            Query::EvaluatePoint { .. } => "evaluate-point",
            Query::ParetoFront { .. } => "pareto-front",
            Query::YieldCheck { .. } => "yield-check",
            Query::Metrics => "metrics",
            Query::Health => "health",
        }
    }

    /// Canonical rendering — field-order-independent, envelope-free.
    /// Two wire lines describing the same query always canonicalize to
    /// the same string, which is the content the cache key hashes.
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            Query::Optimize {
                capacity_bytes,
                flavor,
                method,
                objective,
            } => format!(
                "optimize|cap={capacity_bytes}|flavor={}|method={}|obj={}",
                flavor_wire(*flavor),
                method_wire(*method),
                objective.wire()
            ),
            Query::EvaluatePoint {
                capacity_bytes,
                flavor,
                method,
                rows,
                vssc_mv,
                n_pre,
                n_wr,
            } => format!(
                "evaluate-point|cap={capacity_bytes}|flavor={}|method={}|rows={rows}|vssc={vssc_mv}|npre={n_pre}|nwr={n_wr}",
                flavor_wire(*flavor),
                method_wire(*method)
            ),
            Query::ParetoFront {
                capacity_bytes,
                flavor,
                method,
            } => format!(
                "pareto-front|cap={capacity_bytes}|flavor={}|method={}",
                flavor_wire(*flavor),
                method_wire(*method)
            ),
            Query::YieldCheck {
                capacity_bytes,
                flavor,
                method,
                samples,
            } => format!(
                "yield-check|cap={capacity_bytes}|flavor={}|method={}|samples={samples}",
                flavor_wire(*flavor),
                method_wire(*method)
            ),
            Query::Metrics => "metrics".to_string(),
            Query::Health => "health".to_string(),
        }
    }

    /// The content-addressed cache key: FNV-1a of [`Self::canonical`].
    #[must_use]
    pub fn key(&self) -> u64 {
        sram_probe::hash::fnv1a64(self.canonical().as_bytes())
    }

    /// The batching key: queries sharing a `(flavor, method)` pair can
    /// share one cell characterization pass. `None` for queries that
    /// need no characterization at all ([`Query::Metrics`]).
    #[must_use]
    pub fn char_key(&self) -> Option<(VtFlavor, Method)> {
        match *self {
            Query::Optimize { flavor, method, .. }
            | Query::EvaluatePoint { flavor, method, .. }
            | Query::ParetoFront { flavor, method, .. }
            | Query::YieldCheck { flavor, method, .. } => Some((flavor, method)),
            Query::Metrics | Query::Health => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimize_parses_with_default_objective() {
        let r = Request::from_line(
            r#"{"op":"optimize","capacity_bytes":4096,"flavor":"hvt","method":"m2"}"#,
        )
        .unwrap();
        assert_eq!(
            r.query,
            Query::Optimize {
                capacity_bytes: 4096,
                flavor: VtFlavor::Hvt,
                method: Method::M2,
                objective: ObjectiveKind::Edp,
            }
        );
        assert!(r.id.is_none());
        assert!(r.deadline_ms.is_none());
    }

    #[test]
    fn envelope_fields_round_trip() {
        let r = Request::from_line(
            r#"{"id":"q7","deadline_ms":250,"op":"optimize","capacity_bytes":128,"flavor":"lvt","method":"m1","objective":"delay"}"#,
        )
        .unwrap();
        assert_eq!(r.id.as_deref(), Some("q7"));
        assert_eq!(r.deadline_ms, Some(250));
        let rendered = r.to_json().render();
        let back = Request::from_line(&rendered).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn field_order_does_not_change_key() {
        let a = Request::from_line(
            r#"{"op":"optimize","capacity_bytes":4096,"flavor":"hvt","method":"m2","objective":"edp"}"#,
        )
        .unwrap();
        let b = Request::from_line(
            r#"{"method":"M2","objective":"edp","op":"optimize","flavor":"HVT","capacity_bytes":4096}"#,
        )
        .unwrap();
        assert_eq!(a.query.canonical(), b.query.canonical());
        assert_eq!(a.query.key(), b.query.key());
    }

    #[test]
    fn distinct_queries_have_distinct_canonicals() {
        let mk = |line: &str| Request::from_line(line).unwrap().query;
        let q1 = mk(r#"{"op":"optimize","capacity_bytes":4096,"flavor":"hvt","method":"m2"}"#);
        let q2 = mk(r#"{"op":"optimize","capacity_bytes":4096,"flavor":"hvt","method":"m1"}"#);
        let q3 = mk(r#"{"op":"optimize","capacity_bytes":4096,"flavor":"lvt","method":"m2"}"#);
        let q4 = mk(r#"{"op":"pareto-front","capacity_bytes":4096,"flavor":"hvt","method":"m2"}"#);
        let canonicals = [
            q1.canonical(),
            q2.canonical(),
            q3.canonical(),
            q4.canonical(),
        ];
        for i in 0..canonicals.len() {
            for j in (i + 1)..canonicals.len() {
                assert_ne!(canonicals[i], canonicals[j]);
            }
        }
    }

    #[test]
    fn unknown_field_is_rejected() {
        let err = Request::from_line(
            r#"{"op":"optimize","capacity_bytes":4096,"flavor":"hvt","method":"m2","capicity":1}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("capicity"), "{err}");
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        for line in [
            r#"{"op":"optimize","capacity_bytes":0,"flavor":"hvt","method":"m2"}"#,
            r#"{"op":"optimize","capacity_bytes":4096,"flavor":"xvt","method":"m2"}"#,
            r#"{"op":"optimize","capacity_bytes":4096,"flavor":"hvt","method":"m3"}"#,
            r#"{"op":"yield-check","capacity_bytes":4096,"flavor":"hvt","method":"m2","samples":0}"#,
            r#"{"op":"evaluate-point","capacity_bytes":4096,"flavor":"hvt","method":"m2","rows":3,"vssc_mv":0,"n_pre":4,"n_wr":4}"#,
            r#"{"op":"evaluate-point","capacity_bytes":4096,"flavor":"hvt","method":"m2","rows":64,"vssc_mv":5,"n_pre":4,"n_wr":4}"#,
            r#"{"op":"optimize","capacity_bytes":4096,"flavor":"hvt","method":"m2","objective":"power"}"#,
            r#"{"op":"teleport","capacity_bytes":4096,"flavor":"hvt","method":"m2"}"#,
            r#"{"op":"optimize","capacity_bytes":4096,"flavor":"hvt","method":"m2","deadline_ms":0}"#,
        ] {
            assert!(
                matches!(Request::from_line(line), Err(ServeError::InvalidQuery(_))),
                "line should be rejected: {line}"
            );
        }
    }

    #[test]
    fn malformed_json_is_a_protocol_error() {
        assert!(matches!(
            Request::from_line("{not json"),
            Err(ServeError::Protocol(_))
        ));
        assert!(matches!(
            Request::from_line("[1,2,3]"),
            Err(ServeError::InvalidQuery(_))
        ));
    }

    #[test]
    fn a_repeated_field_is_rejected() {
        // Two readings of one field: neither may win silently.
        for line in [
            r#"{"op":"optimize","capacity_bytes":1024,"capacity_bytes":2048,"flavor":"hvt","method":"m2"}"#,
            r#"{"op":"health","id":"a","id":"b"}"#,
        ] {
            let err = Request::from_line(line).unwrap_err();
            assert!(matches!(err, ServeError::InvalidQuery(_)), "{line}: {err}");
            assert!(err.to_string().contains("repeated field"), "{err}");
        }
    }

    #[test]
    fn char_key_groups_by_technology() {
        let q1 = Request::from_line(
            r#"{"op":"optimize","capacity_bytes":4096,"flavor":"hvt","method":"m2"}"#,
        )
        .unwrap()
        .query;
        let q2 = Request::from_line(
            r#"{"op":"pareto-front","capacity_bytes":128,"flavor":"hvt","method":"m2"}"#,
        )
        .unwrap()
        .query;
        assert_eq!(q1.char_key(), q2.char_key());
        assert_eq!(q1.char_key(), Some((VtFlavor::Hvt, Method::M2)));
    }

    #[test]
    fn stats_is_an_unknown_op() {
        // No `stats` op: `metrics` is the node's one snapshot op.
        let err = Request::from_line(r#"{"op":"stats","id":"s1"}"#).unwrap_err();
        assert!(matches!(err, ServeError::InvalidQuery(_)), "{err}");
        let message = err.to_string();
        assert!(message.contains("unknown op \"stats\""), "{message}");
        assert!(
            message.contains(
                "(expected optimize|evaluate-point|pareto-front|yield-check|metrics|health)"
            ),
            "{message}"
        );
    }

    #[test]
    fn metrics_and_health_parse_and_need_no_characterization() {
        for (line, query, canonical) in [
            (r#"{"op":"metrics","id":"m1"}"#, Query::Metrics, "metrics"),
            (r#"{"op":"health"}"#, Query::Health, "health"),
        ] {
            let r = Request::from_line(line).unwrap();
            assert_eq!(r.query, query);
            assert_eq!(r.query.char_key(), None);
            assert_eq!(r.query.canonical(), canonical);
            let back = Request::from_line(&r.to_json().render()).unwrap();
            assert_eq!(back, r);
        }
        // Neither op takes fields of its own.
        assert!(matches!(
            Request::from_line(r#"{"op":"metrics","capacity_bytes":64}"#),
            Err(ServeError::InvalidQuery(_))
        ));
        assert!(matches!(
            Request::from_line(r#"{"op":"health","samples":1}"#),
            Err(ServeError::InvalidQuery(_))
        ));
    }

    #[test]
    fn trace_flag_parses_and_round_trips() {
        let r = Request::from_line(
            r#"{"op":"optimize","capacity_bytes":128,"flavor":"hvt","method":"m2","trace":true}"#,
        )
        .unwrap();
        assert!(r.trace);
        let back = Request::from_line(&r.to_json().render()).unwrap();
        assert_eq!(back, r);
        // Absent means off; non-boolean is rejected.
        let plain = Request::from_line(
            r#"{"op":"optimize","capacity_bytes":128,"flavor":"hvt","method":"m2"}"#,
        )
        .unwrap();
        assert!(!plain.trace);
        let err = Request::from_line(
            r#"{"op":"optimize","capacity_bytes":128,"flavor":"hvt","method":"m2","trace":1}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("trace must be a boolean"), "{err}");
    }

    #[test]
    fn trace_ctx_round_trips_through_the_wire_codec() {
        let ctx = TraceCtx {
            trace_id: 0x1234_5678_9abc_def0,
            parent_span: 99,
            sampled: true,
        };
        let line = format!(
            r#"{{"op":"optimize","capacity_bytes":128,"flavor":"hvt","method":"m2","trace_ctx":"{}"}}"#,
            ctx.encode()
        );
        let r = Request::from_line(&line).unwrap();
        assert_eq!(r.trace_ctx, Some(ctx));
        let back = Request::from_line(&r.to_json().render()).unwrap();
        assert_eq!(back, r);
        // The sampled=false flag survives the round trip too.
        let off = TraceCtx {
            sampled: false,
            ..ctx
        };
        let mut unsampled = r.clone();
        unsampled.trace_ctx = Some(off);
        let back = Request::from_line(&unsampled.to_json().render()).unwrap();
        assert_eq!(back.trace_ctx, Some(off));
    }

    #[test]
    fn malformed_trace_ctx_is_rejected() {
        for ctx in [r#""garbage""#, r#""01-00-00-01""#, "17", "true"] {
            let line = format!(r#"{{"op":"metrics","trace_ctx":{ctx}}}"#);
            assert!(
                matches!(Request::from_line(&line), Err(ServeError::InvalidQuery(_))),
                "should reject trace_ctx {ctx}"
            );
        }
    }
}
