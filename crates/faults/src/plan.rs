//! Fault plans: which injection points can fire, with what probability,
//! latency, and cap — built in code or parsed from JSON with the
//! workspace's codec ([`sram_probe::json`]).

use std::fmt;

use sram_probe::json::Json;

/// One injection rule: a named point, a firing probability, an optional
/// injected latency, and an optional hard cap on total fires.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Injection-point name, e.g. `spice.nonconverge`.
    pub point: String,
    /// Probability in `[0, 1]` that a single draw at this point fires.
    pub probability: f64,
    /// Latency injected when a latency point (e.g. `cell.slow`) fires.
    pub latency_ms: u64,
    /// Hard cap on total fires at this point; `None` means unbounded.
    pub max_fires: Option<u64>,
}

impl FaultRule {
    /// A rule that fires every draw until `max_fires` is exhausted — the
    /// workhorse for deterministic chaos plans, since the fire count then
    /// never depends on how many draws each thread happens to make.
    #[must_use]
    pub fn always(point: &str, max_fires: u64) -> Self {
        Self {
            point: point.to_string(),
            probability: 1.0,
            latency_ms: 0,
            max_fires: Some(max_fires),
        }
    }

    /// A rule that fires each draw independently with `probability`.
    #[must_use]
    pub fn sometimes(point: &str, probability: f64) -> Self {
        Self {
            point: point.to_string(),
            probability,
            latency_ms: 0,
            max_fires: None,
        }
    }

    /// Attaches an injected latency to the rule (milliseconds).
    #[must_use]
    pub fn with_latency_ms(mut self, latency_ms: u64) -> Self {
        self.latency_ms = latency_ms;
        self
    }
}

/// A deterministic, seeded set of fault rules. Install with
/// [`crate::install`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Master seed; each point derives its own stream as
    /// `seed ^ fnv1a64(point)`.
    pub seed: u64,
    /// The rules, one per injection point.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given master seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
        }
    }

    /// Appends a rule (builder style).
    #[must_use]
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Parses a plan from its JSON form:
    ///
    /// ```json
    /// {"seed": 7, "rules": [
    ///   {"point": "spice.nonconverge", "probability": 1.0, "max_fires": 2},
    ///   {"point": "cell.slow", "probability": 0.5, "latency_ms": 25}
    /// ]}
    /// ```
    ///
    /// `p` is accepted as a shorthand for `probability` (default 1.0);
    /// `latency_ms` defaults to 0 and `max_fires` to unbounded.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::Parse`] on malformed JSON and
    /// [`FaultError::Invalid`] on a well-formed plan that is semantically
    /// bad (unknown or repeated key, wrong value type, empty point name,
    /// probability outside `[0, 1]`).
    pub fn parse(json: &str) -> Result<Self, FaultError> {
        let value = Json::parse(json).map_err(|e| FaultError::Parse {
            offset: e.offset,
            message: e.message,
        })?;
        let mut plan = FaultPlan::default();
        for (key, val) in object(&value, "plan")? {
            match key.as_str() {
                "seed" => plan.seed = integer(val, "seed")?,
                "rules" => {
                    for entry in typed(val, Json::as_array, "rules", "array")? {
                        plan.rules.push(rule_from(entry)?);
                    }
                }
                other => return Err(invalid(format!("unknown plan key `{other}`"))),
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    fn validate(&self) -> Result<(), FaultError> {
        for rule in &self.rules {
            if rule.point.is_empty() {
                return Err(invalid("rule with empty point name".to_string()));
            }
            if !(0.0..=1.0).contains(&rule.probability) {
                return Err(invalid(format!(
                    "rule `{}`: probability {} outside [0, 1]",
                    rule.point, rule.probability
                )));
            }
        }
        Ok(())
    }
}

fn rule_from(value: &Json) -> Result<FaultRule, FaultError> {
    let mut rule = FaultRule {
        point: String::new(),
        probability: 1.0,
        latency_ms: 0,
        max_fires: None,
    };
    for (key, val) in object(value, "rule")? {
        match key.as_str() {
            "point" => rule.point = typed(val, Json::as_str, "point", "string")?.to_string(),
            "probability" | "p" => {
                rule.probability = typed(val, Json::as_f64, "probability", "number")?;
            }
            "latency_ms" => rule.latency_ms = integer(val, "latency_ms")?,
            "max_fires" => rule.max_fires = Some(integer(val, "max_fires")?),
            other => return Err(invalid(format!("unknown rule key `{other}`"))),
        }
    }
    Ok(rule)
}

fn invalid(message: String) -> FaultError {
    FaultError::Invalid { message }
}

/// `value` read by `read`, or [`FaultError::Invalid`] saying that
/// `what` must be a JSON `kind`.
fn typed<'a, T>(
    value: &'a Json,
    read: impl Fn(&'a Json) -> Option<T>,
    what: &str,
    kind: &str,
) -> Result<T, FaultError> {
    read(value).ok_or_else(|| invalid(format!("{what} must be a JSON {kind}")))
}

/// `value`'s pairs, or [`FaultError::Invalid`] when it is not an
/// object or repeats a key.
fn object<'a>(value: &'a Json, what: &str) -> Result<&'a [(String, Json)], FaultError> {
    let Json::Obj(fields) = value else {
        return Err(invalid(format!("{what} must be a JSON object")));
    };
    match sram_probe::json::repeated_key(fields) {
        Some(key) => Err(invalid(format!("repeated {what} key `{key}`"))),
        None => Ok(fields),
    }
}

/// A non-negative integral number up to `u64::MAX`. Seeds use the full
/// `u64` range, so this does not stop at 2^53 as [`Json::as_u64`] does.
fn integer(value: &Json, what: &str) -> Result<u64, FaultError> {
    let n = typed(value, Json::as_f64, what, "number")?;
    if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
        Ok(n as u64)
    } else {
        Err(invalid(format!(
            "{what} must be a non-negative integer, got {n}"
        )))
    }
}

/// Errors loading or validating a fault plan.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultError {
    /// The plan text is not well-formed JSON.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// The plan parsed but is semantically invalid.
    Invalid {
        /// What is wrong with it.
        message: String,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Parse { offset, message } => {
                write!(f, "fault plan parse error at byte {offset}: {message}")
            }
            Self::Invalid { message } => write!(f, "invalid fault plan: {message}"),
        }
    }
}

impl std::error::Error for FaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_of_a_full_plan() {
        let plan = FaultPlan::parse(
            r#"{"seed": 42, "rules": [
                {"point": "spice.nonconverge", "probability": 1.0, "max_fires": 2},
                {"point": "cell.slow", "p": 0.5, "latency_ms": 25}
            ]}"#,
        )
        .expect("valid plan parses");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0], FaultRule::always("spice.nonconverge", 2));
        assert_eq!(
            plan.rules[1],
            FaultRule::sometimes("cell.slow", 0.5).with_latency_ms(25)
        );
    }

    #[test]
    fn defaults_apply_when_fields_are_omitted() {
        let plan = FaultPlan::parse(r#"{"rules": [{"point": "serve.conn_drop"}]}"#)
            .expect("minimal plan parses");
        assert_eq!(plan.seed, 0);
        let rule = &plan.rules[0];
        assert_eq!(rule.probability, 1.0);
        assert_eq!(rule.latency_ms, 0);
        assert_eq!(rule.max_fires, None);
    }

    #[test]
    fn a_repeated_key_is_rejected_in_plans_and_rules() {
        for text in [
            r#"{"seed": 1, "seed": 2, "rules": []}"#,
            r#"{"rules": [{"point": "a"}], "rules": [{"point": "b"}]}"#,
            r#"{"rules": [{"point": "a", "max_fires": 1, "max_fires": 2}]}"#,
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert!(matches!(err, FaultError::Invalid { .. }), "{text}: {err:?}");
            assert!(err.to_string().contains("repeated"), "{err}");
        }
    }

    #[test]
    fn semantic_validation_rejects_bad_probability_and_unknown_keys() {
        let out_of_range =
            FaultPlan::parse(r#"{"rules": [{"point": "x", "probability": 1.5}]}"#).unwrap_err();
        assert!(matches!(out_of_range, FaultError::Invalid { .. }));

        let unknown = FaultPlan::parse(r#"{"sede": 3}"#).unwrap_err();
        assert!(matches!(unknown, FaultError::Invalid { .. }));
    }

    #[test]
    fn parse_errors_carry_an_offset() {
        let truncated = FaultPlan::parse(r#"{"seed": 1, "rules": ["#).unwrap_err();
        match truncated {
            FaultError::Parse { offset, .. } => assert!(offset > 0),
            other => panic!("expected parse error, got {other:?}"),
        }
        assert!(FaultPlan::parse("").is_err());
        assert!(
            FaultPlan::parse("[1, 2]").is_err(),
            "top level must be an object"
        );
    }

    #[test]
    fn plan_strings_take_json_escapes() {
        let plan = FaultPlan::parse(r#"{"rules": [{"point": "spice\u002enonconverge"}]}"#)
            .expect("an escaped point name parses");
        assert_eq!(plan.rules[0].point, "spice.nonconverge");
    }

    #[test]
    fn a_truncated_plan_fails_at_the_codecs_offset() {
        let text = r#"{"seed": 1, "rules": [{"point": "cell.slow""#;
        let codec = Json::parse(text).unwrap_err();
        assert_eq!(
            FaultPlan::parse(text).unwrap_err(),
            FaultError::Parse {
                offset: codec.offset,
                message: codec.message,
            }
        );
    }

    #[test]
    fn literals_are_invalid_values_not_parse_errors() {
        for text in [
            r#"{"seed": null}"#,
            r#"{"seed": true}"#,
            r#"{"rules": [{"point": "x", "p": false}]}"#,
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert!(matches!(err, FaultError::Invalid { .. }), "{text}: {err:?}");
        }
    }

    #[test]
    fn seeds_above_two_to_the_53_keep_their_value() {
        let plan =
            FaultPlan::parse(r#"{"seed": 1152921504606846976}"#).expect("a 2^60 seed parses");
        assert_eq!(plan.seed, 1 << 60);
        let top =
            FaultPlan::parse(r#"{"seed": 18446744073709549568}"#).expect("2^64 - 2048 parses");
        assert_eq!(top.seed, u64::MAX - 2047);
        let err = FaultPlan::parse(r#"{"seed": 1.5}"#).unwrap_err();
        assert!(matches!(err, FaultError::Invalid { .. }), "{err:?}");
    }
}
