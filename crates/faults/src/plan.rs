//! Fault plans: which injection points can fire, with what probability,
//! latency, and cap, built in code.

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
}
