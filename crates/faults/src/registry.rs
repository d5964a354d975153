//! The process-wide fault registry: a plan is installed once, and
//! hardened call sites ask `should_fire("point")` / `maybe_sleep("point")`
//! on their hot paths.
//!
//! Determinism contract: every point owns an independent PRNG stream
//! seeded `plan.seed ^ fnv1a64(point)`, so the k-th draw at a point gives
//! the same verdict in every run of the same plan — regardless of thread
//! interleaving, batching, or how many draws other points make. The
//! `faults.injected` probe counter and the per-point fire counts are the
//! replay invariants the chaos-soak experiment asserts on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::plan::FaultPlan;
use sram_probe::hash::fnv1a64;

struct PointState {
    probability: f64,
    latency: Duration,
    max_fires: Option<u64>,
    fires: u64,
    draws: u64,
    rng: StdRng,
}

impl PointState {
    /// One draw: advances the stream and returns the injected latency if
    /// the point fired. A point past its `max_fires` cap stops drawing
    /// entirely, so capped rules cost nothing once exhausted.
    fn decide(&mut self) -> Option<Duration> {
        if let Some(cap) = self.max_fires {
            if self.fires >= cap {
                return None;
            }
        }
        self.draws += 1;
        let fired = self.rng.random::<f64>() < self.probability;
        if fired {
            self.fires += 1;
            Some(self.latency)
        } else {
            None
        }
    }
}

/// A non-global set of armed injection points. The process-wide registry
/// wraps one of these behind a mutex; tests can also drive an `ActiveSet`
/// directly to assert on determinism without touching global state.
pub struct ActiveSet {
    points: HashMap<String, PointState>,
}

impl ActiveSet {
    /// Arms every rule in the plan, deriving each point's PRNG stream
    /// from the plan seed and the point name.
    #[must_use]
    pub fn new(plan: &FaultPlan) -> Self {
        let mut points = HashMap::new();
        for rule in &plan.rules {
            points.insert(
                rule.point.clone(),
                PointState {
                    probability: rule.probability,
                    latency: Duration::from_millis(rule.latency_ms),
                    max_fires: rule.max_fires,
                    fires: 0,
                    draws: 0,
                    rng: StdRng::seed_from_u64(plan.seed ^ fnv1a64(rule.point.as_bytes())),
                },
            );
        }
        Self { points }
    }

    /// One draw at `point`: `Some(latency)` if it fired. Points the plan
    /// does not mention never fire.
    fn decide(&mut self, point: &str) -> Option<Duration> {
        self.points.get_mut(point).and_then(PointState::decide)
    }

    /// Draws at `point` and reports whether it fired (latency ignored).
    pub fn should_fire(&mut self, point: &str) -> bool {
        self.decide(point).is_some()
    }

    /// Per-point `(name, fires)` pairs, sorted by name so two runs of the
    /// same plan compare equal.
    #[must_use]
    pub fn counts(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .points
            .iter()
            .map(|(name, state)| (name.clone(), state.fires))
            .collect();
        out.sort();
        out
    }

    /// Total fires across all points since this set was armed.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.points.values().map(|state| state.fires).sum()
    }
}

/// Fast path: is any plan installed? A single relaxed load, so hardened
/// call sites stay effectively free when injection is off.
static ENABLED: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static Mutex<Option<ActiveSet>> {
    static SLOT: OnceLock<Mutex<Option<ActiveSet>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn lock() -> MutexGuard<'static, Option<ActiveSet>> {
    // A panic while holding this lock (there is no panicking code inside
    // the critical sections, but the serve worker intentionally panics
    // nearby) must not wedge fault accounting for the rest of the process.
    slot().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Installs `plan`, replacing any previous one and resetting all counts
/// and PRNG streams. Process-wide: affects every hardened call site.
pub fn install(plan: &FaultPlan) {
    let mut guard = lock();
    *guard = Some(ActiveSet::new(plan));
    ENABLED.store(true, Ordering::Release);
}

/// Disarms injection; subsequent draws are free and never fire.
pub fn uninstall() {
    let mut guard = lock();
    ENABLED.store(false, Ordering::Release);
    *guard = None;
}

/// Whether a plan is currently installed (single relaxed atomic load).
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// One draw at `point` against the installed plan. Fires bump the
/// `faults.injected` probe counter. Always `false` with no plan installed.
pub fn should_fire(point: &str) -> bool {
    if !enabled() {
        return false;
    }
    let fired = lock().as_mut().is_some_and(|set| set.should_fire(point));
    if fired {
        sram_probe::probe_inc!("faults.injected");
    }
    fired
}

/// One draw at a latency point: if it fires, sleeps the rule's
/// `latency_ms` (with the registry lock *released*) and returns `true`.
pub fn maybe_sleep(point: &str) -> bool {
    if !enabled() {
        return false;
    }
    let latency = lock().as_mut().and_then(|set| set.decide(point));
    match latency {
        Some(pause) => {
            sram_probe::probe_inc!("faults.injected");
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            true
        }
        None => false,
    }
}

/// Per-point fire counts of the installed plan (empty when disarmed).
#[must_use]
pub fn counts() -> Vec<(String, u64)> {
    lock().as_ref().map(ActiveSet::counts).unwrap_or_default()
}

/// Total fires of the installed plan since it was armed.
#[must_use]
pub fn injected_total() -> u64 {
    lock().as_ref().map(ActiveSet::injected_total).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultRule;

    /// Draws across all points of `set` (fires plus no-fires).
    fn draws(set: &ActiveSet) -> u64 {
        set.points.values().map(|state| state.draws).sum()
    }

    fn replay_plan() -> FaultPlan {
        FaultPlan::new(0xC0FFEE)
            .rule(FaultRule::sometimes("spice.nonconverge", 0.37))
            .rule(FaultRule::sometimes("cell.slow", 0.11).with_latency_ms(5))
    }

    #[test]
    fn same_plan_same_seed_replays_bit_identically() {
        let plan = replay_plan();
        let mut first = ActiveSet::new(&plan);
        let mut second = ActiveSet::new(&plan);
        let a: Vec<bool> = (0..10_000)
            .map(|_| first.should_fire("spice.nonconverge"))
            .collect();
        let b: Vec<bool> = (0..10_000)
            .map(|_| second.should_fire("spice.nonconverge"))
            .collect();
        assert_eq!(a, b, "fire sequence must depend only on the plan");
        assert!(a.iter().any(|f| *f) && a.iter().any(|f| !*f));
        let rate = a.iter().filter(|f| **f).count() as f64 / a.len() as f64;
        assert!((rate - 0.37).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn per_point_streams_are_independent_of_interleaving() {
        let plan = replay_plan();
        // Run A: strictly alternate draws between the two points.
        let mut alternating = ActiveSet::new(&plan);
        let mut a = Vec::new();
        for _ in 0..500 {
            a.push(alternating.should_fire("spice.nonconverge"));
            let _ = alternating.should_fire("cell.slow");
        }
        // Run B: different global order — all cell.slow draws up front.
        let mut batched = ActiveSet::new(&plan);
        for _ in 0..500 {
            let _ = batched.should_fire("cell.slow");
        }
        let b: Vec<bool> = (0..500)
            .map(|_| batched.should_fire("spice.nonconverge"))
            .collect();
        assert_eq!(a, b, "a point's stream must not see other points' draws");
    }

    #[test]
    fn max_fires_caps_the_count_and_stops_drawing() {
        let plan = FaultPlan::new(1).rule(FaultRule::always("serve.worker_panic", 2));
        let mut set = ActiveSet::new(&plan);
        let fired: Vec<bool> = (0..10)
            .map(|_| set.should_fire("serve.worker_panic"))
            .collect();
        assert_eq!(fired.iter().filter(|f| **f).count(), 2);
        assert_eq!(&fired[..2], &[true, true], "p=1 fires immediately");
        assert_eq!(set.injected_total(), 2);
        assert_eq!(set.counts(), vec![("serve.worker_panic".to_string(), 2)]);
        assert_eq!(draws(&set), 2, "exhausted points stop drawing");
    }

    #[test]
    fn decide_returns_the_rule_latency() {
        let plan = FaultPlan::new(9).rule(FaultRule::always("cell.slow", 1).with_latency_ms(25));
        let mut set = ActiveSet::new(&plan);
        assert_eq!(set.decide("cell.slow"), Some(Duration::from_millis(25)));
        assert_eq!(set.decide("cell.slow"), None, "cap exhausted");
        assert_eq!(set.decide("unplanned.point"), None);
    }

    #[test]
    fn unknown_points_never_fire_and_cost_no_draws() {
        let plan = replay_plan();
        let mut set = ActiveSet::new(&plan);
        assert!(!set.should_fire("serve.conn_drop"));
        assert_eq!(draws(&set), 0);
    }
}
