//! `chaos-soak`: multi-client TCP load against one query server under a
//! fixed fault plan — NaN characterizations (recovered by the engine's
//! bounded retry), a slow characterization, two worker panics (isolated
//! and respawned), and one connection drop (survived by reconnect).
//!
//! Phases beyond the shared driver:
//!
//! 1. **replay** — two [`ActiveSet`]s armed from one plan must draw
//!    bit-identical verdicts over 10,000 draws of a
//!    fractional-probability rule;
//! 2. **soak + repeat** — two faulted rounds, each on a fresh node and
//!    a fresh install of the plan; every round must answer everything,
//!    fire exactly the table's caps, and recover the LUT build once;
//! 3. **deadline** — a deadline-bounded optimize against a warm LUT
//!    must return the typed cancellation promptly, not burn the sweep.

use std::time::Instant;

use sram_array::Capacity;
use sram_coopt::{CoOptimizationFramework, DesignSpace, EnergyDelayProduct, Method};
use sram_device::VtFlavor;
use sram_faults::{ActiveSet, CancelReason, CancelToken, FaultPlan, FaultRule};

use super::{flag, inv, per_round, Op, Outcome, Rhs, Scenario, Topology};

/// Capacities the clients cycle through.
const CAPACITIES: [u64; 6] = [128, 256, 512, 1024, 2048, 4096];

fn query(_client: usize, r: usize) -> String {
    format!(
        r#""op":"optimize","capacity_bytes":{},"flavor":"hvt","method":"m2""#,
        CAPACITIES[r % CAPACITIES.len()]
    )
}

/// The chaos scenario row.
pub(crate) const SCENARIO: Scenario = Scenario {
    title: "Chaos soak (sram-faults): deterministic injection under multi-client load",
    topology: Topology::Node { workers: 2 },
    seed: 0x00DA_C201,
    faults: &[
        ("cell.characterize_nan", 2, 0),
        ("cell.slow", 1, 25),
        ("serve.worker_panic", 2, 0),
        ("serve.conn_drop", 1, 0),
    ],
    clients: 4,
    requests_per_client: 6,
    max_attempts: 10,
    reply_timeout: std::time::Duration::from_secs(30),
    query,
    invariants: &[
        inv("replay_identical", Op::Eq, Rhs::Num(1.0)),
        // Batching decides whether the two panic fires land in one
        // doomed batch or two; every stranded job gets a typed reply.
        per_round("serve.worker.panics", Op::Ge, Rhs::Num(1.0)),
        per_round(
            "serve.worker.panics",
            Op::Le,
            Rhs::Cap("serve.worker_panic"),
        ),
        per_round("internal", Op::Ge, Rhs::Cap("serve.worker_panic")),
        // A worker counts its respawn only after it has answered the
        // stranded jobs, so a round's snapshot can miss it; the whole
        // soak is read after the node has shut down.
        inv(
            "serve.worker.respawns",
            Op::Ge,
            Rhs::Key("serve.worker.panics"),
        ),
        per_round("serve.retry.recovered", Op::Eq, Rhs::Num(1.0)),
        per_round("reconnects", Op::Eq, Rhs::Cap("serve.conn_drop")),
        inv("deadline_typed", Op::Eq, Rhs::Num(1.0)),
        inv("deadline_ms", Op::Lt, Rhs::Num(250.0)),
        inv("coopt.search_cancelled", Op::Ge, Rhs::Num(1.0)),
    ],
};

/// Rounds of the soak: the first, then the repeat.
const ROUNDS: usize = 2;

/// Phase 1: two sets armed from one plan draw 10,000 bit-identical
/// verdicts from a `p = 0.37` rule, which does fire.
fn replay_identical() -> bool {
    let plan = FaultPlan::new(0xC0FF_EE00).rule(FaultRule::sometimes("spice.nonconverge", 0.37));
    let (mut first, mut second) = (ActiveSet::new(&plan), ActiveSet::new(&plan));
    let same = (0..10_000)
        .all(|_| first.should_fire("spice.nonconverge") == second.should_fire("spice.nonconverge"));
    same && first.injected_total() > 0
}

/// Runs every phase.
///
/// # Errors
///
/// Any hang, unanswered or doubly-answered request, or failed start-up.
pub(crate) fn soak(threads: usize) -> Result<Outcome, String> {
    super::drive(&SCENARIO, threads, |soak| {
        soak.set("replay_identical", flag(replay_identical()));
        for _ in 0..ROUNDS {
            soak.round(true, |soak| {
                soak.start()?;
                soak.wave("c", &|_, _| Ok(()))
            })?;
        }

        // Phase 3: the token is already expired, so the search must
        // return the typed cancellation at its first slice boundary.
        let framework = CoOptimizationFramework::paper_mode()
            .with_space(DesignSpace::coarse())
            .with_threads(threads);
        let cell = framework
            .characterize_cell(VtFlavor::Hvt, Method::M2)
            .map_err(|e| format!("characterize: {e}"))?;
        let token = CancelToken::with_deadline(Instant::now());
        let started = Instant::now();
        let outcome = framework.optimize_with_cell_cancel(
            &cell,
            Capacity::from_bytes(4096),
            VtFlavor::Hvt,
            Method::M2,
            &EnergyDelayProduct,
            &token,
        );
        soak.set("deadline_ms", started.elapsed().as_secs_f64() * 1e3);
        soak.set(
            "deadline_typed",
            flag(matches!(
                &outcome,
                Err(e) if e.cancel_reason() == Some(CancelReason::Deadline)
            )),
        );
        Ok(())
    })
}

/// Runs the soak and renders the invariant-checked report.
///
/// # Errors
///
/// Propagates [`soak`] failures and every broken invariant.
pub fn run(threads: usize) -> Result<String, String> {
    super::report(&SCENARIO, &soak(threads)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_replay_is_bit_identical_without_touching_globals() {
        assert!(replay_identical());
    }
}
