//! External affinity auditing: did same-key queries really land on
//! the same node?
//!
//! The router's whole value proposition is cache affinity, so the
//! cluster soak verifies it from the *outside*: every forwarded reply
//! is stamped with the answering node, the ring epoch it was routed
//! under, and the route kind (`via`). Within one epoch, every
//! primary-routed reply for a key must name the same node — hedge and
//! failover replies are exempt (they exist precisely to go elsewhere),
//! and observations from different epochs never conflict (a rebalance
//! legitimately moves keys).
//!
//! The counters live here rather than in the soak because `cluster.*`
//! is this crate's namespace: `cluster.affinity.checked` counts
//! same-epoch repeat observations audited, `cluster.affinity.violations`
//! counts the ones that named a different node.

use std::collections::BTreeMap;

/// One externally-observed routed reply.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The request's content-addressed key.
    pub key: u64,
    /// Ring epoch stamped on the reply.
    pub epoch: u64,
    /// Node that answered.
    pub node: String,
    /// Route kind stamped on the reply (`primary`/`hedge`/`failover`).
    pub via: String,
}

/// Audit outcome: how many repeat observations were checked and how
/// many violated affinity, with one description per violation.
#[derive(Debug, Default)]
pub struct Report {
    /// Same-epoch repeat observations audited.
    pub checked: u64,
    /// Audited observations that named a different node than the first
    /// primary-routed reply for their `(epoch, key)`.
    pub violations: u64,
    /// One line per violation, for the soak's failure report.
    pub details: Vec<String>,
}

/// Audits a batch of observations and publishes the totals to the
/// `cluster.affinity.checked` / `cluster.affinity.violations` counters
/// (ungated — the cluster soak's invariant rows read them).
#[must_use]
pub fn audit(observations: &[Observation]) -> Report {
    let mut owners: BTreeMap<(u64, u64), &str> = BTreeMap::new();
    let mut report = Report::default();
    for obs in observations {
        if obs.via != "primary" {
            continue;
        }
        match owners.get(&(obs.epoch, obs.key)) {
            None => {
                owners.insert((obs.epoch, obs.key), obs.node.as_str());
            }
            Some(owner) => {
                report.checked += 1;
                if *owner != obs.node {
                    report.violations += 1;
                    report.details.push(format!(
                        "key {:#018x} in epoch {} answered by {} after {}",
                        obs.key, obs.epoch, obs.node, owner
                    ));
                }
            }
        }
    }
    sram_probe::probe_handle!(counter "cluster.affinity.checked").add(report.checked);
    sram_probe::probe_handle!(counter "cluster.affinity.violations").add(report.violations);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(key: u64, epoch: u64, node: &str, via: &str) -> Observation {
        Observation {
            key,
            epoch,
            node: node.to_owned(),
            via: via.to_owned(),
        }
    }

    #[test]
    fn same_epoch_same_node_is_clean() {
        let report = audit(&[
            obs(1, 0, "n1", "primary"),
            obs(1, 0, "n1", "primary"),
            obs(2, 0, "n2", "primary"),
        ]);
        assert_eq!((report.checked, report.violations), (1, 0));
    }

    #[test]
    fn same_epoch_different_node_is_a_violation() {
        let report = audit(&[obs(1, 4, "n1", "primary"), obs(1, 4, "n2", "primary")]);
        assert_eq!((report.checked, report.violations), (1, 1));
        assert!(report.details[0].contains("epoch 4"));
    }

    #[test]
    fn cross_epoch_and_non_primary_replies_are_exempt() {
        let report = audit(&[
            obs(1, 0, "n1", "primary"),
            obs(1, 1, "n2", "primary"), // rebalance moved the key
            obs(1, 0, "n3", "hedge"),   // hedge went elsewhere on purpose
            obs(1, 0, "n3", "failover"),
        ]);
        assert_eq!((report.checked, report.violations), (0, 0));
    }
}
