//! The consistent-hash ring: stable key → node placement with bounded
//! movement under membership change.
//!
//! Every member contributes `vnodes` points to a 64-bit circle; a key
//! is owned by the first point clockwise from its own hash. Virtual
//! nodes smooth the load split (the standard deviation of shard sizes
//! shrinks roughly as `1/sqrt(vnodes)`), and the circle structure is
//! what bounds churn: adding or removing one member of an `N`-node
//! ring reassigns only the arcs adjacent to that member's points —
//! about `1/N` of the key space — while every other key keeps its
//! owner, which is exactly the property that preserves the serve
//! nodes' content-addressed caches across a rebalance.
//!
//! Placement is a pure function of the member set: no RNG, no clock,
//! no insertion-order dependence (members are kept sorted), so every
//! router replica and every test run agrees on the mapping.

use sram_probe::hash::{fnv1a64, splitmix64};

/// Virtual nodes per member on every router's ring.
pub const DEFAULT_VNODES: usize = 64;

/// A consistent-hash ring over named nodes.
///
/// Membership changes bump [`Ring::epoch`], so a reply tagged with the
/// epoch it was routed under can be audited later: affinity (same key
/// → same node) is only expected to hold *within* an epoch.
#[derive(Debug, Clone)]
pub struct Ring {
    vnodes: usize,
    epoch: u64,
    /// Sorted member names; `points` indexes into this.
    members: Vec<String>,
    /// `(point, member index)`, sorted by point.
    points: Vec<(u64, u32)>,
}

impl Ring {
    /// An empty ring with `vnodes` points per future member.
    #[must_use]
    pub fn new(vnodes: usize) -> Self {
        Self {
            vnodes: vnodes.max(1),
            epoch: 0,
            members: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Members currently on the ring, sorted.
    #[must_use]
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// Number of members on the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when no member is on the ring.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Membership generation: bumped by every successful add/remove.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Virtual nodes per member.
    #[must_use]
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// `true` when `node` is on the ring.
    #[must_use]
    pub fn contains(&self, node: &str) -> bool {
        self.members
            .binary_search_by(|m| m.as_str().cmp(node))
            .is_ok()
    }

    /// Adds a member; returns `false` (and leaves the epoch alone) if
    /// it was already present.
    pub fn add(&mut self, node: &str) -> bool {
        match self.members.binary_search_by(|m| m.as_str().cmp(node)) {
            Ok(_) => false,
            Err(at) => {
                self.members.insert(at, node.to_owned());
                self.rebuild();
                self.epoch += 1;
                true
            }
        }
    }

    /// Removes a member; returns `false` if it was not present.
    pub fn remove(&mut self, node: &str) -> bool {
        match self.members.binary_search_by(|m| m.as_str().cmp(node)) {
            Ok(at) => {
                self.members.remove(at);
                self.rebuild();
                self.epoch += 1;
                true
            }
            Err(_) => false,
        }
    }

    /// The owner of `key`, or `None` on an empty ring.
    #[must_use]
    pub fn primary(&self, key: u64) -> Option<&str> {
        self.candidate_indices(key, 1)
            .first()
            .map(|&i| self.members[i as usize].as_str())
    }

    /// Up to `replicas` distinct candidate owners for `key`, in
    /// preference order: the primary first, then the next distinct
    /// members clockwise (the hedge/failover order).
    #[must_use]
    pub fn candidates(&self, key: u64, replicas: usize) -> Vec<String> {
        self.candidate_indices(key, replicas)
            .into_iter()
            .map(|i| self.members[i as usize].clone())
            .collect()
    }

    fn candidate_indices(&self, key: u64, replicas: usize) -> Vec<u32> {
        if self.points.is_empty() || replicas == 0 {
            return Vec::new();
        }
        let want = replicas.min(self.members.len());
        let h = splitmix64(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let mut picked: Vec<u32> = Vec::with_capacity(want);
        for step in 0..self.points.len() {
            let (_, member) = self.points[(start + step) % self.points.len()];
            if !picked.contains(&member) {
                picked.push(member);
                if picked.len() == want {
                    break;
                }
            }
        }
        picked
    }

    /// Rebuilds the point table from the member set. Cost is
    /// `members × vnodes` hashes — membership changes are rare (health
    /// transitions), lookups are the hot path.
    fn rebuild(&mut self) {
        self.points.clear();
        self.points.reserve(self.members.len() * self.vnodes);
        for (index, member) in self.members.iter().enumerate() {
            let base = fnv1a64(member.as_bytes());
            for v in 0..self.vnodes {
                let point = splitmix64(base ^ splitmix64(v as u64 + 1));
                self.points.push((point, index as u32));
            }
        }
        // Point collisions are broken by member index, which is itself
        // deterministic (members are sorted) — placement stays a pure
        // function of the member set.
        self.points.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(names: &[&str]) -> Ring {
        let mut ring = Ring::new(DEFAULT_VNODES);
        for n in names {
            ring.add(n);
        }
        ring
    }

    /// A deterministic key set, the same on every run and platform.
    fn keys(n: u64) -> Vec<u64> {
        (0..n).map(splitmix64).collect()
    }

    #[test]
    fn placement_is_deterministic_across_threads_and_build_order() {
        let forward = ring_of(&["node-a", "node-b", "node-c"]);
        let reverse = ring_of(&["node-c", "node-b", "node-a"]);
        let keys = keys(2_000);
        let expected: Vec<Option<String>> = keys
            .iter()
            .map(|&k| forward.primary(k).map(str::to_owned))
            .collect();
        for (&k, want) in keys.iter().zip(&expected) {
            assert_eq!(reverse.primary(k).map(str::to_owned), *want);
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let local = ring_of(&["node-a", "node-b", "node-c"]);
                    for (&k, want) in keys.iter().zip(&expected) {
                        assert_eq!(local.primary(k).map(str::to_owned), *want);
                    }
                });
            }
        });
    }

    #[test]
    fn adding_a_node_moves_a_bounded_fraction_of_keys() {
        let three = ring_of(&["node-a", "node-b", "node-c"]);
        let mut four = three.clone();
        four.add("node-d");
        let keys = keys(4_000);
        let moved = keys
            .iter()
            .filter(|&&k| three.primary(k) != four.primary(k))
            .count();
        // Ideal movement is 1/4 of the keys (everything node-d now
        // owns); vnode granularity wobbles around the ideal, so allow
        // up to 2× before calling the ring broken.
        let ideal = keys.len() / 4;
        assert!(
            moved <= ideal * 2,
            "{moved} of {} keys moved on add; ideal ~{ideal}",
            keys.len()
        );
        // Every moved key must have moved TO the new node — anything
        // else is gratuitous churn that invalidates a warm cache.
        for &k in &keys {
            if three.primary(k) != four.primary(k) {
                assert_eq!(four.primary(k), Some("node-d"));
            }
        }
    }

    #[test]
    fn removing_a_node_only_moves_its_own_keys() {
        let three = ring_of(&["node-a", "node-b", "node-c"]);
        let mut two = three.clone();
        two.remove("node-b");
        for &k in &keys(4_000) {
            if three.primary(k) != Some("node-b") {
                assert_eq!(two.primary(k), three.primary(k));
            } else {
                assert_ne!(two.primary(k), Some("node-b"));
            }
        }
    }

    #[test]
    fn load_split_is_roughly_even() {
        let ring = ring_of(&["node-a", "node-b", "node-c"]);
        let mut counts = std::collections::BTreeMap::new();
        let keys = keys(6_000);
        for &k in &keys {
            *counts
                .entry(ring.primary(k).unwrap().to_owned())
                .or_insert(0usize) += 1;
        }
        let ideal = keys.len() / 3;
        for (node, count) in &counts {
            assert!(
                *count > ideal / 2 && *count < ideal * 2,
                "{node} owns {count} of {} keys (ideal ~{ideal})",
                keys.len()
            );
        }
    }

    #[test]
    fn candidates_are_distinct_and_epoch_tracks_membership() {
        let mut ring = ring_of(&["node-a", "node-b", "node-c"]);
        assert_eq!(ring.epoch(), 3); // three adds
        let picked = ring.candidates(42, 2);
        assert_eq!(picked.len(), 2);
        assert_ne!(picked[0], picked[1]);
        assert_eq!(ring.candidates(42, 10).len(), 3);
        assert!(!ring.remove("node-x"));
        assert_eq!(ring.epoch(), 3); // failed remove does not bump
        assert!(ring.remove("node-b"));
        assert_eq!(ring.epoch(), 4);
        assert!(!ring.contains("node-b"));
    }
}
