//! Energy-delay Pareto fronts.
//!
//! Built by [`crate::Search::pareto_front`] for serve's `pareto-front`
//! op and ablation A2: what do the energy/delay trade-offs around the
//! EDP optimum look like, and how much of the space does a walk skip
//! when a point already on its working front dominates a slice's or
//! column's lower bound (`ParetoFront::dominates`)?

use sram_units::{Energy, Time};

/// One point of the energy-delay plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint<T> {
    /// Array energy.
    pub energy: Energy,
    /// Array delay.
    pub delay: Time,
    /// Caller payload (e.g. the design point).
    pub tag: T,
}

impl<T> ParetoPoint<T> {
    /// `true` when `self` dominates `other` (no worse in both, strictly
    /// better in at least one).
    fn dominates<U>(&self, other: &ParetoPoint<U>) -> bool {
        let no_worse = self.energy <= other.energy && self.delay <= other.delay;
        let better = self.energy < other.energy || self.delay < other.delay;
        no_worse && better
    }
}

/// A maintained set of non-dominated energy/delay points.
#[derive(Debug, Clone, Default)]
pub struct ParetoFront<T> {
    points: Vec<ParetoPoint<T>>,
}

impl<T> ParetoFront<T> {
    /// Creates an empty front.
    #[must_use]
    pub fn new() -> Self {
        Self { points: Vec::new() }
    }

    /// Offers a point; it is inserted iff no existing point dominates it,
    /// evicting any points it dominates. Returns whether it was inserted.
    ///
    /// NaN policy: a point with a non-finite energy or delay is rejected
    /// outright. `dominates` is false in both directions against NaN
    /// coordinates, so such a point would otherwise enter the front and
    /// never be evicted.
    pub fn offer(&mut self, point: ParetoPoint<T>) -> bool {
        if !point.energy.joules().is_finite() || !point.delay.seconds().is_finite() {
            return false;
        }
        if self.points.iter().any(|p| p.dominates(&point)) {
            return false;
        }
        self.points.retain(|p| !point.dominates(p));
        self.points.push(point);
        true
    }

    /// `true` when a point of the front dominates `(energy, delay)`: is
    /// no worse in both and strictly better in at least one. A NaN
    /// coordinate is dominated by nothing.
    pub(crate) fn dominates(&self, energy: Energy, delay: Time) -> bool {
        let other = ParetoPoint {
            energy,
            delay,
            tag: (),
        };
        self.points.iter().any(|p| p.dominates(&other))
    }

    /// The current non-dominated points.
    #[must_use]
    pub fn points(&self) -> &[ParetoPoint<T>] {
        &self.points
    }

    /// Number of non-dominated points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the front is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The front point minimizing the energy-delay product. The EDP
    /// optimum is always on the Pareto front — the correctness property
    /// the pruned-search ablation relies on.
    #[must_use]
    pub fn min_edp(&self) -> Option<&ParetoPoint<T>> {
        self.points.iter().min_by(|a, b| {
            (a.energy * a.delay)
                .joule_seconds()
                .total_cmp(&(b.energy * b.delay).joule_seconds())
        })
    }

    /// Points sorted by delay (for plotting).
    #[must_use]
    pub fn sorted_by_delay(&self) -> Vec<&ParetoPoint<T>> {
        let mut v: Vec<&ParetoPoint<T>> = self.points.iter().collect();
        v.sort_by(|a, b| a.delay.seconds().total_cmp(&b.delay.seconds()));
        v
    }
}

impl<T> Extend<ParetoPoint<T>> for ParetoFront<T> {
    fn extend<I: IntoIterator<Item = ParetoPoint<T>>>(&mut self, iter: I) {
        for p in iter {
            self.offer(p);
        }
    }
}

impl<T> FromIterator<ParetoPoint<T>> for ParetoFront<T> {
    fn from_iter<I: IntoIterator<Item = ParetoPoint<T>>>(iter: I) -> Self {
        let mut front = Self::new();
        front.extend(iter);
        front
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(e: f64, d: f64, tag: u32) -> ParetoPoint<u32> {
        ParetoPoint {
            energy: Energy::from_femtojoules(e),
            delay: Time::from_picoseconds(d),
            tag,
        }
    }

    #[test]
    fn dominance_rules() {
        assert!(pt(1.0, 1.0, 0).dominates(&pt(2.0, 2.0, 1)));
        assert!(pt(1.0, 1.0, 0).dominates(&pt(1.0, 2.0, 1)));
        assert!(!pt(1.0, 2.0, 0).dominates(&pt(2.0, 1.0, 1)));
        assert!(!pt(1.0, 1.0, 0).dominates(&pt(1.0, 1.0, 1)));
    }

    #[test]
    fn front_keeps_only_non_dominated() {
        let front: ParetoFront<u32> = [
            pt(3.0, 1.0, 0),
            pt(1.0, 3.0, 1),
            pt(2.0, 2.0, 2),
            pt(4.0, 4.0, 3),
        ]
        .into_iter()
        .collect();
        assert_eq!(front.len(), 3); // (4,4) dominated by (2,2)
        assert!(front.points().iter().all(|p| p.tag != 3));
    }

    #[test]
    fn eviction_on_later_dominator() {
        let mut front = ParetoFront::new();
        assert!(front.offer(pt(4.0, 4.0, 0)));
        assert!(front.offer(pt(1.0, 1.0, 1))); // dominates and evicts
        assert_eq!(front.len(), 1);
        assert_eq!(front.points()[0].tag, 1);
        assert!(!front.offer(pt(2.0, 2.0, 2)));
    }

    #[test]
    fn min_edp_is_on_front() {
        let front: ParetoFront<u32> = [pt(3.0, 1.0, 0), pt(1.0, 2.0, 1), pt(0.5, 6.0, 2)]
            .into_iter()
            .collect();
        // EDPs: 3, 2, 3 -> tag 1 wins.
        assert_eq!(front.min_edp().unwrap().tag, 1);
        assert_eq!(front.sorted_by_delay()[0].tag, 0);
    }

    #[test]
    fn non_finite_points_are_rejected() {
        let mut front = ParetoFront::new();
        assert!(!front.offer(pt(f64::NAN, 1.0, 0)));
        assert!(!front.offer(pt(1.0, f64::INFINITY, 1)));
        assert!(front.is_empty());
        // And a NaN offered after a real point does not evict it.
        assert!(front.offer(pt(1.0, 1.0, 2)));
        assert!(!front.offer(pt(f64::NAN, f64::NAN, 3)));
        assert_eq!(front.len(), 1);
        assert_eq!(front.points()[0].tag, 2);
    }

    #[test]
    fn empty_front() {
        let front: ParetoFront<u32> = ParetoFront::new();
        assert!(front.is_empty());
        assert!(front.min_edp().is_none());
    }
}
