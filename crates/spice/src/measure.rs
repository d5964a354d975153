//! Waveform post-processing: the `.measure` equivalent.

use crate::NodeId;
use sram_units::{Time, Voltage};

/// Direction of a threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossingEdge {
    /// Waveform passes the level from below.
    Rising,
    /// Waveform passes the level from above.
    Falling,
    /// Either direction.
    Any,
}

/// Recorded waveforms of a transient run: one sample of every unknown per
/// accepted timestep.
#[derive(Debug, Clone)]
pub struct Trace {
    n_nodes: usize,
    times: Vec<f64>,
    /// One state vector per sample (node voltages then branch currents).
    states: Vec<Vec<f64>>,
}

impl Trace {
    pub(crate) fn new(n_nodes: usize, times: Vec<f64>, states: Vec<Vec<f64>>) -> Self {
        debug_assert_eq!(times.len(), states.len());
        Self {
            n_nodes,
            times,
            states,
        }
    }

    /// Appends the sample `x` (node voltages then branch currents) at
    /// `t` seconds.
    pub(crate) fn push(&mut self, t: f64, x: &[f64]) {
        self.times.push(t);
        self.states.push(x.to_vec());
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample times.
    pub fn times(&self) -> impl Iterator<Item = Time> + '_ {
        self.times.iter().map(|&t| Time::from_seconds(t))
    }

    fn node_value(&self, sample: usize, node: NodeId) -> f64 {
        let i = node.index();
        assert!(i < self.n_nodes, "node does not belong to this circuit");
        if i == 0 {
            0.0
        } else {
            self.states[sample][i - 1]
        }
    }

    /// Voltage samples of one node.
    #[must_use]
    pub fn samples(&self, node: NodeId) -> Vec<(Time, Voltage)> {
        (0..self.len())
            .map(|k| {
                (
                    Time::from_seconds(self.times[k]),
                    Voltage::from_volts(self.node_value(k, node)),
                )
            })
            .collect()
    }

    /// Linearly interpolated voltage of `node` at `time` (clamped to the
    /// trace range).
    ///
    /// # Panics
    ///
    /// Panics on an empty trace or a foreign node.
    #[must_use]
    pub fn voltage_at(&self, node: NodeId, time: Time) -> Voltage {
        assert!(!self.is_empty(), "empty trace");
        let t = time.seconds();
        if t <= self.times[0] {
            return Voltage::from_volts(self.node_value(0, node));
        }
        let last = self.len() - 1;
        if t >= self.times[last] {
            return Voltage::from_volts(self.node_value(last, node));
        }
        let idx = self.times.partition_point(|&pt| pt <= t);
        let (t0, t1) = (self.times[idx - 1], self.times[idx]);
        let (v0, v1) = (self.node_value(idx - 1, node), self.node_value(idx, node));
        let f = if t1 > t0 { (t - t0) / (t1 - t0) } else { 1.0 };
        Voltage::from_volts(v0 + (v1 - v0) * f)
    }

    /// Last recorded voltage of `node`.
    ///
    /// # Panics
    ///
    /// Panics on an empty trace.
    #[must_use]
    pub fn final_voltage(&self, node: NodeId) -> Voltage {
        assert!(!self.is_empty(), "empty trace");
        Voltage::from_volts(self.node_value(self.len() - 1, node))
    }

    /// First time (after `after`) at which `node` crosses `level` in the
    /// given direction, linearly interpolated between samples.
    #[must_use]
    pub fn crossing(
        &self,
        node: NodeId,
        level: Voltage,
        edge: CrossingEdge,
        after: Time,
    ) -> Option<Time> {
        (1..self.len()).find_map(|k| self.segment_crossing(k, node, level, edge, after))
    }

    /// What [`Trace::crossing`] reports on the segment from sample
    /// `k − 1` to sample `k` (`1 ≤ k < len`): `crossing` is the first of
    /// these over `k = 1, 2, …`, so a caller that checks each segment as
    /// a run records it finds the same crossing in time linear in the
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics when `k` is 0 or not below [`Trace::len`].
    #[must_use]
    pub fn segment_crossing(
        &self,
        k: usize,
        node: NodeId,
        level: Voltage,
        edge: CrossingEdge,
        after: Time,
    ) -> Option<Time> {
        let lvl = level.volts();
        let t_min = after.seconds();
        if self.times[k] < t_min {
            return None;
        }
        let v0 = self.node_value(k - 1, node);
        let v1 = self.node_value(k, node);
        let rising = v0 < lvl && v1 >= lvl;
        let falling = v0 > lvl && v1 <= lvl;
        let hit = match edge {
            CrossingEdge::Rising => rising,
            CrossingEdge::Falling => falling,
            CrossingEdge::Any => rising || falling,
        };
        if !hit {
            return None;
        }
        let f = if (v1 - v0).abs() > 0.0 {
            (lvl - v0) / (v1 - v0)
        } else {
            0.0
        };
        let t = self.times[k - 1] + (self.times[k] - self.times[k - 1]) * f;
        (t >= t_min).then(|| Time::from_seconds(t))
    }

    /// First time after `after` at which two node waveforms meet (their
    /// difference crosses zero) — used for the paper's cell write delay
    /// ("the time … until Q and QB reach the same value").
    #[must_use]
    pub fn meeting_time(&self, a: NodeId, b: NodeId, after: Time) -> Option<Time> {
        (1..self.len()).find_map(|k| self.segment_meeting(k, a, b, after))
    }

    /// What [`Trace::meeting_time`] reports on the segment from sample
    /// `k − 1` to sample `k`, in the way [`Trace::segment_crossing`]
    /// splits [`Trace::crossing`].
    ///
    /// # Panics
    ///
    /// Panics when `k` is 0 or not below [`Trace::len`].
    #[must_use]
    pub fn segment_meeting(&self, k: usize, a: NodeId, b: NodeId, after: Time) -> Option<Time> {
        let t_min = after.seconds();
        if self.times[k] < t_min {
            return None;
        }
        let d0 = self.node_value(k - 1, a) - self.node_value(k - 1, b);
        let d1 = self.node_value(k, a) - self.node_value(k, b);
        let t = if d0 == 0.0 {
            self.times[k - 1]
        } else if d0 * d1 <= 0.0 {
            let f = d0 / (d0 - d1);
            self.times[k - 1] + (self.times[k] - self.times[k - 1]) * f
        } else {
            return None;
        };
        (t >= t_min).then(|| Time::from_seconds(t))
    }

    /// Integrates the charge delivered by voltage source `branch` over the
    /// whole trace (trapezoidal rule), in coulombs. Negative when the
    /// source delivers current out of its positive terminal (a supply).
    #[must_use]
    pub fn delivered_charge(&self, branch: usize) -> f64 {
        let idx = self.n_nodes - 1 + branch;
        let mut q = 0.0;
        for k in 1..self.len() {
            let dt = self.times[k] - self.times[k - 1];
            let i0 = self.states[k - 1][idx];
            let i1 = self.states[k][idx];
            q += 0.5 * (i0 + i1) * dt;
        }
        q
    }

    /// Integrates the energy *delivered by* voltage source `branch`
    /// (`−∫ v(t)·i(t) dt`, positive for a supply feeding the circuit),
    /// with the source's terminal voltage supplied by `v_of_t` — pass
    /// `|t| waveform.value_at(t)`-style closures for time-varying
    /// sources.
    #[must_use]
    pub fn delivered_energy<F>(&self, branch: usize, v_of_t: F) -> sram_units::Energy
    where
        F: Fn(Time) -> Voltage,
    {
        let idx = self.n_nodes - 1 + branch;
        let mut e = 0.0;
        for k in 1..self.len() {
            let dt = self.times[k] - self.times[k - 1];
            let p0 =
                self.states[k - 1][idx] * v_of_t(Time::from_seconds(self.times[k - 1])).volts();
            let p1 = self.states[k][idx] * v_of_t(Time::from_seconds(self.times[k])).volts();
            e += 0.5 * (p0 + p1) * dt;
        }
        sram_units::Energy::from_joules(-e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_trace() -> Trace {
        // Node 1 ramps 0 -> 1 V over 10 s; node 2 falls 1 -> 0.
        let times: Vec<f64> = (0..=10).map(f64::from).collect();
        let states: Vec<Vec<f64>> = (0..=10)
            .map(|k| vec![f64::from(k) / 10.0, 1.0 - f64::from(k) / 10.0])
            .collect();
        Trace::new(3, times, states)
    }

    #[test]
    fn interpolates_between_samples() {
        let tr = ramp_trace();
        let v = tr.voltage_at(NodeId(1), Time::from_seconds(2.5));
        assert!((v.volts() - 0.25).abs() < 1e-12);
        // Clamps outside range.
        assert_eq!(
            tr.voltage_at(NodeId(1), Time::from_seconds(99.0)).volts(),
            1.0
        );
    }

    #[test]
    fn ground_is_always_zero() {
        let tr = ramp_trace();
        assert_eq!(
            tr.voltage_at(NodeId(0), Time::from_seconds(5.0)),
            Voltage::ZERO
        );
    }

    #[test]
    fn crossing_detects_edges() {
        let tr = ramp_trace();
        let t = tr
            .crossing(
                NodeId(1),
                Voltage::from_volts(0.55),
                CrossingEdge::Rising,
                Time::ZERO,
            )
            .unwrap();
        assert!((t.seconds() - 5.5).abs() < 1e-9);
        assert!(tr
            .crossing(
                NodeId(1),
                Voltage::from_volts(0.55),
                CrossingEdge::Falling,
                Time::ZERO
            )
            .is_none());
        // `after` skips earlier crossings entirely.
        assert!(tr
            .crossing(
                NodeId(1),
                Voltage::from_volts(0.55),
                CrossingEdge::Rising,
                Time::from_seconds(6.0)
            )
            .is_none());
    }

    #[test]
    fn meeting_time_finds_intersection() {
        let tr = ramp_trace();
        let t = tr.meeting_time(NodeId(1), NodeId(2), Time::ZERO).unwrap();
        assert!((t.seconds() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn final_voltage_reads_the_last_sample() {
        let tr = ramp_trace();
        assert_eq!(tr.final_voltage(NodeId(1)).volts(), 1.0);
        assert_eq!(tr.final_voltage(NodeId(2)).volts(), 0.0);
    }

    #[test]
    fn delivered_charge_integrates() {
        // Constant 1 A branch current over 10 s -> 10 C.
        let times: Vec<f64> = (0..=10).map(f64::from).collect();
        let states: Vec<Vec<f64>> = (0..=10).map(|_| vec![0.0, 0.0, 1.0]).collect();
        let tr = Trace::new(3, times, states);
        assert!((tr.delivered_charge(0) - 10.0).abs() < 1e-12);
    }
}
