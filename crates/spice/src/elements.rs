//! Circuit elements and source waveforms.

use crate::NodeId;
use sram_device::FinFet;
use sram_units::{Current, Time, Voltage};

/// Time-dependent value of an independent voltage source.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Single pulse (or periodic if `period` is set): `v0` until `delay`,
    /// linear rise to `v1` over `rise`, hold for `width`, linear fall over
    /// `fall`, back to `v0`.
    Pulse {
        /// Initial level in volts.
        v0: f64,
        /// Pulsed level in volts.
        v1: f64,
        /// Delay before the rising edge, in seconds.
        delay: f64,
        /// Rise time in seconds.
        rise: f64,
        /// Fall time in seconds.
        fall: f64,
        /// Pulse width (time at `v1`) in seconds.
        width: f64,
    },
    /// Piece-wise linear waveform: `(time_seconds, volts)` breakpoints in
    /// ascending time order; the value is held constant outside the range.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// Constant waveform at `v`.
    #[must_use]
    pub fn dc(v: Voltage) -> Self {
        Waveform::Dc(v.volts())
    }

    /// Single rising step from `v0` to `v1` at `delay` with the given rise
    /// time — the workhorse stimulus for wordline/bitline events.
    #[must_use]
    pub fn step(v0: Voltage, v1: Voltage, delay: Time, rise: Time) -> Self {
        Waveform::Pulse {
            v0: v0.volts(),
            v1: v1.volts(),
            delay: delay.seconds(),
            rise: rise.seconds().max(1e-15),
            fall: rise.seconds().max(1e-15),
            width: f64::INFINITY,
        }
    }

    /// Piece-wise linear waveform from `(time, voltage)` breakpoints.
    ///
    /// # Panics
    ///
    /// Panics if breakpoints are not in ascending time order.
    #[must_use]
    pub fn pwl<I: IntoIterator<Item = (Time, Voltage)>>(points: I) -> Self {
        let pts: Vec<(f64, f64)> = points
            .into_iter()
            .map(|(t, v)| (t.seconds(), v.volts()))
            .collect();
        assert!(
            pts.windows(2).all(|w| w[0].0 <= w[1].0),
            "PWL breakpoints must be in ascending time order"
        );
        Waveform::Pwl(pts)
    }

    /// Value of the waveform at simulation time `t` (seconds).
    #[must_use]
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v0,
                v1,
                delay,
                rise,
                fall,
                width,
            } => {
                if t < *delay {
                    *v0
                } else if t < delay + rise {
                    v0 + (v1 - v0) * (t - delay) / rise
                } else if t < delay + rise + width {
                    *v1
                } else if t < delay + rise + width + fall {
                    v1 + (v0 - v1) * (t - delay - rise - width) / fall
                } else {
                    *v0
                }
            }
            Waveform::Pwl(points) => match points {
                p if p.is_empty() => 0.0,
                p => {
                    if t <= p[0].0 {
                        return p[0].1;
                    }
                    if t >= p[p.len() - 1].0 {
                        return p[p.len() - 1].1;
                    }
                    let idx = p.partition_point(|&(pt, _)| pt <= t);
                    let (t0, v0) = p[idx - 1];
                    let (t1, v1) = p[idx];
                    #[expect(
                        clippy::float_cmp,
                        reason = "exact duplicate-breakpoint guard: equal times would divide by zero"
                    )]
                    if t1 == t0 {
                        v1
                    } else {
                        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                    }
                }
            },
        }
    }
}

/// One circuit element.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Element {
    /// Linear resistor.
    Resistor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms.
        ohms: f64,
    },
    /// Linear capacitor.
    Capacitor {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads.
        farads: f64,
    },
    /// Independent voltage source (adds one branch-current unknown).
    VoltageSource {
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Source waveform.
        waveform: Waveform,
    },
    /// Independent current source pushing `amps` from `from` into `to`.
    CurrentSource {
        /// Terminal the current is drawn from.
        from: NodeId,
        /// Terminal the current is pushed into.
        to: NodeId,
        /// Current magnitude.
        amps: Current,
    },
    /// A FinFET from the device layer (gate draws no DC current).
    Fet {
        /// Gate terminal.
        gate: NodeId,
        /// Drain terminal.
        drain: NodeId,
        /// Source terminal.
        source: NodeId,
        /// Device instance (polarity, flavor, fins, Vt shift).
        device: FinFet,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_waveform_is_flat() {
        let w = Waveform::dc(Voltage::from_volts(0.45));
        assert_eq!(w.value_at(0.0), 0.45);
        assert_eq!(w.value_at(1.0), 0.45);
    }

    #[test]
    fn step_ramps_linearly() {
        let w = Waveform::step(
            Voltage::ZERO,
            Voltage::from_volts(1.0),
            Time::from_picoseconds(10.0),
            Time::from_picoseconds(2.0),
        );
        assert_eq!(w.value_at(0.0), 0.0);
        assert!((w.value_at(11e-12) - 0.5).abs() < 1e-9);
        assert_eq!(w.value_at(20e-12), 1.0);
        assert_eq!(w.value_at(1.0), 1.0); // infinite width: stays high
    }

    #[test]
    fn pulse_returns_to_v0() {
        let w = Waveform::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 1e-9,
            rise: 1e-10,
            fall: 1e-10,
            width: 1e-9,
        };
        assert_eq!(w.value_at(0.5e-9), 0.0);
        assert_eq!(w.value_at(1.5e-9), 1.0);
        assert_eq!(w.value_at(3e-9), 0.0);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::pwl([
            (Time::from_picoseconds(0.0), Voltage::ZERO),
            (Time::from_picoseconds(10.0), Voltage::from_volts(1.0)),
        ]);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert!((w.value_at(5e-12) - 0.5).abs() < 1e-9);
        assert_eq!(w.value_at(1.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn pwl_rejects_unordered_points() {
        let _ = Waveform::pwl([
            (Time::from_picoseconds(10.0), Voltage::ZERO),
            (Time::from_picoseconds(0.0), Voltage::ZERO),
        ]);
    }

    #[test]
    fn empty_pwl_is_zero() {
        assert_eq!(Waveform::Pwl(Vec::new()).value_at(1.0), 0.0);
    }
}
