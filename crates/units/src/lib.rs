//! Typed physical quantities for SRAM device/circuit/architecture modeling.
//!
//! Every quantity in the `sram-edp` workspace is carried by a dedicated
//! newtype over `f64` in SI base units ([`Voltage`] in volts, [`Current`]
//! in amperes, [`Capacitance`] in farads, …). The newtypes statically
//! prevent unit-confusion bugs (e.g. adding a delay to an energy) while the
//! implemented operator traits encode exactly the physically meaningful
//! combinations used by the paper's equations:
//!
//! * `C · V = Q` — charge moved on an interconnect,
//! * `Q / I = t` — Eq. (1) delay `D = C·ΔV / I`,
//! * `C · V · V = E` — Eq. (1) switching energy `E = C·V·ΔV`,
//! * `V · I = P`, `P · t = E`, `E · t = EDP`.
//!
//! # Examples
//!
//! Computing a bitline delay and switching energy from Eq. (1) of the paper:
//!
//! ```
//! use sram_units::{Capacitance, Current, Voltage};
//!
//! let c_bl = Capacitance::from_femtofarads(5.0);
//! let delta_v = Voltage::from_millivolts(120.0);
//! let i_read = Current::from_microamps(15.0);
//!
//! let delay = c_bl * delta_v / i_read; // Time
//! let energy = c_bl * Voltage::from_millivolts(450.0) * delta_v; // Energy
//!
//! assert!((delay.picoseconds() - 40.0).abs() < 1e-9);
//! assert!(energy.joules() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp
    )
)]

mod capacitance;
mod charge;
mod current;
mod edp;
mod energy;
mod format;
mod power;
mod time;
mod voltage;

pub use capacitance::Capacitance;
pub use charge::Charge;
pub use current::Current;
pub use edp::EnergyDelay;
pub use energy::Energy;
pub use power::Power;
pub use time::Time;
pub use voltage::Voltage;

pub(crate) use format::engineering;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_delay_round_trip() {
        // D = C * dV / I
        let c = Capacitance::from_femtofarads(10.0);
        let dv = Voltage::from_millivolts(100.0);
        let i = Current::from_microamps(1.0);
        let d = c * dv / i;
        // 10e-15 * 0.1 / 1e-6 = 1e-9 s
        assert!((d.seconds() - 1e-9).abs() < 1e-21);
    }

    #[test]
    fn eq1_energy_round_trip() {
        // E = C * V * dV
        let c = Capacitance::from_femtofarads(10.0);
        let v = Voltage::from_millivolts(450.0);
        let dv = Voltage::from_millivolts(120.0);
        let e = c * v * dv;
        assert!((e.joules() - 10e-15 * 0.45 * 0.12).abs() < 1e-30);
    }

    #[test]
    fn power_energy_edp_chain() {
        let p = Voltage::from_volts(0.45) * Current::from_microamps(2.0);
        assert!((p.watts() - 0.9e-6).abs() < 1e-18);
        let e = p * Time::from_nanoseconds(1.0);
        assert!((e.joules() - 0.9e-15).abs() < 1e-27);
        let edp = e * Time::from_nanoseconds(2.0);
        assert!((edp.joule_seconds() - 1.8e-24).abs() < 1e-36);
    }

    #[test]
    fn types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Voltage>();
        assert_send_sync::<Current>();
        assert_send_sync::<Capacitance>();
        assert_send_sync::<Charge>();
        assert_send_sync::<Time>();
        assert_send_sync::<Power>();
        assert_send_sync::<Energy>();
        assert_send_sync::<EnergyDelay>();
    }
}
