//! Multi-bank partitioning — an architecture-level extension.
//!
//! The paper optimizes a single monolithic array per capacity. Real
//! macros above a few KB are usually **banked**: the capacity is split
//! into `2^k` independent arrays, one of which is activated per access,
//! plus a bank decoder and an output multiplexer. Banking trades:
//!
//! * shorter wordlines/bitlines per bank → faster, lower switching
//!   energy per access,
//! * but every bank leaks all the time (Eq. (4) applies to all `M` bits
//!   regardless of banking) and the bank periphery adds delay/energy.
//!
//! This module reuses the single-array optimizer per bank and layers the
//! banking overheads on top, exposing the EDP-optimal bank count.

use crate::{CooptError, EnergyDelayProduct, Method, OptimalDesign, Search};
use sram_array::{Capacity, DecoderModel};
use sram_units::{Energy, EnergyDelay, Time};

/// A banked memory design: `2^bank_bits` copies of one optimized array.
#[derive(Debug, Clone, PartialEq)]
pub struct BankedDesign {
    /// log2 of the bank count.
    pub bank_bits: u32,
    /// The per-bank optimal design (for `capacity / 2^bank_bits`).
    pub bank: OptimalDesign,
    /// Total access delay including the bank decoder and output mux.
    pub delay: Time,
    /// Total per-access energy including all banks' leakage.
    pub energy: Energy,
}

impl BankedDesign {
    /// Total energy-delay product of the banked macro.
    #[must_use]
    pub fn edp(&self) -> EnergyDelay {
        self.energy * self.delay
    }

    /// Number of banks.
    #[must_use]
    pub fn banks(&self) -> u32 {
        1 << self.bank_bits
    }
}

/// Optimizes the bank count for a total `capacity`, evaluating
/// `2^0 … 2^max_bank_bits` banks. Each candidate's bank array is
/// optimized by `search`'s exhaustive search and reported as a
/// `method` design ([`evaluate_bank_count`]); bank-level overheads are a
/// bank decoder (address width = `bank_bits`) on the critical path and
/// the idle banks' leakage over the (banked) cycle.
///
/// # Errors
///
/// Propagates per-bank search failures; a bank count whose per-bank
/// capacity has no valid organization is skipped, and
/// [`CooptError::EmptyDesignSpace`] is returned only if *no* bank count
/// works.
pub fn optimize_banked(
    search: &Search<'_>,
    method: Method,
    capacity: Capacity,
    max_bank_bits: u32,
) -> Result<BankedDesign, CooptError> {
    let mut best: Option<BankedDesign> = None;
    for bank_bits in 0..=max_bank_bits {
        let candidate = match evaluate_bank_count(search, method, capacity, bank_bits) {
            Ok(c) => c,
            Err(CooptError::EmptyDesignSpace { .. }) => continue,
            Err(e) => return Err(e),
        };
        if best.as_ref().is_none_or(|b| candidate.edp() < b.edp()) {
            best = Some(candidate);
        }
    }
    best.ok_or(CooptError::EmptyDesignSpace {
        capacity_bits: capacity.bits(),
    })
}

/// Scores one explicit bank count (for sweeps/plots): optimizes the
/// bank array for `2^bank_bits` banks with `search` and layers the
/// bank-level overheads on top. The bank is reported as a `method`
/// design of the search's cell: `method` names the rail policy that
/// cell was characterized under.
///
/// # Errors
///
/// Propagates the bank search's failures, including
/// [`CooptError::EmptyDesignSpace`] when the bank capacity admits no
/// organization; also [`CooptError::EmptyDesignSpace`] when
/// `2^bank_bits` does not divide the capacity.
pub fn evaluate_bank_count(
    search: &Search<'_>,
    method: Method,
    capacity: Capacity,
    bank_bits: u32,
) -> Result<BankedDesign, CooptError> {
    let banks = 1usize << bank_bits;
    if !capacity.bits().is_multiple_of(banks) {
        return Err(CooptError::EmptyDesignSpace {
            capacity_bits: capacity.bits(),
        });
    }
    let (cell, decoder) = (search.cell, DecoderModel::new(search.periphery));
    let bank_capacity = Capacity::from_bits(capacity.bits() / banks);
    let outcome = search.run(bank_capacity, &EnergyDelayProduct)?;
    // Bank-level overheads: decoder in series; output mux lumped as one
    // more decoder stage of the same width.
    let delay = outcome.metrics.delay + decoder.delay(bank_bits) * 2.0;
    // Leakage: the active bank's leakage is inside its metrics; the
    // other (banks-1) banks leak for the same cycle (Eq. (4) scaled).
    let idle_leakage = if banks > 1 {
        cell.leakage() * (bank_capacity.bits() as f64 * (banks as f64 - 1.0)) * delay
    } else {
        Energy::ZERO
    };
    let energy = outcome.metrics.energy + decoder.energy(bank_bits) * 2.0 + idle_leakage;
    Ok(BankedDesign {
        bank_bits,
        bank: outcome.into_design(bank_capacity, cell.flavor(), method, cell),
        delay,
        energy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DesignSpace, YieldConstraint};
    use sram_array::{ArrayParams, Periphery};
    use sram_cell::CellCharacterization;
    use sram_device::{DeviceLibrary, VtFlavor};
    use sram_units::Voltage;

    struct Fixture {
        cell: CellCharacterization,
        periphery: Periphery,
        params: ArrayParams,
        space: DesignSpace,
    }

    fn search(fx: &Fixture) -> Search<'_> {
        Search::new(
            &fx.cell,
            &fx.periphery,
            &fx.params,
            &fx.space,
            YieldConstraint::paper_delta(fx.cell.vdd()),
            64,
        )
    }

    fn fixture() -> Fixture {
        let lib = DeviceLibrary::sevennm();
        Fixture {
            cell: CellCharacterization::paper_hvt(lib.nominal_vdd()),
            periphery: Periphery::new(&lib),
            params: ArrayParams::paper_defaults(),
            space: DesignSpace::coarse(),
        }
    }

    #[test]
    fn banking_never_loses_to_monolithic() {
        let fx = fixture();
        let banked =
            optimize_banked(&search(&fx), Method::M2, Capacity::from_bytes(16 * 1024), 3).unwrap();
        let mono =
            evaluate_bank_count(&search(&fx), Method::M2, Capacity::from_bytes(16 * 1024), 0)
                .unwrap();
        assert!(banked.edp() <= mono.edp(), "the search includes 1 bank");
    }

    #[test]
    fn banking_cuts_delay_at_large_capacity() {
        let fx = fixture();
        let mono =
            evaluate_bank_count(&search(&fx), Method::M2, Capacity::from_bytes(16 * 1024), 0)
                .unwrap();
        let four =
            evaluate_bank_count(&search(&fx), Method::M2, Capacity::from_bytes(16 * 1024), 2)
                .unwrap();
        assert!(four.delay < mono.delay, "4 banks should cut the delay");
        assert_eq!(four.banks(), 4);
        assert_eq!(four.bank.capacity.bytes(), 4096);
    }

    #[test]
    fn banks_carry_the_callers_method() {
        let lib = DeviceLibrary::sevennm();
        let vdd = lib.nominal_vdd();
        let rail = Voltage::from_millivolts(550.0);
        let fx = Fixture {
            cell: CellCharacterization::paper_with_rails(VtFlavor::Hvt, vdd, rail, rail),
            periphery: Periphery::new(&lib),
            params: ArrayParams::paper_defaults(),
            space: DesignSpace::coarse().without_negative_gnd(),
        };
        let two =
            evaluate_bank_count(&search(&fx), Method::M1, Capacity::from_bytes(4096), 1).unwrap();
        assert_eq!(two.banks(), 2);
        assert_eq!(two.bank.label(), "6T-HVT-M1");
        assert_eq!(two.bank.vssc, Voltage::ZERO);
        let best =
            optimize_banked(&search(&fx), Method::M1, Capacity::from_bytes(4096), 1).unwrap();
        assert_eq!(best.bank.method, Method::M1);
    }

    #[test]
    fn total_leakage_is_banking_invariant() {
        // Eq. (4): all M bits leak regardless of partitioning; the
        // leakage *energy* differs only through the cycle time.
        let fx = fixture();
        let capacity = Capacity::from_bytes(4096);
        let mono = evaluate_bank_count(&search(&fx), Method::M2, capacity, 0).unwrap();
        let banked = evaluate_bank_count(&search(&fx), Method::M2, capacity, 2).unwrap();
        // Leakage power = leakage energy / cycle: must equal M * P_cell
        // in both partitionings.
        let expect = fx.cell.leakage().watts() * capacity.bits() as f64;
        let decoder = DecoderModel::new(&fx.periphery);
        for d in [&mono, &banked] {
            let idle = d.energy - d.bank.metrics.energy - decoder.energy(d.bank_bits) * 2.0;
            let total_leak_power =
                (d.bank.metrics.leakage_energy + idle).joules() / d.delay.seconds();
            // The active bank's leakage term uses its own (bank-only)
            // delay while idle banks use the banked cycle; allow the
            // small decoder-delay skew.
            assert!(
                (total_leak_power / expect - 1.0).abs() < 0.05,
                "banked leakage power {total_leak_power:.3e} vs expected {expect:.3e}"
            );
        }
    }
}
