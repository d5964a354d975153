//! Banked-macro design: split a 16 KB memory into banks, co-optimizing
//! each bank's array with the paper's framework and layering the banking
//! overheads (bank decoder, idle-bank leakage) on top.
//!
//! The paper treats each capacity as one monolithic array; this example
//! shows how much headroom partitioning leaves, and where it saturates.
//!
//! ```sh
//! cargo run --release --example banked_macro
//! ```

use sram_edp::array::{ArrayParams, Capacity, Periphery};
use sram_edp::cell::CellCharacterization;
use sram_edp::coopt::{
    evaluate_bank_count, optimize_banked, CooptError, DesignSpace, Method, Search, YieldConstraint,
};
use sram_edp::device::DeviceLibrary;

fn main() -> Result<(), CooptError> {
    let lib = DeviceLibrary::sevennm();
    let cell = CellCharacterization::paper_hvt(lib.nominal_vdd());
    let periphery = Periphery::new(&lib);
    let params = ArrayParams::paper_defaults();
    let space = DesignSpace::paper_default().with_strides(3, 2);
    let constraint = YieldConstraint::paper_delta(lib.nominal_vdd());
    let search = Search::new(&cell, &periphery, &params, &space, constraint, 64);
    let capacity = Capacity::from_bytes(16 * 1024);

    println!("16 KB 6T-HVT macro, bank-count sweep:\n");
    println!(
        "{:>6} {:>9} {:>12} {:>12} {:>12} {:>16}",
        "banks", "per-bank", "bank org", "delay", "energy", "EDP [1e-27 J*s]"
    );
    for bank_bits in 0..=3 {
        let d = evaluate_bank_count(&search, Method::M2, capacity, bank_bits)?;
        println!(
            "{:>6} {:>9} {:>12} {:>12} {:>12} {:>16.2}",
            d.banks(),
            d.bank.capacity.to_string(),
            format!(
                "{}x{}",
                d.bank.organization.rows(),
                d.bank.organization.cols()
            ),
            d.delay.to_string(),
            d.energy.to_string(),
            d.edp().joule_seconds() * 1e27,
        );
    }

    let best = optimize_banked(&search, Method::M2, capacity, 3)?;
    println!(
        "\nEDP-optimal partitioning: {} banks of {} ({} per bank, V_SSC = {})",
        best.banks(),
        best.bank.capacity,
        best.bank.organization,
        best.bank.vssc,
    );
    println!(
        "note: leakage *power* is banking-invariant (all bits leak); the win is cycle time\n\
         and per-access switching energy — see EXPERIMENTS.md (A6)."
    );
    Ok(())
}
