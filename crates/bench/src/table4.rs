//! Table 4: optimal design parameters for every capacity/configuration,
//! plus a Monte Carlo spot-check of the headline winner against the
//! paper's accurate statistical yield constraint (Section 4).

use sram_coopt::{CoOptimizationFramework, CooptError, Method, OptimalDesign};
use sram_device::VtFlavor;

/// Samples in the statistical spot-check — enough to exercise the full
/// variation/SPICE stack without dominating the runtime.
const SPOT_CHECK_SAMPLES: usize = 12;

/// Runs the full Table 4 optimization (20 exhaustive searches) in
/// paper-model mode with `threads` workers.
///
/// # Errors
///
/// Propagates framework failures.
pub fn compute(threads: usize) -> Result<Vec<OptimalDesign>, CooptError> {
    CoOptimizationFramework::paper_mode()
        .with_threads(threads)
        .optimize_table4()
}

/// Formats Table 4 plus the per-design evaluated metrics.
///
/// # Errors
///
/// Propagates framework failures.
pub fn run(threads: usize) -> Result<String, CooptError> {
    let mut fw = CoOptimizationFramework::paper_mode().with_threads(threads);
    let designs = fw.optimize_table4()?;
    let mut out =
        String::from("Table 4 — SRAM array design parameters at the minimum-EDP point\n\n");
    out.push_str(&sram_coopt::format_table4(&designs));
    out.push_str("\nEvaluated metrics:\n");
    for d in &designs {
        out.push_str(&format!("  {d}\n"));
    }
    out.push_str("\nCSV:\n");
    out.push_str(&sram_coopt::csv_table(&designs));

    // Cross-check the headline winner (16 KB 6T-HVT-M2) against the
    // accurate constraint `min(μ − kσ) ≥ 0` by Monte Carlo.
    if let Some(headline) = designs.iter().find(|d| {
        d.capacity.bytes() == 16 * 1024 && d.flavor == VtFlavor::Hvt && d.method == Method::M2
    }) {
        let mc = fw.verify_statistical_yield(headline, SPOT_CHECK_SAMPLES)?;
        out.push_str(&format!(
            "\nStatistical spot-check ({} {}, {SPOT_CHECK_SAMPLES}-sample Monte Carlo):\n  \
             worst mu-3sigma margin = {:.1} mV (k = 3 constraint {})\n",
            headline.capacity,
            headline.label(),
            mc.worst_statistical_margin(3.0).millivolts(),
            if mc.passes(3.0) { "passes" } else { "fails" },
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_coopt::Method;
    use sram_device::VtFlavor;

    #[test]
    fn table4_has_twenty_rows_with_paper_patterns() {
        let designs = compute(4).unwrap();
        assert_eq!(designs.len(), 20);

        // No `V_SSC` prints as `-0` (the M2 rows at 0 mV).
        let rows: String = designs.iter().map(|d| format!("{d}\n")).collect();
        for text in [
            sram_coopt::format_table4(&designs),
            sram_coopt::csv_table(&designs),
            rows,
        ] {
            assert!(!text.contains("-0 ") && !text.contains("-0,"), "{text}");
        }

        // Pattern 1 (Table 4): M2 designs at >= 1 KB exploit deep
        // negative Gnd.
        for d in &designs {
            if d.method == Method::M2 && d.capacity.bytes() >= 1024 && d.capacity.bytes() <= 4096 {
                assert!(d.vssc.millivolts() <= -100.0, "{}: V_SSC = {}", d, d.vssc);
            }
            // Pattern 2: M1 never uses a negative rail.
            if d.method == Method::M1 {
                assert_eq!(d.vssc.millivolts(), 0.0);
            }
            // Pattern 3: N_wr stays small relative to N_pre ("smaller
            // N_wr values are used which ... allows N_pre to be larger").
            assert!(d.n_wr <= d.n_pre, "{d}");
        }

        // Pattern 4: HVT-M1 has the highest delay of the four configs at
        // every capacity (Fig. 7(a)).
        for bytes in [128usize, 256, 1024, 4096, 16384] {
            let of = |f: VtFlavor, m: Method| {
                designs
                    .iter()
                    .find(|d| d.capacity.bytes() == bytes && d.flavor == f && d.method == m)
                    .expect("row exists")
            };
            let hvt_m1 = of(VtFlavor::Hvt, Method::M1);
            for (f, m) in [
                (VtFlavor::Lvt, Method::M1),
                (VtFlavor::Lvt, Method::M2),
                (VtFlavor::Hvt, Method::M2),
            ] {
                assert!(
                    hvt_m1.delay() >= of(f, m).delay(),
                    "at {bytes} B: HVT-M1 not slowest"
                );
            }
        }
    }
}
