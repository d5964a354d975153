//! Figure 7: delay, energy, and EDP of the four configurations across
//! capacities, plus the bitline-vs-total delay decomposition.

use crate::format_series;
use sram_array::Capacity;
use sram_coopt::{CoOptimizationFramework, CooptError, Method, OptimalDesign};
use sram_device::VtFlavor;

/// The Fig. 7 data set: one optimal design per (capacity, config).
#[derive(Debug, Clone)]
pub struct Fig7Data {
    /// Capacities swept (128 B … 16 KB).
    pub capacities: Vec<Capacity>,
    /// Designs in `capacity-major, (LVT-M1, LVT-M2, HVT-M1, HVT-M2)`
    /// order.
    pub designs: Vec<OptimalDesign>,
}

impl Fig7Data {
    /// The design for one (capacity, flavor, method).
    ///
    /// # Panics
    ///
    /// Panics if the combination was not computed.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented panic; compute() fills every (capacity, flavor, method) triple"
    )]
    pub fn design(&self, capacity: Capacity, flavor: VtFlavor, method: Method) -> &OptimalDesign {
        self.designs
            .iter()
            .find(|d| d.capacity == capacity && d.flavor == flavor && d.method == method)
            .expect("combination not computed")
    }

    /// Average EDP saving of HVT-M2 vs. LVT-M2 over capacities ≥ 1 KB
    /// (the paper's 59 % headline).
    #[must_use]
    fn average_large_capacity_edp_saving(&self) -> f64 {
        let mut savings = Vec::new();
        for &c in &self.capacities {
            if c.bytes() >= 1024 {
                let lvt = self.design(c, VtFlavor::Lvt, Method::M2);
                let hvt = self.design(c, VtFlavor::Hvt, Method::M2);
                savings.push(1.0 - hvt.edp() / lvt.edp());
            }
        }
        savings.iter().sum::<f64>() / savings.len().max(1) as f64
    }

    /// Maximum delay penalty of HVT-M2 vs. LVT-M2 (the paper's 12 %
    /// headline).
    #[must_use]
    fn max_delay_penalty(&self) -> f64 {
        self.capacities
            .iter()
            .map(|&c| {
                let lvt = self.design(c, VtFlavor::Lvt, Method::M2);
                let hvt = self.design(c, VtFlavor::Hvt, Method::M2);
                hvt.delay() / lvt.delay() - 1.0
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Computes the Fig. 7 sweep (same searches as Table 4).
///
/// # Errors
///
/// Propagates framework failures.
pub fn compute(threads: usize) -> Result<Fig7Data, CooptError> {
    let mut fw = CoOptimizationFramework::paper_mode().with_threads(threads);
    let capacities: Vec<Capacity> = [128usize, 256, 1024, 4096, 16 * 1024]
        .iter()
        .map(|&b| Capacity::from_bytes(b))
        .collect();
    let mut designs = Vec::new();
    for &c in &capacities {
        for flavor in [VtFlavor::Lvt, VtFlavor::Hvt] {
            for method in [Method::M1, Method::M2] {
                designs.push(fw.optimize(c, flavor, method)?);
            }
        }
    }
    Ok(Fig7Data {
        capacities,
        designs,
    })
}

/// Formats Fig. 7(a)–(d) as tables plus the headline summary.
///
/// # Errors
///
/// Propagates framework failures.
pub fn run(threads: usize) -> Result<String, CooptError> {
    let data = compute(threads)?;
    let configs = [
        (VtFlavor::Lvt, Method::M1),
        (VtFlavor::Lvt, Method::M2),
        (VtFlavor::Hvt, Method::M1),
        (VtFlavor::Hvt, Method::M2),
    ];

    let mut out = String::new();
    for (title, metric) in [
        ("Fig. 7(a) — delay [ps]", 0usize),
        ("Fig. 7(b) — energy [fJ]", 1),
        ("Fig. 7(c) — EDP [fJ*ps = 1e-27 J*s]", 2),
    ] {
        let rows: Vec<Vec<String>> = data
            .capacities
            .iter()
            .map(|&c| {
                let mut row = vec![c.to_string()];
                for &(f, m) in &configs {
                    let d = data.design(c, f, m);
                    let v = match metric {
                        0 => d.delay().picoseconds(),
                        1 => d.energy().femtojoules(),
                        _ => d.edp().joule_seconds() * 1e27,
                    };
                    row.push(format!("{v:.2}"));
                }
                row
            })
            .collect();
        out.push_str(&format!(
            "{title}\n\n{}\n",
            format_series(&["capacity", "LVT-M1", "LVT-M2", "HVT-M1", "HVT-M2"], &rows)
        ));
    }

    // Fig. 7(d): BL vs total delay in HVT-M1 and HVT-M2.
    let rows: Vec<Vec<String>> = data
        .capacities
        .iter()
        .map(|&c| {
            let m1 = data.design(c, VtFlavor::Hvt, Method::M1);
            let m2 = data.design(c, VtFlavor::Hvt, Method::M2);
            vec![
                c.to_string(),
                format!("{:.2}", m1.metrics.read_breakdown.bitline.picoseconds()),
                format!("{:.2}", m1.delay().picoseconds()),
                format!("{:.2}", m2.metrics.read_breakdown.bitline.picoseconds()),
                format!("{:.2}", m2.delay().picoseconds()),
            ]
        })
        .collect();
    out.push_str(&format!(
        "Fig. 7(d) — bitline vs total delay, 6T-HVT arrays [ps]\n\n{}\n",
        format_series(
            &["capacity", "M1 BL", "M1 total", "M2 BL", "M2 total"],
            &rows
        )
    ));

    out.push_str(&format!(
        "Headlines:\n  avg EDP saving HVT-M2 vs LVT-M2 (>=1 KB): {:.1}% (paper: 59%)\n  max delay penalty HVT-M2 vs LVT-M2: {:.1}% (paper: 12%)\n",
        data.average_large_capacity_edp_saving() * 100.0,
        data.max_delay_penalty() * 100.0
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_headlines_hold_in_shape() {
        let data = compute(4).unwrap();
        // Who wins: HVT-M2 has the lowest EDP at every capacity >= 1 KB.
        for &c in &data.capacities {
            if c.bytes() < 1024 {
                continue;
            }
            let hvt_m2 = data.design(c, VtFlavor::Hvt, Method::M2).edp();
            for (f, m) in [
                (VtFlavor::Lvt, Method::M1),
                (VtFlavor::Lvt, Method::M2),
                (VtFlavor::Hvt, Method::M1),
            ] {
                assert!(
                    hvt_m2 <= data.design(c, f, m).edp(),
                    "HVT-M2 not the EDP winner at {c}"
                );
            }
        }
        // EDP saving grows with capacity (leakage dominance).
        let s = &data;
        let saving = |bytes: usize| {
            let c = Capacity::from_bytes(bytes);
            1.0 - s.design(c, VtFlavor::Hvt, Method::M2).edp()
                / s.design(c, VtFlavor::Lvt, Method::M2).edp()
        };
        assert!(saving(16 * 1024) > saving(1024));
        // Average saving for >= 1 KB lands in the paper's neighborhood.
        let avg = data.average_large_capacity_edp_saving();
        assert!(avg > 0.25, "avg saving {avg:.2} too small (paper: 0.59)");
    }

    #[test]
    fn fig7d_negative_gnd_cuts_bl_share() {
        let data = compute(4).unwrap();
        // At the capacities where M2 uses deep negative Gnd, its BL delay
        // is far below M1's (paper: 3.3x average).
        let c = Capacity::from_bytes(4096);
        let m1 = data.design(c, VtFlavor::Hvt, Method::M1);
        let m2 = data.design(c, VtFlavor::Hvt, Method::M2);
        assert!(m1.metrics.read_breakdown.bitline > m2.metrics.read_breakdown.bitline * 1.5);
        assert!(m1.delay() > m2.delay());
    }
}
