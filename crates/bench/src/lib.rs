//! Experiment drivers regenerating every figure and table of the paper.
//!
//! Each module reproduces one evaluation artifact (see DESIGN.md §4 for
//! the experiment index) and returns both structured data (consumed by
//! the integration tests) and formatted text (emitted by the `reproduce`
//! binary):
//!
//! | module | artifact |
//! |---|---|
//! | [`fig2`] | Fig. 2(a) HSNM vs. Vdd, Fig. 2(b) leakage vs. Vdd |
//! | [`fig3`] | Fig. 3(a) LVT/HVT read FoMs, (b) Vdd boost, (c) negative Gnd, (d) WL underdrive |
//! | [`fig5`] | Fig. 5(a) WL overdrive, (b) negative bitline |
//! | [`table4`] | Table 4 optimal design parameters |
//! | [`fig7`] | Fig. 7(a)–(c) delay/energy/EDP vs. capacity, (d) BL vs. total delay |
//! | [`readfit`] | Section 5's `I_read = b(V_DDC − V_SSC − Vt)^a` regression |
//! | [`yieldk`] | The μ−kσ statistical-constraint extension |
//! | [`ablation`] | Rail-pinning, Pareto-pruning, heuristic-search, and energy-accounting ablations |
//! | [`extensions`] | Banking, drowsy standby, statistically derated optimization |
//! | [`serve`] | Query-server bench: batching, result cache, TCP round trip, trace overhead |
//! | [`soak`] | Fault-injection soaks: one driver, four scenarios (chaos, telemetry, cluster, trace) |
//! | [`cli`] | Experiment registry + selection for the `reproduce` binary |

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

pub mod ablation;
pub mod cli;
pub mod extensions;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig7;
pub mod readfit;
#[cfg(test)]
mod rules;
pub mod serve;
pub mod soak;
pub mod table4;
pub mod yieldk;

/// Formats a `(x, series...)` table with a header as aligned text.
#[must_use]
pub fn format_series(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, h) in header.iter().enumerate() {
        out.push_str(&format!("{:>w$}  ", h, w = widths[i]));
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("{:>w$}  ", cell, w = widths[i]));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_series_aligns_columns() {
        let text = format_series(
            &["x", "value"],
            &[
                vec!["1".into(), "10.5".into()],
                vec!["100".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("value"));
        assert_eq!(lines[1].len(), lines[2].len());
    }
}
