//! EXPERIMENTS.md's `## Registry` table and [`crate::cli::EXPERIMENTS`]
//! name the same experiments, each once.

use super::doc;
use crate::cli::EXPERIMENTS;

/// The backticked first cell of each row in the `## Registry` section,
/// with its line; `None` when the section is missing.
fn registry_rows(md: &str) -> Option<Vec<(usize, &str)>> {
    let start = md.lines().position(|line| line == "## Registry")?;
    let rows = md
        .lines()
        .enumerate()
        .skip(start + 1)
        .take_while(|(_, line)| !line.starts_with("## "))
        .filter_map(|(i, line)| Some((i + 1, line.strip_prefix("| `")?.split('`').next()?)))
        .collect();
    Some(rows)
}

/// One line per registered experiment without a row, per row naming no
/// registered experiment, and per repeated row.
fn registry_drift(registered: &[&str], md: &str) -> Vec<String> {
    let Some(rows) = registry_rows(md) else {
        return vec!["EXPERIMENTS.md has no `## Registry` section".into()];
    };
    let mut out = Vec::new();
    for name in registered {
        if !rows.iter().any(|(_, row)| row == name) {
            out.push(format!(
                "`{name}` is in cli::EXPERIMENTS but has no EXPERIMENTS.md registry row"
            ));
        }
    }
    for (k, (line, row)) in rows.iter().enumerate() {
        if !registered.contains(row) {
            out.push(format!(
                "EXPERIMENTS.md:{line}: `{row}` names no experiment in cli::EXPERIMENTS"
            ));
        } else if rows[..k].iter().any(|(_, earlier)| earlier == row) {
            out.push(format!("EXPERIMENTS.md:{line}: `{row}` is listed again"));
        }
    }
    out
}

mod tests {
    use super::*;

    /// The registered names are `cli::EXPERIMENTS` itself, not a parse of
    /// `cli.rs`; they are unique, and the ledger lists each once.
    #[test]
    fn registry_names_are_harvested_via_the_graph() {
        let registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        for (i, name) in registered.iter().enumerate() {
            assert!(!registered[..i].contains(name), "`{name}` registered twice");
        }
        let drift = registry_drift(&registered, &doc("EXPERIMENTS.md"));
        assert!(drift.is_empty(), "{}", drift.join("\n"));
    }

    #[test]
    fn section_parser_reads_backticked_cells() {
        let md = "# Title\n\n## Registry\n\n| experiment | section |\n|---|---|\n| `fig2` | E1 |\n| `yield` | E8 |\n\n## Next\n| `not-me` | x |\n";
        assert_eq!(registry_rows(md), Some(vec![(7, "fig2"), (8, "yield")]));
        assert_eq!(registry_rows("# no registry\n"), None);
    }

    /// Only the registry section lists experiments: a backticked row in
    /// another part of the ledger neither registers nor covers one.
    #[test]
    fn other_files_contribute_no_experiments() {
        let md = "## Registry\n| `fig2` | E1 |\n\n## E3\n| `fig3` | sweep |\n| `ghost` | x |\n";
        assert_eq!(
            registry_drift(&["fig2", "fig3"], md),
            ["`fig3` is in cli::EXPERIMENTS but has no EXPERIMENTS.md registry row"]
        );
    }

    #[test]
    fn drift_is_reported_in_both_directions() {
        let md = "## Registry\n| `fig2` | ok |\n| `ghost-ledger` | stale |\n| `fig2` | again |\n";
        assert_eq!(
            registry_drift(&["fig2", "ghost"], md),
            [
                "`ghost` is in cli::EXPERIMENTS but has no EXPERIMENTS.md registry row",
                "EXPERIMENTS.md:3: `ghost-ledger` names no experiment in cli::EXPERIMENTS",
                "EXPERIMENTS.md:4: `fig2` is listed again",
            ]
        );
    }
}
