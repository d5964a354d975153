//! `registry-sync`: the experiment registry and EXPERIMENTS.md agree.
//!
//! `reproduce`'s CLI is generated from the registry in
//! `crates/bench/src/cli.rs`; EXPERIMENTS.md is the measured-results
//! ledger. A registry entry missing from the ledger is an experiment
//! nobody recorded; a ledger row naming no registry entry is stale
//! documentation. The symbol graph harvests `name: "…"` fields from the
//! registry constant during the walk; this cross-file rule diffs them
//! against the backticked names in the ledger's `## Registry` section
//! and requires the two sets to be equal. Registry-side findings anchor
//! at the registration line in `cli.rs` (and are suppressible there);
//! ledger-side findings anchor at the stale row.

use crate::graph::Graph;
use crate::rules::{FileDiag, RawDiag};
use std::path::Path;

/// Root-relative path of the experiment registry source.
pub const CLI_PATH: &str = "crates/bench/src/cli.rs";
/// Root-relative path of the results ledger.
pub const LEDGER_PATH: &str = "EXPERIMENTS.md";

/// End-of-walk pass: reads the ledger and reports both directions of
/// drift against the graph's experiment definitions.
pub fn finish(graph: &Graph, root: &Path, out: &mut Vec<FileDiag>) {
    if !graph.saw_cli {
        // Not this workspace (e.g. a fixture tree without a registry).
        return;
    }
    let anchored =
        |file: &str, line: u32, len: u32, message: String, help: Option<String>| FileDiag {
            file: file.to_owned(),
            diag: RawDiag {
                rule: "registry-sync",
                line,
                col: 1,
                len,
                message,
                help,
            },
        };
    let ledger_path = root.join(LEDGER_PATH);
    let Ok(ledger) = std::fs::read_to_string(&ledger_path) else {
        out.push(anchored(
            CLI_PATH,
            1,
            1,
            format!("{CLI_PATH} defines an experiment registry but {LEDGER_PATH} is missing"),
            Some("add EXPERIMENTS.md with a `## Registry` section".to_owned()),
        ));
        return;
    };
    let Some(ledger_names) = registry_section_names(&ledger) else {
        out.push(anchored(
            LEDGER_PATH,
            1,
            1,
            format!("{LEDGER_PATH} has no `## Registry` section"),
            Some(
                "add a `## Registry` table listing every experiment name from \
                 crates/bench/src/cli.rs in backticks"
                    .to_owned(),
            ),
        ));
        return;
    };
    for (file, def) in &graph.experiments {
        if !ledger_names.iter().any(|(n, _)| n == &def.name) {
            let name = &def.name;
            out.push(FileDiag {
                file: file.clone(),
                diag: RawDiag::at_site(
                    "registry-sync",
                    &def.site,
                    format!(
                        "experiment `{name}` is registered in cli.rs but absent from \
                         {LEDGER_PATH}'s Registry section"
                    ),
                    Some(format!(
                        "add a `| \\`{name}\\` | … |` row to the Registry table"
                    )),
                ),
            });
        }
    }
    for (name, md_line) in &ledger_names {
        if !graph.experiments.iter().any(|(_, d)| &d.name == name) {
            out.push(anchored(
                LEDGER_PATH,
                *md_line,
                name.chars().count().max(1) as u32,
                format!(
                    "{LEDGER_PATH} Registry lists `{name}` but cli.rs registers no such \
                     experiment"
                ),
                Some(
                    "remove the stale row or register the experiment in crates/bench/src/cli.rs"
                        .to_owned(),
                ),
            ));
        }
    }
}

/// Backticked names in the first cell of each `## Registry` table row,
/// with their 1-based line numbers. `None` when the section is absent.
fn registry_section_names(ledger: &str) -> Option<Vec<(String, u32)>> {
    let mut in_section = false;
    let mut names = Vec::new();
    let mut found = false;
    for (i, line) in ledger.lines().enumerate() {
        if line.trim_start().starts_with("## ") {
            in_section = line.trim_start().starts_with("## Registry");
            if in_section {
                found = true;
            }
            continue;
        }
        if !in_section {
            continue;
        }
        let trimmed = line.trim_start();
        if !trimmed.starts_with('|') {
            continue;
        }
        // First backticked token on the row.
        let mut parts = trimmed.split('`');
        let _ = parts.next();
        if let Some(name) = parts.next() {
            let name = name.trim();
            if !name.is_empty() && !name.contains('|') {
                names.push((name.to_owned(), (i + 1) as u32));
            }
        }
    }
    found.then_some(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_harvested_via_the_graph() {
        let src = "pub const EXPERIMENTS: &[Experiment] = &[\n  Experiment { name: \"fig2\", summary: \"s\", in_all: true, run: fig2 },\n  Experiment { name: \"table4\", summary: \"s\", in_all: true, run: table4 },\n];\n";
        let graph = Graph::from_sources(&[(CLI_PATH, src)]);
        let names: Vec<&str> = graph
            .experiments
            .iter()
            .map(|(_, d)| d.name.as_str())
            .collect();
        assert_eq!(names, vec!["fig2", "table4"]);
        assert!(graph.saw_cli);
    }

    #[test]
    fn section_parser_reads_backticked_cells() {
        let md = "# Title\n\n## Registry\n\n| experiment | section |\n|---|---|\n| `fig2` | E1 |\n| `yield` | E8 |\n\n## Next\n| `not-me` | x |\n";
        let names = registry_section_names(md).expect("section present");
        let flat: Vec<&str> = names.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(flat, vec!["fig2", "yield"]);
        assert_eq!(names[0].1, 7, "row line recorded");
        assert!(registry_section_names("# no registry\n").is_none());
    }

    #[test]
    fn other_files_contribute_no_experiments() {
        let graph = Graph::from_sources(&[("crates/x/src/a.rs", "let name: &str = \"x\";")]);
        assert!(graph.experiments.is_empty());
    }

    #[test]
    fn drift_is_reported_in_both_directions() {
        let graph = Graph::from_sources(&[(
            CLI_PATH,
            "const E: &[X] = &[X { name: \"fig2\" }, X { name: \"ghost\" }];\n",
        )]);
        let dir = std::env::temp_dir().join(format!("sram-lint-regsync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(LEDGER_PATH),
            "## Registry\n| `fig2` | ok |\n| `ghost-ledger` | stale |\n",
        )
        .unwrap();
        let mut out = Vec::new();
        finish(&graph, &dir, &mut out);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(out.len(), 2, "{out:?}");
        let ghost = out
            .iter()
            .find(|d| d.diag.message.contains("`ghost`"))
            .expect("unrecorded experiment");
        assert_eq!(ghost.file, CLI_PATH);
        assert_eq!(ghost.diag.line, 1);
        let stale = out
            .iter()
            .find(|d| d.diag.message.contains("`ghost-ledger`"))
            .expect("stale row");
        assert_eq!(stale.file, LEDGER_PATH);
        assert_eq!(stale.diag.line, 3, "anchored at the stale row");
    }
}
