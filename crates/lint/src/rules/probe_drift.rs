//! `probe-drift`: the probe/telemetry namespace matches its registry,
//! and every metric is asserted by something.
//!
//! `PROBES.md` at the workspace root is the naming registry: one table
//! row per metric (`| `name` | kind | asserted by |`). Dashboards, the
//! CI smoke steps, and the soak experiments all key on these names, so
//! three kinds of drift are errors:
//!
//! * a metric registered in code but absent from the registry (an
//!   undocumented name consumers can't discover),
//! * a registry row naming a metric no code registers (stale docs), and
//! * a kind cell disagreeing with what the code registers.
//!
//! A fourth check enforces *assertion coverage*: a metric that no test,
//! reproducer, or CI smoke ever mentions is telemetry nobody would
//! notice breaking. The symbol graph collects metric-name string
//! literals from assertion sites (test-class files, `crates/bench`,
//! `tests/`, `examples/`) and this rule additionally scans
//! `.github/workflows/*.yml`; a metric mentioned nowhere must carry an
//! `unchecked: <reason>` cell in its registry row — the probe-space
//! analogue of a reasoned suppression.

use crate::graph::Graph;
use crate::rules::{probe_naming, FileDiag, RawDiag};
use std::collections::BTreeSet;
use std::path::Path;

/// Root-relative path of the probe naming registry.
pub const REGISTRY_PATH: &str = "PROBES.md";

/// One parsed registry row.
#[derive(Debug, Clone)]
struct Row {
    name: String,
    kind: String,
    asserted: String,
    line: u32,
}

/// Diffs the graph's probe definitions against `PROBES.md` and the
/// assertion-site mentions.
pub fn check(graph: &Graph, root: &Path, out: &mut Vec<FileDiag>) {
    // First definition per name, in walk order (collisions are the
    // probe-naming rule's problem; drift works off one kind per name).
    let mut seen = BTreeSet::new();
    let defs: Vec<&(String, crate::graph::ProbeDef)> = graph
        .probes
        .iter()
        .filter(|(_, d)| seen.insert(d.name.clone()))
        .collect();

    let registry_text = std::fs::read_to_string(root.join(REGISTRY_PATH)).ok();
    if defs.is_empty() && registry_text.is_none() {
        // A tree with no probe surface (most fixture trees) needs no
        // registry.
        return;
    }
    let Some(text) = registry_text else {
        out.push(FileDiag {
            file: REGISTRY_PATH.to_owned(),
            diag: RawDiag {
                rule: "probe-drift",
                line: 1,
                col: 1,
                len: 1,
                message: format!(
                    "the workspace registers {} probe metric(s) but {REGISTRY_PATH} is missing",
                    defs.len()
                ),
                help: Some(
                    "add PROBES.md with a `| \\`name\\` | kind | asserted by |` table row per \
                     metric"
                        .to_owned(),
                ),
            },
        });
        return;
    };
    let rows = parse_rows(&text);
    let ci_mentions = ci_workflow_mentions(root);

    for (file, def) in &defs {
        let Some(row) = rows.iter().find(|r| r.name == def.name) else {
            out.push(FileDiag {
                file: file.clone(),
                diag: RawDiag::at_site(
                    "probe-drift",
                    &def.site,
                    format!(
                        "probe metric `{}` is registered here but not listed in {REGISTRY_PATH}",
                        def.name
                    ),
                    Some(format!(
                        "add a `| \\`{}\\` | {} | … |` row to {REGISTRY_PATH}",
                        def.name,
                        def.kind.word()
                    )),
                ),
            });
            continue;
        };
        if row.kind != def.kind.word() {
            out.push(FileDiag {
                file: REGISTRY_PATH.to_owned(),
                diag: RawDiag {
                    rule: "probe-drift",
                    line: row.line,
                    col: 1,
                    len: row.name.chars().count().max(1) as u32,
                    message: format!(
                        "{REGISTRY_PATH} lists `{}` as a {} but code registers it as a {} at \
                         {file}:{}",
                        def.name,
                        row.kind,
                        def.kind.word(),
                        def.site.line
                    ),
                    help: Some("update the kind cell to match the registration".to_owned()),
                },
            });
        }
        let unchecked = row.asserted.trim_start().starts_with("unchecked");
        if !unchecked && !graph.is_metric_mentioned(&def.name) && !ci_mentions.contains(&def.name) {
            out.push(FileDiag {
                file: file.clone(),
                diag: RawDiag::at_site(
                    "probe-drift",
                    &def.site,
                    format!(
                        "probe metric `{}` is never asserted by any test, reproducer, or CI \
                         smoke step",
                        def.name
                    ),
                    Some(format!(
                        "assert the metric somewhere (a test, `crates/bench`, or a CI smoke), \
                         or mark its {REGISTRY_PATH} row `unchecked: <reason>`"
                    )),
                ),
            });
        }
    }
    for row in &rows {
        if !defs.iter().any(|(_, d)| d.name == row.name) {
            out.push(FileDiag {
                file: REGISTRY_PATH.to_owned(),
                diag: RawDiag {
                    rule: "probe-drift",
                    line: row.line,
                    col: 1,
                    len: row.name.chars().count().max(1) as u32,
                    message: format!(
                        "{REGISTRY_PATH} lists `{}` but no code registers a probe metric with \
                         that name",
                        row.name
                    ),
                    help: Some(
                        "remove the stale row or restore the registration in code".to_owned(),
                    ),
                },
            });
        }
    }
}

/// Parses `| `name` | kind | asserted by |` rows anywhere in the file.
/// Rows without a backticked first cell (headers, separators) are
/// skipped; duplicate names keep their first row.
fn parse_rows(text: &str) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed
            .trim_start_matches('|')
            .trim_end_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        let Some(first) = cells.first() else {
            continue;
        };
        // The name sits in backticks in the first cell.
        let mut parts = first.split('`');
        let _ = parts.next();
        let Some(name) = parts.next() else {
            continue;
        };
        let name = name.trim();
        if name.is_empty() || !probe_naming::well_formed(name) {
            continue;
        }
        if rows.iter().any(|r| r.name == name) {
            continue;
        }
        rows.push(Row {
            name: name.to_owned(),
            kind: cells.get(1).copied().unwrap_or("").to_owned(),
            asserted: cells.get(2).copied().unwrap_or("").to_owned(),
            line: (i + 1) as u32,
        });
    }
    rows
}

/// Dotted metric-name-shaped tokens appearing anywhere in the CI
/// workflow files — the smoke steps assert counters by name in inline
/// python, which the `.rs` walk cannot see.
fn ci_workflow_mentions(root: &Path) -> BTreeSet<String> {
    let mut mentions = BTreeSet::new();
    let dir = root.join(".github/workflows");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return mentions;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let is_yaml = path.extension().is_some_and(|e| e == "yml" || e == "yaml");
        if !is_yaml {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        for token in text.split(|c: char| {
            !(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
        }) {
            if token.contains('.') && probe_naming::well_formed(token) {
                mentions.insert(token.to_owned());
            }
        }
    }
    mentions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_in_tmp(graph: &Graph, registry: Option<&str>, tag: &str) -> Vec<FileDiag> {
        let dir =
            std::env::temp_dir().join(format!("sram-lint-drift-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        if let Some(text) = registry {
            std::fs::write(dir.join(REGISTRY_PATH), text).unwrap();
        }
        let mut out = Vec::new();
        check(graph, &dir, &mut out);
        std::fs::remove_dir_all(&dir).ok();
        out
    }

    const SPICE_SRC: &str = "fn f() { sram_probe::probe_inc!(\"spice.solves\"); }\n";

    #[test]
    fn listed_and_asserted_metric_is_quiet() {
        let graph = Graph::from_sources(&[
            ("crates/spice/src/a.rs", SPICE_SRC),
            (
                "crates/spice/tests/t.rs",
                "fn t() { assert_counter(\"spice.solves\"); }\n",
            ),
        ]);
        let out = run_in_tmp(
            &graph,
            Some("| `spice.solves` | counter | spice tests |\n"),
            "clean",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unlisted_metric_fires_at_the_registration() {
        let graph = Graph::from_sources(&[("crates/spice/src/a.rs", SPICE_SRC)]);
        let out = run_in_tmp(
            &graph,
            Some("| `spice.other` | counter | unchecked: x |\n"),
            "unlisted",
        );
        let missing = out
            .iter()
            .find(|d| d.diag.message.contains("not listed"))
            .expect("unlisted metric reported");
        assert_eq!(missing.file, "crates/spice/src/a.rs");
        let stale = out
            .iter()
            .find(|d| d.diag.message.contains("`spice.other`"))
            .expect("stale row reported");
        assert_eq!(stale.file, REGISTRY_PATH);
    }

    #[test]
    fn kind_mismatch_fires_at_the_row() {
        let graph = Graph::from_sources(&[("crates/spice/src/a.rs", SPICE_SRC)]);
        let out = run_in_tmp(
            &graph,
            Some("| `spice.solves` | gauge | unchecked: fixture |\n"),
            "kind",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, REGISTRY_PATH);
        assert!(out[0].diag.message.contains("as a gauge"));
    }

    #[test]
    fn unasserted_metric_fires_unless_marked_unchecked() {
        let graph = Graph::from_sources(&[("crates/spice/src/a.rs", SPICE_SRC)]);
        let noisy = run_in_tmp(
            &graph,
            Some("| `spice.solves` | counter | spice tests |\n"),
            "unasserted",
        );
        assert_eq!(noisy.len(), 1, "{noisy:?}");
        assert!(noisy[0].diag.message.contains("never asserted"));
        let quiet = run_in_tmp(
            &graph,
            Some("| `spice.solves` | counter | unchecked: internal bookkeeping |\n"),
            "unchecked",
        );
        assert!(quiet.is_empty(), "{quiet:?}");
    }

    #[test]
    fn missing_registry_with_probes_is_one_finding() {
        let graph = Graph::from_sources(&[("crates/spice/src/a.rs", SPICE_SRC)]);
        let out = run_in_tmp(&graph, None, "missing");
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, REGISTRY_PATH);
        assert!(out[0].diag.message.contains("missing"));
    }

    #[test]
    fn a_tree_without_probes_needs_no_registry() {
        let graph = Graph::from_sources(&[("crates/x/src/a.rs", "fn f() {}\n")]);
        let out = run_in_tmp(&graph, None, "empty");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn table_parser_skips_headers_and_separators() {
        let rows = parse_rows(
            "# Probes\n\n| metric | kind | asserted by |\n|---|---|---|\n| `spice.solves` | counter | tests |\n| `spice.solves` | gauge | dupe kept first |\n",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "spice.solves");
        assert_eq!(rows[0].kind, "counter");
        assert_eq!(rows[0].line, 5);
    }
}
