//! The lint driver: one sequential pass over the sorted file list.
//!
//! The run is two-phase. Phase one analyzes every `.rs` file in path
//! order — lexing, the per-file rule, suppression parsing, and
//! symbol-graph fact extraction. Phase two assembles the per-file facts
//! into a workspace [`Graph`], runs the cross-file rules over it, and
//! resolves every finding (per-file and cross-file alike) against the
//! same inline suppressions so `unused-suppression` sees the whole
//! picture.

use crate::config::Config;
use crate::context::{matching_suppressions, FileCtx, Suppression};
use crate::diag::{Diagnostic, Level, Report};
use crate::graph::{FileFacts, Graph};
use crate::rules::{
    config_sync, dead_parameter, probe_drift, probe_naming, registry_sync, unit_hygiene,
    unused_suppression, RawDiag,
};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};

/// Directory names the walker never descends into. `vendor/` holds
/// third-party stand-ins outside our conventions; `fixtures/` holds the
/// linter's own intentionally-bad test inputs.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", "node_modules"];

/// Everything phase one produces for one file: raw findings, parsed
/// suppressions, symbol-graph facts, and the source lines diagnostics
/// quote as excerpts.
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    /// Path relative to the linted root, `/`-separated.
    pub rel: String,
    /// `false` when the file could not be read (its `raw` then carries
    /// a `parse-error` and nothing else).
    pub scanned: bool,
    /// Per-file rule findings, before suppression and severity.
    pub raw: Vec<RawDiag>,
    /// Parsed inline suppressions.
    pub suppressions: Vec<Suppression>,
    /// Use/def facts feeding the workspace [`Graph`].
    pub facts: FileFacts,
    /// The file's source lines.
    pub lines: Vec<String>,
}

/// Lints every `.rs` file under `root` with `config`.
///
/// # Errors
///
/// Returns an error when `root` cannot be read at all; unreadable
/// individual files become diagnostics instead.
pub fn run(root: &Path, config: &Config) -> io::Result<Report> {
    let mut paths = Vec::new();
    collect_rs_files(root, &mut paths)?;
    paths.sort();
    let analyses: Vec<FileAnalysis> = paths
        .iter()
        .map(|path| analyze_file(path, relative(root, path)))
        .collect();

    let mut report = Report {
        files_scanned: analyses.iter().filter(|a| a.scanned).count(),
        ..Report::default()
    };

    // Phase two: assemble the graph and run the cross-file rules.
    let graph = Graph::build(&analyses);
    let mut cross = Vec::new();
    probe_naming::collisions(&graph.probes, &mut cross);
    registry_sync::finish(&graph, root, &mut cross);
    dead_parameter::check(&graph, &mut cross);
    config_sync::check(&graph, root, &mut cross);
    probe_drift::check(&graph, root, &mut cross);

    // Split cross-file findings between walked `.rs` files (which get
    // suppression resolution and excerpts) and doc/registry anchors.
    let walked: HashSet<&str> = analyses.iter().map(|a| a.rel.as_str()).collect();
    let mut cross_by_file: HashMap<&str, Vec<RawDiag>> = HashMap::new();
    let mut doc_anchored = Vec::new();
    for fd in cross {
        if let Some(rel) = walked.get(fd.file.as_str()) {
            cross_by_file.entry(rel).or_default().push(fd.diag);
        } else {
            doc_anchored.push(fd);
        }
    }

    for analysis in &analyses {
        let mut merged = analysis.raw.clone();
        if let Some(extra) = cross_by_file.remove(analysis.rel.as_str()) {
            merged.extend(extra);
        }
        // Resolve suppressions here (not in `push_diag`) so each one's
        // slot in `used` records whether it ever absorbed a finding —
        // per-file and cross-file alike; the stale ones feed
        // `unused-suppression` below. A suppression never silences the
        // report that the suppression itself is malformed.
        let mut used = vec![false; analysis.suppressions.len()];
        for diag in merged {
            if diag.rule != "suppression-syntax" {
                let matching = matching_suppressions(&analysis.suppressions, diag.rule, diag.line);
                if !matching.is_empty() {
                    for i in matching {
                        used[i] = true;
                    }
                    report.suppressed += 1;
                    continue;
                }
            }
            push_diag(&mut report, config, &analysis.rel, &analysis.lines, diag);
        }
        let mut stale = Vec::new();
        unused_suppression::check(&analysis.suppressions, &used, &mut stale);
        for diag in stale {
            // A stale-suppression finding can itself be allowed, but
            // that allowance is deliberately not tracked recursively.
            if !matching_suppressions(&analysis.suppressions, diag.rule, diag.line).is_empty() {
                report.suppressed += 1;
                continue;
            }
            push_diag(&mut report, config, &analysis.rel, &analysis.lines, diag);
        }
    }

    // Findings anchored in markdown files (EXPERIMENTS.md, PROBES.md,
    // README.md, DESIGN.md) have no inline suppressions or excerpts.
    for fd in doc_anchored {
        push_diag(&mut report, config, &fd.file, &[], fd.diag);
    }

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    Ok(report)
}

/// Reads one file and analyzes it; an unreadable or non-UTF-8 file
/// becomes a lone `parse-error`.
fn analyze_file(path: &Path, rel: String) -> FileAnalysis {
    match std::fs::read(path).map(String::from_utf8) {
        Ok(Ok(src)) => analyze(rel, &src),
        _ => FileAnalysis {
            rel,
            scanned: false,
            raw: vec![RawDiag {
                rule: "parse-error",
                line: 1,
                col: 1,
                len: 1,
                message: "file could not be read as UTF-8".to_owned(),
                help: None,
            }],
            suppressions: Vec::new(),
            facts: FileFacts::default(),
            lines: Vec::new(),
        },
    }
}

/// Analyzes one file's source: the per-file rule, suppressions, and
/// symbol-graph facts.
pub(crate) fn analyze(rel: String, src: &str) -> FileAnalysis {
    let ctx = FileCtx::new(rel, src);
    let mut raw = Vec::new();
    for err in &ctx.lex_errors {
        raw.push(RawDiag {
            rule: "parse-error",
            line: err.line,
            col: err.col,
            len: 1,
            message: err.message.clone(),
            help: None,
        });
    }
    for err in &ctx.suppression_errors {
        raw.push(RawDiag {
            rule: "suppression-syntax",
            line: err.line,
            col: err.col,
            len: 1,
            message: err.message.clone(),
            help: Some(
                "syntax: `// sram-lint: allow(rule-name) reason` (reason is mandatory)".to_owned(),
            ),
        });
    }
    unit_hygiene::check(&ctx, &mut raw);
    let facts = crate::graph::extract(&ctx, &mut raw);
    FileAnalysis {
        rel: ctx.rel,
        scanned: true,
        raw,
        suppressions: ctx.suppressions,
        facts,
        lines: ctx.lines,
    }
}

/// Applies severity and records the diagnostic (suppressions were
/// already resolved by the caller, which tracks their usage).
fn push_diag(report: &mut Report, config: &Config, file: &str, lines: &[String], diag: RawDiag) {
    let level = config.level(diag.rule);
    if level == Level::Allow {
        return;
    }
    report.diagnostics.push(Diagnostic {
        rule: diag.rule,
        level,
        file: file.to_owned(),
        line: diag.line,
        col: diag.col,
        len: diag.len,
        message: diag.message,
        help: diag.help,
        excerpt: lines
            .get(diag.line.saturating_sub(1) as usize)
            .filter(|text| !text.is_empty())
            .cloned(),
    });
}

/// Recursively collects `.rs` files, skipping [`SKIP_DIRS`] and hidden
/// directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Root-relative `/`-separated path.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walks up from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]` — the default lint root.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_found_from_crate_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").exists());
        assert!(root.join("crates").exists());
    }

    #[test]
    fn relative_paths_are_slash_separated() {
        let root = Path::new("/a/b");
        assert_eq!(
            relative(root, Path::new("/a/b/crates/x/src/l.rs")),
            "crates/x/src/l.rs"
        );
    }
}
