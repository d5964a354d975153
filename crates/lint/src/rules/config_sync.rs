//! `config-sync`: every `SRAM_*` environment knob is documented, and
//! every documented knob exists.
//!
//! The workspace's runtime surface is a family of `SRAM_*` env vars
//! (`SRAM_PROBE`, `SRAM_TRACE_SAMPLE`, the per-op `SRAM_SLO_<OP>_MS`
//! overrides, …). An undocumented variable is a knob nobody can find;
//! a documented variable nothing reads is a knob that silently does
//! nothing — the config-drift twin of `registry-sync`. The symbol graph
//! collects every full-string `SRAM_*` literal in library and binary
//! code as a read; this rule scans the root `README.md` and `DESIGN.md`
//! for `SRAM_*` tokens and diffs the two sets.
//!
//! Both sides are normalized into wildcard patterns so templated names
//! match their documentation: a code literal with a `{…}` placeholder
//! or a trailing `_` (a prefix completed at runtime) and a doc token
//! with an `<OP>`-style placeholder all become `*`, and two patterns
//! agree when their wildcard expansions can denote a common name.
//!
//! Lexical limits: any full `SRAM_*` string literal in non-test code
//! counts as a read — including one inside a log message — which can
//! only over-satisfy the documented-but-unread direction, never invent
//! a false undocumented-read.

use crate::graph::{patterns_overlap, Graph};
use crate::rules::{FileDiag, RawDiag};
use std::collections::BTreeSet;
use std::path::Path;

/// Root-relative documentation files that must mention every env var.
pub const DOC_PATHS: &[&str] = &["README.md", "DESIGN.md"];

/// One `SRAM_*` token found in a documentation file.
#[derive(Debug, Clone)]
struct DocPattern {
    file: &'static str,
    line: u32,
    col: u32,
    len: u32,
    pattern: String,
}

/// Diffs the graph's env-var reads against the root documentation.
pub fn check(graph: &Graph, root: &Path, out: &mut Vec<FileDiag>) {
    if graph.env_reads.is_empty() {
        // A tree with no env surface (most fixture trees) has nothing
        // to keep in sync — absent docs are fine there.
        return;
    }
    let mut docs: Vec<DocPattern> = Vec::new();
    for file in DOC_PATHS {
        if let Ok(text) = std::fs::read_to_string(root.join(file)) {
            scan_doc(file, &text, &mut docs);
        }
    }
    // Code → docs: every read pattern must be documented somewhere.
    // Deduplicated by pattern; the first (walk-order) read site anchors.
    let mut seen = BTreeSet::new();
    for (file, read) in &graph.env_reads {
        if !seen.insert(read.name.as_str()) {
            continue;
        }
        if docs
            .iter()
            .any(|d| patterns_overlap(&d.pattern, &read.name))
        {
            continue;
        }
        out.push(FileDiag {
            file: file.clone(),
            diag: RawDiag::at_site(
                "config-sync",
                &read.site,
                format!(
                    "env var `{}` is read here but documented in neither README.md nor DESIGN.md",
                    read.name
                ),
                Some(
                    "document the variable (name, values, default) in the README or DESIGN.md, \
                     or rename/remove the knob"
                        .to_owned(),
                ),
            ),
        });
    }
    // Docs → code: every documented pattern must have a reader.
    let mut seen_doc = BTreeSet::new();
    for doc in &docs {
        if !seen_doc.insert(doc.pattern.clone()) {
            continue;
        }
        if graph
            .env_reads
            .iter()
            .any(|(_, r)| patterns_overlap(&r.name, &doc.pattern))
        {
            continue;
        }
        out.push(FileDiag {
            file: doc.file.to_owned(),
            diag: RawDiag {
                rule: "config-sync",
                line: doc.line,
                col: doc.col,
                len: doc.len,
                message: format!(
                    "`{}` is documented in {} but no code reads an env var matching it",
                    doc.pattern, doc.file
                ),
                help: Some(
                    "delete the stale documentation or wire the variable back into the code"
                        .to_owned(),
                ),
            },
        });
    }
}

/// Scans one documentation file for `SRAM_*` tokens, normalizing
/// `<PLACEHOLDER>` segments to `*`.
fn scan_doc(file: &'static str, text: &str, out: &mut Vec<DocPattern>) {
    for (i, line) in text.lines().enumerate() {
        let chars: Vec<char> = line.chars().collect();
        let mut pos = 0usize;
        while pos < chars.len() {
            if !line_starts_with(&chars, pos, "SRAM_") {
                pos += 1;
                continue;
            }
            // Word-boundary on the left so `XSRAM_Y` doesn't match.
            if pos > 0 && (chars[pos - 1].is_ascii_alphanumeric() || chars[pos - 1] == '_') {
                pos += 1;
                continue;
            }
            let start = pos;
            let mut end = pos + 5;
            let mut pattern = String::from("SRAM_");
            while end < chars.len() {
                let c = chars[end];
                match c {
                    'A'..='Z' | '0'..='9' | '_' => {
                        pattern.push(c);
                        end += 1;
                    }
                    '<' => {
                        while end < chars.len() && chars[end] != '>' {
                            end += 1;
                        }
                        end += 1; // past '>'
                        pattern.push('*');
                    }
                    _ => break,
                }
            }
            pos = end.max(start + 1);
            if pattern == "SRAM_" {
                // Prose mentioning the family prefix, not a variable.
                continue;
            }
            if let Some(stripped) = pattern.strip_suffix('_') {
                if !stripped.ends_with('*') {
                    pattern = format!("{stripped}_*");
                }
            }
            out.push(DocPattern {
                file,
                line: (i + 1) as u32,
                col: (start + 1) as u32,
                len: (end - start).max(1) as u32,
                pattern,
            });
        }
    }
}

fn line_starts_with(chars: &[char], pos: usize, needle: &str) -> bool {
    needle
        .chars()
        .enumerate()
        .all(|(k, c)| chars.get(pos + k) == Some(&c))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_in_tmp(graph: &Graph, readme: Option<&str>, design: Option<&str>) -> Vec<FileDiag> {
        let dir = std::env::temp_dir().join(format!(
            "sram-lint-cfgsync-{}-{:p}",
            std::process::id(),
            &graph
        ));
        std::fs::create_dir_all(&dir).unwrap();
        if let Some(text) = readme {
            std::fs::write(dir.join("README.md"), text).unwrap();
        }
        if let Some(text) = design {
            std::fs::write(dir.join("DESIGN.md"), text).unwrap();
        }
        let mut out = Vec::new();
        check(graph, &dir, &mut out);
        std::fs::remove_dir_all(&dir).ok();
        out
    }

    #[test]
    fn documented_reads_are_quiet_in_both_directions() {
        let graph = Graph::from_sources(&[(
            "crates/probe/src/lib.rs",
            "fn f() { let _ = std::env::var(\"SRAM_PROBE\"); }\n",
        )]);
        let out = run_in_tmp(
            &graph,
            Some("Set `SRAM_PROBE=1` to enable metrics.\n"),
            None,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn undocumented_read_fires_at_the_read_site() {
        let graph = Graph::from_sources(&[(
            "crates/probe/src/lib.rs",
            "fn f() { let _ = std::env::var(\"SRAM_SECRET_KNOB\"); }\n",
        )]);
        let out = run_in_tmp(&graph, Some("No knobs here.\n"), None);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, "crates/probe/src/lib.rs");
        assert!(out[0].diag.message.contains("SRAM_SECRET_KNOB"));
    }

    #[test]
    fn ghost_documentation_fires_at_the_doc_line() {
        let graph = Graph::from_sources(&[(
            "crates/probe/src/lib.rs",
            "fn f() { let _ = std::env::var(\"SRAM_PROBE\"); }\n",
        )]);
        let out = run_in_tmp(
            &graph,
            Some("`SRAM_PROBE` enables metrics.\n\n`SRAM_GHOST` does nothing.\n"),
            None,
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, "README.md");
        assert_eq!(out[0].diag.line, 3);
        assert!(out[0].diag.message.contains("SRAM_GHOST"));
    }

    #[test]
    fn placeholders_match_templated_reads() {
        let graph = Graph::from_sources(&[(
            "crates/serve/src/slo.rs",
            "const P: &str = \"SRAM_SLO_\"; const Q: &str = \"SRAM_SLO_OPTIMIZE_MS\";\n",
        )]);
        let out = run_in_tmp(
            &graph,
            Some("Override per op with `SRAM_SLO_<OP>_MS` (prefix `SRAM_SLO_`).\n"),
            None,
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn a_tree_without_env_reads_needs_no_docs() {
        let graph = Graph::from_sources(&[("crates/x/src/a.rs", "fn f() {}\n")]);
        let out = run_in_tmp(&graph, None, None);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn doc_scanner_handles_boundaries() {
        let mut docs = Vec::new();
        scan_doc(
            "README.md",
            "SRAM_PROBE and XSRAM_NOT and SRAM_ alone and SRAM_SLO_<OP>_MS=5\n",
            &mut docs,
        );
        let patterns: Vec<&str> = docs.iter().map(|d| d.pattern.as_str()).collect();
        assert_eq!(patterns, vec!["SRAM_PROBE", "SRAM_SLO_*_MS"]);
    }
}
