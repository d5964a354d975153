//! `dead-parameter`: every exposed knob must be read by something.
//!
//! The DAC'16 co-optimization space is only as trustworthy as its
//! parameter plumbing: a field added to `DeviceParams`, `DesignSpace`,
//! or a `*Config` struct that nothing ever reads is a dimension the
//! sweep silently ignores — the experiment *looks* like it explored the
//! knob, and didn't. This rule closes the ROADMAP's carried-over
//! "dead-parameter detection" item with a workspace use/def pass: the
//! symbol graph collects every `pub` named field of a parameter struct
//! (names ending in `Params`/`Config`/`Space`/`Options`, library code)
//! as a definition, and every `.field` dot access anywhere in the
//! workspace — tests included, deliberately conservative — as a use. A
//! field with no use anywhere is dead.
//!
//! Lexical limits, documented as always: a read through destructuring
//! (`let DeviceParams { vdd, .. } = p`) is invisible to the dot-access
//! scan, as is a read via a same-named field of an unrelated struct
//! (which *hides* deadness rather than inventing it). The escape hatch
//! is the usual reasoned suppression at the field's declaration line.

use crate::graph::Graph;
use crate::rules::{FileDiag, RawDiag};

/// Reports every parameter-struct field never dot-accessed anywhere in
/// the workspace.
pub fn check(graph: &Graph, out: &mut Vec<FileDiag>) {
    for (file, def) in &graph.params {
        if graph.is_field_read(&def.field) {
            continue;
        }
        out.push(FileDiag {
            file: file.clone(),
            diag: RawDiag::at_site(
                "dead-parameter",
                &def.site,
                format!(
                    "parameter `{}.{}` is never read: no rule, experiment, or serve query \
                     dot-accesses `{}` anywhere in the workspace",
                    def.strukt, def.field, def.field
                ),
                Some(
                    "wire the knob into the model/search/serve path, remove it, or — if it is \
                     only read by destructuring, which this lexical pass cannot see — suppress \
                     with `// sram-lint: allow(dead-parameter) <reason>` at the declaration"
                        .to_owned(),
                ),
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unread_field_is_dead_and_read_field_is_live() {
        let graph = Graph::from_sources(&[
            (
                "crates/device/src/params.rs",
                "/// Card.\npub struct TuneParams {\n    /// Read.\n    pub live: f64,\n    /// Never read.\n    pub dead: f64,\n}\n",
            ),
            (
                "crates/core/src/search.rs",
                "fn f(p: &TuneParams) -> f64 { p.live * 2.0 }\n",
            ),
        ]);
        let mut out = Vec::new();
        check(&graph, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].file, "crates/device/src/params.rs");
        assert!(out[0].diag.message.contains("TuneParams.dead"));
        assert_eq!(out[0].diag.line, 6);
    }

    #[test]
    fn a_read_from_a_test_counts() {
        let graph = Graph::from_sources(&[
            (
                "crates/device/src/params.rs",
                "/// Card.\npub struct TuneParams {\n    /// Only a test reads it.\n    pub test_only: f64,\n}\n",
            ),
            (
                "crates/device/tests/check.rs",
                "fn t(p: &TuneParams) { assert!(p.test_only > 0.0); }\n",
            ),
        ]);
        let mut out = Vec::new();
        check(&graph, &mut out);
        assert!(out.is_empty(), "tests keep a parameter alive: {out:?}");
    }

    #[test]
    fn struct_literal_init_does_not_count_as_a_read() {
        // Set-but-never-read is exactly the bug this rule exists for.
        let graph = Graph::from_sources(&[
            (
                "crates/device/src/params.rs",
                "/// Card.\npub struct TuneParams {\n    /// Written, never read.\n    pub write_only: f64,\n}\nfn mk() -> TuneParams { TuneParams { write_only: 1.0 } }\n",
            ),
        ]);
        let mut out = Vec::new();
        check(&graph, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].diag.message.contains("write_only"));
    }
}
