//! The rule set.
//!
//! Each per-file rule inspects one file's token stream and reports raw
//! findings; the cross-file rules instead query the workspace symbol
//! graph ([`crate::graph`]) assembled after the walk and report
//! [`FileDiag`]s anchored wherever the evidence lives. The
//! [`engine`](crate::engine) merges both streams per file, applies
//! suppressions (so a cross-file finding is suppressible at its anchor
//! line like any other), and resolves severity levels. DESIGN.md
//! §Static-analysis records why each rule exists.

pub mod config_sync;
pub mod dead_parameter;
pub mod probe_drift;
pub mod probe_naming;
pub mod registry_sync;
pub mod unit_hygiene;
pub mod unused_suppression;

/// A finding before suppression/severity resolution.
#[derive(Debug, Clone)]
pub struct RawDiag {
    /// Rule name (must match an entry of [`crate::config::RULES`]).
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Characters to underline.
    pub len: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub help: Option<String>,
}

impl RawDiag {
    /// Convenience constructor anchored at a token.
    #[must_use]
    pub fn at(
        rule: &'static str,
        token: &crate::lexer::Token,
        message: String,
        help: Option<String>,
    ) -> Self {
        Self {
            rule,
            line: token.line,
            col: token.col,
            len: token.text.chars().count().max(1) as u32,
            message,
            help,
        }
    }

    /// Convenience constructor anchored at a graph [`SiteRef`]
    /// (cross-file rules report where the definition lives).
    ///
    /// [`SiteRef`]: crate::graph::SiteRef
    #[must_use]
    pub fn at_site(
        rule: &'static str,
        site: &crate::graph::SiteRef,
        message: String,
        help: Option<String>,
    ) -> Self {
        Self {
            rule,
            line: site.line,
            col: site.col,
            len: site.len.max(1),
            message,
            help,
        }
    }
}

/// A cross-file finding: a [`RawDiag`] plus the root-relative file it
/// anchors to. Findings anchored at walked `.rs` files join that file's
/// suppression resolution; findings anchored at documentation files
/// (`EXPERIMENTS.md`, `PROBES.md`, `README.md`, `DESIGN.md`) are
/// reported directly.
#[derive(Debug, Clone)]
pub struct FileDiag {
    /// Root-relative `/`-separated path the finding anchors to.
    pub file: String,
    /// The finding itself.
    pub diag: RawDiag,
}
