//! Diagnostics: severity levels, the diagnostic record, and the text /
//! JSON renderers.

use std::fmt::Write as _;

/// Severity assigned to a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Rule disabled: no diagnostics are reported.
    Allow,
    /// Reported, does not affect the exit code.
    Warn,
    /// Reported, makes the lint run fail.
    Deny,
}

impl Level {
    /// Name used in CLI flags and rendered output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Level::Allow => "allow",
            Level::Warn => "warn",
            Level::Deny => "deny",
        }
    }
}

/// One finding, anchored to a file location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule that fired (kebab-case name).
    pub rule: &'static str,
    /// Effective severity under the active configuration.
    pub level: Level,
    /// Path relative to the linted root (`/`-separated).
    pub file: String,
    /// 1-based line (0 when the finding has no line anchor).
    pub line: u32,
    /// 1-based column in characters.
    pub col: u32,
    /// Length of the underlined span in characters (min 1).
    pub len: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix or suppress it.
    pub help: Option<String>,
    /// The source line, for the excerpt block.
    pub excerpt: Option<String>,
}

/// Result of a whole lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Diagnostics at `Warn` or `Deny`, in file/line order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Findings silenced by inline `sram-lint: allow(…)` comments.
    pub suppressed: usize,
}

impl Report {
    /// Number of deny-level diagnostics (non-zero fails the run).
    #[must_use]
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.level == Level::Deny)
            .count()
    }

    /// Number of warn-level diagnostics.
    #[must_use]
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.level == Level::Warn)
            .count()
    }

    /// Renders the full report in rustc-style text.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&render_diagnostic(d));
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "sram-lint: {} file(s) scanned, {} error(s), {} warning(s), {} suppressed",
            self.files_scanned,
            self.deny_count(),
            self.warn_count(),
            self.suppressed
        );
        out
    }

    /// Renders the report as a JSON document (hand-rolled serializer —
    /// this workspace links no serialization ecosystem).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"suppressed\": {},", self.suppressed);
        let _ = writeln!(
            out,
            "  \"counts\": {{\"deny\": {}, \"warn\": {}}},",
            self.deny_count(),
            self.warn_count()
        );
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, "\"rule\": {}, ", json_str(d.rule));
            let _ = write!(out, "\"level\": {}, ", json_str(d.level.name()));
            let _ = write!(out, "\"file\": {}, ", json_str(&d.file));
            let _ = write!(out, "\"line\": {}, \"col\": {}, ", d.line, d.col);
            let _ = write!(out, "\"message\": {}", json_str(&d.message));
            if let Some(help) = &d.help {
                let _ = write!(out, ", \"help\": {}", json_str(help));
            }
            out.push('}');
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Renders one diagnostic in rustc style:
///
/// ```text
/// deny[unit-hygiene]: bare physical-magnitude literal `9.5e-5` in model crate `cell`
///   --> crates/cell/src/read.rs:42:13
///    |
/// 42 |     let i = 9.5e-5 * ratio;
///    |             ^^^^^^
///    = help: wrap it in an sram-units constructor
/// ```
#[must_use]
pub fn render_diagnostic(d: &Diagnostic) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}[{}]: {}", d.level.name(), d.rule, d.message);
    let _ = writeln!(out, "  --> {}:{}:{}", d.file, d.line, d.col);
    if let Some(src) = &d.excerpt {
        let line_no = d.line.to_string();
        let pad = " ".repeat(line_no.len());
        let _ = writeln!(out, "{pad} |");
        let _ = writeln!(out, "{line_no} | {src}");
        let caret_pad = " ".repeat(d.col.saturating_sub(1) as usize);
        let carets = "^".repeat(d.len.max(1) as usize);
        let _ = writeln!(out, "{pad} | {caret_pad}{carets}");
    }
    if let Some(help) = &d.help {
        let _ = writeln!(out, "  = help: {help}");
    }
    out
}

/// JSON string literal with escaping.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            rule: "unit-hygiene",
            level: Level::Deny,
            file: "crates/cell/src/a.rs".into(),
            line: 42,
            col: 13,
            len: 6,
            message: "bare physical-magnitude literal `9.5e-5`".into(),
            help: Some("wrap it in an sram-units constructor".into()),
            excerpt: Some("    let i = 9.5e-5 * ratio;".into()),
        }
    }

    #[test]
    fn text_rendering_is_rustc_like() {
        let text = render_diagnostic(&sample());
        assert!(text.starts_with("deny[unit-hygiene]:"));
        assert!(text.contains("--> crates/cell/src/a.rs:42:13"));
        assert!(text.contains("^^^^^^"));
        assert!(text.contains("= help:"));
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_report_shape() {
        let report = Report {
            diagnostics: vec![sample()],
            files_scanned: 3,
            suppressed: 1,
        };
        let json = report.render_json();
        assert!(json.contains("\"files_scanned\": 3"));
        assert!(json.contains("\"rule\": \"unit-hygiene\""));
        assert!(json.contains("\"counts\": {\"deny\": 1, \"warn\": 0}"));
    }
}
