//! SARIF 2.1.0 output (`--format sarif`).
//!
//! The Static Analysis Results Interchange Format is the lingua franca
//! of code-scanning UIs (GitHub code scanning, VS Code SARIF viewers,
//! most CI dashboards). This renderer emits the minimal valid subset:
//! one run, driver metadata with the full rule registry, and one
//! `result` per diagnostic with a physical location. Hand-rolled like
//! the JSON renderer — this workspace links no serialization ecosystem.

use crate::diag::{Level, Report};

/// SARIF severity for a diagnostic level. `Allow`ed rules never reach
/// the report, so only the two reportable levels map.
fn sarif_level(level: Level) -> &'static str {
    match level {
        Level::Deny => "error",
        Level::Allow | Level::Warn => "warning",
    }
}

/// Renders the report as a SARIF 2.1.0 document.
#[must_use]
pub fn render_sarif(report: &Report) -> String {
    use crate::diag::json_str as js;
    use std::fmt::Write as _;

    let mut out = String::from("{\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str(
        "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"runs\": [\n    {\n",
    );
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"sram-lint\",\n");
    let _ = writeln!(
        out,
        "          \"version\": {},",
        js(env!("CARGO_PKG_VERSION"))
    );
    out.push_str("          \"informationUri\": \"https://example.invalid/sram-edp\",\n");
    out.push_str("          \"rules\": [");
    for (i, &(name, _, desc)) in crate::config::RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}",
            js(name),
            js(desc)
        );
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let message = d.help.as_ref().map_or_else(
            || d.message.clone(),
            |help| format!("{} (help: {help})", d.message),
        );
        let _ = write!(
            out,
            "\n        {{\"ruleId\": {}, \"level\": \"{}\", \
             \"message\": {{\"text\": {}}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": {}}}, \"region\": {{\"startLine\": {}, \
             \"startColumn\": {}, \"endColumn\": {}}}}}}}]}}",
            js(d.rule),
            sarif_level(d.level),
            js(&message),
            js(&d.file),
            d.line.max(1),
            d.col.max(1),
            d.col.max(1) + d.len.max(1)
        );
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostic;

    fn sample_report() -> Report {
        Report {
            diagnostics: vec![
                Diagnostic {
                    rule: "probe-naming",
                    level: Level::Deny,
                    file: "crates/x/src/a.rs".into(),
                    line: 42,
                    col: 15,
                    len: 6,
                    message: "metric `NotDotted` is not lowercase dotted".into(),
                    help: Some("rename it `crate.subsystem.metric`".into()),
                    excerpt: None,
                },
                Diagnostic {
                    rule: "unit-hygiene",
                    level: Level::Warn,
                    file: "crates/cell/src/m.rs".into(),
                    line: 7,
                    col: 1,
                    len: 4,
                    message: "bare literal".into(),
                    help: None,
                    excerpt: None,
                },
            ],
            files_scanned: 2,
            suppressed: 0,
        }
    }

    #[test]
    fn sarif_has_version_tool_and_results() {
        let sarif = render_sarif(&sample_report());
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"name\": \"sram-lint\""));
        assert!(sarif.contains("\"ruleId\": \"probe-naming\""));
        assert!(sarif.contains("\"level\": \"error\""));
        assert!(sarif.contains("\"level\": \"warning\""));
        assert!(sarif.contains("\"startLine\": 42"));
        assert!(sarif.contains("\"uri\": \"crates/x/src/a.rs\""));
    }

    #[test]
    fn every_registered_rule_appears_in_driver_metadata() {
        let sarif = render_sarif(&Report::default());
        for &(name, _, _) in crate::config::RULES {
            assert!(sarif.contains(&format!("\"id\": \"{name}\"")), "{name}");
        }
    }

    #[test]
    fn empty_report_is_still_valid_shape() {
        let sarif = render_sarif(&Report::default());
        assert!(sarif.contains("\"results\": []"));
    }
}
