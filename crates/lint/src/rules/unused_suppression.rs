//! `unused-suppression`: inline `sram-lint: allow` comments whose rule
//! never fires on the lines they cover.
//!
//! A suppression is a standing claim — "this rule is wrong here, and
//! here is why". When the code under it changes (the literal gains a
//! unit constructor, the dead parameter gets wired in), the claim goes
//! stale but the comment survives, silently licensing future violations
//! on that line. This
//! rule closes the loop: the engine records which suppressions actually
//! absorbed a diagnostic — per-file *and* cross-file findings alike,
//! since graph rules anchor at `.rs` sites and resolve through the same
//! accounting — and every suppression that absorbed none is reported at
//! its own comment line.
//!
//! `suppression-syntax` errors are a different failure (the comment
//! never parsed, so it covers nothing) and stay with that rule.

use crate::context::Suppression;
use crate::rules::RawDiag;

/// Reports every suppression whose slot in `used` is `false`. `used` is
/// index-aligned with `suppressions` and filled in by the engine while
/// resolving the file's merged per-file + cross-file diagnostics.
pub fn check(suppressions: &[Suppression], used: &[bool], out: &mut Vec<RawDiag>) {
    for (i, suppression) in suppressions.iter().enumerate() {
        if used.get(i).copied().unwrap_or(false) {
            continue;
        }
        // Suppressions of this very rule resolve only after this check
        // runs, so their usage can't be known here; exempt them rather
        // than report a false stale.
        if suppression.rule == "unused-suppression" {
            continue;
        }
        let scope = if suppression.whole_file {
            "anywhere in the file".to_owned()
        } else if suppression.from_line == suppression.to_line {
            format!("on line {}", suppression.from_line)
        } else {
            format!("on lines {}-{}", suppression.from_line, suppression.to_line)
        };
        out.push(RawDiag {
            rule: "unused-suppression",
            line: suppression.from_line,
            col: 1,
            len: 1,
            message: format!(
                "suppression of `{}` is unused: the rule reports nothing {scope}",
                suppression.rule
            ),
            help: Some(
                "delete the stale `sram-lint: allow` comment (or move it to the line \
                 that still violates the rule)"
                    .to_owned(),
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileCtx;

    #[test]
    fn unused_suppression_is_reported_at_its_comment() {
        let src = "// sram-lint: allow(unit-hygiene) stale claim\nlet x = 1;\n";
        let ctx = FileCtx::new("crates/cell/src/a.rs".into(), src);
        assert_eq!(ctx.suppressions.len(), 1);
        let mut out = Vec::new();
        check(&ctx.suppressions, &[false], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "unused-suppression");
        assert_eq!(out[0].line, 1);
        assert!(
            out[0].message.contains("unit-hygiene"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn used_suppression_is_quiet() {
        let src = "// sram-lint: allow(unit-hygiene) fitted coefficient\nlet x = 1.5e-12;\n";
        let ctx = FileCtx::new("crates/cell/src/a.rs".into(), src);
        let mut out = Vec::new();
        check(&ctx.suppressions, &[true], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn whole_file_scope_is_described() {
        let src = "// sram-lint: allow-file(unit-hygiene) generated shim\nfn a() {}\n";
        let ctx = FileCtx::new("crates/cell/src/a.rs".into(), src);
        let mut out = Vec::new();
        check(&ctx.suppressions, &[false], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("anywhere in the file"));
    }

    #[test]
    fn stale_cross_file_rule_suppressions_are_reported_too() {
        let src =
            "// sram-lint: allow(dead-parameter) field is read by destructuring\nlet x = 1;\n";
        let ctx = FileCtx::new("crates/device/src/a.rs".into(), src);
        assert_eq!(ctx.suppressions.len(), 1);
        let mut out = Vec::new();
        check(&ctx.suppressions, &[false], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("dead-parameter"));
    }
}
