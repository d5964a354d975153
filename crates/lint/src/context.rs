//! Per-file context: path classification, `#[cfg(test)]` region
//! detection, and inline suppression parsing.

use crate::config::Config;
use crate::lexer::{LexError, Token, TokenKind};

/// How a file participates in the build — decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Shipped library code: the full rule set applies.
    Library,
    /// Binary entry points (`src/bin/`, `main.rs`, `build.rs`): not
    /// library code, but still a registration and env-read site.
    Bin,
    /// Tests, benches, examples: assertion sites, not definitions.
    Test,
}

/// One parsed inline suppression.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Rule being allowed.
    pub rule: String,
    /// First line the suppression covers.
    pub from_line: u32,
    /// Last line the suppression covers (inclusive).
    pub to_line: u32,
    /// `// sram-lint: allow-file(...)` covers the whole file.
    pub whole_file: bool,
}

/// A malformed suppression comment (reported under `suppression-syntax`).
#[derive(Debug, Clone)]
pub struct SuppressionError {
    /// Line of the offending comment.
    pub line: u32,
    /// Column of the offending comment.
    pub col: u32,
    /// What is wrong with it.
    pub message: String,
}

/// Everything a rule needs to inspect one file.
#[derive(Debug)]
pub struct FileCtx {
    /// Path relative to the linted root, `/`-separated.
    pub rel: String,
    /// Owning crate (`spice` for `crates/spice/...`, `sram-edp` for the
    /// root `src/`).
    pub crate_name: String,
    /// Build-role classification.
    pub class: FileClass,
    /// Token stream (comments included).
    pub tokens: Vec<Token>,
    /// Source split into lines (for excerpts).
    pub lines: Vec<String>,
    /// `test_line[i]` is `true` when 1-based line `i + 1` sits inside a
    /// `#[cfg(test)]` module or a `#[test]` item.
    pub test_line: Vec<bool>,
    /// Parsed suppressions.
    pub suppressions: Vec<Suppression>,
    /// Malformed suppression comments.
    pub suppression_errors: Vec<SuppressionError>,
    /// Tokenization failures.
    pub lex_errors: Vec<LexError>,
}

impl FileCtx {
    /// Builds the context for one file.
    #[must_use]
    pub fn new(rel: String, src: &str) -> Self {
        let (tokens, lex_errors) = crate::lexer::lex(src);
        let lines: Vec<String> = src.lines().map(str::to_owned).collect();
        let (crate_name, class) = classify(&rel);
        let test_line = mark_test_regions(&tokens, lines.len());
        let (suppressions, suppression_errors) = parse_suppressions(&tokens);
        Self {
            rel,
            crate_name,
            class,
            tokens,
            lines,
            test_line,
            suppressions,
            suppression_errors,
            lex_errors,
        }
    }

    /// `true` when 1-based `line` is inside a test region (or the whole
    /// file is test-class).
    #[must_use]
    pub fn in_test(&self, line: u32) -> bool {
        self.class == FileClass::Test
            || self
                .test_line
                .get(line.saturating_sub(1) as usize)
                .copied()
                .unwrap_or(false)
    }

    /// Indices of non-comment tokens, in order.
    #[must_use]
    pub fn code_indices(&self) -> Vec<usize> {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Indices into `suppressions` of every suppression covering `rule` at
/// `line` — the engine marks these as used so stale ones can be
/// reported by `unused-suppression`.
#[must_use]
pub fn matching_suppressions(suppressions: &[Suppression], rule: &str, line: u32) -> Vec<usize> {
    suppressions
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.rule == rule && (s.whole_file || (s.from_line <= line && line <= s.to_line))
        })
        .map(|(i, _)| i)
        .collect()
}

/// Derives `(crate_name, class)` from a root-relative path.
fn classify(rel: &str) -> (String, FileClass) {
    let components: Vec<&str> = rel.split('/').collect();
    let crate_name = match components.as_slice() {
        ["crates", name, ..] => (*name).to_owned(),
        ["src", ..] => "sram-edp".to_owned(),
        [first, ..] => (*first).to_owned(),
        [] => String::new(),
    };
    let file = components.last().copied().unwrap_or("");
    let class = if components
        .iter()
        .any(|c| matches!(*c, "tests" | "benches" | "examples"))
    {
        FileClass::Test
    } else if components.contains(&"bin") || file == "main.rs" || file == "build.rs" {
        FileClass::Bin
    } else {
        FileClass::Library
    };
    (crate_name, class)
}

/// Marks the line span of every item carrying a `test`-bearing attribute
/// (`#[cfg(test)]`, `#[cfg(all(test, …))]`, `#[test]`).
fn mark_test_regions(tokens: &[Token], n_lines: usize) -> Vec<bool> {
    let mut marked = vec![false; n_lines];
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let mut i = 0usize;
    while i < code.len() {
        if !(code[i].kind == TokenKind::Punct
            && code[i].text == "#"
            && matches!(code.get(i + 1), Some(t) if t.text == "["))
        {
            i += 1;
            continue;
        }
        // Collect the attribute body up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut has_test = false;
        while j < code.len() && depth > 0 {
            match code[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                "test" if code[j].kind == TokenKind::Ident => has_test = true,
                _ => {}
            }
            j += 1;
        }
        if !has_test {
            i = j;
            continue;
        }
        // Find the item's body: the next `{` before any `;` at depth 0,
        // then its matching `}`. Mark every line in between.
        let start_line = code[i].line;
        let mut k = j;
        let mut open = None;
        while k < code.len() {
            match code[k].text.as_str() {
                "{" => {
                    open = Some(k);
                    break;
                }
                ";" => break,
                _ => {}
            }
            k += 1;
        }
        let end_line = if let Some(open_idx) = open {
            let mut brace = 0usize;
            let mut end = code[open_idx].line;
            let mut m = open_idx;
            while m < code.len() {
                match code[m].text.as_str() {
                    "{" => brace += 1,
                    "}" => {
                        brace -= 1;
                        if brace == 0 {
                            end = code[m].line;
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            i = m;
            end
        } else {
            i = k;
            code.get(k).map_or(start_line, |t| t.line)
        };
        for line in start_line..=end_line {
            if let Some(slot) = marked.get_mut(line.saturating_sub(1) as usize) {
                *slot = true;
            }
        }
        i += 1;
    }
    marked
}

/// Parses `// sram-lint: allow(rule[, rule]) reason` and
/// `// sram-lint: allow-file(rule[, rule]) reason` comments.
fn parse_suppressions(tokens: &[Token]) -> (Vec<Suppression>, Vec<SuppressionError>) {
    const MARKER: &str = "sram-lint:";
    let mut out = Vec::new();
    let mut errors = Vec::new();
    for (idx, token) in tokens.iter().enumerate() {
        if !matches!(token.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        // A directive is a plain comment whose body *starts* with the
        // marker. Doc comments and prose that merely mention the syntax
        // (like this sentence) are not directives.
        let body = token
            .text
            .strip_prefix("//")
            .or_else(|| token.text.strip_prefix("/*"))
            .unwrap_or(&token.text);
        if body.starts_with(['/', '!', '*']) {
            continue;
        }
        if !body.trim_start().starts_with(MARKER) {
            continue;
        }
        let pos = token.text.find(MARKER).unwrap_or(0);
        let rest = token.text[pos + MARKER.len()..]
            .trim_start()
            .trim_end_matches("*/")
            .trim_end();
        let mut bad = |message: String| {
            errors.push(SuppressionError {
                line: token.line,
                col: token.col,
                message,
            });
        };
        let (whole_file, rest) = if let Some(r) = rest.strip_prefix("allow-file") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix("allow") {
            (false, r)
        } else {
            bad(format!(
                "expected `allow(rule) reason` or `allow-file(rule) reason` after `{MARKER}`"
            ));
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('(') else {
            bad("missing `(` after `allow`".to_owned());
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad("missing `)` in suppression".to_owned());
            continue;
        };
        let rules: Vec<&str> = rest[..close]
            .split(',')
            .map(str::trim)
            .filter(|r| !r.is_empty())
            .collect();
        let reason = rest[close + 1..].trim();
        if rules.is_empty() {
            bad("suppression names no rule".to_owned());
            continue;
        }
        if reason.is_empty() {
            bad(format!(
                "suppression of `{}` has no reason — say why the violation is acceptable",
                rules.join(", ")
            ));
            continue;
        }
        let mut ok = true;
        for rule in &rules {
            if !Config::is_known_rule(rule) {
                bad(format!("unknown rule `{rule}` in suppression"));
                ok = false;
            }
        }
        if !ok {
            continue;
        }
        // The suppression covers its own line through the next line that
        // carries code (so it can sit above or trail the offending line,
        // and stacked suppressions chain past one another).
        let to_line = tokens[idx + 1..]
            .iter()
            .find(|t| {
                !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                    && t.line >= token.line
            })
            .map_or(token.line, |t| t.line);
        for rule in rules {
            out.push(Suppression {
                rule: rule.to_owned(),
                from_line: token.line,
                to_line,
                whole_file,
            });
        }
    }
    (out, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suppressed(ctx: &FileCtx, rule: &str, line: u32) -> bool {
        !matching_suppressions(&ctx.suppressions, rule, line).is_empty()
    }

    #[test]
    fn classification() {
        assert_eq!(
            classify("crates/spice/src/dc.rs"),
            ("spice".to_owned(), FileClass::Library)
        );
        assert_eq!(classify("crates/cell/tests/x.rs").1, FileClass::Test);
        assert_eq!(classify("crates/bench/benches/x.rs").1, FileClass::Test);
        assert_eq!(classify("examples/quickstart.rs").1, FileClass::Test);
        assert_eq!(
            classify("crates/bench/src/bin/reproduce.rs").1,
            FileClass::Bin
        );
        assert_eq!(classify("crates/lint/src/main.rs").1, FileClass::Bin);
        assert_eq!(
            classify("src/lib.rs"),
            ("sram-edp".to_owned(), FileClass::Library)
        );
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n";
        let ctx = FileCtx::new("crates/x/src/a.rs".into(), src);
        assert!(!ctx.in_test(1));
        assert!(ctx.in_test(2));
        assert!(ctx.in_test(4));
        assert!(ctx.in_test(5));
        assert!(!ctx.in_test(6));
    }

    #[test]
    fn test_attribute_marks_one_fn() {
        let src = "#[test]\nfn t() {\n    body();\n}\nfn lib() {}\n";
        let ctx = FileCtx::new("crates/x/src/a.rs".into(), src);
        assert!(ctx.in_test(3));
        assert!(!ctx.in_test(5));
    }

    #[test]
    fn suppression_covers_next_code_line() {
        let src = "// sram-lint: allow(unit-hygiene) fitted coefficient\nlet x = 1.5e-12;\nlet y = 2.5e-12;\n";
        let ctx = FileCtx::new("crates/x/src/a.rs".into(), src);
        assert!(suppressed(&ctx, "unit-hygiene", 1));
        assert!(suppressed(&ctx, "unit-hygiene", 2));
        assert!(!suppressed(&ctx, "unit-hygiene", 3));
        assert!(!suppressed(&ctx, "probe-naming", 2));
    }

    #[test]
    fn trailing_suppression_covers_its_own_line() {
        let src = "let x = 1.5e-12; // sram-lint: allow(unit-hygiene) fitted coefficient\n";
        let ctx = FileCtx::new("crates/x/src/a.rs".into(), src);
        assert!(suppressed(&ctx, "unit-hygiene", 1));
    }

    #[test]
    fn reasonless_suppression_is_an_error() {
        let src = "// sram-lint: allow(unit-hygiene)\nlet x = 1.5e-12;\n";
        let ctx = FileCtx::new("crates/x/src/a.rs".into(), src);
        assert_eq!(ctx.suppression_errors.len(), 1);
        assert!(!suppressed(&ctx, "unit-hygiene", 2));
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let src = "// sram-lint: allow(made-up-rule) because\nlet x = 1;\n";
        let ctx = FileCtx::new("crates/x/src/a.rs".into(), src);
        assert_eq!(ctx.suppression_errors.len(), 1);
    }

    #[test]
    fn allow_file_covers_everything() {
        let src = "// sram-lint: allow-file(unit-hygiene) generated shim\nfn a() {}\nfn z() -> f64 { 1.5e-12 }\n";
        let ctx = FileCtx::new("crates/x/src/a.rs".into(), src);
        assert!(suppressed(&ctx, "unit-hygiene", 3));
    }
}
