//! Every catalogued `SRAM_*` variable (each read goes through
//! `sram_probe::env_var!`, which needs a row) is named in README.md or
//! DESIGN.md, and every `SRAM_*` token there names a catalogued variable.

use super::doc;

/// Every `SRAM_…` token in `text` with its line, as a pattern: an
/// `<OP>`-style placeholder, or a trailing `_` where a `{op}` or `*`
/// follows, becomes a `*` that matches one or more characters.
fn env_tokens(text: &str) -> Vec<(usize, String)> {
    let mut tokens = Vec::new();
    for (line, text) in text.lines().enumerate() {
        for (at, _) in text.match_indices("SRAM_") {
            if text[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
                continue;
            }
            let (mut token, mut rest) = (String::new(), &text[at..]);
            while let Some(c) = rest.chars().next() {
                if c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_' {
                    token.push(c);
                    rest = &rest[1..];
                } else if let Some(end) = rest.strip_prefix('<').and_then(|r| r.find('>')) {
                    token.push('*');
                    rest = &rest[end + 2..];
                } else {
                    break;
                }
            }
            if token.ends_with('_') {
                token.push('*');
            }
            tokens.push((line + 1, token));
        }
    }
    tokens
}

/// `name` matches `pattern`, each `*` standing for one or more characters.
fn glob(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => {
            name.starts_with(head)
                && (head.len() + 1..=name.len()).any(|cut| glob(tail, &name[cut..]))
        }
    }
}

/// One line per variable in `vars` that no `(file, text)` document names,
/// and per document token that names no variable in `vars`.
fn env_drift(vars: &[&str], docs: &[(&str, &str)]) -> Vec<String> {
    let tokens: Vec<(&str, usize, String)> = docs
        .iter()
        .flat_map(|&(file, text)| {
            env_tokens(text)
                .into_iter()
                .map(move |(line, token)| (file, line, token))
        })
        .collect();
    let mut out = Vec::new();
    for var in vars {
        // `SRAM_*`, naming the family, documents no variable by itself.
        if !tokens.iter().any(|(_, _, t)| t != "SRAM_*" && glob(t, var)) {
            out.push(format!(
                "{var} is catalogued but neither README.md nor DESIGN.md names it"
            ));
        }
    }
    for (file, line, token) in &tokens {
        if !vars.iter().any(|var| glob(token, var)) {
            out.push(format!(
                "{file}:{line}: names {token}, which no catalogued variable matches"
            ));
        }
    }
    out
}

mod tests {
    use super::*;

    #[test]
    fn documented_reads_are_quiet_in_both_directions() {
        let vars: Vec<&str> = sram_probe::catalogue::ENV_VARS
            .iter()
            .map(|v| v.name)
            .collect();
        let (readme, design) = (doc("README.md"), doc("DESIGN.md"));
        let drift = env_drift(&vars, &[("README.md", &readme), ("DESIGN.md", &design)]);
        assert!(drift.is_empty(), "{}", drift.join("\n"));
        let docs = [("README.md", "Set `SRAM_PROBE=1` to enable metrics.\n")];
        assert!(env_drift(&["SRAM_PROBE"], &docs).is_empty());
    }

    #[test]
    fn undocumented_read_fires_at_the_read_site() {
        assert_eq!(
            env_drift(&["SRAM_SECRET_KNOB"], &[("README.md", "No knobs here.\n")]),
            ["SRAM_SECRET_KNOB is catalogued but neither README.md nor DESIGN.md names it"]
        );
    }

    #[test]
    fn ghost_documentation_fires_at_the_doc_line() {
        let text = "`SRAM_PROBE` enables metrics.\n\n`SRAM_GHOST` does nothing.\n";
        assert_eq!(
            env_drift(&["SRAM_PROBE"], &[("README.md", text)]),
            ["README.md:3: names SRAM_GHOST, which no catalogued variable matches"]
        );
    }

    #[test]
    fn placeholders_match_templated_reads() {
        let vars = ["SRAM_SLO_EVALUATE_POINT_MS", "SRAM_SLO_OPTIMIZE_MS"];
        let docs = [("README.md", "Override per op with `SRAM_SLO_<OP>_MS`.\n")];
        assert!(env_drift(&vars, &docs).is_empty());
        assert!(glob("SRAM_SLO_*_MS", "SRAM_SLO_EVALUATE_POINT_MS"));
        assert!(!glob("SRAM_SLO_*_MS", "SRAM_SLO_MS"));
        assert!(!glob("SRAM_TRACE", "SRAM_TRACE_OUT"));
    }

    #[test]
    fn a_tree_without_env_reads_needs_no_docs() {
        assert!(env_drift(&[], &[("README.md", "No variables here.\n")]).is_empty());
    }

    #[test]
    fn doc_scanner_handles_boundaries() {
        let text =
            "SRAM_PROBE, XSRAM_NOT, X_SRAM_NO, SRAM_ alone, SRAM_SLO_<OP>_MS=5\n`SRAM_SLO_{op}_MS`";
        let tokens = [
            (1, "SRAM_PROBE"),
            (1, "SRAM_*"),
            (1, "SRAM_SLO_*_MS"),
            (2, "SRAM_SLO_*"),
        ];
        assert_eq!(
            env_tokens(text),
            tokens.map(|(line, t)| (line, t.to_owned()))
        );
    }
}
