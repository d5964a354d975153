//! The workspace symbol graph: a use/def index built from one lexer
//! pass over every file, shared by all cross-file rules.
//!
//! [`FileCtx`](crate::context::FileCtx) is the *per-file* context; this
//! module is its workspace-level counterpart. During the walk the
//! engine extracts compact [`FileFacts`] from each file — definitions
//! (parameter-struct fields, `SRAM_*` env-var reads, probe metric
//! registrations, experiment registry entries) and references to them
//! (dot-accessed identifiers, metric-name string literals) — and
//! [`Graph::build`] merges them into one queryable index. The facts are
//! pure functions of a file's path and content.
//!
//! The graph is deliberately lexical, like everything else in this
//! linter: a "reference" to a parameter is a `.field` dot access
//! anywhere in the workspace, not a type-resolved projection. The rules
//! that consume the graph document what that approximation can and
//! cannot see.

use crate::context::{FileClass, FileCtx};
use crate::engine::FileAnalysis;
use crate::lexer::{str_value, TokenKind};
use crate::rules::probe_naming::{self, Kind};
use crate::rules::registry_sync;
use crate::rules::RawDiag;
use std::collections::BTreeSet;

/// Struct-name suffixes that mark a type as a parameter registry: the
/// device/model cards (`DeviceParams`, `ArrayParams`,
/// `TechnologyParams`), the search space (`DesignSpace`), and the
/// runtime configuration structs (`CacheConfig`, `ServerConfig`, …).
pub const PARAM_STRUCT_SUFFIXES: &[&str] = &["Params", "Config", "Space", "Options"];

/// A source anchor for a definition extracted into the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRef {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Characters to underline.
    pub len: u32,
}

/// One `pub` field of a parameter struct.
#[derive(Debug, Clone)]
pub struct ParamDef {
    /// Owning struct's name.
    pub strukt: String,
    /// Field name.
    pub field: String,
    /// Declaration site.
    pub site: SiteRef,
}

/// One `SRAM_*` environment-variable read in library or binary code.
///
/// The name is normalized into a match pattern: a trailing underscore
/// (a prefix literal like `"SRAM_SLO_"`) and `{…}` format placeholders
/// both become a `*` wildcard.
#[derive(Debug, Clone)]
pub struct EnvRead {
    /// Normalized variable name (may contain `*`).
    pub name: String,
    /// Read site.
    pub site: SiteRef,
}

/// One probe metric registration that passed the per-file
/// `probe-naming` checks (well-formed, correctly prefixed).
#[derive(Debug, Clone)]
pub struct ProbeDef {
    /// Metric name.
    pub name: String,
    /// Registered kind.
    pub kind: Kind,
    /// Registration site.
    pub site: SiteRef,
}

/// One experiment registered in `crates/bench/src/cli.rs`.
#[derive(Debug, Clone)]
pub struct ExperimentDef {
    /// Experiment name.
    pub name: String,
    /// Registration site.
    pub site: SiteRef,
}

/// Everything the graph needs from one file. Cheap to serialize; a
/// pure function of `(path, content)`.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// Parameter-struct field definitions (library code only).
    pub params: Vec<ParamDef>,
    /// `SRAM_*` env-var reads (library and binary code).
    pub env_reads: Vec<EnvRead>,
    /// Probe metric registrations (library code, per-file-clean names).
    pub probes: Vec<ProbeDef>,
    /// Experiment registry entries (only in the registry source file).
    pub experiments: Vec<ExperimentDef>,
    /// Identifiers that appear dot-accessed (`.name`) anywhere in the
    /// file — the use side of the parameter use/def analysis.
    pub dot_refs: BTreeSet<String>,
    /// Metric-name-shaped string literals in files that count as
    /// assertion sites (tests, reproducers, examples) — the use side of
    /// `probe-drift`'s "asserted anywhere" check.
    pub metric_mentions: BTreeSet<String>,
}

/// Extracts [`FileFacts`] from one file, pushing any per-file
/// `probe-naming` diagnostics (malformed or mis-prefixed metric names)
/// into `out`.
pub fn extract(ctx: &FileCtx, out: &mut Vec<RawDiag>) -> FileFacts {
    let mut facts = FileFacts::default();
    let code = ctx.code_indices();

    facts.probes = probe_naming::extract(ctx, &code, out);
    extract_params(ctx, &code, &mut facts);
    extract_env_reads(ctx, &code, &mut facts);
    extract_refs(ctx, &code, &mut facts);
    if ctx.rel == registry_sync::CLI_PATH {
        extract_experiments(ctx, &code, &mut facts);
    }
    facts
}

/// `pub` fields of parameter structs (library code, outside tests).
fn extract_params(ctx: &FileCtx, code: &[usize], facts: &mut FileFacts) {
    if ctx.class != FileClass::Library {
        return;
    }
    let mut i = 0usize;
    while i < code.len() {
        let token = &ctx.tokens[code[i]];
        if !(token.kind == TokenKind::Ident && token.text == "struct") || ctx.in_test(token.line) {
            i += 1;
            continue;
        }
        let Some(&name_idx) = code.get(i + 1) else {
            break;
        };
        let name = &ctx.tokens[name_idx];
        if name.kind != TokenKind::Ident
            || !PARAM_STRUCT_SUFFIXES
                .iter()
                .any(|s| name.text.ends_with(s) && name.text.len() > s.len())
        {
            i += 1;
            continue;
        }
        // Find the struct body: the next `{` before any `;` (a `;`
        // first means a unit/tuple struct — no named fields).
        let mut j = i + 2;
        while j < code.len() && !matches!(ctx.tokens[code[j]].text.as_str(), "{" | ";") {
            j += 1;
        }
        if j >= code.len() || ctx.tokens[code[j]].text == ";" {
            i = j;
            continue;
        }
        // Walk the body at brace depth 1 looking for
        // `pub [(vis)] field :` sequences; `#[…]` attributes skipped.
        let mut depth = 0usize;
        let mut k = j;
        while k < code.len() {
            let text = ctx.tokens[code[k]].text.as_str();
            match text {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                // Skip an attribute's `#[...]` group.
                "#" if depth == 1
                    && code.get(k + 1).is_some_and(|&n| ctx.tokens[n].text == "[") =>
                {
                    let mut b = 0usize;
                    let mut m = k + 1;
                    while m < code.len() {
                        match ctx.tokens[code[m]].text.as_str() {
                            "[" => b += 1,
                            "]" => {
                                b -= 1;
                                if b == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    k = m;
                }
                "pub" if depth == 1 => {
                    let mut m = k + 1;
                    // `pub(crate)` / `pub(in …)` visibility group.
                    if code.get(m).is_some_and(|&n| ctx.tokens[n].text == "(") {
                        let mut p = 0usize;
                        while m < code.len() {
                            match ctx.tokens[code[m]].text.as_str() {
                                "(" => p += 1,
                                ")" => {
                                    p -= 1;
                                    if p == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            m += 1;
                        }
                        m += 1;
                    }
                    let field_ok = code.get(m).is_some_and(|&n| {
                        ctx.tokens[n].kind == TokenKind::Ident
                            && code.get(m + 1).is_some_and(|&c| ctx.tokens[c].text == ":")
                    });
                    if field_ok {
                        let field = &ctx.tokens[code[m]];
                        facts.params.push(ParamDef {
                            strukt: name.text.clone(),
                            field: field.text.clone(),
                            site: SiteRef {
                                line: field.line,
                                col: field.col,
                                len: field.text.chars().count().max(1) as u32,
                            },
                        });
                        k = m + 1;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        i = k + 1;
    }
}

/// Full-literal `SRAM_*` strings in library/binary code outside tests.
fn extract_env_reads(ctx: &FileCtx, code: &[usize], facts: &mut FileFacts) {
    if ctx.class == FileClass::Test {
        return;
    }
    for &idx in code {
        let token = &ctx.tokens[idx];
        if token.kind != TokenKind::Str || ctx.in_test(token.line) {
            continue;
        }
        let Some(value) = str_value(&token.text) else {
            continue;
        };
        let Some(name) = normalize_env_name(value) else {
            continue;
        };
        facts.env_reads.push(EnvRead {
            name,
            site: SiteRef {
                line: token.line,
                col: token.col,
                len: token.text.chars().count().max(1) as u32,
            },
        });
    }
}

/// Dot-accessed identifiers everywhere, and metric-name-shaped string
/// literals in the files that count as assertion sites.
fn extract_refs(ctx: &FileCtx, code: &[usize], facts: &mut FileFacts) {
    let mentions_count = mention_eligible(ctx);
    for (pos, &idx) in code.iter().enumerate() {
        let token = &ctx.tokens[idx];
        match token.kind {
            TokenKind::Ident => {
                // `.field` — but not `..field` (struct update / range).
                let after_dot = pos >= 1
                    && ctx.tokens[code[pos - 1]].text == "."
                    && !(pos >= 2 && ctx.tokens[code[pos - 2]].text == ".");
                if after_dot {
                    facts.dot_refs.insert(token.text.clone());
                }
            }
            TokenKind::Str if mentions_count => {
                if let Some(value) = str_value(&token.text) {
                    if probe_naming::well_formed(value) {
                        facts.metric_mentions.insert(value.to_owned());
                    }
                }
            }
            _ => {}
        }
    }
}

/// Files whose metric-name strings count as assertions: tests, benches
/// and examples (class `Test`), everything in the reproducer crate, and
/// the root integration-test tree.
fn mention_eligible(ctx: &FileCtx) -> bool {
    ctx.class == FileClass::Test
        || ctx.rel.starts_with("crates/bench/")
        || ctx.rel.starts_with("tests/")
        || ctx.rel.starts_with("examples/")
}

/// `name: "…"` fields in the experiment registry source.
fn extract_experiments(ctx: &FileCtx, code: &[usize], facts: &mut FileFacts) {
    for window in 0..code.len().saturating_sub(2) {
        let a = &ctx.tokens[code[window]];
        let b = &ctx.tokens[code[window + 1]];
        let c = &ctx.tokens[code[window + 2]];
        if a.kind == TokenKind::Ident
            && a.text == "name"
            && b.text == ":"
            && c.kind == TokenKind::Str
            && !ctx.in_test(a.line)
        {
            if let Some(name) = str_value(&c.text) {
                facts.experiments.push(ExperimentDef {
                    name: name.to_owned(),
                    site: SiteRef {
                        line: c.line,
                        col: c.col,
                        len: name.chars().count().max(1) as u32,
                    },
                });
            }
        }
    }
}

/// Normalizes a candidate env-var literal into a match pattern.
/// Returns `None` when the string is not an `SRAM_*` variable name:
/// it must start with `SRAM_`, continue in `[A-Z0-9_{}]`, and carry at
/// least one character of name (a bare `"SRAM_"` is prose, not a
/// variable). `{…}` format placeholders and a trailing `_` (a prefix
/// literal the code completes at runtime) become `*` wildcards.
#[must_use]
pub fn normalize_env_name(value: &str) -> Option<String> {
    let rest = value.strip_prefix("SRAM_")?;
    if rest.is_empty() {
        return None;
    }
    let mut out = String::from("SRAM_");
    let mut chars = rest.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            'A'..='Z' | '0'..='9' | '_' => out.push(c),
            '{' => {
                for inner in chars.by_ref() {
                    if inner == '}' {
                        break;
                    }
                }
                out.push('*');
            }
            _ => return None,
        }
    }
    if let Some(stripped) = out.strip_suffix('_') {
        if !stripped.ends_with('*') {
            out = format!("{stripped}_*");
        }
    }
    Some(out)
}

/// `true` when two env-var patterns denote a common name: literal
/// characters must agree and `*` (in either side) matches any run of
/// characters.
#[must_use]
pub fn patterns_overlap(a: &str, b: &str) -> bool {
    fn go(a: &[char], b: &[char]) -> bool {
        match (a.first(), b.first()) {
            (None, None) => true,
            (Some('*'), _) => (1..=b.len()).any(|i| go(&a[1..], &b[i..])) || go(&a[1..], b),
            (_, Some('*')) => (1..=a.len()).any(|i| go(&a[i..], &b[1..])) || go(a, &b[1..]),
            (Some(x), Some(y)) => x == y && go(&a[1..], &b[1..]),
            _ => false,
        }
    }
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    go(&a, &b)
}

/// The merged workspace use/def index, queried by the cross-file rules.
#[derive(Debug, Default)]
pub struct Graph {
    /// `(file, def)` for every parameter-struct field.
    pub params: Vec<(String, ParamDef)>,
    /// `(file, read)` for every env-var read.
    pub env_reads: Vec<(String, EnvRead)>,
    /// `(file, def)` for every clean probe registration, in walk order.
    pub probes: Vec<(String, ProbeDef)>,
    /// `(file, def)` for every registered experiment.
    pub experiments: Vec<(String, ExperimentDef)>,
    /// Union of dot-accessed identifiers across the workspace.
    pub dot_refs: BTreeSet<String>,
    /// Union of metric-name mentions from assertion-site files.
    pub metric_mentions: BTreeSet<String>,
    /// Whether the experiment registry source was seen during the walk.
    pub saw_cli: bool,
}

impl Graph {
    /// Merges per-file facts into one index.
    /// `analyses` must be in walk (sorted-path) order so downstream
    /// diagnostics are deterministic.
    #[must_use]
    pub fn build(analyses: &[FileAnalysis]) -> Self {
        let mut graph = Self::default();
        for analysis in analyses {
            let rel = &analysis.rel;
            if rel == registry_sync::CLI_PATH {
                graph.saw_cli = true;
            }
            let facts = &analysis.facts;
            for p in &facts.params {
                graph.params.push((rel.clone(), p.clone()));
            }
            for e in &facts.env_reads {
                graph.env_reads.push((rel.clone(), e.clone()));
            }
            for p in &facts.probes {
                graph.probes.push((rel.clone(), p.clone()));
            }
            for e in &facts.experiments {
                graph.experiments.push((rel.clone(), e.clone()));
            }
            graph.dot_refs.extend(facts.dot_refs.iter().cloned());
            graph
                .metric_mentions
                .extend(facts.metric_mentions.iter().cloned());
        }
        graph
    }

    /// The graph of in-memory `(rel, source)` files, for rule tests.
    #[cfg(test)]
    pub(crate) fn from_sources(files: &[(&str, &str)]) -> Self {
        let analyses: Vec<FileAnalysis> = files
            .iter()
            .map(|(rel, src)| crate::engine::analyze((*rel).to_owned(), src))
            .collect();
        Self::build(&analyses)
    }

    /// `true` when `field` is dot-accessed anywhere in the workspace.
    #[must_use]
    pub fn is_field_read(&self, field: &str) -> bool {
        self.dot_refs.contains(field)
    }

    /// `true` when `name` appears as a metric-name string in any
    /// assertion-site file (tests, reproducers, examples).
    #[must_use]
    pub fn is_metric_mentioned(&self, name: &str) -> bool {
        self.metric_mentions.contains(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(rel: &str, src: &str) -> FileFacts {
        let ctx = FileCtx::new(rel.to_owned(), src);
        let mut out = Vec::new();
        extract(&ctx, &mut out)
    }

    #[test]
    fn param_fields_are_extracted_from_suffixed_structs() {
        let src = "/// D.\npub struct TuningParams {\n    /// A.\n    pub live: f64,\n    /// B.\n    pub(crate) scoped: f64,\n    private: f64,\n}\npub struct Other {\n    pub not_a_param: f64,\n}\n";
        let f = facts("crates/device/src/a.rs", src);
        let names: Vec<&str> = f.params.iter().map(|p| p.field.as_str()).collect();
        assert_eq!(names, vec!["live", "scoped"]);
        assert_eq!(f.params[0].strukt, "TuningParams");
        assert_eq!(f.params[0].site.line, 4);
    }

    #[test]
    fn test_and_nonlibrary_structs_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    pub struct FakeParams {\n        pub x: f64,\n    }\n}\n";
        assert!(facts("crates/device/src/a.rs", src).params.is_empty());
        let lib_src = "pub struct RealParams { pub x: f64 }\n";
        assert!(facts("crates/device/tests/a.rs", lib_src).params.is_empty());
    }

    #[test]
    fn dot_refs_are_collected_but_struct_update_is_not() {
        let src = "fn f(p: &P) -> f64 { let q = P { ..p.clone() }; p.alpha + q.beta }\n";
        let f = facts("crates/device/src/a.rs", src);
        assert!(f.dot_refs.contains("alpha"));
        assert!(f.dot_refs.contains("beta"));
        assert!(f.dot_refs.contains("clone"));
    }

    #[test]
    fn env_reads_are_normalized() {
        let src = "fn f() { let _ = std::env::var(\"SRAM_PROBE\"); let p = \"SRAM_SLO_\"; let d = \"SRAM_SLO_{}_MS\"; let no = \"not SRAM_X\"; }\n";
        let f = facts("crates/probe/src/a.rs", src);
        let names: Vec<&str> = f.env_reads.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["SRAM_PROBE", "SRAM_SLO_*", "SRAM_SLO_*_MS"]);
    }

    #[test]
    fn env_normalization_rejects_prose() {
        assert_eq!(normalize_env_name("SRAM_"), None);
        assert_eq!(normalize_env_name("SRAM_X=1"), None);
        assert_eq!(normalize_env_name("PROBE"), None);
        assert_eq!(
            normalize_env_name("SRAM_TRACE").as_deref(),
            Some("SRAM_TRACE")
        );
    }

    #[test]
    fn pattern_overlap_handles_wildcards_on_either_side() {
        assert!(patterns_overlap("SRAM_SLO_MS", "SRAM_SLO_MS"));
        assert!(patterns_overlap("SRAM_SLO_*_MS", "SRAM_SLO_OPTIMIZE_MS"));
        assert!(patterns_overlap("SRAM_SLO_OPTIMIZE_MS", "SRAM_SLO_*_MS"));
        assert!(patterns_overlap("SRAM_SLO_*", "SRAM_SLO_*_MS"));
        assert!(!patterns_overlap("SRAM_SLO_*_MS", "SRAM_TRACE"));
        assert!(!patterns_overlap("SRAM_PROBE", "SRAM_TRACE"));
    }

    #[test]
    fn metric_mentions_only_come_from_assertion_sites() {
        let src = "fn f() { assert_metric(\"spice.dc_solves\"); }\n";
        assert!(facts("crates/spice/src/a.rs", src)
            .metric_mentions
            .is_empty());
        assert!(facts("crates/spice/tests/a.rs", src)
            .metric_mentions
            .contains("spice.dc_solves"));
        assert!(facts("crates/bench/src/serve.rs", src)
            .metric_mentions
            .contains("spice.dc_solves"));
    }

    #[test]
    fn experiments_come_only_from_the_registry_source() {
        let src = "pub const E: &[X] = &[X { name: \"fig2\" }];\n";
        assert_eq!(facts(registry_sync::CLI_PATH, src).experiments.len(), 1);
        assert!(facts("crates/bench/src/other.rs", src)
            .experiments
            .is_empty());
    }
}
