//! `probe-naming`: `sram-probe` metric names stay consumable.
//!
//! `reproduce --probe-json` consumers key on metric names, and trace
//! consumers (the Chrome export, flame summaries, `sram-serve`'s
//! inline span trees) key on `trace_span!` names the same way, so
//! every counter/gauge/histogram/span/trace-span name must be
//!
//! * lowercase dotted `crate.subsystem.metric` (at least two segments
//!   of `[a-z0-9_]`),
//! * namespaced under its owning crate's prefix (`spice.*` in
//!   `crates/spice`, `coopt.*` in `crates/core`, …), and
//! * globally unique across metric kinds — the same name may be bumped
//!   from several call sites (two branches of one solver), but a name
//!   registered as a counter in one crate and a gauge in another would
//!   panic at runtime and corrupt dashboards before that.
//!
//! The first two checks are per-file and run in [`extract`], which
//! doubles as the symbol graph's probe-definition harvester: only names
//! that pass both checks enter the graph, so the cross-file passes
//! ([`collisions`] here, `probe-drift` in its own module) never chase a
//! typo. The kind-uniqueness check runs over the assembled graph.

use crate::context::{FileClass, FileCtx};
use crate::graph::{ProbeDef, SiteRef};
use crate::lexer::{str_value, TokenKind};
use crate::rules::{FileDiag, RawDiag};
use std::collections::HashMap;

/// Metric kind a call site registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `probe_inc!` / `probe_add!` / `sram_probe::counter`.
    Counter,
    /// `probe_gauge!` / `sram_probe::gauge`.
    Gauge,
    /// `probe_record!` / `probe_span!` / `sram_probe::histogram` (spans
    /// feed histograms).
    Histogram,
    /// `trace_span!` (trace events share the metric namespace so flame
    /// summaries and probe snapshots never show two meanings for one
    /// name).
    Trace,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
            Kind::Trace => "trace span",
        }
    }

    /// One-word form used in `PROBES.md` table cells.
    #[must_use]
    pub fn word(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
            Kind::Trace => "trace",
        }
    }
}

/// Expected name prefixes per crate; `None` means format-only checks.
fn expected_prefixes(crate_name: &str) -> Option<&'static [&'static str]> {
    match crate_name {
        "spice" => Some(&["spice"]),
        "cell" => Some(&["cell"]),
        "core" => Some(&["coopt"]),
        "array" => Some(&["array"]),
        "device" => Some(&["device"]),
        "units" => Some(&["units"]),
        "bench" => Some(&["bench", "repro"]),
        "lint" => Some(&["lint"]),
        "serve" => Some(&["serve"]),
        "cluster" => Some(&["cluster"]),
        // The probe crate also owns the telemetry aggregator and the
        // structured event log, which register their own bookkeeping
        // metrics under dedicated namespaces.
        "probe" => Some(&["probe", "telemetry", "log"]),
        "faults" => Some(&["faults"]),
        _ => None,
    }
}

fn macro_kind(name: &str) -> Option<Kind> {
    match name {
        "probe_inc" | "probe_add" => Some(Kind::Counter),
        "probe_gauge" => Some(Kind::Gauge),
        "probe_record" | "probe_span" => Some(Kind::Histogram),
        "trace_span" => Some(Kind::Trace),
        _ => None,
    }
}

fn registry_fn_kind(name: &str) -> Option<Kind> {
    match name {
        "counter" => Some(Kind::Counter),
        "gauge" => Some(Kind::Gauge),
        "histogram" => Some(Kind::Histogram),
        _ => None,
    }
}

/// Scans one file: reports format and crate-prefix violations into
/// `out`, and returns the clean registrations as graph probe
/// definitions (in source order). `code` is `ctx.code_indices()`.
pub fn extract(ctx: &FileCtx, code: &[usize], out: &mut Vec<RawDiag>) -> Vec<ProbeDef> {
    let mut defs = Vec::new();
    if ctx.class == FileClass::Test {
        return defs;
    }
    for (pos, &idx) in code.iter().enumerate() {
        let token = &ctx.tokens[idx];
        if token.kind != TokenKind::Ident || ctx.in_test(token.line) {
            continue;
        }
        let kind = if let Some(kind) = macro_kind(&token.text) {
            // `probe_xxx!(` — only an invocation when followed by `!`.
            if code.get(pos + 1).map(|&n| ctx.tokens[n].text.as_str()) != Some("!") {
                continue;
            }
            kind
        } else if let Some(kind) = registry_fn_kind(&token.text) {
            // Direct registry call: require a `sram_probe ::` path prefix
            // so ordinary functions named `counter` don't fire.
            let is_probe_path = pos >= 2
                && ctx.tokens[code[pos - 1]].text == ":"
                && ctx.tokens[code[pos - 2]].text == ":"
                && pos >= 3
                && ctx.tokens[code[pos - 3]].text == "sram_probe";
            if !is_probe_path {
                continue;
            }
            kind
        } else {
            continue;
        };
        // The name is the first string literal within the next few
        // tokens (skipping `!`, `(`, and the `detail` level marker).
        let Some(name_idx) = code[pos + 1..]
            .iter()
            .take(4)
            .copied()
            .find(|&n| ctx.tokens[n].kind == TokenKind::Str)
        else {
            continue;
        };
        let name_token = &ctx.tokens[name_idx];
        let Some(name) = str_value(&name_token.text) else {
            continue;
        };
        if !well_formed(name) {
            out.push(RawDiag::at(
                "probe-naming",
                name_token,
                format!(
                    "probe metric name `{name}` is not lowercase dotted `crate.subsystem.metric`"
                ),
                Some(
                    "use at least two `.`-separated segments of [a-z0-9_] — e.g. \
                     `spice.dc_solves`"
                        .to_owned(),
                ),
            ));
            continue;
        }
        if let Some(prefixes) = expected_prefixes(&ctx.crate_name) {
            let head = name.split('.').next().unwrap_or("");
            if !prefixes.contains(&head) {
                out.push(RawDiag::at(
                    "probe-naming",
                    name_token,
                    format!(
                        "probe metric `{name}` in crate `{}` must be namespaced under `{}`",
                        ctx.crate_name,
                        prefixes.join(".` or `")
                    ),
                    None,
                ));
                continue;
            }
        }
        defs.push(ProbeDef {
            name: name.to_owned(),
            kind,
            site: SiteRef {
                line: name_token.line,
                col: name_token.col,
                len: name_token.text.chars().count().max(1) as u32,
            },
        });
    }
    defs
}

/// Cross-file pass over the graph's probe definitions (walk order):
/// the same name registered under two different kinds is reported at
/// the second registration site, naming the first.
pub fn collisions(probes: &[(String, ProbeDef)], out: &mut Vec<FileDiag>) {
    let mut seen: HashMap<&str, (Kind, String)> = HashMap::new();
    for (file, def) in probes {
        match seen.get(def.name.as_str()) {
            Some((first_kind, first_site)) if *first_kind != def.kind => {
                out.push(FileDiag {
                    file: file.clone(),
                    diag: RawDiag::at_site(
                        "probe-naming",
                        &def.site,
                        format!(
                            "probe metric `{}` registered as a {} here but as a {} at {}",
                            def.name,
                            def.kind.name(),
                            first_kind.name(),
                            first_site
                        ),
                        Some("metric names must map to exactly one kind workspace-wide".to_owned()),
                    ),
                });
            }
            Some(_) => {}
            None => {
                let site = format!("{file}:{}", def.site.line);
                seen.insert(def.name.as_str(), (def.kind, site));
            }
        }
    }
}

/// `^[a-z0-9_]+(\.[a-z0-9_]+)+$`
#[must_use]
pub fn well_formed(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    segments.len() >= 2
        && segments.iter().all(|s| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> (Vec<RawDiag>, Vec<ProbeDef>) {
        let ctx = FileCtx::new(rel.to_owned(), src);
        let code = ctx.code_indices();
        let mut out = Vec::new();
        let defs = extract(&ctx, &code, &mut out);
        (out, defs)
    }

    fn collide(sites: &[(&str, &str)]) -> Vec<FileDiag> {
        let mut probes = Vec::new();
        for (rel, src) in sites {
            let (out, defs) = run(rel, src);
            assert!(out.is_empty(), "{out:?}");
            for def in defs {
                probes.push(((*rel).to_owned(), def));
            }
        }
        let mut found = Vec::new();
        collisions(&probes, &mut found);
        found
    }

    #[test]
    fn well_formed_names_pass_and_are_extracted() {
        let (found, defs) = run(
            "crates/spice/src/a.rs",
            "fn f() { sram_probe::probe_inc!(\"spice.dc_solves\"); sram_probe::probe_record!(detail \"spice.iters\", 3); }",
        );
        assert!(found.is_empty(), "{found:?}");
        let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["spice.dc_solves", "spice.iters"]);
        assert_eq!(defs[0].kind, Kind::Counter);
        assert_eq!(defs[1].kind, Kind::Histogram);
    }

    #[test]
    fn bad_format_fires_and_is_not_extracted() {
        let (found, defs) = run(
            "crates/spice/src/a.rs",
            "fn f() { sram_probe::probe_inc!(\"BadName\"); sram_probe::probe_inc!(\"spice.Upper.x\"); }",
        );
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(defs.is_empty());
    }

    #[test]
    fn wrong_crate_prefix_fires() {
        let (found, defs) = run(
            "crates/cell/src/a.rs",
            "fn f() { sram_probe::probe_inc!(\"spice.in_cell_crate\"); }",
        );
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("namespaced"));
        assert!(defs.is_empty());
    }

    #[test]
    fn cross_kind_collision_fires() {
        let found = collide(&[(
            "crates/spice/src/a.rs",
            "fn f() { sram_probe::probe_inc!(\"spice.x\"); sram_probe::probe_gauge!(\"spice.x\", 1.0); }",
        )]);
        assert_eq!(found.len(), 1);
        assert!(found[0].diag.message.contains("registered as"));
        assert!(
            found[0].diag.message.contains("crates/spice/src/a.rs:1"),
            "{}",
            found[0].diag.message
        );
    }

    #[test]
    fn cross_file_collision_names_the_first_site() {
        let found = collide(&[
            (
                "crates/spice/src/a.rs",
                "fn f() { sram_probe::probe_inc!(\"spice.x\"); }",
            ),
            (
                "crates/spice/src/b.rs",
                "fn g() { sram_probe::probe_gauge!(\"spice.x\", 1.0); }",
            ),
        ]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].file, "crates/spice/src/b.rs");
        assert!(found[0].diag.message.contains("a.rs:1"));
    }

    #[test]
    fn same_kind_reuse_is_fine() {
        let found = collide(&[(
            "crates/spice/src/a.rs",
            "fn f() { sram_probe::probe_inc!(\"spice.x\"); sram_probe::probe_add!(\"spice.x\", 2); }",
        )]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn trace_span_names_are_checked() {
        let (found, _) = run(
            "crates/spice/src/a.rs",
            "fn f() { let _t = sram_probe::trace_span!(\"NotDotted\"); }",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("not lowercase dotted"));
        let (found, _) = run(
            "crates/cell/src/a.rs",
            "fn f() { let _t = sram_probe::trace_span!(\"spice.wrong_crate\"); }",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("namespaced"));
        let (found, defs) = run(
            "crates/spice/src/a.rs",
            "fn f() { let _t = sram_probe::trace_span!(\"spice.dc_solve\"); }",
        );
        assert!(found.is_empty(), "{found:?}");
        assert_eq!(defs[0].kind, Kind::Trace);
    }

    #[test]
    fn trace_span_collides_with_metric_kinds() {
        let found = collide(&[(
            "crates/spice/src/a.rs",
            "fn f() { sram_probe::probe_inc!(\"spice.x\"); let _t = sram_probe::trace_span!(\"spice.x\"); }",
        )]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].diag.message.contains("trace span"));
    }

    #[test]
    fn probe_crate_owns_telemetry_and_log_namespaces() {
        let (found, _) = run(
            "crates/probe/src/telemetry.rs",
            "fn f() { sram_probe::probe_inc!(\"telemetry.windows\"); sram_probe::probe_inc!(\"log.events_written\"); sram_probe::probe_inc!(\"probe.trace.dropped\"); }",
        );
        assert!(found.is_empty(), "{found:?}");
        let (found, _) = run(
            "crates/probe/src/telemetry.rs",
            "fn f() { sram_probe::probe_inc!(\"metrics.wrong_home\"); }",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("namespaced"));
    }

    #[test]
    fn direct_registry_calls_are_checked() {
        let (found, _) = run(
            "crates/spice/src/a.rs",
            "fn f() { let c = sram_probe::counter(\"nodots\"); }",
        );
        assert_eq!(found.len(), 1);
        // A local fn named `counter` is not a probe call.
        let (found, defs) = run(
            "crates/spice/src/a.rs",
            "fn f() { let c = counter(\"x\"); }",
        );
        assert!(found.is_empty(), "{found:?}");
        assert!(defs.is_empty());
    }
}
