//! The engine against the intentionally-bad fixture workspace under
//! `fixtures/ws`, plus the self-hosting run on the real workspace.
//!
//! The fixture tree holds exactly one violation site per behavior under
//! test, so every assertion here pins an exact count — a rule that
//! stops firing (or starts double-firing) breaks the build.

use sram_lint::{find_workspace_root, run, Config, Diagnostic, Level, Report};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws")
}

fn fixture_report() -> Report {
    run(&fixture_root(), &Config::deny_all()).expect("fixture tree readable")
}

fn count(report: &Report, rule: &str) -> usize {
    report.diagnostics.iter().filter(|d| d.rule == rule).count()
}

fn in_file<'r>(report: &'r Report, file: &str) -> Vec<&'r Diagnostic> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.file == file)
        .collect()
}

#[test]
fn every_rule_fires_on_the_fixture_tree() {
    let report = fixture_report();
    assert_eq!(report.files_scanned, 15, "fixture tree changed shape");
    assert_eq!(count(&report, "unit-hygiene"), 2);
    assert_eq!(count(&report, "probe-naming"), 8);
    assert_eq!(count(&report, "registry-sync"), 2);
    assert_eq!(count(&report, "dead-parameter"), 1);
    assert_eq!(count(&report, "config-sync"), 2);
    assert_eq!(count(&report, "probe-drift"), 5);
    assert_eq!(count(&report, "suppression-syntax"), 1);
    assert_eq!(count(&report, "unused-suppression"), 2);
    assert_eq!(count(&report, "parse-error"), 1);
    assert_eq!(report.diagnostics.len(), 24);
    assert!(report.deny_count() > 0, "--deny-all must fail on fixtures");
}

#[test]
fn suppression_is_counted_not_reported() {
    let report = fixture_report();
    assert_eq!(report.suppressed, 2, "unit-hygiene + dead-parameter");
    assert!(
        in_file(&report, "crates/cell/src/suppressed_ok.rs").is_empty(),
        "a justified suppression must silence its finding"
    );
}

#[test]
fn stale_suppression_is_reported_at_its_comment() {
    let report = fixture_report();
    let diags = in_file(&report, "crates/array/src/unused_suppress.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "unused-suppression");
    assert_eq!(diags[0].line, 8, "anchored at the stale comment");
    assert!(
        diags[0].message.contains("unit-hygiene"),
        "{}",
        diags[0].message
    );
}

#[test]
fn clean_file_is_quiet() {
    let report = fixture_report();
    assert!(in_file(&report, "crates/device/src/clean.rs").is_empty());
}

#[test]
fn reasonless_suppression_errors_and_does_not_cover() {
    let report = fixture_report();
    let diags = in_file(&report, "crates/array/src/bad_suppress.rs");
    let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    assert!(rules.contains(&"suppression-syntax"), "{rules:?}");
    assert!(
        rules.contains(&"unit-hygiene"),
        "an invalid suppression must not silence the violation: {rules:?}"
    );
}

#[test]
fn unit_hygiene_exempts_consts_and_constructors() {
    let report = fixture_report();
    let diags = in_file(&report, "crates/cell/src/bad_units.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("9.5e-5"), "{}", diags[0].message);
}

#[test]
fn probe_collision_is_reported_at_the_second_site() {
    let report = fixture_report();
    let collision = report
        .diagnostics
        .iter()
        .find(|d| d.message.contains("registered as"))
        .expect("cross-kind collision reported");
    assert_eq!(collision.file, "crates/spice/src/bad_probe.rs");
    assert!(
        collision.message.contains("bad_probe.rs:8"),
        "collision must name the first registration site: {}",
        collision.message
    );
}

#[test]
fn registry_sync_reports_both_directions_of_drift() {
    let report = fixture_report();
    let ghost = report
        .diagnostics
        .iter()
        .find(|d| d.message.contains("`ghost`"))
        .expect("unrecorded experiment reported");
    assert_eq!(ghost.file, "crates/bench/src/cli.rs");
    let stale = report
        .diagnostics
        .iter()
        .find(|d| d.message.contains("`ghost-ledger`"))
        .expect("stale ledger row reported");
    assert_eq!(stale.file, "EXPERIMENTS.md");
}

#[test]
fn allow_level_silences_a_rule() {
    let mut config = Config::deny_all();
    assert!(config.set("unit-hygiene", Level::Allow));
    let report = run(&fixture_root(), &config).expect("fixture tree readable");
    assert_eq!(count(&report, "unit-hygiene"), 0);
    assert_eq!(count(&report, "probe-naming"), 8, "other rules unaffected");
}

#[test]
fn warn_level_keeps_exit_clean() {
    let mut config = Config::deny_all();
    for rule in [
        "unit-hygiene",
        "probe-naming",
        "registry-sync",
        "dead-parameter",
        "config-sync",
        "probe-drift",
        "suppression-syntax",
        "unused-suppression",
        "parse-error",
    ] {
        assert!(config.set(rule, Level::Warn), "{rule}");
    }
    let report = run(&fixture_root(), &config).expect("fixture tree readable");
    assert_eq!(report.deny_count(), 0);
    assert_eq!(report.warn_count(), 24);
}

#[test]
fn json_rendering_of_the_fixture_report_is_well_formed() {
    let report = fixture_report();
    let json = report.render_json();
    assert!(json.contains("\"files_scanned\": 15"));
    assert!(json.contains("\"counts\": {\"deny\": 24, \"warn\": 0}"));
    // Balanced braces/brackets outside strings — cheap well-formedness
    // check without a JSON parser in the dependency-free workspace.
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escape = false;
    for c in json.chars() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced close in JSON output");
    }
    assert_eq!(depth, 0, "unbalanced JSON output");
    assert!(!in_str, "unterminated string in JSON output");
}

#[test]
fn the_workspace_lints_clean_under_deny_all() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let report = run(&root, &Config::deny_all()).expect("workspace readable");
    let rendered = report.render_text();
    assert_eq!(
        report.deny_count(),
        0,
        "self-hosting run failed:\n{rendered}"
    );
    assert_eq!(
        report.warn_count(),
        0,
        "self-hosting run warned:\n{rendered}"
    );
    assert!(
        report.files_scanned > 50,
        "walker lost the workspace: only {} files",
        report.files_scanned
    );
}

#[test]
fn probe_crate_fixture_is_namespaced() {
    let report = fixture_report();
    let diags = in_file(&report, "crates/probe/src/telemetry_ok.rs");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "probe-naming");
    assert!(
        diags[0].message.contains("metrics.wrong_home"),
        "{}",
        diags[0].message
    );
}

#[test]
fn cluster_crate_fixture_is_namespaced() {
    // The router crate's metrics must live under `cluster.` (the
    // wrong-prefix registration), and probe-drift must see the
    // unasserted `cluster.trace.` stitching metric, not just the
    // membership families.
    let report = fixture_report();
    let diags = in_file(&report, "crates/cluster/src/bad_cluster.rs");
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!(diags[0].rule, "probe-naming");
    assert!(
        diags[0].message.contains("node.evicted_fixture"),
        "{}",
        diags[0].message
    );
    assert_eq!(diags[1].rule, "probe-drift");
    assert!(
        diags[1].message.contains("cluster.trace.stitched_fixture"),
        "{}",
        diags[1].message
    );
}

#[test]
fn dead_parameter_fires_on_the_unread_field_only() {
    let report = fixture_report();
    let diags = in_file(&report, "crates/device/src/bad_dead_param.rs");
    let dead: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "dead-parameter")
        .collect();
    assert_eq!(dead.len(), 1, "{diags:?}");
    assert!(
        dead[0].message.contains("TuningParams.dead_knob"),
        "{}",
        dead[0].message
    );
    // The read field and the suppressed field stay quiet.
    assert!(
        !diags.iter().any(|d| d.message.contains("live_knob")),
        "{diags:?}"
    );
    assert!(
        !diags.iter().any(|d| d.message.contains("shadow_knob")),
        "{diags:?}"
    );
}

#[test]
fn stale_dead_parameter_suppression_is_reported() {
    // Satellite of the cross-file analysis: graph-rule findings flow
    // through the same suppression accounting as per-file rules, so a
    // `dead-parameter` allow on a field that IS read goes stale.
    let report = fixture_report();
    let diags = in_file(&report, "crates/device/src/bad_dead_param.rs");
    let stale = diags
        .iter()
        .find(|d| d.rule == "unused-suppression")
        .expect("stale dead-parameter suppression reported");
    assert!(
        stale.message.contains("dead-parameter"),
        "{}",
        stale.message
    );
    assert_eq!(stale.line, 8, "anchored at the stale allow comment");
}

#[test]
fn config_sync_reports_both_directions_of_drift() {
    let report = fixture_report();
    let undocumented = report
        .diagnostics
        .iter()
        .find(|d| d.message.contains("SRAM_FIXTURE_UNDOCUMENTED"))
        .expect("undocumented env read reported");
    assert_eq!(undocumented.rule, "config-sync");
    assert_eq!(undocumented.file, "crates/serve/src/bad_config.rs");
    let ghost = report
        .diagnostics
        .iter()
        .find(|d| d.message.contains("SRAM_FIXTURE_GHOST"))
        .expect("ghost doc entry reported");
    assert_eq!(ghost.rule, "config-sync");
    assert_eq!(ghost.file, "README.md");
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("SRAM_FIXTURE_DOCUMENTED ")),
        "the documented-and-read var must be quiet"
    );
}

#[test]
fn probe_drift_reports_all_four_drift_shapes() {
    let report = fixture_report();
    let drift: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == "probe-drift")
        .collect();
    // Four shapes in the spice crate plus the never-asserted
    // cluster.trace fixture metric.
    assert_eq!(drift.len(), 5, "{drift:?}");
    let unlisted = drift
        .iter()
        .find(|d| d.message.contains("spice.drifted_metric"))
        .expect("unlisted metric reported");
    assert_eq!(unlisted.file, "crates/spice/src/bad_probe_drift.rs");
    let unasserted = drift
        .iter()
        .find(|d| d.message.contains("spice.unasserted_metric"))
        .expect("unasserted metric reported");
    assert!(unasserted.message.contains("never asserted"));
    let mismatch = drift
        .iter()
        .find(|d| d.message.contains("spice.mismatched_kind"))
        .expect("kind mismatch reported");
    assert_eq!(mismatch.file, "PROBES.md");
    assert!(mismatch.message.contains("as a gauge"));
    let ghost = drift
        .iter()
        .find(|d| d.message.contains("spice.ghost_metric"))
        .expect("stale row reported");
    assert_eq!(ghost.file, "PROBES.md");
}

#[test]
fn sarif_rendering_of_the_fixture_report_is_well_formed() {
    let report = fixture_report();
    let sarif = sram_lint::sarif::render_sarif(&report);
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("\"ruleId\": \"dead-parameter\""));
    assert!(sarif.contains("\"uri\": \"PROBES.md\""));
    // One result per diagnostic.
    assert_eq!(
        sarif.matches("\"ruleId\":").count(),
        report.diagnostics.len()
    );
}
