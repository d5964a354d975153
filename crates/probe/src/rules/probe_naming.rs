//! Probe names are lowercase dotted, begin with a prefix their owner
//! holds, and have one row each; a site records a name only as its row's
//! kind and from its owner's library; and clippy bans the unchecked
//! registry paths, so the checked macros are the only way in.

use super::{layout, read, rejection, row, workspace_root};
use crate::catalogue::{check, Kind, ProbeRow, PROBES};

/// `true` for two or more non-empty `[a-z0-9_]` segments joined by `.`.
fn well_formed(name: &str) -> bool {
    name.split('.').count() >= 2
        && name.split('.').all(|segment| {
            !segment.is_empty()
                && segment
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
}

/// One line per row that is malformed, outside its owner's prefixes, or
/// not after the row before it (rows are sorted, so a repeated name is
/// found at its second row and named with the first).
fn findings(rows: &[ProbeRow]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let prefixes = layout(row.owner).1;
        if !well_formed(row.name) {
            out.push(format!("`{}` is not lowercase dotted", row.name));
        } else if !prefixes
            .iter()
            .any(|p| row.name.split('.').next() == Some(p))
        {
            out.push(format!(
                "`{}`: {} owns only {prefixes:?}",
                row.name,
                row.owner.lib()
            ));
        }
        match i.checked_sub(1).map(|j| rows[j].name) {
            Some(prev) if prev == row.name => {
                out.push(format!("row {i} repeats `{prev}` of row {}", i - 1));
            }
            Some(prev) if prev > row.name => {
                out.push(format!("row {i} `{}` sorts before `{prev}`", row.name));
            }
            _ => {}
        }
    }
    out
}

/// `true` when a probe macro recording `name` as `kind` from `module`
/// compiles.
fn compiles(name: &'static str, kind: Kind, module: &'static str) -> bool {
    rejection(name, kind, module).is_none()
}

mod tests {
    use super::*;
    use crate::catalogue::Owner::{self, Cell, Probe, Spice};
    use crate::catalogue::Site::Unchecked;
    use Kind::{Counter, Gauge, Histogram, Trace};

    fn named(name: &'static str, kind: Kind, owner: Owner) -> ProbeRow {
        row(name, kind, owner, Unchecked("test row"))
    }

    #[test]
    fn well_formed_names_pass_and_are_extracted() {
        let found = findings(PROBES);
        assert!(found.is_empty(), "{}", found.join("\n"));
        // `check` finds every row at its owner, as its kind.
        for row in PROBES {
            check(row.name, row.kind, row.owner.lib());
        }
    }

    #[test]
    fn bad_format_fires_and_is_not_extracted() {
        for name in ["BadName", "spice", "spice..x", "spice.dc-solves"] {
            assert!(!well_formed(name), "{name}");
        }
        let rows = [
            named("BadName", Counter, Spice),
            named("spice.Upper.x", Counter, Spice),
        ];
        assert_eq!(findings(&rows).len(), 2);
        assert!(!compiles("BadName", Counter, "sram_spice::dc"));
    }

    #[test]
    fn wrong_crate_prefix_fires() {
        assert_eq!(
            findings(&[named("spice.in_cell_crate", Counter, Cell)]),
            ["`spice.in_cell_crate`: sram_cell owns only [\"cell\"]"]
        );
        assert_eq!(
            rejection("spice.dc_solves", Counter, "sram_cell::write").as_deref(),
            Some("probe `spice.dc_solves` belongs to sram_spice but is recorded in sram_cell")
        );
    }

    #[test]
    fn cross_kind_collision_fires() {
        for kind in [Counter, Gauge, Histogram, Trace] {
            let compiled = compiles("cell.mc_runs", kind, "sram_cell::montecarlo");
            assert_eq!(compiled, kind == Counter, "cell.mc_runs as {kind:?}");
        }
    }

    #[test]
    fn cross_file_collision_names_the_first_site() {
        let rows = [
            named("spice.x", Counter, Spice),
            named("spice.x", Gauge, Spice),
        ];
        assert_eq!(findings(&rows), ["row 1 repeats `spice.x` of row 0"]);
    }

    #[test]
    fn same_kind_reuse_is_fine() {
        for module in ["sram_spice::dc", "sram_spice::transient"] {
            assert!(compiles("spice.dc_solves", Counter, module));
        }
    }

    #[test]
    fn trace_span_names_are_checked() {
        assert!(compiles("serve.request", Trace, "sram_serve::server"));
        assert!(!compiles("serve.not_a_span", Trace, "sram_serve::server"));
        assert!(!compiles("serve.request", Trace, "sram_cluster::router"));
        assert_eq!(findings(&[named("NotDotted", Trace, Spice)]).len(), 1);
    }

    #[test]
    fn trace_span_collides_with_metric_kinds() {
        assert!(!compiles("serve.request", Counter, "sram_serve::server"));
        assert!(!compiles("spice.dc_solves", Trace, "sram_spice::dc"));
    }

    #[test]
    fn probe_crate_owns_telemetry_and_log_namespaces() {
        let rows = [
            named("log.events.written", Counter, Probe),
            named("probe.trace.dropped", Counter, Probe),
            named("telemetry.windows.sampled", Counter, Probe),
        ];
        assert!(findings(&rows).is_empty());
        let stray = [named("metrics.wrong_home", Counter, Probe)];
        assert_eq!(findings(&stray).len(), 1);
        let sampled = "telemetry.windows.sampled";
        assert!(compiles(sampled, Counter, "sram_probe::telemetry"));
        assert!(!compiles(sampled, Counter, "sram_serve::server"));
    }

    #[test]
    fn direct_registry_calls_are_checked() {
        let clippy = read(&workspace_root().join("clippy.toml"));
        for path in [
            "sram_probe::counter",
            "sram_probe::gauge",
            "sram_probe::histogram",
            "sram_probe::trace::intern",
            "std::env::var",
            "std::env::var_os",
        ] {
            assert!(
                clippy.contains(&format!("path = \"{path}\"")),
                "clippy.toml's disallowed-methods does not ban {path}"
            );
        }
    }
}
