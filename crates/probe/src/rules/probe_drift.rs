//! The catalogue and what stands beside it agree: PROBES.md is the
//! catalogue's rendering, every row is recorded in its owner's source,
//! every `At` site quotes its name outside a recording macro, and a site
//! records only catalogued names, as their rows' kinds.

use super::{layout, rejection, sources, workspace_root};
use crate::catalogue::{ProbeRow, Site, ENV_VARS, PROBES};

fn render_probes_md() -> String {
    let mut out = String::from(
        "# Probe registry\n\
         \n\
         Generated from `sram_probe::catalogue::PROBES`\n\
         (`crates/probe/src/catalogue.rs`); edit the catalogue, not this file.\n\
         `cargo test -p sram-probe` fails on any difference and prints the\n\
         rendered text.\n\
         \n\
         Every probe macro checks its name against the catalogue at compile\n\
         time: a name with no row, a kind other than the row's, or a name\n\
         recorded from another workspace library does not compile. Names are\n\
         lowercase dotted and begin with a prefix their owner holds. \"asserted\n\
         by\" is the file whose text asserts the value, or `unchecked:` with the\n\
         reason nothing does yet.\n\
         \n\
         | metric | kind | owner | asserted by |\n\
         |---|---|---|---|\n",
    );
    for row in PROBES {
        let site = match row.site {
            Site::At(path) => format!("`{path}`"),
            Site::Unchecked(reason) => format!("unchecked: {reason}"),
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {site} |\n",
            row.name,
            row.kind.word(),
            row.owner.lib().replace('_', "-"),
        ));
    }
    out
}

/// The failure for PROBES.md's text `on_disk` (`None` when the file is
/// missing): one message carrying the text to write, or `None` when the
/// file is the rendering.
fn probes_md_finding(on_disk: Option<&str>) -> Option<String> {
    let rendered = render_probes_md();
    (on_disk != Some(rendered.as_str())).then(|| {
        format!("PROBES.md differs from the catalogue; write this text to it:\n{rendered}")
    })
}

/// The macros that record a probe. A name quoted as one's argument is
/// a recording, not an assertion; `probe_handle!` is not among them,
/// since tests read values through it.
const RECORDING: &[&str] = &[
    "probe_inc!(",
    "probe_add!(",
    "probe_gauge!(",
    "probe_record!(",
    "probe_span!(",
    "trace_span!(",
];

/// The rows whose `At` site does not quote their name outside a
/// recording macro; `text` reads a site, `None` when it does not exist.
/// A name the site mentions without quotes (in prose, in a comment)
/// asserts nothing, and neither does the site's own recording of it.
fn unasserted(rows: &[ProbeRow], text: impl Fn(&str) -> Option<String>) -> Vec<&str> {
    let asserts = |text: &str, name: &str| {
        text.match_indices(&format!("\"{name}\"")).any(|(at, _)| {
            let before = text[..at].trim_end();
            !RECORDING.iter().any(|call| before.ends_with(call))
        })
    };
    rows.iter()
        .filter(|row| match row.site {
            Site::At(path) => !text(path).is_some_and(|text| asserts(&text, row.name)),
            Site::Unchecked(_) => false,
        })
        .map(|row| row.name)
        .collect()
}

mod tests {
    use super::super::row;
    use super::*;
    use crate::catalogue::{Kind, Owner};

    #[test]
    fn probes_md_is_rendered_from_the_catalogue() {
        let on_disk = std::fs::read_to_string(workspace_root().join("PROBES.md")).ok();
        if let Some(finding) = probes_md_finding(on_disk.as_deref()) {
            panic!("{finding}");
        }
    }

    #[test]
    fn missing_registry_with_probes_is_one_finding() {
        let rendered = render_probes_md();
        let finding = probes_md_finding(None).expect("a missing PROBES.md fails");
        assert!(finding.ends_with(&rendered), "the failure carries the text");
        assert_eq!(probes_md_finding(Some(&rendered)), None);
    }

    #[test]
    fn every_name_is_used_in_its_owners_source() {
        let root = workspace_root();
        let mut by_dir = std::collections::HashMap::new();
        let mut quoted = |owner: Owner, name: &str| {
            let dir = layout(owner).0;
            let text = by_dir
                .entry(dir.clone())
                .or_insert_with(|| sources(&root.join(&dir).join("src")));
            assert!(
                text.contains(&format!("\"{name}\"")),
                "`{name}` has a catalogue row but {dir}/src never uses it"
            );
        };
        for row in PROBES {
            quoted(row.owner, row.name);
        }
        for var in ENV_VARS {
            quoted(var.owner, var.name);
        }
    }

    #[test]
    fn listed_and_asserted_metric_is_quiet() {
        let root = workspace_root();
        let found = unasserted(PROBES, |path| std::fs::read_to_string(root.join(path)).ok());
        assert!(
            found.is_empty(),
            "assertion sites that never quote their name outside a recording macro: {found:?}"
        );
    }

    #[test]
    fn a_site_that_only_records_the_name_asserts_nothing() {
        let rows = [row("x", Kind::Trace, Owner::Bench, Site::At("t.rs"))];
        for site in [
            "trace_span!(\"x\")",
            "sram_probe::trace_span!(\n    \"x\"\n)",
        ] {
            assert_eq!(unasserted(&rows, |_| Some(site.into())), ["x"], "{site}");
        }
        let also_reads =
            |_: &str| Some("sram_probe::probe_inc!(\"x\");\nassert_eq!(c(\"x\"), 1);".into());
        assert!(unasserted(&rows, also_reads).is_empty());
        let reads_a_handle = |_: &str| Some("probe_handle!(counter \"x\").get()".into());
        assert!(unasserted(&rows, reads_a_handle).is_empty());
    }

    #[test]
    fn unlisted_metric_fires_at_the_registration() {
        assert_eq!(
            rejection("cell.not_catalogued", Kind::Counter, "sram_cell::lib").as_deref(),
            Some("probe `cell.not_catalogued` is not in the catalogue (sram_probe::catalogue::PROBES)")
        );
    }

    #[test]
    fn kind_mismatch_fires_at_the_row() {
        assert_eq!(
            rejection("cell.mc_runs", Kind::Gauge, "sram_cell::montecarlo").as_deref(),
            Some("probe `cell.mc_runs` is catalogued as a counter but recorded as a gauge")
        );
    }

    #[test]
    fn unasserted_metric_fires_unless_marked_unchecked() {
        use Site::{At, Unchecked};
        let spice = |name, site| row(name, Kind::Counter, Owner::Spice, site);
        let rows = [
            spice("spice.iters", At("t.rs")),
            spice("spice.solves", At("t.rs")),
            spice("spice.steps", Unchecked("why")),
            spice("spice.x", At("gone.rs")),
        ];
        let text = |path: &str| {
            (path == "t.rs").then(|| "assert_eq!(c(\"spice.iters\"), 3); // spice.solves".into())
        };
        assert_eq!(unasserted(&rows, text), ["spice.solves", "spice.x"]);
        for row in PROBES {
            if let Site::Unchecked(reason) = row.site {
                assert!(!reason.trim().is_empty(), "`{}`: no reason", row.name);
            }
        }
    }
}
