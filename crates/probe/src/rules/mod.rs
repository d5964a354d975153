//! The catalogue's rules that its `const` checks do not hold by
//! themselves, as tests, one module per rule: `probe_naming` (name
//! shape, owner prefixes, one row per name, kinds at each site, the ban
//! on unchecked paths) and `probe_drift` (PROBES.md, the owners' sources
//! and the assertion sites against the rows).

use crate::catalogue::{check, Kind, Owner, ProbeRow, Site};
use std::path::{Path, PathBuf};

mod probe_drift;
mod probe_naming;

/// The owner's directory and the name prefixes it holds.
fn layout(owner: Owner) -> (String, Vec<&'static str>) {
    let short = &owner.lib()["sram_".len()..];
    match owner {
        Owner::Core => ("crates/core".into(), vec!["coopt"]),
        Owner::Probe => ("crates/probe".into(), vec!["probe", "telemetry", "log"]),
        Owner::Bench => ("crates/bench".into(), vec!["bench", "repro"]),
        _ => (format!("crates/{short}"), vec![short]),
    }
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, concatenated.
fn sources(dir: &Path) -> String {
    let mut text = String::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir:?}: {e}")) {
            let path = entry.map(|e| e.path()).unwrap_or_default();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                text.push_str(&read(&path));
            }
        }
    }
    text
}

/// The error a probe macro recording `name` as `kind` from `module`
/// fails to compile with, or `None` when it compiles: [`check`] is the
/// `const` the macros evaluate, and it panics the same way at run time.
fn rejection(name: &'static str, kind: Kind, module: &'static str) -> Option<String> {
    let payload = std::panic::catch_unwind(|| check(name, kind, module)).err()?;
    Some(
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default(),
    )
}

/// A row for a rule's own test cases.
fn row(name: &'static str, kind: Kind, owner: Owner, site: Site) -> ProbeRow {
    ProbeRow {
        name,
        kind,
        owner,
        site,
    }
}
