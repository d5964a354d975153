//! Dead public surface in the workspace crates: every `pub fn` and
//! `pub const` that a `crates/*/src/` file declares outside `#[cfg(test)]`
//! items must be named in the code of some other source file of the
//! repository — library code, a binary, an example, an integration test
//! or edpbench. Comments, strings, `pub use` re-exports and
//! `#[cfg(test)]` items are no callers. The match is by name, so a
//! method that shares its name with one called elsewhere passes; a name
//! no other file mentions is surely uncalled.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use super::unit_hygiene::blank;

const CRATES: [&str; 11] = [
    "units", "device", "spice", "cell", "array", "core", "probe", "bench", "serve", "cluster",
    "faults",
];

/// Every `.rs` file under `dir`, skipping build output (`target`), the
/// vendored stand-ins (which cannot call the workspace crates) and
/// hidden directories.
fn sources(dir: &Path, files: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !(name.starts_with('.') || name == "target" || name == "vendor") {
                sources(&path, files);
            }
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn repository_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    sources(&root(), &mut files);
    files.sort();
    files
}

/// `true` for a file under one of the workspace crates' `src/`.
fn declares_surface(path: &Path) -> bool {
    let crates = root().join("crates");
    CRATES
        .iter()
        .any(|c| path.starts_with(crates.join(c).join("src")))
}

/// Identifiers, with a macro's `$` kept so that a metavariable is no name.
fn words(s: &str) -> impl Iterator<Item = &str> {
    s.split(|c: char| !c.is_alphanumeric() && c != '_' && c != '$')
        .filter(|w| !w.is_empty())
}

/// The `pub fn`s (`pub const fn`s too) and `pub const`s of blanked code,
/// with their line numbers; a macro's `pub fn $name` declares nothing
/// here.
fn declared(code: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    for (n, line) in code.lines().enumerate() {
        let w: Vec<&str> = words(line).collect();
        for k in 0..w.len() {
            let name = match w[k..] {
                ["pub", "fn", name, ..] | ["pub", "const", "fn", name, ..]
                    if !name.starts_with('$') =>
                {
                    name
                }
                ["pub", "const", name, ..] if name != "fn" && !name.starts_with('$') => name,
                _ => continue,
            };
            found.push((n + 1, name.to_string()));
        }
    }
    found
}

/// Where the first `pub use` / `pub(…) use` item of blanked code starts.
fn reexport_at(code: &str) -> Option<usize> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices("pub").map(|(at, _)| at).find(|&at| {
        let tail = code[at + 3..].trim_start();
        let tail = tail
            .strip_prefix('(')
            .and_then(|scoped| scoped.split_once(')'))
            .map_or(tail, |(_, after)| after);
        let used = tail.trim_start().strip_prefix("use");
        !code[..at].ends_with(ident) && used.is_some_and(|after| !after.starts_with(ident))
    })
}

/// The names blanked code mentions outside `pub use` items.
fn mentioned(code: &str) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    let mut rest = code;
    while let Some(at) = reexport_at(rest) {
        names.extend(words(&rest[..at]));
        rest = rest[at..].split_once(';').map_or("", |(_, next)| next);
    }
    names.extend(words(rest));
    names
}

/// One finding, `path:line` and name, per `pub fn` or `pub const` no
/// other file names.
fn orphans(files: &[(PathBuf, String)]) -> Vec<String> {
    let mentions: Vec<BTreeSet<&str>> = files.iter().map(|(_, code)| mentioned(code)).collect();
    let mut found = Vec::new();
    for (k, (path, code)) in files.iter().enumerate() {
        if !declares_surface(path) {
            continue;
        }
        for (line, name) in declared(code) {
            let called = mentions
                .iter()
                .enumerate()
                .any(|(j, names)| j != k && names.contains(name.as_str()));
            if !called {
                let shown = path.strip_prefix(root()).unwrap_or(path);
                found.push(format!(
                    "{}:{line}: `{name}` is named in no other file",
                    shown.display()
                ));
            }
        }
    }
    found
}

mod tests {
    use super::*;

    #[test]
    fn every_pub_fn_and_const_in_the_workspace_crates_has_a_caller() {
        let files: Vec<(PathBuf, String)> = repository_sources()
            .into_iter()
            .map(|path| {
                let src = std::fs::read_to_string(&path).expect("readable source");
                (path, blank(&src))
            })
            .collect();
        let orphans = orphans(&files).join("\n");
        assert!(
            orphans.is_empty(),
            "pub fns and consts without a caller (call them from another file, make them private or delete them):\n{orphans}"
        );
    }

    fn at(path: &str, src: &str) -> (PathBuf, String) {
        (root().join(path), blank(src))
    }

    #[test]
    fn an_uncalled_pub_fn_is_named() {
        let files = [
            at(
                "crates/cell/src/a.rs",
                "pub fn used() {}\npub fn only_here() { used() }\npub const fn constant() {}\n\
                 pub(crate) fn scoped() {}\nfn private() {}\n\
                 #[cfg(test)]\nmod tests { pub fn helper() { only_here(); constant() } }",
            ),
            at(
                "crates/serve/src/b.rs",
                "// only_here\nconst S: &str = \"only_here\";\nconst R: &str = r#\"only_here(\" \"#;\n\
                 pub use a::{only_here, constant};\n\
                 pub(crate) use a::constant;\nfn f() { used() }\n\
                 pub const LIMIT: u8 = 1;\npub const READ: u8 = LIMIT;\npub(crate) const SCOPED: u8 = 2;",
            ),
            at("crates/probe/src/c.rs", "fn g() -> u8 { READ }"),
        ];
        assert_eq!(
            orphans(&files),
            [
                "crates/cell/src/a.rs:2: `only_here` is named in no other file",
                "crates/cell/src/a.rs:3: `constant` is named in no other file",
                "crates/serve/src/b.rs:7: `LIMIT` is named in no other file",
            ]
        );
    }

    #[test]
    fn outside_crates_declare_nothing_and_every_caller_is_read() {
        let files = [
            at(
                "src/a.rs",
                "pub fn unclaimed() {}\npub const UNCLAIMED: u8 = 0;",
            ),
            at("edpbench/src/b.rs", "pub fn also_unclaimed() { called() }"),
            at("crates/faults/src/c.rs", "pub fn called() {}"),
        ];
        assert_eq!(orphans(&files), Vec::<String>::new());
        let scanned = repository_sources();
        for caller in [
            "src/lib.rs",
            "tests/end_to_end.rs",
            "examples/quickstart.rs",
            "crates/bench/src/bin/reproduce.rs",
            "edpbench/src/main.rs",
        ] {
            assert!(scanned.contains(&root().join(caller)), "{caller} is read");
        }
        for c in CRATES {
            assert!(scanned.contains(&root().join(format!("crates/{c}/src/lib.rs"))));
        }
        let skipped = scanned.iter().find(|f| {
            f.starts_with(root().join("vendor"))
                || f.components().any(|c| c.as_os_str() == "target")
        });
        assert_eq!(skipped, None, "vendor/ and build output are not read");
    }
}
