//! The `reproduce` binary at its command line: `--probe-json` writes the
//! run's probe deltas as JSON, and each argument error exits 1 with a
//! message that names it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use sram_probe::json::Json;

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("reproduce {args:?} did not start: {e}"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A path in the temp directory that no other test process uses.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("reproduce-cli-{}-{name}", std::process::id()))
}

fn text(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

#[test]
fn fig2_probe_json_counts_dc_solves_and_newton_iterations() {
    let path = temp_path("fig2.json");
    let out = reproduce(&["fig2", "--probe-json", text(&path)]);
    assert!(out.status.success(), "{}", stderr(&out));
    let written = std::fs::read_to_string(&path).expect("--probe-json writes its file");
    let _ = std::fs::remove_file(&path);
    let json = Json::parse(&written).unwrap_or_else(|e| panic!("{e}: {written}"));
    let counter = |name| {
        json.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let solves = counter("spice.dc_solves");
    assert!(solves > 0, "fig2 recorded no DC solve: {written}");
    assert!(
        counter("spice.newton_iterations") >= solves,
        "every DC solve takes a Newton iteration: {written}"
    );
}

#[test]
fn probe_json_without_a_path_exits_1() {
    let out = reproduce(&["fig2", "--probe-json"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.contains("--probe-json requires a path argument"),
        "{err}"
    );
}

#[test]
fn an_unwritable_probe_json_path_exits_1() {
    let path = temp_path("no-such-dir").join("probe.json");
    let out = reproduce(&["fig2", "--probe-json", text(&path)]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("failed to write probe JSON"), "{err}");
}

#[test]
fn an_unknown_experiment_exits_1_with_the_usage() {
    let out = reproduce(&["fig9"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("unknown experiment `fig9`"), "{err}");
    assert!(err.contains(&sram_bench::cli::usage()), "{err}");
}
