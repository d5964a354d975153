//! The documents agree with the catalogues the code is checked against,
//! as tests, one module per rule: `config_sync` holds README.md and
//! DESIGN.md to `sram_probe::catalogue::ENV_VARS`, and `registry_sync`
//! holds EXPERIMENTS.md's registry table to [`crate::cli::EXPERIMENTS`].

mod config_sync;
mod registry_sync;

/// A document at the workspace root.
fn doc(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}
