//! Command-line entry point for `sram-lint`.
//!
//! ```text
//! cargo run -p sram-lint -- --deny-all            # CI gate
//! cargo run -p sram-lint -- --format json         # machine-readable
//! cargo run -p sram-lint -- --format sarif        # code-scanning UIs
//! cargo run -p sram-lint -- --root path/to/tree   # lint another tree
//! cargo run -p sram-lint -- --list-rules
//! ```
//!
//! Exit codes: 0 clean (or warnings only), 1 deny-level findings,
//! 2 usage or I/O error.

#![warn(clippy::float_cmp)]

use sram_lint::{find_workspace_root, run, Config, Level};
use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sram-lint: error: {message}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let mut config = Config::new();
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => config = Config::deny_all(),
            "--format" => {
                let value = args
                    .next()
                    .ok_or("--format needs a value (text|json|sarif)")?;
                format = match value.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}` (text|json|sarif)")),
                };
            }
            "--root" => {
                let value = args.next().ok_or("--root needs a path")?;
                root = Some(PathBuf::from(value));
            }
            "--allow" | "--warn" | "--deny" => {
                let rule = args
                    .next()
                    .ok_or_else(|| format!("{arg} needs a rule name"))?;
                let level = match arg.as_str() {
                    "--allow" => Level::Allow,
                    "--warn" => Level::Warn,
                    _ => Level::Deny,
                };
                if !config.set(&rule, level) {
                    return Err(format!("unknown rule `{rule}` (see --list-rules)"));
                }
            }
            "--list-rules" => {
                print!("{}", sram_lint::config::render_rule_list());
                return Ok(ExitCode::SUCCESS);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_workspace_root(&cwd)
                .ok_or("no workspace root found above the current directory; pass --root")?
        }
    };
    if !root.is_dir() {
        return Err(format!("root `{}` is not a directory", root.display()));
    }

    let report = run(&root, &config).map_err(|e| format!("walking {}: {e}", root.display()))?;
    match format {
        Format::Text => print!("{}", report.render_text()),
        Format::Json => println!("{}", report.render_json()),
        Format::Sarif => print!("{}", sram_lint::sarif::render_sarif(&report)),
    }
    if report.deny_count() > 0 {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

const USAGE: &str = "\
sram-lint — workspace static analysis for the SRAM EDP workspace

USAGE:
    sram-lint [OPTIONS]

OPTIONS:
    --root <PATH>      Tree to lint (default: enclosing cargo workspace)
    --format <FMT>     Output format: text (default), json, or sarif
    --deny-all         Escalate every rule to deny (the CI gate)
    --allow <RULE>     Disable a rule
    --warn <RULE>      Set a rule to warn
    --deny <RULE>      Set a rule to deny
    --list-rules       Print the rule registry and exit
    -h, --help         Print this help";
