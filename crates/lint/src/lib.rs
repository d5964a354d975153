//! # sram-lint
//!
//! Workspace-specific static analysis for the SRAM EDP co-optimization
//! workspace. `rustc` and `clippy` know Rust, and the crate roots hand
//! them the Rust-level rules (no panics in library code, no float `==`,
//! documented reachable API, no detached threads); they do not know
//! that a bare `9.5e-5` in a cell model is a latent unit bug, or that
//! two probe sites disagreeing on a metric's kind corrupts every
//! dashboard downstream. This crate encodes those house rules as one
//! dependency-free lint pass that needs a workspace-wide view.
//!
//! The analysis is intentionally lexical: a hand-written, string- and
//! comment-aware Rust lexer ([`lexer`]) feeds token-pattern rules
//! ([`rules`]). That is deliberate — the build environment is offline
//! (no `syn`), and every invariant we enforce is visible at the token
//! level. The trade-off is documented per rule: each rule states what
//! it can and cannot see.
//!
//! ## Rules
//!
//! See [`config::RULES`] for the registry with default levels. Inline
//! suppression:
//!
//! ```text
//! // sram-lint: allow(unit-hygiene) dimensionless fit coefficient from Table 2
//! ```
//!
//! A suppression covers its own line and the next code-bearing line,
//! and the reason is mandatory — a suppression without a justification
//! is itself a `suppression-syntax` error.
//!
//! ## Cross-file analysis
//!
//! Beyond per-file token rules, the engine assembles a workspace
//! symbol graph ([`graph`]): parameter-struct field definitions,
//! `SRAM_*` environment reads, probe metric registrations, and
//! experiment registry entries, against the dot-accesses and string
//! mentions that use them. Three rules consume it — `dead-parameter`,
//! `config-sync`, `probe-drift` — plus the graph-driven halves of
//! `probe-naming` and `registry-sync`. The [`engine`] walks the files
//! in sorted order in one sequential pass; results can render as text,
//! JSON, or SARIF 2.1.0 ([`sarif`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp
    )
)]

pub mod config;
pub mod context;
pub mod diag;
pub mod engine;
pub mod graph;
pub mod lexer;
pub mod rules;
pub mod sarif;

pub use config::Config;
pub use diag::{Diagnostic, Level, Report};
pub use engine::{find_workspace_root, run, FileAnalysis};
