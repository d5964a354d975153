//! Rule registry and per-rule severity configuration.

use crate::diag::Level;

/// `(name, default level, one-line description)` for every rule.
pub const RULES: &[(&str, Level, &str)] = &[
    (
        "unit-hygiene",
        Level::Warn,
        "bare physical-magnitude literals in model crates (cell/array/core) must use sram-units constructors or named consts",
    ),
    (
        "probe-naming",
        Level::Deny,
        "sram-probe metric names must be lowercase dotted crate.subsystem.metric, crate-prefixed, and kind-unique",
    ),
    (
        "registry-sync",
        Level::Deny,
        "every experiment in crates/bench/src/cli.rs must appear in EXPERIMENTS.md's Registry section and vice versa",
    ),
    (
        "dead-parameter",
        Level::Deny,
        "pub fields of parameter structs (*Params/*Config/*Space/*Options) must be dot-read somewhere in the workspace",
    ),
    (
        "config-sync",
        Level::Deny,
        "SRAM_* env vars read in code must be documented in README.md/DESIGN.md and vice versa",
    ),
    (
        "probe-drift",
        Level::Deny,
        "probe metric names must match PROBES.md (name + kind) and be asserted by a test, reproducer, or CI smoke",
    ),
    (
        "suppression-syntax",
        Level::Deny,
        "inline suppressions must name a known rule and carry a reason",
    ),
    (
        "unused-suppression",
        Level::Warn,
        "inline `sram-lint: allow` comments whose rule reports nothing on the covered lines are stale and must go",
    ),
    (
        "parse-error",
        Level::Deny,
        "the file could not be tokenized (unterminated string/comment)",
    ),
];

/// Effective severity per rule.
#[derive(Debug, Clone)]
pub struct Config {
    levels: Vec<(&'static str, Level)>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            levels: RULES
                .iter()
                .map(|&(name, level, _)| (name, level))
                .collect(),
        }
    }
}

impl Config {
    /// Default severities.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Every rule at `Deny` (the CI configuration).
    #[must_use]
    pub fn deny_all() -> Self {
        Self {
            levels: RULES
                .iter()
                .map(|&(name, _, _)| (name, Level::Deny))
                .collect(),
        }
    }

    /// Overrides one rule's level. Returns `false` for unknown rules.
    pub fn set(&mut self, rule: &str, level: Level) -> bool {
        for slot in &mut self.levels {
            if slot.0 == rule {
                slot.1 = level;
                return true;
            }
        }
        false
    }

    /// The effective level of `rule` (`Allow` for unknown names).
    #[must_use]
    pub fn level(&self, rule: &str) -> Level {
        self.levels
            .iter()
            .find(|(name, _)| *name == rule)
            .map_or(Level::Allow, |&(_, level)| level)
    }

    /// `true` when `rule` is a registered rule name.
    #[must_use]
    pub fn is_known_rule(rule: &str) -> bool {
        RULES.iter().any(|&(name, _, _)| name == rule)
    }
}

/// The rule registry rendered for `--list-rules`.
#[must_use]
pub fn render_rule_list() -> String {
    let mut out = String::new();
    let width = RULES.iter().map(|(n, _, _)| n.len()).max().unwrap_or(0);
    for &(name, level, desc) in RULES {
        out.push_str(&format!("{name:width$}  [{:5}]  {desc}\n", level.name()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_registry() {
        let c = Config::new();
        assert_eq!(c.level("probe-naming"), Level::Deny);
        assert_eq!(c.level("unit-hygiene"), Level::Warn);
        assert_eq!(c.level("nonexistent"), Level::Allow);
    }

    #[test]
    fn deny_all_promotes_everything() {
        let c = Config::deny_all();
        for &(name, _, _) in RULES {
            assert_eq!(c.level(name), Level::Deny, "{name}");
        }
    }

    #[test]
    fn set_overrides() {
        let mut c = Config::new();
        assert!(c.set("probe-naming", Level::Allow));
        assert_eq!(c.level("probe-naming"), Level::Allow);
        assert!(!c.set("bogus", Level::Deny));
    }
}
