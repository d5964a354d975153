//! Experiment registry and selection for the `reproduce` binary.
//!
//! The binary's argument handling and help text are generated from
//! [`EXPERIMENTS`], so the usage message can never drift from what
//! actually runs (it previously listed stale summaries and omitted
//! opt-in experiments entirely).

/// Runner signature: every experiment receives the worker-thread
/// budget (single-threaded experiments ignore it) and returns its
/// formatted report.
pub type Runner = fn(usize) -> Result<String, String>;

/// One selectable experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// CLI name.
    pub name: &'static str,
    /// One-line summary shown in the usage message.
    pub summary: &'static str,
    /// Included in `reproduce all`? Opt-in experiments run only when
    /// named explicitly.
    pub in_all: bool,
    /// The driver.
    pub run: Runner,
}

fn fig2(_threads: usize) -> Result<String, String> {
    crate::fig2::run().map_err(|e| e.to_string())
}

fn fig3(_threads: usize) -> Result<String, String> {
    crate::fig3::run().map_err(|e| e.to_string())
}

fn fig5(_threads: usize) -> Result<String, String> {
    crate::fig5::run().map_err(|e| e.to_string())
}

fn table4(threads: usize) -> Result<String, String> {
    crate::table4::run(threads).map_err(|e| e.to_string())
}

fn fig7(threads: usize) -> Result<String, String> {
    crate::fig7::run(threads).map_err(|e| e.to_string())
}

fn readfit(_threads: usize) -> Result<String, String> {
    crate::readfit::run().map_err(|e| e.to_string())
}

fn yieldk(_threads: usize) -> Result<String, String> {
    crate::yieldk::run(60).map_err(|e| e.to_string())
}

fn ablation(_threads: usize) -> Result<String, String> {
    crate::ablation::run().map_err(|e| e.to_string())
}

fn extensions(_threads: usize) -> Result<String, String> {
    crate::extensions::run().map_err(|e| e.to_string())
}

fn rails_sim(_threads: usize) -> Result<String, String> {
    crate::extensions::simulated_rail_ablation().map_err(|e| e.to_string())
}

fn serve_bench(threads: usize) -> Result<String, String> {
    crate::serve::run(threads).map_err(|e| e.to_string())
}

fn chaos_soak(threads: usize) -> Result<String, String> {
    crate::soak::chaos::run(threads)
}

fn telemetry_soak(threads: usize) -> Result<String, String> {
    crate::soak::telemetry::run(threads)
}

fn cluster_soak(threads: usize) -> Result<String, String> {
    crate::soak::cluster::run(threads)
}

fn trace_soak(threads: usize) -> Result<String, String> {
    crate::soak::trace::run(threads)
}

/// Every experiment the binary can run, in execution order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig2",
        summary: "Fig. 2: HSNM + leakage vs Vdd (6T-LVT vs 6T-HVT)",
        in_all: true,
        run: fig2,
    },
    Experiment {
        name: "fig3",
        summary: "Fig. 3: read-assist sweeps (Vdd boost, negative Gnd, WL underdrive)",
        in_all: true,
        run: fig3,
    },
    Experiment {
        name: "fig5",
        summary: "Fig. 5: write-assist sweeps (WL overdrive, negative bitline)",
        in_all: true,
        run: fig5,
    },
    Experiment {
        name: "table4",
        summary: "Table 4: optimal design parameters (exhaustive co-optimization)",
        in_all: true,
        run: table4,
    },
    Experiment {
        name: "fig7",
        summary: "Fig. 7: delay/energy/EDP vs capacity + bitline decomposition",
        in_all: true,
        run: fig7,
    },
    Experiment {
        name: "readfit",
        summary: "Section 5's read-current power-law regression",
        in_all: true,
        run: readfit,
    },
    Experiment {
        name: "yield",
        summary: "mu - k*sigma statistical yield constraint (Monte Carlo)",
        in_all: true,
        run: yieldk,
    },
    Experiment {
        name: "ablation",
        summary: "rail-pinning, Pareto, heuristic, accounting ablations",
        in_all: true,
        run: ablation,
    },
    Experiment {
        name: "extensions",
        summary: "banking, drowsy standby, derated optimization",
        in_all: true,
        run: extensions,
    },
    Experiment {
        name: "serve-bench",
        summary: "query server: batch coalescing, result cache, TCP round trip, tracing overhead",
        in_all: true,
        run: serve_bench,
    },
    Experiment {
        name: "rails-sim",
        summary: "full-simulation (non-LUT) rail ablation — slow, opt-in",
        in_all: false,
        run: rails_sim,
    },
    Experiment {
        name: "chaos-soak",
        summary: "fault-injection soak: panic isolation, retry, cancellation under load — opt-in",
        in_all: false,
        run: chaos_soak,
    },
    Experiment {
        name: "telemetry-soak",
        summary: "telemetry soak: windowed metrics, SLO health verdict, sampled tracing — opt-in",
        in_all: false,
        run: telemetry_soak,
    },
    Experiment {
        name: "cluster-soak",
        summary:
            "cluster soak: router failover, hedged requests, key affinity over 3 nodes — opt-in",
        in_all: false,
        run: cluster_soak,
    },
    Experiment {
        name: "trace-soak",
        summary:
            "trace soak: cross-node span stitching, hedge losers, federated quantiles — opt-in",
        in_all: false,
        run: trace_soak,
    },
];

/// Outcome of resolving a CLI experiment argument.
#[derive(Debug)]
pub enum Selection {
    /// Experiments to run, plus those `all` deliberately skips (empty
    /// unless the argument was `all`).
    Run {
        /// Experiments to execute, in registry order.
        chosen: Vec<&'static Experiment>,
        /// Opt-in experiments excluded from `all`.
        skipped: Vec<&'static Experiment>,
    },
    /// The argument named no experiment.
    Unknown(String),
}

/// Resolves an experiment argument (`all` or a name from
/// [`EXPERIMENTS`]).
#[must_use]
pub fn select(which: &str) -> Selection {
    if which == "all" {
        let (chosen, skipped): (Vec<_>, Vec<_>) = EXPERIMENTS.iter().partition(|e| e.in_all);
        Selection::Run { chosen, skipped }
    } else if let Some(experiment) = EXPERIMENTS.iter().find(|e| e.name == which) {
        Selection::Run {
            chosen: vec![experiment],
            skipped: Vec::new(),
        }
    } else {
        Selection::Unknown(which.to_owned())
    }
}

/// The usage message, generated from [`EXPERIMENTS`].
#[must_use]
pub fn usage() -> String {
    let width = EXPERIMENTS
        .iter()
        .map(|e| e.name.len())
        .max()
        .unwrap_or(0)
        .max("all".len());
    let mut out = String::from("reproduce [experiment] [--probe-json <path>]\n\nexperiments:\n");
    for e in EXPERIMENTS {
        let opt_in = if e.in_all { "" } else { " (not part of `all`)" };
        out.push_str(&format!("  {:<width$}  {}{}\n", e.name, e.summary, opt_in));
    }
    out.push_str(&format!(
        "  {:<width$}  every experiment above not marked opt-in (default)\n",
        "all"
    ));
    out.push_str(
        "\nprobes:\n  SRAM_PROBE=1|2        collect instrumentation (see README \
         \"Observability\")\n  --probe-json <path>   write counters/histograms as JSON \
         (implies SRAM_PROBE=1)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_selects_everything_except_opt_in() {
        let Selection::Run { chosen, skipped } = select("all") else {
            panic!("`all` must resolve");
        };
        assert_eq!(chosen.len() + skipped.len(), EXPERIMENTS.len());
        assert!(chosen.iter().all(|e| e.in_all));
        assert_eq!(
            skipped.iter().map(|e| e.name).collect::<Vec<_>>(),
            vec![
                "rails-sim",
                "chaos-soak",
                "telemetry-soak",
                "cluster-soak",
                "trace-soak"
            ]
        );
    }

    #[test]
    fn named_selection_is_exact() {
        for e in EXPERIMENTS {
            let Selection::Run { chosen, skipped } = select(e.name) else {
                panic!("{} must resolve", e.name);
            };
            assert_eq!(chosen.len(), 1);
            assert_eq!(chosen[0].name, e.name);
            assert!(skipped.is_empty());
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(matches!(select("fig9"), Selection::Unknown(n) if n == "fig9"));
        assert!(matches!(select(""), Selection::Unknown(_)));
    }

    #[test]
    fn usage_lists_every_experiment() {
        let usage = usage();
        for e in EXPERIMENTS {
            assert!(usage.contains(e.name), "usage missing {}", e.name);
            assert!(
                usage.contains(e.summary),
                "usage missing summary of {}",
                e.name
            );
        }
        // The opt-in experiment is listed but marked.
        assert!(usage.contains("rails-sim"));
        assert!(usage.contains("not part of `all`"));
        assert!(usage.contains("--probe-json"));
    }

    #[test]
    fn experiment_names_are_unique() {
        let mut names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }
}
