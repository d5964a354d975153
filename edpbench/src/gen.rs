//! The seeded request generator: a pure function from
//! `(workload, seed, length)` to each client's request lines.
//!
//! Each client draws from its own half of every key set, so no request
//! of one client can warm the cache for the other. The hit/miss
//! sequence of a run is then a function of the seed alone, whatever the
//! interleaving of the two clients.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workloads::Workload;

/// Closed-loop clients driving the network workloads.
pub(crate) const CLIENTS: usize = 2;

/// The capacities of the serve catalogue: 128 B to 16 KB.
const CAPACITIES: [u64; 8] = [128, 256, 512, 1024, 2048, 4096, 8192, 16384];

const FLAVORS: [&str; 2] = ["lvt", "hvt"];
const METHODS: [&str; 2] = ["m1", "m2"];
const OBJECTIVES: [&str; 4] = ["edp", "delay", "energy", "ed2p"];

/// Word width of every organization (the framework's 64 bits).
const WORD_BITS: u64 = 64;

/// One request in 64 of cluster-hot asks for a distributed trace.
const TRACE_EVERY: usize = 64;

/// The request lines of each client of `workload`, `per_client` long
/// (none for the compute workloads, which send no requests).
pub(crate) fn client_lines(
    workload: Workload,
    seed: u64,
    per_client: usize,
) -> [Vec<String>; CLIENTS] {
    std::array::from_fn(|client| {
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((workload as u64) << 8) ^ client as u64,
        );
        match workload {
            Workload::ServeMixed => serve_mixed(&mut rng, client, per_client),
            Workload::ClusterHot => cluster_hot(&mut rng, client, per_client),
            Workload::Table4Full | Workload::SimStack => Vec::new(),
        }
    })
}

fn below(rng: &mut StdRng, n: usize) -> usize {
    (rng.random::<f64>() * n as f64) as usize % n
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, below(rng, i + 1));
    }
}

fn optimize_line(bytes: u64, flavor: &str, method: &str, objective: &str) -> String {
    format!(
        r#"{{"op":"optimize","capacity_bytes":{bytes},"flavor":"{flavor}","method":"{method}","objective":"{objective}"}}"#
    )
}

/// 74% `optimize` from the client's half of 128 keys, hot ranks first
/// (rank `⌊u²·64⌋` over a seed-shuffled order); 24% unique
/// `evaluate-point`; 2% (one in 50) `pareto-front` from the client's
/// half of 32 keys.
fn serve_mixed(rng: &mut StdRng, client: usize, n: usize) -> Vec<String> {
    // Halves split by objective (client 0: edp, energy) so both clients
    // see every capacity and search cost.
    let mut catalogue = Vec::new();
    for &bytes in &CAPACITIES {
        for flavor in FLAVORS {
            for method in METHODS {
                for objective in OBJECTIVES.iter().skip(client).step_by(CLIENTS) {
                    catalogue.push(optimize_line(bytes, flavor, method, objective));
                }
            }
        }
    }
    shuffle(rng, &mut catalogue);
    // Pareto halves split by flavor: each client sweeps both methods.
    let mut fronts = Vec::new();
    for &bytes in &CAPACITIES {
        for method in METHODS {
            fronts.push(format!(
                r#"{{"op":"pareto-front","capacity_bytes":{bytes},"flavor":"{}","method":"{method}"}}"#,
                FLAVORS[client]
            ));
        }
    }

    enum Kind {
        Optimize,
        Pareto,
        Evaluate,
    }
    let pareto = n / 50;
    let optimize = (n * 74).div_ceil(100).min(n - pareto);
    let mut kinds: Vec<Kind> = (0..n)
        .map(|i| match i {
            i if i < optimize => Kind::Optimize,
            i if i < optimize + pareto => Kind::Pareto,
            _ => Kind::Evaluate,
        })
        .collect();
    shuffle(rng, &mut kinds);

    let mut points = BTreeSet::new();
    kinds
        .into_iter()
        .map(|kind| match kind {
            Kind::Optimize => {
                let u = rng.random::<f64>();
                catalogue[((u * u * catalogue.len() as f64) as usize).min(catalogue.len() - 1)]
                    .clone()
            }
            Kind::Pareto => fronts[below(rng, fronts.len())].clone(),
            Kind::Evaluate => loop {
                let line = evaluate_point(rng, client);
                if points.insert(line.clone()) {
                    break line;
                }
            },
        })
        .collect()
}

/// One random, valid `evaluate-point` line. Client 0 draws `N_wr` from
/// 1–10 and client 1 from 11–20, which keeps the halves disjoint.
fn evaluate_point(rng: &mut StdRng, client: usize) -> String {
    let bytes = CAPACITIES[below(rng, CAPACITIES.len())];
    let flavor = FLAVORS[below(rng, 2)];
    let method = METHODS[below(rng, 2)];
    // Power-of-two rows that leave at least one word per row.
    let max_log2 = (bytes * 8 / WORD_BITS).trailing_zeros() as usize;
    let rows = 1u64 << (1 + below(rng, max_log2));
    let vssc_mv = if method == "m1" {
        0
    } else {
        -(below(rng, 241) as i64)
    };
    let n_pre = 1 + below(rng, 50);
    let n_wr = 1 + below(rng, 10) + 10 * client;
    format!(
        r#"{{"op":"evaluate-point","capacity_bytes":{bytes},"flavor":"{flavor}","method":"{method}","rows":{rows},"vssc_mv":{vssc_mv},"n_pre":{n_pre},"n_wr":{n_wr}}}"#
    )
}

/// Uniform draws over the client's half (one flavor) of the 32 EDP
/// keys; every [`TRACE_EVERY`]-th request asks for a trace.
fn cluster_hot(rng: &mut StdRng, client: usize, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let bytes = CAPACITIES[below(rng, CAPACITIES.len())];
            let method = METHODS[below(rng, 2)];
            let line = optimize_line(bytes, FLAVORS[client], method, "edp");
            if i % TRACE_EVERY == TRACE_EVERY - 1 {
                traced(&line)
            } else {
                line
            }
        })
        .collect()
}

/// `line` with `"trace": true` added to its request object.
pub(crate) fn traced(line: &str) -> String {
    let body = line.strip_suffix('}').unwrap_or(line);
    format!(r#"{body},"trace":true}}"#)
}

/// Every EDP key of cluster-hot (capacity × flavor × method), as an
/// untraced request line.
pub(crate) fn edp_keys() -> Vec<String> {
    let mut out = Vec::new();
    for &bytes in &CAPACITIES {
        for flavor in FLAVORS {
            for method in METHODS {
                out.push(optimize_line(bytes, flavor, method, "edp"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_coopt::{CoOptimizationFramework, DesignSpace};
    use sram_serve::{CacheConfig, Engine, Json, Request};

    fn keys(lines: &[String]) -> BTreeSet<String> {
        lines
            .iter()
            .map(|l| Request::from_line(l).expect("parses").query.canonical())
            .collect()
    }

    #[test]
    fn the_same_seed_gives_identical_lines() {
        for workload in [Workload::ServeMixed, Workload::ClusterHot] {
            assert_eq!(
                client_lines(workload, 7, 300),
                client_lines(workload, 7, 300)
            );
            assert_ne!(
                client_lines(workload, 7, 300),
                client_lines(workload, 8, 300)
            );
        }
    }

    #[test]
    fn the_two_clients_key_sets_are_disjoint() {
        for workload in [Workload::ServeMixed, Workload::ClusterHot] {
            let [a, b] = client_lines(workload, 3, 1500);
            assert!(keys(&a).is_disjoint(&keys(&b)), "{}", workload.name());
        }
    }

    #[test]
    fn every_line_parses_and_the_mix_is_exact() {
        let [a, b] = client_lines(Workload::ServeMixed, 1, 1500);
        for lines in [&a, &b] {
            let ops: Vec<&str> = lines
                .iter()
                .map(|l| Request::from_line(l).expect("parses").query.op())
                .collect();
            let count = |op: &str| ops.iter().filter(|o| **o == op).count();
            assert_eq!(count("optimize"), 1110);
            assert_eq!(count("evaluate-point"), 360);
            assert_eq!(count("pareto-front"), 30);
        }
        let [a, b] = client_lines(Workload::ClusterHot, 1, 640);
        for lines in [&a, &b] {
            let traced = lines
                .iter()
                .filter(|l| Request::from_line(l).expect("parses").trace)
                .count();
            assert_eq!(traced, 10);
        }
    }

    #[test]
    fn generated_evaluate_points_all_succeed() {
        let engine = Engine::new(
            CoOptimizationFramework::paper_mode().with_space(DesignSpace::coarse()),
            CacheConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..1000 {
            let line = evaluate_point(&mut rng, i % CLIENTS);
            let reply = engine.handle(&Request::from_line(&line).expect("parses"));
            assert_eq!(
                reply.get("status").and_then(Json::as_str),
                Some("ok"),
                "{line} -> {}",
                reply.render()
            );
        }
    }
}
