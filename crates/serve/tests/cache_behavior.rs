//! The content-addressed result cache under adversarial use: byte-budget
//! eviction, canonicalization across JSON field orderings, and a
//! multithreaded hammer whose counters must reconcile exactly.

use std::sync::Arc;
use std::thread;

use sram_probe::hash::fnv1a64;
use sram_serve::{CacheConfig, Json, Request, ResultCache};

const ENTRY_OVERHEAD: usize = 64;

fn entry_size(canonical: &str, value: &Json) -> usize {
    canonical.len() + value.render().len() + ENTRY_OVERHEAD
}

#[test]
fn lru_eviction_respects_byte_budget_and_recency() {
    let value = Json::Str("v".into());
    let one = entry_size("a", &value);
    let cache = ResultCache::new(CacheConfig {
        shards: 1,
        byte_budget: 2 * one,
    });

    cache.insert(fnv1a64(b"a"), "a", Arc::new(value.clone()));
    cache.insert(fnv1a64(b"b"), "b", Arc::new(value.clone()));
    // Touch `a` so `b` becomes the least recently used entry.
    assert!(cache.get(fnv1a64(b"a"), "a").is_some());
    cache.insert(fnv1a64(b"c"), "c", Arc::new(value));

    assert!(
        cache.get(fnv1a64(b"a"), "a").is_some(),
        "recently used survives"
    );
    assert!(cache.get(fnv1a64(b"b"), "b").is_none(), "LRU entry evicted");
    assert!(
        cache.get(fnv1a64(b"c"), "c").is_some(),
        "new entry resident"
    );

    let counters = cache.counters();
    assert_eq!(counters.evictions, 1);
    assert_eq!(counters.entries, 2);
    assert!(counters.bytes <= 2 * one as u64, "budget respected");
}

#[test]
fn canonicalization_makes_field_order_irrelevant() {
    let a = Request::from_line(
        r#"{"op":"optimize","capacity_bytes":2048,"flavor":"hvt","method":"m2","objective":"edp"}"#,
    )
    .expect("parses");
    let b = Request::from_line(
        r#"{"objective":"edp","method":"m2","flavor":"hvt","op":"optimize","capacity_bytes":2048}"#,
    )
    .expect("parses");
    assert_eq!(a.query.canonical(), b.query.canonical());
    assert_eq!(a.query.key(), b.query.key());

    // A genuinely different query must not alias.
    let c = Request::from_line(
        r#"{"op":"optimize","capacity_bytes":4096,"flavor":"hvt","method":"m2"}"#,
    )
    .expect("parses");
    assert_ne!(a.query.key(), c.query.key());

    // And the cache honors the shared identity: stored under one
    // ordering, served under the other.
    let cache = ResultCache::new(CacheConfig::default());
    cache.insert(
        a.query.key(),
        &a.query.canonical(),
        Arc::new(Json::Bool(true)),
    );
    assert!(
        cache.get(b.query.key(), &b.query.canonical()).is_some(),
        "field order must not defeat the cache"
    );
}

#[test]
fn multithreaded_hammer_reconciles_counters() {
    const THREADS: u64 = 8;
    const OPS: u64 = 200;
    let config = CacheConfig {
        shards: 4,
        byte_budget: 8 * 1024,
    };
    let budget = config.byte_budget as u64;
    let cache = Arc::new(ResultCache::new(config));

    #[expect(
        clippy::disallowed_methods,
        reason = "every hammer thread is joined in the loop below"
    )]
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                for i in 0..OPS {
                    // Unique canonical per (thread, op): every insert is a
                    // fresh entry, so insertions/evictions reconcile exactly.
                    let canonical = format!("q|{t}|{i}");
                    let key = fnv1a64(canonical.as_bytes());
                    cache.insert(key, &canonical, Arc::new(Json::Num(i as f64)));
                    // Read back something an arbitrary thread wrote; hit or
                    // miss, each get bumps exactly one counter.
                    let probe = format!("q|{}|{}", (t + i) % THREADS, i / 2);
                    let _ = cache.get(fnv1a64(probe.as_bytes()), &probe);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("hammer thread survives");
    }

    let counters = cache.counters();
    assert_eq!(
        counters.hits + counters.misses,
        THREADS * OPS,
        "every get counted once"
    );
    assert_eq!(
        counters.insertions,
        THREADS * OPS,
        "every insert counted once"
    );
    assert_eq!(
        counters.entries,
        counters.insertions - counters.evictions,
        "resident set reconciles with insert/evict history"
    );
    assert!(
        counters.bytes <= budget,
        "byte budget held under contention: {} > {budget}",
        counters.bytes
    );
    assert!(counters.evictions > 0, "budget small enough to force churn");
}
