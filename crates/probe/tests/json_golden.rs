//! Golden test: the JSON export is byte-exact for known inputs.

// The golden names are this test's own, registered through the
// unchecked registry functions.
#![allow(clippy::disallowed_methods)]

use sram_probe::Level;

#[test]
fn json_export_matches_golden() {
    sram_probe::set_level(Level::Summary);

    sram_probe::counter("golden.solves").add(17);
    sram_probe::counter("golden.zero"); // registered, never incremented
    sram_probe::gauge("golden.score").set(-3.25e-21);
    let hist = sram_probe::histogram("golden.iters");
    for value in [0u64, 1, 5, 5, 900] {
        hist.record(value);
    }

    let expected = r#"{
  "counters": {
    "golden.solves": 17,
    "golden.zero": 0
  },
  "gauges": {
    "golden.score": -3.25e-21
  },
  "histograms": {
    "golden.iters": {"count": 5, "sum": 911, "buckets": [{"bucket": 0, "count": 1}, {"bucket": 1, "count": 1}, {"bucket": 3, "count": 2}, {"bucket": 10, "count": 1}]}
  }
}
"#;
    assert_eq!(sram_probe::snapshot().to_json(), expected);
}

#[test]
fn empty_registry_exports_empty_objects() {
    // Runs in the same process as the golden test in either order, so
    // assert only on shape-independent structure via a fresh diff.
    let snap = sram_probe::snapshot().diff(&sram_probe::snapshot());
    let json = snap.to_json();
    assert!(json.starts_with("{\n  \"counters\": {"));
    assert!(json.ends_with("}\n}\n"));
}
