//! Fixture: the cluster crate owns the `cluster.` namespace — the
//! `node.`-prefixed name is the single `probe-naming` finding here.
//! The `cluster.trace.` stitching metric is registered but never
//! asserted anywhere, driving one `probe-drift` finding.

/// Polls node health and registers the membership counters.
pub fn poller() {
    sram_probe::probe_inc!("cluster.health.polls_fixture");
    sram_probe::probe_inc!("node.evicted_fixture");
}

/// Stitches span trees and counts them under the trace namespace.
pub fn stitcher() {
    sram_probe::probe_inc!("cluster.trace.stitched_fixture");
}
