//! Counters and histograms must not lose updates under contention.

// `concurrent_registration_yields_one_metric` registers a name of its
// own through the unchecked registry function.
#![allow(clippy::disallowed_methods)]

use sram_probe::{probe_inc, probe_record, Level};

const THREADS: usize = 8;
const PER_THREAD: u64 = 10_000;

#[test]
fn concurrent_increments_are_lossless() {
    sram_probe::set_level(Level::Summary);

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for i in 0..PER_THREAD {
                    probe_inc!("spice.newton_iterations");
                    probe_record!("spice.newton_iters_per_solve", i);
                }
            });
        }
    });

    let snap = sram_probe::snapshot();
    let expected = THREADS as u64 * PER_THREAD;
    assert_eq!(snap.counters["spice.newton_iterations"], expected);

    let hist = &snap.histograms["spice.newton_iters_per_solve"];
    assert_eq!(hist.count, expected);
    // Each thread records 0..PER_THREAD, so the sum is THREADS * (sum 0..PER_THREAD).
    assert_eq!(
        hist.sum,
        THREADS as u64 * (PER_THREAD * (PER_THREAD - 1) / 2)
    );
    // Bucket totals must add back up to the sample count.
    assert_eq!(hist.buckets.iter().map(|&(_, c)| c).sum::<u64>(), expected);
}

#[test]
fn concurrent_registration_yields_one_metric() {
    sram_probe::set_level(Level::Summary);

    let handles: Vec<_> = std::thread::scope(|scope| {
        (0..THREADS)
            .map(|_| scope.spawn(|| sram_probe::counter("conc.register") as *const _ as usize))
            .map(|h| h.join().expect("registration thread panicked"))
            .collect()
    });
    assert!(handles.windows(2).all(|w| w[0] == w[1]));
}
