//! Contention-correctness suite for the metric layer: many threads
//! hammering one registry must lose nothing.

use bloc_obs::Registry;

/// 8 writers × 20k increments with interleaved histogram samples: the
/// counter total, histogram count, and per-bucket occupancy must all be
/// conserved exactly — a lost relaxed RMW anywhere shows up here.
#[test]
fn hammered_registry_loses_no_increment() {
    let reg = Registry::new();
    let threads = 8u64;
    let per_thread = 20_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let reg = &reg;
            scope.spawn(move || {
                for i in 0..per_thread {
                    reg.counter("hammer.count").inc();
                    // Spread samples across many buckets and both metric
                    // name-resolution paths (hot name + per-thread name).
                    reg.histogram("hammer.values").record(i % 4096);
                    if i % 64 == 0 {
                        reg.counter(&format!("hammer.thread.{t}")).inc();
                    }
                }
            });
        }
    });
    let snap = reg.snapshot();
    let total = threads * per_thread;
    assert_eq!(snap.counters["hammer.count"], total);
    let h = &snap.histograms["hammer.values"];
    assert_eq!(h.count, total, "histogram lost samples");
    assert_eq!(
        h.buckets.iter().sum::<u64>(),
        total,
        "bucket occupancy must conserve the sample count"
    );
    // sum of (i % 4096) over per_thread consecutive i, times threads:
    // per_thread is a multiple of 4096? 20000 = 4*4096 + 3616.
    let one_thread: u64 = (0..per_thread).map(|i| i % 4096).sum();
    assert_eq!(h.sum, threads * one_thread);
    let per_thread_counters: u64 = (0..threads)
        .map(|t| snap.counters[&format!("hammer.thread.{t}")])
        .sum();
    assert_eq!(per_thread_counters, threads * per_thread.div_ceil(64));
}
