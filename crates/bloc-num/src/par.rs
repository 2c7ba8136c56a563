//! A small shared parallel executor over `std::thread::scope`.
//!
//! The workspace parallelizes at one level: across whole units of work —
//! the testbed's locations (`sweep`), a fleet's tags (`fleet.tags`), a
//! fingerprint survey's positions (`fingerprint.survey`), the ablation
//! batteries. A single fix runs on one thread. This module is the one
//! fan-out they share: deterministic work splitting with no work queue,
//! no channels and no dependencies (consistent with the vendored-shim
//! constraint).
//!
//! Determinism contract: the *assignment* of work items to threads is a
//! pure function of `(n, threads)`, and results are reassembled in item
//! order, so outputs never depend on scheduling. Callers that also want
//! bit-identical floating-point results simply need per-item computations
//! that don't depend on which thread runs them — which every caller in
//! this workspace satisfies.
//!
//! # Telemetry (`par.*`)
//!
//! Each entry point is a *region*: one fan-out with a stable name
//! (`sweep`, `fleet.tags`, …). Every region records two histograms on
//! the global [`bloc_obs::Registry`]:
//!
//! * `par.<name>.wall_us` — one sample per region, its wall time;
//! * `par.<name>.busy_us` — one sample per shard that ran, its busy time.
//!
//! Shard busy time is measured *inside* the worker, so the gap between
//! `wall × threads` and `Σ busy` is exactly the spawn/join + scheduling
//! overhead. The repository benchmark reads both for its per-layer
//! attribution and parallel utilization, and `obs_report` gates shard
//! count and coverage on them. The likelihood engine's row sweep is a
//! one-shard `likelihood` region, so the benchmark can time the Eq. 17
//! kernel from `par.likelihood.wall_us`.
//! When the global [`bloc_obs::Tracer`] is also enabled, every shard
//! additionally records `par.<name>` begin/end edges on its worker
//! thread, which is what puts worker lanes into the exported Chrome
//! trace.

use std::time::Instant;

use bloc_obs::{Registry, Tracer};

/// The number of worker threads the host advertises (≥ 1).
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Clamps a requested thread count to what the work can feed.
///
/// `items / min_items_per_shard` bounds how many workers get at least one
/// meaningful shard; below one shard's worth the call runs serial (`1`).
/// This is the fix for the "2 threads slower than 1" benches: spawn +
/// join on a scoped thread costs tens of microseconds, so a shard must
/// carry at least that much arithmetic to pay for itself.
///
/// An explicit request above [`max_threads`] is honored, not clamped —
/// oversubscription is the caller's call.
///
/// Thread-count-*dependent* results are the caller's bug, not this
/// function's: every executor in this module is deterministic per thread
/// count, and the workspace's kernels are bit-identical across counts,
/// so tuning down never changes output.
pub fn tuned_threads(items: usize, requested: usize, min_items_per_shard: usize) -> usize {
    let cap = items / min_items_per_shard.max(1);
    requested.max(1).min(cap.max(1))
}

/// A per-unit-of-work time budget, counted in microseconds.
///
/// Work submitted to a batch (a fleet round, a sweep item) carries a
/// deadline so one slow or stalled unit defers *itself* instead of
/// stalling the batch. Two cost sources feed the same budget:
///
/// * **Charged (virtual) cost** — [`Deadline::charge`] adds declared
///   microseconds: scheduled backoff delays, driver-injected latencies,
///   modelled I/O. Virtual cost is a pure function of the caller's
///   inputs, so deadline verdicts built on it alone are deterministic
///   and bit-identical across runs and thread counts.
/// * **Wall-clock cost** — opt-in via [`Deadline::with_wall_clock`]:
///   elapsed real time since arming also counts. Useful in genuinely
///   latency-bound services, but wall verdicts depend on host load, so
///   replayable soaks leave it off.
///
/// The deadline never interrupts anything: callers poll
/// [`Deadline::exceeded`] at their natural yield points (between retry
/// attempts, before starting expensive phases) and convert an exceeded
/// budget into a typed deferral.
#[derive(Debug, Clone)]
pub struct Deadline {
    budget_us: u64,
    charged_us: u64,
    armed: Option<Instant>,
}

impl Deadline {
    /// A deadline with `budget_us` of budget and no wall-clock
    /// accounting (virtual charges only — fully deterministic).
    pub fn budget(budget_us: u64) -> Self {
        Self {
            budget_us,
            charged_us: 0,
            armed: None,
        }
    }

    /// Also counts wall-clock time elapsed from this call against the
    /// budget (verdicts become host-load-dependent).
    pub fn with_wall_clock(mut self) -> Self {
        self.armed = Some(Instant::now());
        self
    }

    /// Adds `us` of declared (virtual) cost to the spent side.
    pub fn charge(&mut self, us: u64) {
        self.charged_us = self.charged_us.saturating_add(us);
    }

    /// The configured budget, µs.
    pub fn budget_us(&self) -> u64 {
        self.budget_us
    }

    /// Total cost so far: virtual charges plus wall time when armed, µs.
    pub fn spent_us(&self) -> u64 {
        let wall = self.armed.map(elapsed_us).unwrap_or(0);
        self.charged_us.saturating_add(wall)
    }

    /// Budget remaining, µs (0 when exceeded).
    pub fn remaining_us(&self) -> u64 {
        self.budget_us.saturating_sub(self.spent_us())
    }

    /// True once the spent cost exceeds the budget.
    pub fn exceeded(&self) -> bool {
        self.spent_us() > self.budget_us
    }
}

fn elapsed_us(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// One instrumented fan-out.
struct Region {
    name: &'static str,
    /// Interned `par.<name>` trace id when the tracer is recording.
    trace_id: Option<u32>,
    start: Instant,
}

impl Region {
    fn open(name: &'static str) -> Region {
        Region {
            name,
            trace_id: Tracer::global().intern(&format!("par.{name}")),
            start: Instant::now(),
        }
    }

    /// Records the region's wall time and `busy_us`, one entry per shard
    /// that actually ran.
    fn close(self, busy_us: &[u64]) {
        let wall_us = elapsed_us(self.start);
        let reg = Registry::global();
        reg.histogram(&format!("par.{}.wall_us", self.name))
            .record(wall_us);
        let busy = reg.histogram(&format!("par.{}.busy_us", self.name));
        for &b in busy_us {
            busy.record(b);
        }
    }
}

/// Runs one shard's body between trace edges, returning `(result, busy µs)`.
fn timed_shard<R>(trace_id: Option<u32>, body: impl FnOnce() -> R) -> (R, u64) {
    if let Some(id) = trace_id {
        Tracer::global().begin_id(id);
    }
    let start = Instant::now();
    let out = body();
    let busy = elapsed_us(start);
    if let Some(id) = trace_id {
        Tracer::global().end(id);
    }
    (out, busy)
}

/// Splits `data` into contiguous chunks of `chunk_len` elements and applies
/// `f(start_offset, chunk)` to every chunk, distributing chunks round-robin
/// across `threads` scoped threads; telemetry lands under `par.<name>.*`.
///
/// With `threads <= 1` (or a single chunk) everything runs inline on the
/// caller's thread — no spawn overhead, and the zero-thread case needs no
/// special handling at call sites.
pub fn for_each_chunk_mut_named<T, F>(
    name: &'static str,
    data: &mut [T],
    chunk_len: usize,
    threads: usize,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = threads.max(1).min(n_chunks.max(1));
    let region = Region::open(name);
    let trace_id = region.trace_id;
    if threads == 1 {
        let ((), busy) = timed_shard(trace_id, || {
            for (k, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(k * chunk_len, chunk);
            }
        });
        region.close(&[busy]);
        return;
    }
    let mut per_thread: Vec<Vec<(usize, &mut [T])>> = (0..threads).map(|_| Vec::new()).collect();
    for (k, chunk) in data.chunks_mut(chunk_len).enumerate() {
        per_thread[k % threads].push((k * chunk_len, chunk));
    }
    let busy: Vec<u64> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = per_thread
            .into_iter()
            .map(|work| {
                scope.spawn(move || {
                    let ((), busy) = timed_shard(trace_id, || {
                        for (start, chunk) in work {
                            f(start, chunk);
                        }
                    });
                    busy
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(b) => b,
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect()
    });
    region.close(&busy);
}

/// Evaluates `work` for every index in `0..n` across `threads` scoped
/// threads, returning the results in index order; telemetry lands under
/// `par.<name>.*`.
///
/// Each worker owns a private state built by `init(worker_index)` — a
/// sounder, a scratch buffer — threaded through its `work` calls and
/// dropped when the worker's share is done. Items are sharded
/// by stride (worker `t` takes `t, t+threads, …`), so the item→worker
/// mapping is deterministic.
///
/// A panic in any worker is resumed on the calling thread after the scope
/// joins, matching the behaviour of the hand-rolled sharding blocks this
/// replaces.
pub fn sharded_map_named<S, T, I, W>(
    name: &'static str,
    n: usize,
    threads: usize,
    init: I,
    work: W,
) -> Vec<T>
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    W: Fn(&mut S, usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    let region = Region::open(name);
    let trace_id = region.trace_id;
    if threads == 1 {
        let (out, busy) = timed_shard(trace_id, || {
            let mut state = init(0);
            (0..n).map(|i| work(&mut state, i)).collect::<Vec<T>>()
        });
        region.close(&[busy]);
        return out;
    }
    let shards: Vec<(Vec<T>, u64)> = std::thread::scope(|scope| {
        let (init, work) = (&init, &work);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    timed_shard(trace_id, || {
                        let mut state = init(t);
                        (t..n)
                            .step_by(threads)
                            .map(|i| work(&mut state, i))
                            .collect::<Vec<T>>()
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect()
    });
    let busy: Vec<u64> = shards.iter().map(|(_, b)| *b).collect();
    region.close(&busy);
    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    for (t, (shard, _)) in shards.into_iter().enumerate() {
        for (k, item) in shard.into_iter().enumerate() {
            out[t + k * threads] = Some(item);
        }
    }
    debug_assert!(out.iter().all(Option::is_some));
    out.into_iter().flatten().collect()
}

/// Stateless [`sharded_map_named`]: maps `f` over `0..n` in parallel,
/// results in index order, telemetry under `par.<name>.*`.
pub fn map_named<T, F>(name: &'static str, n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    sharded_map_named(name, n, threads, |_| (), |(), i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn tuned_threads_falls_back_to_serial_below_threshold() {
        // 100 items at ≥1000 per shard: not worth one spawn.
        assert_eq!(tuned_threads(100, 8, 1000), 1);
        // Exactly two shards' worth caps at two workers.
        assert_eq!(
            tuned_threads(2000, 8, 1000).min(2),
            tuned_threads(2000, 8, 1000)
        );
        assert!(tuned_threads(2000, 8, 1000) <= 2);
        // Zero items still returns a valid serial count.
        assert_eq!(tuned_threads(0, 4, 64), 1);
        // A zero threshold must not divide by zero.
        assert!(tuned_threads(10, 4, 0) >= 1);
        // Never exceeds the request; an explicit request above the host
        // core count is honored (oversubscription is the caller's call).
        assert!(tuned_threads(usize::MAX / 2, 3, 1) <= 3);
        assert_eq!(tuned_threads(usize::MAX / 2, 64, 1), 64);
    }

    #[test]
    fn deadline_virtual_charges_are_deterministic() {
        let mut d = Deadline::budget(1_000);
        assert!(!d.exceeded());
        assert_eq!(d.remaining_us(), 1_000);
        d.charge(400);
        d.charge(600);
        // Exactly at the budget is not exceeded (the budget is the
        // allowance, not the wall).
        assert!(!d.exceeded());
        assert_eq!(d.spent_us(), 1_000);
        d.charge(1);
        assert!(d.exceeded());
        assert_eq!(d.remaining_us(), 0);
        // Saturation, not overflow.
        d.charge(u64::MAX);
        assert!(d.exceeded());
    }

    #[test]
    fn deadline_wall_clock_is_opt_in() {
        // Without arming, sleeping costs nothing.
        let d = Deadline::budget(1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(!d.exceeded());
        // Armed, real time counts.
        let d = Deadline::budget(1).with_wall_clock();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(d.exceeded());
    }

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 3, 7] {
            let out = map_named("par-unit", 23, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_tiny() {
        assert!(map_named("par-unit", 0, 4, |i| i).is_empty());
        assert_eq!(map_named("par-unit", 1, 8, |i| i + 1), vec![1]);
    }

    #[test]
    fn chunks_cover_every_element_exactly_once() {
        for threads in [1, 2, 5] {
            let mut data = vec![0u32; 103];
            for_each_chunk_mut_named("par-unit", &mut data, 10, threads, |start, chunk| {
                for (off, v) in chunk.iter_mut().enumerate() {
                    *v += (start + off) as u32 + 1;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(
                    *v,
                    i as u32 + 1,
                    "element {i} touched wrong number of times"
                );
            }
        }
    }

    #[test]
    fn chunk_starts_match_offsets() {
        let mut data = vec![0usize; 25];
        for_each_chunk_mut_named("par-unit", &mut data, 4, 3, |start, chunk| {
            assert!(chunk.len() <= 4);
            assert_eq!(start % 4, 0);
            for v in chunk.iter_mut() {
                *v = start;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i / 4) * 4);
        }
    }

    #[test]
    fn sharded_state_init_runs_per_worker() {
        let inits = AtomicUsize::new(0);
        let out = sharded_map_named(
            "par-unit",
            10,
            3,
            |t| {
                inits.fetch_add(1, Ordering::SeqCst);
                t
            },
            |state, i| (*state, i),
        );
        assert_eq!(inits.load(Ordering::SeqCst), 3);
        // Strided assignment: item i ran on worker i % 3.
        for (i, (t, idx)) in out.into_iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(t, i % 3);
        }
    }

    #[test]
    fn results_are_thread_count_independent() {
        let f = |i: usize| (i as f64 * 0.37).sin();
        let reference = map_named("par-unit", 57, 1, f);
        for threads in [2, 4, 9] {
            assert_eq!(map_named("par-unit", 57, threads, f), reference);
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            map_named("par-unit", 8, 2, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(caught.is_err());
    }

    /// Named regions must account their items, shard busy samples and
    /// wall time under `par.<name>.*` on the global registry, with one
    /// busy sample per shard that ran.
    #[test]
    fn named_region_records_par_metrics() {
        let reg = Registry::global();
        let before = reg.snapshot();
        let out = map_named("par-selftest", 64, 4, |i| {
            // Enough work per item that busy time is nonzero on every shard.
            (0..400u64).fold(i as u64, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
        });
        assert_eq!(out.len(), 64);
        let delta = reg.snapshot().diff(&before);
        let wall = &delta.histograms["par.par-selftest.wall_us"];
        assert_eq!(wall.count, 1);
        let busy = &delta.histograms["par.par-selftest.busy_us"];
        assert_eq!(busy.count, 4, "one busy sample per shard");
        // Busy is measured inside the workers: it can never exceed the
        // region wall per shard, so Σ busy ≤ wall × shards.
        assert!(busy.sum <= wall.sum * 4 + 4); // +4 for µs rounding
    }

    /// The single-thread inline path is a region too: one shard whose
    /// busy time equals (up to clock granularity) the region wall.
    #[test]
    fn inline_region_counts_one_shard() {
        let reg = Registry::global();
        let before = reg.snapshot();
        let mut data = vec![1u64; 500];
        for_each_chunk_mut_named("par-selftest-inline", &mut data, 64, 1, |_, chunk| {
            for v in chunk.iter_mut() {
                *v = v.wrapping_mul(3);
            }
        });
        let delta = reg.snapshot().diff(&before);
        assert_eq!(delta.histograms["par.par-selftest-inline.busy_us"].count, 1);
    }
}
