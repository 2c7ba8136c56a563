//! Pins the warm-path allocation budget of the likelihood engine
//! (ISSUE 8): after the steering cache and the engine's SoA arena are
//! warm, a joint-likelihood call may allocate only its outputs and a
//! fixed handful of small plan/bookkeeping vectors — no per-cell, per
//! band × antenna, or per-row scratch. A counting global allocator makes
//! any regression (e.g. a reintroduced per-row `vec![]`) a hard test
//! failure, not a silent throughput loss.
//!
//! This file holds exactly one `#[test]` so the process-global counter
//! never sees a concurrent test's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bloc_chan::geometry::Room;
use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
use bloc_chan::{AnchorArray, Environment};
use bloc_core::correction::correct;
use bloc_core::engine::LikelihoodEngine;
use bloc_core::likelihood::AntennaCombining;
use bloc_num::{GridSpec, P2};
use rand::{rngs::StdRng, SeedableRng};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_joint_likelihood_allocates_only_outputs() {
    let room = Room::new(5.0, 6.0);
    let anchors: Vec<AnchorArray> = room
        .wall_midpoints()
        .iter()
        .zip(room.walls().iter())
        .enumerate()
        .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
        .collect();
    let env = Environment::free_space();
    let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
    let mut rng = StdRng::seed_from_u64(42);
    let corrected = correct(
        &sounder.sound(P2::new(2.1, 3.3), &all_data_channels(), &mut rng),
        true,
    )
    .expect("sounding must correct");
    let spec = GridSpec::covering(P2::new(-0.5, -0.5), P2::new(5.5, 6.5), 0.25);
    let engine = LikelihoodEngine::default();

    // Two cold calls: populate the steering cache and the SoA arena.
    let cold = allocations_during(|| {
        let _ = engine.joint_likelihood(&corrected, spec, AntennaCombining::default());
    });
    let _ = engine.joint_likelihood(&corrected, spec, AntennaCombining::default());

    let warm = allocations_during(|| {
        let _ = engine.joint_likelihood(&corrected, spec, AntennaCombining::default());
    });

    // Warm budget: 1 joint grid + 1 map grid per anchor (4 anchors), the
    // freshly built comb plan's small vectors, the steering-cache key,
    // weighting bookkeeping and telemetry region names. Measured 53 at
    // the time of writing — every one O(1) or O(anchors). The budget of
    // 64 leaves slack for bookkeeping drift while still catching any
    // per-cell (672 cells here) or per-band × antenna (148) scratch.
    assert!(
        warm <= 64,
        "warm joint_likelihood made {warm} allocations (budget 64)"
    );
    assert!(
        warm < cold,
        "warm call ({warm}) should allocate less than cold ({cold})"
    );

    // The warm count is stable call over call — the arena really is
    // reused, not rebuilt.
    let warm2 = allocations_during(|| {
        let _ = engine.joint_likelihood(&corrected, spec, AntennaCombining::default());
    });
    assert_eq!(warm, warm2, "warm allocation count must be steady-state");
}
