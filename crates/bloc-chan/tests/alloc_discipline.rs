//! Pins the warm-path allocation budget of the analytic sounder: once
//! the path cache holds every link of a scene, a repeat sounding may
//! allocate only its outputs (per-band alpha matrices), the per-link
//! tone buffers and fixed bookkeeping — never O(paths × bands) kernel
//! scratch. The tone sweep ([`bloc_num::sweep::sweep_tones`]) runs in a
//! per-thread scratch buffer that a warm sweep reuses, so regressing to
//! a fresh `vec![]` per path or per channel would multiply the count by
//! the path fan-out and trip the budget immediately.
//!
//! One `#[test]` per file: the process-global allocation counter must
//! not see concurrent test traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bloc_chan::geometry::Room;
use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig};
use bloc_chan::{AnchorArray, Environment};
use bloc_num::P2;
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
fn warm_sounding_allocates_only_outputs() {
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
    let channels = all_data_channels();
    let tag = P2::new(2.1, 3.3);
    let mut rng = StdRng::seed_from_u64(42);

    // Two cold calls fill the path cache for every link of this scene.
    let cold = allocations_during(|| {
        let _ = sounder.sound(tag, &channels, &mut rng);
    });
    let _ = sounder.sound(tag, &channels, &mut rng);

    let warm = allocations_during(|| {
        let _ = sounder.sound(tag, &channels, &mut rng);
    });

    // Warm budget: the returned `SoundingData` (37 bands × per-anchor
    // alpha rows plus per-band bookkeeping), one clean-tone buffer per
    // link and fixed bookkeeping. Measured 475 (484 with the former
    // per-sounding comb plan and tone scratch) — all O(bands × anchors +
    // links), ~13 per band. 620 leaves drift slack while still catching
    // any per-path or per-(path × channel) scratch, which would add
    // thousands (the free-space scene alone sweeps hundreds of paths
    // per link).
    assert!(
        warm <= 620,
        "warm sound() made {warm} allocations (budget 620)"
    );
    assert!(
        warm < cold,
        "warm call ({warm}) should allocate less than cold ({cold})"
    );

    // Steady state: the path cache absorbs all geometry work, so the
    // count cannot creep call over call.
    let warm2 = allocations_during(|| {
        let _ = sounder.sound(tag, &channels, &mut rng);
    });
    assert_eq!(warm, warm2, "warm allocation count must be steady-state");
}
