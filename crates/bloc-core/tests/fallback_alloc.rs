//! Pins what a supervised round with a fallback stack copies. A warm
//! round whose anchors are all admitted keeps only a compact
//! `FallbackEvidence` snapshot of its attempt-0 sounding, never the
//! sounding itself: it must allocate fewer blocks than one
//! `SoundingData::clone`. And every tag of a fleet site shares the site's
//! one fingerprint survey. A counting global allocator makes a
//! reintroduced copy a hard failure; nothing is timed.
//!
//! This file holds exactly one `#[test]` so the process-global counter
//! never sees a concurrent test's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bloc_chan::geometry::Room;
use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig, SoundingData};
use bloc_chan::{AnchorArray, Environment, FaultPlan, PathCache, RangeLoss};
use bloc_core::fleet::{FleetConfig, FleetSupervisor, SiteSpec};
use bloc_core::{
    BlocConfig, BlocLocalizer, FallbackConfig, FallbackStack, FingerprintDb, PacketCountModel,
    RoundOutcome, RuntimeConfig, SessionSupervisor,
};
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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}

#[test]
fn fallback_rounds_copy_no_sounding_and_tags_share_the_survey() {
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
    let mut rng = StdRng::seed_from_u64(70);
    let mut db = FingerprintDb::new(channels.len(), anchors.len());
    for yi in 0..3 {
        for xi in 0..3 {
            let pos = P2::new(1.0 + xi as f64 * 1.5, 1.0 + yi as f64 * 2.0);
            db.insert(pos, &sounder.sound(pos, &channels, &mut rng))
                .expect("survey shapes agree");
        }
    }
    let range_loss = RangeLoss {
        d0: 1.0,
        per_m: 0.12,
        max: 0.8,
    };
    let stack = FallbackStack::new(FallbackConfig::default())
        .with_fingerprints(db)
        .with_counts(PacketCountModel::new(0.05, range_loss));

    // Lossy enough that the fix is below the healthy threshold and the
    // priors are blended in, but every anchor stays admitted.
    let plan = FaultPlan {
        seed: 71,
        tag_loss: 0.2,
        range_loss: Some(range_loss),
        ..Default::default()
    };
    let lossy = sounder.clone().with_faults(plan);
    let data: SoundingData = lossy.sound(P2::new(2.2, 3.4), &channels, &mut rng);
    let config = BlocConfig::for_room(&room);
    let mut sup = SessionSupervisor::new(
        BlocLocalizer::new(config),
        anchors.len(),
        RuntimeConfig::default(),
    )
    .with_fallback(stack.clone());

    // The caller's copy of the sounding is its own business: count only
    // what the round allocates around it.
    let round = |sup: &mut SessionSupervisor| {
        let mut in_sound = 0;
        let mut out = None;
        let total = allocations_during(|| {
            out = Some(sup.run_round(0.5, |_| {
                let before = allocations();
                let copy = data.clone();
                in_sound += allocations() - before;
                copy
            }));
        });
        (total - in_sound, out)
    };
    // Warm the steering cache, the engine arena and the count table.
    for _ in 0..3 {
        round(&mut sup);
    }
    let (warm, out) = round(&mut sup);
    let Some(RoundOutcome::Fix(fix)) = out else {
        panic!("an all-admitted lossy round must fix");
    };
    assert_eq!(fix.admitted.len(), anchors.len(), "every anchor admitted");
    // Refining reads the evidence the round kept from its sounding.
    assert!(fix.weights.csi < 1.0, "the round must refine with priors");

    let clone = allocations_during(|| drop(data.clone()));
    eprintln!("warm round {warm} allocations, one sounding clone {clone}");
    assert!(
        warm < clone,
        "a warm fallback round made {warm} allocations, one sounding clone makes {clone}: \
         the round copies its sounding"
    );

    // Every tag of a fleet site reads the site's one survey.
    let mut fleet = FleetSupervisor::new(FleetConfig::default());
    let site = fleet.add_site(SiteSpec {
        bloc: config,
        anchors: anchors.clone(),
        fallback: stack,
        path_cache: PathCache::new(),
    });
    let tags: Vec<_> = (0..3).map(|_| fleet.register_tag(site)).collect();
    let survey = |tag| {
        let session = fleet.session(site, tag).expect("registered");
        let stack = session.fallback().expect("the site stack is attached");
        std::ptr::from_ref(stack.fingerprints().expect("surveyed"))
    };
    for &tag in &tags[1..] {
        assert_eq!(survey(tag), survey(tags[0]), "tags share one survey");
    }
}
