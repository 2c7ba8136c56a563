//! Degraded-mode fusion contract tests.
//!
//! * A healthy supervised round must be **exactly** the pure-CSI
//!   estimate — fusion weights snap to `csi = 1` at the healthy
//!   threshold, so attaching a fallback stack cannot perturb a cm-class
//!   fix.
//! * A round whose CSI pipeline fails outright must still estimate, with
//!   the mode provenance flagged and the CSI weight at zero.
//! * A fleet's shed round is estimated on the grid its session's
//!   degraded rounds use.
//! * Fusion weights are a convex combination for every health value.
//! * KNN fallback edge cases (empty db, oversized k, fully-masked query,
//!   duplicate surveyed positions) are typed errors or sane estimates —
//!   never panics.
//! * The packet-count likelihood read from its precomputed table is the
//!   direct formula, bit for bit.

use bloc_chan::faults::ReceptionCensus;
use bloc_chan::geometry::Room;
use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig, SoundingData};
use bloc_chan::{AnchorArray, AnchorDropout, Environment, FaultPlan, RangeLoss};
use bloc_core::fallback::{CountsEstimate, FallbackError, FallbackEvidence, FallbackStack};
use bloc_core::fleet::{sounding_seed, FleetConfig, FleetDriver, FleetSupervisor};
use bloc_core::localizer::{BlocConfig, BlocLocalizer};
use bloc_core::{
    DegradationReport, EstimateMode, FallbackConfig, FingerprintDb, FusionPolicy, FusionWeights,
    HierarchicalConfig, HierarchicalLocalizer, PacketCountModel, RoundOutcome, RuntimeConfig,
    SessionSupervisor, SiteId, SiteSpec, TagId, TagRoundOutcome,
};
use bloc_num::{Grid2D, GridSpec, P2};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn anchors(room: &Room) -> Vec<AnchorArray> {
    room.wall_midpoints()
        .iter()
        .zip(room.walls().iter())
        .enumerate()
        .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
        .collect()
}

fn clean_sounder<'a>(env: &'a Environment, anchors: &'a [AnchorArray]) -> Sounder<'a> {
    Sounder::new(
        env,
        anchors,
        SounderConfig {
            antenna_phase_err_std: 0.0,
            ..Default::default()
        },
    )
}

/// A small hand-surveyed fingerprint database over the room.
fn survey_db(sounder: &Sounder<'_>, seed: u64) -> FingerprintDb {
    let channels = all_data_channels();
    let mut db = FingerprintDb::new(channels.len(), 4);
    let mut rng = StdRng::seed_from_u64(seed);
    for yi in 0..5 {
        for xi in 0..4 {
            let pos = P2::new(0.7 + xi as f64 * 1.2, 0.7 + yi as f64 * 1.2);
            let data = sounder.sound(pos, &channels, &mut rng);
            db.insert(pos, &data).expect("survey shapes agree");
        }
    }
    db
}

fn range_loss() -> RangeLoss {
    RangeLoss {
        d0: 1.0,
        per_m: 0.12,
        max: 0.8,
    }
}

fn stack_for(sounder: &Sounder<'_>) -> FallbackStack {
    FallbackStack::new(FallbackConfig::default())
        .with_fingerprints(survey_db(sounder, 400))
        .with_counts(PacketCountModel::new(0.0, range_loss()))
}

#[test]
fn healthy_round_is_exactly_pure_csi() {
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let sounder = clean_sounder(&env, &anchors);
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let stack = stack_for(&sounder);

    let mut rng = StdRng::seed_from_u64(401);
    let tag = P2::new(2.1, 3.4);
    let data = sounder.sound(tag, &all_data_channels(), &mut rng);

    let pure = localizer.localize(&data).expect("clean sounding fixes");
    let mut sup = SessionSupervisor::new(localizer, anchors.len(), RuntimeConfig::default())
        .with_fallback(stack);
    let RoundOutcome::Fix(fix) = sup.run_round(0.5, |_| data.clone()) else {
        panic!("a clean round with a stack attached must fix");
    };

    assert_eq!(fix.mode, EstimateMode::Csi);
    assert_eq!(fix.weights.csi, 1.0, "healthy weights snap to pure CSI");
    assert!(fix.weights.is_convex());
    let drift = fix.estimate.position.dist(pure.position);
    assert!(
        drift < 0.01,
        "healthy fused fix must match pure CSI within 1 cm, drifted {drift} m"
    );
    assert_eq!(
        fix.estimate, pure,
        "snap-to-CSI means bit-identical, not merely close"
    );
}

#[test]
fn csi_failure_falls_back_with_provenance() {
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let chans = all_data_channels();
    // Kill the master for the whole sweep: Eq. 10 is undefined on every
    // band, so the CSI pipeline cannot fix at all — but slaves still
    // heard the tag, so both fallbacks have evidence.
    let plan = FaultPlan {
        seed: 77,
        dropouts: vec![AnchorDropout {
            anchor: 0,
            bands: 0..chans.len(),
        }],
        range_loss: Some(range_loss()),
        ..Default::default()
    };
    let clean = clean_sounder(&env, &anchors);
    let stack = stack_for(&clean);
    let faulted = clean_sounder(&env, &anchors).with_faults(plan);
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));

    let mut rng = StdRng::seed_from_u64(402);
    let tag = P2::new(1.6, 2.2);
    let data = faulted.sound(tag, &chans, &mut rng);
    assert!(localizer.localize(&data).is_err(), "CSI must fail here");

    let mut sup = SessionSupervisor::new(localizer, anchors.len(), RuntimeConfig::default())
        .with_fallback(stack);
    let RoundOutcome::Degraded(degraded) = sup.run_round(0.5, |_| data.clone()) else {
        panic!("the fallback stack rescues the round");
    };
    assert_eq!(degraded.mode, EstimateMode::FallbackFused);
    assert_eq!(degraded.weights.csi, 0.0, "no CSI evidence was used");
    assert!(degraded.weights.is_convex());
    assert!(degraded.weights.fingerprint > 0.0 && degraded.weights.counts > 0.0);
    let err = degraded.estimate.position.dist(tag);
    assert!(
        err < 3.7,
        "fallback estimate must stay in the RSSI-class regime: {err} m"
    );
}

/// Sounds every fleet tag at one fixed position, seeded per
/// `(site, tag, round, attempt)`.
struct StillTag<'a> {
    sounder: Sounder<'a>,
    position: P2,
}

impl FleetDriver for StillTag<'_> {
    fn sound(&self, site: SiteId, tag: TagId, round: u64, attempt: usize) -> SoundingData {
        let mut rng = StdRng::seed_from_u64(sounding_seed(3, site, tag, round, attempt));
        self.sounder
            .sound(self.position, &all_data_channels(), &mut rng)
    }
}

#[test]
fn hierarchical_fleet_sheds_on_the_degraded_round_grid() {
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let sounder = clean_sounder(&env, &anchors);
    let bloc = BlocConfig::for_room(&room);
    let hierarchical = RuntimeConfig {
        hierarchical: Some(HierarchicalConfig::default()),
        ..Default::default()
    };
    let coarse =
        HierarchicalLocalizer::new(BlocLocalizer::new(bloc), HierarchicalConfig::default())
            .coarse_spec();
    assert_ne!(coarse, bloc.grid);

    // A hierarchical session's degraded round (quorum denied every
    // round) is estimated on the coarse grid.
    let mut sup = SessionSupervisor::new(
        BlocLocalizer::new(bloc),
        anchors.len(),
        RuntimeConfig {
            min_live_anchors: anchors.len() + 1,
            ..hierarchical.clone()
        },
    )
    .with_fallback(stack_for(&sounder));
    let RoundOutcome::Degraded(degraded) = sup.run_round(0.5, |attempt| {
        let mut rng = StdRng::seed_from_u64(406 + attempt as u64);
        sounder.sound(P2::new(2.0, 2.5), &all_data_channels(), &mut rng)
    }) else {
        panic!("a quorum-denied round with a stack attached degrades");
    };
    assert_eq!(degraded.estimate.likelihood.spec(), coarse);

    // A fleet on the same template sheds a tag that has sounded: the shed
    // estimate comes from that session's fallback-only step, on the same
    // grid.
    let mut fleet = FleetSupervisor::new(FleetConfig {
        runtime: hierarchical,
        seed: 3,
        ..Default::default()
    });
    let site = fleet.add_site(SiteSpec {
        bloc,
        anchors: anchors.clone(),
        fallback: stack_for(&sounder),
        path_cache: bloc_chan::PathCache::new(),
    });
    fleet.register_tag(site);
    let driver = StillTag {
        sounder: clean_sounder(&env, &anchors),
        position: P2::new(2.0, 2.5),
    };
    assert_eq!(
        fleet.run_batch(0.5, &driver).outcomes[0].outcome.kind(),
        "fix"
    );
    fleet.set_site_capacity(site, 0);
    let report = fleet.run_batch(0.5, &driver);
    let TagRoundOutcome::Shed(shed) = &report.outcomes[0].outcome else {
        panic!("a site at zero capacity sheds its tag");
    };
    let estimate = shed.estimate.as_ref().expect("the tag has sounded");
    assert_eq!(estimate.likelihood.spec(), coarse);
}

#[test]
fn fusion_weights_are_convex_for_every_health() {
    let policy = FusionPolicy::default();
    for bands_dropped in [0, 5, 15, 30, 37] {
        for n_excluded in 0..4usize {
            for open_frac in [0.0, 0.34, 0.67, 1.0] {
                let report = DegradationReport {
                    bands_total: 37,
                    bands_dropped,
                    anchors_total: 4,
                    anchors_excluded: (0..n_excluded).collect(),
                    ..Default::default()
                };
                let w = FusionWeights::from_degradation(&report, open_frac, &policy);
                assert!(
                    w.is_convex(),
                    "weights must stay convex: {w:?} (dropped {bands_dropped}, \
                     excluded {n_excluded}, open {open_frac})"
                );
                let health = report.survival_fraction() * (1.0 - open_frac);
                if health >= policy.healthy_threshold {
                    assert_eq!(w.csi, 1.0, "healthy rounds snap to pure CSI");
                } else {
                    assert!(w.csi < 1.0);
                }
                // Every availability restriction stays convex too.
                for mask in 1..8u8 {
                    let r = w.restrict(mask & 1 != 0, mask & 2 != 0, mask & 4 != 0);
                    assert!(r.is_convex(), "restricted weights not convex: {r:?}");
                }
            }
        }
    }
    // Nothing available: all-zero, flagged non-convex (callers must not fuse).
    let none = FusionWeights::pure_csi().restrict(false, false, false);
    assert_eq!(none.csi + none.fingerprint + none.counts, 0.0);
    assert!(!none.is_convex());
}

#[test]
fn knn_edge_cases_are_typed_not_panics() {
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let sounder = clean_sounder(&env, &anchors);
    let chans = all_data_channels();
    let mut rng = StdRng::seed_from_u64(403);
    let data = sounder.sound(P2::new(2.0, 2.0), &chans, &mut rng);
    let evidence = FallbackEvidence::from_sounding(&data);

    // Empty database → typed error.
    let empty = FingerprintDb::new(chans.len(), 4);
    assert_eq!(
        empty.query(&evidence, 4).unwrap_err(),
        FallbackError::EmptyDatabase
    );

    // Shape mismatch → typed error.
    let wrong_shape = {
        let mut db = FingerprintDb::new(chans.len() - 1, 4);
        let short = SoundingData {
            bands: data.bands[..chans.len() - 1].to_vec(),
            anchors: data.anchors.clone(),
        };
        db.insert(P2::new(1.0, 1.0), &short)
            .expect("matching shape");
        db
    };
    assert!(matches!(
        wrong_shape.query(&evidence, 4).unwrap_err(),
        FallbackError::ShapeMismatch { .. }
    ));

    let mut db = survey_db(&sounder, 404);

    // k larger than the database clamps instead of erroring.
    let est = db.query(&evidence, 10_000).expect("oversized k is sane");
    assert_eq!(est.neighbors.len(), db.len());
    assert!(est.position.x.is_finite() && est.position.y.is_finite());

    // k = 0 clamps to 1.
    let est = db.query(&evidence, 0).expect("k=0 clamps to 1");
    assert_eq!(est.neighbors.len(), 1);

    // Fully-masked query (every measurement an exact-zero hole) → typed.
    let mut holed = data.clone();
    for band in &mut holed.bands {
        for row in &mut band.tag_to_anchor {
            for v in row.iter_mut() {
                *v = bloc_num::complex::ZERO;
            }
        }
    }
    assert_eq!(
        db.query(&FallbackEvidence::from_sounding(&holed), 4)
            .unwrap_err(),
        FallbackError::NoSurvivingFeatures
    );

    // Duplicate surveyed positions: zero feature distance must not
    // divide by zero — the estimate collapses onto the duplicate.
    let dup_pos = P2::new(3.0, 3.0);
    let mut rng = StdRng::seed_from_u64(405);
    let dup_data = sounder.sound(dup_pos, &chans, &mut rng);
    db.insert(dup_pos, &dup_data).expect("shape matches");
    db.insert(dup_pos, &dup_data).expect("shape matches");
    let est = db
        .query(&FallbackEvidence::from_sounding(&dup_data), 2)
        .expect("duplicates are sane");
    assert!(
        est.position.dist(dup_pos) < 1e-6,
        "duplicate neighbors collapse onto their position: {:?}",
        est.position
    );
    assert!(est.spread_m.is_finite());
}

#[test]
fn supervisor_returns_degraded_not_deferred_when_fallback_can_estimate() {
    let room = Room::new(5.0, 6.0);
    let env = Environment::free_space();
    let anchors = anchors(&room);
    let chans = all_data_channels();
    let clean = clean_sounder(&env, &anchors);
    let stack = stack_for(&clean);
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));

    // Impossible anchor quorum: every round would defer before sounding.
    let config = RuntimeConfig {
        min_live_anchors: 5,
        ..Default::default()
    };
    let mut sup = SessionSupervisor::new(localizer, 4, config).with_fallback(stack);

    let tag = P2::new(2.4, 2.9);
    let mut last_mode = None;
    for round in 0..3u64 {
        let out = sup.run_round(0.5, |attempt| {
            let mut rng = StdRng::seed_from_u64(500 + round * 10 + attempt as u64);
            clean.sound(tag, &chans, &mut rng)
        });
        match out {
            RoundOutcome::Degraded(d) => {
                last_mode = Some(d.mode);
                assert!(matches!(
                    d.mode,
                    EstimateMode::Fingerprint | EstimateMode::Counts | EstimateMode::FallbackFused
                ));
                assert_eq!(d.weights.csi, 0.0);
                assert!(d.weights.is_convex());
                assert!(d.sigma_m >= 0.35, "fallback sigma respects the floor");
                assert!(
                    d.estimate.position.dist(tag) < 3.7,
                    "round {round}: degraded error {} m",
                    d.estimate.position.dist(tag)
                );
            }
            other => panic!(
                "round {round}: expected Degraded, got {:?}",
                match other {
                    RoundOutcome::Fix(_) => "Fix",
                    RoundOutcome::Deferred(_) => "Deferred",
                    RoundOutcome::Degraded(_) => unreachable!(),
                }
            ),
        }
    }
    assert_eq!(last_mode, Some(EstimateMode::FallbackFused));
}

/// The packet-count log-likelihood evaluated in place, cell by cell — the
/// formula the precomputed [`bloc_core::fallback::CountTable`] must
/// reproduce bit for bit.
fn direct_counts(
    model: &PacketCountModel,
    census: &ReceptionCensus,
    anchors: &[P2],
    spec: GridSpec,
) -> Result<CountsEstimate, FallbackError> {
    let n = census.expected;
    let informative: Vec<(P2, f64)> = anchors
        .iter()
        .zip(&census.received)
        .filter(|&(_, &r)| r > 0)
        .map(|(&a, &r)| (a, r as f64))
        .collect();
    if informative.is_empty() || n == 0 {
        return Err(FallbackError::NoInformativeAnchors);
    }
    let n_f = n as f64;
    let mut ll = Grid2D::from_fn(spec, |p| {
        let mut acc = 0.0;
        for &(a, r) in &informative {
            let pr = model.p_receive(p.dist(a));
            acc += r * pr.ln() + (n_f - r) * (1.0 - pr).ln();
        }
        acc
    });
    let (ix, iy, max_ll) = ll.argmax().ok_or(FallbackError::NoInformativeAnchors)?;
    for v in ll.data_mut() {
        *v = (*v - max_ll).exp();
    }
    ll.normalize_mass();
    Ok(CountsEstimate {
        position: spec.cell_center(ix, iy),
        likelihood: ll,
        anchors_used: informative.len(),
    })
}

/// An estimate as bits (position, surface, anchors used).
fn count_bits(est: &CountsEstimate) -> (u64, u64, Vec<u64>, usize) {
    (
        est.position.x.to_bits(),
        est.position.y.to_bits(),
        est.likelihood.data().iter().map(|v| v.to_bits()).collect(),
        est.anchors_used,
    )
}

proptest! {
    /// The table-driven likelihood equals the direct formula bit for bit
    /// on random grids, deployments and tallies — with one
    /// anchor that decoded nothing in every case, and `n == 0` (an empty
    /// census) failing the same typed way.
    #[test]
    fn table_driven_counts_equal_the_direct_formula(
        nx in 1usize..24,
        ny in 1usize..24,
        resolution in 0.05..0.6f64,
        origin in (-2.0..1.0f64, -2.0..1.0f64),
        anchors in proptest::collection::vec((-1.0..7.0f64, -1.0..7.0f64), 2..6),
        tallies in proptest::collection::vec(0usize..64, 6),
        expected in 0usize..40,
        base_loss in 0.0..0.5f64,
    ) {
        let spec = GridSpec { origin: P2::new(origin.0, origin.1), resolution, nx, ny };
        let anchors: Vec<P2> = anchors.iter().map(|&(x, y)| P2::new(x, y)).collect();
        let mut received: Vec<usize> =
            tallies[..anchors.len()].iter().map(|t| t % (expected + 1)).collect();
        let silent = tallies[5] % anchors.len();
        received[silent] = 0;
        let census = ReceptionCensus {
            expected,
            received,
            master_received: vec![0; anchors.len()],
        };
        let model = PacketCountModel::new(base_loss, range_loss());
        let table = model.table(spec, &anchors);
        match (model.localize(&census, &table), direct_counts(&model, &census, &anchors, spec)) {
            (Ok(fast), Ok(direct)) => prop_assert_eq!(count_bits(&fast), count_bits(&direct)),
            (fast, direct) => {
                prop_assert_eq!(fast.err(), direct.err());
            }
        }
        if expected == 0 {
            prop_assert_eq!(
                model.localize(&census, &table).err(),
                Some(FallbackError::NoInformativeAnchors)
            );
        }
    }
}
