//! Integration suite for the supervised sounding runtime: breaker
//! lifecycle, quorum admission, deterministic backoff, cache hygiene
//! across quarantine, tracking, and track-level innovation gating.

use bloc_ble::channels::Channel;
use bloc_chan::geometry::Room;
use bloc_chan::sounder::{all_data_channels, Sounder, SounderConfig, SoundingData};
use bloc_chan::{AnchorArray, AnchorDropout, Environment, FaultPlan, InterferenceBurst, RangeLoss};
use bloc_core::runtime::{RetryPolicy, RoundOutcome, RuntimeConfig, SessionSupervisor};
use bloc_core::tracker::FixDisposition;
use bloc_core::{
    BlocConfig, BlocLocalizer, BreakerState, DeferReason, EstimateMode, FallbackConfig,
    FallbackStack, FingerprintDb, LocalizeError, PacketCountModel,
};
use bloc_num::par::Deadline;
use bloc_num::P2;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The standard 4-anchor test deployment (wall midpoints, 4 antennas).
fn deployment() -> (Room, Vec<AnchorArray>) {
    let room = Room::new(5.0, 6.0);
    let anchors: Vec<AnchorArray> = room
        .wall_midpoints()
        .iter()
        .zip(room.walls().iter())
        .enumerate()
        .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
        .collect();
    (room, anchors)
}

fn quiet() -> SounderConfig {
    SounderConfig {
        antenna_phase_err_std: 0.0,
        ..Default::default()
    }
}

/// One deterministic sounding: the same (seed, round, attempt) triple
/// always reproduces the same noise and fault draw.
fn sound(
    sounder: &Sounder,
    plan: &FaultPlan,
    channels: &[Channel],
    truth: P2,
    seed: u64,
    round: u64,
    attempt: usize,
) -> SoundingData {
    let s = seed
        ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (attempt as u64).wrapping_mul(0xA24B_AED4_963E_E407);
    let mut rng = StdRng::seed_from_u64(s);
    sounder
        .clone()
        .with_faults(plan.with_seed(s))
        .sound(truth, channels, &mut rng)
}

#[test]
fn retry_policy_is_deterministic_and_bounded() {
    let policy = RetryPolicy {
        max_retries: 5,
        base_delay_us: 400,
        max_delay_us: 3_000,
        jitter: 0.5,
        seed: 77,
    };
    assert_eq!(policy.attempts(), 6);
    for round in 0..32u64 {
        let a = policy.schedule(round);
        let b = policy.schedule(round);
        assert_eq!(a, b, "schedule must be a pure function of (policy, round)");
        assert_eq!(a[0], 0, "the scheduled sounding itself is not delayed");
        for (attempt, &d) in a.iter().enumerate().skip(1) {
            let exp = (400u64 << (attempt - 1)).min(3_000);
            let floor = (exp as f64 * 0.5).floor() as u64;
            assert!(
                d >= floor && d <= exp,
                "round {round} attempt {attempt}: {d} outside [{floor}, {exp}]"
            );
        }
    }
    // Jitter decorrelates rounds: not every round draws the same factors.
    let first: Vec<u64> = policy.schedule(0);
    assert!(
        (1..32).any(|r| policy.schedule(r) != first),
        "jitter must vary across rounds"
    );
}

#[test]
fn healthy_rounds_fix_and_reuse_steering_tables() {
    let (room, anchors) = deployment();
    let env = Environment::free_space();
    let sounder = Sounder::new(&env, &anchors, quiet());
    let channels = all_data_channels()[..12].to_vec();
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let mut sup = SessionSupervisor::new(localizer, anchors.len(), RuntimeConfig::default());

    let hits_name = "cache.steering.hits";
    let before = bloc_obs::counter(hits_name).get();
    let truth = P2::new(2.0, 2.5);
    for round in 0..8 {
        let out = sup.run_round(0.5, |attempt| {
            sound(
                &sounder,
                &FaultPlan::default(),
                &channels,
                truth,
                41,
                round,
                attempt,
            )
        });
        match out {
            RoundOutcome::Fix(fix) => {
                assert_eq!(fix.attempts, 1, "clean rounds need no retries");
                assert_eq!(fix.admitted, vec![0, 1, 2, 3]);
                assert!(fix.estimate.position.dist(truth) < 0.6);
            }
            RoundOutcome::Deferred(r) => panic!("clean round {round} deferred: {r}"),
            RoundOutcome::Degraded(d) => {
                panic!(
                    "clean round {round} degraded without a fallback stack: {}",
                    d.reason
                )
            }
        }
    }
    // Unchanged admission ⇒ unchanged geometry ⇒ one steering table,
    // served from the cache for every round after the first.
    assert_eq!(sup.localizer().engine().cache().len(), 1);
    assert!(
        bloc_obs::counter(hits_name).get() - before >= 7,
        "rounds 2..8 must hit the steering cache"
    );
    assert!(sup.breaker_ledger().is_empty(), "no breaker should move");
    for i in 0..anchors.len() {
        assert!(sup.anchor_health(i) > 0.95, "anchor {i} health");
        assert_eq!(sup.breaker_state(i), BreakerState::Closed);
    }
}

#[test]
fn chronically_bad_anchor_is_quarantined_probed_and_readmitted() {
    let (room, anchors) = deployment();
    let env = Environment::free_space();
    let sounder = Sounder::new(&env, &anchors, quiet());
    let channels = all_data_channels()[..12].to_vec();
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let config = RuntimeConfig::default();
    let mut sup = SessionSupervisor::new(localizer, anchors.len(), config.clone());

    // Anchor 2 is dead on every band for the first 6 rounds, then heals.
    let dead = FaultPlan {
        dropouts: vec![AnchorDropout {
            anchor: 2,
            bands: 0..channels.len(),
        }],
        ..Default::default()
    };
    let clean = FaultPlan::default();
    let evicted = bloc_obs::counter("cache.steering.evicted").get();
    let breaker_events = bloc_obs::counter("cache.steering.invalidations.breaker").get();

    let truth = P2::new(1.5, 3.0);
    let mut open_round = None;
    for round in 0..20u64 {
        let plan = if round < 6 { &dead } else { &clean };
        let out = sup.run_round(0.5, |attempt| {
            sound(&sounder, plan, &channels, truth, 43, round, attempt)
        });
        assert!(
            out.is_fix(),
            "three healthy anchors keep fixing (round {round})"
        );
        if open_round.is_none() && sup.breaker_state(2) == BreakerState::Open {
            open_round = Some(round);
            assert!(
                !sup.admitted().contains(&2),
                "an open breaker excludes its anchor"
            );
            assert!(sup.anchor_health(2) < config.open_threshold);
        }
    }

    let open_round = open_round.expect("a fully dead anchor must be quarantined");
    assert!(
        (2..=5).contains(&open_round),
        "EWMA + streak should open within the fault window, got {open_round}"
    );

    // Ledger tells the whole story: open → half-open probe after the
    // cooldown → closed after sustained good probes. The master and the
    // healthy anchors never move.
    let ledger = sup.breaker_ledger();
    assert_eq!(ledger.len(), 3, "ledger: {ledger:?}");
    assert!(ledger.iter().all(|t| t.anchor == 2));
    assert_eq!(
        (ledger[0].from, ledger[0].to),
        (BreakerState::Closed, BreakerState::Open)
    );
    assert_eq!(
        (ledger[1].from, ledger[1].to),
        (BreakerState::Open, BreakerState::HalfOpen)
    );
    assert_eq!(
        ledger[1].round - ledger[0].round,
        config.cooldown_rounds,
        "cooldown must be exact"
    );
    assert_eq!(
        (ledger[2].from, ledger[2].to),
        (BreakerState::HalfOpen, BreakerState::Closed)
    );
    assert_eq!(sup.breaker_state(2), BreakerState::Closed);
    assert!(sup.anchor_health(2) > config.close_threshold);
    assert_eq!(sup.admitted(), vec![0, 1, 2, 3]);

    // Quarantine and probe each retired a geometry from the steering
    // cache (4-anchor table on open, 3-anchor table on probe), and both
    // events are attributed to the breaker cause.
    assert!(
        bloc_obs::counter("cache.steering.evicted").get() - evicted >= 2,
        "membership changes must invalidate steering tables"
    );
    assert!(
        bloc_obs::counter("cache.steering.invalidations.breaker").get() - breaker_events >= 2,
        "supervisor invalidations must carry the breaker cause"
    );
}

#[test]
fn master_is_never_quarantined() {
    let (room, anchors) = deployment();
    let env = Environment::free_space();
    let sounder = Sounder::new(&env, &anchors, quiet());
    let channels = all_data_channels()[..12].to_vec();
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let mut sup = SessionSupervisor::new(localizer, anchors.len(), RuntimeConfig::default());

    // The master dark on every band: rounds cannot fix (Eq. 10 needs
    // ĥ00), but anchor 0 must stay Closed — it is structurally required.
    let plan = FaultPlan {
        dropouts: vec![AnchorDropout {
            anchor: 0,
            bands: 0..channels.len(),
        }],
        ..Default::default()
    };
    for round in 0..6u64 {
        let out = sup.run_round(0.5, |attempt| {
            sound(
                &sounder,
                &plan,
                &channels,
                P2::new(2.0, 2.0),
                47,
                round,
                attempt,
            )
        });
        match out {
            RoundOutcome::Deferred(DeferReason::BandQuorum { surviving, .. }) => {
                assert_eq!(surviving, 0, "no band survives without the master");
            }
            other => panic!("round {round}: expected a band-quorum deferral, got {other:?}"),
        }
    }
    assert_eq!(sup.breaker_state(0), BreakerState::Closed);
    assert!(
        sup.breaker_ledger().iter().all(|t| t.anchor != 0),
        "the master never enters the ledger"
    );
    assert!(
        sup.anchor_health(0) < 0.5,
        "health still reflects reality: {}",
        sup.anchor_health(0)
    );
}

#[test]
fn quorum_policies_defer_with_typed_reasons() {
    let (room, anchors) = deployment();
    let env = Environment::free_space();
    let sounder = Sounder::new(&env, &anchors, quiet());
    let channels = all_data_channels()[..12].to_vec();

    // Anchor quorum: demand more live anchors than the deployment has.
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let mut sup = SessionSupervisor::new(
        localizer,
        anchors.len(),
        RuntimeConfig {
            min_live_anchors: anchors.len() + 1,
            ..Default::default()
        },
    );
    let mut calls = 0;
    let out = sup.run_round(0.5, |_| {
        calls += 1;
        sound(
            &sounder,
            &FaultPlan::default(),
            &channels,
            P2::new(2.0, 2.0),
            53,
            0,
            0,
        )
    });
    match out {
        RoundOutcome::Deferred(DeferReason::AnchorQuorum { live, required }) => {
            assert_eq!((live, required), (anchors.len(), anchors.len() + 1));
        }
        other => panic!("expected anchor-quorum deferral, got {other:?}"),
    }
    assert_eq!(
        calls, 0,
        "below anchor quorum no sounding is even attempted"
    );

    // Band quorum: demand more surviving bands than channels sounded.
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let mut sup = SessionSupervisor::new(
        localizer,
        anchors.len(),
        RuntimeConfig {
            min_surviving_bands: channels.len() + 1,
            retry: RetryPolicy::with_retries(1),
            ..Default::default()
        },
    );
    let mut calls = 0;
    let out = sup.run_round(0.5, |attempt| {
        calls += 1;
        sound(
            &sounder,
            &FaultPlan::default(),
            &channels,
            P2::new(2.0, 2.0),
            59,
            0,
            attempt,
        )
    });
    match out {
        RoundOutcome::Deferred(DeferReason::BandQuorum {
            surviving,
            required,
        }) => {
            assert_eq!(surviving, channels.len());
            assert_eq!(required, channels.len() + 1);
        }
        other => panic!("expected band-quorum deferral, got {other:?}"),
    }
    assert_eq!(calls, 2, "band quorum is re-checked on every attempt");
}

#[test]
fn interference_burst_does_not_displace_the_track() {
    // Fig.-11-style mid-track burst: strong interference over half the
    // spectrum for three rounds. Whatever the corrupted likelihood
    // produces, the velocity-scaled Mahalanobis gate keeps the published
    // track from jumping.
    let (room, anchors) = deployment();
    let env = Environment::free_space();
    let sounder = Sounder::new(&env, &anchors, quiet());
    let channels = all_data_channels();
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let mut sup = SessionSupervisor::new(localizer, anchors.len(), RuntimeConfig::default());

    let burst = FaultPlan {
        tag_loss: 0.3,
        interference: vec![InterferenceBurst {
            freq_lo: 0,
            freq_hi: 18,
            noise_rel: 30.0,
        }],
        ..Default::default()
    };
    let clean = FaultPlan::default();
    let v = P2::new(0.25, 0.1);
    let dt = 0.5;
    let mut last_track: Option<P2> = None;
    for round in 0..16u64 {
        let truth = P2::new(1.2, 1.5) + v * (round as f64 * dt);
        let plan = if (6..9).contains(&round) {
            &burst
        } else {
            &clean
        };
        let out = sup.run_round(dt, |attempt| {
            sound(&sounder, plan, &channels, truth, 61, round, attempt)
        });
        let track = match &out {
            RoundOutcome::Fix(fix) => fix.track.position,
            RoundOutcome::Degraded(_) | RoundOutcome::Deferred(_) => match sup.track() {
                Some(s) => s.position,
                None => continue,
            },
        };
        if let Some(prev) = last_track {
            let step = track.dist(prev);
            assert!(
                step < 1.2,
                "round {round}: track jumped {step:.2} m through the burst"
            );
        }
        assert!(
            track.dist(truth) < 1.5,
            "round {round}: track strayed {:.2} m from truth",
            track.dist(truth)
        );
        last_track = Some(track);
    }
}

#[test]
fn teleported_truth_reacquires_within_k_rounds() {
    let (room, anchors) = deployment();
    let env = Environment::free_space();
    let sounder = Sounder::new(&env, &anchors, quiet());
    let channels = all_data_channels()[..16].to_vec();
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    // Free-space fixes land within ~0.1 m, so tell the gate so: with the
    // default σ_fix = 0.9 m a 4σ gate is wider than the room itself. The
    // 3σ bound also keeps coasting's covariance growth from soft-accepting
    // the far fix before the hysteresis counter fires.
    let config = RuntimeConfig {
        tracker: bloc_core::tracker::TrackerConfig {
            fix_sigma_m: 0.3,
            gate_sigma: 3.0,
            ..Default::default()
        },
        ..Default::default()
    };
    let k = config.tracker.reacquire_after;
    let mut sup = SessionSupervisor::new(localizer, anchors.len(), config);

    let home = P2::new(1.2, 1.5);
    let away = P2::new(4.0, 4.8); // ~4.3 m jump — far beyond the gate
    let mut reacquired_at = None;
    let jump_round = 8u64;
    for round in 0..16u64 {
        let truth = if round < jump_round { home } else { away };
        let out = sup.run_round(0.5, |attempt| {
            sound(
                &sounder,
                &FaultPlan::default(),
                &channels,
                truth,
                67,
                round,
                attempt,
            )
        });
        if let RoundOutcome::Fix(fix) = &out {
            match fix.disposition {
                FixDisposition::Rejected { .. } => assert!(
                    round >= jump_round,
                    "no rejection expected before the jump (round {round})"
                ),
                FixDisposition::Reacquired(_) if reacquired_at.is_none() => {
                    reacquired_at = Some(round);
                }
                _ => {}
            }
        }
    }
    let reacquired_at = reacquired_at.expect("the track must re-acquire after a true move");
    assert!(
        reacquired_at < jump_round + k as u64,
        "re-acquired at round {reacquired_at}, hysteresis bound is {k} rounds after {jump_round}"
    );
    let final_pos = sup.track().expect("track is live").position;
    assert!(
        final_pos.dist(away) < 0.8,
        "track must settle at the new truth, {:.2} m away",
        final_pos.dist(away)
    );
}

#[test]
fn supervision_is_identical_across_thread_counts() {
    // Sessions fan out across worker threads, each its own supervisor on
    // a clone of one localizer (clones share the steering cache): any
    // worker count gives every session the estimates, track states and
    // breaker decisions it gets alone.
    let (room, anchors) = deployment();
    let env = Environment::free_space();
    let sounder = Sounder::new(&env, &anchors, quiet());
    let channels = all_data_channels()[..12].to_vec();
    let dead = FaultPlan {
        tag_loss: 0.2,
        dropouts: vec![AnchorDropout {
            anchor: 2,
            bands: 0..channels.len(),
        }],
        ..Default::default()
    };
    let truths = [P2::new(2.2, 2.8), P2::new(1.1, 4.3), P2::new(3.7, 1.6)];
    let session = |localizer: BlocLocalizer, k: usize| {
        let mut sup = SessionSupervisor::new(localizer, anchors.len(), RuntimeConfig::default());
        let mut tracks = Vec::new();
        for round in 0..10u64 {
            let plan = if round < 5 {
                &dead
            } else {
                &FaultPlan::default()
            };
            let out = sup.run_round(0.5, |attempt| {
                sound(
                    &sounder,
                    plan,
                    &channels,
                    truths[k],
                    71 + k as u64,
                    round,
                    attempt,
                )
            });
            if let RoundOutcome::Fix(fix) = out {
                tracks.push((round, fix.estimate.position, fix.track.position));
            }
        }
        (tracks, sup.breaker_ledger().to_vec())
    };
    let alone: Vec<_> = (0..truths.len())
        .map(|k| session(BlocLocalizer::new(BlocConfig::for_room(&room)), k))
        .collect();
    for threads in [2, 4] {
        let shared = BlocLocalizer::new(BlocConfig::for_room(&room));
        let fanned = bloc_num::par::map_named("test.sessions", truths.len(), threads, |k| {
            session(shared.clone(), k)
        });
        assert_eq!(fanned, alone, "{threads} worker threads changed a session");
    }
}

#[test]
fn breaker_transitions_invalidate_the_sounder_path_cache() {
    // The PR 4 hook pattern, extended to the synthesis engine: the
    // supervisor holds a clone of the sounder's path cache (clones share
    // storage) and drops it whenever breaker-driven admission changes —
    // the deployment the static anchor↔master PathSets were memoized for
    // is no longer the one being sounded.
    let (room, anchors) = deployment();
    let env = Environment::free_space();
    let cache = bloc_chan::PathCache::new();
    let sounder = Sounder::new(&env, &anchors, quiet()).with_path_cache(cache.clone());
    let channels = all_data_channels()[..12].to_vec();
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let mut sup = SessionSupervisor::new(localizer, anchors.len(), RuntimeConfig::default())
        .with_path_cache(cache.clone());

    let dead = FaultPlan {
        dropouts: vec![AnchorDropout {
            anchor: 2,
            bands: 0..channels.len(),
        }],
        ..Default::default()
    };
    let clean = FaultPlan::default();
    let invalidations = bloc_obs::counter("cache.path.invalidations.breaker").get();
    let hits = bloc_obs::counter("cache.path.hits").get();

    let truth = P2::new(1.5, 3.0);
    for round in 0..20u64 {
        let plan = if round < 6 { &dead } else { &clean };
        let out = sup.run_round(0.5, |attempt| {
            sound(&sounder, plan, &channels, truth, 47, round, attempt)
        });
        assert!(out.is_fix(), "three healthy anchors keep fixing");
    }

    // The full quarantine story played out (open → probe → readmit)…
    assert_eq!(sup.breaker_ledger().len(), 3);
    // …and each membership change (open, probe) dropped the path cache,
    // attributed to the breaker cause.
    assert!(
        bloc_obs::counter("cache.path.invalidations.breaker").get() - invalidations >= 2,
        "membership changes must invalidate the path cache"
    );
    // Between invalidations the cache served warm PathSets: 20 rounds of
    // an identical deployment are far more hits than misses.
    assert!(
        bloc_obs::counter("cache.path.hits").get() - hits > 0,
        "steady rounds must reuse cached PathSets"
    );
    assert!(
        !cache.is_empty(),
        "the cache ends warm after the last stable stretch"
    );
}

#[test]
fn deadline_exhaustion_defers_with_typed_reason() {
    let (room, anchors) = deployment();
    let env = Environment::free_space();
    let sounder = Sounder::new(&env, &anchors, quiet());
    let channels = all_data_channels()[..12].to_vec();
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    // Jitter 0 keeps the backoff charges exact, so the deferral's spent
    // figure can be pinned bit-for-bit.
    let config = RuntimeConfig {
        retry: RetryPolicy {
            max_retries: 2,
            base_delay_us: 500,
            max_delay_us: 4_000,
            jitter: 0.0,
            seed: 9,
        },
        ..Default::default()
    };
    let mut sup = SessionSupervisor::new(localizer, anchors.len(), config);
    let truth = P2::new(2.0, 2.5);

    // A budget exhausted on entry (the caller charged queueing delay
    // before the round) skips the round's work entirely: sound() is
    // never invoked.
    let timed_out = bloc_obs::counter("runtime.rounds.timed_out").get();
    let mut spent_on_queue = Deadline::budget(100);
    spent_on_queue.charge(250);
    let mut soundings = 0u32;
    let out = sup.run_round_with_deadline(0.5, Some(&mut spent_on_queue), |attempt| {
        soundings += 1;
        sound(
            &sounder,
            &FaultPlan::default(),
            &channels,
            truth,
            53,
            0,
            attempt,
        )
    });
    match out {
        RoundOutcome::Deferred(DeferReason::DeadlineExceeded {
            budget_us,
            spent_us,
        }) => {
            assert_eq!(budget_us, 100);
            assert_eq!(spent_us, 250);
        }
        other => panic!("expected a deadline deferral, got {other:?}"),
    }
    assert_eq!(soundings, 0, "an exhausted budget must not sound");

    // Mid-round: attempt 0 loses every tag packet (band quorum fails),
    // and the first retry's 500 µs backoff overruns a 400 µs budget —
    // the round defers with the deterministic virtual charge instead of
    // burning the rest of its retry schedule.
    let lost = FaultPlan {
        tag_loss: 1.0,
        ..Default::default()
    };
    let mut deadline = Deadline::budget(400);
    let out = sup.run_round_with_deadline(0.5, Some(&mut deadline), |attempt| {
        sound(&sounder, &lost, &channels, truth, 53, 1, attempt)
    });
    match out {
        RoundOutcome::Deferred(DeferReason::DeadlineExceeded {
            budget_us,
            spent_us,
        }) => {
            assert_eq!(budget_us, 400);
            assert_eq!(spent_us, 500, "jitter-free backoff charge is exact");
        }
        other => panic!("expected a mid-round deadline deferral, got {other:?}"),
    }
    assert!(
        bloc_obs::counter("runtime.rounds.timed_out").get() - timed_out >= 2,
        "both deferrals must be counted"
    );

    // The session is not damaged: an unbudgeted clean round fixes.
    let out = sup.run_round(0.5, |attempt| {
        sound(
            &sounder,
            &FaultPlan::default(),
            &channels,
            truth,
            53,
            2,
            attempt,
        )
    });
    assert!(
        out.is_fix(),
        "deadline deferrals must not poison the session"
    );
}

#[test]
fn bounded_breaker_ledger_reconciles_after_eviction() {
    let (room, anchors) = deployment();
    let env = Environment::free_space();
    let sounder = Sounder::new(&env, &anchors, quiet());
    let channels = all_data_channels()[..12].to_vec();
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    // Twitchy breaker + tiny ledger: a flapping anchor overflows the
    // 4-deep ring well within 40 rounds.
    let config = RuntimeConfig {
        open_after: 1,
        cooldown_rounds: 2,
        close_after: 1,
        ledger_capacity: 4,
        ..Default::default()
    };
    let mut sup = SessionSupervisor::new(localizer, anchors.len(), config);

    let dead = FaultPlan {
        dropouts: vec![AnchorDropout {
            anchor: 2,
            bands: 0..channels.len(),
        }],
        ..Default::default()
    };
    let clean = FaultPlan::default();
    let before: u64 = ["closed", "open", "half_open"]
        .iter()
        .map(|s| bloc_obs::counter(&format!("runtime.breaker.{s}")).get())
        .sum();

    // Anchor 2 flaps: 5 dead rounds, 5 clean, repeated — each cycle
    // walks its breaker through open → (failed probes →) half-open →
    // closed again.
    let truth = P2::new(1.5, 3.0);
    for round in 0..40u64 {
        let plan = if (round / 5) % 2 == 0 { &dead } else { &clean };
        sup.run_round(0.5, |attempt| {
            sound(&sounder, plan, &channels, truth, 59, round, attempt)
        });
    }

    let ledger = sup.breaker_ledger();
    assert_eq!(ledger.capacity(), 4);
    assert_eq!(ledger.len(), 4, "ring must be full: {ledger:?}");
    assert!(
        ledger.evicted() > 0,
        "40 flapping rounds must overflow a 4-deep ring"
    );
    assert_eq!(
        ledger.total(),
        ledger.len() as u64 + ledger.evicted(),
        "total() is resident plus evicted by definition"
    );
    // Counters are process-global (other tests in this binary also move
    // breakers), so the exact single-session reconciliation lives in the
    // soak gates; here the counters must have recorded at least this
    // session's transitions.
    let after: u64 = ["closed", "open", "half_open"]
        .iter()
        .map(|s| bloc_obs::counter(&format!("runtime.breaker.{s}")).get())
        .sum();
    assert!(
        after - before >= ledger.total(),
        "every ledgered transition must also be counted ({} counted, {} ledgered)",
        after - before,
        ledger.total()
    );
    // The resident window holds the most recent transitions, in round
    // order, all on the flapping anchor.
    let rounds: Vec<u64> = ledger.iter().map(|t| t.round).collect();
    let mut sorted = rounds.clone();
    sorted.sort_unstable();
    assert_eq!(rounds, sorted, "resident window must stay in order");
    assert!(ledger.iter().all(|t| t.anchor == 2));
}

#[test]
fn runtime_fuses_fallback_exactly_like_the_localizer() {
    // The supervisor's fallback-fusion step keeps the arithmetic the
    // localizer's `localize_with_fallback` had: a degraded round's fix,
    // evidence mode and fusion weights equal, bit for bit, what that
    // entry point returned for the same sounding (recorded constants).
    let (room, anchors) = deployment();
    let env = Environment::free_space();
    let sounder = Sounder::new(&env, &anchors, quiet());
    let channels = all_data_channels();
    let mut db = FingerprintDb::new(channels.len(), anchors.len());
    let mut rng = StdRng::seed_from_u64(60);
    for yi in 0..5 {
        for xi in 0..4 {
            let pos = P2::new(0.7 + xi as f64 * 1.2, 0.7 + yi as f64 * 1.2);
            let survey = sounder.sound(pos, &channels, &mut rng);
            db.insert(pos, &survey).expect("survey shapes agree");
        }
    }
    let range_loss = RangeLoss {
        d0: 1.0,
        per_m: 0.12,
        max: 0.8,
    };
    let stack = FallbackStack::new(FallbackConfig::default())
        .with_fingerprints(db)
        .with_counts(PacketCountModel::new(0.0, range_loss));

    // A dark slave: the CSI fix survives on three anchors, but the round
    // is below the healthy threshold, so the priors are blended in.
    let plan = FaultPlan {
        seed: 61,
        tag_loss: 0.1,
        dropouts: vec![AnchorDropout {
            anchor: 3,
            bands: 0..channels.len(),
        }],
        range_loss: Some(range_loss),
        ..Default::default()
    };
    let data = sound(&sounder, &plan, &channels, P2::new(2.4, 3.2), 61, 0, 0);
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let mut sup = SessionSupervisor::new(localizer, anchors.len(), RuntimeConfig::default())
        .with_fallback(stack);
    let RoundOutcome::Fix(fix) = sup.run_round(0.5, |_| data.clone()) else {
        panic!("a three-anchor round must fix");
    };
    assert_eq!(sup.open_frac(), 0.0, "no breaker moved in one round");
    assert_eq!(fix.attempts, 1);
    assert_eq!(fix.mode, EstimateMode::CsiFused);
    let bits = |v: f64| v.to_bits();
    assert_eq!(
        [
            bits(fix.weights.csi),
            bits(fix.weights.fingerprint),
            bits(fix.weights.counts)
        ],
        [
            0x3fd4_4a62_31d3_1438,
            0x3fde_98bb_4385_d83f,
            0x3fca_39c5_154e_2713
        ]
    );
    assert_eq!(
        [bits(fix.estimate.position.x), bits(fix.estimate.position.y)],
        [0x3ffc_7ae1_47ae_147c, 0x4007_d70a_3d70_a3d7]
    );
}

#[test]
fn pipeline_tracks_a_moving_tag_and_reuses_geometry() {
    let (room, anchors) = deployment();
    let env = Environment::free_space();
    let sounder = Sounder::new(&env, &anchors, quiet());
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let mut sup = SessionSupervisor::new(localizer, anchors.len(), RuntimeConfig::default());
    assert!(sup.track().is_none());

    let mut rng = StdRng::seed_from_u64(51);
    let v = P2::new(0.3, 0.15);
    for k in 0..12 {
        let truth = P2::new(1.2, 1.5) + v * (k as f64 * 0.5);
        let data = sounder.sound(truth, &all_data_channels(), &mut rng);
        assert!(sup.run_round(0.5, |_| data.clone()).is_fix(), "round {k}");
    }
    let truth_final = P2::new(1.2, 1.5) + v * (11.0 * 0.5);
    let track = sup.track().expect("twelve fixes make a track");
    assert!(
        track.position.dist(truth_final) < 0.6,
        "track {track:?} vs {truth_final}"
    );
    // One deployment, twelve soundings: the steering geometry was built
    // exactly once and served from the cache after that.
    assert_eq!(sup.localizer().engine().cache().len(), 1);
}

#[test]
fn pipeline_coasts_through_failed_fixes() {
    let (room, anchors) = deployment();
    let env = Environment::free_space();
    let sounder = Sounder::new(&env, &anchors, quiet());
    let channels = all_data_channels()[..12].to_vec();
    // Every slave dark: the master's bands pass the band quorum, but a
    // fix needs two usable anchors, so every attempt fails to localize.
    let dark = FaultPlan {
        dropouts: (1..anchors.len())
            .map(|anchor| AnchorDropout {
                anchor,
                bands: 0..channels.len(),
            })
            .collect(),
        ..Default::default()
    };
    let clean = FaultPlan::default();
    let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
    let mut sup = SessionSupervisor::new(localizer, anchors.len(), RuntimeConfig::default());
    let truth = P2::new(2.0, 2.5);
    let round = |sup: &mut SessionSupervisor, plan: &FaultPlan, round: u64| {
        sup.run_round(0.5, |attempt| {
            sound(&sounder, plan, &channels, truth, 53, round, attempt)
        })
    };

    // Failure before any fix: a typed deferral, and still no track.
    let out = round(&mut sup, &dark, 0);
    assert!(
        matches!(
            out,
            RoundOutcome::Deferred(DeferReason::RetriesExhausted {
                last: LocalizeError::TooFewUsableAnchors { .. },
                ..
            })
        ),
        "{out:?}"
    );
    assert!(sup.track().is_none());

    // A fix starts the track; failing again coasts the filter (σ grows)
    // instead of dropping the step.
    assert!(round(&mut sup, &clean, 1).is_fix());
    let before = sup.track().expect("one fix").position_sigma;
    assert!(!round(&mut sup, &dark, 2).is_estimate());
    let after = sup.track().expect("a coast keeps the lock").position_sigma;
    assert!(after > before, "coast must inflate σ: {before} → {after}");
}
