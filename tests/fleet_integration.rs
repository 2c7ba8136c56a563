//! Fleet serving integration: worker-thread determinism pin, bulkhead
//! quarantine/probe/recovery, typed load shedding (estimated from the
//! previous attempt-0 sounding's evidence), and outcome conservation —
//! the debug-build companion to the release `fleet_soak` gate.

use bloc_chan::sounder::SoundingData;
use bloc_core::fallback::FallbackEstimate;
use bloc_core::fleet::{FleetConfig, FleetDriver, FleetSupervisor, SiteId, TagId, TagRoundOutcome};
use bloc_core::runtime::{RetryPolicy, RuntimeConfig};
use bloc_core::{BreakerState, FallbackEvidence};
use bloc_num::complex::ZERO;
use bloc_testbed::fleet::FleetTestbedDriver;
use bloc_testbed::FleetTestbed;

const SEED: u64 = 0xF1EE7;
const ROUNDS: u64 = 5;
const TAGS_PER_SITE: usize = 3;
/// The tag that panics (site 0's second registration) and the round it
/// panics at.
const PANIC_ROUND: u64 = 1;

/// One comparable record per (round, tag): the outcome kind plus the
/// exact bit pattern of any position it carries. If two runs differ
/// anywhere — ordering, outcome class, or the last bit of a coordinate
/// — the streams differ.
type Record = (u64, u64, &'static str, Option<(u64, u64)>);

fn config(threads: usize) -> FleetConfig {
    FleetConfig {
        runtime: RuntimeConfig {
            retry: RetryPolicy::with_retries(1),
            ..Default::default()
        },
        deadline_us: 0,
        quarantine_rounds: 2,
        threads,
        seed: SEED,
        ..Default::default()
    }
}

fn run_fleet(threads: usize) -> Vec<Record> {
    let testbed = FleetTestbed::small(SEED);
    let specs = testbed.site_specs(Some(0.25));
    let mut fleet = FleetSupervisor::new(config(threads));
    let mut panic_tag = None;
    for spec in specs {
        let site = fleet.add_site(spec);
        for i in 0..TAGS_PER_SITE {
            let tag = fleet.register_tag(site);
            if site == SiteId(0) && i == 1 {
                panic_tag = Some((site, tag));
            }
        }
    }
    let (panic_site, panic_tag) = panic_tag.expect("site 0 registers tags");
    let driver = testbed
        .driver()
        .with_panic(panic_site, panic_tag, PANIC_ROUND);

    // The injected panic would otherwise spam the default hook's
    // backtrace into test output; silence it for the run.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut records = Vec::new();
    for _ in 0..ROUNDS {
        let report = fleet.run_batch(0.5, &driver);
        assert_eq!(
            report.outcomes.len(),
            2 * TAGS_PER_SITE,
            "conservation: one outcome per registered tag per batch"
        );
        for entry in &report.outcomes {
            let pos = entry
                .outcome
                .position()
                .map(|p| (p.x.to_bits(), p.y.to_bits()));
            records.push((report.round, entry.tag.0, entry.outcome.kind(), pos));
        }
    }
    std::panic::set_hook(hook);

    // The panicked tag walked the whole bulkhead arc: caught panic →
    // quarantine → probe → recovery.
    let kinds: Vec<&str> = records
        .iter()
        .filter(|r| r.1 == panic_tag.0)
        .map(|r| r.2)
        .collect();
    assert_eq!(
        kinds,
        vec!["fix", "panicked", "quarantined", "fix", "fix"],
        "bulkhead arc for the panicking tag: panic at round 1, a
         2-round cooldown skipping round 2, a successful probe at
         round 3, normal service at round 4"
    );
    assert_eq!(
        fleet.bulkhead(panic_site, panic_tag),
        Some(BreakerState::Closed),
        "probe success must close the bulkhead"
    );
    assert_eq!(fleet.tag_panics(panic_site, panic_tag), Some(1));
    // Healthy neighbours on the same site never saw the blast.
    for r in records.iter().filter(|r| r.1 != panic_tag.0) {
        assert_eq!(r.2, "fix", "tag {} round {} was {}", r.1, r.0, r.2);
    }
    records
}

#[test]
fn outcomes_are_bit_identical_across_thread_counts() {
    let reference = run_fleet(1);
    for threads in [2, 4] {
        let run = run_fleet(threads);
        assert_eq!(
            reference, run,
            "fleet outcomes must be bit-identical at {threads} threads"
        );
    }
    // The reference run carries real positions for every fix.
    assert!(reference
        .iter()
        .filter(|r| r.2 == "fix")
        .all(|r| r.3.is_some()));
}

#[test]
fn over_capacity_tags_shed_with_typed_reason_and_estimate() {
    let testbed = FleetTestbed::small(SEED ^ 0x5EED);
    let specs = testbed.site_specs(Some(0.25));
    let mut fleet = FleetSupervisor::new(FleetConfig {
        runtime: RuntimeConfig {
            retry: RetryPolicy::with_retries(0),
            ..Default::default()
        },
        deadline_us: 0,
        threads: 2,
        seed: SEED ^ 0x5EED,
        ..Default::default()
    });
    let mut sites = Vec::new();
    for spec in specs {
        let site = fleet.add_site(spec);
        for _ in 0..TAGS_PER_SITE {
            fleet.register_tag(site);
        }
        sites.push(site);
    }
    let driver = testbed.driver();

    // Round 0 at full capacity: everyone sounds (so every tag keeps the
    // fallback evidence of a sounding to fall back on).
    let report = fleet.run_batch(0.5, &driver);
    assert!(report
        .outcomes
        .iter()
        .all(|e| matches!(e.outcome, TagRoundOutcome::Round(_))));

    // Overload burst: site 0 can only admit one supervised round.
    fleet.set_site_capacity(sites[0], 1);
    let report = fleet.run_batch(0.5, &driver);
    let (site0, rest): (Vec<_>, Vec<_>) = report.outcomes.iter().partition(|e| e.site == sites[0]);
    // Oldest-first admission: the first registration runs, the newer
    // two shed — each with the typed reason AND a degraded estimate.
    assert!(matches!(site0[0].outcome, TagRoundOutcome::Round(_)));
    for entry in &site0[1..] {
        match &entry.outcome {
            TagRoundOutcome::Shed(shed) => {
                assert_eq!(shed.reason.reason(), "site_over_capacity");
                assert!(
                    shed.estimate.is_some(),
                    "a shed tag with fallback evidence must still get an estimate"
                );
            }
            other => panic!("expected shed, got {}", other.kind()),
        }
    }
    // The other site is untouched by site 0's overload.
    assert!(rest
        .iter()
        .all(|e| matches!(e.outcome, TagRoundOutcome::Round(_))));

    // Restore capacity: service recovers for everyone.
    fleet.set_site_capacity(sites[0], usize::MAX);
    let report = fleet.run_batch(0.5, &driver);
    assert!(report
        .outcomes
        .iter()
        .all(|e| matches!(e.outcome, TagRoundOutcome::Round(_))));
    assert_eq!(fleet.round(), 3);
}

/// The testbed driver, except that one tag's attempt 0 at one round has
/// a dead master (every band fails the band quorum, so the round
/// retries) and its attempt 1 there panics.
struct PanicOnRetry<'a> {
    inner: FleetTestbedDriver<'a>,
    tag: TagId,
    round: u64,
}

impl FleetDriver for PanicOnRetry<'_> {
    fn sound(&self, site: SiteId, tag: TagId, round: u64, attempt: usize) -> SoundingData {
        let faulty = (tag, round) == (self.tag, self.round);
        if faulty && attempt > 0 {
            panic!("injected tag fault: {site}/{tag} retried at round {round}");
        }
        let mut data = self.inner.sound(site, tag, round, attempt);
        if faulty {
            for band in &mut data.bands {
                band.tag_to_anchor[0].fill(ZERO);
            }
        }
        data
    }
}

#[test]
fn shed_round_estimates_from_the_previous_attempt_zero_sounding() {
    let testbed = FleetTestbed::small(SEED ^ 0xE71D);
    let specs = testbed.site_specs(Some(0.25));
    let (stack, grid) = (specs[0].fallback.clone(), specs[0].bloc.grid);
    let mut fleet = FleetSupervisor::new(FleetConfig {
        runtime: RuntimeConfig {
            retry: RetryPolicy::with_retries(1),
            ..Default::default()
        },
        deadline_us: 0,
        quarantine_rounds: 1,
        threads: 2,
        seed: SEED ^ 0xE71D,
        ..Default::default()
    });
    let site = fleet.add_site(specs[0].clone());
    let tags: Vec<TagId> = (0..TAGS_PER_SITE)
        .map(|_| fleet.register_tag(site))
        .collect();
    let driver = PanicOnRetry {
        inner: testbed.driver(),
        tag: tags[1],
        round: 1,
    };

    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    fleet.run_batch(0.5, &driver);
    let report = fleet.run_batch(0.5, &driver);
    std::panic::set_hook(hook);
    let kinds: Vec<&str> = report.outcomes.iter().map(|e| e.outcome.kind()).collect();
    assert_eq!(kinds, ["fix", "panicked", "fix"], "round 1");

    // Round 2 admits nothing: every tag sheds — the panicked tag too, its
    // cooldown over — and estimates from its round-1 attempt-0 sounding.
    fleet.set_site_capacity(site, 0);
    let report = fleet.run_batch(0.5, &driver);
    for entry in &report.outcomes {
        let TagRoundOutcome::Shed(shed) = &entry.outcome else {
            panic!("{} was {}, not shed", entry.tag, entry.outcome.kind());
        };
        let estimate_on = |round| {
            let data = driver.sound(site, entry.tag, round, 0);
            stack.estimate(&FallbackEvidence::from_sounding(&data), grid)
        };
        let expected = estimate_on(1).expect("the fallback estimates");
        let got = shed
            .estimate
            .as_ref()
            .expect("a shed with evidence estimates");
        assert_eq!(got.position.x.to_bits(), expected.position.x.to_bits());
        assert_eq!(got.position.y.to_bits(), expected.position.y.to_bits());
        let bits = |e: &FallbackEstimate| -> Vec<u64> {
            e.likelihood.data().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(got), bits(&expected), "{}: surface bits", entry.tag);
        assert_eq!((got.mode, got.sigma_m), (expected.mode, expected.sigma_m));
        if entry.tag == tags[1] {
            let stale = estimate_on(0).expect("the fallback estimates");
            assert_ne!(
                bits(got),
                bits(&stale),
                "the panicking round's attempt 0 refreshed the evidence"
            );
        }
    }
}
