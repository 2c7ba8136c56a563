//! `fleet` row: [`bloc_core::FleetSupervisor`] holding 200 tags across 4
//! sites under the site fault menu (packet loss, dead RF chains and
//! clipping, an interference burst with a scheduled anchor blackout,
//! range-dependent loss), plus injected per-tag panics, injected
//! deadline violations and a mid-run overload burst that drops one
//! site's admission capacity to its sentinels.
//!
//! Fails unless:
//!
//! * **conservation** — every batch returns one typed outcome per tag,
//!   and the `fleet.outcomes.*` counters equal the observed tally;
//! * **no cross-tag contamination** — each site's sentinel tags (never
//!   injected, never shed) give bit-identical outcome kinds and
//!   positions to a solo [`bloc_core::SessionSupervisor`] replay seeded
//!   by [`bloc_core::fleet::tag_seed`] / [`bloc_core::fleet::sounding_seed`];
//! * **bulkheads** — every injected panic is caught at its tag's
//!   bulkhead, walks quarantine → probe → recovery, and ends closed;
//! * **deadlines** — every injected latency ≫ budget surfaces as a typed
//!   `timed_out` outcome;
//! * **no bare drops** — no bare `deferred` outcome, and every overload
//!   shed carries a degraded estimate;
//! * **site-level degradation** — the blackout site declares the anchor
//!   down during the window and recovers, with hysteresis, after it;
//! * **ledgers** — the bulkhead and site ledgers' `total()` equal the
//!   `fleet.bulkhead.*` / `fleet.site.*` counter sums.
//!
//! Tags/s and round latency are printed for reading, not gated: the
//! benchmark's `fleet_faulted` workload judges fleet speed. Outcomes are
//! bit-identical at any worker thread count.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use bloc_core::fleet::{
    sounding_seed, tag_seed, FleetConfig, FleetDriver, FleetSupervisor, SiteId, TagId,
    TagRoundOutcome,
};
use bloc_core::runtime::SessionSupervisor;
use bloc_core::{BlocLocalizer, BreakerState};
use bloc_num::par::Deadline;
use bloc_num::stats;
use bloc_testbed::fleet::{FleetTestbed, OUTAGE_ANCHOR, OUTAGE_FROM, OUTAGE_TO};

use crate::{banner, reconcile, SEED};

/// Tags served, spread evenly over the sites.
const TAGS: usize = 200;
/// Fleet rounds: the blackout window, the breaker cooldown after it, the
/// hysteresis recovery, and the overload burst and restore.
const ROUNDS: u64 = 16;
/// Round period, seconds.
const DT: f64 = 0.5;
/// Grid resolution: a robustness gate, not an accuracy gate — coarse
/// cells keep 3200 supervised rounds affordable.
const RESOLUTION_M: f64 = 0.25;
/// Per-site sentinels: the first registrations, kept clear of every
/// injection and always under capacity, replayed solo bit for bit.
const SENTINELS_PER_SITE: usize = 2;
/// Per-round deadline budget, µs (virtual: declared latency + backoff).
const DEADLINE_US: u64 = 250_000;
/// Injected external latency, µs — 20× the budget, a certain timeout.
const INJECTED_LATENCY_US: u64 = 5_000_000;
/// Overload burst window: `[BURST_FROM, BURST_TO)` fleet rounds.
const BURST_FROM: u64 = 13;
/// One past the last burst round (capacity restored here).
const BURST_TO: u64 = 15;
/// The burst site's admission capacity — exactly its sentinels.
const BURST_CAPACITY: usize = SENTINELS_PER_SITE;
/// Injected panics and latencies, (site index, tag index, round): all on
/// non-sentinel tags, clear of the burst site's probe windows.
const PANIC_AT: [(usize, usize, u64); 3] = [(0, 4, 1), (1, 5, 2), (3, 4, 3)];
const DEADLINE_AT: [(usize, usize, u64); 2] = [(2, 7, 1), (3, 6, 7)];

/// One comparable record per (tag, round): outcome kind and exact
/// position bits. The contamination gate compares these, nothing
/// wall-clock.
type Record = (&'static str, Option<(u64, u64)>);

fn record_of(outcome: &TagRoundOutcome) -> Record {
    (
        outcome.kind(),
        outcome.position().map(|p| (p.x.to_bits(), p.y.to_bits())),
    )
}

pub fn run() -> bool {
    banner(
        "Fleet-serving soak (bulkheads, deadlines, backpressure)",
        TAGS,
    );
    let testbed = FleetTestbed::standard(SEED);
    let n_sites = testbed.scenarios.len();
    let tags_per_site = TAGS.div_ceil(n_sites);
    // At least 4 workers, so the parallel path runs even on small hosts.
    let threads = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .clamp(4, 16);
    let config = FleetConfig {
        deadline_us: DEADLINE_US,
        threads,
        seed: SEED,
        ledger_capacity: 64,
        ..Default::default()
    };
    let quarantine_rounds = config.quarantine_rounds;
    let runtime_template = config.runtime.clone();

    let mut fleet = FleetSupervisor::new(config);
    let mut site_tags: Vec<(SiteId, Vec<TagId>)> = Vec::new();
    for spec in testbed.site_specs(Some(RESOLUTION_M)) {
        let site = fleet.add_site(spec);
        let tags = (0..tags_per_site)
            .map(|_| fleet.register_tag(site))
            .collect();
        site_tags.push((site, tags));
    }
    let n_tags = n_sites * tags_per_site;
    println!(
        "  {n_tags} tags over {n_sites} sites ({tags_per_site}/site), {ROUNDS} rounds, {threads} worker threads"
    );
    let at = |(s, t, _): (usize, usize, u64)| (site_tags[s].0, site_tags[s].1[t]);
    let burst_site = site_tags[3].0;
    let mut driver = testbed.driver();
    for inj in PANIC_AT {
        let (site, tag) = at(inj);
        driver = driver.with_panic(site, tag, inj.2);
    }
    for inj in DEADLINE_AT {
        let (site, tag) = at(inj);
        driver = driver.with_latency(site, tag, inj.2, INJECTED_LATENCY_US);
    }

    let books = reconcile::open();
    // Injected panics would spam the default hook's backtrace; silence it
    // for the loop (the bulkhead gate below proves they were caught).
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut records: HashMap<u64, Vec<Record>> = HashMap::new();
    let mut site_events = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut kind_tally: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut conservation_ok = true;
    let wall = Instant::now();
    for round in 0..ROUNDS {
        if round == BURST_FROM {
            fleet.set_site_capacity(burst_site, BURST_CAPACITY);
        }
        if round == BURST_TO {
            fleet.set_site_capacity(burst_site, usize::MAX);
        }
        let report = fleet.run_batch(DT, &driver);
        conservation_ok &= report.outcomes.len() == n_tags;
        for entry in &report.outcomes {
            *kind_tally.entry(entry.outcome.kind()).or_insert(0) += 1;
            if matches!(entry.outcome, TagRoundOutcome::Round(_)) {
                latencies.push(entry.latency_us as f64);
            }
            records
                .entry(entry.tag.0)
                .or_default()
                .push(record_of(&entry.outcome));
        }
        site_events.extend(report.site_events.iter().cloned());
    }
    let elapsed = wall.elapsed().as_secs_f64();
    std::panic::set_hook(hook);
    let mut books = books.close();

    let tag_rounds = n_tags as u64 * ROUNDS;
    println!(
        "  {tag_rounds} tag-rounds in {elapsed:.2} s — {:.0} tags/s, round p50 {:.0} µs, p99 {:.0} µs",
        tag_rounds as f64 / elapsed.max(1e-9),
        stats::median(&latencies),
        stats::percentile(&latencies, 99.0),
    );
    for (kind, n) in &kind_tally {
        println!("    {kind:>11}: {n}");
    }
    // Search cost per tag-round from the engine's own cell ledger.
    println!(
        "  search cost: {} cell evals over {tag_rounds} tag-rounds — {} cells/round",
        books.counter("engine.cells_evaluated"),
        books.counter("engine.cells_evaluated") / tag_rounds,
    );

    // Conservation, no bare drops, bulkheads and deadlines, in counters.
    books.check(conservation_ok, || {
        "a batch did not return one outcome per registered tag".into()
    });
    books.tally(
        kind_tally
            .iter()
            .map(|(kind, &n)| (format!("fleet.outcomes.{kind}"), n)),
    );
    books.tally([
        ("fleet.outcomes.deferred", 0),
        ("fleet.shed.no_estimate", 0),
        (
            "fleet.shed.site_over_capacity",
            (tags_per_site - BURST_CAPACITY) as u64 * (BURST_TO - BURST_FROM),
        ),
        ("fleet.panics", PANIC_AT.len() as u64),
        ("runtime.rounds.timed_out", DEADLINE_AT.len() as u64),
    ]);
    books.ledger(
        "bulkhead",
        fleet.bulkhead_ledger().total(),
        &[
            "fleet.bulkhead.open",
            "fleet.bulkhead.half_open",
            "fleet.bulkhead.closed",
        ],
    );
    books.ledger(
        "site",
        fleet.site_ledger().total(),
        &["fleet.site.outage", "fleet.site.recovery"],
    );

    // Each injected panic walks panic → quarantine → recovery.
    for inj in PANIC_AT {
        let (site, tag) = at(inj);
        let kinds: Vec<&str> = records[&tag.0].iter().map(|r| r.0).collect();
        let quarantined = kinds.iter().filter(|&&k| k == "quarantined").count() as u64;
        books.check(
            kinds[inj.2 as usize] == "panicked"
                && quarantined == quarantine_rounds - 1
                && fleet.bulkhead(site, tag) == Some(BreakerState::Closed)
                && fleet.tag_panics(site, tag) == Some(1),
            || {
                format!(
                    "{site}/{tag} did not walk the panic → quarantine → recovery arc: {kinds:?}"
                )
            },
        );
    }
    // Each injected latency surfaces as a typed timeout.
    for inj in DEADLINE_AT {
        let (site, tag) = at(inj);
        let kind = records[&tag.0][inj.2 as usize].0;
        books.check(kind == "timed_out", || {
            format!(
                "{site}/{tag} round {} was {kind} — injected {INJECTED_LATENCY_US} µs should time out",
                inj.2
            )
        });
    }

    // The blackout site declares the anchor down during the window and
    // recovers after it, with hysteresis.
    let outage_site = site_tags[2].0;
    let outage = |down: bool, rounds: std::ops::Range<u64>| {
        site_events.iter().any(|e| {
            e.site == outage_site
                && e.anchor == OUTAGE_ANCHOR
                && e.down == down
                && rounds.contains(&e.round)
        })
    };
    books.check(outage(true, OUTAGE_FROM..OUTAGE_TO + 2), || {
        format!("the scheduled blackout (rounds {OUTAGE_FROM}..{OUTAGE_TO}) never became a site-level outage")
    });
    books.check(outage(false, OUTAGE_TO..u64::MAX), || {
        "the site-level outage never recovered after the blackout".into()
    });
    let still_down = fleet.down_anchors(outage_site);
    books.check(still_down.is_empty(), || {
        format!("anchors {still_down:?} still declared down at {outage_site} after recovery")
    });

    // Cross-tag contamination: replay every sentinel solo — fresh
    // supervisor, fresh caches, same seeds — bit for bit.
    println!(
        "  replaying {} sentinels solo…",
        n_sites * SENTINELS_PER_SITE
    );
    let solo_bed = FleetTestbed::standard(SEED);
    let solo_driver = solo_bed.driver();
    for ((site, tags), spec) in site_tags
        .iter()
        .zip(solo_bed.site_specs(Some(RESOLUTION_M)))
    {
        for tag in &tags[..SENTINELS_PER_SITE] {
            let mut rc = runtime_template.clone();
            rc.retry.seed = tag_seed(SEED, *site, *tag);
            let mut sup =
                SessionSupervisor::new(BlocLocalizer::new(spec.bloc), spec.anchors.len(), rc)
                    .with_site_managed_caches()
                    .with_fallback(spec.fallback.clone());
            for round in 0..ROUNDS {
                let mut deadline = Deadline::budget(DEADLINE_US);
                deadline.charge(solo_driver.round_latency_us(*site, *tag, round));
                let out = sup.run_round_with_deadline(DT, Some(&mut deadline), |attempt| {
                    solo_driver.sound(*site, *tag, round, attempt)
                });
                let solo = record_of(&TagRoundOutcome::Round(out));
                let in_fleet = records[&tag.0][round as usize];
                books.check(solo == in_fleet, || {
                    format!("cross-tag contamination: {site}/{tag} round {round} solo {solo:?} vs fleet {in_fleet:?}")
                });
            }
        }
    }
    // The seed plumbing is load-bearing: the two exported derivations
    // must not collide.
    let (site0, tag0) = (site_tags[0].0, site_tags[0].1[0]);
    books.check(
        sounding_seed(SEED, site0, tag0, 0, 0) != tag_seed(SEED, site0, tag0),
        || "sounding_seed collides with tag_seed at round 0".into(),
    );

    books.report("soak-fleet");
    books.verdict(
        "fleet",
        &format!("{n_tags} tags / {n_sites} sites isolated, typed, reconciled and bit-stable"),
    )
}
