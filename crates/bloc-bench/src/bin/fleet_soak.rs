//! Fleet-serving soak: [`bloc_core::FleetSupervisor`] holding ≥ 200 tags
//! across 4 sites under the full `bloc-chan` fault menu — per-site packet
//! loss, dead RF chains + clipping, an interference burst with a
//! scheduled anchor blackout, range-dependent loss — **plus** injected
//! per-tag panics, injected deadline violations, and a mid-run overload
//! burst that drops one site's admission capacity to its sentinels.
//!
//! The run **fails** (non-zero exit) unless all of the following hold:
//!
//! * **conservation** — every batch returns exactly one typed outcome
//!   per registered tag, and the `fleet.outcomes.*` counters reconcile
//!   exactly with the observed tally;
//! * **no cross-tag contamination** — per-site sentinel tags (never
//!   injected, never shed) produce **bit-identical** outcome kinds and
//!   position bit patterns to a solo [`bloc_core::SessionSupervisor`]
//!   replay of the same tag seeded by [`bloc_core::fleet::tag_seed`] /
//!   [`bloc_core::fleet::sounding_seed`] — panics, timeouts and
//!   overload on neighbouring tags must not move a single bit;
//! * **bulkheads** — every injected panic is caught at its tag's
//!   bulkhead (never the process), walks the quarantine → probe →
//!   recovery arc, and ends the run closed;
//! * **deadlines** — every injected latency ≫ budget surfaces as a
//!   typed `timed_out` outcome, and `runtime.rounds.timed_out` agrees;
//! * **no bare drops** — zero bare `deferred` outcomes (the fallback
//!   stack is attached), and every overload shed carries a typed reason
//!   AND a degraded-mode estimate (`fleet.shed.no_estimate == 0`);
//! * **site-level degradation** — the scheduled blackout on the
//!   interference site drives a quorum of per-tag breakers open, the
//!   site declares the anchor down, and recovers with hysteresis after
//!   the window — both transitions in the (bounded) site ledger;
//! * **ledger/obs reconciliation** — bulkhead and site ledger `total()`
//!   match the `fleet.bulkhead.*` / `fleet.site.*` counter sums exactly.
//!
//! Tags/s and p50/p99 round latency are printed for reading, not gated:
//! fleet serving speed is judged by the repository benchmark's
//! `fleet_faulted` workload. Fully deterministic: same seed, same
//! verdict, at any worker thread count. `scripts/check.sh` runs this at
//! 200 tags.
//!
//! ```text
//! cargo run --release -p bloc-bench --bin fleet_soak [tags] [--trace]
//! ```

use std::collections::HashMap;
use std::time::Instant;

use bloc_core::fleet::{
    sounding_seed, tag_seed, FleetConfig, FleetSupervisor, SiteId, TagId, TagRoundOutcome,
};
use bloc_core::runtime::SessionSupervisor;
use bloc_core::BlocLocalizer;
use bloc_num::par::Deadline;
use bloc_num::stats;
use bloc_testbed::fleet::{FleetTestbed, OUTAGE_ANCHOR, OUTAGE_FROM, OUTAGE_TO};

/// Fleet rounds: covers the scheduled blackout window, the breaker
/// cooldown that follows it, the hysteresis recovery, and the overload
/// burst + restore.
const ROUNDS: u64 = 16;
/// Round period, seconds.
const DT: f64 = 0.5;
/// Grid resolution override: robustness gate, not an accuracy gate —
/// coarse cells keep 3200 supervised rounds affordable.
const RESOLUTION_M: f64 = 0.25;
/// Per-site sentinels: the first registrations, kept clean of every
/// injection and always under capacity, replayed solo bit-for-bit.
const SENTINELS_PER_SITE: usize = 2;
/// Per-round deadline budget, µs (virtual: declared latency + backoff).
const DEADLINE_US: u64 = 250_000;
/// Injected external latency, µs — 20× the budget, guaranteed timeout.
const INJECTED_LATENCY_US: u64 = 5_000_000;
/// Overload burst window: `[BURST_FROM, BURST_TO)` fleet rounds.
const BURST_FROM: u64 = 13;
/// One past the last burst round (capacity restored here).
const BURST_TO: u64 = 15;
/// The burst site's admission capacity — exactly its sentinels.
const BURST_CAPACITY: usize = SENTINELS_PER_SITE;

/// One comparable record per (tag, round): outcome kind + exact
/// position bits. The contamination gate compares these, nothing
/// wall-clock.
type Record = (&'static str, Option<(u64, u64)>);

fn record_of(outcome: &TagRoundOutcome) -> Record {
    (
        outcome.kind(),
        outcome.position().map(|p| (p.x.to_bits(), p.y.to_bits())),
    )
}

#[allow(clippy::too_many_lines)]
fn main() {
    let size = bloc_bench::size_from_args();
    let tags_total = size.locations.max(200);
    let seed = size.seed;
    bloc_bench::banner(
        "Fleet-serving soak (bulkheads, deadlines, backpressure)",
        &bloc_testbed::experiments::ExperimentSize {
            locations: tags_total,
            seed,
        },
    );

    let testbed = FleetTestbed::standard(seed);
    let n_sites = testbed.scenarios.len();
    let tags_per_site = tags_total.div_ceil(n_sites);
    // Floor at 4 so the parallel multiplexing path is exercised even on
    // small hosts — outcomes are bit-identical at any worker count.
    let threads = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .clamp(4, 16);
    let config = FleetConfig {
        deadline_us: DEADLINE_US,
        threads,
        seed,
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

    // Injection schedule — all on non-sentinel tags, clear of the burst
    // site's probe windows. (site index, tag index, round).
    let panic_at: Vec<(usize, usize, u64)> = vec![(0, 4, 1), (1, 5, 2), (3, 4, 3)];
    let deadline_at: Vec<(usize, usize, u64)> = vec![(2, 7, 1), (3, 6, 7)];
    let burst_site = site_tags[3].0;

    let mut driver = testbed.driver();
    for &(s, t, r) in &panic_at {
        driver = driver.with_panic(site_tags[s].0, site_tags[s].1[t], r);
    }
    for &(s, t, r) in &deadline_at {
        driver = driver.with_latency(site_tags[s].0, site_tags[s].1[t], r, INJECTED_LATENCY_US);
    }

    let registry = bloc_obs::Registry::global();
    bloc_bench::maybe_start_trace();
    let before = registry.snapshot();

    // ---- The fleet run ---------------------------------------------------
    // Injected panics would spam the default hook's backtrace; silence it
    // for the loop (the bulkhead gate below proves they were caught).
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut records: HashMap<u64, Vec<Record>> = HashMap::new();
    let mut site_events = Vec::new();
    let mut supervised_latencies: Vec<f64> = Vec::new();
    let mut kind_tally: HashMap<&'static str, u64> = HashMap::new();
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
                supervised_latencies.push(entry.latency_us as f64);
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

    let run = registry.snapshot().diff(&before);
    let counter = |name: &str| run.counters.get(name).copied().unwrap_or(0);

    let tag_rounds = (n_tags as u64) * ROUNDS;
    let tags_per_sec = tag_rounds as f64 / elapsed.max(1e-9);
    let p50_us = stats::median(&supervised_latencies);
    let p99_us = stats::percentile(&supervised_latencies, 99.0);
    let mut tally: Vec<_> = kind_tally.iter().collect();
    tally.sort();
    println!(
        "  {tag_rounds} tag-rounds in {elapsed:.2} s — {tags_per_sec:.0} tags/s, round p50 {p50_us:.0} µs, p99 {p99_us:.0} µs"
    );
    for (kind, n) in &tally {
        println!("    {kind:>11}: {n}");
    }
    // Search cost per tag-round from the engine's own cell ledger — the
    // number to watch when swapping the dense sweep for the hierarchy.
    println!(
        "  search cost: {} cell evals over {tag_rounds} tag-rounds — {} cells/round",
        counter("engine.cells_evaluated"),
        counter("engine.cells_evaluated") / tag_rounds.max(1),
    );

    // ---- Gates -----------------------------------------------------------
    let mut violations: Vec<String> = Vec::new();

    // 1. Conservation: one typed outcome per tag per batch, and the
    //    fleet.outcomes.* counters agree with the observed tally exactly.
    if !conservation_ok {
        violations.push("a batch did not return one outcome per registered tag".into());
    }
    let counted: u64 = kind_tally.values().sum();
    if counted != tag_rounds {
        violations.push(format!(
            "{counted} outcomes observed, {tag_rounds} expected"
        ));
    }
    for (kind, &n) in &kind_tally {
        let c = counter(&format!("fleet.outcomes.{kind}"));
        if c != n {
            violations.push(format!(
                "fleet.outcomes.{kind} counter ({c}) disagrees with the outcome tally ({n})"
            ));
        }
    }

    // 2. No bare drops: with the fallback stack attached, nothing defers
    //    untyped, and every shed carries an estimate.
    if counter("fleet.outcomes.deferred") != 0 {
        violations.push(format!(
            "{} bare deferred rounds with a fallback stack attached",
            counter("fleet.outcomes.deferred")
        ));
    }
    if counter("fleet.shed.no_estimate") != 0 {
        violations.push(format!(
            "{} shed rounds carried no degraded estimate",
            counter("fleet.shed.no_estimate")
        ));
    }
    let expected_sheds = ((tags_per_site - BURST_CAPACITY) as u64) * (BURST_TO - BURST_FROM);
    if counter("fleet.shed.site_over_capacity") != expected_sheds {
        violations.push(format!(
            "overload burst shed {} rounds, expected {expected_sheds}",
            counter("fleet.shed.site_over_capacity")
        ));
    }

    // 3. Bulkheads: every injected panic caught, quarantined, recovered.
    if counter("fleet.panics") != panic_at.len() as u64 {
        violations.push(format!(
            "{} panics caught at bulkheads, {} injected",
            counter("fleet.panics"),
            panic_at.len()
        ));
    }
    for &(s, t, r) in &panic_at {
        let (site, tag) = (site_tags[s].0, site_tags[s].1[t]);
        let kinds: Vec<&str> = records[&tag.0].iter().map(|r| r.0).collect();
        let quarantined = kinds.iter().filter(|&&k| k == "quarantined").count() as u64;
        if kinds[r as usize] != "panicked"
            || quarantined != quarantine_rounds - 1
            || fleet.bulkhead(site, tag) != Some(bloc_core::BreakerState::Closed)
            || fleet.tag_panics(site, tag) != Some(1)
        {
            violations.push(format!(
                "{site}/{tag} did not walk the panic → quarantine → recovery arc: {kinds:?}"
            ));
        }
    }

    // 4. Deadlines: injected latencies surface as typed timeouts.
    for &(s, t, r) in &deadline_at {
        let tag = site_tags[s].1[t];
        if records[&tag.0][r as usize].0 != "timed_out" {
            violations.push(format!(
                "{}/{tag} round {r} was {} — injected {INJECTED_LATENCY_US} µs should time out",
                site_tags[s].0, records[&tag.0][r as usize].0
            ));
        }
    }
    if counter("runtime.rounds.timed_out") != deadline_at.len() as u64 {
        violations.push(format!(
            "runtime.rounds.timed_out ({}) disagrees with the {} injected deadline violations",
            counter("runtime.rounds.timed_out"),
            deadline_at.len()
        ));
    }

    // 5. Site-level degradation: the blackout site declares the anchor
    //    down during the window and recovers after it, with hysteresis.
    let outage_site = site_tags[2].0;
    let declared = site_events.iter().any(|e| {
        e.site == outage_site
            && e.anchor == OUTAGE_ANCHOR
            && e.down
            && (OUTAGE_FROM..OUTAGE_TO + 2).contains(&e.round)
    });
    let recovered = site_events.iter().any(|e| {
        e.site == outage_site && e.anchor == OUTAGE_ANCHOR && !e.down && e.round >= OUTAGE_TO
    });
    if !declared {
        violations.push(format!(
            "the scheduled blackout (rounds {OUTAGE_FROM}..{OUTAGE_TO}) never became a site-level outage"
        ));
    }
    if !recovered {
        violations.push("the site-level outage never recovered after the blackout".into());
    }
    if !fleet.down_anchors(outage_site).is_empty() {
        violations.push(format!(
            "anchors {:?} still declared down at {outage_site} after recovery",
            fleet.down_anchors(outage_site)
        ));
    }

    // 6. Ledger/obs reconciliation: bounded ledgers account for every
    //    transition the counters saw, evictions included.
    let bulkhead_counted = counter("fleet.bulkhead.open")
        + counter("fleet.bulkhead.half_open")
        + counter("fleet.bulkhead.closed");
    if fleet.bulkhead_ledger().total() != bulkhead_counted {
        violations.push(format!(
            "bulkhead ledger total ({}) vs fleet.bulkhead.* counters ({bulkhead_counted})",
            fleet.bulkhead_ledger().total()
        ));
    }
    let site_counted = counter("fleet.site.outage") + counter("fleet.site.recovery");
    if fleet.site_ledger().total() != site_counted {
        violations.push(format!(
            "site ledger total ({}) vs fleet.site.* counters ({site_counted})",
            fleet.site_ledger().total()
        ));
    }

    // 7. Cross-tag contamination: replay every sentinel solo — fresh
    //    supervisor, fresh caches, same seeds — and demand bit-identical
    //    outcome kinds and position bits.
    println!(
        "  replaying {} sentinels solo…",
        n_sites * SENTINELS_PER_SITE
    );
    let solo_bed = FleetTestbed::standard(seed);
    let solo_driver = solo_bed.driver();
    let solo_specs = solo_bed.site_specs(Some(RESOLUTION_M));
    for ((site, tags), spec) in site_tags.iter().zip(solo_specs) {
        for tag in tags.iter().take(SENTINELS_PER_SITE) {
            let mut rc = runtime_template.clone();
            rc.retry.seed = tag_seed(seed, *site, *tag);
            let localizer = BlocLocalizer::new(spec.bloc);
            let mut sup = SessionSupervisor::new(localizer, spec.anchors.len(), rc)
                .with_site_managed_caches()
                .with_fallback(spec.fallback.clone());
            for round in 0..ROUNDS {
                let mut deadline = Deadline::budget(DEADLINE_US);
                deadline.charge(bloc_core::fleet::FleetDriver::round_latency_us(
                    &solo_driver,
                    *site,
                    *tag,
                    round,
                ));
                let out = sup.run_round_with_deadline(DT, Some(&mut deadline), |attempt| {
                    bloc_core::fleet::FleetDriver::sound(&solo_driver, *site, *tag, round, attempt)
                });
                let solo = record_of(&TagRoundOutcome::Round(out));
                let fleet_rec = records[&tag.0][round as usize];
                if solo != fleet_rec {
                    violations.push(format!(
                        "cross-tag contamination: {site}/{tag} round {round} solo {solo:?} vs fleet {fleet_rec:?}"
                    ));
                }
            }
        }
    }
    // The seed plumbing itself is load-bearing; prove the exported
    // functions are what the testbed consumed.
    let probe = sounding_seed(seed, site_tags[0].0, site_tags[0].1[0], 0, 0);
    if probe == tag_seed(seed, site_tags[0].0, site_tags[0].1[0]) {
        violations.push("sounding_seed collides with tag_seed at round 0".into());
    }

    bloc_bench::maybe_finish_trace("fleet_soak");
    bloc_bench::emit_run_report("fleet_soak", &before);
    if violations.is_empty() {
        println!(
            "  fleet soak PASS: {n_tags} tags / {n_sites} sites isolated, typed, reconciled and bit-stable"
        );
    } else {
        for v in &violations {
            println!("  fleet soak FAIL: {v}");
        }
        std::process::exit(1);
    }
}
