//! `fleet_faulted` — multi-tag serving under the site fault menu.
//!
//! A `FleetSupervisor` serves `FleetTestbed::standard`'s four sites at the
//! fleet soak's 0.25 m grid with one worker per available core. Each site
//! carries its slice of the testbed's fault menu — packet loss, dead RF
//! chains with clipping, an interference burst plus the round 4–10 anchor
//! blackout, and range-dependent loss — but no injected panics, latencies
//! or capacity bursts. Sounding, supervision and fallback carry the round;
//! the kernel is small. The blackout's site-level outage and recovery
//! rebuild shared caches next to steady reads.

use std::collections::BTreeMap;
use std::time::Instant;

use bloc_core::fleet::{FleetConfig, FleetSupervisor, TagRoundOutcome};
use bloc_num::GridSpec;
use bloc_testbed::fleet::FleetTestbed;

use super::{bench_span, ms_since, Observed, Pass};

/// The sites' seed: the venues are fixed, `--seed` places the tags and
/// drives every sounding and fault draw.
pub const VENUE_SEED: u64 = 2018;

/// Grid resolution of every site, metres (the fleet soak's setting).
const RESOLUTION_M: f64 = 0.25;
/// Round period, seconds.
const DT_S: f64 = 0.5;
/// Batches run during set-up, outside the timing.
const WARM_UP_BATCHES: usize = 2;

/// Set-up state: the testbed, the fleet and each site's grid.
pub struct FleetFaulted {
    testbed: FleetTestbed,
    fleet: FleetSupervisor,
    grids: Vec<GridSpec>,
    n_tags: usize,
}

impl FleetFaulted {
    /// Builds the testbed (with its fingerprint surveys) and the fleet,
    /// registers the tags, and runs the warm-up batches.
    pub fn setup(seed: u64, tags_per_site: usize) -> Self {
        let mut testbed = FleetTestbed::standard(VENUE_SEED);
        testbed.seed = seed;
        let mut fleet = FleetSupervisor::new(FleetConfig {
            threads: bloc_num::par::max_threads(),
            seed,
            ..FleetConfig::default()
        });
        let mut grids = Vec::new();
        for spec in testbed.site_specs(Some(RESOLUTION_M)) {
            grids.push(spec.bloc.grid);
            let site = fleet.add_site(spec);
            for _ in 0..tags_per_site {
                fleet.register_tag(site);
            }
        }
        let mut bench = Self {
            n_tags: grids.len() * tags_per_site,
            testbed,
            fleet,
            grids,
        };
        bench.run(false, &mut Pass::new(WARM_UP_BATCHES));
        bench
    }

    pub(super) fn run(&mut self, traced: bool, pass: &mut Pass) -> Observed {
        let driver = self.testbed.driver();
        let mut tally: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut supervised = 0u64;
        while pass.more() {
            let t = Instant::now();
            let report = {
                let _span = bench_span(traced, "bench.fleet");
                self.fleet.run_batch(DT_S, &driver)
            };
            pass.end_step(&[ms_since(t)]);
            if report.outcomes.len() != self.n_tags {
                pass.violations.push(format!(
                    "batch {} returned {} outcomes for {} tags",
                    report.round,
                    report.outcomes.len(),
                    self.n_tags
                ));
            }
            for entry in &report.outcomes {
                let kind = entry.outcome.kind();
                *tally.entry(kind).or_insert(0) += 1;
                if matches!(
                    entry.outcome,
                    TagRoundOutcome::Round(_) | TagRoundOutcome::Panicked { .. }
                ) {
                    supervised += 1;
                    pass.tag_us.push(entry.latency_us as f64);
                }
                let truth = driver.truth(entry.site, entry.tag, report.round);
                pass.fold(kind.bytes().fold(0, |h, b| h << 8 | u64::from(b)));
                let site = entry.site.0;
                pass.record(site, entry.outcome.position(), truth, &self.grids[site]);
            }
        }
        let total = tally.values().sum();
        let mut observed: Observed = tally
            .into_iter()
            .map(|(kind, n)| (format!("fleet.outcomes.{kind}"), n))
            .collect();
        observed.push(("fleet.outcomes.*".into(), total));
        observed.push(("runtime.rounds".into(), supervised));
        observed
    }
}
