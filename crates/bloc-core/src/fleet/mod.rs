//! Fault-isolated multi-tag fleet serving.
//!
//! A deployment does not localize one tag: a site serves hundreds, and
//! an operator serves several sites. This module multiplexes many
//! per-tag [`SessionSupervisor`] sessions over shared per-site state —
//! one steering cache, one path cache, one fallback survey per site —
//! in deterministic batched rounds, with a robustness spine between
//! every tag and its neighbours:
//!
//! * **Bulkheads** — a tag whose round panics (or chronically produces
//!   nothing) is caught at its own circuit breaker and quarantined with
//!   a cooldown + probe cycle. The batch continues; shared caches are
//!   never poisoned; every other tag's results are bit-identical to a
//!   solo run.
//! * **Deadlines** — each supervised round runs under a virtual
//!   [`Deadline`] budget. Externally known latency is charged before
//!   the round; an exceeded budget is a *typed* deferral
//!   ([`crate::DeferReason::DeadlineExceeded`]) that feeds the tag's
//!   health EWMA, never a stall.
//! * **Admission control** — each site admits at most `capacity`
//!   supervised rounds per batch, oldest registration first. Tags over
//!   capacity are **shed, not dropped**: a typed [`ShedRound`] carrying
//!   a degraded-mode estimate from the fallback evidence of the tag's
//!   last attempt-0 sounding.
//! * **Site-level health** — per-anchor breaker verdicts are aggregated
//!   *across* tags; when a quorum of active tags has quarantined the
//!   same anchor, the site declares an outage, performs exactly one
//!   shared-cache invalidation pass, and recovers with hysteresis.
//!
//! Determinism is load-bearing: every source of randomness is a
//! [`bloc_num::seed`] hash of `(fleet seed, site, tag, round, attempt)`,
//! deadlines charge virtual costs only, and all observability and
//! ledger writes happen single-threaded in registration order after the
//! parallel section joins — so a batch's outcomes are bit-identical at
//! any worker thread count. The `soak fleet` gate holds this module to
//! all of it under a full fault menu.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod site;
mod tag;

pub use site::{SiteId, SiteSpec, SiteTransition};
pub use tag::{ShedReason, ShedRound, TagId, TagRoundOutcome, TagTransition};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bloc_chan::sounder::SoundingData;
use bloc_num::par::{for_each_chunk_mut_named, Deadline};
use bloc_num::seed::{splitmix64, stream_seed, GAMMA3};
use bloc_obs::BoundedLedger;

use crate::localizer::BlocLocalizer;
use crate::runtime::{BreakerState, RuntimeConfig, SessionSupervisor};

use site::SiteState;
use tag::TagSlot;

/// Fleet-wide serving policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Template runtime config for every tag session; each session gets
    /// its own deterministic retry seed derived from the fleet seed.
    pub runtime: RuntimeConfig,
    /// Per-round deadline budget, µs (`0` disables deadlines). Budgets
    /// are virtual: backoff delays and declared external latency are
    /// charged, wall clock is not, so outcomes stay deterministic.
    pub deadline_us: u64,
    /// Default per-site admission capacity: supervised rounds admitted
    /// per batch (`usize::MAX` = no shedding).
    pub site_capacity: usize,
    /// Rounds a quarantined tag waits before its bulkhead probes it.
    pub quarantine_rounds: u64,
    /// Consecutive estimate-less supervised rounds before a tag's
    /// bulkhead opens (`0` disables failure-driven quarantine; panics
    /// always quarantine).
    pub quarantine_after_failures: usize,
    /// Fraction of a site's active tags that must hold an anchor's
    /// breaker open before the site declares the anchor down.
    pub site_outage_quorum: f64,
    /// EWMA weight for per-tag service health.
    pub health_alpha: f64,
    /// Worker threads a batch's supervised rounds are spread across.
    /// Outcomes are bit-identical at any value.
    pub threads: usize,
    /// Fleet master seed; every tag's retry jitter and every sounding
    /// stream seed derives from it.
    pub seed: u64,
    /// Resident capacity of the fleet's bulkhead and site ledgers.
    pub ledger_capacity: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            runtime: RuntimeConfig::default(),
            deadline_us: 250_000,
            site_capacity: usize::MAX,
            quarantine_rounds: 4,
            quarantine_after_failures: 6,
            site_outage_quorum: 0.5,
            health_alpha: 0.3,
            threads: 1,
            seed: 0xB10C,
            ledger_capacity: 4096,
        }
    }
}

/// How a fleet obtains soundings (and their declared costs). The driver
/// must be a pure function of `(site, tag, round, attempt)` for batch
/// outcomes to be deterministic; a panic inside [`FleetDriver::sound`]
/// models a faulty tag pipeline and is contained by that tag's
/// bulkhead.
pub trait FleetDriver: Sync {
    /// One sounding of the site's *full* deployment for this tag,
    /// round and attempt.
    fn sound(&self, site: SiteId, tag: TagId, round: u64, attempt: usize) -> SoundingData;

    /// Externally known cost for this tag's round, µs (queueing,
    /// airtime, radio dwell) — charged against the round's deadline
    /// budget before any work runs. Defaults to free.
    fn round_latency_us(&self, _site: SiteId, _tag: TagId, _round: u64) -> u64 {
        0
    }
}

/// One tag's entry in a [`BatchReport`].
#[derive(Debug, Clone)]
pub struct TagRound {
    /// The site the tag serves under.
    pub site: SiteId,
    /// The tag.
    pub tag: TagId,
    /// What the batch produced for it.
    pub outcome: TagRoundOutcome,
    /// Wall-clock latency of the tag's slice of the batch, µs
    /// (reporting only — never feeds control flow).
    pub latency_us: u64,
}

/// Everything one fleet batch produced: exactly one outcome per
/// registered tag, plus any site-level membership changes.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The fleet round this report covers.
    pub round: u64,
    /// One entry per registered tag, in registration order (sites in id
    /// order, tags in registration order within a site).
    pub outcomes: Vec<TagRound>,
    /// Site-level anchor outages/recoveries declared this round.
    pub site_events: Vec<SiteTransition>,
}

/// The deterministic retry seed a tag session runs under — exposed so a
/// soak can replay one tag solo, bit-identically, against the fleet's
/// result for the same tag.
pub fn tag_seed(fleet_seed: u64, site: SiteId, tag: TagId) -> u64 {
    stream_seed(fleet_seed, site.0 as u64, tag.0, 0)
}

/// The deterministic per-sounding seed for `(site, tag, round, attempt)`
/// — the stream a [`FleetDriver`] should draw noise and fault plans
/// from, and the one a solo replay must reuse.
pub fn sounding_seed(fleet_seed: u64, site: SiteId, tag: TagId, round: u64, attempt: usize) -> u64 {
    // The extra GAMMA3 fold domain-separates sounding streams from the
    // retry-seed domain ([`tag_seed`]) even at round 0, attempt 0.
    splitmix64(
        stream_seed(fleet_seed, site.0 as u64, tag.0, round)
            ^ (attempt as u64).wrapping_mul(GAMMA3)
            ^ GAMMA3,
    )
}

enum Action {
    Full,
    Probe,
    Shed(ShedReason),
    Skip { until: u64 },
}

struct TagTask<'a> {
    site: SiteId,
    tag_idx: usize,
    slot: &'a mut TagSlot,
    action: Action,
    outcome: Option<TagRoundOutcome>,
    latency_us: u64,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// N per-tag supervised sessions, multiplexed over shared per-site
/// state in deterministic batched rounds. See the module docs for the
/// robustness spine.
pub struct FleetSupervisor {
    config: FleetConfig,
    sites: Vec<SiteState>,
    round: u64,
    next_tag: u64,
    tag_ledger: BoundedLedger<TagTransition>,
    site_ledger: BoundedLedger<SiteTransition>,
}

impl FleetSupervisor {
    /// An empty fleet under `config`.
    pub fn new(config: FleetConfig) -> Self {
        let cap = config.ledger_capacity;
        Self {
            config,
            sites: Vec::new(),
            round: 0,
            next_tag: 0,
            tag_ledger: BoundedLedger::new(cap),
            site_ledger: BoundedLedger::new(cap),
        }
    }

    /// Registers a site. Its steering cache, path cache and fallback
    /// survey are shared by every tag subsequently registered under it.
    pub fn add_site(&mut self, spec: SiteSpec) -> SiteId {
        let id = SiteId(self.sites.len());
        let n_anchors = spec.anchors.len();
        self.sites.push(SiteState {
            id,
            spec,
            engine: crate::engine::LikelihoodEngine::default(),
            tags: Vec::new(),
            capacity: self.config.site_capacity,
            anchor_down: vec![false; n_anchors],
        });
        id
    }

    /// Registers a tag under `site` and returns its fleet-wide id. The
    /// tag's session clones the site engine (sharing the steering
    /// cache), runs with site-managed cache invalidation, and draws its
    /// retry jitter from [`tag_seed`].
    pub fn register_tag(&mut self, site: SiteId) -> TagId {
        let id = TagId(self.next_tag);
        self.next_tag += 1;
        let state = &mut self.sites[site.0];
        let mut rc = self.config.runtime.clone();
        rc.retry.seed = tag_seed(self.config.seed, site, id);
        let localizer = BlocLocalizer::new(state.spec.bloc).with_engine(state.engine.clone());
        let mut sup = SessionSupervisor::new(localizer, state.spec.anchors.len(), rc)
            .with_site_managed_caches();
        if state.spec.fallback.has_estimators() {
            sup = sup.with_fallback(state.spec.fallback.clone());
        }
        state.tags.push(TagSlot {
            id,
            sup,
            bulkhead: BreakerState::Closed,
            opened_at: 0,
            failure_streak: 0,
            panics: 0,
            health: 1.0,
            lane: format!("fleet.s{}.t{}", site.0, id.0),
        });
        id
    }

    /// Overrides one site's admission capacity (the overload-burst
    /// lever: drop it mid-run to force shedding, restore to recover).
    pub fn set_site_capacity(&mut self, site: SiteId, capacity: usize) {
        self.sites[site.0].capacity = capacity;
    }

    /// Fleet rounds completed.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The supervised session behind a tag (read side), if registered.
    pub fn session(&self, site: SiteId, tag: TagId) -> Option<&SessionSupervisor> {
        self.slot(site, tag).map(|s| &s.sup)
    }

    /// A tag's bulkhead state, if registered.
    pub fn bulkhead(&self, site: SiteId, tag: TagId) -> Option<BreakerState> {
        self.slot(site, tag).map(|s| s.bulkhead)
    }

    /// Panics caught at a tag's bulkhead, if registered.
    pub fn tag_panics(&self, site: SiteId, tag: TagId) -> Option<u64> {
        self.slot(site, tag).map(|s| s.panics)
    }

    /// Anchors currently declared down at site level.
    pub fn down_anchors(&self, site: SiteId) -> Vec<usize> {
        self.sites.get(site.0).map_or_else(Vec::new, |s| {
            s.anchor_down
                .iter()
                .enumerate()
                .filter(|(_, &d)| d)
                .map(|(i, _)| i)
                .collect()
        })
    }

    /// The fleet's bounded bulkhead-transition ledger; `total()`
    /// reconciles with the `fleet.bulkhead.*` counters.
    pub fn bulkhead_ledger(&self) -> &BoundedLedger<TagTransition> {
        &self.tag_ledger
    }

    /// The fleet's bounded site-transition ledger; `total()` reconciles
    /// with the `fleet.site.*` counters.
    pub fn site_ledger(&self) -> &BoundedLedger<SiteTransition> {
        &self.site_ledger
    }

    fn slot(&self, site: SiteId, tag: TagId) -> Option<&TagSlot> {
        self.sites
            .get(site.0)
            .and_then(|s| s.tags.iter().find(|t| t.id == tag))
    }

    /// Runs one fleet batch: exactly one [`TagRoundOutcome`] per
    /// registered tag. `dt` is the round period in seconds, applied to
    /// every supervised session that runs. Work is spread across
    /// [`FleetConfig::threads`] workers; outcomes, ledgers and counters
    /// are bit-identical at any thread count.
    pub fn run_batch<D: FleetDriver>(&mut self, dt: f64, driver: &D) -> BatchReport {
        let round = self.round;
        self.round += 1;

        let cfg = self.config.clone();
        let n_sites = self.sites.len();
        let mut pending: Vec<TagTransition> = Vec::new();

        // ── Admission (single-threaded, registration order) ──────────
        let mut tasks: Vec<TagTask> = Vec::new();
        for state in &mut self.sites {
            let site = state.id;
            let capacity = state.capacity;
            let runnable = state
                .tags
                .iter()
                .filter(|t| {
                    t.bulkhead != BreakerState::Open || round >= t.opened_at + cfg.quarantine_rounds
                })
                .count();
            let mut admitted = 0usize;
            for (tag_idx, slot) in state.tags.iter_mut().enumerate() {
                let action = match slot.bulkhead {
                    BreakerState::Open if round < slot.opened_at + cfg.quarantine_rounds => {
                        Action::Skip {
                            until: slot.opened_at + cfg.quarantine_rounds,
                        }
                    }
                    BreakerState::Open => {
                        if admitted < capacity {
                            pending.push(TagTransition {
                                round,
                                site,
                                tag: slot.id,
                                from: BreakerState::Open,
                                to: BreakerState::HalfOpen,
                                cause: "probe",
                            });
                            slot.bulkhead = BreakerState::HalfOpen;
                            admitted += 1;
                            Action::Probe
                        } else {
                            Action::Shed(ShedReason::SiteOverCapacity {
                                queued: runnable,
                                capacity,
                            })
                        }
                    }
                    BreakerState::HalfOpen if admitted < capacity => {
                        admitted += 1;
                        Action::Probe
                    }
                    BreakerState::Closed if admitted < capacity => {
                        admitted += 1;
                        Action::Full
                    }
                    _ => Action::Shed(ShedReason::SiteOverCapacity {
                        queued: runnable,
                        capacity,
                    }),
                };
                tasks.push(TagTask {
                    site,
                    tag_idx,
                    slot,
                    action,
                    outcome: None,
                    latency_us: 0,
                });
            }
        }

        // ── Execution (parallel; no shared mutable state beyond the
        //     site caches, which serialize internally) ────────────────
        let threads = cfg.threads.max(1);
        for_each_chunk_mut_named("fleet.tags", &mut tasks, 1, threads, |_, chunk| {
            for task in chunk {
                let start = Instant::now();
                match &task.action {
                    Action::Full | Action::Probe => {
                        let site = task.site;
                        let tag = task.slot.id;
                        let lane = bloc_obs::Tracer::global().begin(&task.slot.lane);
                        let mut deadline = (cfg.deadline_us > 0).then(|| {
                            let mut d = Deadline::budget(cfg.deadline_us);
                            d.charge(driver.round_latency_us(site, tag, round));
                            d
                        });
                        // The session keeps its attempt-0 fallback evidence
                        // itself, even when a later attempt panics.
                        let sup = &mut task.slot.sup;
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            sup.run_round_with_deadline(dt, deadline.as_mut(), |attempt| {
                                driver.sound(site, tag, round, attempt)
                            })
                        }));
                        task.outcome = Some(match result {
                            Ok(out) => TagRoundOutcome::Round(out),
                            Err(payload) => TagRoundOutcome::Panicked {
                                message: panic_message(payload.as_ref()),
                            },
                        });
                        if let Some(id) = lane {
                            bloc_obs::Tracer::global().end(id);
                        }
                    }
                    Action::Shed(reason) => {
                        let estimate = task.slot.sup.fallback_estimate().and_then(Result::ok);
                        task.outcome = Some(TagRoundOutcome::Shed(ShedRound {
                            reason: reason.clone(),
                            estimate,
                        }));
                    }
                    Action::Skip { until } => {
                        task.outcome = Some(TagRoundOutcome::Quarantined {
                            until_round: *until,
                        });
                    }
                }
                task.latency_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            }
        });

        // ── Post-join (single-threaded, task order): bulkheads, health,
        //     outcomes — all deterministic ─────────────────────────────
        let mut outcomes: Vec<TagRound> = Vec::with_capacity(tasks.len());
        let mut ran: Vec<Vec<usize>> = vec![Vec::new(); n_sites];
        for task in &mut tasks {
            let outcome = task
                .outcome
                .take()
                .unwrap_or(TagRoundOutcome::Quarantined { until_round: round });
            let slot = &mut *task.slot;
            match &outcome {
                TagRoundOutcome::Panicked { .. } => {
                    slot.panics += 1;
                    slot.failure_streak = 0;
                    slot.observe_health(cfg.health_alpha, 0.0);
                    let from = slot.bulkhead;
                    slot.bulkhead = BreakerState::Open;
                    slot.opened_at = round;
                    pending.push(TagTransition {
                        round,
                        site: task.site,
                        tag: slot.id,
                        from,
                        to: BreakerState::Open,
                        cause: "panic",
                    });
                }
                TagRoundOutcome::Round(out) => {
                    ran[task.site.0].push(task.tag_idx);
                    let signal = match outcome.kind() {
                        "fix" => 1.0,
                        "degraded" => 0.5,
                        _ => 0.0,
                    };
                    slot.observe_health(cfg.health_alpha, signal);
                    if out.is_estimate() {
                        slot.failure_streak = 0;
                        if slot.bulkhead == BreakerState::HalfOpen {
                            slot.bulkhead = BreakerState::Closed;
                            pending.push(TagTransition {
                                round,
                                site: task.site,
                                tag: slot.id,
                                from: BreakerState::HalfOpen,
                                to: BreakerState::Closed,
                                cause: "probe",
                            });
                        }
                    } else {
                        slot.failure_streak += 1;
                        if slot.bulkhead == BreakerState::HalfOpen {
                            slot.bulkhead = BreakerState::Open;
                            slot.opened_at = round;
                            pending.push(TagTransition {
                                round,
                                site: task.site,
                                tag: slot.id,
                                from: BreakerState::HalfOpen,
                                to: BreakerState::Open,
                                cause: "probe_failed",
                            });
                        } else if cfg.quarantine_after_failures > 0
                            && slot.failure_streak >= cfg.quarantine_after_failures
                            && slot.bulkhead == BreakerState::Closed
                        {
                            slot.bulkhead = BreakerState::Open;
                            slot.opened_at = round;
                            slot.failure_streak = 0;
                            pending.push(TagTransition {
                                round,
                                site: task.site,
                                tag: slot.id,
                                from: BreakerState::Closed,
                                to: BreakerState::Open,
                                cause: "failures",
                            });
                        }
                    }
                }
                TagRoundOutcome::Shed(_) | TagRoundOutcome::Quarantined { .. } => {
                    // Not the tag's fault: health and streaks untouched.
                }
            }
            outcomes.push(TagRound {
                site: task.site,
                tag: slot.id,
                outcome,
                latency_us: task.latency_us,
            });
        }
        drop(tasks);

        // ── Observability: counters and ledgers (deterministic order) ─
        for entry in &outcomes {
            bloc_obs::counter(&format!("fleet.outcomes.{}", entry.outcome.kind())).inc();
            match &entry.outcome {
                TagRoundOutcome::Shed(shed) => {
                    bloc_obs::counter(&format!("fleet.shed.{}", shed.reason.reason())).inc();
                    if shed.estimate.is_none() {
                        bloc_obs::counter("fleet.shed.no_estimate").inc();
                    }
                }
                TagRoundOutcome::Panicked { .. } => bloc_obs::counter("fleet.panics").inc(),
                _ => {}
            }
        }
        for t in pending {
            bloc_obs::counter(&format!("fleet.bulkhead.{}", t.to.name())).inc();
            self.tag_ledger.push(t);
        }

        // ── Site-level health: aggregate breaker verdicts across tags,
        //     one invalidation pass per membership change ─────────────
        let mut site_events: Vec<SiteTransition> = Vec::new();
        for state in &mut self.sites {
            let active = &ran[state.id.0];
            if active.is_empty() {
                continue;
            }
            let mut changed = false;
            let stale_geometry = state.healthy_geometry();
            for anchor in 1..state.spec.anchors.len() {
                let open = active
                    .iter()
                    .filter(|&&i| state.tags[i].sup.breaker_state(anchor) == BreakerState::Open)
                    .count();
                let frac = open as f64 / active.len() as f64;
                let down = state.anchor_down[anchor];
                // Hysteresis: declare at ≥ quorum, recover below half.
                let verdict = if down {
                    frac >= cfg.site_outage_quorum / 2.0
                } else {
                    frac >= cfg.site_outage_quorum
                };
                if verdict != down {
                    state.anchor_down[anchor] = verdict;
                    changed = true;
                    site_events.push(SiteTransition {
                        round,
                        site: state.id,
                        anchor,
                        down: verdict,
                        open_frac: frac,
                    });
                }
            }
            if changed {
                // The one invalidation pass: retire the steering tables
                // for the geometry that just stopped describing the
                // site, and flush the synthesis path cache.
                state
                    .engine
                    .cache()
                    .invalidate_geometry_with_cause(&stale_geometry, "site");
                if stale_geometry.len() != state.spec.anchors.len() {
                    state
                        .engine
                        .cache()
                        .invalidate_geometry_with_cause(&state.spec.anchors, "site");
                }
                state.spec.path_cache.invalidate_with_cause("site");
            }
        }
        for t in &site_events {
            let kind = if t.down { "outage" } else { "recovery" };
            bloc_obs::counter(&format!("fleet.site.{kind}")).inc();
            self.site_ledger.push(t.clone());
        }

        BatchReport {
            round,
            outcomes,
            site_events,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn seeds_are_distinct_across_tags_and_rounds() {
        let mut seen = std::collections::HashSet::new();
        for site in 0..4 {
            for tag in 0..16 {
                assert!(seen.insert(tag_seed(7, SiteId(site), TagId(tag))));
                for round in 0..8 {
                    for attempt in 0..3 {
                        assert!(seen.insert(sounding_seed(
                            7,
                            SiteId(site),
                            TagId(tag),
                            round,
                            attempt
                        )));
                    }
                }
            }
        }
    }

    #[test]
    fn outcome_kinds_are_distinct() {
        let outcomes = [
            TagRoundOutcome::Shed(ShedRound {
                reason: ShedReason::SiteOverCapacity {
                    queued: 3,
                    capacity: 1,
                },
                estimate: None,
            }),
            TagRoundOutcome::Quarantined { until_round: 9 },
            TagRoundOutcome::Panicked {
                message: "boom".into(),
            },
        ];
        let mut kinds = std::collections::HashSet::new();
        for o in &outcomes {
            assert!(kinds.insert(o.kind()));
            assert!(o.position().is_none());
        }
    }
}
