//! The fast channel-synthesis engine: frequency-independent path geometry
//! extracted once per link, evaluated across every sounded channel by the
//! workspace's one phasor GEMM, and cached across queries.
//!
//! [`crate::environment::Environment::channel`] (paper Eq. 2) rebuilds the
//! full path list — LOS obstruction tests, every reflector's specular +
//! scatter sub-paths — for **every frequency
//! query**, even though the geometry is frequency-independent. This module
//! mirrors the `bloc_core::engine` kernel architecture on the sounding
//! side (DESIGN.md §10):
//!
//! * [`PathSet`] — the geometry phase, SoA (lengths + per-path complex
//!   gains with the 1/d spreading folded in), filled by
//!   [`crate::environment::Environment::path_set_into`] into reusable
//!   buffers;
//! * [`PathSet::sweep_tones_with`] — the evaluation over one sounding's
//!   channels: every BLE RF channel sits on the 2 MHz grid from 2402 to
//!   2480 MHz, so [`bloc_num::sweep::sweep_tones`] runs the likelihood
//!   engine's envelope GEMM with rows on that grid, the link's paths as
//!   bands and the ±250 kHz GFSK tones as lanes (a few `cis` per path
//!   instead of 2 × 37 transcendentals);
//! * [`PathCache`] — link-level memoization keyed by (environment
//!   revision, tx, rx) of the static anchor↔master PathSets (§5.2 — the
//!   anchors never move): computed once per deployment, invalidated when
//!   the environment mutates or a runtime supervisor calls
//!   [`PathCache::invalidate_with_cause`] on a geometry swap. Tag links are not
//!   cached: each sounding traces them into its worker's scratch.
//!
//! The naive per-band path remains in `environment.rs` as the reference
//! implementation; `synth_equivalence.rs` pins the two together to
//! ≤ 1e-12 relative error.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::environment::Environment;
use bloc_ble::channels::Channel;
use bloc_num::constants::SPEED_OF_LIGHT;
use bloc_num::sweep;
use bloc_num::{complex, C64, P2};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// The frequency-independent path geometry of one directed link: the
/// evaluation half of paper Eq. 2 after the geometry half has been
/// hoisted out.
///
/// Structure-of-arrays: `lengths[p]` is path `p`'s geometric length
/// (metres, the raw value whose phase slope Eq. 2 integrates) and
/// `gains[p]` its full complex amplitude `A_p / max(d_p, 1 mm)` —
/// reflection/scatter coefficient with the spreading loss folded in, so
/// evaluation is a pure phasor sum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathSet {
    lengths: Vec<f64>,
    gains: Vec<C64>,
}

impl PathSet {
    /// An empty set (fill it with
    /// [`crate::environment::Environment::path_set_into`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.lengths.len()
    }

    /// True when no paths are present.
    pub fn is_empty(&self) -> bool {
        self.lengths.is_empty()
    }

    /// Approximate heap footprint of the path arrays; feeds the
    /// `cache.path.resident_bytes` gauge.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.lengths.len() * (8 + std::mem::size_of::<C64>())
    }

    /// Empties the set, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.lengths.clear();
        self.gains.clear();
    }

    /// Grows the buffers to hold `n` paths without reallocation.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.lengths.reserve(n.saturating_sub(self.lengths.len()));
        self.gains.reserve(n.saturating_sub(self.gains.len()));
    }

    /// Appends one path, folding the spreading loss into the stored gain
    /// (same `max(d, 1 mm)` guard as `crate::environment::Path::channel_at`).
    pub fn push(&mut self, length: f64, coeff: C64) {
        self.lengths.push(length);
        self.gains.push(coeff / length.max(1e-3));
    }

    /// The channel at a single frequency — per-band `cis` evaluation,
    /// algebraically identical to summing
    /// `crate::environment::Path::channel_at` over the path list.
    pub fn channel_at(&self, f_hz: f64) -> C64 {
        let w = -std::f64::consts::TAU * f_hz / SPEED_OF_LIGHT;
        let mut h = complex::ZERO;
        for (&len, &gain) in self.lengths.iter().zip(&self.gains) {
            h += gain * C64::cis(w * len);
        }
        h
    }

    /// Evaluates the two GFSK tone channels `[h(f−δ), h(f+δ)]`
    /// (`δ` = [`crate::sounder::TONE_OFFSET_HZ`]) at every channel of
    /// `channels` in a single pass, writing `out[k]` for `channels[k]`
    /// (any order, duplicates allowed; `out.len()` must equal
    /// `channels.len()`).
    ///
    /// [`bloc_num::sweep::sweep_tones`] costs a few `cis` calls per path
    /// — its phase at 2402 MHz, the ±δ tone rotation and the 2 MHz row
    /// step — and then one fused complex multiply-add per path for every
    /// row quad of both tones: the phase `−2πd f/c` is linear in `f`, and
    /// the rows are the channels' integer frequency indices. Its scratch
    /// is per thread, so steady-state sweeps allocate nothing.
    pub fn sweep_tones_with(&self, channels: &[Channel], out: &mut [[C64; 2]]) {
        let rows = channels.iter().map(|c| c.freq_index());
        sweep::sweep_tones(&self.lengths, &self.gains, rows, out);
    }
}

#[derive(Debug, Default)]
struct CacheInner {
    /// The environment revision the entries were built against.
    revision: u64,
    links: HashMap<[u64; 4], Arc<PathSet>>,
    /// Running approximate payload bytes.
    bytes: usize,
}

impl CacheInner {
    fn clear(&mut self) -> usize {
        let dropped = self.links.len();
        self.links.clear();
        self.bytes = 0;
        dropped
    }
}

/// A shared, thread-safe memo of the static anchor↔master [`PathSet`]s,
/// keyed by (environment revision, tx, rx).
///
/// The deployment is fixed (§5.2), so an entry lives as long as the
/// environment revision — across every tag location of a sweep and every
/// tag of a fleet site. Tag links are never stored: a tag moves between
/// soundings and the tags of a site are sounded in parallel, so a memo of
/// them would evict itself. Clones share storage (`Arc`), so a
/// [`crate::sounder::Sounder`] clone — e.g. the per-retry clone the
/// testbed runner makes — keeps its warm cache. Entries are dropped when
/// the environment's revision changes (any mutation bumps it) or a
/// supervisor calls [`PathCache::invalidate_with_cause`] after swapping
/// geometry.
///
/// Telemetry follows the workspace cache convention
/// ([`bloc_obs::CacheStats`]): `cache.path.{hits,misses,invalidations,
/// invalidations.<cause>,evicted}` counters plus
/// `cache.path.resident_{entries,bytes}` gauges; invalidation causes are
/// `revision`, `manual` and, from the supervisors, `breaker` and `site`.
#[derive(Debug, Clone)]
pub struct PathCache {
    inner: Arc<Mutex<CacheInner>>,
    stats: bloc_obs::CacheStats,
}

impl Default for PathCache {
    fn default() -> Self {
        Self {
            inner: Arc::default(),
            stats: bloc_obs::CacheStats::global("path"),
        }
    }
}

fn link_key(tx: P2, rx: P2) -> [u64; 4] {
    [
        tx.x.to_bits(),
        tx.y.to_bits(),
        rx.x.to_bits(),
        rx.y.to_bits(),
    ]
}

impl PathCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The [`PathSet`] of the static link `tx → rx` in `env`, computed
    /// on miss and memoized for the environment revision.
    pub fn path_set(&self, env: &Environment, tx: P2, rx: P2) -> Arc<PathSet> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.revision != env.revision() {
            // A revision-0 cache that has never stored anything is just
            // cold, not invalidated — only count the event once warm.
            if !inner.links.is_empty() || inner.revision != 0 {
                let dropped = inner.clear();
                self.stats.invalidated("revision", dropped);
            }
            inner.revision = env.revision();
        }
        let key = link_key(tx, rx);
        if let Some(hit) = inner.links.get(&key) {
            self.stats.hit();
            return Arc::clone(hit);
        }
        self.stats.miss();
        let mut set = PathSet::new();
        env.path_set_into(tx, rx, &mut set);
        let set = Arc::new(set);
        inner.bytes += set.approx_bytes();
        inner.links.insert(key, Arc::clone(&set));
        self.stats.resident(inner.links.len(), inner.bytes);
        set
    }

    /// Drops every entry, attributing the event to `cause` in
    /// `cache.path.invalidations.<cause>` (the runtime supervisor passes
    /// `breaker` on membership changes); returns how many were dropped.
    /// Call after swapping anchor geometry or replacing the environment
    /// mid-session.
    pub fn invalidate_with_cause(&self, cause: &'static str) -> usize {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let dropped = inner.clear();
        self.stats.invalidated(cause, dropped);
        self.stats.resident(0, 0);
        dropped
    }

    /// Number of cached link entries.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.links.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// splitmix64 finalizer — the workspace's standard stream splitter.
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::geometry::Room;
    use crate::materials::Material;
    use crate::sounder::TONE_OFFSET_HZ;
    use rand::{rngs::StdRng, SeedableRng};

    fn test_env(seed: u64) -> Environment {
        let mut rng = StdRng::seed_from_u64(seed);
        Environment::in_room(Room::new(5.0, 6.0))
            .with_walls(Material::metal(), &mut rng)
            .unwrap()
    }

    #[test]
    fn path_set_matches_reference_channel() {
        let env = test_env(1);
        let (tx, rx) = (P2::new(1.2, 1.7), P2::new(3.9, 4.1));
        let mut set = PathSet::new();
        env.path_set_into(tx, rx, &mut set);
        for k in 0..5 {
            let f = 2.402e9 + k as f64 * 17e6;
            let reference = env.channel(tx, rx, f);
            let fast = set.channel_at(f);
            assert!(
                (fast - reference).abs() <= 1e-12 * reference.abs().max(1e-12),
                "f = {f}: {fast:?} vs {reference:?}"
            );
        }
    }

    /// Asserts `out` holds `set`'s tone pair at each of `channels`.
    fn assert_tones(set: &PathSet, channels: &[Channel], out: &[[C64; 2]]) {
        let scale: f64 = out.iter().flatten().map(|h| h.abs()).fold(0.0f64, f64::max);
        for (k, ch) in channels.iter().enumerate() {
            for (t, sign) in [(0usize, -1.0), (1usize, 1.0)] {
                let reference = set.channel_at(ch.freq_hz() + sign * TONE_OFFSET_HZ);
                assert!(
                    (out[k][t] - reference).abs() <= 1e-12 * scale.max(1e-12),
                    "slot {k} tone {t}: {:?} vs {reference:?}",
                    out[k][t]
                );
            }
        }
    }

    #[test]
    fn sweep_recurrence_matches_per_band_cis() {
        let env = test_env(2);
        let (tx, rx) = (P2::new(0.7, 2.3), P2::new(4.4, 5.2));
        let mut set = PathSet::new();
        env.path_set_into(tx, rx, &mut set);
        let channels = crate::sounder::all_data_channels();
        let mut out = vec![[complex::ZERO; 2]; channels.len()];
        set.sweep_tones_with(&channels, &mut out);
        assert_tones(&set, &channels, &out);
    }

    #[test]
    fn sweep_handles_sounding_order_and_duplicates() {
        // Hop order is not ascending, and long schedules revisit channels.
        let env = test_env(4);
        let mut set = PathSet::new();
        env.path_set_into(P2::new(2.0, 2.0), P2::new(0.5, 4.0), &mut set);
        let channels: Vec<Channel> = [12, 0, 39, 0, 1]
            .map(|k| Channel::from_freq_index(k).unwrap())
            .to_vec();
        let mut out = vec![[complex::ZERO; 2]; channels.len()];
        set.sweep_tones_with(&channels, &mut out);
        assert_tones(&set, &channels, &out);
        assert_eq!(out[1], out[3], "duplicate channels get identical sweeps");
    }

    #[test]
    fn degenerate_combs_are_safe() {
        let env = test_env(5);
        let mut set = PathSet::new();
        env.path_set_into(P2::new(1.0, 1.0), P2::new(2.0, 2.0), &mut set);
        let ch = Channel::from_freq_index(19).unwrap();
        for channels in [vec![], vec![ch], vec![ch, ch]] {
            let mut out = vec![[complex::ZERO; 2]; channels.len()];
            set.sweep_tones_with(&channels, &mut out);
            assert_tones(&set, &channels, &out);
        }
    }

    #[test]
    fn cache_invalidates_on_environment_mutation() {
        let mut env = test_env(7);
        let cache = PathCache::new();
        let (tag, anchor) = (P2::new(1.0, 1.0), P2::new(2.5, 0.0));
        let before = cache.path_set(&env, tag, anchor);
        env.add_obstruction(crate::environment::Obstruction {
            blocker: crate::geometry::Segment::new(P2::new(1.5, 0.0), P2::new(1.5, 6.0)),
            loss_db: 20.0,
        });
        let after = cache.path_set(&env, tag, anchor);
        assert!(
            !Arc::ptr_eq(&before, &after),
            "mutation must bump the revision and drop the entry"
        );
        assert!(
            (after.channel_at(2.44e9) - env.channel(tag, anchor, 2.44e9)).abs() < 1e-12,
            "rebuilt entry reflects the mutated environment"
        );
    }

    #[test]
    fn explicit_invalidate_drops_everything() {
        let env = test_env(8);
        let cache = PathCache::new();
        let _ = cache.path_set(&env, P2::new(1.0, 1.0), P2::new(2.5, 0.0));
        let _ = cache.path_set(&env, P2::new(2.5, 0.0), P2::new(0.0, 3.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.invalidate_with_cause("manual"), 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn clones_share_storage() {
        let env = test_env(9);
        let cache = PathCache::new();
        let clone = cache.clone();
        let a = cache.path_set(&env, P2::new(1.0, 1.0), P2::new(2.5, 0.0));
        let b = clone.path_set(&env, P2::new(1.0, 1.0), P2::new(2.5, 0.0));
        assert!(Arc::ptr_eq(&a, &b), "clone must see the original's entries");
    }
}
