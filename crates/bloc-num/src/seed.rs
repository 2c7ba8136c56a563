//! Deterministic seed derivation — every stream of "randomness" in the
//! workspace is a pure hash, never hidden RNG state.
//!
//! The fault plan, the retry jitter, and the fleet layer all need
//! *replayable* randomness: any (site, tag, round, attempt) coordinate
//! must be reconstructible in isolation — for a solo-baseline replay, a
//! bisecting rerun, or a bit-identity check across executor thread
//! counts. The discipline, shared by `bloc_chan::faults` and
//! `bloc_core::runtime`, is to derive every stream by hashing its
//! coordinates with [`splitmix64`] and feed the result to a seeded
//! generator (or use the hash bits directly). This module is the one
//! home for those helpers so the constants cannot drift apart.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// Golden-ratio increment used to decorrelate coordinate axes before
/// finalizing (the canonical splitmix64 gamma).
pub(crate) const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Second odd multiplier for a further independent axis (shared with the
/// retry jitter's attempt axis).
pub(crate) const GAMMA2: u64 = 0xA24B_AED4_963E_E407;

/// Third odd multiplier (round axis of [`stream_seed`]).
pub const GAMMA3: u64 = 0xD6E8_FEB8_6659_FD93;

/// The splitmix64 finalizer: a high-quality 64-bit mix whose output is a
/// pure function of its input. Identical to the hash used by
/// `bloc_chan::faults::FaultPlan` and the runtime's retry jitter.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of one (site, tag, round) stream under a base seed: a pure
/// hash, so fleet runs are replayable coordinate-by-coordinate and
/// bit-identical across executor thread counts. Each axis is spread by
/// its own odd constant before mixing, so neighbouring coordinates land
/// in unrelated streams.
pub fn stream_seed(base: u64, site: u64, tag: u64, round: u64) -> u64 {
    splitmix64(
        base ^ site.wrapping_mul(GAMMA) ^ tag.wrapping_mul(GAMMA2) ^ round.wrapping_mul(GAMMA3),
    )
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // splitmix64(seed = 0) first output, per the reference
        // implementation (Steele/Lea/Flood).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn stream_seed_is_pure_and_axis_sensitive() {
        let s = stream_seed(42, 1, 2, 3);
        assert_eq!(s, stream_seed(42, 1, 2, 3));
        // Every axis matters, including swapping values across axes.
        assert_ne!(s, stream_seed(43, 1, 2, 3));
        assert_ne!(s, stream_seed(42, 2, 1, 3));
        assert_ne!(s, stream_seed(42, 1, 3, 2));
        assert_ne!(s, stream_seed(42, 1, 2, 4));
    }

    #[test]
    fn neighbouring_streams_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for site in 0..4u64 {
            for tag in 0..64u64 {
                for round in 0..16u64 {
                    assert!(seen.insert(stream_seed(7, site, tag, round)));
                }
            }
        }
    }
}
