//! Channel-selection algorithm #1: `unmapped_next = (unmapped + hop) mod 37`.
//!
//! Paper §2.1: "the master and slave hop through the 37 non-broadcast bands,
//! jumping by f_hop bands every time a packet is exchanged… Since the total
//! number of bands is prime (37), the transmissions will hop through all
//! available bands before repeating." §5.1 builds BLoc's 80 MHz bandwidth
//! stitching on exactly this property, so the hop engine is a first-class
//! substrate here, including the remapping step used when a channel map
//! blacklists channels (exercised by the Fig. 11 interference experiment).

use crate::channels::{Channel, ChannelMap};
use crate::error::BleError;
use bloc_num::constants::BLE_NUM_DATA_CHANNELS;

/// Validated hop increment (spec range 5..=16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HopIncrement(u8);

impl HopIncrement {
    /// Validates a hop increment against the spec range 5..=16.
    pub fn new(hop: u8) -> Result<Self, BleError> {
        if (5..=16).contains(&hop) {
            Ok(Self(hop))
        } else {
            Err(BleError::InvalidHop(hop))
        }
    }

    /// The raw increment.
    pub fn get(self) -> u8 {
        self.0
    }
}

/// The hop state of one connection: produces the data channel used for each
/// successive connection event (channel-selection algorithm #1).
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HopSequence {
    hop: HopIncrement,
    map: ChannelMap,
    last_unmapped: u8,
    /// Connection events elapsed (the first call to `next_channel` is
    /// event 0).
    pub event_counter: u64,
}

impl HopSequence {
    /// Creates the hop engine for a new connection.
    ///
    /// `first_unmapped` is the `lastUnmappedChannel` before the first event
    /// (spec initializes it to 0).
    pub fn new(hop: HopIncrement, map: ChannelMap, first_unmapped: u8) -> Result<Self, BleError> {
        if first_unmapped as usize >= BLE_NUM_DATA_CHANNELS {
            return Err(BleError::InvalidChannel(first_unmapped));
        }
        Ok(Self {
            hop,
            map,
            last_unmapped: first_unmapped,
            event_counter: 0,
        })
    }

    /// Applies a channel-map update (as the LL_CHANNEL_MAP_IND procedure
    /// would). Takes effect from the next event.
    pub(crate) fn set_channel_map(&mut self, map: ChannelMap) {
        self.map = map;
    }

    /// Advances to the next connection event and returns its data channel.
    ///
    /// Algorithm #1: `unmapped = (last + hop) mod 37`; if `unmapped` is in
    /// the channel map use it directly, otherwise remap via
    /// `usedChannels[unmapped mod numUsed]`.
    pub(crate) fn next_channel(&mut self) -> Channel {
        let unmapped = (self.last_unmapped + self.hop.get()) % BLE_NUM_DATA_CHANNELS as u8;
        self.last_unmapped = unmapped;
        self.event_counter += 1;
        self.map_unmapped(unmapped)
    }

    /// Applies the blacklist remap of algorithm #1 to an unmapped index.
    fn map_unmapped(&self, unmapped: u8) -> Channel {
        // Invariant, not input: `unmapped` is reduced mod 37, the data
        // channel count.
        #[allow(clippy::expect_used)]
        let candidate = Channel::data(unmapped).expect("mod 37 keeps index in range");
        if self.map.contains(candidate) {
            candidate
        } else {
            let used = self.map.used_channels();
            used[unmapped as usize % used.len()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hop(h: u8) -> HopIncrement {
        HopIncrement::new(h).unwrap()
    }

    #[test]
    fn hop_range_validated() {
        assert!(HopIncrement::new(4).is_err());
        assert!(HopIncrement::new(17).is_err());
        assert!(HopIncrement::new(5).is_ok());
        assert!(HopIncrement::new(16).is_ok());
    }

    #[test]
    fn example_from_paper() {
        // Paper §2.1: "if the first transmission happens at channel 10, and
        // f_hop = 3, then the next transmission will be at channel 13."
        // (3 is outside the spec's 5..=16, so the paper's illustration uses
        // an illustrative hop; we check the arithmetic with hop = 5.)
        let mut seq = HopSequence::new(hop(5), ChannelMap::all(), 10).unwrap();
        assert_eq!(seq.next_channel().index(), 15);
        assert_eq!(seq.next_channel().index(), 20);
    }

    #[test]
    fn wraps_modulo_37() {
        let mut seq = HopSequence::new(hop(16), ChannelMap::all(), 30).unwrap();
        assert_eq!(seq.next_channel().index(), (30 + 16) % 37);
    }

    #[test]
    fn full_cycle_covers_all_37_channels() {
        // 37 is prime, so every valid hop visits every data channel once
        // per cycle — the full span BLoc's stitching needs (paper §5.1).
        for h in 5..=16 {
            let mut seq = HopSequence::new(hop(h), ChannelMap::all(), 0).unwrap();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..37 {
                seen.insert(seq.next_channel().index());
            }
            assert_eq!(seen.len(), 37, "hop {h} must cover all data channels");
        }
    }

    #[test]
    fn remapping_respects_blacklist() {
        let map = ChannelMap::subsampled(2, 0).unwrap(); // even channels only
        let mut seq = HopSequence::new(hop(7), map, 0).unwrap();
        for _ in 0..200 {
            let c = seq.next_channel();
            assert!(map.contains(c), "scheduled blacklisted channel {c:?}");
        }
    }

    #[test]
    fn event_counter_advances() {
        let mut seq = HopSequence::new(hop(5), ChannelMap::all(), 0).unwrap();
        for k in 1..=5 {
            seq.next_channel();
            assert_eq!(seq.event_counter, k);
        }
    }

    #[test]
    fn channel_map_update_takes_effect() {
        let mut seq = HopSequence::new(hop(5), ChannelMap::all(), 0).unwrap();
        seq.next_channel();
        let restricted = ChannelMap::from_channels(&[1, 2, 3]).unwrap();
        seq.set_channel_map(restricted);
        for _ in 0..50 {
            assert!(restricted.contains(seq.next_channel()));
        }
    }

    #[test]
    fn invalid_start_channel_rejected() {
        assert!(HopSequence::new(hop(5), ChannelMap::all(), 37).is_err());
    }

    proptest! {
        #[test]
        fn prop_full_coverage_within_37_events(h in 5u8..=16, start in 0u8..37) {
            let mut seq = HopSequence::new(hop(h), ChannelMap::all(), start).unwrap();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..37 {
                seen.insert(seq.next_channel().index());
            }
            prop_assert_eq!(seen.len(), 37);
        }
    }
}
