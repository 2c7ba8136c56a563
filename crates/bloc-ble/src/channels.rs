//! The BLE channel map: 40 channels, 2 MHz wide, over 2400–2480 MHz.
//!
//! Paper Fig. 1(a): "BLE uses 40 frequency bands, 2 MHz wide each, spread
//! over the 2.4 GHz ISM band. Of the 40 bands, 3 are designated
//! advertisement bands and the other 37 are data communication bands."
//!
//! Two numbering schemes coexist in BLE and both matter here:
//!
//! * the **link-layer index** (what `CONNECT_IND`, hopping and whitening
//!   use): data channels 0–36, advertising channels 37/38/39;
//! * the **frequency index** `k` (paper's "subband"): position of the 2 MHz
//!   band within the 80 MHz span, `f = 2402 + 2k MHz`, `k ∈ 0..=39`.
//!
//! Advertising channels sit at frequency indices 0 (2402), 12 (2426) and
//! 39 (2480) — spread across the band to dodge Wi-Fi, which is why data
//! channel *n* maps to frequency index `n+1` for n ≤ 10 and `n+2` for
//! n ≥ 11.

use crate::error::BleError;
use bloc_num::constants::{BLE_CHANNEL_WIDTH_HZ, BLE_NUM_CHANNELS, BLE_NUM_DATA_CHANNELS};

/// A BLE channel, identified by its link-layer index (0..=39).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Channel(u8);

impl Channel {
    /// Builds a channel from a link-layer index, validating range.
    pub fn new(index: u8) -> Result<Self, BleError> {
        if (index as usize) < BLE_NUM_CHANNELS {
            Ok(Self(index))
        } else {
            Err(BleError::InvalidChannel(index))
        }
    }

    /// Builds a data channel (0..=36), validating range.
    pub fn data(index: u8) -> Result<Self, BleError> {
        if (index as usize) < BLE_NUM_DATA_CHANNELS {
            Ok(Self(index))
        } else {
            Err(BleError::InvalidChannel(index))
        }
    }

    /// Link-layer index (0..=39).
    #[inline]
    pub fn index(self) -> u8 {
        self.0
    }

    /// True for the three advertising channels 37..=39.
    #[inline]
    pub(crate) fn is_advertising(self) -> bool {
        self.0 >= 37
    }

    /// True for data channels 0..=36.
    #[inline]
    pub(crate) fn is_data(self) -> bool {
        !self.is_advertising()
    }

    /// Frequency index `k` of this channel: the position of its 2 MHz band
    /// in the 80 MHz span, `f_center = 2402 MHz + 2k MHz` (the paper's
    /// "subband" number in Figs. 8a/8b).
    pub fn freq_index(self) -> usize {
        match self.0 {
            37 => 0,                      // 2402 MHz
            38 => 12,                     // 2426 MHz
            39 => 39,                     // 2480 MHz
            n @ 0..=10 => n as usize + 1, // 2404..=2424 MHz
            n => n as usize + 2,          // 11..=36 → 2428..=2478 MHz
        }
    }

    /// Inverse of [`Self::freq_index`].
    pub fn from_freq_index(k: usize) -> Result<Self, BleError> {
        let ll = match k {
            0 => 37,
            12 => 38,
            39 => 39,
            1..=11 => k as u8 - 1,
            13..=38 => k as u8 - 2,
            _ => return Err(BleError::InvalidChannel(k.min(255) as u8)),
        };
        Ok(Self(ll))
    }

    /// Centre frequency of the channel, hertz.
    #[inline]
    pub fn freq_hz(self) -> f64 {
        2.402e9 + self.freq_index() as f64 * BLE_CHANNEL_WIDTH_HZ
    }

    /// All 37 data channels in link-layer order.
    pub fn all_data() -> impl Iterator<Item = Channel> {
        (0..BLE_NUM_DATA_CHANNELS as u8).map(Channel)
    }

    /// All 40 channels in link-layer order.
    #[cfg(test)]
    pub(crate) fn all() -> impl Iterator<Item = Channel> {
        (0..BLE_NUM_CHANNELS as u8).map(Channel)
    }
}

/// The set of data channels a connection may use — BLE's adaptive frequency
/// hopping blacklist, as exercised by the paper's interference-avoidance
/// experiment (§8.6: "BLE can sometimes blacklist certain channels").
///
/// Stored as a 37-bit mask over link-layer data channel indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ChannelMap {
    mask: u64,
}

impl ChannelMap {
    /// All 37 data channels enabled.
    pub(crate) fn all() -> Self {
        Self {
            mask: (1u64 << BLE_NUM_DATA_CHANNELS) - 1,
        }
    }

    /// A map from an explicit list of enabled data channels.
    ///
    /// Errors with [`BleError::EmptyChannelMap`] when fewer than 2 channels
    /// are enabled (the spec minimum) and with [`BleError::InvalidChannel`]
    /// for indices ≥ 37.
    pub fn from_channels(channels: &[u8]) -> Result<Self, BleError> {
        let mut mask = 0u64;
        for &c in channels {
            if c as usize >= BLE_NUM_DATA_CHANNELS {
                return Err(BleError::InvalidChannel(c));
            }
            mask |= 1 << c;
        }
        let map = Self { mask };
        if map.count() < 2 {
            return Err(BleError::EmptyChannelMap);
        }
        Ok(map)
    }

    /// Keeps every `stride`-th data channel starting at `offset` — the
    /// subsampling pattern of the paper's Fig. 11 experiment.
    #[cfg(test)]
    pub(crate) fn subsampled(stride: usize, offset: usize) -> Result<Self, BleError> {
        let chans: Vec<u8> = (0..BLE_NUM_DATA_CHANNELS)
            .filter(|c| c % stride == offset % stride)
            .map(|c| c as u8)
            .collect();
        Self::from_channels(&chans)
    }

    /// True when data channel `c` is enabled.
    #[inline]
    pub fn contains(self, c: Channel) -> bool {
        c.is_data() && (self.mask >> c.index()) & 1 == 1
    }

    /// Number of enabled channels.
    #[inline]
    pub fn count(self) -> u32 {
        self.mask.count_ones()
    }

    /// Enabled channels in ascending link-layer order — the remap table of
    /// channel-selection algorithm #1.
    pub(crate) fn used_channels(self) -> Vec<Channel> {
        Channel::all_data().filter(|c| self.contains(*c)).collect()
    }

    /// Disables a channel. Errors if that would leave fewer than 2 enabled.
    #[cfg(test)]
    pub(crate) fn blacklist(&mut self, c: Channel) -> Result<(), BleError> {
        if !c.is_data() {
            return Err(BleError::InvalidChannel(c.index()));
        }
        let next = self.mask & !(1 << c.index());
        if next.count_ones() < 2 {
            return Err(BleError::EmptyChannelMap);
        }
        self.mask = next;
        Ok(())
    }

    /// Raw 37-bit mask (bit *i* = data channel *i* enabled).
    pub(crate) fn mask(self) -> u64 {
        self.mask
    }
}

impl Default for ChannelMap {
    fn default() -> Self {
        Self::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn advertising_channel_frequencies() {
        // The spec pins these: 37→2402, 38→2426, 39→2480 MHz.
        assert_eq!(Channel::new(37).unwrap().freq_hz(), 2.402e9);
        assert_eq!(Channel::new(38).unwrap().freq_hz(), 2.426e9);
        assert_eq!(Channel::new(39).unwrap().freq_hz(), 2.480e9);
    }

    #[test]
    fn data_channel_frequencies_straddle_adv() {
        assert_eq!(Channel::data(0).unwrap().freq_hz(), 2.404e9);
        assert_eq!(Channel::data(10).unwrap().freq_hz(), 2.424e9);
        assert_eq!(Channel::data(11).unwrap().freq_hz(), 2.428e9);
        assert_eq!(Channel::data(36).unwrap().freq_hz(), 2.478e9);
    }

    #[test]
    fn freq_index_is_bijective() {
        let mut seen = [false; 40];
        for c in Channel::all() {
            let k = c.freq_index();
            assert!(!seen[k], "freq index {k} claimed twice");
            seen[k] = true;
            assert_eq!(Channel::from_freq_index(k).unwrap(), c);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn invalid_indices_rejected() {
        assert!(Channel::new(40).is_err());
        assert!(Channel::data(37).is_err());
        assert!(Channel::from_freq_index(40).is_err());
    }

    #[test]
    fn full_map_has_37_channels() {
        let m = ChannelMap::all();
        assert_eq!(m.count(), 37);
        assert_eq!(m.used_channels().len(), 37);
    }

    #[test]
    fn subsampling_patterns() {
        // Fig. 11: every 2nd channel → 19 of 37, every 4th → 10 of 37.
        assert_eq!(ChannelMap::subsampled(2, 0).unwrap().count(), 19);
        assert_eq!(ChannelMap::subsampled(4, 0).unwrap().count(), 10);
    }

    #[test]
    fn blacklist_enforces_minimum() {
        let mut m = ChannelMap::from_channels(&[0, 1, 2]).unwrap();
        m.blacklist(Channel::data(0).unwrap()).unwrap();
        assert_eq!(m.count(), 2);
        let e = m.blacklist(Channel::data(1).unwrap());
        assert_eq!(e, Err(BleError::EmptyChannelMap));
    }

    #[test]
    fn blacklist_rejects_adv_channel() {
        let mut m = ChannelMap::all();
        assert!(m.blacklist(Channel::new(38).unwrap()).is_err());
    }

    #[test]
    fn map_minimum_size_enforced() {
        assert_eq!(
            ChannelMap::from_channels(&[5]),
            Err(BleError::EmptyChannelMap)
        );
        assert!(ChannelMap::from_channels(&[5, 6]).is_ok());
    }

    proptest! {
        #[test]
        fn prop_channel_freq_in_ism_band(idx in 0u8..40) {
            let f = Channel::new(idx).unwrap().freq_hz();
            prop_assert!((2.402e9..=2.480e9).contains(&f));
            // Channel grid: 2 MHz raster anchored at 2402.
            prop_assert_eq!(((f - 2.402e9) / 2.0e6).fract(), 0.0);
        }

        #[test]
        fn prop_used_channels_sorted_and_contained(mask_bits in proptest::collection::vec(0u8..37, 2..37)) {
            if let Ok(m) = ChannelMap::from_channels(&mask_bits) {
                let used = m.used_channels();
                prop_assert!(used.windows(2).all(|w| w[0] < w[1]));
                for c in used {
                    prop_assert!(m.contains(c));
                }
            }
        }
    }
}
