//! BLoc's localization packets: payloads whose **on-air** bits are long runs
//! of 0s followed by long runs of 1s (paper §4).
//!
//! "We construct BLE data packets with long sequences of bit 0 followed by
//! long sequences of bit 1. Because we send long sequences of bit 0, the
//! frequency value settles at f₀ and we can then measure the wireless
//! channel at f₀." — paper §4.
//!
//! There is a subtlety the paper glosses over: data-channel PDUs are
//! **whitened** on air ([`crate::whitening`]), so a payload of literal
//! `0x00`/`0xFF` bytes would be scrambled and the runs destroyed. The
//! payload must be *pre-whitened*: since whitening is an XOR stream, handing
//! the link layer `desired ⊕ stream` makes the transmitted bits equal
//! `desired`. This module does that bookkeeping, and also reports where the
//! stable (frequency-settled) CSI measurement windows fall inside the
//! packet, accounting for the Gaussian filter's settling time.

use crate::access_address::AccessAddress;
use crate::channels::Channel;
use crate::error::BleError;
use crate::packet::Frame;
use crate::pdu::{DataPdu, Llid};
use crate::whitening::whitening_stream;

/// How many bits at each end of a run are discarded while the Gaussian
/// filter settles (the filter spans ±1–2 symbols; see `bloc-phy::pulse`).
pub const SETTLE_BITS: usize = 2;

/// A contiguous run of equal bits inside the payload, in payload-bit
/// coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Run {
    /// First payload bit of the run.
    pub start: usize,
    /// Run length in bits.
    pub len: usize,
    /// The repeated bit value (false ⇒ tone at f₀, true ⇒ tone at f₁).
    pub bit: bool,
}

impl Run {
    /// The sub-range of this run usable for CSI measurement after
    /// discarding `settle` bits at each end; `None` if nothing remains.
    pub(crate) fn stable_window(&self, settle: usize) -> Option<(usize, usize)> {
        if self.len <= 2 * settle {
            return None;
        }
        Some((self.start + settle, self.len - 2 * settle))
    }
}

/// The desired on-air payload bit pattern: `pairs` repetitions of
/// (`run_bits` zeros, `run_bits` ones).
pub(crate) fn run_pattern(run_bits: usize, pairs: usize) -> Vec<bool> {
    let mut bits = Vec::with_capacity(run_bits * 2 * pairs);
    for _ in 0..pairs {
        bits.extend(std::iter::repeat_n(false, run_bits));
        bits.extend(std::iter::repeat_n(true, run_bits));
    }
    bits
}

/// Finds all runs of at least `min_run` equal bits in a bit sequence.
pub(crate) fn find_runs(bits: &[bool], min_run: usize) -> Vec<Run> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bits.len() {
        let bit = bits[i];
        let start = i;
        while i < bits.len() && bits[i] == bit {
            i += 1;
        }
        let len = i - start;
        if len >= min_run {
            runs.push(Run { start, len, bit });
        }
    }
    runs
}

/// A localization packet: the frame plus the metadata the CSI extractor
/// needs (where the stable tone windows are, in on-air bit coordinates).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LocalizationPacket {
    /// The fully-framed packet (pre-whitened payload already applied).
    pub frame: Frame,
    /// The channel the frame was built for (pre-whitening is
    /// channel-specific!).
    pub channel: Channel,
    /// Desired on-air payload bits (the run pattern).
    pub on_air_payload: Vec<bool>,
    /// Runs within [`Self::on_air_payload`] (payload-bit coordinates).
    pub runs: Vec<Run>,
}

/// On-air bit offset of the PDU payload: preamble (8) + access address (32)
/// + data PDU header (16).
pub(crate) const PAYLOAD_BIT_OFFSET: usize = 8 + 32 + 16;

/// Whitening-stream bit offset of the PDU payload (whitening starts at the
/// PDU header).
const PAYLOAD_WHITENING_OFFSET: usize = 16;

impl LocalizationPacket {
    /// Builds a localization packet for `channel` whose on-air payload is
    /// `pairs` × (`run_bits` zeros then `run_bits` ones).
    ///
    /// The payload length must be whole bytes: `run_bits · pairs · 2 ≡ 0
    /// (mod 8)`; errors with [`BleError::PayloadTooLong`] when the pattern
    /// exceeds the 255-byte PDU payload capacity.
    pub fn build(
        channel: Channel,
        access_address: AccessAddress,
        crc_init: u32,
        run_bits: usize,
        pairs: usize,
    ) -> Result<Self, BleError> {
        let desired = run_pattern(run_bits, pairs);
        assert!(
            desired.len().is_multiple_of(8),
            "run pattern must fill whole bytes (got {} bits)",
            desired.len()
        );
        let n_bytes = desired.len() / 8;
        if n_bytes > 255 {
            return Err(BleError::PayloadTooLong(n_bytes));
        }

        // Pre-whiten: payload = desired ⊕ whitening-stream (offset past the
        // 2 header bytes the whitener consumes first).
        let stream = whitening_stream(channel, PAYLOAD_WHITENING_OFFSET + desired.len());
        let payload_bits: Vec<bool> = desired
            .iter()
            .enumerate()
            .map(|(i, &d)| d ^ stream[PAYLOAD_WHITENING_OFFSET + i])
            .collect();
        let payload = crate::packet::bits_to_bytes(&payload_bits);

        let pdu = DataPdu {
            llid: Llid::DataStart,
            nesn: false,
            sn: false,
            md: false,
            payload,
        }
        .encode()?;
        let frame = Frame::new(access_address, pdu, crc_init);
        let runs = find_runs(&desired, run_bits.min(2));
        Ok(Self {
            frame,
            channel,
            on_air_payload: desired,
            runs,
        })
    }

    /// The on-air bit sequence of the whole frame (what the modulator
    /// transmits). The payload region, bits
    /// `PAYLOAD_BIT_OFFSET .. PAYLOAD_BIT_OFFSET + on_air_payload.len()`,
    /// carries the run pattern verbatim.
    pub fn air_bits(&self) -> Vec<bool> {
        self.frame.encode_bits(self.channel)
    }

    /// Stable CSI windows in **on-air bit** coordinates: for each run, the
    /// window after discarding [`SETTLE_BITS`] at each end, tagged with the
    /// tone (false ⇒ f₀, true ⇒ f₁).
    pub fn stable_windows(&self, settle: usize) -> Vec<(usize, usize, bool)> {
        self.runs
            .iter()
            .filter_map(|r| {
                r.stable_window(settle)
                    .map(|(start, len)| (PAYLOAD_BIT_OFFSET + start, len, r.bit))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn aa() -> AccessAddress {
        let mut rng = StdRng::seed_from_u64(21);
        AccessAddress::generate(&mut rng)
    }

    fn ch(i: u8) -> Channel {
        Channel::new(i).unwrap()
    }

    #[test]
    fn pattern_shape() {
        let p = run_pattern(8, 2);
        assert_eq!(p.len(), 32);
        assert!(p[..8].iter().all(|&b| !b));
        assert!(p[8..16].iter().all(|&b| b));
        assert!(p[16..24].iter().all(|&b| !b));
    }

    #[test]
    fn find_runs_basic() {
        let bits = [false, false, false, true, true, false];
        let runs = find_runs(&bits, 2);
        assert_eq!(
            runs,
            vec![
                Run {
                    start: 0,
                    len: 3,
                    bit: false
                },
                Run {
                    start: 3,
                    len: 2,
                    bit: true
                }
            ]
        );
    }

    #[test]
    fn on_air_bits_contain_the_runs() {
        // The whole point: after framing AND whitening, the payload region
        // of the transmitted bits is the clean run pattern.
        for chan in [0u8, 11, 23, 36] {
            let lp = LocalizationPacket::build(ch(chan), aa(), 0x123456, 8, 4).unwrap();
            let air = lp.air_bits();
            let region = &air[PAYLOAD_BIT_OFFSET..PAYLOAD_BIT_OFFSET + lp.on_air_payload.len()];
            assert_eq!(region, &lp.on_air_payload[..], "channel {chan}");
        }
    }

    #[test]
    fn frame_still_decodes_as_valid_ble() {
        // Pre-whitening must not break protocol compliance: a standard
        // receiver de-whitens and checks CRC as usual.
        let lp = LocalizationPacket::build(ch(7), aa(), 0xABCDEF, 8, 8).unwrap();
        let bits = lp.air_bits();
        let frame = Frame::decode_bits(&bits, ch(7), 0xABCDEF).unwrap();
        assert_eq!(frame, lp.frame);
    }

    #[test]
    fn prewhitening_is_channel_specific() {
        let a = LocalizationPacket::build(ch(1), aa(), 0, 8, 2).unwrap();
        let b = LocalizationPacket::build(ch(2), aa(), 0, 8, 2).unwrap();
        assert_ne!(
            a.frame.pdu, b.frame.pdu,
            "payload bytes must differ across channels"
        );
        assert_eq!(
            a.on_air_payload, b.on_air_payload,
            "on-air pattern must not"
        );
    }

    #[test]
    fn stable_windows_discard_settling() {
        let lp = LocalizationPacket::build(ch(0), aa(), 0, 8, 2).unwrap();
        let wins = lp.stable_windows(2);
        assert_eq!(wins.len(), 4); // 2 pairs = 4 runs
        for (start, len, _) in &wins {
            assert_eq!(*len, 8 - 2 * 2);
            assert!(*start >= PAYLOAD_BIT_OFFSET + 2);
        }
        // Alternating tones, zeros first.
        assert!(!wins[0].2 && wins[1].2 && !wins[2].2 && wins[3].2);
    }

    #[test]
    fn run_too_short_for_window() {
        let r = Run {
            start: 0,
            len: 4,
            bit: false,
        };
        assert_eq!(r.stable_window(2), None);
        assert_eq!(r.stable_window(1), Some((1, 2)));
    }

    #[test]
    fn oversized_pattern_rejected() {
        // 256 bytes of pattern exceeds the PDU payload field.
        assert!(matches!(
            LocalizationPacket::build(ch(0), aa(), 0, 8, 128),
            Err(BleError::PayloadTooLong(_))
        ));
    }

    proptest! {
        #[test]
        fn prop_runs_partition_pattern(run_bits in 1usize..16, pairs in 1usize..8) {
            prop_assume!((run_bits * pairs * 2) % 8 == 0);
            let p = run_pattern(run_bits, pairs);
            let runs = find_runs(&p, 1);
            let total: usize = runs.iter().map(|r| r.len).sum();
            prop_assert_eq!(total, p.len());
            prop_assert_eq!(runs.len(), 2 * pairs);
        }

        #[test]
        fn prop_air_payload_matches_any_channel(chan in 0u8..37, pairs in 1usize..12) {
            let lp = LocalizationPacket::build(ch(chan), aa(), 0x555555, 8, pairs).unwrap();
            let air = lp.air_bits();
            let region = &air[PAYLOAD_BIT_OFFSET..PAYLOAD_BIT_OFFSET + lp.on_air_payload.len()];
            prop_assert_eq!(region, &lp.on_air_payload[..]);
        }
    }
}
