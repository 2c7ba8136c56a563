//! BLE data whitening: the 7-bit LFSR `x⁷ + x⁴ + 1`.
//!
//! Every BLE PDU+CRC is XOR-scrambled on air with a channel-seeded LFSR
//! stream. This matters doubly for BLoc: (a) a faithful air interface needs
//! it, and (b) BLoc's localization packets must contain long runs of 0s and
//! 1s *on air* (paper §4) — which means the payload handed to the link layer
//! must be **pre-whitened** so the scrambler's XOR cancels
//! ([`crate::locpacket`] does this using `whitening_stream`).
//!
//! The register is seeded with the link-layer channel index with bit 6
//! forced to 1 (so the seed is never all-zero). The implementation uses the
//! Galois (reflected) form common to open BLE stacks: output is register
//! bit 0; on a 1-output the register is XORed with `0x88` before the right
//! shift.

use crate::channels::Channel;

/// The whitening LFSR, usable as a streaming scrambler/descrambler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Whitener {
    lfsr: u8,
}

impl Whitener {
    /// Seeds the whitener for a channel (seed = `channel_index | 0x40`).
    pub fn new(channel: Channel) -> Self {
        Self {
            lfsr: channel.index() | 0x40,
        }
    }

    /// Produces the next whitening bit.
    #[inline]
    pub(crate) fn next_bit(&mut self) -> bool {
        let out = self.lfsr & 1 == 1;
        if out {
            self.lfsr ^= 0x88;
        }
        self.lfsr >>= 1;
        out
    }

    /// Whitens (or de-whitens — the operation is an involution) a byte,
    /// LSB-first as bits go on air.
    pub(crate) fn process_byte(&mut self, byte: u8) -> u8 {
        let mut out = byte;
        for i in 0..8 {
            if self.next_bit() {
                out ^= 1 << i;
            }
        }
        out
    }

    /// Whitens a byte slice in place.
    pub(crate) fn process(&mut self, data: &mut [u8]) {
        for b in data {
            *b = self.process_byte(*b);
        }
    }
}

/// Convenience: returns a whitened copy of `data` for `channel`.
#[cfg(test)]
pub(crate) fn whiten(channel: Channel, data: &[u8]) -> Vec<u8> {
    let mut v = data.to_vec();
    Whitener::new(channel).process(&mut v);
    v
}

/// The first `n_bits` of the whitening stream for `channel`, as booleans in
/// on-air order. [`crate::locpacket`] XORs desired on-air bits with this to
/// compute the payload to transmit.
pub(crate) fn whitening_stream(channel: Channel, n_bits: usize) -> Vec<bool> {
    let mut w = Whitener::new(channel);
    (0..n_bits).map(|_| w.next_bit()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ch(i: u8) -> Channel {
        Channel::new(i).unwrap()
    }

    #[test]
    fn whitening_is_involution() {
        // De-whitening is the same operation: x ⊕ s ⊕ s = x.
        let data: Vec<u8> = (0u8..64).collect();
        for c in [0, 17, 36, 37, 39] {
            let once = whiten(ch(c), &data);
            let twice = whiten(ch(c), &once);
            assert_eq!(twice, data, "channel {c}");
        }
    }

    #[test]
    fn stream_differs_across_channels() {
        let a = whitening_stream(ch(0), 64);
        let b = whitening_stream(ch(1), 64);
        assert_ne!(a, b);
    }

    #[test]
    fn seed_is_never_degenerate() {
        // Bit 6 forced to 1 means channel 0 still scrambles.
        let s = whitening_stream(ch(0), 32);
        assert!(
            s.iter().any(|&b| b),
            "channel-0 stream must not be all zero"
        );
    }

    #[test]
    fn stream_has_lfsr_period_127() {
        // A maximal 7-bit LFSR repeats with period 2⁷−1 = 127.
        let s = whitening_stream(ch(22), 254);
        assert_eq!(&s[..127], &s[127..254]);
        // ...and not with any shorter period that divides nicely.
        assert_ne!(&s[..63], &s[63..126]);
    }

    #[test]
    fn process_byte_is_lsb_first() {
        // First stream bit must affect bit 0 of the first byte.
        let c = ch(9);
        let first = whitening_stream(c, 1)[0];
        let out = whiten(c, &[0x00]);
        assert_eq!(out[0] & 1 == 1, first);
    }

    proptest! {
        #[test]
        fn prop_involution(chan in 0u8..40, data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let c = ch(chan);
            prop_assert_eq!(whiten(c, &whiten(c, &data)), data);
        }

        #[test]
        fn prop_stream_balanced(chan in 0u8..40) {
            // Over a full period the maximal LFSR outputs 64 ones, 63 zeros.
            let s = whitening_stream(ch(chan), 127);
            let ones = s.iter().filter(|&&b| b).count();
            prop_assert_eq!(ones, 64);
        }
    }
}
