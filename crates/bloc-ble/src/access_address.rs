//! Access addresses: the 32-bit sync words that begin every BLE frame.
//!
//! Advertising frames all use the fixed address `0x8E89BED6`; every
//! connection gets a fresh random address chosen by the initiator under the
//! spec's validity rules. BLoc's slave anchors key their overhearing on
//! these addresses (paper §3: anchors "passively listen for communication
//! between the tag and the anchor"), so generation and validation are
//! implemented for real.

use crate::error::BleError;
use rand::Rng;

/// The fixed advertising-channel access address.
pub(crate) const ADVERTISING_AA: u32 = 0x8E89_BED6;

/// A validated access address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct AccessAddress(u32);

impl AccessAddress {
    /// Validates a data-channel access address against the spec rules (see
    /// [`validate`]).
    #[cfg(test)]
    pub(crate) fn new_data(aa: u32) -> Result<Self, BleError> {
        validate(aa)?;
        Ok(Self(aa))
    }

    /// The raw 32-bit value.
    #[cfg(test)]
    #[inline]
    pub(crate) fn value(self) -> u32 {
        self.0
    }

    /// The 4 on-air bytes, least-significant byte first.
    pub fn to_bytes(self) -> [u8; 4] {
        self.0.to_le_bytes()
    }

    /// Parses 4 on-air bytes (no validity check — receivers must accept
    /// whatever the initiator chose; validity is enforced at generation).
    pub(crate) fn from_bytes(bytes: [u8; 4]) -> Self {
        Self(u32::from_le_bytes(bytes))
    }

    /// The preamble byte for this address: `0xAA` when the address LSB is 0
    /// (preamble must alternate into the first AA bit), else `0x55`.
    pub fn preamble(self) -> u8 {
        if self.0 & 1 == 0 {
            0xAA
        } else {
            0x55
        }
    }

    /// Generates a random valid data-channel access address by rejection
    /// sampling (the spec's own suggested approach).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let aa: u32 = rng.gen();
            if validate(aa).is_ok() {
                return Self(aa);
            }
        }
    }
}

/// Checks the data-channel access-address validity rules:
///
/// 1. not the advertising access address, and differing from it in at
///    least two bits;
/// 2. no more than six consecutive equal bits;
/// 3. the four octets not all equal;
/// 4. no more than 24 bit transitions overall;
/// 5. at least two transitions in the six most significant bits.
pub(crate) fn validate(aa: u32) -> Result<(), BleError> {
    let err = || BleError::InvalidAccessAddress(aa);

    if aa == ADVERTISING_AA || (aa ^ ADVERTISING_AA).count_ones() < 2 {
        return Err(err());
    }

    // Rule 2: runs of equal bits.
    let mut run = 1u32;
    for i in 1..32 {
        if (aa >> i) & 1 == (aa >> (i - 1)) & 1 {
            run += 1;
            if run > 6 {
                return Err(err());
            }
        } else {
            run = 1;
        }
    }

    // Rule 3: four equal octets.
    let b = aa.to_le_bytes();
    if b[0] == b[1] && b[1] == b[2] && b[2] == b[3] {
        return Err(err());
    }

    // Rule 4: total transitions over the 31 adjacent bit pairs.
    let transitions = ((aa ^ (aa >> 1)) & 0x7FFF_FFFF).count_ones();
    if transitions > 24 {
        return Err(err());
    }

    // Rule 5: ≥2 transitions among bits 26..=31 (5 adjacent pairs).
    if (((aa ^ (aa >> 1)) >> 26) & 0x1F).count_ones() < 2 {
        return Err(err());
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn advertising_aa_is_rejected_for_data() {
        assert!(AccessAddress::new_data(ADVERTISING_AA).is_err());
    }

    #[test]
    fn one_bit_from_advertising_rejected() {
        for bit in 0..32 {
            assert!(
                AccessAddress::new_data(ADVERTISING_AA ^ (1 << bit)).is_err(),
                "AA one bit from advertising AA must be invalid (bit {bit})"
            );
        }
    }

    #[test]
    fn long_runs_rejected() {
        assert!(validate(0x0000_0000).is_err()); // 32 consecutive zeros
        assert!(validate(0xFFFF_FFFF).is_err()); // 32 consecutive ones
                                                 // Exactly seven consecutive ones in bits 8..=14, otherwise mixed.
        let seven_ones = 0b0101_0010_0110_0101_0111_1111_0010_0101u32;
        assert!(validate(seven_ones).is_err());
        // Six consecutive ones in the same spot passes the run rule (may
        // still fail others, so assert only that the 7-run is the cause).
        let six_ones = seven_ones & !(1 << 8);
        // Six consecutive ones pass the run rule; other rules may still
        // reject, so no assertion either way — just exercise the path.
        let _ = validate(six_ones).is_err();
    }

    #[test]
    fn equal_octets_rejected() {
        assert!(validate(0x5A5A_5A5A).is_err());
    }

    #[test]
    fn too_many_transitions_rejected() {
        assert!(
            validate(0x5555_5555).is_err(),
            "alternating bits = 31 transitions"
        );
    }

    #[test]
    fn stable_msbs_rejected() {
        // Fewer than 2 transitions in the top six bits.
        let aa = 0xFC00_1234u32; // top six bits all ones → 0 transitions there
        assert!(validate(aa).is_err());
    }

    #[test]
    fn generation_yields_valid_addresses() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let aa = AccessAddress::generate(&mut rng);
            assert!(validate(aa.value()).is_ok());
        }
    }

    #[test]
    fn byte_roundtrip_and_preamble() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let aa = AccessAddress::generate(&mut rng);
            assert_eq!(AccessAddress::from_bytes(aa.to_bytes()), aa);
            let p = aa.preamble();
            // Preamble alternates and its last bit differs from AA bit 0.
            assert!(p == 0xAA || p == 0x55);
            assert_eq!(p == 0x55, aa.value() & 1 == 1);
        }
    }

    proptest! {
        #[test]
        fn prop_validate_agrees_with_rules(aa in any::<u32>()) {
            let valid = validate(aa).is_ok();
            // Independently recheck two of the rules.
            let runs_ok = {
                let mut ok = true;
                let mut run = 1;
                for i in 1..32 {
                    if (aa >> i) & 1 == (aa >> (i - 1)) & 1 {
                        run += 1;
                        if run > 6 { ok = false; break; }
                    } else { run = 1; }
                }
                ok
            };
            let not_adv = aa != ADVERTISING_AA;
            if valid {
                prop_assert!(runs_ok && not_adv);
            }
            if !runs_ok || !not_adv {
                prop_assert!(!valid);
            }
        }
    }
}
