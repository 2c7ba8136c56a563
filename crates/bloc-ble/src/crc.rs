//! The BLE link-layer CRC-24.
//!
//! Polynomial `x²⁴ + x¹⁰ + x⁹ + x⁶ + x⁴ + x³ + x + 1` (0x00065B), computed
//! over the PDU with bits fed LSB-first as they go on air. Advertising
//! channel PDUs use the fixed init 0x555555; data channel PDUs use the
//! CRCInit exchanged in `CONNECT_IND` — both paths are exercised by the
//! framing layer.

/// The BLE CRC-24 polynomial (without the x²⁴ term).
pub(crate) const POLY: u32 = 0x00065B;

/// CRC init value for advertising channel PDUs.
pub const ADV_CRC_INIT: u32 = 0x555555;

/// Computes the CRC-24 of `data` starting from `init` (24 significant
/// bits). Bits of each byte are processed LSB-first, matching the
/// transmission order.
pub(crate) fn crc24(init: u32, data: &[u8]) -> u32 {
    let mut state = init & 0xFF_FFFF;
    for &byte in data {
        for j in 0..8 {
            let bit = (byte >> j) & 1;
            let msb = ((state >> 23) & 1) as u8;
            state = (state << 1) & 0xFF_FFFF;
            if bit ^ msb == 1 {
                state ^= POLY;
            }
        }
    }
    state
}

/// Serializes a CRC value into its 3 on-air bytes (least-significant byte
/// first, matching BLE's LSB-first transmission).
pub(crate) fn crc_to_bytes(crc: u32) -> [u8; 3] {
    [
        (crc & 0xFF) as u8,
        ((crc >> 8) & 0xFF) as u8,
        ((crc >> 16) & 0xFF) as u8,
    ]
}

/// Parses the 3 on-air CRC bytes back into a value.
pub(crate) fn crc_from_bytes(bytes: [u8; 3]) -> u32 {
    bytes[0] as u32 | (bytes[1] as u32) << 8 | (bytes[2] as u32) << 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_data_returns_init() {
        assert_eq!(crc24(ADV_CRC_INIT, &[]), ADV_CRC_INIT);
        assert_eq!(crc24(0x123456, &[]), 0x123456);
    }

    #[test]
    fn stays_within_24_bits() {
        let c = crc24(0xFF_FFFF, &[0xFF; 64]);
        assert_eq!(c & !0xFF_FFFF, 0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"BLoc localization packet".to_vec();
        let base = crc24(ADV_CRC_INIT, &data);
        for i in 0..data.len() {
            for b in 0..8 {
                let mut corrupted = data.clone();
                corrupted[i] ^= 1 << b;
                assert_ne!(
                    crc24(ADV_CRC_INIT, &corrupted),
                    base,
                    "flip at byte {i} bit {b}"
                );
            }
        }
    }

    #[test]
    fn detects_burst_errors_up_to_24_bits() {
        // A CRC-24 catches any burst shorter than 25 bits.
        let data = vec![0xA5u8; 32];
        let base = crc24(0x555555, &data);
        for start in [0usize, 40, 100] {
            for len in [2usize, 8, 17, 24] {
                let mut corrupted = data.clone();
                for bit in start..start + len {
                    corrupted[bit / 8] ^= 1 << (bit % 8);
                }
                assert_ne!(crc24(0x555555, &corrupted), base, "burst {len} @ {start}");
            }
        }
    }

    #[test]
    fn init_value_matters() {
        let data = [1, 2, 3];
        assert_ne!(crc24(ADV_CRC_INIT, &data), crc24(0x000001, &data));
    }

    #[test]
    fn byte_roundtrip() {
        for crc in [0u32, 0x000001, 0xABCDEF, 0xFF_FFFF] {
            assert_eq!(crc_from_bytes(crc_to_bytes(crc)), crc);
        }
    }

    #[test]
    fn distinguishes_near_collisions() {
        let v = crc24(ADV_CRC_INIT, b"hello");
        assert_ne!(v, crc24(ADV_CRC_INIT, b"hellp"));
        assert_ne!(v, crc24(ADV_CRC_INIT, b"hell"));
        assert_ne!(v, crc24(ADV_CRC_INIT, b"helloo"));
    }

    proptest! {
        #[test]
        fn prop_crc_is_deterministic(init in 0u32..0x1000000, data in proptest::collection::vec(any::<u8>(), 0..64)) {
            prop_assert_eq!(crc24(init, &data), crc24(init, &data));
        }

        #[test]
        fn prop_extension_changes_crc(data in proptest::collection::vec(any::<u8>(), 1..32), extra in any::<u8>()) {
            // Appending a byte almost surely changes the CRC; specifically,
            // appending then recomputing from scratch must equal streaming.
            let mut ext = data.clone();
            ext.push(extra);
            let streamed = crc24(crc24(ADV_CRC_INIT, &data) , &[]);
            prop_assert_eq!(streamed, crc24(ADV_CRC_INIT, &data));
            // chaining property: crc(init, a ++ b) == crc(crc(init, a), b)
            let whole = crc24(ADV_CRC_INIT, &ext);
            let chained = crc24(crc24(ADV_CRC_INIT, &data), &[extra]);
            prop_assert_eq!(whole, chained);
        }
    }
}
