//! Physical and BLE-band constants shared across the workspace.

/// Speed of light in vacuum, metres per second.
///
/// All time-of-flight ↔ distance conversions in the pipeline use this value
/// (the paper writes it `c` in Eqs. 4–6 and 14–17).
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Width of one BLE channel, hertz (paper §1: "BLE channels are 2 MHz wide").
pub const BLE_CHANNEL_WIDTH_HZ: f64 = 2.0e6;

/// Number of BLE channels (37 data + 3 advertising; paper Fig. 1a).
pub const BLE_NUM_CHANNELS: usize = 40;

/// Number of BLE data (connection) channels. 37 is prime, which is what
/// guarantees the hop sequence `f_next = f_cur + f_hop mod 37` visits every
/// channel (paper §2.1).
pub const BLE_NUM_DATA_CHANNELS: usize = 37;

/// BLE GFSK symbol rate, symbols per second (1 Mb/s uncoded PHY).
pub const BLE_SYMBOL_RATE: f64 = 1.0e6;

/// Nominal BLE GFSK frequency deviation, hertz. Bits 0/1 sit at
/// `f_c ∓ 250 kHz`, i.e. the two data tones are 1 MHz = twice this apart
/// (paper footnote 2: "the separation between the two data bits is just
/// 1 MHz").
pub const BLE_GFSK_DEVIATION_HZ: f64 = 250.0e3;

/// Gaussian filter bandwidth-time product used by BLE GFSK (BT = 0.5).
pub const BLE_GAUSSIAN_BT: f64 = 0.5;

/// Wavelength (metres) of a carrier at frequency `f_hz`.
#[inline]
pub fn wavelength(f_hz: f64) -> f64 {
    SPEED_OF_LIGHT / f_hz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_spans_eighty_megahertz() {
        // 40 channels of 2 MHz: the 80 MHz BLoc stitches (paper §5.1).
        assert_eq!(BLE_NUM_CHANNELS as f64 * BLE_CHANNEL_WIDTH_HZ, 80.0e6);
    }

    #[test]
    fn wavelength_at_2p4ghz_is_about_12cm() {
        let l = wavelength(2.44e9);
        assert!((l - 0.1229).abs() < 1e-3, "λ = {l}");
    }

    #[test]
    fn data_channel_count_is_prime() {
        let n = BLE_NUM_DATA_CHANNELS;
        assert!(
            (2..n).all(|d| !n.is_multiple_of(d)),
            "37 must be prime for full hop coverage"
        );
    }
}
