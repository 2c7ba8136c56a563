//! # bloc-phy — the GFSK software-radio PHY of the BLoc workspace
//!
//! The paper implements BLoc "on USRP N210s … the BLE PHY layer on the USRP
//! platform in C as a patch to the UHD code" (§7). This crate is the Rust
//! replacement for that patch: a complete complex-baseband BLE GFSK chain.
//!
//! * [`pulse`] — the Gaussian frequency pulse (BT = 0.5) that makes "the
//!   frequency of the transmission … never static" (paper §4, Fig. 4a).
//! * [`modulator`] — phase-integrating GFSK modulation of on-air bits into
//!   IQ samples (±250 kHz deviation, 1 Msym/s).
//! * [`demodulator`] — quadrature-discriminator demodulation back to bits.
//! * [`frequency`] — instantaneous-frequency estimation and tone-settling
//!   detection (the observable behind Fig. 4b).
//! * [`impairments`] — what the air does to the signal: complex channel
//!   gain, AWGN, carrier frequency offset, oscillator phase offset.
//! * [`sync`] — packet detection and timing synchronization by
//!   preamble/access-address correlation (how an overhearing anchor finds
//!   the packets it measures).
//! * [`csi`] — BLoc's §4 contribution: measuring the wireless channel
//!   `h = y/x` during the stable 0-runs and 1-runs of a localization
//!   packet, and combining the two tone measurements into one per-band CSI
//!   value.
//!
//! The chain is exercised end-to-end by `bloc-chan`'s sounder in "phy"
//! fidelity mode and validated against the analytic channel model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod csi;
pub mod demodulator;
pub mod frequency;
pub mod impairments;
pub mod modulator;
pub mod pulse;
pub mod sync;

pub use csi::{measure_band_csi, BandCsi};
pub use modulator::{GfskModulator, ModulatorConfig};
