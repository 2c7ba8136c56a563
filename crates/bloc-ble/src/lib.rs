//! # bloc-ble — the BLE link-layer substrate of the BLoc workspace
//!
//! BLoc (paper §3, §6) is deliberately *protocol-compliant*: the tag is an
//! unmodified BLE device, the anchors speak standard BLE, and the only
//! unusual traffic is data packets whose payloads contain long runs of 0 and
//! 1 bits. Reproducing the system therefore requires a real link layer, not
//! a mock. This crate implements the parts of Bluetooth LE 4.x that BLoc
//! touches:
//!
//! * [`channels`] — the 40-channel map (37 data + 3 advertising) and the
//!   link-layer-index ↔ RF-frequency mapping (paper Fig. 1a).
//! * [`hopping`] — channel-selection algorithm #1,
//!   `ch_next = (ch_cur + hop) mod 37`, and the prime-37 full-coverage
//!   property BLoc's bandwidth stitching relies on (paper §2.1, §5.1).
//! * [`whitening`] — the 7-bit LFSR data whitener.
//! * [`crc`] — the 24-bit link-layer CRC.
//! * [`access_address`] — access-address validity rules and generation.
//! * [`pdu`] — advertising and data PDU encode/decode.
//! * [`packet`] — whole air-interface frames (preamble → CRC) to/from bits.
//! * [`link`] — a master/slave connection state machine producing the
//!   per-connection-event channel schedule BLoc sounds on.
//! * [`control`] — the wire format of the LL control PDUs for channel-map
//!   updates (the §8.6 blacklisting path) and termination.
//! * [`locpacket`] — BLoc's localization payloads: long 0-runs then long
//!   1-runs (paper §4), including pre-whitening compensation so the runs
//!   survive on air.
//!
//! Everything is synchronous, allocation-light, and deterministic — in the
//! spirit of `smoltcp`'s "simplicity and robustness" design goals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod access_address;
pub mod channels;
pub mod control;
pub mod crc;
pub mod error;
pub mod hopping;
pub mod link;
pub mod locpacket;
pub mod packet;
pub mod pdu;
pub mod whitening;

pub use channels::{Channel, ChannelMap};
pub use error::BleError;
pub use hopping::HopSequence;
