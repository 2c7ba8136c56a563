//! # bloc-chan — the RF environment simulator of the BLoc workspace
//!
//! The paper evaluates BLoc on USRP N210 anchors in a 5 m × 6 m
//! multipath-rich VICON room (§7). This crate is the substitute substrate
//! (DESIGN.md §2): a deterministic, seeded geometric propagation simulator
//! that produces exactly the measurements the testbed produced —
//! per-band complex channels with multipath, scattering reflectors,
//! obstructed line-of-sight, additive noise, and the per-retune oscillator
//! phase offsets that BLoc's collaboration algorithm exists to cancel.
//!
//! * [`geometry`] — segments, rooms, mirror images, LOS crossing tests.
//! * [`materials`] — reflection loss and scattering behaviour presets.
//! * [`reflector`] — non-ideal reflectors: a specular component plus fixed
//!   scatter points that spread reflections in space (the physical basis of
//!   BLoc's entropy heuristic, paper §5.4).
//! * [`environment`] — composes walls/reflectors/obstructions into a path
//!   model and synthesizes channels per Eq. 1/2.
//! * [`array`](mod@array) — linear anchor antenna arrays (λ/2 spacing, 4 antennas).
//! * [`oscillator`] — per-retune random phase offsets (paper §5.1).
//! * [`sounder`] — the §3 measurement topology: for every sounded band it
//!   produces ĥ (tag→anchor per antenna), Ĥ_i0 (master→anchor) and ĥ₀₀
//!   (tag→master), either analytically or through the full `bloc-phy` IQ
//!   chain.
//! * [`faults`] — deterministic fault injection composed into the sounder:
//!   lost packets, anchor dropouts, dead antennas, frontend clipping and
//!   interference bursts, with an exactly replayable census.
//! * [`synth`] — the fast channel-synthesis engine: frequency-independent
//!   [`synth::PathSet`] geometry per link, an exact comb-sweep phasor
//!   recurrence across all bands × tones, and a revision-keyed
//!   [`synth::PathCache`] that makes static anchor↔master links free
//!   across a sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod environment;
pub mod faults;
pub mod geometry;
pub mod materials;
pub mod oscillator;
pub mod reflector;
pub mod sounder;
pub mod synth;

pub use array::AnchorArray;
pub use environment::{Environment, EnvironmentError, Path};
pub use faults::{
    AnchorDropout, FaultCensus, FaultPlan, InterferenceBurst, RangeLoss, ReceptionCensus,
};
pub use sounder::{BandSounding, Fidelity, Sounder, SounderConfig, SoundingData};
pub use synth::{PathCache, PathSet};
