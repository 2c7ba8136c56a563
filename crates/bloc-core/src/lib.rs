//! # bloc-core — CSI-based localization for BLE tags
//!
//! This crate is the Rust implementation of **BLoc** (Ayyalasomayajula,
//! Vasisht, Bharadia — *BLoc: CSI-based Accurate Localization for BLE
//! Tags*, CoNEXT 2018): the first channel-state-information localization
//! system for Bluetooth Low Energy. It consumes multi-band channel
//! soundings (from real anchors, or from the `bloc-chan` simulator) and
//! produces a tag position estimate.
//!
//! The pipeline, module by module:
//!
//! 1. [`correction`] — cancel the per-hop oscillator phase offsets by
//!    combining the three measurements each slave anchor overhears:
//!    `α^f_ij = ĥ^f_ij · Ĥ^{f*}_i0 · ĥ^{f*}_00` (paper Eq. 10). The result
//!    encodes *relative* distances `d^ij_T − d^00_T − d^{i0}_{00}`
//!    (Eq. 14) with no random phases left.
//! 2. [`likelihood`] — map the corrected channels onto a 2-D spatial
//!    likelihood per anchor (Eq. 17: joint AoA + relative-distance,
//!    hyperbolic contours) and sum across anchors.
//! 3. [`multipath`] — extract the likelihood peaks and score each with
//!    `s_x = p_x · e^{bH − aΣ_i d_i}` (Eq. 18), where `H` is the spatial
//!    (neg)entropy in a 7×7 circular window: direct paths are peaky,
//!    scattered reflections are spread out. The best-scoring peak is the
//!    tag.
//! 4. [`localizer`] — the end-to-end [`localizer::BlocLocalizer`].
//!
//! [`baselines`] implements the comparison systems of the paper's
//! evaluation: AoA-combining triangulation (§8.2), the shortest-distance
//! peak picker (§8.7), and an RSSI log-distance trilateration for context
//! (§2.2). Around the pipeline, [`runtime`] supervises rounds across
//! time — anchor health, retries, the [`tracker`]'s constant-velocity
//! Kalman filter over successive fixes, and the degraded-mode
//! [`fallback`] estimators — and [`fleet`] serves many tags per site.
//! The pipeline is degradation-aware: [`correction`] drops bands of a
//! bad shape and masks lost or non-finite measurements rather than
//! propagating them, failures are typed ([`error::LocalizeError`]), and
//! every estimate carries an [`error::DegradationReport`] of what was
//! discarded.
//!
//! ## Quickstart
//!
//! ```
//! use bloc_chan::{AnchorArray, Environment, Sounder, SounderConfig};
//! use bloc_chan::geometry::Room;
//! use bloc_chan::materials::Material;
//! use bloc_core::localizer::{BlocConfig, BlocLocalizer};
//! use bloc_num::P2;
//! use rand::SeedableRng;
//!
//! // A 5 m × 6 m room with reflective walls and 4 anchors at the wall
//! // midpoints — the paper's deployment.
//! let room = Room::new(5.0, 6.0);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let env = Environment::in_room(room)
//!     .with_walls(Material::concrete(), &mut rng)
//!     .unwrap();
//! let anchors: Vec<AnchorArray> = room
//!     .wall_midpoints()
//!     .iter()
//!     .zip(room.walls().iter())
//!     .enumerate()
//!     .map(|(i, (&m, w))| AnchorArray::centered(i, m, w.direction(), 4))
//!     .collect();
//!
//! // Sound all 37 data channels from a tag position…
//! let sounder = Sounder::new(&env, &anchors, SounderConfig::default());
//! let tag = P2::new(1.8, 2.4);
//! let data = sounder.sound(tag, &bloc_chan::sounder::all_data_channels(), &mut rng);
//!
//! // …and localize.
//! let localizer = BlocLocalizer::new(BlocConfig::for_room(&room));
//! let estimate = localizer.localize(&data).expect("non-degenerate sounding");
//! assert!(estimate.position.dist(tag) < 1.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod correction;
pub mod engine;
pub mod error;
pub mod fallback;
pub mod fleet;
pub mod hierarchical;
pub mod likelihood;
pub mod localizer;
pub mod multipath;
pub mod runtime;
pub mod tracker;

pub use error::{DeferReason, DegradationReport, LocalizeError};
pub use fallback::{
    EstimateMode, FallbackConfig, FallbackError, FallbackEvidence, FallbackStack, FingerprintDb,
    FusionPolicy, FusionWeights, PacketCountModel,
};
pub use fleet::{
    BatchReport, FleetConfig, FleetDriver, FleetSupervisor, ShedReason, ShedRound, SiteId,
    SiteSpec, SiteTransition, TagId, TagRound, TagRoundOutcome, TagTransition,
};
pub use hierarchical::{
    EscapeReason, HierarchicalConfig, HierarchicalEstimate, HierarchicalLocalizer,
};
pub use localizer::{BlocConfig, BlocLocalizer, Estimate};
pub use runtime::{
    BreakerState, BreakerTransition, RetryPolicy, RoundFix, RoundOutcome, RuntimeConfig,
    SessionSupervisor,
};
