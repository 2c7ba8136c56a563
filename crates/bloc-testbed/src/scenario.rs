//! Deployment scenarios: the paper's testbed, reconstructed — plus two
//! large venues for the hierarchical localizer.
//!
//! Paper §7: a 5 m × 6 m VICON room — "a shared space … full of metallic
//! objects, like robotic equipment, large metal cupboards, etc. As a
//! result, the room is rich in multipath and presents a challenging
//! localization environment." Four 4-antenna anchors sit at the midpoints
//! of the four walls.
//!
//! The paper's room is small enough that a dense 8 cm grid sweep is
//! cheap. The venues below are where coarse-to-fine search pays off:
//!
//! * [`Scenario::corridor`] — a 34.3 m × 9.9 m warehouse corridor
//!   (≈ 53 k cells at 8 cm before the grid margin) with six anchors and
//!   metal pillars down the aisle.
//! * [`Scenario::multi_room`] — a 20 m × 14 m office floor cut into
//!   rooms by interior concrete walls with door gaps, six anchors on
//!   the outer walls.
//!
//! Each scenario owns one [`LikelihoodEngine`], built with the scenario,
//! and [`Scenario::localizer`] runs on it. Its steering cache therefore
//! holds the deployment's Eq. 14 tables across every sweep and
//! localizer built from the scenario, and clones of the scenario share
//! it. Entries are keyed by grid, anchor geometry and frequency comb, so
//! soundings reduced to an anchor, antenna or band subset get entries of
//! their own. The cache is bounded by the hierarchical localizer's
//! default budget ([`HierarchicalConfig::cache_budget_bytes`]), evicting
//! the least recently used geometry.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use bloc_chan::environment::Obstruction;
use bloc_chan::geometry::{Room, Segment};
use bloc_chan::materials::Material;
use bloc_chan::reflector::Reflector;
use bloc_chan::sounder::{Sounder, SounderConfig};
use bloc_chan::{AnchorArray, Environment};
use bloc_core::engine::LikelihoodEngine;
use bloc_core::{BlocLocalizer, HierarchicalConfig};
use bloc_num::P2;

/// How much clutter the room carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Clutter {
    /// Open free space, ideal LOS — the Fig. 8(b) microbenchmark setting
    /// ("a relatively multipath free environment").
    None,
    /// Reflective walls only.
    WallsOnly,
    /// Walls + metal cupboards/robots + partial obstructions — the VICON
    /// room regime used for all accuracy numbers.
    MultipathRich,
    /// The 34.3 m × 9.9 m warehouse corridor (large venue): reflective
    /// walls plus metal pillars down the aisle, six anchors.
    CorridorVenue,
    /// The 20 m × 14 m multi-room floor (large venue): interior concrete
    /// walls with door gaps that both reflect and attenuate, six anchors
    /// on the outer walls.
    MultiRoomFloor,
}

/// A complete deployment: room, environment, anchors, and the likelihood
/// engine its localizers share.
#[derive(Clone)]
pub struct Scenario {
    /// The room.
    pub room: Room,
    /// The propagation environment.
    pub env: Environment,
    /// The anchors (index 0 is the master).
    pub anchors: Vec<AnchorArray>,
    /// The clutter level the scenario was built with.
    pub clutter: Clutter,
    /// The seed the environment was frozen from.
    pub seed: u64,
    /// The engine [`Scenario::localizer`] runs on; clones share its
    /// steering cache.
    engine: LikelihoodEngine,
}

impl std::fmt::Debug for Scenario {
    /// Everything but the engine, whose cache holds megabytes of tables.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("room", &self.room)
            .field("env", &self.env)
            .field("anchors", &self.anchors)
            .field("clutter", &self.clutter)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// A fresh engine for one scenario, its steering cache bounded like the
/// hierarchical localizer's.
fn scenario_engine() -> LikelihoodEngine {
    let engine = LikelihoodEngine::default();
    engine
        .cache()
        .set_byte_budget(HierarchicalConfig::default().cache_budget_bytes);
    engine
}

impl Scenario {
    /// The paper's evaluation environment: multipath-rich 5 m × 6 m room.
    pub fn paper_testbed(seed: u64) -> Self {
        Self::build(Clutter::MultipathRich, seed)
    }

    /// The clean microbenchmark environment (Fig. 8b).
    pub fn clean_los(seed: u64) -> Self {
        Self::build(Clutter::None, seed)
    }

    /// A 34.3 m × 9.9 m warehouse corridor — the large-venue scenario
    /// exercising the hierarchical coarse-to-fine localizer.
    ///
    /// Six 4-antenna anchors: one at each short-wall midpoint and one at
    /// each long-wall quarter point, boresights into the aisle. The walls
    /// are concrete; a row of metal racking pillars runs down the middle
    /// of the aisle, each face reflecting strongly and blocking LOS.
    pub fn corridor(seed: u64) -> Self {
        Self::build(Clutter::CorridorVenue, seed)
    }

    /// A 20 m × 14 m office floor cut into rooms by interior concrete
    /// walls with door gaps — the non-convex large venue.
    ///
    /// Six 4-antenna anchors on the outer walls. Interior walls are
    /// concrete on both counts: they reflect (multipath) *and* attenuate
    /// anything crossing them (through-wall reception), so anchors in
    /// other rooms see the tag faintly and through reflections.
    pub fn multi_room(seed: u64) -> Self {
        Self::build(Clutter::MultiRoomFloor, seed)
    }

    /// Builds the scenario for the requested clutter level / venue.
    ///
    /// The three room-scale levels share the paper's 5 m × 6 m room and
    /// 4-anchor layout; the two venue variants bring their own geometry.
    pub fn build(clutter: Clutter, seed: u64) -> Self {
        match clutter {
            Clutter::CorridorVenue => Self::build_corridor(seed),
            Clutter::MultiRoomFloor => Self::build_multi_room(seed),
            room_scale => Self::build_paper_room(room_scale, seed),
        }
    }

    /// The paper's 5 m × 6 m room at the requested clutter level.
    fn build_paper_room(clutter: Clutter, seed: u64) -> Self {
        let room = Room::new(5.0, 6.0);
        let mut rng = StdRng::seed_from_u64(seed);

        let env = match clutter {
            Clutter::None => Environment::in_room(room),
            Clutter::WallsOnly => Environment::in_room(room)
                .with_walls(Material::concrete(), &mut rng)
                .expect("in_room always has a room"),
            Clutter::MultipathRich => {
                let mut env = Environment::in_room(room)
                    .with_walls(Material::concrete(), &mut rng)
                    .expect("in_room always has a room");
                // Metallic clutter (cupboards, robots, screens). Each face
                // both reflects strongly AND blocks LOS crossing it — that
                // combination is what makes "reflections … stronger than
                // the line-of-sight path because of obstructions" (paper
                // §1) a common occurrence in the VICON room.
                let metal_faces = [
                    // Large metal cupboards along the left and top walls.
                    Segment::new(P2::new(0.3, 1.0), P2::new(0.3, 3.2)),
                    Segment::new(P2::new(1.2, 5.7), P2::new(3.6, 5.7)),
                    // Robotic equipment: free-standing metal surfaces.
                    Segment::new(P2::new(4.4, 1.2), P2::new(4.4, 2.6)),
                    Segment::new(P2::new(1.6, 2.2), P2::new(2.7, 2.8)),
                    Segment::new(P2::new(3.1, 3.8), P2::new(3.9, 4.5)),
                    Segment::new(P2::new(0.9, 0.8), P2::new(1.8, 1.3)),
                    Segment::new(P2::new(4.2, 4.8), P2::new(4.7, 5.4)),
                    Segment::new(P2::new(2.3, 4.6), P2::new(3.0, 5.0)),
                ];
                for face in metal_faces {
                    env.add_reflector(Reflector::new(face, Material::metal(), &mut rng));
                    env.add_obstruction(Obstruction {
                        blocker: face,
                        loss_db: 16.0,
                    });
                }
                // A glass screen (reflects modestly, attenuates little).
                let glass = Segment::new(P2::new(2.0, 0.4), P2::new(3.4, 0.4));
                env.add_reflector(Reflector::new(glass, Material::glass(), &mut rng));
                env.add_obstruction(Obstruction {
                    blocker: glass,
                    loss_db: 3.0,
                });
                // Softer clutter: desks and crates that attenuate without
                // reflecting much.
                env.add_obstruction(Obstruction {
                    blocker: Segment::new(P2::new(0.8, 4.2), P2::new(2.0, 4.2)),
                    loss_db: 8.0,
                });
                env.add_obstruction(Obstruction {
                    blocker: Segment::new(P2::new(3.6, 0.9), P2::new(3.6, 2.0)),
                    loss_db: 8.0,
                });
                env
            }
            // `build` dispatches the venue variants before reaching here.
            Clutter::CorridorVenue | Clutter::MultiRoomFloor => unreachable!(),
        };

        let anchors = standard_anchors(&room);
        Self {
            room,
            env,
            anchors,
            clutter,
            seed,
            engine: scenario_engine(),
        }
    }

    /// The 34.3 m × 9.9 m corridor venue (see [`Scenario::corridor`]).
    fn build_corridor(seed: u64) -> Self {
        let room = Room::new(34.3, 9.9);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut env = Environment::in_room(room)
            .with_walls(Material::concrete(), &mut rng)
            .expect("in_room always has a room");

        // Metal racking pillars down the middle of the aisle: short faces
        // every ~5.5 m, alternating orientation. Each reflects strongly
        // and blocks LOS crossing it, so far anchors often see a tag only
        // through reflections — the regime the coarse level must survive.
        for k in 0..6 {
            let x = 4.6 + 5.1 * k as f64;
            let y = if k % 2 == 0 { 3.4 } else { 6.5 };
            let face = if k % 3 == 0 {
                Segment::new(P2::new(x, y - 0.5), P2::new(x, y + 0.5))
            } else {
                Segment::new(P2::new(x - 0.5, y), P2::new(x + 0.5, y))
            };
            env.add_reflector(Reflector::new(face, Material::metal(), &mut rng));
            env.add_obstruction(Obstruction {
                blocker: face,
                loss_db: 16.0,
            });
        }
        // Soft clutter: pallet stacks near the walls.
        env.add_obstruction(Obstruction {
            blocker: Segment::new(P2::new(9.0, 1.1), P2::new(12.0, 1.1)),
            loss_db: 8.0,
        });
        env.add_obstruction(Obstruction {
            blocker: Segment::new(P2::new(21.0, 8.8), P2::new(24.5, 8.8)),
            loss_db: 8.0,
        });

        let anchors = corridor_anchors(&room);
        Self {
            room,
            env,
            anchors,
            clutter: Clutter::CorridorVenue,
            seed,
            engine: scenario_engine(),
        }
    }

    /// The 20 m × 14 m multi-room floor (see [`Scenario::multi_room`]).
    fn build_multi_room(seed: u64) -> Self {
        let room = Room::new(20.0, 14.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut env = Environment::in_room(room)
            .with_walls(Material::concrete(), &mut rng)
            .expect("in_room always has a room");

        // Interior concrete walls with door gaps. Each wall segment both
        // reflects and attenuates crossing paths — a tag behind a wall is
        // reached through the door gap, through the wall (−12 dB), or via
        // reflections, which is exactly what makes the floor non-convex
        // for localization.
        let interior_walls = [
            // Vertical wall at x = 7 m with a 1.2 m door at y ∈ [5.8, 7].
            Segment::new(P2::new(7.0, 0.0), P2::new(7.0, 5.8)),
            Segment::new(P2::new(7.0, 7.0), P2::new(7.0, 14.0)),
            // Vertical wall at x = 13.5 m with a door at y ∈ [7.4, 8.6].
            Segment::new(P2::new(13.5, 0.0), P2::new(13.5, 7.4)),
            Segment::new(P2::new(13.5, 8.6), P2::new(13.5, 14.0)),
            // Horizontal wall at y = 7 m across the left zone, door at
            // x ∈ [2.8, 4.0].
            Segment::new(P2::new(0.0, 7.0), P2::new(2.8, 7.0)),
            Segment::new(P2::new(4.0, 7.0), P2::new(7.0, 7.0)),
        ];
        for wall in interior_walls {
            env.add_reflector(Reflector::new(wall, Material::concrete(), &mut rng));
            env.add_obstruction(Obstruction {
                blocker: wall,
                loss_db: 12.0,
            });
        }
        // Office furniture: soft attenuators, no strong reflection.
        env.add_obstruction(Obstruction {
            blocker: Segment::new(P2::new(9.0, 3.0), P2::new(11.5, 3.0)),
            loss_db: 8.0,
        });
        env.add_obstruction(Obstruction {
            blocker: Segment::new(P2::new(16.0, 10.5), P2::new(16.0, 12.5)),
            loss_db: 8.0,
        });

        let anchors = multi_room_anchors(&room);
        Self {
            room,
            env,
            anchors,
            clutter: Clutter::MultiRoomFloor,
            seed,
            engine: scenario_engine(),
        }
    }

    /// A sounder over this scenario.
    pub fn sounder(&self, config: SounderConfig) -> Sounder<'_> {
        Sounder::new(&self.env, &self.anchors, config)
    }

    /// The default BLoc pipeline configuration for this room.
    pub fn bloc_config(&self) -> bloc_core::BlocConfig {
        bloc_core::BlocConfig::for_room(&self.room)
    }

    /// The scenario's likelihood engine. A localizer built with another
    /// configuration of the same deployment reuses its steering tables
    /// through `BlocLocalizer::new(config).with_engine(scenario.engine().clone())`.
    pub fn engine(&self) -> &LikelihoodEngine {
        &self.engine
    }

    /// The default BLoc localizer for this room, on the scenario's engine.
    pub fn localizer(&self) -> BlocLocalizer {
        BlocLocalizer::new(self.bloc_config()).with_engine(self.engine.clone())
    }
}

/// The paper's anchor placement: 4-antenna linear arrays at the wall
/// midpoints, aligned with their walls (boresight into the room).
pub fn standard_anchors(room: &Room) -> Vec<AnchorArray> {
    room.wall_midpoints()
        .iter()
        .zip(room.walls().iter())
        .enumerate()
        .map(|(i, (&mid, wall))| AnchorArray::centered(i, mid, wall.direction(), 4))
        .collect()
}

/// The corridor venue's anchor placement: short-wall midpoints plus
/// long-wall quarter points, six 4-antenna arrays total, aligned with
/// their walls (boresight into the aisle).
///
/// The array axes follow the room's wall winding (bottom →, right ↑,
/// top ←, left ↓) so that `axis.perp()` — the boresight — points into
/// the room, matching [`standard_anchors`].
pub fn corridor_anchors(room: &Room) -> Vec<AnchorArray> {
    let (w, h) = (room.width, room.height);
    let mounts = [
        // Short walls (left/right), midpoints.
        (P2::new(0.0, h / 2.0), P2::new(0.0, -1.0)),
        (P2::new(w, h / 2.0), P2::new(0.0, 1.0)),
        // Long walls (bottom/top), quarter points.
        (P2::new(w / 4.0, 0.0), P2::new(1.0, 0.0)),
        (P2::new(3.0 * w / 4.0, 0.0), P2::new(1.0, 0.0)),
        (P2::new(w / 4.0, h), P2::new(-1.0, 0.0)),
        (P2::new(3.0 * w / 4.0, h), P2::new(-1.0, 0.0)),
    ];
    mounts
        .iter()
        .enumerate()
        .map(|(i, &(center, axis))| AnchorArray::centered(i, center, axis, 4))
        .collect()
}

/// The multi-room floor's anchor placement: six 4-antenna arrays on the
/// outer walls — two per long wall plus one per short wall, offset so no
/// anchor lands on an interior-wall junction.
pub fn multi_room_anchors(room: &Room) -> Vec<AnchorArray> {
    let (w, h) = (room.width, room.height);
    let mounts = [
        // Short walls, offset from the y = 7 m interior wall junctions.
        (P2::new(0.0, 3.5), P2::new(0.0, -1.0)),
        (P2::new(w, 10.5), P2::new(0.0, 1.0)),
        // Long walls, one anchor per interior zone boundary span.
        (P2::new(w / 4.0, 0.0), P2::new(1.0, 0.0)),
        (P2::new(3.0 * w / 4.0, 0.0), P2::new(1.0, 0.0)),
        (P2::new(w / 4.0, h), P2::new(-1.0, 0.0)),
        (P2::new(3.0 * w / 4.0, h), P2::new(-1.0, 0.0)),
    ];
    mounts
        .iter()
        .enumerate()
        .map(|(i, &(center, axis))| AnchorArray::centered(i, center, axis, 4))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_is_cluttered() {
        let s = Scenario::paper_testbed(1);
        assert_eq!(s.env.reflector_count(), 13); // 4 walls + 8 metal + 1 glass
        assert_eq!(s.anchors.len(), 4);
        assert!(s.anchors.iter().all(|a| a.n_antennas == 4));
    }

    #[test]
    fn clean_scenario_has_single_path() {
        let s = Scenario::clean_los(1);
        let paths = s.env.paths(P2::new(1.0, 1.0), P2::new(4.0, 4.0));
        assert_eq!(paths.len(), 1);
        assert!(paths[0].is_los);
    }

    #[test]
    fn anchors_face_into_the_room() {
        let s = Scenario::paper_testbed(2);
        let c = s.room.center();
        for a in &s.anchors {
            let inward = (c - a.center()).normalize();
            assert!(
                a.boresight().dot(inward) > 0.9,
                "anchor {} boresight {:?} must face the room",
                a.id,
                a.boresight()
            );
        }
    }

    #[test]
    fn scenario_is_deterministic_per_seed() {
        let a = Scenario::paper_testbed(7);
        let b = Scenario::paper_testbed(7);
        let tx = P2::new(1.5, 2.5);
        let rx = P2::new(3.5, 4.5);
        assert_eq!(a.env.channel(tx, rx, 2.44e9), b.env.channel(tx, rx, 2.44e9));
        let c = Scenario::paper_testbed(8);
        assert_ne!(a.env.channel(tx, rx, 2.44e9), c.env.channel(tx, rx, 2.44e9));
    }

    #[test]
    fn anchors_match_paper_layout() {
        let s = Scenario::paper_testbed(3);
        let mids = s.room.wall_midpoints();
        for (a, &m) in s.anchors.iter().zip(mids.iter()) {
            assert!(a.center().dist(m) < 1e-9);
        }
    }

    /// Checks an anchor sits on the room boundary with its boresight
    /// pointing along the inward wall normal.
    fn assert_on_wall_facing_in(room: &Room, a: &AnchorArray) {
        let c = a.center();
        let (w, h) = (room.width, room.height);
        let on_wall = c.x.abs() < 1e-9
            || (c.x - w).abs() < 1e-9
            || c.y.abs() < 1e-9
            || (c.y - h).abs() < 1e-9;
        assert!(on_wall, "anchor {} at {:?} must sit on a wall", a.id, c);
        let inward = if c.x.abs() < 1e-9 {
            P2::new(1.0, 0.0)
        } else if (c.x - w).abs() < 1e-9 {
            P2::new(-1.0, 0.0)
        } else if c.y.abs() < 1e-9 {
            P2::new(0.0, 1.0)
        } else {
            P2::new(0.0, -1.0)
        };
        assert!(
            a.boresight().dot(inward) > 0.99,
            "anchor {} boresight {:?} must match inward normal {:?}",
            a.id,
            a.boresight(),
            inward
        );
    }

    #[test]
    fn corridor_venue_layout() {
        let s = Scenario::corridor(1);
        assert_eq!(s.clutter, Clutter::CorridorVenue);
        assert!((s.room.width - 34.3).abs() < 1e-9);
        assert!((s.room.height - 9.9).abs() < 1e-9);
        assert_eq!(s.anchors.len(), 6);
        assert!(s.anchors.iter().all(|a| a.n_antennas == 4));
        for a in &s.anchors {
            assert_on_wall_facing_in(&s.room, a);
        }
        // 4 walls + 6 metal pillar faces.
        assert_eq!(s.env.reflector_count(), 10);
    }

    #[test]
    fn multi_room_floor_layout() {
        let s = Scenario::multi_room(1);
        assert_eq!(s.clutter, Clutter::MultiRoomFloor);
        assert!((s.room.width - 20.0).abs() < 1e-9);
        assert!((s.room.height - 14.0).abs() < 1e-9);
        assert_eq!(s.anchors.len(), 6);
        for a in &s.anchors {
            assert_on_wall_facing_in(&s.room, a);
        }
        // 4 walls + 6 interior wall segments.
        assert_eq!(s.env.reflector_count(), 10);
        // An interior wall attenuates a crossing path but a door gap
        // does not: compare two LOS paths, one through the x = 7 m wall,
        // one through its door at y ∈ [5.8, 7].
        let through_wall = s.env.paths(P2::new(6.0, 3.0), P2::new(8.0, 3.0));
        let through_door = s.env.paths(P2::new(6.0, 6.4), P2::new(8.0, 6.4));
        let los_gain = |paths: &[bloc_chan::environment::Path]| {
            paths
                .iter()
                .find(|p| p.is_los)
                .map(|p| p.coeff.abs())
                .expect("LOS path present")
        };
        assert!(los_gain(&through_wall) < los_gain(&through_door));
    }

    #[test]
    fn venues_are_deterministic_per_seed() {
        let tx = P2::new(3.0, 3.0);
        let rx = P2::new(15.0, 7.0);
        let a = Scenario::corridor(7);
        let b = Scenario::corridor(7);
        assert_eq!(a.env.channel(tx, rx, 2.44e9), b.env.channel(tx, rx, 2.44e9));
        let c = Scenario::multi_room(7);
        let d = Scenario::multi_room(7);
        assert_eq!(c.env.channel(tx, rx, 2.44e9), d.env.channel(tx, rx, 2.44e9));
        assert_ne!(a.env.channel(tx, rx, 2.44e9), c.env.channel(tx, rx, 2.44e9));
    }
}
