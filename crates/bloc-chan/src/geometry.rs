//! Planar geometry for the propagation model: segments, rooms, mirror
//! images and crossing tests.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bloc_num::P2;

/// A line segment (a wall face or reflector face).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Segment {
    /// One endpoint.
    pub a: P2,
    /// The other endpoint.
    pub b: P2,
}

impl Segment {
    /// Builds a segment.
    pub fn new(a: P2, b: P2) -> Self {
        Self { a, b }
    }

    /// Segment length, metres.
    pub(crate) fn length(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// The point at parameter `t ∈ [0, 1]` along the segment.
    pub(crate) fn point_at(&self, t: f64) -> P2 {
        self.a.lerp(self.b, t)
    }

    /// Unit direction a → b.
    pub fn direction(&self) -> P2 {
        (self.b - self.a).normalize()
    }

    /// Mirror image of point `p` across this segment's supporting line —
    /// the image-source construction for specular reflection.
    pub(crate) fn mirror(&self, p: P2) -> P2 {
        let d = self.direction();
        let v = p - self.a;
        let along = d * v.dot(d);
        let perp = v - along;
        p - perp * 2.0
    }

    /// Parameter `t` of the intersection of this segment's supporting line
    /// with the segment `from → to`, as `(t_self, t_other)`; `None` when
    /// parallel.
    fn line_intersection_params(&self, from: P2, to: P2) -> Option<(f64, f64)> {
        let r = self.b - self.a;
        let s = to - from;
        let denom = r.cross(s);
        if denom.abs() < 1e-12 {
            return None;
        }
        let qp = from - self.a;
        let t_self = qp.cross(s) / denom;
        let t_other = qp.cross(r) / denom;
        Some((t_self, t_other))
    }

    /// True when the open segment `from → to` crosses this segment
    /// (used for obstruction tests; touching endpoints do not count).
    pub(crate) fn crosses(&self, from: P2, to: P2) -> bool {
        match self.line_intersection_params(from, to) {
            Some((t, u)) => (1e-9..1.0 - 1e-9).contains(&t) && (1e-9..1.0 - 1e-9).contains(&u),
            None => false,
        }
    }

    /// The specular reflection point on this segment for a transmitter at
    /// `tx` and receiver at `rx`, if the specular geometry lands on the
    /// segment: the intersection of `image(tx) → rx` with the segment.
    pub(crate) fn specular_point(&self, tx: P2, rx: P2) -> Option<P2> {
        let image = self.mirror(tx);
        let (t, u) = self.line_intersection_params(image, rx)?;
        if (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&u) {
            Some(self.point_at(t))
        } else {
            None
        }
    }
}

/// An axis-aligned rectangular room with its lower-left corner at the
/// origin (the paper's 5 m × 6 m VICON room is `Room::new(5.0, 6.0)`).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Room {
    /// Extent along x, metres.
    pub width: f64,
    /// Extent along y, metres.
    pub height: f64,
}

impl Room {
    /// Builds a room.
    ///
    /// # Panics
    /// Panics for non-positive dimensions.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && height > 0.0,
            "room dimensions must be positive"
        );
        Self { width, height }
    }

    /// The four wall segments, counter-clockwise from the bottom wall.
    pub fn walls(&self) -> [Segment; 4] {
        let (w, h) = (self.width, self.height);
        [
            Segment::new(P2::new(0.0, 0.0), P2::new(w, 0.0)), // bottom
            Segment::new(P2::new(w, 0.0), P2::new(w, h)),     // right
            Segment::new(P2::new(w, h), P2::new(0.0, h)),     // top
            Segment::new(P2::new(0.0, h), P2::new(0.0, 0.0)), // left
        ]
    }

    /// The midpoints of the four walls — where the paper places its anchors
    /// ("the anchor points are present on the 4 edges of the VICON room, in
    /// the centre of each edge", §7).
    pub fn wall_midpoints(&self) -> [P2; 4] {
        self.walls().map(|s| s.a.midpoint(s.b))
    }

    /// The room centre.
    pub fn center(&self) -> P2 {
        P2::new(self.width / 2.0, self.height / 2.0)
    }

    /// True when `p` lies inside (or on the boundary of) the room.
    #[cfg(test)]
    pub(crate) fn contains(&self, p: P2) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }

    /// Shrinks the room's interior by `margin` on all sides and returns the
    /// (origin, extent) of the shrunk region — used for sampling tag
    /// positions away from the walls.
    pub fn interior(&self, margin: f64) -> (P2, P2) {
        (
            P2::new(margin, margin),
            P2::new(
                (self.width - 2.0 * margin).max(0.0),
                (self.height - 2.0 * margin).max(0.0),
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mirror_across_horizontal_wall() {
        let wall = Segment::new(P2::new(0.0, 0.0), P2::new(5.0, 0.0));
        let img = wall.mirror(P2::new(2.0, 3.0));
        assert!(img.dist(P2::new(2.0, -3.0)) < 1e-12);
    }

    #[test]
    fn mirror_is_involution() {
        let wall = Segment::new(P2::new(1.0, 0.5), P2::new(4.0, 3.5));
        let p = P2::new(2.0, 2.0);
        assert!(wall.mirror(wall.mirror(p)).dist(p) < 1e-12);
    }

    #[test]
    fn specular_point_equal_angles() {
        // tx and rx symmetric about the wall normal: specular point in the
        // middle, and path length equals image-to-rx distance.
        let wall = Segment::new(P2::new(0.0, 0.0), P2::new(6.0, 0.0));
        let tx = P2::new(1.0, 2.0);
        let rx = P2::new(5.0, 2.0);
        let sp = wall.specular_point(tx, rx).unwrap();
        assert!(sp.dist(P2::new(3.0, 0.0)) < 1e-12);
        let via = tx.dist(sp) + sp.dist(rx);
        let image = wall.mirror(tx);
        assert!((via - image.dist(rx)).abs() < 1e-12);
    }

    #[test]
    fn specular_point_off_segment_is_none() {
        let wall = Segment::new(P2::new(0.0, 0.0), P2::new(1.0, 0.0));
        // Geometry demands a reflection point at x = 3: off this short wall.
        assert!(wall
            .specular_point(P2::new(2.0, 1.0), P2::new(4.0, 1.0))
            .is_none());
    }

    #[test]
    fn crossing_detection() {
        let wall = Segment::new(P2::new(0.0, -1.0), P2::new(0.0, 1.0));
        assert!(wall.crosses(P2::new(-1.0, 0.0), P2::new(1.0, 0.0)));
        assert!(!wall.crosses(P2::new(-1.0, 2.0), P2::new(1.0, 2.0)));
        assert!(!wall.crosses(P2::new(1.0, -1.0), P2::new(1.0, 1.0))); // parallel
    }

    #[test]
    fn room_basics() {
        let room = Room::new(5.0, 6.0);
        assert_eq!(room.center(), P2::new(2.5, 3.0));
        assert!(room.contains(P2::new(0.0, 0.0)));
        assert!(room.contains(P2::new(5.0, 6.0)));
        assert!(!room.contains(P2::new(5.01, 3.0)));
        let mids = room.wall_midpoints();
        assert_eq!(mids[0], P2::new(2.5, 0.0));
        assert_eq!(mids[1], P2::new(5.0, 3.0));
        assert_eq!(mids[2], P2::new(2.5, 6.0));
        assert_eq!(mids[3], P2::new(0.0, 3.0));
    }

    #[test]
    fn walls_form_closed_loop() {
        let walls = Room::new(3.0, 4.0).walls();
        for i in 0..4 {
            assert!(walls[i].b.dist(walls[(i + 1) % 4].a) < 1e-12);
        }
        let perimeter: f64 = walls.iter().map(|w| w.length()).sum();
        assert!((perimeter - 14.0).abs() < 1e-12);
    }

    #[test]
    fn interior_margin() {
        let room = Room::new(5.0, 6.0);
        let (o, e) = room.interior(0.5);
        assert_eq!(o, P2::new(0.5, 0.5));
        assert_eq!(e, P2::new(4.0, 5.0));
    }

    proptest! {
        #[test]
        fn prop_mirror_preserves_distance_to_wall_line(px in -5.0..5.0f64, py in 0.1..5.0f64,
                                                       ax in -3.0..3.0f64, bx in 3.5..8.0f64) {
            let wall = Segment::new(P2::new(ax, 0.0), P2::new(bx, 0.0));
            let p = P2::new(px, py);
            let img = wall.mirror(p);
            prop_assert!((img.y + p.y).abs() < 1e-9);
            prop_assert!((img.x - p.x).abs() < 1e-9);
        }

        #[test]
        fn prop_specular_path_equals_image_distance(tx_x in 0.5..4.5f64, tx_y in 0.5..5.5f64,
                                                    rx_x in 0.5..4.5f64, rx_y in 0.5..5.5f64) {
            let wall = Segment::new(P2::new(-100.0, 0.0), P2::new(100.0, 0.0));
            let tx = P2::new(tx_x, tx_y);
            let rx = P2::new(rx_x, rx_y);
            if let Some(sp) = wall.specular_point(tx, rx) {
                let via = tx.dist(sp) + sp.dist(rx);
                let direct_img = wall.mirror(tx).dist(rx);
                prop_assert!((via - direct_img).abs() < 1e-9);
                // Reflected path is never shorter than the direct path.
                prop_assert!(via >= tx.dist(rx) - 1e-9);
            }
        }
    }
}
