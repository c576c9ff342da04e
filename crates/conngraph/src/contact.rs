//! Pairwise contact models: the predicate deciding which agent pairs
//! are adjacent in the visibility graph `G_t`.
//!
//! The paper's model is homogeneous — two agents hear each other iff
//! their Manhattan distance is at most one global radius `r`
//! ([`UniformContact`]). Heterogeneous worlds replace the predicate,
//! not the machinery: the generic `_by` entry points
//! ([`components_into_by`](crate::components_into_by),
//! [`components_from_seeds_on_by`](crate::components_from_seeds_on_by))
//! accept any [`Contact`] and keep the spatial-hash candidate pruning,
//! so per-agent radii ([`RadiiContact`]) or wall-aware models cost the
//! same near-linear scan.
//!
//! **Contract:** every implementation must be *symmetric*
//! (`in_contact(a, b, pa, pb) == in_contact(b, a, pb, pa)`) and must
//! imply `pa.manhattan(pb) <= R` for some bound `R` no larger than the
//! bucket radius the spatial hash was built with — the reach-aware
//! bucket scan examines only pairs within one bucket side of each
//! other, and at bucket radius 0 only co-located pairs.

use sparsegossip_grid::Point;

/// A symmetric pairwise adjacency predicate over agents.
pub trait Contact {
    /// Whether agents `a` and `b` (at `pa`, `pb`) are in contact.
    /// Must be symmetric in `(a, pa)` ↔ `(b, pb)`.
    fn in_contact(&self, a: usize, b: usize, pa: Point, pb: Point) -> bool;
}

/// The paper's homogeneous contact model: adjacency iff Manhattan
/// distance ≤ a single global radius.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UniformContact(pub u32);

impl Contact for UniformContact {
    #[inline]
    fn in_contact(&self, _a: usize, _b: usize, pa: Point, pb: Point) -> bool {
        pa.manhattan(pb) <= self.0
    }
}

/// Per-agent heterogeneous radii under the symmetric `min` rule: agents
/// `a` and `b` are adjacent iff both can hear each other, i.e. their
/// Manhattan distance is ≤ `min(r_a, r_b)`. An `r = 0` agent is
/// contact-only: it connects exclusively to co-located agents.
///
/// The slice is indexed by agent; build the spatial hash with the
/// **maximum** radius so the reach-aware candidate scan stays a
/// superset of every pair the `min` rule can accept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RadiiContact<'a>(pub &'a [u32]);

impl Contact for RadiiContact<'_> {
    #[inline]
    fn in_contact(&self, a: usize, b: usize, pa: Point, pb: Point) -> bool {
        pa.manhattan(pb) <= self.0[a].min(self.0[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_contact_is_manhattan_ball() {
        let c = UniformContact(2);
        assert!(c.in_contact(0, 1, Point::new(0, 0), Point::new(1, 1)));
        assert!(!c.in_contact(0, 1, Point::new(0, 0), Point::new(2, 1)));
    }

    #[test]
    fn radii_contact_takes_the_min() {
        let radii = [3u32, 1, 0];
        let c = RadiiContact(&radii);
        let (p0, p1) = (Point::new(0, 0), Point::new(0, 2));
        // Distance 2 > min(3, 1): no contact, both directions.
        assert!(!c.in_contact(0, 1, p0, p1));
        assert!(!c.in_contact(1, 0, p1, p0));
        // Distance 1 <= min(3, 1).
        assert!(c.in_contact(0, 1, p0, Point::new(0, 1)));
        // An r = 0 agent hears only co-located peers.
        assert!(!c.in_contact(0, 2, p0, Point::new(0, 1)));
        assert!(c.in_contact(0, 2, p0, Point::new(0, 0)));
    }
}
