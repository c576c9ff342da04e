use sparsegossip_grid::Point;

use crate::SpatialHash;

/// Degree statistics of a visibility graph `G_t(r)`.
///
/// The mean degree is the natural density parameter of the percolation
/// transition: on a uniform placement it concentrates around
/// `(2r² + 2r) · k / n` (the open L1 ball minus the agent itself,
/// times the agent density), and the giant component appears when it
/// crosses a constant. Exposed so experiments can report *why* a
/// radius percolates.
///
/// # Examples
///
/// ```
/// use sparsegossip_conngraph::DegreeStats;
/// use sparsegossip_grid::Point;
///
/// let pts = [Point::new(0, 0), Point::new(0, 1), Point::new(5, 5)];
/// let s = DegreeStats::compute(&pts, 1, 8);
/// assert_eq!(s.edges, 1);
/// assert_eq!(s.max_degree, 1);
/// assert!((s.mean_degree - 2.0 / 3.0).abs() < 1e-12);
/// assert_eq!(s.isolated, 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Number of edges (unordered agent pairs within distance `r`).
    pub edges: u64,
    /// Mean degree `2·edges / k` (0 for an empty agent set).
    pub mean_degree: f64,
    /// Maximum degree.
    pub max_degree: u32,
    /// Number of degree-0 agents.
    pub isolated: usize,
}

impl DegreeStats {
    /// Computes degree statistics via the same spatial hash as the
    /// component builder (O(k) expected in sparse regimes).
    ///
    /// # Panics
    ///
    /// Panics if `side == 0` or any position is outside the grid.
    #[must_use]
    pub fn compute(positions: &[Point], r: u32, side: u32) -> Self {
        let k = positions.len();
        if k == 0 {
            return Self {
                edges: 0,
                mean_degree: 0.0,
                max_degree: 0,
                isolated: 0,
            };
        }
        let mut degree = vec![0u32; k];
        let mut edges = 0u64;
        SpatialHash::build(positions, r, side).for_each_candidate_pair(|a, b| {
            if positions[a as usize].manhattan(positions[b as usize]) <= r {
                degree[a as usize] += 1;
                degree[b as usize] += 1;
                edges += 1;
            }
        });
        Self {
            edges,
            mean_degree: 2.0 * edges as f64 / k as f64,
            max_degree: degree.iter().copied().max().unwrap_or(0),
            isolated: degree.iter().filter(|&&d| d == 0).count(),
        }
    }

    /// The expected mean degree of a uniform placement:
    /// `(2r² + 2r) · k / n` (interior approximation, ignoring boundary
    /// clipping).
    #[must_use]
    pub fn expected_mean_degree(r: u32, k: usize, n: u64) -> f64 {
        let r = f64::from(r);
        (2.0 * r * r + 2.0 * r) * k as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    fn brute_edges(pts: &[Point], r: u32) -> u64 {
        let mut e = 0;
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                if pts[i].manhattan(pts[j]) <= r {
                    e += 1;
                }
            }
        }
        e
    }

    #[test]
    fn empty_set_is_all_zero() {
        let s = DegreeStats::compute(&[], 3, 8);
        assert_eq!(s.edges, 0);
        assert_eq!(s.mean_degree, 0.0);
        assert_eq!(s.isolated, 0);
    }

    #[test]
    fn matches_brute_force_edge_count() {
        let mut rng = SmallRng::seed_from_u64(31);
        for r in [0u32, 1, 3, 7, 15] {
            let pts: Vec<Point> = (0..80)
                .map(|_| Point::new(rng.random_range(0..40), rng.random_range(0..40)))
                .collect();
            let s = DegreeStats::compute(&pts, r, 40);
            assert_eq!(s.edges, brute_edges(&pts, r), "edge mismatch at r={r}");
        }
    }

    #[test]
    fn clique_statistics() {
        let pts = vec![Point::new(2, 2); 5];
        let s = DegreeStats::compute(&pts, 0, 8);
        assert_eq!(s.edges, 10);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.mean_degree, 4.0);
        assert_eq!(s.isolated, 0);
    }

    #[test]
    fn empirical_mean_degree_tracks_expectation() {
        let mut rng = SmallRng::seed_from_u64(32);
        let side = 128u32;
        let k = 512usize;
        let r = 6u32;
        let mut total = 0.0;
        let reps = 30;
        for _ in 0..reps {
            let pts: Vec<Point> = (0..k)
                .map(|_| Point::new(rng.random_range(0..side), rng.random_range(0..side)))
                .collect();
            total += DegreeStats::compute(&pts, r, side).mean_degree;
        }
        let mean = total / f64::from(reps);
        let expect = DegreeStats::expected_mean_degree(r, k, u64::from(side) * u64::from(side));
        // Boundary clipping lowers the empirical value slightly.
        assert!(
            mean > 0.7 * expect && mean < 1.05 * expect,
            "mean degree {mean} vs expected {expect}"
        );
    }
}
