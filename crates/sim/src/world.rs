//! Node identity and spatial indexing.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::geometry::{Area, Point};

/// A node identifier, dense from `0..n` within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Normalizes an unordered node pair to `(smaller, larger)` — the key
/// shape used for contact-indexed maps throughout the workspace.
#[must_use]
pub fn ordered_pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Refuses the first of `ids` outside a world of `nodes` nodes, naming
/// `field`: restore checks every node id of a snapshot body with it.
///
/// # Errors
///
/// The first id outside the world.
pub fn check_node_ids(
    field: &str,
    nodes: usize,
    ids: impl IntoIterator<Item = NodeId>,
) -> Result<(), String> {
    match ids.into_iter().find(|id| id.index() >= nodes) {
        Some(id) => Err(format!(
            "{field} names node {id}, outside this world of {nodes} nodes"
        )),
        None => Ok(()),
    }
}

/// Most cells a contact grid holds per node; sparser worlds get wider
/// cells. The paper's worlds hold about one range-wide cell per node.
const MAX_CELLS_PER_NODE: f64 = 16.0;

/// The cell width of a contact grid over `area` for `nodes` nodes: never
/// below the radio `range` (nor 1 m), so every pair in range lies in
/// adjacent cells, and wide enough for at most `MAX_CELLS_PER_NODE` (16)
/// cells per node. Both contact cores size their grids here.
#[must_use]
pub fn cell_width(area: Area, range: f64, nodes: usize) -> f64 {
    let cap = MAX_CELLS_PER_NODE * nodes.max(1) as f64;
    let mut width = range.max(1.0).max((area.width * area.height / cap).sqrt());
    while (area.width / width).ceil() * (area.height / width).ceil() > cap {
        width *= 2.0;
    }
    width
}

/// A uniform spatial hash grid for range queries over node positions.
///
/// Cells are at least as wide as the radio range (see [`cell_width`]), so
/// all neighbours within range of a point lie in its 3×3 cell
/// neighbourhood. Rebuilt each simulation step
/// (positions change every step anyway), which is cheap: one pass over all
/// nodes.
#[derive(Debug)]
pub struct SpatialGrid {
    cell: f64,
    cols: usize,
    rows: usize,
    cells: Vec<Vec<NodeId>>,
}

impl SpatialGrid {
    /// Creates a grid covering `area` with cells of `cell_size` meters
    /// ([`cell_width`] picks one for a contact grid).
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive.
    #[must_use]
    pub fn new(area: Area, cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        let cols = (area.width / cell_size).ceil().max(1.0) as usize;
        let rows = (area.height / cell_size).ceil().max(1.0) as usize;
        SpatialGrid {
            cell: cell_size,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
        }
    }

    /// Number of cells in the grid.
    #[cfg(test)]
    pub(crate) fn cell_count(&self) -> usize {
        self.cells.len()
    }

    fn cell_of(&self, p: Point) -> (usize, usize) {
        let cx = ((p.x / self.cell) as usize).min(self.cols - 1);
        let cy = ((p.y / self.cell) as usize).min(self.rows - 1);
        (cx, cy)
    }

    /// Clears and re-inserts all nodes.
    pub fn rebuild(&mut self, positions: &[Point]) {
        for c in &mut self.cells {
            c.clear();
        }
        for (i, &p) in positions.iter().enumerate() {
            let (cx, cy) = self.cell_of(p);
            self.cells[cy * self.cols + cx].push(NodeId(i as u32));
        }
    }

    /// Visits every unordered pair of nodes whose distance is at most
    /// `range`. Each pair is visited exactly once, with `a < b`.
    pub fn for_each_pair_within(
        &self,
        positions: &[Point],
        range: f64,
        mut visit: impl FnMut(NodeId, NodeId),
    ) {
        let range_sq = range * range;
        for cy in 0..self.rows {
            for cx in 0..self.cols {
                let here = &self.cells[cy * self.cols + cx];
                if here.is_empty() {
                    continue;
                }
                // Pairs within this cell.
                for i in 0..here.len() {
                    for j in i + 1..here.len() {
                        let (a, b) = ordered_pair(here[i], here[j]);
                        if positions[a.index()].distance_sq_to(positions[b.index()]) <= range_sq {
                            visit(a, b);
                        }
                    }
                }
                // Pairs with forward neighbour cells (E, SW, S, SE) so each
                // cell pair is scanned once.
                for (dx, dy) in [(1i64, 0i64), (-1, 1), (0, 1), (1, 1)] {
                    let nx = cx as i64 + dx;
                    let ny = cy as i64 + dy;
                    if nx < 0 || ny < 0 || nx >= self.cols as i64 || ny >= self.rows as i64 {
                        continue;
                    }
                    let there = &self.cells[ny as usize * self.cols + nx as usize];
                    for &u in here {
                        for &v in there {
                            let (a, b) = ordered_pair(u, v);
                            if positions[a.index()].distance_sq_to(positions[b.index()]) <= range_sq
                            {
                                visit(a, b);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Brute-force reference for pair enumeration.
    fn brute(positions: &[Point], range: f64) -> BTreeSet<(u32, u32)> {
        let mut out = BTreeSet::new();
        for i in 0..positions.len() {
            for j in i + 1..positions.len() {
                if positions[i].distance_to(positions[j]) <= range {
                    out.insert((i as u32, j as u32));
                }
            }
        }
        out
    }

    fn grid_pairs(positions: &[Point], area: Area, range: f64) -> BTreeSet<(u32, u32)> {
        let mut grid = SpatialGrid::new(area, range);
        grid.rebuild(positions);
        let mut out = BTreeSet::new();
        grid.for_each_pair_within(positions, range, |a, b| {
            assert!(a < b, "pairs must be ordered");
            assert!(out.insert((a.0, b.0)), "pair visited twice: {a} {b}");
        });
        out
    }

    #[test]
    fn matches_brute_force_on_random_layouts() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let area = Area::new(1000.0, 800.0);
        for _ in 0..20 {
            let n = rng.gen_range(2..60);
            let positions: Vec<Point> = (0..n)
                .map(|_| {
                    Point::new(
                        rng.gen_range(0.0..area.width),
                        rng.gen_range(0.0..area.height),
                    )
                })
                .collect();
            let range = rng.gen_range(20.0..300.0);
            assert_eq!(
                grid_pairs(&positions, area, range),
                brute(&positions, range)
            );
        }
    }

    #[test]
    fn nodes_on_boundary_are_indexed() {
        let area = Area::new(100.0, 100.0);
        let positions = vec![Point::new(100.0, 100.0), Point::new(99.0, 99.0)];
        assert_eq!(grid_pairs(&positions, area, 5.0).len(), 1);
    }

    #[test]
    fn empty_world_yields_no_pairs() {
        let area = Area::new(10.0, 10.0);
        assert!(grid_pairs(&[], area, 5.0).is_empty());
        assert!(grid_pairs(&[Point::ORIGIN], area, 5.0).is_empty());
    }

    #[test]
    fn range_larger_than_area_connects_everyone() {
        let area = Area::new(50.0, 50.0);
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(0.0, 50.0),
            Point::new(50.0, 50.0),
        ];
        assert_eq!(grid_pairs(&positions, area, 1000.0).len(), 6);
    }
}
