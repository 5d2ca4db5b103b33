//! Trap-grid geometry, tile layouts, and the shuttling cost model.
//!
//! The paper abstracts the physical ion trap as "a collection of trapping
//! regions connected together through shared junctions" (Fig 1b): a 2D
//! grid where each region holds up to two ions (enough for a two-qubit
//! gate) and junctions are shared routing resources.

use cqla_units::{Cycles, SquareMillimeters};

use crate::params::TechnologyParams;

/// Integer coordinate of a trapping region on the grid.
///
/// # Examples
///
/// ```
/// use cqla_iontrap::RegionCoord;
///
/// let a = RegionCoord::new(0, 0);
/// let b = RegionCoord::new(3, 4);
/// assert_eq!(a.manhattan_distance(b), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionCoord {
    /// Column index.
    pub x: u32,
    /// Row index.
    pub y: u32,
}

impl RegionCoord {
    /// Creates a coordinate.
    #[must_use]
    pub const fn new(x: u32, y: u32) -> Self {
        Self { x, y }
    }

    /// Number of region-to-region hops between two coordinates under XY
    /// (dimension-ordered) routing.
    #[must_use]
    pub fn manhattan_distance(self, other: Self) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

impl core::fmt::Display for RegionCoord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A rectangular grid of trapping regions.
///
/// # Examples
///
/// ```
/// use cqla_iontrap::{TechnologyParams, TileLayout, TrapGrid};
///
/// let tech = TechnologyParams::projected();
/// let grid = TrapGrid::new(9, 9);
/// // A 9×9-region tile is the Steane level-1 footprint: ~0.2 mm².
/// let area = TileLayout::from_regions(grid.num_regions()).area(&tech);
/// assert!((area.value() - 0.2025).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrapGrid {
    cols: u32,
    rows: u32,
}

impl TrapGrid {
    /// Creates a `cols × rows` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(cols: u32, rows: u32) -> Self {
        assert!(cols > 0 && rows > 0, "grid dimensions must be positive");
        Self { cols, rows }
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Total trapping regions.
    #[must_use]
    pub fn num_regions(&self) -> u64 {
        u64::from(self.cols) * u64::from(self.rows)
    }

    /// `true` if the coordinate lies on this grid.
    #[must_use]
    pub fn contains(&self, c: RegionCoord) -> bool {
        c.x < self.cols && c.y < self.rows
    }

    /// Plans a ballistic shuttle between two regions.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the grid.
    #[must_use]
    pub fn route(&self, from: RegionCoord, to: RegionCoord) -> ShuttleRoute {
        assert!(self.contains(from), "route origin {from} off grid");
        assert!(self.contains(to), "route destination {to} off grid");
        ShuttleRoute {
            hops: from.manhattan_distance(to),
        }
    }
}

impl core::fmt::Display for TrapGrid {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}x{} trap grid", self.cols, self.rows)
    }
}

/// A planned ballistic shuttle: a sequence of region-to-region hops.
///
/// The cost model charges one [`Move`](crate::PhysicalOp::Move) cycle per
/// hop plus a split before departure and a sympathetic-cooling step on
/// arrival — the sequence described in the paper's Fig 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShuttleRoute {
    hops: u32,
}

impl ShuttleRoute {
    /// Total clock cycles: split + hops + cool (zero for a zero-hop route).
    #[must_use]
    pub fn cycles(&self) -> Cycles {
        if self.hops == 0 {
            Cycles::ZERO
        } else {
            Cycles::new(u64::from(self.hops) + 2)
        }
    }
}

/// A rectangular tile layout measured in trapping regions — the unit from
/// which logical-qubit tiles, compute blocks and memory banks are composed.
///
/// # Examples
///
/// ```
/// use cqla_iontrap::{TechnologyParams, TileLayout};
///
/// let tech = TechnologyParams::projected();
/// // Bacon-Shor level-1 tile: 6×7 regions ≈ 0.105 mm² (paper: ~0.1).
/// let tile = TileLayout::from_regions(42);
/// assert!((tile.area(&tech).value() - 0.105).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileLayout {
    regions: u64,
}

impl TileLayout {
    /// A tile occupying `regions` trapping regions (any aspect ratio).
    ///
    /// # Panics
    ///
    /// Panics if `regions` is zero.
    #[must_use]
    pub fn from_regions(regions: u64) -> Self {
        assert!(regions > 0, "a tile needs at least one region");
        Self { regions }
    }

    /// Number of trapping regions.
    #[must_use]
    pub fn regions(&self) -> u64 {
        self.regions
    }

    /// Physical area at the technology's region pitch.
    #[must_use]
    pub fn area(&self, tech: &TechnologyParams) -> SquareMillimeters {
        let pitch = tech.region_pitch();
        ((pitch * pitch) * self.regions as f64).to_square_millimeters()
    }

    /// A tile scaled by a routing-overhead factor (e.g. ×1.2 for the
    /// inter-subtile channels inside a level-2 tile).
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0` (overhead cannot shrink a tile).
    #[must_use]
    pub fn with_overhead(&self, factor: f64) -> Self {
        assert!(factor >= 1.0, "overhead factor must be >= 1");
        Self {
            regions: (self.regions as f64 * factor).ceil() as u64,
        }
    }

    /// Combines `count` copies of this tile side by side.
    #[must_use]
    pub fn repeated(&self, count: u64) -> Self {
        Self {
            regions: self.regions * count,
        }
    }
}

impl core::fmt::Display for TileLayout {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "tile of {} regions", self.regions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqla_units::Micrometers;

    fn tech() -> TechnologyParams {
        TechnologyParams::projected()
    }

    #[test]
    fn grid_counts_regions() {
        let g = TrapGrid::new(9, 9);
        assert_eq!(g.num_regions(), 81);
        assert_eq!(g.cols(), 9);
        assert_eq!(g.rows(), 9);
    }

    #[test]
    fn grid_area_matches_steane_tile() {
        // 81 regions at 50 µm pitch = 0.2025 mm² (paper Table 2: 0.2).
        let g = TrapGrid::new(9, 9);
        let area = TileLayout::from_regions(g.num_regions()).area(&tech());
        assert!((area.value() - 0.2025).abs() < 1e-12);
    }

    #[test]
    fn grid_dimensions() {
        let g = TrapGrid::new(4, 2);
        // 200 µm × 100 µm at the 50 µm region pitch.
        let area = TileLayout::from_regions(g.num_regions()).area(&tech());
        let expect = Micrometers::new(200.0) * Micrometers::new(100.0);
        assert_eq!(area, expect.to_square_millimeters());
    }

    #[test]
    fn contains_checks_bounds() {
        let g = TrapGrid::new(3, 3);
        assert!(g.contains(RegionCoord::new(2, 2)));
        assert!(!g.contains(RegionCoord::new(3, 0)));
    }

    #[test]
    fn route_cycle_model() {
        let g = TrapGrid::new(10, 10);
        let r = g.route(RegionCoord::new(0, 0), RegionCoord::new(3, 4));
        // split + 7 moves + cool
        assert_eq!(r.cycles(), Cycles::new(9));
    }

    #[test]
    fn zero_hop_route_is_free() {
        let g = TrapGrid::new(2, 2);
        let r = g.route(RegionCoord::new(1, 1), RegionCoord::new(1, 1));
        assert_eq!(r.cycles(), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "off grid")]
    fn route_rejects_out_of_bounds() {
        let g = TrapGrid::new(2, 2);
        let _ = g.route(RegionCoord::new(0, 0), RegionCoord::new(5, 5));
    }

    #[test]
    fn tile_overhead_and_repeat() {
        let t = TileLayout::from_regions(81);
        assert_eq!(t.repeated(14).regions(), 1134);
        assert_eq!(t.repeated(14).with_overhead(1.2).regions(), 1361);
    }

    #[test]
    fn steane_l2_tile_area_matches_paper() {
        // 14 sub-tiles × 81 regions × 1.2 routing = 1361 regions ≈ 3.4 mm².
        let l2 = TileLayout::from_regions(81).repeated(14).with_overhead(1.2);
        let area = l2.area(&tech());
        assert!((area.value() - 3.4).abs() < 0.01, "got {area}");
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn zero_tile_panics() {
        let _ = TileLayout::from_regions(0);
    }
}
