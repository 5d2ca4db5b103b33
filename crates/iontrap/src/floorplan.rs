//! Tile floorplanning: explicit ion placement inside a logical-qubit tile.
//!
//! The ECC cost models charge a fixed movement budget per syndrome
//! extraction (e.g. 40 cycles for the Steane level-1 tile). This module
//! grounds those budgets: it places data and ancilla ions on the tile's
//! trap grid and derives shuttle distances for the syndrome-extraction
//! traffic pattern, so the budget can be checked rather than assumed.

use crate::layout::{RegionCoord, TrapGrid};
use cqla_units::Cycles;

/// An explicit placement of data and ancilla ions on a tile's trap grid.
///
/// Data ions occupy the central rows (minimizing their worst-case distance
/// to any ancilla); ancilla ions fill outward from the data. One region
/// holds at most one resident ion — the second slot of each region is the
/// interaction site.
///
/// # Examples
///
/// ```
/// use cqla_iontrap::TileFloorplan;
///
/// let steane = TileFloorplan::steane_level1();
/// // Every ancilla can reach every data ion within the tile.
/// assert!(steane.max_interaction_distance() < 12);
/// ```
#[derive(Debug, Clone)]
pub struct TileFloorplan {
    grid: TrapGrid,
    data: Vec<RegionCoord>,
    ancilla: Vec<RegionCoord>,
}

impl TileFloorplan {
    /// Places `data_ions` and `ancilla_ions` on `grid`.
    ///
    /// # Panics
    ///
    /// Panics if the grid cannot hold all ions (one resident per region).
    #[must_use]
    pub fn new(grid: TrapGrid, data_ions: u32, ancilla_ions: u32) -> Self {
        let total = u64::from(data_ions) + u64::from(ancilla_ions);
        assert!(
            total <= grid.num_regions(),
            "{total} ions exceed {} regions",
            grid.num_regions()
        );
        // Order all regions by distance from the grid center; data ions
        // take the closest regions, ancilla the next ring out.
        let cx = f64::from(grid.cols() - 1) / 2.0;
        let cy = f64::from(grid.rows() - 1) / 2.0;
        let mut regions: Vec<RegionCoord> = (0..grid.rows())
            .flat_map(|y| (0..grid.cols()).map(move |x| RegionCoord::new(x, y)))
            .collect();
        regions.sort_by(|a, b| {
            let da = (f64::from(a.x) - cx).abs() + (f64::from(a.y) - cy).abs();
            let db = (f64::from(b.x) - cx).abs() + (f64::from(b.y) - cy).abs();
            da.partial_cmp(&db)
                .unwrap()
                .then_with(|| (a.y, a.x).cmp(&(b.y, b.x)))
        });
        let data: Vec<RegionCoord> = regions[..data_ions as usize].to_vec();
        let ancilla: Vec<RegionCoord> =
            regions[data_ions as usize..(data_ions + ancilla_ions) as usize].to_vec();
        Self {
            grid,
            data,
            ancilla,
        }
    }

    /// The Steane level-1 tile: 7 data + 21 ancilla on the 9×9 grid the
    /// area model uses.
    #[must_use]
    pub fn steane_level1() -> Self {
        Self::new(TrapGrid::new(9, 9), 7, 21)
    }

    /// The Bacon-Shor level-1 tile: 9 data + 12 ancilla on a 6×7 grid.
    #[must_use]
    pub fn bacon_shor_level1() -> Self {
        Self::new(TrapGrid::new(6, 7), 9, 12)
    }

    /// The underlying trap grid.
    #[must_use]
    pub fn grid(&self) -> TrapGrid {
        self.grid
    }

    /// Worst-case hops for any ancilla ion to reach any data ion.
    #[must_use]
    pub fn max_interaction_distance(&self) -> u32 {
        self.ancilla
            .iter()
            .flat_map(|a| self.data.iter().map(move |d| a.manhattan_distance(*d)))
            .max()
            .unwrap_or(0)
    }

    /// Shuttle cycles to interact one ancilla with each data ion of a
    /// stabilizer of the given support size: the ancilla visits the
    /// `weight` nearest data ions greedily, with split+cool overhead per
    /// leg.
    ///
    /// # Panics
    ///
    /// Panics if `weight` exceeds the data-ion count or the floorplan has
    /// no ancilla.
    #[must_use]
    pub fn syndrome_shuttle_cycles(&self, weight: usize) -> Cycles {
        assert!(
            weight <= self.data.len(),
            "stabilizer wider than the data block"
        );
        let start = *self.ancilla.first().expect("floorplan has ancilla");
        let mut pos = start;
        let mut remaining: Vec<RegionCoord> = self.data.clone();
        let mut total = Cycles::ZERO;
        for _ in 0..weight {
            let (idx, _) = remaining
                .iter()
                .enumerate()
                .min_by_key(|(_, d)| pos.manhattan_distance(**d))
                .expect("remaining non-empty");
            let next = remaining.swap_remove(idx);
            total += self.grid.route(pos, next).cycles();
            pos = next;
        }
        // Return trip to the measurement zone (the home region).
        total += self.grid.route(pos, start).cycles();
        total
    }
}

impl core::fmt::Display for TileFloorplan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "floorplan on {}: {} data + {} ancilla",
            self.grid,
            self.data.len(),
            self.ancilla.len()
        )?;
        for y in 0..self.grid.rows() {
            for x in 0..self.grid.cols() {
                let c = RegionCoord::new(x, y);
                let ch = if self.data.contains(&c) {
                    'D'
                } else if self.ancilla.contains(&c) {
                    'a'
                } else {
                    '.'
                };
                write!(f, "{ch}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placements_are_disjoint_and_on_grid() {
        for plan in [
            TileFloorplan::steane_level1(),
            TileFloorplan::bacon_shor_level1(),
        ] {
            let mut seen = std::collections::HashSet::new();
            for c in plan.data.iter().chain(&plan.ancilla) {
                assert!(plan.grid().contains(*c), "{c} off grid");
                assert!(seen.insert(*c), "{c} double-booked");
            }
        }
    }

    #[test]
    fn data_sits_in_the_center() {
        let plan = TileFloorplan::steane_level1();
        // Center region (4,4) of a 9x9 grid must be a data home.
        assert!(plan.data.contains(&RegionCoord::new(4, 4)));
        // All data within 2 hops of center.
        for d in &plan.data {
            assert!(d.manhattan_distance(RegionCoord::new(4, 4)) <= 2, "{d}");
        }
    }

    #[test]
    fn steane_movement_budget_is_achievable() {
        // The ecc schedule budgets 40 movement cycles per Steane level-1
        // syndrome. A transversal interaction round (ancilla block meets
        // data block) costs one weight-7 chain here.
        let plan = TileFloorplan::steane_level1();
        let chain = plan.syndrome_shuttle_cycles(7);
        assert!(
            chain.count() <= 40,
            "weight-7 interaction chain needs {chain}, budget is 40"
        );
    }

    #[test]
    fn bacon_shor_movement_budget_is_achievable() {
        // Gauge measurements are weight-2: six chains of 2 per species,
        // but they run in parallel pairs; a single weight-2 chain must fit
        // well under the 20-cycle budget.
        let plan = TileFloorplan::bacon_shor_level1();
        let chain = plan.syndrome_shuttle_cycles(2);
        assert!(chain.count() <= 20, "weight-2 chain needs {chain}");
    }

    #[test]
    fn interaction_distance_bounded_by_grid_diameter() {
        for plan in [
            TileFloorplan::steane_level1(),
            TileFloorplan::bacon_shor_level1(),
        ] {
            let diameter = plan.grid().cols() - 1 + plan.grid().rows() - 1;
            assert!(plan.max_interaction_distance() <= diameter);
        }
    }

    #[test]
    fn display_draws_the_tile() {
        let text = TileFloorplan::steane_level1().to_string();
        assert!(text.contains('D'));
        assert!(text.contains('a'));
        assert_eq!(text.lines().count(), 10); // header + 9 rows
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn overfull_grid_rejected() {
        let _ = TileFloorplan::new(TrapGrid::new(2, 2), 3, 3);
    }
}
