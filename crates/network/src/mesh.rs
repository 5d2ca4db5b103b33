//! The CQLA's 2D mesh interconnect: node grid, XY routing, link loads.
//!
//! The CQLA arranges its tiles and compute blocks in a mesh connected by
//! teleportation channels (paper §2, §6). Messages are logical-qubit
//! teleports; this module routes them dimension-ordered (X then Y) and
//! reports per-link congestion, from which communication time estimates
//! follow (time ≈ max link load × per-message service when transfers
//! pipeline).

use std::collections::HashMap;

/// A node (tile or compute block) position on the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeCoord {
    /// Column.
    pub x: u32,
    /// Row.
    pub y: u32,
}

impl NodeCoord {
    /// Creates a node coordinate.
    #[must_use]
    pub const fn new(x: u32, y: u32) -> Self {
        Self { x, y }
    }
}

impl core::fmt::Display for NodeCoord {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A directed mesh link between adjacent nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Link {
    /// Source node.
    pub from: NodeCoord,
    /// Destination node (adjacent to `from`).
    pub to: NodeCoord,
}

/// A rectangular mesh of teleportation-connected nodes.
///
/// # Examples
///
/// ```
/// use cqla_network::{Mesh, NodeCoord};
///
/// let mesh = Mesh::new(4, 4);
/// let route = mesh.xy_route(NodeCoord::new(0, 0), NodeCoord::new(3, 2));
/// assert_eq!(route.len(), 5); // 3 hops in X, then 2 in Y
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    cols: u32,
    rows: u32,
}

impl Mesh {
    /// Creates a `cols × rows` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(cols: u32, rows: u32) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be positive");
        Self { cols, rows }
    }

    /// Square mesh with at least `nodes` nodes.
    #[must_use]
    pub fn square_for(nodes: u32) -> Self {
        let side = (f64::from(nodes).sqrt().ceil() as u32).max(1);
        Self::new(side, side)
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

    /// Total nodes.
    #[must_use]
    pub fn num_nodes(&self) -> u64 {
        u64::from(self.cols) * u64::from(self.rows)
    }

    /// All node coordinates in row-major order.
    #[must_use]
    pub fn nodes(&self) -> Vec<NodeCoord> {
        let mut v = Vec::with_capacity(self.num_nodes() as usize);
        for y in 0..self.rows {
            for x in 0..self.cols {
                v.push(NodeCoord::new(x, y));
            }
        }
        v
    }

    /// `true` if the coordinate is on the mesh.
    #[must_use]
    pub fn contains(&self, c: NodeCoord) -> bool {
        c.x < self.cols && c.y < self.rows
    }

    /// Dimension-ordered (X-then-Y) route as the sequence of directed
    /// links traversed. Empty when `from == to`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is off the mesh.
    #[must_use]
    pub fn xy_route(&self, from: NodeCoord, to: NodeCoord) -> Vec<Link> {
        assert!(self.contains(from), "origin {from} off mesh");
        assert!(self.contains(to), "destination {to} off mesh");
        let mut links = Vec::new();
        let mut cur = from;
        while cur.x != to.x {
            let next = NodeCoord::new(if to.x > cur.x { cur.x + 1 } else { cur.x - 1 }, cur.y);
            links.push(Link {
                from: cur,
                to: next,
            });
            cur = next;
        }
        while cur.y != to.y {
            let next = NodeCoord::new(cur.x, if to.y > cur.y { cur.y + 1 } else { cur.y - 1 });
            links.push(Link {
                from: cur,
                to: next,
            });
            cur = next;
        }
        links
    }

    /// Routes every `(source, destination, messages)` demand over XY paths
    /// and returns the per-link message counts.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is off the mesh.
    #[must_use]
    pub fn link_loads<I>(&self, demands: I) -> HashMap<Link, u64>
    where
        I: IntoIterator<Item = (NodeCoord, NodeCoord, u64)>,
    {
        let mut loads = HashMap::new();
        for (src, dst, count) in demands {
            for link in self.xy_route(src, dst) {
                *loads.entry(link).or_insert(0) += count;
            }
        }
        loads
    }

    /// The maximum per-link load of a demand set — the pipelined
    /// communication-time bound in message-service units.
    #[must_use]
    pub fn max_link_load<I>(&self, demands: I) -> u64
    where
        I: IntoIterator<Item = (NodeCoord, NodeCoord, u64)>,
    {
        self.link_loads(demands)
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }
}

impl core::fmt::Display for Mesh {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}x{} mesh", self.cols, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_lengths_are_manhattan() {
        let mesh = Mesh::new(5, 5);
        let route = mesh.xy_route(NodeCoord::new(4, 4), NodeCoord::new(1, 0));
        assert_eq!(route.len(), 7);
        // Links chain correctly.
        for pair in route.windows(2) {
            assert_eq!(pair[0].to, pair[1].from);
        }
        assert_eq!(route[0].from, NodeCoord::new(4, 4));
        assert_eq!(route.last().unwrap().to, NodeCoord::new(1, 0));
    }

    #[test]
    fn self_route_is_empty() {
        let mesh = Mesh::new(3, 3);
        assert!(mesh
            .xy_route(NodeCoord::new(1, 1), NodeCoord::new(1, 1))
            .is_empty());
    }

    #[test]
    fn x_before_y() {
        let mesh = Mesh::new(3, 3);
        let route = mesh.xy_route(NodeCoord::new(0, 0), NodeCoord::new(2, 2));
        // First two links move in X, last two in Y.
        assert_eq!(route[0].to, NodeCoord::new(1, 0));
        assert_eq!(route[1].to, NodeCoord::new(2, 0));
        assert_eq!(route[2].to, NodeCoord::new(2, 1));
        assert_eq!(route[3].to, NodeCoord::new(2, 2));
    }

    #[test]
    fn link_loads_accumulate() {
        let mesh = Mesh::new(3, 1);
        let a = NodeCoord::new(0, 0);
        let c = NodeCoord::new(2, 0);
        let loads = mesh.link_loads([(a, c, 2), (a, NodeCoord::new(1, 0), 3)]);
        let first_link = Link {
            from: a,
            to: NodeCoord::new(1, 0),
        };
        assert_eq!(loads[&first_link], 5);
        assert_eq!(mesh.max_link_load([(a, c, 2)]), 2);
    }

    #[test]
    fn square_for_covers_requested_nodes() {
        for n in [1u32, 2, 9, 10, 100, 101] {
            let mesh = Mesh::square_for(n);
            assert!(mesh.num_nodes() >= u64::from(n), "n={n}: {mesh}");
            assert_eq!(mesh.cols(), mesh.rows());
        }
    }

    #[test]
    fn nodes_enumerates_all() {
        let mesh = Mesh::new(3, 2);
        assert_eq!(mesh.nodes().len(), 6);
        assert_eq!(mesh.num_nodes(), 6);
    }

    #[test]
    #[should_panic(expected = "off mesh")]
    fn route_rejects_out_of_bounds() {
        let mesh = Mesh::new(2, 2);
        let _ = mesh.xy_route(NodeCoord::new(0, 0), NodeCoord::new(5, 0));
    }

    #[test]
    fn empty_demand_has_zero_load() {
        let mesh = Mesh::new(2, 2);
        assert_eq!(mesh.max_link_load(std::iter::empty()), 0);
    }
}
