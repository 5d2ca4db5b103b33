//! Event-driven message routing on the mesh.
//!
//! [`Mesh::max_link_load`](crate::Mesh::max_link_load) gives the analytic
//! congestion bound; this module actually *runs* the traffic: messages are
//! teleported hop by hop through per-link channel pools, so queueing,
//! pipelining and head-of-line effects show up in the completion times.
//! Used to sanity-check the Fig 8b communication estimates.

use std::collections::HashMap;

use cqla_sim::{ChannelPool, SimTime};
use cqla_units::Seconds;

use crate::mesh::{Link, Mesh, NodeCoord};

/// Configuration of a routing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingConfig {
    /// Teleportation channels per directed link.
    pub channels_per_link: u32,
    /// Service time for one logical qubit across one link.
    pub hop_service: Seconds,
}

impl RoutingConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `channels_per_link` is zero or `hop_service` is invalid.
    #[must_use]
    pub fn new(channels_per_link: u32, hop_service: Seconds) -> Self {
        assert!(channels_per_link > 0, "links need at least one channel");
        assert!(
            hop_service.is_valid() && hop_service.as_secs() > 0.0,
            "hop service must be positive"
        );
        Self {
            channels_per_link,
            hop_service,
        }
    }
}

/// Result of routing a traffic pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingReport {
    /// Per-message completion times, in input order.
    pub completions: Seconds,
    /// Latest completion across all messages.
    pub makespan: Seconds,
    /// Mean message latency.
    pub mean_latency: Seconds,
    /// Messages routed.
    pub messages: usize,
    /// Busiest link's total busy time.
    pub max_link_busy: Seconds,
}

/// The routing simulator.
///
/// # Examples
///
/// ```
/// use cqla_network::{Mesh, NodeCoord, RoutingConfig, RoutingSim};
/// use cqla_units::Seconds;
///
/// let mesh = Mesh::new(4, 1);
/// let config = RoutingConfig::new(1, Seconds::new(1.0));
/// let msgs = vec![(NodeCoord::new(0, 0), NodeCoord::new(3, 0))];
/// let report = RoutingSim::new(&mesh).run(&msgs, &config);
/// // Three hops, store-and-forward: 3 seconds.
/// assert!((report.makespan.as_secs() - 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct RoutingSim {
    mesh: Mesh,
}

impl RoutingSim {
    /// Creates a simulator over `mesh`.
    #[must_use]
    pub fn new(mesh: &Mesh) -> Self {
        Self { mesh: *mesh }
    }

    /// Routes every `(src, dst)` message (all injected at time zero) and
    /// reports completion statistics.
    ///
    /// Messages are processed in input order; each walks its XY route
    /// store-and-forward, booking one channel per link.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is off the mesh.
    #[must_use]
    pub fn run(
        &self,
        messages: &[(NodeCoord, NodeCoord)],
        config: &RoutingConfig,
    ) -> RoutingReport {
        let mut pools: HashMap<Link, ChannelPool> = HashMap::new();
        let mut makespan = SimTime::ZERO;
        let mut total = Seconds::ZERO;
        let mut done = 0usize;
        for &(src, dst) in messages {
            let mut at = SimTime::ZERO;
            for link in self.mesh.xy_route(src, dst) {
                let pool = pools
                    .entry(link)
                    .or_insert_with(|| ChannelPool::new(config.channels_per_link as usize));
                at = pool.book(at, config.hop_service).end;
            }
            makespan = makespan.max(at);
            total += at.to_duration();
            done += 1;
        }
        let max_link_busy = pools
            .values()
            .map(ChannelPool::busy_time)
            .fold(Seconds::ZERO, Seconds::max);
        RoutingReport {
            completions: total,
            makespan: makespan.to_duration(),
            mean_latency: if done == 0 {
                Seconds::ZERO
            } else {
                total / done as f64
            },
            messages: done,
            max_link_busy,
        }
    }

    /// Routes the full all-to-all pattern (one message per ordered pair).
    #[must_use]
    pub fn run_all_to_all(&self, config: &RoutingConfig) -> RoutingReport {
        let nodes = self.mesh.nodes();
        let mut msgs = Vec::with_capacity(nodes.len() * (nodes.len() - 1));
        for &s in &nodes {
            for &d in &nodes {
                if s != d {
                    msgs.push((s, d));
                }
            }
        }
        self.run(&msgs, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alltoall::AllToAll;

    fn cfg(channels: u32) -> RoutingConfig {
        RoutingConfig::new(channels, Seconds::new(1.0))
    }

    #[test]
    fn disjoint_rows_route_in_parallel() {
        let mesh = Mesh::new(4, 4);
        let msgs: Vec<_> = (0..4)
            .map(|y| (NodeCoord::new(0, y), NodeCoord::new(3, y)))
            .collect();
        let report = RoutingSim::new(&mesh).run(&msgs, &cfg(1));
        assert!((report.makespan.as_secs() - 3.0).abs() < 1e-9);
        assert_eq!(report.messages, 4);
    }

    #[test]
    fn shared_link_serializes() {
        let mesh = Mesh::new(2, 1);
        let msgs = vec![(NodeCoord::new(0, 0), NodeCoord::new(1, 0)); 5];
        let report = RoutingSim::new(&mesh).run(&msgs, &cfg(1));
        assert!((report.makespan.as_secs() - 5.0).abs() < 1e-9);
        assert!((report.max_link_busy.as_secs() - 5.0).abs() < 1e-9);
        // Two channels halve it (pipelined pairs).
        let faster = RoutingSim::new(&mesh).run(&msgs, &cfg(2));
        assert!((faster.makespan.as_secs() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn all_to_all_completion_tracks_the_congestion_bound() {
        for p in [2u32, 4] {
            let mesh = Mesh::new(p, p);
            let report = RoutingSim::new(&mesh).run_all_to_all(&cfg(1));
            let bound = AllToAll::on_mesh(&mesh).max_link_load() as f64;
            let ratio = report.makespan.as_secs() / bound;
            // Pipelined store-and-forward: between the bound itself and a
            // few times it (path lengths add).
            assert!((1.0..4.0).contains(&ratio), "p={p}: ratio {ratio}");
        }
    }

    #[test]
    fn more_channels_never_slow_things_down() {
        let mesh = Mesh::new(3, 3);
        let narrow = RoutingSim::new(&mesh).run_all_to_all(&cfg(1));
        let wide = RoutingSim::new(&mesh).run_all_to_all(&cfg(4));
        assert!(wide.makespan <= narrow.makespan);
        assert!(wide.mean_latency <= narrow.mean_latency);
    }

    #[test]
    fn empty_traffic_is_instant() {
        let mesh = Mesh::new(2, 2);
        let report = RoutingSim::new(&mesh).run(&[], &cfg(1));
        assert_eq!(report.makespan, Seconds::ZERO);
        assert_eq!(report.messages, 0);
        assert_eq!(report.mean_latency, Seconds::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = RoutingConfig::new(0, Seconds::new(1.0));
    }
}
