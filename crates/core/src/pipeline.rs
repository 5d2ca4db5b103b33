//! Event-driven pipeline simulation of the level-1 compute region.
//!
//! [`HierarchyStudy`](crate::HierarchyStudy) prices the memory hierarchy
//! with an analytic bottleneck model (max of compute and transfer
//! pipelines). This module is the detailed counterpart: an instruction-by-
//! instruction discrete-event simulation in which
//!
//! * `blocks` gate slots execute instructions for their fault-tolerant
//!   durations,
//! * `par_xfer` transfer channels carry memory→cache fetches at Table 3
//!   prices,
//! * a prefetcher with bounded lookahead books transfers ahead of
//!   execution,
//! * data dependencies from the circuit DAG gate every issue.
//!
//! Agreement between the two models (within a factor 0.4..2.5 over a
//! grid of codes, widths, blocks and channels) is asserted in the test
//! suite; the pipeline additionally exposes *where* the time goes
//! (compute, transfer, stall).
//!
//! Event times are integer nanoseconds, so ordering is exact and runs are
//! reproducible; one nanosecond is four orders of magnitude below the
//! 10 µs ion-trap clock cycle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cqla_circuit::{Circuit, DependencyDag, QubitId};
use cqla_ecc::{Code, CodeLevel, EccMetrics, Level, TransferNetwork};
use cqla_iontrap::{PhysicalOp, TechnologyParams};
use cqla_units::Seconds;

use crate::cache::{CacheSim, CacheTrace, FetchPolicy};

/// Configuration of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Error-correcting code (level 1 for compute, level 2 for memory).
    pub code: Code,
    /// Gate slots (compute blocks) at level 1.
    pub blocks: u32,
    /// Parallel memory↔cache transfer channels.
    pub par_xfer: u32,
    /// Cache capacity in logical qubits.
    pub cache_capacity: usize,
    /// Prefetch lookahead in instructions.
    pub lookahead: usize,
}

impl PipelineConfig {
    /// A reasonable default: the paper's 36-block region with cache 2×PE,
    /// 10 transfer channels, and a 64-instruction prefetch window.
    #[must_use]
    pub fn new(code: Code, blocks: u32, par_xfer: u32) -> Self {
        assert!(blocks > 0 && par_xfer > 0, "resources must be positive");
        Self {
            code,
            blocks,
            par_xfer,
            cache_capacity: (18 * blocks) as usize,
            lookahead: 64,
        }
    }

    /// Overrides the cache capacity.
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        self.cache_capacity = capacity;
        self
    }

    /// Overrides the prefetch lookahead.
    #[must_use]
    pub fn with_lookahead(mut self, lookahead: usize) -> Self {
        self.lookahead = lookahead;
        self
    }
}

/// Where the pipeline's wall-clock time went.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// End-to-end time of one traced addition.
    pub total_time: Seconds,
    /// Aggregate busy time across gate slots.
    pub compute_busy: Seconds,
    /// Aggregate busy time across transfer channels.
    pub transfer_busy: Seconds,
    /// Total time instructions spent waiting on transfers beyond their
    /// data dependencies.
    pub stall_time: Seconds,
    /// Instructions executed.
    pub instructions: usize,
    /// Memory fetches performed.
    pub fetches: u64,
    /// Mean gate-slot utilization.
    pub block_utilization: f64,
    /// Mean transfer-channel utilization.
    pub channel_utilization: f64,
}

/// The event-driven pipeline simulator.
///
/// # Examples
///
/// ```
/// use cqla_core::{PipelineConfig, PipelineSim};
/// use cqla_ecc::Code;
/// use cqla_iontrap::TechnologyParams;
/// use cqla_workloads::DraperAdder;
///
/// let sim = PipelineSim::new(&TechnologyParams::projected());
/// let adder = DraperAdder::new(64);
/// let config = PipelineConfig::new(Code::Steane713, 16, 10);
/// let report = sim.run_adder(&adder, &config);
/// assert!(report.total_time.as_secs() > 0.0);
/// assert!(report.block_utilization <= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct PipelineSim {
    tech: TechnologyParams,
}

impl PipelineSim {
    /// Builds the simulator at a technology point.
    #[must_use]
    pub fn new(tech: &TechnologyParams) -> Self {
        Self { tech: tech.clone() }
    }

    /// Traces one warmed-up addition of `adder` through the cache and
    /// replays it through the pipeline.
    #[must_use]
    pub fn run_adder(
        &self,
        adder: &cqla_workloads::DraperAdder,
        config: &PipelineConfig,
    ) -> PipelineReport {
        let circuit = adder.circuit();
        let inputs: Vec<QubitId> = adder
            .a_register()
            .chain(adder.b_register())
            .map(QubitId::new)
            .collect();
        let trace = CacheSim::new(config.cache_capacity).trace(
            &circuit,
            FetchPolicy::OptimizedLookahead,
            &inputs,
            1,
        );
        self.run_trace(&circuit, &trace, config)
    }

    /// Replays an arbitrary trace through the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the trace references instructions outside `circuit`.
    #[must_use]
    pub fn run_trace(
        &self,
        circuit: &Circuit,
        trace: &CacheTrace,
        config: &PipelineConfig,
    ) -> PipelineReport {
        let dag = DependencyDag::new(circuit);
        let gate_step = self.tech.duration(PhysicalOp::DoubleGate)
            + EccMetrics::compute(config.code, Level::ONE, &self.tech).ec_time();
        // One Table 3 service window moves a compute block's worth of
        // qubits (9) through a channel, so the marginal per-qubit occupancy
        // is latency/9 — the same block-granular batching the analytic
        // hierarchy model uses.
        let transfer_latency = TransferNetwork::new(&self.tech).latency(
            CodeLevel::new(config.code, Level::TWO),
            CodeLevel::new(config.code, Level::ONE),
        ) / crate::area::BLOCK_DATA_QUBITS as f64;

        let mut slots = SlotPool::new(config.blocks);
        let mut channels = SlotPool::new(config.par_xfer);
        let steps = trace.steps();
        let n = steps.len();
        // Transfer completion time per trace position (0 = no fetch).
        let mut transfer_done = vec![0; n];
        let mut booked = 0usize;
        let mut finish = vec![0; circuit.len()];
        let mut stall = Seconds::ZERO;
        let mut now = 0;

        for (pos, step) in steps.iter().enumerate() {
            assert!(step.instr < circuit.len(), "trace out of range");
            // Prefetch transfers for the lookahead window.
            let window_end = (pos + config.lookahead.max(1)).min(n);
            while booked < window_end {
                let fetches = steps[booked].fetches;
                if fetches > 0 {
                    let mut done = 0;
                    for _ in 0..fetches {
                        let (_, end) = channels.book(now, transfer_latency);
                        done = done.max(end);
                    }
                    transfer_done[booked] = done;
                }
                booked += 1;
            }

            // Data dependencies.
            let deps_done = dag
                .predecessors(step.instr)
                .iter()
                .map(|&p| finish[p as usize])
                .max()
                .unwrap_or(0);
            let data_ready = deps_done.max(transfer_done[pos]);
            if transfer_done[pos] > deps_done {
                stall += from_nanos(transfer_done[pos] - deps_done);
            }
            let duration =
                gate_step * circuit.gates()[step.instr].two_qubit_gate_equivalents() as f64;
            let (start, end) = slots.book(data_ready, duration);
            finish[step.instr] = end;
            now = now.max(start);
        }

        let total = from_nanos(slots.all_idle_at().max(channels.all_idle_at()));
        PipelineReport {
            total_time: total,
            compute_busy: slots.busy,
            transfer_busy: channels.busy,
            stall_time: stall,
            instructions: n,
            fetches: trace.total_fetches(),
            block_utilization: slots.utilization(total),
            channel_utilization: channels.utilization(total),
        }
    }
}

/// Rounds a duration to whole nanoseconds on the simulation clock.
pub(crate) fn to_nanos(d: Seconds) -> u64 {
    (d.as_secs() * 1e9).round() as u64
}

/// The duration of `nanos` clock ticks.
pub(crate) fn from_nanos(nanos: u64) -> Seconds {
    Seconds::new(nanos as f64 / 1e9)
}

/// `k` identical slots (gate slots or transfer channels), each carrying
/// one booking at a time.
#[derive(Debug)]
struct SlotPool {
    /// Earliest free time per slot, in nanoseconds (min-heap).
    free_at: BinaryHeap<Reverse<u64>>,
    /// Aggregate booked duration across the pool.
    busy: Seconds,
}

impl SlotPool {
    fn new(capacity: u32) -> Self {
        Self {
            free_at: (0..capacity).map(|_| Reverse(0)).collect(),
            busy: Seconds::ZERO,
        }
    }

    /// Books the earliest free slot at or after `now` for `duration`,
    /// returning the granted `(start, end)` window.
    fn book(&mut self, now: u64, duration: Seconds) -> (u64, u64) {
        let Reverse(free) = self.free_at.pop().expect("pool has a slot");
        let start = free.max(now);
        let end = start + to_nanos(duration);
        self.free_at.push(Reverse(end));
        self.busy += duration;
        (start, end)
    }

    /// The instant at which every booking has completed.
    fn all_idle_at(&self) -> u64 {
        self.free_at.iter().map(|Reverse(t)| *t).max().unwrap_or(0)
    }

    /// Mean slot utilization over `[0, horizon]` (0 for a zero horizon).
    fn utilization(&self, horizon: Seconds) -> f64 {
        if horizon.as_secs() <= 0.0 {
            0.0
        } else {
            (self.busy / horizon) / self.free_at.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqla_workloads::DraperAdder;

    fn sim() -> PipelineSim {
        PipelineSim::new(&TechnologyParams::projected())
    }

    fn gate_step(code: Code) -> Seconds {
        let tech = TechnologyParams::projected();
        tech.duration(PhysicalOp::DoubleGate)
            + EccMetrics::compute(code, Level::ONE, &tech).ec_time()
    }

    #[test]
    fn fetch_free_run_matches_schedule_bound() {
        // Huge cache: no fetches; time should be within list-scheduling
        // reach of the ideal makespan.
        let adder = DraperAdder::new(32);
        let config = PipelineConfig::new(Code::Steane713, 8, 10).with_cache_capacity(10_000);
        let report = sim().run_adder(&adder, &config);
        assert_eq!(report.fetches, 0);
        assert_eq!(report.stall_time, Seconds::ZERO);
        let costs = crate::EvalCtx::new().adder_costs(32, 8);
        let ideal = gate_step(Code::Steane713) * costs.ideal_makespan(8) as f64;
        let ratio = report.total_time / ideal;
        // Issue follows the cache-optimized trace order, not critical-path
        // priority, so it trails the ideal bound by up to ~2.5x.
        assert!((1.0..2.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn transfer_starved_run_is_transfer_bound() {
        // Tiny cache and one channel: transfers dominate.
        let adder = DraperAdder::new(32);
        let config = PipelineConfig::new(Code::Steane713, 8, 1).with_cache_capacity(4);
        let report = sim().run_adder(&adder, &config);
        assert!(report.fetches > 50, "fetches {}", report.fetches);
        assert!(report.transfer_busy > report.compute_busy);
        assert!(
            report.channel_utilization > 0.9,
            "{}",
            report.channel_utilization
        );
        assert!(report.stall_time.as_secs() > 0.0);
    }

    #[test]
    fn more_channels_reduce_total_time() {
        // A small cache forces sustained fetch traffic.
        let adder = DraperAdder::new(64);
        let slow = sim().run_adder(
            &adder,
            &PipelineConfig::new(Code::Steane713, 16, 2).with_cache_capacity(48),
        );
        let fast = sim().run_adder(
            &adder,
            &PipelineConfig::new(Code::Steane713, 16, 10).with_cache_capacity(48),
        );
        assert!(fast.total_time < slow.total_time);
    }

    #[test]
    fn lookahead_hides_transfer_latency() {
        let adder = DraperAdder::new(64);
        let base = PipelineConfig::new(Code::Steane713, 16, 4).with_cache_capacity(96);
        let blind = sim().run_adder(&adder, &base.with_lookahead(1));
        let seeing = sim().run_adder(&adder, &base.with_lookahead(256));
        assert!(
            seeing.stall_time <= blind.stall_time,
            "lookahead must not increase stalls: {} vs {}",
            seeing.stall_time,
            blind.stall_time
        );
        assert!(seeing.total_time <= blind.total_time * 1.01);
    }

    #[test]
    fn utilizations_are_bounded() {
        let adder = DraperAdder::new(64);
        let report = sim().run_adder(&adder, &PipelineConfig::new(Code::BaconShor913, 16, 5));
        assert!((0.0..=1.0).contains(&report.block_utilization));
        assert!((0.0..=1.0).contains(&report.channel_utilization));
        assert_eq!(report.instructions, adder.circuit_ref().len());
    }

    #[test]
    fn agrees_with_analytic_hierarchy_model_within_factor_two() {
        // The differential oracle: the event-driven pipeline and the
        // analytic bottleneck model price the same level-1 addition.
        // Widths stay at 64 bits and up. At 32 bits × 100 blocks the 900
        // compute qubits exceed what the adder can use and nothing is
        // fetched, yet the analytic model still adds one fill latency
        // (`+ down` in `l1_adder_time`), which drops the ratio to ~0.3.
        let tech = TechnologyParams::projected();
        let sim = PipelineSim::new(&tech);
        let study = crate::HierarchyStudy::new(&tech);
        let ctx = crate::EvalCtx::new();
        for code in Code::ALL {
            for bits in [64, 256] {
                let adder = DraperAdder::new(bits);
                for blocks in [16, 36] {
                    for xfer in [1, 10] {
                        let config = PipelineConfig::new(code, blocks, xfer)
                            .with_cache_capacity(2 * 9 * blocks as usize);
                        let report = sim.run_adder(&adder, &config);
                        let analytic = study.evaluate_ctx(
                            crate::HierarchyConfig::new(code, bits, xfer, blocks),
                            &ctx,
                        );
                        let ratio = report.total_time / analytic.l1_adder_time;
                        assert!(
                            (0.4..2.5).contains(&ratio),
                            "{code} {bits} bits, {blocks} blocks, {xfer} xfer: pipeline {} \
                             vs analytic {} (ratio {ratio:.2})",
                            report.total_time,
                            analytic.l1_adder_time
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dependencies_respected_under_contention() {
        // With one slot everything serializes in a valid order; finish
        // times must be strictly increasing along any dependency chain.
        let adder = DraperAdder::new(16);
        let circuit = adder.circuit();
        let config = PipelineConfig::new(Code::Steane713, 1, 1).with_cache_capacity(8);
        let report = sim().run_adder(&adder, &config);
        // Serial: compute busy equals work × step.
        let work: u64 = circuit
            .gates()
            .iter()
            .map(cqla_circuit::Gate::two_qubit_gate_equivalents)
            .sum();
        let expect = gate_step(Code::Steane713) * work as f64;
        assert!((report.compute_busy / expect - 1.0).abs() < 1e-9);
    }
}
