//! How much parallelism does quantum addition actually have?
//!
//! Recreates the paper's Fig 2 / Fig 6a analysis: the Draper
//! carry-lookahead adder's parallelism profile, what happens when compute
//! blocks are capped, and the contrast with a ripple-carry baseline.
//!
//! ```text
//! cargo run --example parallelism
//! ```

use cqla_repro::circuit::{DependencyDag, Gate, ListScheduler, Width};
use cqla_repro::core::experiments::Fig2;
use cqla_repro::core::EvalCtx;
use cqla_repro::workloads::{DraperAdder, RippleCarryAdder};

fn main() {
    println!("64-bit Draper carry-lookahead adder vs ripple-carry baseline\n");
    let draper = DraperAdder::new(64);
    let ripple = RippleCarryAdder::new(64);

    for (name, circuit) in [("draper", draper.circuit()), ("ripple", ripple.circuit())] {
        let dag = DependencyDag::new(&circuit);
        let weight = Gate::two_qubit_gate_equivalents;
        println!("{name}:");
        println!("  gates               {}", circuit.len());
        println!("  toffolis            {}", circuit.counts().toffoli);
        println!("  unit depth          {}", dag.depth());
        println!("  avg parallelism     {:.1}", dag.average_parallelism());
        println!(
            "  weighted work/CP    {:.1} (blocks needed to saturate)",
            dag.total_work(weight) as f64 / dag.critical_path(weight) as f64
        );
        println!();
    }

    println!("Capping the Draper adder (paper Fig 2):");
    // The registry's Fig2 experiment is a plain struct: setting its
    // typed fields sweeps the cap, on one context (one adder DAG).
    let ctx = EvalCtx::new();
    for cap in [4u32, 9, 15, 22, 32] {
        let data = Fig2 { bits: 64, cap }.data_ctx(&ctx);
        println!(
            "  {cap:>3} blocks: makespan {} gate-steps ({:.2}x unlimited)",
            data.capped_makespan,
            data.relative_stretch()
        );
    }

    println!("\nParallelism profile (gates in flight, unlimited hardware):");
    let dag = DependencyDag::new(draper.circuit_ref());
    let schedule = ListScheduler::new(&dag).schedule(Width::Unlimited, |_| 1);
    let profile = schedule.occupancy();
    for (layer, &gates) in profile.iter().enumerate() {
        println!("  layer {layer:>2}: {}", "#".repeat(gates.min(70)));
    }
}
