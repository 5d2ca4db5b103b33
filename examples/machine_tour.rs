//! A bottom-up tour of the CQLA machine: from individual trapped ions to
//! one addition running through the level-1 pipeline.
//!
//! ```text
//! cargo run --example machine_tour
//! ```

use cqla_repro::core::{PipelineConfig, PipelineSim};
use cqla_repro::ecc::Code;
use cqla_repro::iontrap::{TechnologyParams, TileFloorplan};
use cqla_repro::workloads::DraperAdder;

fn main() {
    let tech = TechnologyParams::projected();

    println!("== 1. The tile: ions on a trap grid ==\n");
    let plan = TileFloorplan::steane_level1();
    println!("{plan}");
    println!(
        "worst ancilla-to-data distance: {} hops; weight-7 syndrome chain: {}\n",
        plan.max_interaction_distance(),
        plan.syndrome_shuttle_cycles(7)
    );

    println!("== 2. One addition through the level-1 pipeline ==\n");
    let sim = PipelineSim::new(&tech);
    let adder = DraperAdder::new(64);
    for par_xfer in [10u32, 5, 2] {
        let config = PipelineConfig::new(Code::BaconShor913, 16, par_xfer).with_cache_capacity(128);
        let r = sim.run_adder(&adder, &config);
        println!(
            "{par_xfer:>2} transfer channels: total {}, {} fetches, stall {}, blocks {:.0}% busy",
            r.total_time,
            r.fetches,
            r.stall_time,
            r.block_utilization * 100.0
        );
    }
}
