//! The quantum memory hierarchy in action: cache behaviour, transfer
//! provisioning and level-mixing policies for repeated 256-bit additions.
//!
//! ```text
//! cargo run --example memory_hierarchy
//! ```

use cqla_repro::core::{EvalCtx, HierarchyConfig, HierarchyStudy};
use cqla_repro::ecc::fidelity::{AppSize, FidelityBudget};
use cqla_repro::ecc::Code;
use cqla_repro::iontrap::TechnologyParams;
use cqla_repro::workloads::ShorInstance;

fn main() {
    let tech = TechnologyParams::projected();
    let study = HierarchyStudy::new(&tech);

    println!("Memory hierarchy study: 256-bit Draper additions, 36 blocks\n");
    for code in Code::ALL {
        for par_xfer in [10u32, 5] {
            let r = study.evaluate_ctx(
                HierarchyConfig::new(code, 256, par_xfer, 36),
                &EvalCtx::new(),
            );
            println!("{code}, {par_xfer} parallel transfers:");
            println!(
                "  cache hit rate          {:.0}% ({} fetches/addition)",
                r.cache_hit_rate * 100.0,
                r.fetches_per_addition
            );
            println!(
                "  L1 adder time           {} (compute {}, transfers {})",
                r.l1_adder_time, r.l1_compute_time, r.l1_transfer_time
            );
            println!("  L1 speedup over L2      {:.1}x", r.l1_speedup);
            println!(
                "  whole-adder speedup     {:.2}x (1:2 interleave) … {:.2}x (balanced)",
                r.adder_speedup_interleave, r.adder_speedup_balanced
            );
            println!(
                "  gain product            {:.1} … {:.1}\n",
                r.gain_product_conservative, r.gain_product_optimistic
            );
        }
    }

    println!("Fidelity budget behind the level mixing (Eq. 1):");
    for code in Code::ALL {
        let budget = FidelityBudget::new(code, &tech);
        let (k, q) = ShorInstance::new(1024).app_size();
        let share = budget.max_level1_share(AppSize::new(k, q));
        println!(
            "  {code}: P_f(L1) = {}, P_f(L2) = {}, max level-1 share for Shor-1024 = {:.2}%",
            budget.level1_failure_rate(),
            budget.level2_failure_rate(),
            share * 100.0
        );
    }
}
