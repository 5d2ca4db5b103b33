//! Quickstart: price the QLA baseline against the CQLA for factoring a
//! 1024-bit number, under both error-correcting codes.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cqla_repro::core::{CqlaConfig, EvalCtx, QlaBaseline, SpecializationStudy};
use cqla_repro::ecc::Code;
use cqla_repro::iontrap::TechnologyParams;

fn main() {
    let tech = TechnologyParams::projected();
    println!("{tech}\n");

    let qla = QlaBaseline::new(&tech);
    let ctx = EvalCtx::new();
    let qubits = 6 * 1024;
    println!(
        "QLA baseline (sea of qubits, Steane code): {:.3} m^2 for {} logical qubits",
        qla.area(qubits).as_square_meters(),
        qubits
    );
    println!(
        "  one 1024-bit carry-lookahead addition: {}\n",
        qla.adder_time(&ctx.adder_costs(1024, 100))
    );

    let study = SpecializationStudy::new(&tech);
    for code in Code::ALL {
        let result = study.evaluate_ctx(CqlaConfig::new(code, 1024, 100), &ctx);
        println!("CQLA with {code}, 100 compute blocks:");
        println!("  area reduced        {:.2}x", result.area_reduction);
        println!("  adder speedup       {:.2}x", result.speedup);
        println!("  block utilization   {:.0}%", result.utilization * 100.0);
        println!("  adder time          {}", result.adder_time);
        println!(
            "  gain product        {:.1} (QLA = 1.0)\n",
            result.gain_product
        );
    }

    println!("Paper headline (Table 4): up to 13.4x area reduction with the");
    println!("Bacon-Shor code — compare the 'area reduced' line above.");
}
