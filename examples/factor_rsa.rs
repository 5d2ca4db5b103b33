//! Sizing a CQLA machine to factor RSA moduli: the paper's motivating
//! application, swept over key sizes.
//!
//! ```text
//! cargo run --example factor_rsa
//! ```

use cqla_repro::core::experiments::find;
use cqla_repro::core::report::{fmt3, TextTable};
use cqla_repro::core::{AreaModel, CqlaConfig, EvalCtx, SpecializationStudy, TABLE4_GRID};
use cqla_repro::ecc::fidelity::AppSize;
use cqla_repro::ecc::Code;
use cqla_repro::iontrap::TechnologyParams;
use cqla_repro::workloads::ShorInstance;

fn main() {
    let tech = TechnologyParams::projected();
    let study = SpecializationStudy::new(&tech);
    let area = AreaModel::new(&tech);

    println!("CQLA machines for Shor factoring (Bacon-Shor code)\n");
    let mut t = TextTable::new([
        "key bits",
        "blocks",
        "qubits",
        "CQLA area (cm^2)",
        "QLA area (cm^2)",
        "area x",
        "1/KQ required",
    ]);
    for (bits, [blocks, _]) in TABLE4_GRID {
        let config = CqlaConfig::new(Code::BaconShor913, bits, blocks);
        let result = study.evaluate_ctx(config, &EvalCtx::new());
        let shor = ShorInstance::new(bits);
        let (k, q) = shor.app_size();
        let app = AppSize::new(k, q);
        let cqla_cm2 = area
            .cqla_area(Code::BaconShor913, config.memory_qubits(), blocks)
            .value()
            / 100.0;
        let qla_cm2 = area
            .qla_area(Code::Steane713, config.memory_qubits())
            .value()
            / 100.0;
        t.push_row([
            bits.to_string(),
            blocks.to_string(),
            config.memory_qubits().to_string(),
            fmt3(cqla_cm2),
            fmt3(qla_cm2),
            fmt3(result.area_reduction),
            format!("{}", app.required_failure_rate()),
        ]);
    }
    println!("{t}");

    // The wall-clock picture comes straight from the artifact registry:
    // the same entry `cqla run fig8a` executes.
    let fig8a = find("fig8a").expect("fig8a is registered");
    println!("{} (computation vs communication):\n", fig8a.title());
    println!("{}", fig8a.run().text);
}
