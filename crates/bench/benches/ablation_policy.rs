//! Ablation: level-mixing policy for the memory hierarchy.
//!
//! The paper's Table 5 adder speedups sit between a conservative 1:2
//! interleave and a saturated dual-region bound; this sweep makes the
//! bracket explicit across codes and transfer provisioning.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqla_core::report::{fmt3, TextTable};
use cqla_core::{EvalCtx, HierarchyConfig, HierarchyStudy};
use cqla_ecc::Code;
use cqla_iontrap::TechnologyParams;

fn bench(c: &mut Criterion) {
    let tech = TechnologyParams::projected();
    let study = HierarchyStudy::new(&tech);

    let mut t = TextTable::new([
        "code",
        "xfer",
        "interleave 1:2",
        "fidelity-budgeted",
        "balanced",
        "paper Table 5",
    ]);
    let paper = [
        (Code::Steane713, 10, 6.25),
        (Code::Steane713, 5, 4.05),
        (Code::BaconShor913, 10, 5.92),
        (Code::BaconShor913, 5, 3.66),
    ];
    for (code, xfer, paper_value) in paper {
        let r = study.evaluate_ctx(HierarchyConfig::new(code, 256, xfer, 36), &EvalCtx::new());
        t.push_row([
            code.label().to_string(),
            xfer.to_string(),
            fmt3(r.adder_speedup_interleave),
            fmt3(r.adder_speedup_budgeted),
            fmt3(r.adder_speedup_balanced),
            fmt3(paper_value),
        ]);
    }
    cqla_bench::print_artifact(
        "Ablation: level-mixing policies (256-bit adder speedup vs QLA)",
        &t.to_string(),
    );

    c.bench_function("ablation_policy/evaluate", |b| {
        b.iter(|| {
            black_box(study.evaluate_ctx(
                HierarchyConfig::new(Code::BaconShor913, 256, 10, 36),
                &EvalCtx::new(),
            ))
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
