//! Table 5: the memory hierarchy — L1/L2/adder speedups under bounded
//! parallel transfers, with the level-mixing policy bracket.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqla_core::{EvalCtx, HierarchyConfig, HierarchyStudy};
use cqla_ecc::Code;
use cqla_iontrap::TechnologyParams;

fn bench(c: &mut Criterion) {
    cqla_bench::registry_artifact("table5");

    let tech = TechnologyParams::projected();
    let study = HierarchyStudy::new(&tech);
    c.bench_function("table5/evaluate_one_point_256", |b| {
        b.iter(|| {
            black_box(study.evaluate_ctx(
                HierarchyConfig::new(Code::Steane713, 256, 10, 36),
                &EvalCtx::new(),
            ))
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
