//! Table 4: CQLA specialization — area reduction, speedup and gain product
//! over the input-size / block-count grid, both codes.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqla_core::{CqlaConfig, EvalCtx, SpecializationStudy};
use cqla_ecc::Code;
use cqla_iontrap::TechnologyParams;

fn bench(c: &mut Criterion) {
    cqla_bench::registry_artifact("table4");

    let tech = TechnologyParams::projected();
    let study = SpecializationStudy::new(&tech);
    c.bench_function("table4/evaluate_one_point_256", |b| {
        b.iter(|| {
            black_box(study.evaluate_ctx(
                CqlaConfig::new(Code::BaconShor913, 256, 36),
                &EvalCtx::new(),
            ))
        })
    });
    // Time the typed computation + render (what the old tuple generator
    // did), not `run()`, so the series stays comparable across PRs.
    let t4 = cqla_core::experiments::Table4::default();
    c.bench_function("table4/full_grid", |b| {
        b.iter(|| {
            let rows = t4.rows_ctx(&EvalCtx::new());
            black_box(cqla_core::experiments::Table4::render(&rows))
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
