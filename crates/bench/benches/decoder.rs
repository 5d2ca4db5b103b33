//! Microbenchmarks for the stabilizer layer: syndrome extraction and
//! lookup decoding, the inner loop of the `verify` code checks.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cqla_stabilizer::{errors_of_weight, CssCode, LookupDecoder, PauliOp, PauliString};

fn bench(c: &mut Criterion) {
    // Lazy error enumeration: the iterator never materializes the
    // per-weight Vec the table builder used to allocate.
    c.bench_function("decoder/errors_of_weight_9q_w2", |b| {
        b.iter(|| {
            let mut weight_sum = 0usize;
            for e in errors_of_weight(9, 2) {
                weight_sum += black_box(&e).weight();
            }
            black_box(weight_sum)
        })
    });

    for (name, code) in [
        ("steane", CssCode::steane()),
        ("bacon_shor", CssCode::bacon_shor()),
    ] {
        let decoder = LookupDecoder::for_code(&code);
        let error = PauliString::single(code.num_qubits(), 0, PauliOp::X);

        c.bench_function(&format!("decoder/{name}_build_table"), |b| {
            b.iter(|| black_box(LookupDecoder::for_code(&code)))
        });
        c.bench_function(&format!("decoder/{name}_syndrome"), |b| {
            b.iter(|| black_box(code.syndrome(&error)))
        });
        let syndrome = code.syndrome(&error);
        c.bench_function(&format!("decoder/{name}_decode"), |b| {
            b.iter(|| black_box(decoder.decode(&syndrome)))
        });
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
