//! Criterion micro-benchmarks of the statistics layer: GLogue construction (k=2 vs k=3
//! mined pattern sizes) and cardinality estimation for union-typed patterns.

use criterion::{criterion_group, criterion_main, Criterion};
use gopt_bench::{cypher, Env};
use gopt_glogue::{CardEstimator, GLogue, GLogueConfig, GlogueQuery, LowOrderEstimator};
use gopt_workloads::qc_queries;

fn bench_glogue(c: &mut Criterion) {
    let env = Env::ldbc("G-micro", 120);
    c.bench_function("glogue_build_k2", |b| {
        b.iter(|| {
            std::hint::black_box(GLogue::build(
                &env.graph,
                &GLogueConfig {
                    max_pattern_vertices: 2,
                    max_anchors: Some(200),
                    seed: 1,
                },
            ))
        })
    });
    c.bench_function("glogue_build_k3_sampled", |b| {
        b.iter(|| {
            std::hint::black_box(GLogue::build(
                &env.graph,
                &GLogueConfig {
                    max_pattern_vertices: 3,
                    max_anchors: Some(100),
                    seed: 1,
                },
            ))
        })
    });
    let qc4b = qc_queries().into_iter().find(|q| q.name == "QC4b").unwrap();
    let pattern = cypher(&env, &qc4b.text).match_nodes()[0].1.clone();
    c.bench_function("estimate_qc4b_high_order", |b| {
        b.iter(|| {
            let gq = GlogueQuery::new(&env.glogue);
            std::hint::black_box(gq.pattern_freq(&pattern))
        })
    });
    c.bench_function("estimate_qc4b_low_order", |b| {
        let lo = LowOrderEstimator::new(&env.glogue);
        b.iter(|| std::hint::black_box(lo.pattern_freq(&pattern)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_glogue
}
criterion_main!(benches);
