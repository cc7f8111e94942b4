//! Criterion micro-benchmarks of the optimizer itself: planning time for the complex
//! QC4a pattern with and without branch-and-bound pruning (the paper's planning-time
//! ablation, `PatternPlanner::disable_pruning`), plus the RBO and type-inference stages.

use criterion::{criterion_group, criterion_main, Criterion};
use gopt_bench::{cypher, Env};
use gopt_core::{GraphScopeSpec, HeuristicPlanner, PatternPlanner, TypeInference};
use gopt_glogue::GlogueQuery;
use gopt_workloads::{qc_queries, qt_queries};

fn bench_optimizer(c: &mut Criterion) {
    let env = Env::ldbc("G-micro", 120);
    let qc4a = qc_queries().into_iter().find(|q| q.name == "QC4a").unwrap();
    let logical = cypher(&env, &qc4a.text);
    let pattern = logical.match_nodes()[0].1.clone();
    let gq = GlogueQuery::new(&env.glogue);
    let spec = GraphScopeSpec;

    c.bench_function("cbo_plan_qc4a_with_pruning", |b| {
        b.iter(|| {
            let planner = PatternPlanner::new(&gq, &spec);
            std::hint::black_box(planner.plan(&pattern));
        })
    });
    c.bench_function("cbo_plan_qc4a_without_pruning", |b| {
        b.iter(|| {
            let mut planner = PatternPlanner::new(&gq, &spec);
            planner.disable_pruning = true;
            std::hint::black_box(planner.plan(&pattern));
        })
    });
    c.bench_function("cbo_greedy_initial_qc4a", |b| {
        b.iter(|| {
            let planner = PatternPlanner::new(&gq, &spec);
            std::hint::black_box(planner.greedy_initial(&pattern));
        })
    });

    let qt2 = qt_queries().into_iter().nth(1).unwrap();
    let qt_logical = cypher(&env, &qt2.text);
    let qt_pattern = qt_logical.match_nodes()[0].1.clone();
    c.bench_function("type_inference_qt2", |b| {
        let checker = TypeInference::new(env.graph.schema());
        b.iter(|| std::hint::black_box(checker.infer(&qt_pattern).unwrap()))
    });
    c.bench_function("rbo_fixpoint_qc4a", |b| {
        let planner = HeuristicPlanner::with_default_rules();
        b.iter(|| std::hint::black_box(planner.optimize(&logical)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_optimizer
}
criterion_main!(benches);
