//! Typed configuration errors from the environment knobs: an invalid
//! `GOPT_PARTITIONER` value must surface as [`ExecError::Config`] on the first
//! execute (and on `prepare`) — never a silent fallback to the default —
//! while valid values keep working.
//!
//! Environment variables are process-global, so this whole suite is ONE test
//! function in its own integration-test binary: no other test shares the
//! process, and the mutations here are sequential.

use gopt::exec::{Backend, ExecError, PartitionedBackend};
use gopt::gir::pattern::Direction;
use gopt::gir::physical::{PhysicalOp, PhysicalPlan};
use gopt::gir::types::TypeConstraint;
use gopt::graph::generator::{random_graph, RandomGraphConfig};
use gopt::graph::schema::fig6_schema;
use gopt::graph::PropertyGraph;

fn simple_plan(g: &PropertyGraph) -> PhysicalPlan {
    let person = TypeConstraint::basic(g.schema().vertex_label("Person").unwrap());
    let knows = TypeConstraint::basic(g.schema().edge_label("Knows").unwrap());
    let mut plan = PhysicalPlan::new();
    plan.push(PhysicalOp::Scan {
        alias: "a".into(),
        constraint: person.clone(),
        predicate: None,
    });
    plan.push(PhysicalOp::EdgeExpand {
        src: "a".into(),
        edge_alias: None,
        edge_constraint: knows,
        direction: Direction::Out,
        dst_alias: "b".into(),
        dst_constraint: person,
        dst_predicate: None,
        edge_predicate: None,
    });
    plan
}

/// Set `var` for the duration of `f`, always restoring the previous state.
fn with_env<R>(var: &str, value: &str, f: impl FnOnce() -> R) -> R {
    let prev = std::env::var_os(var);
    std::env::set_var(var, value);
    let out = f();
    match prev {
        Some(v) => std::env::set_var(var, v),
        None => std::env::remove_var(var),
    }
    out
}

fn expect_config_err(r: Result<impl std::fmt::Debug, ExecError>, var: &str, tag: &str) {
    match r {
        Err(ExecError::Config(msg)) => assert!(
            msg.contains(var),
            "{tag}: error must name the offending variable, got {msg:?}"
        ),
        other => panic!("{tag}: expected ExecError::Config, got {other:?}"),
    }
}

#[test]
fn invalid_env_knobs_fail_typed_and_valid_ones_work() {
    let g = random_graph(&fig6_schema(), &RandomGraphConfig::default());
    let plan = simple_plan(&g);
    let backend = || PartitionedBackend::new(4).unwrap();
    let base = backend().execute(&g, &plan).expect("baseline backend run");
    for bad in ["fennel", "random", "modulo"] {
        with_env("GOPT_PARTITIONER", bad, || {
            expect_config_err(
                backend().execute(&g, &plan),
                "GOPT_PARTITIONER",
                &format!("partitioner={bad:?}"),
            );
            // prepare (the server warm-up hook) fails the same way
            expect_config_err(
                backend().prepare(&g),
                "GOPT_PARTITIONER",
                &format!("prepare partitioner={bad:?}"),
            );
        });
    }
    for good in ["hash", "greedy", "Greedy"] {
        with_env("GOPT_PARTITIONER", good, || {
            let got = backend()
                .execute(&g, &plan)
                .expect("valid GOPT_PARTITIONER");
            assert_eq!(got.sorted_rows(), base.sorted_rows(), "rows under {good}");
        });
    }
}
