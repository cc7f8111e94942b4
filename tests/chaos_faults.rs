//! Chaos suite for the query-lifecycle layer: under every injected fault —
//! `err`, `panic` and `delay` actions at each of the engine's fail points, at
//! partitions {1, 2, 4} × threads {1, 2, 4} — execution must either return
//! exactly the unfaulted scalar oracle's rows or a **typed** [`ExecError`];
//! never a hang, never a raw panic out of `execute`, never a poisoned lock
//! leaking to the caller. After the fault is cleared the *same* engine (same
//! worker pool) must execute the query correctly again: one query's failure
//! must not poison the pool.
//!
//! Limits are exercised directly too: a zero deadline, a one-byte budget and
//! a pre-cancelled context must abort all three engines (the scalar oracle,
//! the morsel engine over the monolithic graph as the single-machine backend
//! runs it, and the morsel engine over shards) with the identical typed error.
//!
//! The fail-point registry is process-global, so every test that arms points
//! holds a serializing gate for its whole body.

use gopt::exec::{Engine, EngineConfig, ExecError, LimitReason, ParallelEngine, QueryContext};
use gopt::gir::pattern::Direction;
use gopt::gir::physical::{PhysicalOp, PhysicalPlan};
use gopt::gir::types::TypeConstraint;
use gopt::gir::{AggFunc, Expr, SortDir};
use gopt::graph::graph::GraphBuilder;
use gopt::graph::schema::fig6_schema;
use gopt::graph::{PartitionedGraph, PartitionerSpec, PropValue, PropertyGraph};
use std::sync::{Mutex, MutexGuard};

/// The placement axis at `parts` shards: modulo hash everywhere, plus the
/// Fennel-style greedy partitioner with a few replicated hubs where placement
/// matters (more than one shard).
fn placements(parts: usize) -> &'static [(PartitionerSpec, usize)] {
    if parts == 1 {
        &[(PartitionerSpec::Hash, 0)]
    } else {
        &[(PartitionerSpec::Hash, 0), (PartitionerSpec::Greedy, 4)]
    }
}

/// Serialize tests that touch the process-global fail-point registry.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII guard: clears the registry on drop, even if an assertion unwinds.
struct ClearOnDrop;
impl Drop for ClearOnDrop {
    fn drop(&mut self) {
        failpoint::clear();
    }
}

fn small_graph() -> PropertyGraph {
    let mut b = GraphBuilder::new(fig6_schema());
    let mut people = Vec::new();
    for i in 0..40i64 {
        people.push(
            b.add_vertex_by_name("Person", vec![("age", PropValue::Int(20 + i % 7))])
                .unwrap(),
        );
    }
    for i in 0..people.len() {
        for d in 1..4 {
            let j = (i + d * 7) % people.len();
            b.add_edge_by_name("Knows", people[i], people[j], vec![])
                .unwrap();
        }
    }
    b.finish()
}

/// A plan that crosses every fail point on the parallel engine: scan, two
/// expands (shuffles), then the three pipeline breakers (group, sort, dedup).
fn chaos_plan(g: &PropertyGraph) -> PhysicalPlan {
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
        edge_constraint: knows.clone(),
        direction: Direction::Out,
        dst_alias: "b".into(),
        dst_constraint: person.clone(),
        dst_predicate: None,
        edge_predicate: None,
    });
    plan.push(PhysicalOp::EdgeExpand {
        src: "b".into(),
        edge_alias: None,
        edge_constraint: knows,
        direction: Direction::Out,
        dst_alias: "c".into(),
        dst_constraint: person,
        dst_predicate: None,
        edge_predicate: None,
    });
    plan.push(PhysicalOp::HashGroup {
        keys: vec![(Expr::prop("c", "age"), "age".into())],
        aggs: vec![(AggFunc::Count, Expr::tag("a"), "cnt".into())],
    });
    plan.push(PhysicalOp::Dedup {
        keys: vec![Expr::tag("age"), Expr::tag("cnt")],
    });
    plan.push(PhysicalOp::OrderLimit {
        keys: vec![
            (Expr::tag("cnt"), SortDir::Desc),
            (Expr::tag("age"), SortDir::Asc),
        ],
        limit: Some(5),
    });
    plan
}

const NO_LIMIT: EngineConfig = EngineConfig { record_limit: None };

fn oracle_rows(g: &PropertyGraph, plan: &PhysicalPlan) -> Vec<Vec<PropValue>> {
    Engine::new(g, NO_LIMIT)
        .execute(plan)
        .expect("oracle")
        .rows()
}

const POINTS: [&str; 4] = [
    "exec.operator",
    "exec.morsel",
    "exec.exchange",
    "exec.merge",
];
const ACTIONS: [&str; 3] = ["err(chaos)", "panic(chaos)", "delay(1)"];

/// Every (point, action, partitions, threads) combination terminates with the
/// oracle's rows or a typed error matching the action — and after clearing
/// the fault, the same engine instance (same pool) recovers.
#[test]
fn every_injected_fault_yields_typed_error_or_oracle_rows() {
    let _gate = serial();
    let _clear = ClearOnDrop;
    let g = small_graph();
    let plan = chaos_plan(&g);
    let want = oracle_rows(&g, &plan);
    assert!(!want.is_empty(), "chaos plan produces rows");
    for parts in [1usize, 2, 4] {
        for &(spec, hubs) in placements(parts) {
            let sharded = PartitionedGraph::build_with_opts(&g, spec.build(&g, parts), hubs);
            for threads in [1usize, 2, 4] {
                let engine = ParallelEngine::new(&sharded).with_threads(threads);
                for point in POINTS {
                    for action in ACTIONS {
                        failpoint::clear();
                        failpoint::configure(point, action).unwrap();
                        let got = engine.execute(&plan);
                        let tag = format!(
                            "{point}={action} p={parts} t={threads} partitioner={}",
                            spec.name()
                        );
                        match (&got, action) {
                            (Ok(res), _) => {
                                // a point that never fired (or only delayed)
                                // must not perturb the result
                                assert_eq!(res.rows(), want, "rows diverge under {tag}");
                            }
                            (Err(ExecError::Injected { point: p, msg }), a)
                                if a.starts_with("err") =>
                            {
                                assert_eq!(p, point, "wrong injection site under {tag}");
                                assert_eq!(msg, "chaos", "wrong message under {tag}");
                            }
                            (Err(ExecError::WorkerPanicked { .. }), a)
                                if a.starts_with("panic") => {}
                            (err, _) => panic!("unexpected outcome under {tag}: {err:?}"),
                        }
                        if action.starts_with("delay") {
                            assert!(got.is_ok(), "delay must not fail ({tag})");
                        }
                        // pool survival: clear the fault and replay on the
                        // SAME engine — the pool must not be poisoned
                        failpoint::clear();
                        let replay = engine
                            .execute(&plan)
                            .unwrap_or_else(|e| panic!("pool did not recover after {tag}: {e}"));
                        assert_eq!(replay.rows(), want, "recovery rows diverge after {tag}");
                    }
                }
            }
        }
    }
}

/// `err` at the operator boundary — the one point all three engines share —
/// produces the *identical* typed error on the scalar oracle and on the morsel
/// engine over the monolithic graph and over shards; `panic` produces the identical `WorkerPanicked` naming the same
/// operator.
#[test]
fn operator_faults_fail_identically_on_all_three_engines() {
    let _gate = serial();
    let _clear = ClearOnDrop;
    let g = small_graph();
    let plan = chaos_plan(&g);
    let sharded = PartitionedGraph::build(&g, 2);
    for action in ["err(chaos)", "panic(chaos)"] {
        let mut errors = Vec::new();
        // re-arm per engine so `@N`-free hit counting starts fresh each run
        failpoint::clear();
        failpoint::configure("exec.operator", action).unwrap();
        errors.push(Engine::new(&g, NO_LIMIT).execute(&plan).unwrap_err());
        failpoint::clear();
        failpoint::configure("exec.operator", action).unwrap();
        errors.push(ParallelEngine::new(&g).execute(&plan).unwrap_err());
        failpoint::clear();
        failpoint::configure("exec.operator", action).unwrap();
        errors.push(
            ParallelEngine::new(&sharded)
                .with_threads(2)
                .execute(&plan)
                .unwrap_err(),
        );
        failpoint::clear();
        assert_eq!(errors[0], errors[1], "scalar vs monolithic under {action}");
        assert_eq!(errors[0], errors[2], "scalar vs sharded under {action}");
        match action {
            "err(chaos)" => assert_eq!(
                errors[0],
                ExecError::Injected {
                    point: "exec.operator".into(),
                    msg: "chaos".into()
                }
            ),
            _ => assert!(
                matches!(errors[0], ExecError::WorkerPanicked { op: "Scan" }),
                "panic at the first operator: {:?}",
                errors[0]
            ),
        }
    }
}

/// A fault striking only the Nth morsel (`@N`) fails that query with a typed
/// error while an immediate replay without the fault is oracle-equal.
#[test]
fn nth_morsel_fault_is_reproducible_and_recoverable() {
    let _gate = serial();
    let _clear = ClearOnDrop;
    let g = small_graph();
    let plan = chaos_plan(&g);
    let want = oracle_rows(&g, &plan);
    let sharded = PartitionedGraph::build(&g, 4);
    let engine = ParallelEngine::new(&sharded).with_threads(4);
    failpoint::configure("exec.morsel", "err(late)@3").unwrap();
    let got = engine.execute(&plan);
    match got {
        Err(ExecError::Injected { ref point, ref msg }) => {
            assert_eq!(point, "exec.morsel");
            assert_eq!(msg, "late");
        }
        other => panic!("expected the third morsel to fail: {other:?}"),
    }
    failpoint::clear();
    assert_eq!(engine.execute(&plan).unwrap().rows(), want);
}

fn run_all_engines(
    g: &PropertyGraph,
    plan: &PhysicalPlan,
    ctx: &QueryContext,
) -> Vec<Result<Vec<Vec<PropValue>>, ExecError>> {
    let sharded = PartitionedGraph::build(g, 2);
    vec![
        Engine::new(g, NO_LIMIT)
            .execute_with_ctx(plan, ctx)
            .map(|r| r.rows()),
        ParallelEngine::new(g)
            .execute_with_ctx(plan, ctx)
            .map(|r| r.rows()),
        ParallelEngine::new(&sharded)
            .with_threads(2)
            .execute_with_ctx(plan, ctx)
            .map(|r| r.rows()),
    ]
}

/// An expired deadline aborts all three engines with the identical typed
/// error carrying the configured duration.
#[test]
fn zero_deadline_fails_identically_everywhere() {
    let _gate = serial();
    let g = small_graph();
    let plan = chaos_plan(&g);
    let ctx = QueryContext::new().with_deadline_millis(0);
    for (i, r) in run_all_engines(&g, &plan, &ctx).into_iter().enumerate() {
        assert_eq!(
            r.unwrap_err(),
            ExecError::LimitExceeded(LimitReason::Deadline { millis: 0 }),
            "engine #{i}"
        );
    }
}

/// A one-byte budget aborts all three engines with the identical typed error
/// carrying the configured bound (the engines' byte *heuristics* differ, but
/// any real allocation blows a one-byte budget on every one of them).
#[test]
fn tiny_budget_fails_identically_everywhere() {
    let _gate = serial();
    let g = small_graph();
    let plan = chaos_plan(&g);
    let ctx = QueryContext::new().with_budget_bytes(1);
    for (i, r) in run_all_engines(&g, &plan, &ctx).into_iter().enumerate() {
        assert_eq!(
            r.unwrap_err(),
            ExecError::LimitExceeded(LimitReason::Budget { bytes: 1 }),
            "engine #{i}"
        );
    }
}

/// A generous budget is charged without firing, and generous limits never
/// perturb results: with a budget, a deadline and a record limit all armed
/// far from firing, every engine returns the unrestricted rows and the
/// budget meters a non-zero total.
#[test]
fn generous_budget_meters_without_firing() {
    let _gate = serial();
    let g = small_graph();
    let plan = chaos_plan(&g);
    let want = oracle_rows(&g, &plan);
    let ctx = QueryContext::new()
        .with_budget_bytes(1 << 30)
        .with_deadline_millis(3_600_000)
        .with_record_limit(Some(1 << 40));
    for (i, r) in run_all_engines(&g, &plan, &ctx).into_iter().enumerate() {
        assert_eq!(r.unwrap(), want, "engine #{i}");
    }
    assert!(ctx.bytes_charged() > 0, "budget accounting metered nothing");
}

/// A pre-cancelled context aborts all three engines before any work — and
/// the parallel engine on four shards at every thread count: no partial
/// rows, no hang.
#[test]
fn cancelled_context_fails_identically_everywhere() {
    let _gate = serial();
    let g = small_graph();
    let plan = chaos_plan(&g);
    let ctx = QueryContext::new();
    ctx.cancel();
    for (i, r) in run_all_engines(&g, &plan, &ctx).into_iter().enumerate() {
        assert_eq!(
            r.unwrap_err(),
            ExecError::LimitExceeded(LimitReason::Cancelled),
            "engine #{i}"
        );
    }
    let sharded = PartitionedGraph::build(&g, 4);
    for threads in [1usize, 2, 4] {
        let r = ParallelEngine::new(&sharded)
            .with_threads(threads)
            .execute_with_ctx(&plan, &ctx)
            .map(|res| res.rows());
        assert_eq!(
            r.unwrap_err(),
            ExecError::LimitExceeded(LimitReason::Cancelled),
            "p=4 t={threads}"
        );
    }
}

/// The unified record limit aborts all three engines with the identical typed
/// error embedding the configured bound (satellite: `RecordLimitExceeded` is
/// folded into `LimitReason::Records`).
#[test]
fn record_limit_fails_identically_everywhere() {
    let _gate = serial();
    let g = small_graph();
    let plan = chaos_plan(&g);
    let ctx = QueryContext::new().with_record_limit(Some(10));
    for (i, r) in run_all_engines(&g, &plan, &ctx).into_iter().enumerate() {
        assert_eq!(r.unwrap_err(), ExecError::record_limit(10), "engine #{i}");
    }
}

// ---------------------------------------------------------------------------
// Chaos under concurrency: faults striking while the serving frontend has
// several queries in flight on ONE shared worker pool. The poisoned query
// must get a typed error; every bystander must return oracle-equal rows; and
// the pool must serve the next wave of queries as if nothing happened.
// ---------------------------------------------------------------------------

use gopt::glogue::{GLogue, GLogueConfig};
use gopt::server::{Server, ServerConfig, ServerError};
use gopt::workloads::{generate_ldbc_graph, LdbcScale};
use std::sync::{Arc, Barrier};

const SERVED_Q: &str =
    "MATCH (p:Person)-[:Knows]->(f:Person)-[:Knows]->(g:Person) RETURN p, g LIMIT 50";

fn chaos_server() -> Server {
    let graph = Arc::new(generate_ldbc_graph(&LdbcScale::tiny()));
    let glogue = Arc::new(GLogue::build(
        &graph,
        &GLogueConfig {
            max_pattern_vertices: 3,
            max_anchors: Some(300),
            seed: 3,
        },
    ));
    Server::new(
        graph,
        glogue,
        ServerConfig {
            partitions: 2,
            threads: 2,
            max_concurrent: 4,
            queue_capacity: 8,
            ..ServerConfig::default()
        },
    )
    .expect("server")
}

/// Submit `SERVED_Q` from `k` concurrent clients (released together) and
/// return every outcome.
fn concurrent_wave(server: &Server, k: usize) -> Vec<Result<Vec<Vec<PropValue>>, ServerError>> {
    let start = Barrier::new(k);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..k)
            .map(|_| {
                let session = server.session();
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    session.submit(SERVED_Q).map(|o| o.result.rows())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// A one-shot fault (`@1`: first hit only) armed while 4 queries run on the
/// shared pool strikes at most one of them. For every point × {err, panic}:
/// the poisoned query reports the matching typed error, every bystander's
/// rows equal the unfaulted run, and a full clean wave follows on the same
/// pool.
#[test]
fn one_shot_fault_under_concurrency_poisons_at_most_one_query() {
    let _gate = serial();
    let _clear = ClearOnDrop;
    let server = chaos_server();
    // warm the plan cache so the wave contends on execution, not optimization
    let want = server
        .session()
        .submit(SERVED_Q)
        .expect("warm-up")
        .result
        .rows();
    assert!(!want.is_empty(), "served query produces rows");
    for point in POINTS {
        for action in ["err(chaos)@1", "panic(chaos)@1"] {
            failpoint::clear();
            failpoint::configure(point, action).unwrap();
            let tag = format!("{point}={action}");
            let outcomes = concurrent_wave(&server, 4);
            let mut failed = 0usize;
            for out in &outcomes {
                match out {
                    Ok(rows) => assert_eq!(rows, &want, "bystander rows diverge under {tag}"),
                    Err(ServerError::Exec(ExecError::Injected { point: p, msg })) => {
                        assert!(action.starts_with("err"), "err under panic action ({tag})");
                        assert_eq!(p, point, "wrong injection site under {tag}");
                        assert_eq!(msg, "chaos", "wrong message under {tag}");
                        failed += 1;
                    }
                    Err(ServerError::Exec(ExecError::WorkerPanicked { .. })) => {
                        assert!(
                            action.starts_with("panic"),
                            "panic under err action ({tag})"
                        );
                        failed += 1;
                    }
                    Err(other) => panic!("foreign error under {tag}: {other:?}"),
                }
            }
            // `@1` fires exactly once; a plan may skip a point (e.g. a merge
            // that never runs), but the fault can never spread further
            assert!(failed <= 1, "{failed} queries poisoned under {tag}");
            failpoint::clear();
            // pool survival: a full wave succeeds on the very same pool
            for (i, out) in concurrent_wave(&server, 4).into_iter().enumerate() {
                let rows = out.unwrap_or_else(|e| panic!("no recovery after {tag} (#{i}): {e}"));
                assert_eq!(rows, want, "recovery rows diverge after {tag} (#{i})");
            }
            assert_eq!(
                server.admission_metrics().running,
                0,
                "a permit leaked under {tag}"
            );
        }
    }
}

/// The operator-boundary fault — hit by every plan — poisons *exactly* one of
/// the concurrent queries, and the session bookkeeping comes out clean.
#[test]
fn operator_fault_under_concurrency_poisons_exactly_one_query() {
    let _gate = serial();
    let _clear = ClearOnDrop;
    let server = chaos_server();
    let want = server
        .session()
        .submit(SERVED_Q)
        .expect("warm-up")
        .result
        .rows();
    failpoint::clear();
    failpoint::configure("exec.operator", "err(chaos)@1").unwrap();
    let outcomes = concurrent_wave(&server, 4);
    let failed = outcomes.iter().filter(|o| o.is_err()).count();
    assert_eq!(failed, 1, "exactly one query hits the one-shot fault");
    for out in outcomes {
        match out {
            Ok(rows) => assert_eq!(rows, want),
            Err(ServerError::Exec(ExecError::Injected { point, msg })) => {
                assert_eq!(point, "exec.operator");
                assert_eq!(msg, "chaos");
            }
            Err(other) => panic!("foreign error: {other:?}"),
        }
    }
}
