//! One workload, one process: set-up, warm-up, the timed closed loop (with or
//! without benchmark-owned spans), then the check against a reference that
//! shares no planner, backend or storage layout with the path under test.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{geomean, median, percentile};
use crate::trace::{layer_self_ns, Span, Tracer};
use crate::workload::{
    load_templates, row_order, select, spec, sweep_ops, Op, RowOrder, SplitMix64, Template,
    WorkloadSpec,
};
use gopt_core::{
    convert::logical_to_physical, plan_shape, GOpt, GOptConfig, GraphScopeSpec, GsRuleOnlyPlanner,
    HeuristicPlanner, NeoPlanner, OrderConjunctsBySelectivity, PatternPlanner, PhysicalSpec,
    TypeInference,
};
use gopt_exec::{
    Backend, ExecError, ExecResult, ExecStats, LimitReason, PartitionedBackend,
    SingleMachineBackend,
};
use gopt_gir::{LogicalOp, LogicalPlan, PhysicalPlan};
use gopt_glogue::{GLogue, GLogueConfig, GlogueQuery, LowOrderEstimator, StatsSelectivity};
use gopt_graph::{load_image, write_image, GraphStats, PartitionedGraph, PropValue, PropertyGraph};
use gopt_server::{Server, ServerConfig, Session};
use gopt_workloads::{generate_ldbc_graph, LdbcScale};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Persons of the benchmark graph (57 667 vertices, 268 480 edges) and of
/// the `--smoke` graph.
pub const PERSONS: usize = 5000;
pub const SMOKE_PERSONS: usize = 300;
/// The data set is fixed, as in TPC and LDBC: `--seed` draws the parameters
/// and the op order, not the graph. Ten graphs differ by 6-9 % in the `bi_*`
/// latencies, which would force every bound to 0.25.
pub const GRAPH_SEED: u64 = 42;
/// Set-up is repeated and its median reported, because one set-up is a
/// single sample of a 2 s interval on a shared box.
const SETUP_REPS: usize = 3;
const WARMUP_SWEEPS: usize = 2;
/// The reference plans keep the order the user wrote; this budget stands in
/// for "did not finish" (the same 3 M records `crates/bench` uses).
const REFERENCE_RECORD_BUDGET: u64 = 3_000_000;
/// Share of a traced run that is measured without spans, to price the spans.
const UNTRACED_SHARE: f64 = 0.25;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where to write the detail file (and the spans); nothing is written
    /// without it.
    pub out: Option<PathBuf>,
}

/// What the last line of standard output carries.
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit) in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunReport {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            let m = Json::obj([
                                ("value", Json::Num(*value)),
                                ("unit", Json::str(*unit)),
                            ]);
                            (name.to_string(), m)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

struct SetupPhases {
    generate_s: f64,
    glogue_s: f64,
    stats_s: f64,
    server_s: f64,
}

impl SetupPhases {
    fn total(&self) -> f64 {
        self.generate_s + self.glogue_s + self.stats_s + self.server_s
    }
}

/// Everything set-up builds: the graph, its statistics, and the server.
struct World {
    graph: Arc<PropertyGraph>,
    glogue: Arc<GLogue>,
    stats: Arc<GraphStats>,
    server: Option<Server>,
    phases: SetupPhases,
}

fn set_up(spec: &WorkloadSpec, persons: usize) -> Result<World, String> {
    let t = Instant::now();
    let graph = Arc::new(generate_ldbc_graph(&LdbcScale {
        persons,
        seed: GRAPH_SEED,
    }));
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let glogue = Arc::new(GLogue::build(
        &graph,
        &GLogueConfig {
            max_pattern_vertices: 3,
            max_anchors: Some(500),
            seed: 9,
        },
    ));
    let glogue_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let stats = GraphStats::shared(&graph);
    let stats_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let server = if spec.served {
        let config = ServerConfig {
            partitions: spec.partitions,
            threads: spec.threads,
            ..ServerConfig::default()
        };
        let server = Server::new(Arc::clone(&graph), Arc::clone(&glogue), config)
            .map_err(|e| e.to_string())?;
        server.update_stats(Arc::clone(&stats));
        Some(server)
    } else {
        None
    };
    let server_s = t.elapsed().as_secs_f64();
    Ok(World {
        graph,
        glogue,
        stats,
        server,
        phases: SetupPhases {
            generate_s,
            glogue_s,
            stats_s,
            server_s,
        },
    })
}

/// V, E and per-label counts: two runs of one seed must agree on these.
fn fingerprint(graph: &PropertyGraph) -> Json {
    let schema = graph.schema();
    let vertex_labels = schema.vertex_label_ids().map(|l| {
        let n = graph.vertex_count_by_label(l);
        (schema.vertex_label_name(l).to_string(), Json::Num(n as f64))
    });
    let edge_labels = schema.edge_label_ids().map(|l| {
        let n = graph.edge_count_by_label(l);
        (schema.edge_label_name(l).to_string(), Json::Num(n as f64))
    });
    Json::obj([
        ("vertices", Json::Num(graph.vertex_count() as f64)),
        ("edges", Json::Num(graph.edge_count() as f64)),
        ("vertex_labels", Json::Obj(vertex_labels.collect())),
        ("edge_labels", Json::Obj(edge_labels.collect())),
    ])
}

/// FNV-1a, written out so that a hash in a result file means the same thing
/// under every toolchain.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn value(&mut self, v: &PropValue) {
        match v {
            PropValue::Null => self.bytes(&[0]),
            PropValue::Bool(b) => self.bytes(&[1, u8::from(*b)]),
            PropValue::Int(i) => {
                self.bytes(&[2]);
                self.bytes(&i.to_le_bytes());
            }
            PropValue::Float(f) => {
                self.bytes(&[3]);
                self.bytes(&f.to_bits().to_le_bytes());
            }
            PropValue::Str(s) => {
                self.bytes(&[4]);
                self.bytes(&(s.len() as u64).to_le_bytes());
                self.bytes(s.as_bytes());
            }
            PropValue::Date(d) => {
                self.bytes(&[5]);
                self.bytes(&d.to_le_bytes());
            }
        }
    }
}

/// Hash of a result's rows: chained when the query fixes their order, summed
/// (so any order gives the same hash) when the rows are a multiset.
fn hash_rows(result: &ExecResult, order: RowOrder) -> u64 {
    let mut all = Fnv::new();
    let mut sum = 0u64;
    for row in result.rows() {
        let mut h = match order {
            RowOrder::Total => all,
            RowOrder::Unordered => Fnv::new(),
        };
        h.bytes(&(row.len() as u64).to_le_bytes());
        row.iter().for_each(|v| h.value(v));
        all = h;
        sum = sum.wrapping_add(h.0);
    }
    match order {
        RowOrder::Total => all.0,
        RowOrder::Unordered => sum ^ result.len() as u64,
    }
}

fn hash_text(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(text.as_bytes());
    h.0
}

/// What one op produced: the hash that is checked, the plan that ran (or was
/// compiled), and the engine's counters when something executed.
struct Output {
    hash: u64,
    plan: Arc<PhysicalPlan>,
    exec: Option<ExecStats>,
    rows: u64,
}

impl Output {
    fn executed(result: ExecResult, plan: Arc<PhysicalPlan>, order: RowOrder) -> Output {
        Output {
            hash: hash_rows(&result, order),
            rows: result.len() as u64,
            exec: Some(result.stats),
            plan,
        }
    }

    fn compiled(plan: PhysicalPlan) -> Output {
        Output {
            hash: hash_text(&plan.encode()),
            plan: Arc::new(plan),
            exec: None,
            rows: 0,
        }
    }
}

/// The optimizer's four stages called one by one, each under a span. Mirrors
/// `GOpt::optimize` with the default `GOptConfig` and statistics installed;
/// a traced run first checks that both produce the same plans.
struct Stages<'a> {
    graph: &'a PropertyGraph,
    rbo: HeuristicPlanner,
    estimator: &'a GlogueQuery<'a>,
    selectivity: StatsSelectivity,
}

impl<'a> Stages<'a> {
    fn new(world: &'a World, estimator: &'a GlogueQuery<'a>) -> Stages<'a> {
        let selectivity = StatsSelectivity::new(Arc::clone(&world.stats));
        let mut rbo = HeuristicPlanner::with_default_rules();
        rbo.add_phase(vec![Box::new(OrderConjunctsBySelectivity::new(Arc::new(
            selectivity.clone(),
        )))]);
        Stages {
            graph: &world.graph,
            rbo,
            estimator,
            selectivity,
        }
    }

    fn optimize(
        &self,
        tr: &mut Tracer,
        op: u32,
        parent: u32,
        plan: &LogicalPlan,
    ) -> Result<PhysicalPlan, String> {
        let s = tr.begin(op, parent, "core.rbo");
        let mut logical = self.rbo.optimize(plan);
        tr.end(s);

        let s = tr.begin(op, parent, "core.type_infer");
        let checker = TypeInference::new(self.graph.schema());
        for id in logical.node_ids() {
            if let LogicalOp::Match { pattern } = logical.op(id) {
                let pattern = checker.infer(pattern).map_err(|e| e.to_string())?;
                *logical.op_mut(id) = LogicalOp::Match { pattern };
            }
        }
        tr.end(s);

        let convert = tr.begin(op, parent, "core.convert");
        let spec = GraphScopeSpec;
        let mut planner =
            PatternPlanner::new(self.estimator, &spec).with_selectivity(&self.selectivity);
        planner.max_join_edges = GOptConfig::default().max_join_edges;
        let physical = logical_to_physical(&logical, |pattern| {
            let s = tr.begin(op, convert, "core.cbo");
            let chosen = planner.plan(pattern);
            tr.end(s);
            (chosen, spec.expand_strategy())
        })
        .map_err(|e| e.to_string())?;
        tr.end(convert);
        tr.count(convert, "plan_nodes", physical.len() as u64);
        Ok(physical)
    }
}

/// How an op is carried out. The untraced variants are what a user calls;
/// the traced ones replay the same steps through public functions.
enum Runner<'a> {
    Submit(Session),
    Compile(GOpt<'a>),
    TracedSubmit {
        stages: Stages<'a>,
        backend: PartitionedBackend,
        /// Stands in for the server's plan cache, which is private.
        cache: HashMap<Arc<str>, Arc<PhysicalPlan>>,
    },
    TracedCompile(Stages<'a>),
}

struct Harness<'a> {
    world: &'a World,
    templates: &'a [Template],
    orders: &'a [RowOrder],
}

impl Harness<'_> {
    /// Run one op; returns its latency in seconds and what it produced. Only
    /// the traced runners record spans in `tr`.
    fn run(
        &self,
        runner: &mut Runner,
        tr: &mut Tracer,
        number: u32,
        op: &Op,
    ) -> (f64, Result<Output, String>) {
        let tpl = &self.templates[op.template];
        let order = self.orders[op.template];
        let schema = self.world.graph.schema();
        match runner {
            Runner::Submit(session) => {
                let t = Instant::now();
                let outcome = session.submit(&op.text);
                let dt = t.elapsed().as_secs_f64();
                let out = outcome
                    .map(|o| Output::executed(o.result, o.exec_plan, order))
                    .map_err(|e| e.to_string());
                (dt, out)
            }
            Runner::Compile(gopt) => {
                let t = Instant::now();
                let plan = tpl
                    .parse(&op.text, schema)
                    .map_err(|e| e.to_string())
                    .and_then(|logical| gopt.optimize(&logical).map_err(|e| e.to_string()));
                let dt = t.elapsed().as_secs_f64();
                (dt, plan.map(Output::compiled))
            }
            Runner::TracedSubmit {
                stages,
                backend,
                cache,
            } => {
                let root = tr.begin(number, 0, "op");
                let out = (|| {
                    let s = tr.begin(number, root, "parser.parse");
                    let logical = tpl.parse(&op.text, schema);
                    tr.end(s);
                    let logical = logical.map_err(|e| e.to_string())?;

                    let s = tr.begin(number, root, "gir.parameterize");
                    let (parameterized, params) = logical.parameterize();
                    tr.end(s);

                    let s = tr.begin(number, root, "server.plan_shape");
                    let shape = plan_shape(&parameterized);
                    tr.end(s);

                    let s = tr.begin(number, root, "server.cache_lookup");
                    let cached = cache.get(&shape).cloned();
                    tr.end(s);
                    let plan = match cached {
                        Some(plan) => plan,
                        None => {
                            let plan =
                                Arc::new(stages.optimize(tr, number, root, &parameterized)?);
                            cache.insert(shape, Arc::clone(&plan));
                            plan
                        }
                    };

                    let s = tr.begin(number, root, "gir.bind_params");
                    let exec_plan = if params.is_empty() {
                        plan
                    } else {
                        Arc::new(plan.bind_params(&params))
                    };
                    tr.end(s);

                    let s = tr.begin(number, root, "exec.execute");
                    let result = backend.execute(&self.world.graph, &exec_plan);
                    tr.end(s);
                    let result = result.map_err(|e| e.to_string())?;
                    tr.count(s, "rows_out", result.len() as u64);
                    tr.count(s, "intermediate_records", result.stats.intermediate_records);
                    tr.count(s, "comm_bytes", result.stats.comm_bytes);
                    Ok((result, exec_plan))
                })();
                tr.end(root);
                // hashed outside the op span, as on the untraced path
                let out = out.map(|(result, plan)| Output::executed(result, plan, order));
                (tr.spans[root as usize - 1].duration_ns() as f64 / 1e9, out)
            }
            Runner::TracedCompile(stages) => {
                let root = tr.begin(number, 0, "op");
                let out = (|| {
                    let s = tr.begin(number, root, "parser.parse");
                    let logical = tpl.parse(&op.text, schema);
                    tr.end(s);
                    let logical = logical.map_err(|e| e.to_string())?;
                    stages.optimize(tr, number, root, &logical)
                })();
                tr.end(root);
                (
                    tr.spans[root as usize - 1].duration_ns() as f64 / 1e9,
                    out.map(Output::compiled),
                )
            }
        }
    }
}

/// Latencies and checks of the timed section.
#[derive(Default)]
struct Timed {
    /// Per op of the sweep, the latencies of all its repetitions, in ms.
    per_op_ms: Vec<Vec<f64>>,
    /// Ops per second of each sweep.
    sweep_qps: Vec<f64>,
    /// Which op of the sweep the n-th executed op was (span `trace_id` n + 1).
    executed: Vec<usize>,
    attempted: u64,
    failed: u64,
}

impl Timed {
    fn all_ms(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.per_op_ms.iter().flatten().copied().collect();
        all.sort_by(f64::total_cmp);
        all
    }

    /// Each op's median latency, in ms. Statistics over these are steadier
    /// than over the pooled samples, whose quantiles sit on cluster edges.
    fn op_medians_ms(&self) -> Vec<f64> {
        self.per_op_ms.iter().map(|ms| median(ms)).collect()
    }
}

/// Repeat the sweep until `seconds` of op time have been measured. An op
/// fails when it returns an error or a result other than `expected`'s.
///
/// Each sweep runs the ops in a fresh seeded order: what ran just before an
/// op (a 99 k-row union, say) moves a short op's latency by tens of percent,
/// and under one fixed order that made the geomean a function of the seed.
fn timed_loop(
    h: &Harness,
    runner: &mut Runner,
    tr: &mut Tracer,
    ops: &[Op],
    expected: &[Output],
    seconds: f64,
    rng: &mut SplitMix64,
) -> Timed {
    let mut timed = Timed {
        per_op_ms: vec![Vec::new(); ops.len()],
        ..Timed::default()
    };
    let mut order: Vec<usize> = (0..ops.len()).collect();
    let mut measured = 0.0;
    let mut number = 1;
    while measured < seconds {
        rng.shuffle(&mut order);
        let mut sweep = 0.0;
        for &i in &order {
            let (dt, out) = h.run(runner, tr, number, &ops[i]);
            number += 1;
            sweep += dt;
            timed.per_op_ms[i].push(dt * 1e3);
            timed.executed.push(i);
            timed.attempted += 1;
            if !matches!(out, Ok(out) if out.hash == expected[i].hash) {
                timed.failed += 1;
            }
        }
        timed.sweep_qps.push(ops.len() as f64 / sweep);
        measured += sweep;
    }
    timed
}

/// One warm-up sweep that also records what each op produces.
fn first_sweep(
    h: &Harness,
    runner: &mut Runner,
    tr: &mut Tracer,
    ops: &[Op],
) -> Result<Vec<Output>, String> {
    ops.iter()
        .map(|op| {
            h.run(runner, tr, 0, op)
                .1
                .map_err(|e| format!("{}: {e}", h.templates[op.template].name))
        })
        .collect()
}

/// What executing one plan per op of the sweep gave: row hashes, records
/// examined, and the time each took.
#[derive(Default)]
struct Executions {
    hashes: Vec<u64>,
    intermediate_records: Vec<u64>,
    micros: Vec<f64>,
}

impl Executions {
    fn push(&mut self, result: &ExecResult, order: RowOrder, micros: f64) {
        self.hashes.push(hash_rows(result, order));
        self.intermediate_records
            .push(result.stats.intermediate_records);
        self.micros.push(micros);
    }
}

/// The reference result of every op: the user-order plan of
/// `GsRuleOnlyPlanner` (or `NeoPlanner`'s greedy plan where that one blows
/// the record budget) on `SingleMachineBackend` over the monolithic graph.
/// Also returns the templates that needed the fallback.
fn reference(h: &Harness, ops: &[Op]) -> Result<(Executions, Vec<String>), String> {
    let graph = &*h.world.graph;
    let backend = SingleMachineBackend::with_record_limit(REFERENCE_RECORD_BUDGET);
    let rule_only = GsRuleOnlyPlanner::new();
    let low_order = LowOrderEstimator::new(&h.world.glogue);
    let mut runs = Executions::default();
    let mut over_budget = Vec::new();
    for op in ops {
        let tpl = &h.templates[op.template];
        let fail = |e: String| format!("reference for {}: {e}", tpl.name);
        let logical = tpl
            .parse(&op.text, graph.schema())
            .map_err(|e| fail(e.to_string()))?;
        let plan = rule_only
            .optimize(&logical)
            .map_err(|e| fail(e.to_string()))?;
        let t = Instant::now();
        let result = match backend.execute(graph, &plan) {
            Err(ExecError::LimitExceeded(LimitReason::Records { .. })) => {
                if !over_budget.contains(&tpl.name) {
                    over_budget.push(tpl.name.clone());
                }
                let plan = NeoPlanner::new(&low_order)
                    .optimize(&logical)
                    .map_err(|e| fail(e.to_string()))?;
                backend.execute(graph, &plan)
            }
            other => other,
        }
        .map_err(|e| fail(e.to_string()))?;
        runs.push(
            &result,
            h.orders[op.template],
            t.elapsed().as_secs_f64() * 1e6,
        );
    }
    Ok((runs, over_budget))
}

/// Execute each op's plan on `SingleMachineBackend::new()`. This is the
/// compiled plan's correctness check on `compile_cgp`, and the
/// single-machine side of the engine comparison.
fn single_machine(h: &Harness, ops: &[Op], outputs: &[Output]) -> Result<Executions, String> {
    let backend = SingleMachineBackend::new();
    let mut runs = Executions::default();
    for (op, out) in ops.iter().zip(outputs) {
        let t = Instant::now();
        let result = backend.execute(&h.world.graph, &out.plan);
        let micros = t.elapsed().as_secs_f64() * 1e6;
        let result = result
            .map_err(|e| format!("single machine, {}: {e}", h.templates[op.template].name))?;
        runs.push(&result, h.orders[op.template], micros);
    }
    Ok(runs)
}

/// What only a traced run has beside its spans: its untraced quarter and
/// the storage timings.
struct Traced {
    plain: Timed,
    storage: StorageTimes,
}

/// Sharding and the graph image, timed once per traced run.
struct StorageTimes {
    shard_s: f64,
    image_write_s: f64,
    image_load_s: f64,
    image_bytes_per_edge: f64,
}

fn storage_times(world: &World, partitions: usize, dir: &Path) -> Result<StorageTimes, String> {
    let t = Instant::now();
    let sharded = PartitionedGraph::build(&world.graph, partitions);
    let shard_s = t.elapsed().as_secs_f64();
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("perf-{}.gimg", std::process::id()));
    let t = Instant::now();
    write_image(&world.graph, &sharded, &world.stats, &path).map_err(|e| e.to_string())?;
    let image_write_s = t.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let t = Instant::now();
    let loaded = load_image(&path);
    let image_load_s = t.elapsed().as_secs_f64();
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    let loaded = loaded.map_err(|e| e.to_string())?;
    if loaded.graph.edge_count() != world.graph.edge_count() {
        return Err("graph image lost edges".into());
    }
    Ok(StorageTimes {
        shard_s,
        image_write_s,
        image_load_s,
        image_bytes_per_edge: bytes as f64 / world.graph.edge_count() as f64,
    })
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Per op number, the summed duration of its spans with one of `names`, in µs.
fn per_op_us(spans: &[Span], names: &[&str]) -> BTreeMap<u32, f64> {
    let mut per_op = BTreeMap::new();
    for s in spans.iter().filter(|s| names.contains(&s.name)) {
        *per_op.entry(s.trace_id).or_insert(0.0) += s.duration_ns() as f64 / 1e3;
    }
    per_op
}

/// The same per op of the sweep: the median over its traced repetitions.
fn per_sweep_op_us(spans: &[Span], names: &[&str], timed: &Timed) -> Vec<f64> {
    let mut samples = vec![Vec::new(); timed.per_op_ms.len()];
    for (number, us) in per_op_us(spans, names) {
        samples[timed.executed[number as usize - 1]].push(us);
    }
    samples.iter().map(|us| median(us)).collect()
}

/// Counters of one sweep; exact for a seed.
#[derive(Default)]
struct Counters {
    intermediate_records: u64,
    rows_out: u64,
    comm_records: u64,
    comm_bytes: u64,
    locality_hits: u64,
    exchange_peak_bytes: u64,
    plan_nodes: u64,
}

impl Counters {
    fn of(outputs: &[Output]) -> Counters {
        let mut c = Counters::default();
        for out in outputs {
            c.plan_nodes += out.plan.len() as u64;
            c.rows_out += out.rows;
            if let Some(s) = &out.exec {
                c.intermediate_records += s.intermediate_records;
                c.comm_records += s.comm_records;
                c.comm_bytes += s.comm_bytes;
                c.locality_hits += s.locality_hits;
                c.exchange_peak_bytes = c.exchange_peak_bytes.max(s.exchange_peak_bytes);
            }
        }
        c
    }

    fn to_json(&self) -> Json {
        Json::obj([
            (
                "intermediate_records",
                Json::Num(self.intermediate_records as f64),
            ),
            ("rows_out", Json::Num(self.rows_out as f64)),
            ("comm_records", Json::Num(self.comm_records as f64)),
            ("comm_bytes", Json::Num(self.comm_bytes as f64)),
            ("locality_hits", Json::Num(self.locality_hits as f64)),
            ("plan_nodes", Json::Num(self.plan_nodes as f64)),
        ])
    }
}

/// One hash per template over its ops' hashes, in op-text order.
fn template_hashes(h: &Harness, ops: &[Op], outputs: &[Output]) -> Json {
    let mut per_template: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
    for (op, out) in ops.iter().zip(outputs) {
        per_template
            .entry(&h.templates[op.template].name)
            .or_default()
            .push((&op.text, out.hash));
    }
    Json::Obj(
        per_template
            .into_iter()
            .map(|(name, mut hashes)| {
                hashes.sort_unstable();
                let mut h = Fnv::new();
                hashes.iter().for_each(|(_, x)| h.bytes(&x.to_le_bytes()));
                (name.to_string(), Json::Str(format!("{:016x}", h.0)))
            })
            .collect(),
    )
}

/// Median latency of every template, in ms, with its sample count.
fn template_medians(h: &Harness, ops: &[Op], timed: &Timed) -> BTreeMap<String, (f64, usize)> {
    let mut per_template: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (op, ms) in ops.iter().zip(&timed.per_op_ms) {
        per_template
            .entry(h.templates[op.template].name.clone())
            .or_default()
            .extend_from_slice(ms);
    }
    per_template
        .into_iter()
        .map(|(name, ms)| (name, (median(&ms), ms.len())))
        .collect()
}

/// Run one workload and report. `Err` means the run could not be carried
/// out at all; a wrong result is a report with `correct: false`.
pub fn run_workload(args: &RunArgs) -> Result<RunReport, String> {
    let spec = spec(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload `{}` (one of {:?})",
            args.workload,
            crate::workload::WORKLOADS
        )
    })?;
    let persons = if args.smoke { SMOKE_PERSONS } else { PERSONS };
    let (setup_reps, warmup_sweeps) = match args.smoke {
        true => (1, 1),
        false => (SETUP_REPS, WARMUP_SWEEPS),
    };
    let all = load_templates()?;
    let templates = select(&all, &spec.templates)?;
    let ops = sweep_ops(&spec, &templates, args.seed, persons as u64);

    // ---- set-up (reported as setup_s; repeated after the timed section) ----
    let world = set_up(&spec, persons)?;
    let print = fingerprint(&world.graph);
    let mut setup_s = vec![world.phases.total()];
    let schema = world.graph.schema();
    let orders = templates
        .iter()
        .map(|t| {
            let plan = t
                .parse(&t.instantiate(0), schema)
                .map_err(|e| e.to_string())?;
            row_order(&plan)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let h = Harness {
        world: &world,
        templates: &templates,
        orders: &orders,
    };
    let estimator = GlogueQuery::new(&world.glogue);
    let gs_spec = GraphScopeSpec;
    let untraced = || match &world.server {
        Some(server) => Runner::Submit(server.session()),
        None => Runner::Compile(
            GOpt::new(schema, &estimator, &gs_spec).with_stats(Arc::clone(&world.stats)),
        ),
    };

    // ---- warm-up: fills the plan cache; the first sweep's outputs are what
    // every timed op must reproduce and what the reference must confirm ----
    let mut runner = untraced();
    let mut tracer = Tracer::default();
    let expected = first_sweep(&h, &mut runner, &mut tracer, &ops)?;
    for _ in 1..warmup_sweeps {
        first_sweep(&h, &mut runner, &mut tracer, &ops)?;
    }
    let warm_cache = world.server.as_ref().map(|s| s.cache_metrics());

    // ---- timed section ----
    let mut rng = SplitMix64(!args.seed); // a stream apart from the one that drew the ids
    let mut measure = |runner: &mut Runner, tr: &mut Tracer, seconds: f64| {
        timed_loop(&h, runner, tr, &ops, &expected, seconds, &mut rng)
    };
    let (timed, traced) = if args.trace {
        let out_dir = args.out.clone().unwrap_or_else(default_out_dir);
        let storage = storage_times(&world, spec.partitions, &out_dir)?;
        let untraced_share = args.seconds * UNTRACED_SHARE;
        let plain = measure(&mut runner, &mut tracer, untraced_share);
        let stages = Stages::new(&world, &estimator);
        let mut replay = match spec.served {
            true => Runner::TracedSubmit {
                stages,
                backend: PartitionedBackend::new(spec.partitions)
                    .map_err(|e| e.to_string())?
                    .with_threads(spec.threads),
                cache: HashMap::new(),
            },
            false => Runner::TracedCompile(stages),
        };
        // the replay must produce what the untraced path produced, plan
        // for plan on compile_cgp and row for row on the served workloads
        let replayed = first_sweep(&h, &mut replay, &mut tracer, &ops)?;
        if let Some(i) = (0..ops.len()).find(|&i| replayed[i].hash != expected[i].hash) {
            return Err(format!(
                "the traced replay of {} differs from the untraced path",
                templates[ops[i].template].name
            ));
        }
        tracer = Tracer::default(); // drop the warm-up sweep's spans
        let timed = measure(&mut replay, &mut tracer, args.seconds - untraced_share);
        (timed, Some(Traced { plain, storage }))
    } else {
        (measure(&mut runner, &mut tracer, args.seconds), None)
    };
    drop(runner);
    let peak_rss = peak_rss_mb()?;
    // the remaining set-ups, for a median: after the peak is read, so that it
    // is the peak of one deployment and not of three in a row
    for _ in 1..setup_reps {
        let again = set_up(&spec, persons)?;
        if fingerprint(&again.graph) != print {
            return Err("the generator made two different graphs from one seed".into());
        }
        setup_s.push(again.phases.total());
    }
    let cache = world.server.as_ref().map(|s| s.cache_metrics());
    let admission = world.server.as_ref().map(|s| s.admission_metrics());

    // ---- verify (after timing, so the reference's memory is not in
    // peak_rss_mb; every timed op was already compared with `expected`) ----
    let t = Instant::now();
    let (reference, over_budget) = reference(&h, &ops)?;
    // compiled plans have produced no rows yet: run them; in a traced run
    // this also gives the single-machine side of the engine comparison
    let sm = match !spec.served || args.trace {
        true => Some(single_machine(&h, &ops, &expected)?),
        false => None,
    };
    let verify_s = t.elapsed().as_secs_f64();
    let mut failed = timed.failed + traced.as_ref().map_or(0, |t| t.plain.failed);
    let attempted = timed.attempted + traced.as_ref().map_or(0, |t| t.plain.attempted);
    let mut wrong = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let got = match (&sm, spec.served) {
            (Some(sm), false) => sm.hashes[i],
            _ => expected[i].hash,
        };
        let sm_agrees = sm
            .as_ref()
            .is_none_or(|sm| sm.hashes[i] == reference.hashes[i]);
        if got != reference.hashes[i] || !sm_agrees {
            wrong.push(templates[op.template].name.clone());
            // every repetition of this op returned the same wrong rows
            failed += timed.per_op_ms[i].len() as u64;
        }
    }
    wrong.dedup();
    let failed = failed.min(attempted);
    let counters = Counters::of(&expected);
    // over the timed section only: the warm-up's misses are what filled the cache
    let hit_ratio = match (&warm_cache, &cache) {
        (Some(warm), Some(end)) => {
            let (hits, misses) = (end.hits - warm.hits, end.misses - warm.misses);
            hits as f64 / (hits + misses).max(1) as f64
        }
        _ => 1.0,
    };
    let mut problems: Vec<String> = wrong.iter().map(|t| format!("{t}: wrong rows")).collect();
    if hit_ratio < 0.99 {
        problems.push(format!("plan-cache hit ratio {hit_ratio:.4} < 0.99"));
    }
    if spec.partitions == 1 && counters.comm_bytes != 0 {
        problems.push("bytes were shipped between shards of a one-shard graph".into());
    }
    if failed > 0 && wrong.is_empty() {
        problems.push(format!("{failed} timed ops failed or changed their result"));
    }
    problems.iter().for_each(|p| eprintln!("perf: {p}"));

    // ---- metrics ----
    let all_ms = timed.all_ms();
    let medians = template_medians(&h, &ops, &timed);
    let op_medians_ms = timed.op_medians_ms();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if let Some(Traced { plain, storage }) = &traced {
        let spans = &tracer.spans;
        let us = |names: &[&str]| {
            let per_op: Vec<f64> = per_op_us(spans, names).into_values().collect();
            median(&per_op)
        };
        values.insert("parser.parse_us", us(&["parser.parse"]));
        values.insert("gir.param_us", us(&["gir.parameterize", "gir.bind_params"]));
        values.insert("server.shape_us", us(&["server.plan_shape"]));
        values.insert("exec.execute_us", us(&["exec.execute"]));
        // paired per op of the sweep, then the median op: what `submit` spends
        // outside the steps the replay can call (locks, context, admission)
        let steps = per_sweep_op_us(
            spans,
            &[
                "parser.parse",
                "gir.parameterize",
                "server.plan_shape",
                "gir.bind_params",
                "exec.execute",
            ],
            &timed,
        );
        let untraced_ms = plain.op_medians_ms();
        let overhead: Vec<f64> = (0..ops.len())
            .map(|i| untraced_ms[i] * 1e3 - steps[i])
            .collect();
        let slowdown: Vec<f64> = (0..ops.len())
            .map(|i| 100.0 * (op_medians_ms[i] / untraced_ms[i] - 1.0))
            .collect();
        let overhead = median(&overhead);
        values.insert(
            "server.overhead_us",
            if spec.served { overhead } else { 0.0 },
        );
        values.insert("server.cache_hit_ratio", hit_ratio);
        values.insert(
            "server.cache_evictions",
            cache.as_ref().map_or(0.0, |c| c.evictions as f64),
        );
        values.insert(
            "server.queued",
            admission.as_ref().map_or(0.0, |a| a.enqueued as f64),
        );
        values.insert(
            "server.rejected",
            admission.as_ref().map_or(0.0, |a| a.rejected as f64),
        );
        values.insert("core.rbo_us", us(&["core.rbo"]));
        values.insert("core.type_infer_us", us(&["core.type_infer"]));
        values.insert("core.cbo_us", us(&["core.cbo"]));
        values.insert("core.convert_us", us(&["core.convert"]));
        values.insert("core.plan_nodes", counters.plan_nodes as f64);
        let sm = sm
            .as_ref()
            .expect("traced runs execute on a single machine");
        let quality: Vec<f64> = (0..ops.len())
            .filter(|&i| sm.intermediate_records[i] > 0 && reference.intermediate_records[i] > 0)
            .filter(|&i| !over_budget.contains(&templates[ops[i].template].name))
            .map(|i| sm.intermediate_records[i] as f64 / reference.intermediate_records[i] as f64)
            .collect();
        values.insert("core.plan_quality", geomean(&quality));
        values.insert(
            "exec.single_machine_us",
            if spec.served { median(&sm.micros) } else { 0.0 },
        );
        values.insert(
            "exec.intermediate_records",
            counters.intermediate_records as f64,
        );
        values.insert("exec.rows_out", counters.rows_out as f64);
        values.insert(
            "exec.records_per_row",
            counters.intermediate_records as f64 / counters.rows_out.max(1) as f64,
        );
        values.insert("exec.comm_records", counters.comm_records as f64);
        values.insert("exec.comm_bytes", counters.comm_bytes as f64);
        values.insert("exec.locality_hits", counters.locality_hits as f64);
        values.insert(
            "exec.exchange_peak_bytes",
            counters.exchange_peak_bytes as f64,
        );
        values.insert("graph.generate_s", world.phases.generate_s);
        values.insert("graph.stats_s", world.phases.stats_s);
        values.insert("graph.shard_s", storage.shard_s);
        values.insert("graph.image_write_s", storage.image_write_s);
        values.insert("graph.image_load_s", storage.image_load_s);
        values.insert("graph.image_bytes_per_edge", storage.image_bytes_per_edge);
        values.insert("glogue.build_s", world.phases.glogue_s);
        let layers = layer_self_ns(spans);
        let op_ns: u64 = spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(Span::duration_ns)
            .sum();
        for (metric, layer) in [
            ("share.parser_pct", "parser"),
            ("share.gir_pct", "gir"),
            ("share.server_pct", "server"),
            ("share.core_pct", "core"),
            ("share.exec_pct", "exec"),
            ("share.bench_pct", "op"),
        ] {
            let ns = layers.get(layer).copied().unwrap_or(0);
            values.insert(metric, 100.0 * ns as f64 / op_ns.max(1) as f64);
        }
        values.insert("trace_overhead_pct", median(&slowdown));
        values.insert("verify_s", verify_s);
    } else {
        let template_medians: Vec<f64> = medians.values().map(|(ms, _)| *ms).collect();
        values.insert("throughput_qps", median(&timed.sweep_qps));
        values.insert("latency_geomean_ms", geomean(&template_medians));
        values.insert("latency_p50_ms", median(&op_medians_ms));
        values.insert("latency_p99_ms", percentile(&all_ms, 99.0));
        values.insert("peak_rss_mb", peak_rss);
        values.insert("setup_s", median(&setup_s));
    }
    let table: Vec<(&'static str, &'static str)> = match args.trace {
        true => PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
        false => END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
    };
    let report = RunReport {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: table
            .into_iter()
            .map(|(name, unit)| (name, values[name], unit))
            .collect(),
    };

    // ---- files ----
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let kind = if args.trace { "trace" } else { "e2e" };
        if traced.is_some() {
            let path = dir.join(format!("{}.trace.jsonl", spec.name));
            tracer
                .write_jsonl(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let detail = Json::obj([
            ("workload", Json::str(spec.name)),
            ("trace", Json::Bool(args.trace)),
            ("report", report.to_json()),
            (
                "problems",
                Json::Arr(problems.iter().map(Json::str).collect()),
            ),
            ("timed_ops", Json::Num(all_ms.len() as f64)),
            ("sweeps", Json::Num(timed.sweep_qps.len() as f64)),
            ("ops_per_sweep", Json::Num(ops.len() as f64)),
            ("setup_reps", Json::Num(setup_reps as f64)),
            ("verify_s", Json::Num(verify_s)),
            ("graph", print),
            (
                "server",
                match spec.served {
                    true => Json::obj([
                        ("partitions", Json::Num(spec.partitions as f64)),
                        ("threads", Json::Num(spec.threads as f64)),
                    ]),
                    false => Json::Null,
                },
            ),
            ("counters", counters.to_json()),
            ("row_hashes", template_hashes(&h, &ops, &expected)),
            (
                "reference_over_budget",
                Json::Arr(over_budget.iter().map(Json::str).collect()),
            ),
            (
                "templates",
                Json::Obj(
                    medians
                        .iter()
                        .map(|(name, (ms, n))| {
                            let row = Json::obj([
                                ("median_ms", Json::Num(*ms)),
                                ("samples", Json::Num(*n as f64)),
                            ]);
                            (name.clone(), row)
                        })
                        .collect(),
                ),
            ),
        ]);
        let path = dir.join(format!("{}.{kind}.json", spec.name));
        std::fs::write(&path, detail.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(report)
}

/// `perf/out`, next to the sources: inside the checkout wherever it is.
pub fn default_out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}
