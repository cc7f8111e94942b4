//! The four workloads: which query texts each one submits, on which server
//! configuration, and the seeded op sequence of one sweep. The texts live in
//! `perf/queries/` and belong to the benchmark, so a change to
//! `crates/workloads` cannot move the numbers.

use gopt_gir::{Expr, LogicalOp, LogicalPlan};
use gopt_graph::GraphSchema;
use gopt_parser::{parse_cypher, parse_gremlin, ParseError};
use std::path::PathBuf;

/// Workload names; stable identifiers that `BENCHMARK.json` repeats.
pub const WORKLOADS: [&str; 4] = ["ic_hot", "bi_p1", "bi_p4", "compile_cgp"];

/// Person ids the interactive templates rotate over.
const IC_IDS: usize = 64;

const IC_HOT: [&str; 10] = [
    "IC1", "IC2", "IC3", "IC5", "IC7", "IC8", "IC11", "IC12", "IS1", "IS3",
];
const IC_ALL: [&str; 12] = [
    "IC1", "IC2", "IC3", "IC4", "IC5", "IC6", "IC7", "IC8", "IC9", "IC10", "IC11", "IC12",
];
const BI: [&str; 17] = [
    "BI1", "BI2", "BI3", "BI4", "BI5", "BI6", "BI7", "BI8", "BI9", "BI10", "BI11", "BI12", "BI13",
    "BI14", "BI16", "BI17", "BI18",
];
const QR: [&str; 8] = ["QR1", "QR2", "QR3", "QR4", "QR5", "QR6", "QR7", "QR8"];
const QT: [&str; 5] = ["QT1", "QT2", "QT3", "QT4", "QT5"];
const QC_SERVED: [&str; 6] = ["QC1a", "QC1b", "QC2a", "QC2b", "QC3a", "QC3b"];
const GREMLIN: [&str; 9] = [
    "QR1.gremlin",
    "QR2.gremlin",
    "QR3.gremlin",
    "QR4.gremlin",
    "QR5.gremlin",
    "QR6.gremlin",
    "QC1a.gremlin",
    "QC2a.gremlin",
    "QC3a.gremlin",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lang {
    Cypher,
    Gremlin,
}

/// A query text of `perf/queries/`; `$id` in it stands for a person id.
#[derive(Debug, Clone)]
pub struct Template {
    /// File name without `.cypher`; Gremlin texts keep `.gremlin`.
    pub name: String,
    pub lang: Lang,
    pub text: String,
}

impl Template {
    pub fn instantiate(&self, person_id: u64) -> String {
        self.text.replace("$id", &person_id.to_string())
    }

    pub fn parse(&self, text: &str, schema: &GraphSchema) -> Result<LogicalPlan, ParseError> {
        match self.lang {
            Lang::Cypher => parse_cypher(text, schema),
            Lang::Gremlin => parse_gremlin(text, schema),
        }
    }
}

/// Every query file, sorted by name.
pub fn load_templates() -> Result<Vec<Template>, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("queries");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let file = path.file_name().and_then(|f| f.to_str()).unwrap_or("");
        let (name, lang) = match file.strip_suffix(".cypher") {
            Some(stem) => (stem.to_string(), Lang::Cypher),
            None if file.ends_with(".gremlin") => (file.to_string(), Lang::Gremlin),
            None => return Err(format!("unexpected file in queries/: {file}")),
        };
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{file}: {e}"))?;
        out.push(Template {
            name,
            lang,
            text: text.trim().to_string(),
        });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

/// What a workload runs and on what.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// `Session::submit` on a server, or parse + optimize only.
    pub served: bool,
    pub partitions: usize,
    pub threads: usize,
    pub templates: Vec<&'static str>,
}

pub fn spec(name: &str) -> Option<WorkloadSpec> {
    let bi_set = || [&BI[..], &QC_SERVED, &QR, &QT].concat();
    let (name, served, partitions, threads, templates) = match name {
        "ic_hot" => ("ic_hot", true, 4, 2, IC_HOT.to_vec()),
        "bi_p1" => ("bi_p1", true, 1, 1, bi_set()),
        "bi_p4" => ("bi_p4", true, 4, 2, bi_set()),
        "compile_cgp" => (
            "compile_cgp",
            false,
            1,
            1,
            [&IC_ALL[..], &BI, &QR, &QT, &QC_SERVED, &["QC4a"], &GREMLIN].concat(),
        ),
        _ => return None,
    };
    Some(WorkloadSpec {
        name,
        served,
        partitions,
        threads,
        templates,
    })
}

/// One operation of a sweep: the text the program receives.
#[derive(Debug, Clone)]
pub struct Op {
    /// Index into the workload's template list.
    pub template: usize,
    pub text: String,
}

/// splitmix64: the benchmark's own generator, so that a seed means the same
/// op sequence whatever happens to the workspace's `rand` shim.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The ops of one sweep, a pure function of (workload, seed, persons): the
/// seed draws the person ids. Every sweep of a run executes all of them, so
/// each template is timed equally often and the mix never depends on where
/// the clock stopped; the run shuffles their order anew for every sweep.
pub fn sweep_ops(spec: &WorkloadSpec, templates: &[Template], seed: u64, persons: u64) -> Vec<Op> {
    let mut rng = SplitMix64(seed);
    let ids: Vec<u64> = match spec.name {
        "ic_hot" => (0..IC_IDS).map(|_| rng.below(persons)).collect(),
        _ => vec![rng.below(persons)],
    };
    let mut ops = Vec::new();
    for (t, tpl) in templates.iter().enumerate() {
        for &id in &ids {
            ops.push(Op {
                template: t,
                text: tpl.instantiate(id),
            });
        }
    }
    ops
}

/// Resolve a workload's template names against the loaded files, in order.
pub fn select(all: &[Template], names: &[&str]) -> Result<Vec<Template>, String> {
    names
        .iter()
        .map(|n| {
            all.iter()
                .find(|t| t.name == *n)
                .cloned()
                .ok_or_else(|| format!("queries/ has no template {n}"))
        })
        .collect()
}

/// How the rows of a query may be compared between two plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOrder {
    /// The final `ORDER BY` names every column that tells rows apart, so the
    /// row sequence is the same under every plan.
    Total,
    /// No `ORDER BY` and no `LIMIT`: the rows form a multiset.
    Unordered,
}

/// Classify a parsed query, or say why its rows depend on the plan.
pub fn row_order(plan: &LogicalPlan) -> Result<RowOrder, String> {
    // Gremlin's `.order().limit(n)` parses to LIMIT over ORDER
    let root = match (plan.op(plan.root()), plan.inputs(plan.root())) {
        (LogicalOp::Limit { .. }, [input])
            if matches!(plan.op(*input), LogicalOp::Order { .. }) =>
        {
            *input
        }
        _ => plan.root(),
    };
    let LogicalOp::Order { keys, .. } = plan.op(root) else {
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if matches!(
                plan.op(id),
                LogicalOp::Order { .. } | LogicalOp::Limit { .. }
            ) {
                return Err("ORDER/LIMIT below the root cuts rows by a partial order".into());
            }
            stack.extend_from_slice(plan.inputs(id));
        }
        return Ok(RowOrder::Unordered);
    };
    let ordered: Vec<&str> = keys
        .iter()
        .filter_map(|(e, _)| match e {
            Expr::Tag(t) => Some(t.as_str()),
            _ => None,
        })
        .collect();
    // rows differ only in these columns: the keys of a GROUP (its aggregates
    // are functions of them), or every column of a PROJECT
    let distinguishing: Vec<&String> = match plan.inputs(root).first().map(|i| plan.op(*i)) {
        Some(LogicalOp::Group { keys, .. }) => keys.iter().map(|(_, alias)| alias).collect(),
        Some(LogicalOp::Project { items }) => items.iter().map(|(_, alias)| alias).collect(),
        other => return Err(format!("ORDER over {:?}", other.map(LogicalOp::name))),
    };
    match distinguishing
        .iter()
        .find(|c| !ordered.contains(&c.as_str()))
    {
        Some(missing) => Err(format!("ORDER BY does not break ties on `{missing}`")),
        None => Ok(RowOrder::Total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gopt_workloads::ldbc_schema;

    #[test]
    fn workloads_have_the_sizes_the_readme_states() {
        let sizes: Vec<usize> = WORKLOADS
            .iter()
            .map(|w| spec(w).unwrap().templates.len())
            .collect();
        assert_eq!(sizes, [10, 36, 36, 58]);
        assert!(spec("nope").is_none());
    }

    #[test]
    fn sweeps_repeat_for_a_seed_and_differ_between_seeds() {
        let all = load_templates().unwrap();
        let spec = spec("ic_hot").unwrap();
        let tpls = select(&all, &spec.templates).unwrap();
        let texts = |seed| -> Vec<String> {
            sweep_ops(&spec, &tpls, seed, 5000)
                .into_iter()
                .map(|o| o.text)
                .collect()
        };
        assert_eq!(texts(42), texts(42));
        assert_ne!(texts(42), texts(7));
        assert_eq!(texts(42).len(), 10 * IC_IDS);
        assert!(texts(42).iter().all(|t| !t.contains('$')));
    }

    #[test]
    fn a_partial_order_is_reported() {
        let schema = ldbc_schema();
        let q = "MATCH (p:Person)-[:Knows]->(f:Person) RETURN f.id AS id, count(*) AS c ORDER BY c DESC LIMIT 5";
        let err = row_order(&parse_cypher(q, &schema).unwrap()).unwrap_err();
        assert!(err.contains("`id`"), "{err}");
        let q = "MATCH (p:Person) RETURN p.id AS id LIMIT 5";
        assert!(row_order(&parse_cypher(q, &schema).unwrap()).is_err());
    }

    /// Every file parses, and its rows do not depend on the plan: either a
    /// total order or no order and no limit.
    #[test]
    fn every_query_file_parses_and_ends_in_a_total_order() {
        let schema = ldbc_schema();
        let all = load_templates().unwrap();
        assert_eq!(all.len(), 60);
        for t in &all {
            let plan = t
                .parse(&t.instantiate(10), &schema)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", t.name));
            let order = row_order(&plan).unwrap_or_else(|e| panic!("{}: {e}", t.name));
            let says_order = t.text.contains("ORDER BY") || t.text.contains(".order()");
            assert_eq!(order == RowOrder::Total, says_order, "{}", t.name);
        }
        for w in WORKLOADS {
            select(&all, &spec(w).unwrap().templates).unwrap();
        }
    }
}
