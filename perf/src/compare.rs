//! `perf compare a.json b.json`: do two result files agree?
//!
//! A result file holds one entry per (workload, traced or not, repeat). For
//! every metric the two sides' medians and quartiles over the repeats are
//! printed with the ratio b/a. The command fails when an end-to-end metric of
//! `b` is worse than `a`'s by more than its bound, when an exact counter, a
//! result hash or the graph differs, or when `b` failed more operations.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::workload::WORKLOADS;
use std::fmt::Write;

/// The entries of one (workload, traced) pair.
fn entries<'a>(file: &'a Json, workload: &str, trace: bool) -> Vec<&'a Json> {
    let runs = file.get("runs").map(Json::as_arr).unwrap_or(&[]);
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_bool) == Some(trace))
        .collect()
}

fn metric_values(entries: &[&Json], name: &str) -> Vec<f64> {
    entries
        .iter()
        .filter_map(|r| {
            r.get("report")?
                .get("metrics")?
                .get(name)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn total(entries: &[&Json], field: &str) -> f64 {
    entries
        .iter()
        .filter_map(|r| r.get("report")?.get(field)?.as_f64())
        .sum()
}

struct Side {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let (q1, q3) = quartiles(values);
        Side {
            median: median(values),
            q1,
            q3,
        }
    }

    /// Distance between the quartiles as a share of the median.
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// By what share of `a` is `b` worse (negative: better)?
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The comparison table and whether `b` passes against `a`.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    let mut fail = |out: &mut String, why: String| {
        writeln!(out, "FAIL  {why}").expect("write to String");
        pass = false;
    };
    writeln!(
        out,
        "{:<12} {:<27} {:>6}  {:>12} {:>25}  {:>12} {:>25}  {:>9}  verdict",
        "workload", "metric", "unit", "a median", "a quartiles", "b median", "b quartiles", "b/a"
    )
    .expect("write to String");
    for workload in WORKLOADS {
        for trace in [false, true] {
            let (ea, eb) = (entries(a, workload, trace), entries(b, workload, trace));
            if ea.is_empty() && eb.is_empty() {
                continue;
            }
            if ea.is_empty() != eb.is_empty() {
                fail(
                    &mut out,
                    format!("{workload} (trace {trace}) is in one file only"),
                );
                continue;
            }
            let table: Vec<(&str, &str, Better, Option<f64>, bool)> = match trace {
                false => END_TO_END
                    .iter()
                    .map(|m| (m.name, m.unit, m.better, Some(m.bound), false))
                    .collect(),
                true => PER_LAYER
                    .iter()
                    .map(|m| (m.name, m.unit, m.better, None, m.exact))
                    .collect(),
            };
            for (name, unit, better, bound, exact) in table {
                let (va, vb) = (metric_values(&ea, name), metric_values(&eb, name));
                if va.is_empty() || vb.is_empty() {
                    fail(&mut out, format!("{workload} {name}: missing"));
                    continue;
                }
                let (sa, sb) = (Side::of(&va), Side::of(&vb));
                let worse = worse_by(sa.median, sb.median, better);
                let verdict = match (bound, exact) {
                    (_, true) if va.iter().chain(&vb).any(|v| *v != va[0]) => "CHANGED",
                    (_, true) => "identical",
                    (Some(bound), _) if worse > bound => "REGRESSED",
                    (Some(bound), _) if sa.spread() > bound || sb.spread() > bound => "unresolved",
                    (Some(_), _) => "within bound",
                    (None, _) => "",
                };
                let ratio = match sa.median == 0.0 {
                    true => "-".to_string(),
                    false => format!("{:.4}", sb.median / sa.median),
                };
                writeln!(
                    out,
                    "{:<12} {:<27} {:>6}  {:>12.4} {:>25}  {:>12.4} {:>25}  {:>9}  {}",
                    workload,
                    name,
                    unit,
                    sa.median,
                    format!("[{:.4} .. {:.4}]", sa.q1, sa.q3),
                    sb.median,
                    format!("[{:.4} .. {:.4}]", sb.q1, sb.q3),
                    ratio,
                    verdict
                )
                .expect("write to String");
                if verdict == "CHANGED" || verdict == "REGRESSED" {
                    let limit = bound.map_or(String::new(), |b| format!(" (bound {b})"));
                    fail(&mut out, format!("{workload} {name}: {verdict}{limit}"));
                }
            }
            // counts that repeat exactly for a seed, in every entry of both files
            for field in ["graph", "counters", "row_hashes"] {
                let first = ea[0].get(field);
                if ea.iter().chain(&eb).any(|r| r.get(field) != first) {
                    fail(
                        &mut out,
                        format!("{workload} (trace {trace}): `{field}` differs"),
                    );
                }
            }
            let rate = |e: &[&Json]| total(e, "failed") / total(e, "attempted").max(1.0);
            if rate(&eb) > rate(&ea) {
                fail(
                    &mut out,
                    format!(
                        "{workload} (trace {trace}): error rate rose from {} to {}",
                        rate(&ea),
                        rate(&eb)
                    ),
                );
            }
        }
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(qps: &[f64], hash: &str, failed: f64) -> Json {
        let runs = qps.iter().map(|q| {
            let metrics = END_TO_END.iter().map(|m| {
                let value = if m.name == "throughput_qps" { *q } else { 1.0 };
                (
                    m.name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
                )
            });
            Json::obj([
                ("workload", Json::str("bi_p1")),
                ("trace", Json::Bool(false)),
                (
                    "report",
                    Json::obj([
                        ("attempted", Json::Num(100.0)),
                        ("failed", Json::Num(failed)),
                        ("metrics", Json::obj(metrics)),
                    ]),
                ),
                ("row_hashes", Json::obj([("BI1", Json::str(hash))])),
            ])
        });
        Json::obj([("runs", Json::Arr(runs.collect()))])
    }

    #[test]
    fn same_numbers_pass_and_a_slowdown_beyond_the_bound_fails() {
        let a = file(&[100.0, 101.0, 99.0], "aa", 0.0);
        assert!(compare(&a, &a).1);
        let slower = file(&[80.0, 81.0, 79.0], "aa", 0.0);
        let (table, pass) = compare(&a, &slower);
        assert!(!pass && table.contains("REGRESSED"), "{table}");
        // faster is not a regression
        assert!(compare(&slower, &a).1);
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_unchanged() {
        let a = file(&[100.0, 140.0, 60.0], "aa", 0.0);
        let (table, pass) = compare(&a, &a);
        assert!(pass && table.contains("unresolved"), "{table}");
    }

    #[test]
    fn a_hash_change_or_more_failures_fail() {
        let a = file(&[100.0], "aa", 0.0);
        assert!(!compare(&a, &file(&[100.0], "bb", 0.0)).1);
        assert!(!compare(&a, &file(&[100.0], "aa", 1.0)).1);
    }
}
