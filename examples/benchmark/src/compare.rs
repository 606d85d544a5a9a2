//! `compare PARENT.jsonl CHANGE.jsonl`: the paired before/after rule.
//!
//! Each file holds the result lines a series of runs appended with
//! `--json` (one workload per line). Runs pair up in file order per
//! workload — run them alternating, parent first then change first — and at
//! least ten pairs are needed. Per workload and end-to-end metric:
//!
//! * **gain** — the change wins at least nine tenths of the pairs (ties
//!   count for neither) and the medians differ by more than the parent's
//!   interquartile range;
//! * **regression** — the change's median is worse than the parent's by
//!   more than the metric's bound;
//! * **unresolved** — neither, and either side's spread (IQR over median)
//!   exceeds the bound, unless every change run beats every parent run;
//! * **no change** — otherwise.
//!
//! A gain is reported as unresolved when the change's runs failed more
//! requests than the parent's.

use std::collections::BTreeMap;

use fgcs::runtime::json::Json;

use crate::catalog::{Better, MetricDef, END_TO_END};
use crate::stats::{median, quartiles};

/// Minimum pairs per workload.
pub const MIN_PAIRS: usize = 10;

/// One run: its failed-request count and metric values.
struct Run {
    failed: u64,
    values: BTreeMap<String, f64>,
}

/// Runs per workload, in file order.
type Runs = BTreeMap<String, Vec<Run>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let field_err = |e: fgcs::runtime::json::JsonError| format!("{path}:{}: {e}", i + 1);
        let workload: String = doc.get("workload").map_err(field_err)?;
        let failed: u64 = doc.get("failed").map_err(field_err)?;
        let Ok(Json::Obj(metrics)) = doc.field("metrics") else {
            return Err(format!("{path}:{}: no metrics object", i + 1));
        };
        let values = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.field("value").ok()?.as_f64()?)))
            .collect();
        runs.entry(workload)
            .or_default()
            .push(Run { failed, values });
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Regression,
    Unresolved,
    NoChange,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::NoChange => "no change",
        }
    }
}

/// `a` is better than `b` under the metric's direction.
fn better(def: &MetricDef, a: f64, b: f64) -> bool {
    match def.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Applies the rule to paired runs `parent[i]`, `change[i]`; returns the
/// verdict and the change's win count.
pub fn judge(def: &MetricDef, parent: &[f64], change: &[f64]) -> (Verdict, usize) {
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better(def, **c, **p))
        .count();
    let (pm, cm) = (median(parent), median(change));
    let [p1, _, p3] = quartiles(parent);
    let [c1, _, c3] = quartiles(change);
    let bound = def.bound.unwrap_or(0.0);
    let worse_by = match def.better {
        Better::Lower => (cm - pm) / pm,
        Better::Higher => (pm - cm) / pm,
    };
    let verdict =
        if 10 * wins >= 9 * parent.len() && better(def, cm, pm) && (cm - pm).abs() > p3 - p1 {
            Verdict::Gain
        } else if worse_by > bound {
            Verdict::Regression
        } else if ((p3 - p1) / pm.abs() > bound || (c3 - c1) / cm.abs() > bound)
            && !change
                .iter()
                .all(|&c| parent.iter().all(|&p| better(def, c, p)))
        {
            Verdict::Unresolved
        } else {
            Verdict::NoChange
        };
    (verdict, wins)
}

pub fn compare(parent_path: &str, change_path: &str) -> Result<String, String> {
    let parent = load(parent_path)?;
    let change = load(change_path)?;
    let mut out = String::from(
        "workload metric unit better parent_median [q1 q3] change_median [q1 q3] wins/pairs verdict\n",
    );
    for (workload, p_runs) in &parent {
        let c_runs = change
            .get(workload)
            .ok_or_else(|| format!("{change_path} has no runs of {workload}"))?;
        let pairs = p_runs.len().min(c_runs.len());
        if pairs < MIN_PAIRS {
            return Err(format!(
                "{workload}: {pairs} pairs, need at least {MIN_PAIRS}"
            ));
        }
        // A gain does not count when the change fails more requests.
        let failed = |runs: &[Run]| runs[..pairs].iter().map(|r| r.failed).sum::<u64>();
        let more_failures = failed(c_runs) > failed(p_runs);
        for def in END_TO_END {
            let column = |runs: &[Run]| -> Result<Vec<f64>, String> {
                runs[..pairs]
                    .iter()
                    .map(|r| {
                        r.values
                            .get(def.name)
                            .copied()
                            .ok_or_else(|| format!("{workload}: a run lacks {}", def.name))
                    })
                    .collect()
            };
            let (p, c) = (column(p_runs)?, column(c_runs)?);
            let (mut verdict, wins) = judge(def, &p, &c);
            if verdict == Verdict::Gain && more_failures {
                verdict = Verdict::Unresolved;
            }
            let [p1, _, p3] = quartiles(&p);
            let [c1, _, c3] = quartiles(&c);
            out.push_str(&format!(
                "{workload} {} {} {} {:.4} [{p1:.4} {p3:.4}] {:.4} [{c1:.4} {c3:.4}] {wins}/{pairs} {}\n",
                def.name,
                def.unit,
                def.better.label(),
                median(&p),
                median(&c),
                verdict.label()
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END
            .iter()
            .find(|d| d.name == name)
            .expect("catalog metric")
    }

    #[test]
    fn nine_of_ten_wins_beyond_the_parent_iqr_is_a_gain() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let mut change: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        change[3] = 200.0; // one loss
        assert_eq!(
            judge(def("server_cpu_us"), &parent, &change),
            (Verdict::Gain, 9)
        );
    }

    #[test]
    fn a_median_past_the_bound_is_a_regression() {
        let cpu = def("server_cpu_us");
        let parent = vec![100.0; 10];
        let change = vec![100.0 * (1.0 + cpu.bound.expect("bound") + 0.05); 10];
        assert_eq!(judge(cpu, &parent, &change).0, Verdict::Regression);
        // Higher-is-better metrics regress downwards.
        let ops = MetricDef {
            name: "ops",
            unit: "ops/s",
            better: Better::Higher,
            bound: Some(0.1),
        };
        assert_eq!(
            judge(&ops, &[1000.0; 10], &[850.0; 10]).0,
            Verdict::Regression
        );
        assert_eq!(
            judge(&ops, &[1000.0; 10], &[950.0; 10]).0,
            Verdict::NoChange
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 70.0 } else { 130.0 })
            .collect();
        let change: Vec<f64> = parent.iter().rev().copied().collect();
        let cpu = def("server_cpu_us");
        assert_eq!(judge(cpu, &parent, &change).0, Verdict::Unresolved);
        let steady = vec![100.0; 10];
        assert_eq!(judge(cpu, &steady, &steady).0, Verdict::NoChange);
    }
}
