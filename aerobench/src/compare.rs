//! `--compare <parent.jsonl> <change.jsonl>`: judges a change against its
//! parent from runs recorded with `--record`, by the rule the benchmark's
//! bounds are written for:
//!
//! * runs pair up by position (the i-th parent run with the i-th change
//!   run, which the recorder alternates and gives the same seed), and at
//!   least 10 pairs are needed for any verdict;
//! * a metric improved when the change wins at least 9 of every 10 pairs
//!   (ties count for neither side) and the medians differ by more than the
//!   parent's own interquartile range;
//! * it regressed when the change's median is worse than the parent's by
//!   more than the metric's bound in `BENCHMARK.json`;
//! * it is unresolved when the parent's spread exceeds the bound, unless
//!   every change run beats every parent run; otherwise unchanged.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::stats::quartiles;

/// One recorded untraced run: workload, attempted, failed, metric values.
struct Run {
    workload: String,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn read_runs(path: &Path) -> Result<Vec<Run>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        if v.path("run.trace").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let workload = v
            .path("run.workload")
            .and_then(Value::as_str)
            .ok_or("record without run.workload")?;
        let result = v.get("result").ok_or("record without result")?;
        let metrics = result
            .get("metrics")
            .and_then(Value::as_obj)
            .into_iter()
            .flatten()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.push(Run {
            workload: workload.to_string(),
            attempted: result
                .get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            failed: result.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
            metrics,
        });
    }
    Ok(runs)
}

/// `(name, lower_is_better, bound)` for each end-to-end metric of
/// `BENCHMARK.json` at the root of the checkout.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), lower, bound))
        })
        .collect()
}

/// The verdict for one (workload, metric), with the numbers behind it.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    lower_better: bool,
    bound: f64,
) -> (&'static str, usize, usize) {
    let pairs = parent.len().min(change.len());
    let better = |c: f64, p: f64| if lower_better { c < p } else { c > p };
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let (pq1, pmed, pq3) = quartiles(parent);
    let (_, cmed, _) = quartiles(change);
    let worse_by = if lower_better {
        (cmed - pmed) / pmed
    } else {
        (pmed - cmed) / pmed
    };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if pairs < 10 {
        "unresolved"
    } else if wins * 10 >= pairs * 9 && better(cmed, pmed) && (cmed - pmed).abs() > pq3 - pq1 {
        "improved"
    } else if (pq3 - pq1) / pmed > bound && !all_better {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else {
        "unchanged"
    };
    (verdict, wins, pairs)
}

pub fn run(parent_path: &Path, change_path: &Path) -> Result<i32, String> {
    let parent = read_runs(parent_path)?;
    let change = read_runs(change_path)?;
    let bounds = bounds()?;
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut regressed = false;
    println!(
        "{:<15} {:<20} {:>12} {:>12} {:>12} {:>12} {:>7} {:>6}  verdict",
        "workload", "metric", "parent_q1", "parent_med", "change_med", "change_q3", "wins", "bound"
    );
    for w in workloads {
        let p: Vec<&Run> = parent.iter().filter(|r| r.workload == w).collect();
        let c: Vec<&Run> = change.iter().filter(|r| r.workload == w).collect();
        if c.is_empty() {
            println!("{w:<15} no change runs recorded");
            continue;
        }
        for (name, lower, bound) in &bounds {
            let pv: Vec<f64> = p
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            let cv: Vec<f64> = c
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let (verdict, wins, pairs) = judge(&pv, &cv, *lower, *bound);
            regressed |= verdict == "regressed";
            let (pq1, pmed, _) = quartiles(&pv);
            let (_, cmed, cq3) = quartiles(&cv);
            println!(
                "{w:<15} {name:<20} {pq1:>12.4} {pmed:>12.4} {cmed:>12.4} {cq3:>12.4} {:>7} {bound:>6}  {verdict}",
                format!("{wins}/{pairs}")
            );
        }
        let share = |runs: &[&Run]| {
            let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
            let failed: f64 = runs.iter().map(|r| r.failed).sum();
            failed / attempted
        };
        println!(
            "{w:<15} failed-ops share: parent {:.6}, change {:.6}",
            share(&p),
            share(&c)
        );
    }
    Ok(if regressed { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::judge;

    #[test]
    fn rule_separates_gain_noise_and_regression() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(judge(&parent, &faster, true, 0.1).0, "improved");
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.3).collect();
        assert_eq!(judge(&parent, &slower, true, 0.1).0, "regressed");
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(judge(&parent, &same, true, 0.1).0, "unchanged");
        assert_eq!(judge(&parent[..5], &faster[..5], true, 0.1).0, "unresolved");
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        assert_eq!(judge(&noisy, &noisy, true, 0.1).0, "unresolved");
    }
}
