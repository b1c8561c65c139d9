//! `--compare A.json B.json`: is B worse than A beyond the benchmark's
//! bounds?
//!
//! One row per (end-to-end metric, workload) — never a combined score —
//! with both medians, the ratio and its base, and a verdict:
//!
//! * `worse` — B's median is worse than A's by more than the bound (for
//!   `failed_share`: any increase);
//! * `unresolved` — not worse, but the spread between rounds on either
//!   side (quartile distance over median) exceeds the bound, so "no
//!   change" cannot be claimed;
//! * `ok` — otherwise.

use serde_json::Value;

use crate::report::{END_TO_END, SCHEMA};
use crate::stats::{median, quartile_spread};

/// The verdict on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the rounds are steady enough to say so.
    Ok,
    /// Beyond the bound.
    Worse,
    /// Within the bound, but the rounds spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared (metric, workload) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name.
    pub metric: String,
    /// Workload name (`-` for the global `setup_s`).
    pub workload: String,
    /// A's value (the base of the ratio).
    pub base: f64,
    /// B's value.
    pub new: f64,
    /// Unit.
    pub unit: String,
    /// The verdict.
    pub verdict: Verdict,
}

fn rounds_of(metric: &Value) -> Vec<f64> {
    metric
        .get("rounds")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn judge(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let (a, b) = (median(base), median(new));
    let worse = if higher_is_better { b < a * (1.0 - bound) } else { b > a * (1.0 + bound) };
    let verdict = if worse {
        Verdict::Worse
    } else if quartile_spread(base) > bound || quartile_spread(new) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (a, b, verdict)
}

/// Compare two parsed result files. Errors name what is missing.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    for (side, v) in [("A", a), ("B", b)] {
        if v.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("{side} is not a {SCHEMA} result file"));
        }
    }
    let workloads = |v: &Value| match v.get("workloads") {
        Some(Value::Object(fields)) => Ok(fields.clone()),
        _ => Err("result file has no `workloads` object".to_string()),
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (name, in_a) in &wa {
        let Some((_, in_b)) = wb.iter().find(|(n, _)| n == name) else {
            return Err(format!("workload `{name}` is in A but not in B"));
        };
        for m in END_TO_END.iter().filter(|m| m.name != "setup_s") {
            let pick = |w: &Value| {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .map(rounds_of)
                    .filter(|r| !r.is_empty())
                    .ok_or_else(|| format!("`{name}` lacks rounds for `{}`", m.name))
            };
            let (base, new, verdict) =
                judge(&pick(in_a)?, &pick(in_b)?, m.higher_is_better, m.bound);
            rows.push(Row {
                metric: m.name.to_string(),
                workload: name.clone(),
                base,
                new,
                unit: m.unit.to_string(),
                verdict,
            });
        }
        let share = |w: &Value| {
            let count = |k: &str| w.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            count("failed") / count("attempted").max(1.0)
        };
        let (base, new) = (share(in_a), share(in_b));
        rows.push(Row {
            metric: "failed_share".to_string(),
            workload: name.clone(),
            base,
            new,
            unit: "ratio".to_string(),
            verdict: if new > base { Verdict::Worse } else { Verdict::Ok },
        });
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is catalogued");
    let pick = |v: &Value| {
        v.get("setup_s")
            .map(rounds_of)
            .filter(|r| !r.is_empty())
            .ok_or_else(|| "result file has no `setup_s` rounds".to_string())
    };
    let (base, new, verdict) = judge(&pick(a)?, &pick(b)?, false, setup.bound);
    rows.push(Row {
        metric: "setup_s".to_string(),
        workload: "-".to_string(),
        base,
        new,
        unit: "s".to_string(),
        verdict,
    });
    Ok(rows)
}

/// Render the rows; every ratio is printed with its base.
pub fn table(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{:<16} {:<17} {:>14} {:>14}  {:<28} verdict\n",
        "metric", "workload", "A (base)", "B", "B/A"
    );
    for r in rows {
        let ratio = if r.base != 0.0 {
            format!("{:.3}x of {:.4} {}", r.new / r.base, r.base, r.unit)
        } else {
            format!("{:+.6} {} from 0", r.new, r.unit)
        };
        let _ = writeln!(
            out,
            "{:<16} {:<17} {:>14.4} {:>14.4}  {:<28} {}",
            r.metric,
            r.workload,
            r.base,
            r.new,
            ratio,
            r.verdict.word()
        );
    }
    out
}

/// Whether any row is `worse` (the process then exits non-zero).
pub fn any_worse(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result file with one workload whose three metrics all have the
    /// given rounds scaled by `speed` (throughput × speed, times ÷ speed).
    fn fixture(speed: f64, failed: u64, jitter: f64) -> Value {
        let rounds = |base: f64| {
            let r: Vec<String> = [1.0, 1.0 + jitter, 1.0 - jitter, 1.0, 1.0 + jitter, 1.0 - jitter]
                .iter()
                .map(|k| format!("{:?}", base * k))
                .collect();
            format!("{{\"unit\":\"x\",\"rounds\":[{}]}}", r.join(","))
        };
        let text = format!(
            "{{\"schema\":\"{SCHEMA}\",\"setup_s\":{},\"workloads\":{{\"tiny_closed\":{{\
             \"attempted\":10000,\"failed\":{failed},\"end_to_end\":{{\
             \"throughput_rps\":{},\"rtt_p50_us\":{},\"cpu_us_per_req\":{}}}}}}}}}",
            rounds(0.05),
            rounds(4500.0 * speed),
            rounds(425.0 / speed),
            rounds(180.0 / speed),
        );
        serde_json::from_str(&text).expect("fixture parses")
    }

    fn verdicts(rows: &[Row]) -> Vec<(&str, Verdict)> {
        rows.iter().map(|r| (r.metric.as_str(), r.verdict)).collect()
    }

    #[test]
    fn identical_steady_runs_are_ok_on_every_row() {
        let rows = compare(&fixture(1.0, 0, 0.01), &fixture(1.0, 0, 0.01)).unwrap();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok), "{rows:?}");
        assert!(!any_worse(&rows));
    }

    #[test]
    fn a_planted_15_percent_slowdown_is_worse_under_a_10_percent_bound() {
        let steady = |k: f64| [k, k * 1.01, k * 0.99, k, k * 1.01, k * 0.99];
        let (base, new, verdict) = judge(&steady(1000.0), &steady(850.0), true, 0.10);
        assert_eq!((base, new, verdict), (1000.0, 850.0, Verdict::Worse));
        assert_eq!(judge(&steady(400.0), &steady(400.0 / 0.85), false, 0.10).2, Verdict::Worse);
        // Inside the bound, or better, is not a regression.
        assert_eq!(judge(&steady(1000.0), &steady(950.0), true, 0.10).2, Verdict::Ok);
        assert_eq!(judge(&steady(850.0), &steady(1000.0), true, 0.10).2, Verdict::Ok);
    }

    #[test]
    fn a_planted_slowdown_beyond_the_catalogued_bounds_is_worse_on_the_timed_metrics() {
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        let slow = 1.0 - (widest + 0.05);
        let rows = compare(&fixture(1.0, 0, 0.01), &fixture(slow, 0, 0.01)).unwrap();
        assert_eq!(
            verdicts(&rows),
            [
                ("throughput_rps", Verdict::Worse),
                ("rtt_p50_us", Verdict::Worse),
                ("cpu_us_per_req", Verdict::Worse),
                ("failed_share", Verdict::Ok),
                ("setup_s", Verdict::Ok),
            ]
        );
        assert!(any_worse(&rows));
        // The other direction is an improvement, not a regression.
        assert!(!any_worse(&compare(&fixture(slow, 0, 0.01), &fixture(1.0, 0, 0.01)).unwrap()));
        assert!(table(&rows).contains(&format!("{slow:.3}x of 4500.0000 req/s")));
    }

    #[test]
    fn a_planted_failure_increase_is_worse_whatever_the_speed() {
        let rows = compare(&fixture(1.0, 0, 0.01), &fixture(1.2, 3, 0.01)).unwrap();
        let failed = rows.iter().find(|r| r.metric == "failed_share").unwrap();
        assert_eq!(failed.verdict, Verdict::Worse);
        assert!(any_worse(&rows));
    }

    #[test]
    fn a_wide_round_spread_is_unresolved_not_ok() {
        let rows = compare(&fixture(1.0, 0, 0.01), &fixture(1.0, 0, 0.3)).unwrap();
        assert!(rows
            .iter()
            .filter(|r| r.metric != "failed_share")
            .all(|r| { r.verdict == Verdict::Unresolved }));
        assert!(!any_worse(&rows));
    }

    #[test]
    fn foreign_or_mismatched_files_are_errors() {
        let not_ours: Value = serde_json::from_str("{\"schema\":\"other\"}").unwrap();
        assert!(compare(&not_ours, &fixture(1.0, 0, 0.0)).is_err());
        let other: Value = serde_json::from_str(&format!(
            "{{\"schema\":\"{SCHEMA}\",\"setup_s\":{{\"rounds\":[1.0]}},\"workloads\":{{}}}}"
        ))
        .unwrap();
        assert!(compare(&fixture(1.0, 0, 0.0), &other).unwrap_err().contains("not in B"));
    }
}
