//! `cde-benchmark compare A.json B.json`: B held against A, one row per
//! workload and end-to-end metric, against that metric's bound. The A/A
//! acceptance check and every later performance change use this.

use crate::catalog::{self, Better, Bound};
use crate::json::Json;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The spread between a run's own segments is wider than the bound:
    /// the difference can be neither confirmed nor ruled out.
    Unresolved,
    Breach,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Breach => "BREACH",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub base: f64,
    pub other: f64,
    /// How much worse `other` is, in the bound's own terms (a share of
    /// `base`, or an absolute difference); negative when it is better.
    pub worse_by: f64,
    pub bound: Bound,
    /// Widest min-to-max range over a run's segments, as a share of the
    /// median, over both files. `None` for values that are not medians.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

struct Reading {
    value: f64,
    spread: Option<f64>,
}

fn reading(run: &Json, metric: &str) -> Option<Reading> {
    let m = run.get("metrics")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let spread = match (
        m.get("min").and_then(Json::as_f64),
        m.get("max").and_then(Json::as_f64),
    ) {
        (Some(lo), Some(hi)) if value != 0.0 => Some((hi - lo) / value.abs()),
        _ => None,
    };
    Some(Reading { value, spread })
}

/// End-to-end metrics always come from the untraced run.
fn is_untraced_run_of(run: &Json, workload: &str) -> bool {
    run.get("workload").and_then(Json::as_str) == Some(workload)
        && run.get("traced").and_then(Json::as_bool) == Some(false)
}

fn untraced_run<'a>(results: &'a Json, workload: &str) -> Option<&'a Json> {
    let runs = results.get("runs")?.as_array()?;
    runs.iter().find(|run| is_untraced_run_of(run, workload))
}

fn judge(better: Better, bound: Bound, base: &Reading, other: &Reading) -> (f64, Verdict) {
    let worse = match better {
        Better::Lower => other.value - base.value,
        Better::Higher => base.value - other.value,
    };
    let (worse_by, limit) = match bound {
        Bound::Relative(share) => (
            if base.value == 0.0 {
                0.0
            } else {
                worse / base.value.abs()
            },
            share,
        ),
        Bound::Absolute(limit) => (worse, limit),
    };
    let spread = base.spread.unwrap_or(0.0).max(other.spread.unwrap_or(0.0));
    let verdict = match bound {
        Bound::Relative(share) if spread > share => Verdict::Unresolved,
        _ if worse_by > limit => Verdict::Breach,
        _ => Verdict::Ok,
    };
    (worse_by, verdict)
}

/// Every row both files have a reading for, in catalog order.
pub fn compare(base: &Json, other: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in catalog::WORKLOADS {
        let (Some(a), Some(b)) = (untraced_run(base, w.name), untraced_run(other, w.name)) else {
            continue;
        };
        let universal = catalog::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better, Bound::Relative(m.bound)));
        let specific = catalog::SPECIFIC
            .iter()
            .filter(|m| m.workloads.contains(&w.name))
            .map(|m| (m.name, m.unit, m.better, m.bound));
        for (metric, unit, better, bound) in universal.chain(specific) {
            let (Some(ra), Some(rb)) = (reading(a, metric), reading(b, metric)) else {
                continue;
            };
            let (worse_by, verdict) = judge(better, bound, &ra, &rb);
            rows.push(Row {
                workload: w.name.to_string(),
                metric,
                unit,
                base: ra.value,
                other: rb.value,
                worse_by,
                bound,
                spread: match (ra.spread, rb.spread) {
                    (None, None) => None,
                    (x, y) => Some(x.unwrap_or(0.0).max(y.unwrap_or(0.0))),
                },
                verdict,
            });
        }
    }
    rows
}

/// One row of the steadiness check: a metric's values over several runs
/// of one workload (one seed each), and the distance between their
/// first and third quartile as a share of their median.
#[derive(Debug, Clone, PartialEq)]
pub struct SpreadRow {
    pub workload: String,
    pub metric: &'static str,
    pub runs: usize,
    pub median: f64,
    pub spread: f64,
    pub bound: f64,
}

/// Quartile spread of every `BENCHMARK.json` end-to-end metric over
/// `runs` (single-run files as `--json-out` writes them), per workload:
/// the check the driver makes before it accepts the benchmark.
pub fn spreads(runs: &[Json]) -> Vec<SpreadRow> {
    let mut rows = Vec::new();
    for w in catalog::WORKLOADS {
        let of_workload: Vec<&Json> = runs
            .iter()
            .filter(|r| is_untraced_run_of(r, w.name))
            .collect();
        for m in catalog::END_TO_END {
            let values: Vec<f64> = of_workload
                .iter()
                .filter_map(|r| reading(r, m.name).map(|x| x.value))
                .collect();
            if let Some(spread) = stats::quartile_spread(&values) {
                rows.push(SpreadRow {
                    workload: w.name.to_string(),
                    metric: m.name,
                    runs: values.len(),
                    median: stats::median(&values),
                    spread,
                    bound: m.bound,
                });
            }
        }
    }
    rows
}

pub fn render_spreads(rows: &[SpreadRow]) -> String {
    let mut out = format!(
        "{:<19} {:<24} {:>5} {:>14} {:>8} {:>7}  verdict\n",
        "workload", "metric", "runs", "median", "spread", "bound"
    );
    for r in rows {
        let verdict = if r.spread > r.bound {
            "TOO WIDE"
        } else if r.spread > r.bound / 3.0 {
            "ok (over a third of the bound)"
        } else {
            "ok"
        };
        out.push_str(&format!(
            "{:<19} {:<24} {:>5} {:>14.4} {:>7.2}% {:>6.1}%  {verdict}\n",
            r.workload,
            r.metric,
            r.runs,
            r.median,
            r.spread * 100.0,
            r.bound * 100.0
        ));
    }
    out
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<19} {:<24} {:>14} {:>14} {:>10} {:>9} {:>8}  verdict\n",
        "workload", "metric", "A", "B", "worse by", "bound", "spread"
    );
    for r in rows {
        let (worse, bound) = match r.bound {
            Bound::Relative(share) => (
                format!("{:+.2}%", r.worse_by * 100.0),
                format!("{:.1}%", share * 100.0),
            ),
            Bound::Absolute(limit) => (format!("{:+.4}", r.worse_by), format!("{limit} abs")),
        };
        let spread = r
            .spread
            .map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
        out.push_str(&format!(
            "{:<19} {:<24} {:>14.4} {:>14.4} {:>10} {:>9} {:>8}  {} ({})\n",
            r.workload,
            r.metric,
            r.base,
            r.other,
            worse,
            bound,
            spread,
            r.verdict.as_str(),
            r.unit,
        ));
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    out.push_str(&format!(
        "{} rows: {} ok, {} unresolved, {} breach\n",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Breach)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn results(pps: f64, pps_range: (f64, f64), failed_share: f64) -> Json {
        parse(&format!(
            r#"{{"seed": 12, "runs": [
                {{"workload": "reflector_flood", "traced": true, "metrics": {{"probes_per_s": {{"value": 1, "unit": "1/s"}}}}}},
                {{"workload": "reflector_flood", "traced": false, "metrics": {{
                    "probes_per_s": {{"value": {pps}, "unit": "1/s", "min": {}, "max": {}}},
                    "peak_rss_mb": {{"value": 20.0, "unit": "MB"}},
                    "failed_share": {{"value": {failed_share}, "unit": "ratio"}}}}}}]}}"#,
            pps_range.0, pps_range.1
        ))
        .unwrap()
    }

    fn row<'a>(rows: &'a [Row], metric: &str) -> &'a Row {
        rows.iter().find(|r| r.metric == metric).unwrap()
    }

    #[test]
    fn identical_runs_pass_and_only_untraced_runs_are_read() {
        let a = results(200_000.0, (198_000.0, 203_000.0), 0.0);
        let rows = compare(&a, &a);
        assert_eq!(rows.len(), 3);
        assert!(rows
            .iter()
            .all(|r| r.verdict == Verdict::Ok && r.worse_by == 0.0));
        assert_eq!(row(&rows, "probes_per_s").base, 200_000.0);
        assert_eq!(row(&rows, "peak_rss_mb").spread, None);
    }

    #[test]
    fn direction_and_bound_decide_a_breach() {
        let a = results(200_000.0, (198_000.0, 203_000.0), 0.0);
        let slower = results(140_000.0, (138_000.0, 142_000.0), 0.0);
        let r = compare(&a, &slower);
        let pps = row(&r, "probes_per_s");
        assert_eq!(pps.verdict, Verdict::Breach);
        assert!((pps.worse_by - 0.30).abs() < 1e-9);
        // The same distance the other way is an improvement.
        let r = compare(&slower, &a);
        assert_eq!(row(&r, "probes_per_s").verdict, Verdict::Ok);
        assert!(row(&r, "probes_per_s").worse_by < 0.0);
        assert!(render(&r).contains("0 breach"));
    }

    #[test]
    fn noisy_segments_make_a_row_unresolved_not_ok() {
        let a = results(200_000.0, (198_000.0, 203_000.0), 0.0);
        let noisy = results(140_000.0, (110_000.0, 190_000.0), 0.0);
        assert_eq!(
            row(&compare(&a, &noisy), "probes_per_s").verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn spread_is_the_quartile_distance_over_runs() {
        let run = |pps: f64| {
            parse(&format!(
                r#"{{"workload": "paced_rtt", "traced": false, "metrics": {{
                    "probes_per_s": {{"value": {pps}, "unit": "1/s"}},
                    "failed_share": {{"value": 0, "unit": "ratio"}}}}}}"#
            ))
            .unwrap()
        };
        let runs: Vec<Json> = (1..=10).map(|i| run(f64::from(i))).collect();
        let rows = spreads(&runs);
        assert_eq!(
            rows.len(),
            1,
            "workload-specific and unmeasured metrics have no row"
        );
        assert_eq!((rows[0].metric, rows[0].runs), ("probes_per_s", 10));
        assert!((rows[0].spread - 1.0).abs() < 1e-12);
        assert!(render_spreads(&rows).contains("TOO WIDE"));
        assert!(spreads(&runs[..1]).is_empty(), "one run has no spread");
    }

    #[test]
    fn absolute_bound_applies_to_failed_share() {
        let a = results(200_000.0, (198_000.0, 203_000.0), 0.0);
        let failing = results(200_000.0, (198_000.0, 203_000.0), 0.002);
        let barely = results(200_000.0, (198_000.0, 203_000.0), 0.0005);
        assert_eq!(
            row(&compare(&a, &failing), "failed_share").verdict,
            Verdict::Breach
        );
        assert_eq!(
            row(&compare(&a, &barely), "failed_share").verdict,
            Verdict::Ok
        );
    }
}
