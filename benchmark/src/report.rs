//! What one run of one workload found: named values, self-checks, and
//! the two renderings — `workload metric value unit` lines for people
//! and the one-line JSON result for the driver.

use crate::catalog::{self, Layer};
use crate::stats::SegmentStat;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
    /// Min and max over the segments, for timings that are medians.
    pub range: Option<(f64, f64)>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    /// `false` for a check of the measurement rather than of the
    /// program: it is printed and stored, but a shared box stalling the
    /// generator does not make the program's outputs wrong.
    pub gates: bool,
    pub detail: String,
}

#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub values: BTreeMap<String, Value>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(
            name.to_string(),
            Value {
                value: finite(value),
                unit,
                range: None,
            },
        );
    }

    pub fn set_stat(&mut self, name: &str, stat: SegmentStat, unit: &'static str) {
        self.values.insert(
            name.to_string(),
            Value {
                value: finite(stat.value),
                unit,
                range: Some((finite(stat.min), finite(stat.max))),
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.value)
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check {
            name,
            ok,
            gates: true,
            detail,
        });
    }

    /// A check that warns instead of failing the run.
    pub fn advise(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check {
            name,
            ok,
            gates: false,
            detail,
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok || !c.gates)
    }

    /// `workload metric value unit [min..max]`, one metric a line, then
    /// the self-checks.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.values {
            let _ = write!(out, "{} {} {} {}", self.workload, name, v.value, v.unit);
            if let Some((lo, hi)) = v.range {
                let _ = write!(out, " [{lo}..{hi}]");
            }
            out.push('\n');
        }
        for c in &self.checks {
            let verdict = match (c.ok, c.gates) {
                (true, _) => "ok",
                (false, true) => "FAILED",
                (false, false) => "WARNING",
            };
            let _ = writeln!(
                out,
                "{} check {} {} ({})",
                self.workload, c.name, verdict, c.detail
            );
        }
        out
    }

    /// The driver's result line: exactly the catalog's end-to-end
    /// metrics for an untraced run, exactly its per-layer metrics for a
    /// traced one. A per-layer metric this workload has no reading for
    /// is 0; a missing end-to-end metric is an error.
    pub fn result_line(&self) -> Result<String, String> {
        let mut metrics = String::new();
        let mut push = |name: &str, unit: &str, value: f64| {
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        };
        if self.traced {
            for Layer { name, unit, .. } in catalog::PER_LAYER {
                push(name, unit, self.get(name).unwrap_or(0.0));
            }
        } else {
            for m in catalog::END_TO_END {
                let value = self
                    .get(m.name)
                    .ok_or_else(|| format!("{} did not measure {}", self.workload, m.name))?;
                if value == 0.0 {
                    return Err(format!("{} measured {} as 0", self.workload, m.name));
                }
                push(m.name, m.unit, value);
            }
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        ))
    }

    /// This run as one JSON object for `results.json`: every value with
    /// its unit and segment range, and every check.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.workload,
            self.seed,
            self.seconds,
            self.traced,
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, v)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"",
                v.value, v.unit
            );
            if let Some((lo, hi)) = v.range {
                let _ = write!(out, ", \"min\": {lo}, \"max\": {hi}");
            }
            out.push('}');
        }
        // An end-to-end metric this platform cannot measure (the /proc
        // inputs off Linux) is present and null, not silently absent.
        for m in catalog::END_TO_END {
            if !self.values.contains_key(m.name) {
                let sep = if self.values.is_empty() { "" } else { ", " };
                let _ = write!(out, "{sep}\"{}\": null", m.name);
            }
        }
        out.push_str("}, \"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ok\": {}, \"gates\": {}, \"detail\": \"{}\"}}",
                c.name,
                c.ok,
                c.gates,
                crate::json::escape(&c.detail)
            );
        }
        out.push_str("]}");
        out
    }
}

/// JSON has no NaN or infinity; a value that is not finite was not
/// measured.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn untraced() -> Report {
        let mut r = Report {
            workload: "reflector_flood".into(),
            attempted: 10,
            ..Report::default()
        };
        for m in catalog::END_TO_END {
            r.set(m.name, 1.5, m.unit);
        }
        r
    }

    #[test]
    fn untraced_result_has_exactly_the_end_to_end_metrics() {
        let mut r = untraced();
        r.set("bench.extra", 3.0, "us");
        let line = r.result_line().unwrap();
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), catalog::END_TO_END.len());
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );
    }

    #[test]
    fn missing_or_zero_end_to_end_metric_is_an_error() {
        let mut r = untraced();
        r.values.remove("rtt_p50_us");
        assert!(r.result_line().is_err());
        let mut r = untraced();
        r.set("rtt_p50_us", 0.0, "us");
        assert!(r.result_line().is_err());
    }

    #[test]
    fn traced_result_has_every_per_layer_metric_and_failed_checks_show() {
        let mut r = Report {
            workload: "paced_rtt".into(),
            traced: true,
            ..Report::default()
        };
        r.set("dns-core.decode_ns", f64::NAN, "ns");
        r.advise("generator_late", false, "stalled".into());
        assert!(r.correct(), "an advisory check does not gate");
        r.check("tokens_once", false, "2 \"lost\"".into());
        let v = json::parse(&r.result_line().unwrap()).unwrap();
        assert_eq!(
            v.get("metrics").unwrap().as_object().unwrap().len(),
            catalog::PER_LAYER.len()
        );
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(1.0));
        let stored = json::parse(&r.to_json()).unwrap();
        assert_eq!(
            stored.get("metrics").unwrap().get("peak_rss_mb"),
            Some(&json::Json::Null),
            "an unmeasured end-to-end metric is stored as null"
        );
        assert!(r.render_lines().contains("check tokens_once FAILED"));
        assert!(r.render_lines().contains("check generator_late WARNING"));
    }
}
