//! Order statistics and the result line.

use std::fmt::Write as _;

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks (Python's `statistics.quantiles(..., method="inclusive")`).
/// `0.0` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one trial measured; a run reports each metric's median over
/// its trials.
#[derive(Debug, Default)]
pub struct Trial {
    pub metrics: Vec<Metric>,
}

impl Trial {
    /// Record `<kind>_p50_ms` and `<kind>_p90_ms` of `ms`.
    pub fn latencies(&mut self, kind: &str, ms: &[f64]) {
        self.metric(&format!("{kind}_p50_ms"), quantile(ms, 0.5), "ms");
        self.metric(&format!("{kind}_p90_ms"), quantile(ms, 0.9), "ms");
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }
}

/// Each metric's median over `trials`, in first-trial order.
pub fn medians(trials: &[Trial]) -> Vec<Metric> {
    let Some(first) = trials.first() else {
        return Vec::new();
    };
    first
        .metrics
        .iter()
        .map(|m| {
            let values: Vec<f64> = trials
                .iter()
                .filter_map(|t| t.metrics.iter().find(|x| x.name == m.name))
                .map(|x| x.value)
                .collect();
            Metric {
                name: m.name.clone(),
                value: median(&values),
                unit: m.unit,
            }
        })
        .collect()
}

/// What one run reports: the operation accounting and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase (and the output checks
    /// after it).
    pub attempted: u64,
    /// Operations that failed or whose output did not check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Input facts and derived diagnostics, printed as one JSON line
    /// before the result.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// Record an input fact or diagnostic (numbers are rendered as JSON
    /// numbers, everything else as strings).
    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.push((name.to_owned(), value.to_string()));
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// The facts line.
    pub fn facts_json(&self) -> String {
        let mut out = String::from("{\"facts\": {");
        for (i, (k, v)) in self.facts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if v.parse::<f64>().is_ok_and(f64::is_finite) {
                v.clone()
            } else {
                format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""))
            };
            let _ = write!(out, "\"{k}\": {value}");
        }
        out.push_str("}}");
        out
    }

    /// The result line: the last line the benchmark prints.
    pub fn result_json(&self) -> String {
        let correct = self.failed == 0 && self.attempted > 0;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // A non-finite value cannot be a JSON number; it also means
            // the metric was not measured, which the check count reports.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn trials_combine_by_median() {
        let trials: Vec<Trial> = [3.0, 1.0, 2.0]
            .iter()
            .map(|&v| {
                let mut t = Trial::default();
                t.metric("x", v, "s");
                t
            })
            .collect();
        let m = medians(&trials);
        assert_eq!((m[0].name.as_str(), m[0].value), ("x", 2.0));
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.metrics.push(Metric {
            name: "setup_s".into(),
            value: 0.5,
            unit: "s",
        });
        let line = o.result_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
