//! Metric bookkeeping and the result line.

use std::fmt::Write as _;

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// The percentile `_tail` metrics report for a workload of `samples`
/// operations: the highest multiple of 5 with at least ten samples
/// beyond it (at least the median). Taken from the attempted count, so
/// it is fixed per workload.
pub fn tail_percentile(samples: usize) -> f64 {
    (10..=19)
        .rev()
        .map(|k| f64::from(k) * 5.0)
        .find(|q| samples as f64 * (1.0 - q / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// The end-to-end metrics every untraced run reports, with their units
/// and directions (mirrors `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str, Better); 13] = [
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mib", "MiB", Better::Lower),
    ("rounds_per_s", "1/s", Better::Higher),
    ("updates_per_s", "1/s", Better::Higher),
    ("update_rounds_p50", "rounds", Better::Lower),
    ("update_rounds_tail", "rounds", Better::Lower),
    ("update_ms_p50", "ms", Better::Lower),
    ("update_ms_tail", "ms", Better::Lower),
    ("converged_share", "share", Better::Higher),
    ("msgs_per_update", "count", Better::Lower),
    ("bytes_per_update", "B", Better::Lower),
    ("msgs_per_online_peer", "count", Better::Lower),
    ("aware_online_fraction", "share", Better::Higher),
];

/// Records the end-to-end metrics, `values` in [`END_TO_END`] order.
pub fn emit_end_to_end(out: &mut Outcome, values: [f64; END_TO_END.len()]) {
    for ((name, unit, _), value) in END_TO_END.iter().zip(values) {
        out.metric(*name, value, unit);
    }
}

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// A run's outcome: the metrics plus the operation and correctness
/// tallies the result line carries.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Operations (updates or replications) attempted.
    pub attempted: u64,
    /// Operations that failed (did not converge within the cap).
    pub failed: u64,
    /// Correctness-check failures, one line each.
    pub violations: Vec<String>,
    /// Deterministic counts, `(name, value)`, for the reproducibility
    /// check (identical for every run of one seed on deterministic
    /// workloads).
    pub signature: Vec<(String, String)>,
}

impl Outcome {
    /// Records a metric; a non-finite value is a failed check.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.check(value.is_finite(), format!("metric {name} is not finite"));
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.violations.push(what.into());
        }
    }

    /// Records a deterministic count.
    pub fn sign(&mut self, name: &str, value: impl std::fmt::Display) {
        self.signature.push((name.to_owned(), value.to_string()));
    }

    /// The value of metric `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.violations.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The deterministic-count signature as one JSON object.
    pub fn signature_line(&self) -> String {
        let body: Vec<String> = self
            .signature
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        format!("{{\"signature\": {{{}}}}}", body.join(", "))
    }
}

/// A finite JSON number with all its digits (a non-finite value, already
/// a failed check, prints as 0 to keep the line valid JSON).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}

/// The `q`-th percentile (0–100) of `values` by linear interpolation
/// between closest ranks; 0 for an empty set.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Mean of `values`; 0 for an empty set.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 75.0), 4.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(160), 90.0);
        assert_eq!(tail_percentile(48), 75.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(5), 50.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("x", 1.5, "ms");
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        o.check(false, "boom");
        assert!(o.result_line().starts_with("{\"correct\": false"));
    }
}
