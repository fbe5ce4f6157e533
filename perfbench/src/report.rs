//! The result the benchmark prints: human-readable lines, a metadata
//! line, and — always last — one JSON object for the driver.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (reads, writes and post-run checks).
    pub attempted: u64,
    /// Failed operations: error replies, wrong answers, lost or
    /// resurrected writes, failed commits.
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Metrics of the JSON result line.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (printed before the JSON).
    pub notes: Vec<String>,
    /// `key=value` reproducibility metadata.
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records metadata.
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Counts `n` attempted operations of which the `errors` failed.
    pub fn count(&mut self, n: u64, errors: Vec<String>) {
        self.attempted += n;
        self.failed += errors.len() as u64;
        self.note_failures(errors);
    }

    /// Keeps the first few failure descriptions.
    pub fn note_failures(&mut self, errors: Vec<String>) {
        for e in errors {
            if self.failures.len() < 10 {
                self.failures.push(e);
            }
        }
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The run is correct when nothing failed and every metric is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let mut s = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                r#"{}"{}": {{"value": {}, "unit": "{}"}}"#,
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The metadata as one JSON object.
    pub fn meta_json(&self) -> String {
        let body: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", k, v.replace('"', "'")))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Prints notes, every metric by name with its unit, the metadata,
    /// and the JSON line last.
    pub fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for m in &self.metrics {
            println!("{:<40} {:>14.4} {}", m.name, m.value, m.unit);
        }
        println!(
            "failed_frac {:.6} ({} of {} operations)",
            self.failed_frac(),
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            println!("FAILURE: {f}");
        }
        println!("META {}", self.meta_json());
        println!("{}", self.json());
    }
}
