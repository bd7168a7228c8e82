//! What a run found: metrics by name and unit, output checks, digests,
//! and the one-line JSON result the run ends with.

use std::fmt::Write as _;
use std::path::Path;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json` (or an extra figure).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `MB`, `count`.
    pub unit: &'static str,
}

/// Which list a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// An end-to-end metric of `BENCHMARK.json` (untraced runs).
    EndToEnd,
    /// A per-layer metric of `BENCHMARK.json` (traced runs).
    Layer,
    /// A workload-specific figure: printed and saved, not in the result.
    Extra,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    workload: String,
    seed: u64,
    trace: bool,
    metrics: Vec<(Kind, Metric)>,
    checks: Vec<(String, bool)>,
    digests: Vec<(String, String)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (failed checks are added at the end).
    pub failed: u64,
}

/// Hex digest of a canonical document.
fn digest_hex(bytes: &[u8]) -> String {
    format!("{:016x}", tinysdr_ota::checkpoint::checksum(bytes))
}

/// A JSON string literal (the names and units here are plain ASCII).
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

impl Report {
    /// An empty report for one run.
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            metrics: Vec::new(),
            checks: Vec::new(),
            digests: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn push(&mut self, kind: Kind, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((
            kind,
            Metric {
                name: name.to_string(),
                value,
                unit,
            },
        ));
    }

    /// Record an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(Kind::EndToEnd, name, value, unit);
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(Kind::Layer, name, value, unit);
    }

    /// Record a workload-specific figure.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(Kind::Extra, name, value, unit);
    }

    /// Record a timing distribution as extras: its median, its highest
    /// percentile with ten samples beyond, and the sample count.
    pub fn extra_dist(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.extra(&format!("{name}.n"), samples.len() as f64, "count");
        if let Some(m) = crate::stats::median(samples) {
            self.extra(&format!("{name}.median"), m, unit);
        }
        if let Some((label, v)) = crate::stats::highest_percentile(samples) {
            self.extra(&format!("{name}.{label}"), v, unit);
        }
    }

    /// Record the end-to-end `wall_s` as the median of the units' wall
    /// seconds, with the unit count and range as extras.
    pub fn walls(&mut self, walls: &[f64]) {
        self.e2e(
            "wall_s",
            crate::stats::median(walls).unwrap_or(f64::NAN),
            "s",
        );
        self.extra("wall_s.n", walls.len() as f64, "count");
        let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
        self.extra("wall_s.min", min, "s");
        self.extra("wall_s.max", walls.iter().copied().fold(0.0, f64::max), "s");
    }

    /// Record an output check; returns `ok`.
    pub fn check(&mut self, name: &str, ok: bool) -> bool {
        self.checks.push((name.to_string(), ok));
        ok
    }

    /// Record the digest of a canonical output document.
    pub fn digest(&mut self, name: &str, bytes: &[u8]) {
        self.digests.push((name.to_string(), digest_hex(bytes)));
    }

    fn failed_checks(&self) -> u64 {
        self.checks.iter().filter(|(_, ok)| !ok).count() as u64
    }

    /// The metrics the result line carries: end-to-end for an untraced
    /// run, per-layer for a traced one.
    fn result_metrics(&self) -> Vec<&Metric> {
        let want = if self.trace {
            Kind::Layer
        } else {
            Kind::EndToEnd
        };
        self.metrics
            .iter()
            .filter(|(k, _)| *k == want)
            .map(|(_, m)| m)
            .collect()
    }

    /// Print every metric, check and digest, save the report under
    /// `out_dir`, and end stdout with the one-line JSON result.
    pub fn finish(mut self, out_dir: &Path) {
        let non_finite: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, m)| !m.value.is_finite())
            .map(|(_, m)| m.name.clone())
            .collect();
        if !self.check("every metric is finite", non_finite.is_empty()) {
            println!("non-finite metrics: {non_finite:?}");
        }
        let failed = self.failed + self.failed_checks();
        let attempted = self.attempted.max(1);
        let correct = failed == 0;
        self.extra("fail_ratio", failed as f64 / attempted as f64, "ratio");
        let mut lines = String::new();
        for (kind, m) in &self.metrics {
            let tag = match kind {
                Kind::EndToEnd => "e2e",
                Kind::Layer => "layer",
                Kind::Extra => "extra",
            };
            let _ = writeln!(lines, "{tag:5} {:44} {:>18} {}", m.name, m.value, m.unit);
        }
        for (name, ok) in &self.checks {
            let _ = writeln!(lines, "check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        for (name, hex) in &self.digests {
            let _ = writeln!(lines, "digest {name}: {hex}");
        }
        print!("{lines}");
        let metrics: Vec<String> = self
            .result_metrics()
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_str(m.unit)
                )
            })
            .collect();
        let result = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        );
        let saved = out_dir.join(format!(
            "{}-seed{}-trace{}.txt",
            self.workload,
            self.seed,
            u8::from(self.trace)
        ));
        if let Err(e) = std::fs::write(&saved, format!("{lines}{result}\n")) {
            eprintln!("perfbench: could not save {}: {e}", saved.display());
        }
        println!("{result}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_carries_the_metrics_of_the_run_kind() {
        let mut r = Report::new("w", 1, false);
        r.e2e("wall_s", 1.5, "s");
        r.layer("dsp.fft256_ns", 900.0, "ns");
        r.extra("note", 2.0, "count");
        let names: Vec<&str> = r.result_metrics().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["wall_s"]);
        r.trace = true;
        let names: Vec<&str> = r.result_metrics().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["dsp.fft256_ns"]);
    }

    #[test]
    fn failed_checks_are_counted() {
        let mut r = Report::new("w", 1, false);
        assert!(r.check("a", true));
        assert!(!r.check("b", false));
        assert_eq!(r.failed_checks(), 1);
    }
}
