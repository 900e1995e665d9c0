//! What a run prints: human-readable lines, then one JSON result line.

/// The end-to-end metrics of `BENCHMARK.json`, name and unit. An untraced
/// run of a manifest workload prints exactly these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_us_per_key", "us"),
    ("fp_rate", "ratio"),
    ("bits_per_key", "bits"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of `BENCHMARK.json`, name and unit. A traced run
/// of a manifest workload prints exactly these; those of a layer or an
/// operation the workload does not exercise read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tcf.mkeys_s", "Mkeys/s"),
    ("tcf.insert_ns_per_key", "ns"),
    ("tcf.query_ns_per_key", "ns"),
    ("tcf.delete_ns_per_key", "ns"),
    ("tcf.call_us_mean", "us"),
    ("tcf.keys_per_call", "keys"),
    ("tcf.failed_per_mkey", "count"),
    ("gqf.mkeys_s", "Mkeys/s"),
    ("gqf.insert_ns_per_key", "ns"),
    ("gqf.query_ns_per_key", "ns"),
    ("gqf.delete_ns_per_key", "ns"),
    ("gpu-sim.tcf_lines_per_key", "lines"),
    ("gpu-sim.gqf_lines_per_key", "lines"),
    ("gpu-sim.launches_per_call", "count"),
    ("gpu-sim.tcf_modeled_mkeys_s", "Mkeys/s"),
    ("gpu-sim.gqf_modeled_mkeys_s", "Mkeys/s"),
    ("filter-service.self_us_mean", "us"),
    ("filter-service.keys_per_flush", "keys"),
    ("filter-service.backend_busy_frac", "ratio"),
    ("filter-service.coalesced_frac", "ratio"),
    ("filter-service.queue_depth_max", "ops"),
    ("filter-net.self_us_mean", "us"),
    ("filter-net.bytes_per_key", "bytes"),
    ("filter-net.pool_hit_ratio", "ratio"),
    ("filter-net.shed_frac", "ratio"),
    ("loadgen.send_lag_us_p99", "us"),
    ("host.steal_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Extra context printed beside the value (sample counts, bases).
    pub note: String,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (key operations, or requests on the wire) attempted.
    pub attempted: u64,
    /// Attempted operations that failed: refused inserts, deletes of
    /// inserted keys that found nothing, live keys answered absent, and
    /// shed, errored or unanswered requests.
    pub failed: u64,
    /// False when more than one operation in 10,000 failed: counted
    /// failures that a working program does not produce.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Free-form context lines (run quality, sizing).
    pub lines: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report { correct: true, ..Default::default() }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric { name: name.into(), value, unit, note: note.into() });
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Report 0 for per-layer metrics of layers or operations this
    /// workload does not exercise.
    pub fn not_exercised(&mut self, names: &[&str], why: &str) {
        for &name in names {
            let (_, unit) = PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
            self.metric(name, 0.0, unit, format!("not exercised: {why}"));
        }
    }

    /// Check that the metrics are exactly `manifest`, each once and in its
    /// unit, and put them in the manifest's order.
    pub fn conform(&mut self, manifest: &[(&str, &'static str)]) -> Result<(), String> {
        let mut ordered = Vec::with_capacity(manifest.len());
        for &(name, unit) in manifest {
            let found: Vec<usize> =
                (0..self.metrics.len()).filter(|&i| self.metrics[i].name == name).collect();
            match found[..] {
                [i] if self.metrics[i].unit == unit => ordered.push(self.metrics[i].clone()),
                [i] => return Err(format!("{name} in {}, expected {unit}", self.metrics[i].unit)),
                [] => return Err(format!("{name} was not measured")),
                _ => return Err(format!("{name} was reported {} times", found.len())),
            }
        }
        if let Some(extra) = self.metrics.iter().find(|m| !manifest.iter().any(|e| e.0 == m.name)) {
            return Err(format!("{} is not in the manifest", extra.name));
        }
        self.metrics = ordered;
        Ok(())
    }

    /// The human-readable rendering, one fact per line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for l in &self.lines {
            s.push_str(l);
            s.push('\n');
        }
        for m in &self.metrics {
            let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
            s.push_str(&format!("{:<34} {:>16.6} {}{}\n", m.name, m.value, m.unit, note));
        }
        s.push_str(&format!(
            "operations: {} attempted, {} failed; correct: {}\n",
            self.attempted, self.failed, self.correct
        ));
        s
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, v, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report::new();
        r.attempted = 10;
        r.failed = 1;
        r.metric("setup_s", 0.125, "s", "");
        r.metric("p99_ms", 3.0, "ms", "n=1000");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}, \
             \"p99_ms\": {\"value\": 3.0, \"unit\": \"ms\"}}}"
        );
    }

    /// `(name, unit)` of every `{"name": .., "unit": ..}` entry in `section`.
    fn entries(section: &str) -> Vec<(String, String)> {
        let field = |s: &str, key: &str| {
            s.split(key).nth(1).unwrap().split('"').next().unwrap().to_string()
        };
        section
            .split("{\"name\": \"")
            .skip(1)
            .map(|e| (e.split('"').next().unwrap().to_string(), field(e, "\"unit\": \"")))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let e2e =
            text.split("\"end_to_end\"").nth(1).unwrap().split("\"per_layer\"").next().unwrap();
        let layer = text.split("\"per_layer\"").nth(1).unwrap();
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(entries(e2e), owned(END_TO_END));
        assert_eq!(entries(layer), owned(PER_LAYER));
    }

    #[test]
    fn conform_orders_and_checks_the_metric_set() {
        let manifest: &[(&str, &'static str)] = &[("a", "s"), ("b", "us")];
        let mut r = Report::new();
        r.metric("b", 2.0, "us", "");
        r.metric("a", 1.0, "s", "");
        r.conform(manifest).unwrap();
        assert_eq!(r.metrics.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(), ["a", "b"]);
        let mut missing = Report::new();
        missing.metric("a", 1.0, "s", "");
        assert!(missing.conform(manifest).unwrap_err().contains("b was not measured"));
        let mut unit = Report::new();
        unit.metric("a", 1.0, "ms", "");
        unit.metric("b", 2.0, "us", "");
        assert!(unit.conform(manifest).is_err());
        let mut extra = Report::new();
        for (n, u) in [("a", "s"), ("b", "us"), ("c", "s")] {
            extra.metric(n, 1.0, u, "");
        }
        assert!(extra.conform(manifest).unwrap_err().contains("c is not in the manifest"));
        let mut idle = Report::new();
        idle.not_exercised(&["filter-net.shed_frac"], "no wire tier");
        assert_eq!((idle.metrics[0].value, idle.metrics[0].unit), (0.0, "ratio"));
    }
}
