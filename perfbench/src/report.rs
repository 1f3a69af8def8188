//! Metric names, the per-run report and its two outputs: the full JSON
//! written under `perfbench/out/`, and the one-line result on stdout.

use std::collections::BTreeMap;

use alf_obs::json::JsonWriter;

/// End-to-end metrics: `(name, unit)`. Every workload reports every one
/// of them; `README.md` gives each one's meaning per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_img_s", "img/s"),
    ("lat_ms_p50", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit, the end-to-end
/// metric and workload it should move)`. A workload that does not run a
/// layer reports it as 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("step.ms_p90", "ms", "lat_ms_p50 on train, train-dist"),
    ("data.batch_ms", "ms", "throughput_img_s on train"),
    ("model.fwd_ms", "ms", "throughput_img_s on train"),
    ("model.bwd_ms", "ms", "throughput_img_s on train"),
    ("conv.fwd_ms.k3", "ms", "throughput_img_s on train"),
    ("conv.fwd_ms.k1", "ms", "throughput_img_s on train"),
    ("conv.bwd_ms.k3", "ms", "throughput_img_s on train"),
    ("conv.bwd_ms.k1", "ms", "throughput_img_s on train"),
    ("conv.gflops", "GFLOP/s", "throughput_img_s on train"),
    ("optim.step_ms", "ms", "throughput_img_s on train"),
    ("ae.step_ms", "ms", "throughput_img_s on train"),
    ("eval.ms", "ms", "throughput_img_s on train"),
    ("coverage.train", "ratio", "lat_ms_p50 on train"),
    ("dist.reduce_ms_p50", "ms", "step.ms_p90 on train-dist"),
    ("dp.compute_ms_p50", "ms", "throughput_img_s on train-dist"),
    ("dist.rank_skew_ms_p50", "ms", "step.ms_p90 on train-dist"),
    ("dist.encode_ms", "ms", "lat_ms_p50 on train-dist"),
    ("dist.decode_ms", "ms", "lat_ms_p50 on train-dist"),
    ("dist.grad_bytes_per_step", "B", "lat_ms_p50 on train-dist"),
    ("dist.frames_per_step", "count", "lat_ms_p50 on train-dist"),
    (
        "dist.sparse_tensor_frac",
        "ratio",
        "lat_ms_p50 on train-dist",
    ),
    ("serve.compute_ms_b1", "ms", "lat_ms_p50 on serve-*"),
    ("serve.compute_ms_b8", "ms", "throughput_img_s on serve-*"),
    ("serve.wait_ms_p50.lo", "ms", "lat_ms_p50 on serve-*"),
    (
        "serve.max_rate_img_s",
        "img/s",
        "throughput_img_s on serve-*",
    ),
    (
        "serve.lat_ms_p99.lo",
        "ms",
        "serve.lat_ms_p99.hi on serve-*",
    ),
    (
        "serve.lat_ms_p50.hi",
        "ms",
        "serve.lat_ms_p99.hi on serve-*",
    ),
    ("serve.lat_ms_p99.hi", "ms", "lat_ms_p50 on serve-*"),
    (
        "serve.batch_mean.hi",
        "count",
        "throughput_img_s on serve-*",
    ),
    (
        "serve.queue_len_p99.hi",
        "count",
        "serve.lat_ms_p99.hi on serve-*",
    ),
    ("serve.rejected", "count", "ok_frac on serve-*"),
    ("serve.expired", "count", "ok_frac on serve-*"),
    (
        "qmodel.forward_ms_b8",
        "ms",
        "throughput_img_s on serve-int8",
    ),
    (
        "qmodel.conv_ms.im2col",
        "ms",
        "throughput_img_s on serve-int8",
    ),
    (
        "qmodel.conv_ms.slab",
        "ms",
        "throughput_img_s on serve-int8",
    ),
    ("qmodel.gops", "GOP/s", "throughput_img_s on serve-int8"),
    ("deploy.conv_ms.k3", "ms", "lat_ms_p50 on serve-http"),
    ("deploy.conv_ms.k1", "ms", "lat_ms_p50 on serve-http"),
    ("setup.deploy_ms", "ms", "setup_s on serve-*"),
    ("setup.int8_lower_ms", "ms", "setup_s on serve-int8"),
    ("net.overhead_ms_p50", "ms", "lat_ms_p50 on serve-http"),
    ("net.responses", "count", "ok_frac on serve-http"),
    ("net.parse_errors", "count", "ok_frac on serve-http"),
    ("swap.ms_p50", "ms", "serve.lat_ms_p99.hi on serve-http"),
    ("ckpt.bytes", "B", "swap.ms_p50 on serve-http"),
    ("ckpt.load_ms", "ms", "swap.ms_p50 on serve-http"),
    (
        "swap.stall_ms_max",
        "ms",
        "serve.lat_ms_p99.hi on serve-http",
    ),
    (
        "hw.spearman_f32",
        "ratio",
        "(yardstick) lat_ms_p50 on serve-http",
    ),
    (
        "hw.spearman_int8",
        "ratio",
        "(yardstick) throughput_img_s on serve-int8",
    ),
    (
        "loadgen.lag_ms_p99",
        "ms",
        "validity of every serve-* latency",
    ),
    (
        "trace.overhead",
        "ratio",
        "traced over untraced cost of the main metric",
    ),
];

struct Metric {
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
}

/// Everything one run measured and checked.
pub struct Report {
    trace: bool,
    metrics: BTreeMap<&'static str, Metric>,
    checks: Vec<(String, bool)>,
    attempted: u64,
    failed: u64,
    /// Free-form sections (host, config, per-conv tables, spans) for the
    /// written report; each is a complete JSON value.
    sections: Vec<(String, String)>,
}

fn unit_of(name: &str, trace: bool) -> &'static str {
    let found = if trace {
        PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1)
    } else {
        END_TO_END.iter().find(|m| m.0 == name).map(|m| m.1)
    };
    found.unwrap_or_else(|| panic!("{name} is not a declared metric of this run kind"))
}

impl Report {
    /// An empty report for an untraced (`trace == false`) or traced run.
    pub fn new(trace: bool) -> Self {
        Self {
            trace,
            metrics: BTreeMap::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            sections: Vec::new(),
        }
    }

    /// Sets a declared metric of this run kind.
    pub fn set(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        assert!(value.is_finite(), "{name} = {value} is not finite");
        let unit = unit_of(name, self.trace);
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Counts operations against `failed_frac`.
    pub fn count_ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records an output check. A failed check makes the run incorrect
    /// and counts as one failed operation.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        if !ok {
            eprintln!("CHECK FAILED: {what}");
            self.attempted += 1;
            self.failed += 1;
        }
        self.checks.push((what, ok));
    }

    /// Adds a named JSON section to the written report.
    pub fn section(&mut self, name: &str, json: String) {
        self.sections.push((name.to_string(), json));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }

    /// Fills the metrics a workload does not exercise and derives
    /// `ok_frac`.
    pub fn finish(&mut self) {
        if self.trace {
            for (name, _, _) in PER_LAYER {
                if !self.metrics.contains_key(name) {
                    self.set(name, 0.0, Some(0));
                }
            }
        } else {
            let attempted = self.attempted.max(1);
            let ok = (attempted - self.failed.min(attempted)) as f64 / attempted as f64;
            self.set("ok_frac", ok, Some(self.attempted as usize));
            for (name, _) in END_TO_END {
                assert!(self.metrics.contains_key(name), "{name} was not measured");
            }
        }
    }

    /// Human-readable lines: every metric with its unit and sample count,
    /// per-layer ones with the end-to-end metric they map to.
    pub fn print_table(&self) {
        for (name, m) in &self.metrics {
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            let maps = if self.trace {
                PER_LAYER
                    .iter()
                    .find(|d| d.0 == *name)
                    .map_or(String::new(), |d| format!("  -> {}", d.2))
            } else {
                String::new()
            };
            println!("{name:<28} {:>14.4} {:<8}{n}{maps}", m.value, m.unit);
        }
        for (what, ok) in &self.checks {
            println!("check {:<4} {what}", if *ok { "ok" } else { "FAIL" });
        }
    }

    fn write_metrics(&self, w: &mut JsonWriter, with_samples: bool) {
        w.key("metrics");
        w.begin_object();
        for (name, m) in &self.metrics {
            w.key(name);
            w.begin_object();
            w.field_f64("value", m.value);
            w.field_str("unit", m.unit);
            if with_samples {
                if let Some(n) = m.samples {
                    w.field_u64("samples", n as u64);
                }
            }
            w.end_object();
        }
        w.end_object();
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_bool("correct", self.correct());
        w.field_u64("attempted", self.attempted.max(1));
        w.field_u64("failed", self.failed);
        self.write_metrics(&mut w, false);
        w.end_object();
        w.finish()
    }

    /// The full report: result, checks and every section.
    pub fn full_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_bool("correct", self.correct());
        w.field_u64("attempted", self.attempted.max(1));
        w.field_u64("failed", self.failed);
        self.write_metrics(&mut w, true);
        w.key("checks");
        w.begin_array();
        for (what, ok) in &self.checks {
            w.begin_object();
            w.field_str("check", what);
            w.field_bool("ok", *ok);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let mut out = w.finish();
        // Splice the pre-rendered sections in before the closing brace.
        out.pop();
        for (name, json) in &self.sections {
            out.push_str(&format!(",\"{name}\":{json}"));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names declared here and in `BENCHMARK.json` must agree, so the
    /// result line always carries exactly the metrics the file lists.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let names_after = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect("section");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.match_indices("\"name\": \"")
                .map(|(i, m)| {
                    let rest = &body[i + m.len()..];
                    rest[..rest.find('"').expect("name end")].to_string()
                })
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names_after("end_to_end"), e2e);
        assert_eq!(names_after("per_layer"), layer);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new(false);
        for (name, _) in END_TO_END {
            if *name != "ok_frac" {
                r.set(name, 1.5, Some(3));
            }
        }
        r.count_ops(10, 0);
        r.finish();
        let line = r.result_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        assert!(
            line.contains("\"ok_frac\":{\"value\":1,\"unit\":\"ratio\"}"),
            "{line}"
        );
        assert!(!line.contains("samples"));
    }

    #[test]
    fn a_failed_check_counts_and_flips_correct() {
        let mut r = Report::new(true);
        r.check("classes match", false);
        r.finish();
        assert!(!r.correct());
        assert!(r.result_line().contains("\"failed\":1"));
    }
}
