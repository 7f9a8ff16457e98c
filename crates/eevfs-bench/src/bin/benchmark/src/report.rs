//! The metric catalogue, one workload's outcome, and its renderings: the
//! human table, the `--out` record, and the one-line JSON result.

use crate::span::{SelfTime, Span};
use crate::stats::Summary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A declared metric: name and unit, as listed in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, unique.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, measured with tracing off, emitted by every
/// workload (`README.md` defines each per world).
pub const END_TO_END: [Metric; 5] = [
    m("setup_s", "s"),
    m("throughput_rps", "1/s"),
    m("latency_p50_ms", "ms"),
    m("latency_tail_ms", "ms"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics of every simulator workload.
pub const SIM_LAYERS: &[Metric] = &[
    m("workload.generate_s", "s"),
    m("eevfs.popularity_s", "s"),
    m("eevfs.placement_s", "s"),
    m("eevfs.prefetch_plan_s", "s"),
    m("driver.run_s", "s"),
    m("driver.events", "count"),
    m("driver.ns_per_event", "ns"),
    m("driver.queue_depth_peak", "count"),
    m("driver.alloc_mb", "MB"),
    m("sim_core.queue_hold_ns", "ns"),
    m("sim_core.queue_share", "ratio"),
    m("power.sleeps", "count"),
    m("power.sleep_payoff_ratio", "ratio"),
    m("disk.transitions", "count"),
    m("disk.spun_up_requests", "count"),
    m("disk.standby_fraction", "ratio"),
    m("buffer.hit_ratio", "ratio"),
    m("buffer.writes_buffered", "count"),
    m("buffer.destages", "count"),
    m("sim.joules_per_request", "J"),
    m("sim.response_p50_s", "s"),
    m("sim.response_p99_s", "s"),
    m("obs.record_s", "s"),
    m("obs.events.request", "count"),
    m("obs.events.disk", "count"),
    m("obs.events.power", "count"),
    m("obs.events.prefetch", "count"),
];

/// Per-layer metrics of a simulator workload with a DRAM tier.
pub const TIER_LAYERS: &[Metric] = &[m("tier.dram_hit_ratio", "ratio")];

/// Per-layer metrics of a simulator workload that exports its trace and
/// folds it through the audit plane.
pub const AUDIT_LAYERS: &[Metric] = &[
    m("obs.jsonl_s", "s"),
    m("obs.jsonl_bytes", "bytes"),
    m("obs.jsonl_alloc_mb", "MB"),
    m("audit.spans_s", "s"),
    m("audit.residency_s", "s"),
    m("audit.ledger_s", "s"),
];

/// Per-layer metrics of every prototype workload.
pub const RT_LAYERS: &[Metric] = &[
    m("runtime.start_s", "s"),
    m("client.get_unloaded_ms", "ms"),
    m("server.stats_rpc_ms", "ms"),
    m("proto.encode_us", "us"),
    m("proto.decode_us", "us"),
    m("store.read_data_us", "us"),
    m("store.read_buffer_us", "us"),
    m("disk_model.crc32_us", "us"),
    m("clock.spinup_sleep_us", "us"),
    m("node.hit_ratio", "ratio"),
    m("node.spin_ups", "count"),
    m("node.virtual_j_per_request", "J"),
    m("server.queue_peak", "count"),
    m("server.retries", "count"),
];

/// The tracer's own cost, measured by every workload.
pub const TRACER_LAYERS: &[Metric] = &[m("trace.overhead_pct", "%")];

/// Every per-layer metric, in `BENCHMARK.json`'s order.
pub fn per_layer() -> impl Iterator<Item = Metric> {
    [
        SIM_LAYERS,
        TIER_LAYERS,
        AUDIT_LAYERS,
        RT_LAYERS,
        TRACER_LAYERS,
    ]
    .into_iter()
    .flatten()
    .copied()
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Untraced samples measured.
    pub samples: usize,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, Summary>,
    /// Per-layer metrics by name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Requests attempted across the untraced samples.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Output-correctness violations, one line each.
    pub check_failures: Vec<String>,
    /// Self time per span name (traced runs only).
    pub self_times: Vec<SelfTime>,
    /// The traced sample's spans.
    pub spans: Vec<Span>,
    /// Extra human-readable lines (digests, raw timings, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            ..Outcome::default()
        }
    }

    /// Records a correctness violation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.check_failures.push(what.into());
    }

    /// Records a check: `ok` or a violation described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Final consistency checks: every end-to-end metric present, finite
    /// and positive; when traced, exactly the workload's `layers`
    /// measured, each finite.
    pub fn finish(&mut self, layers: &[Metric], trace: bool) {
        for m in END_TO_END {
            match self.e2e.get(m.name) {
                None => self.fail(format!("metric {} missing", m.name)),
                Some(s) if !(s.value.is_finite() && s.value > 0.0) => {
                    self.fail(format!("metric {} = {} is not positive", m.name, s.value))
                }
                Some(_) => {}
            }
        }
        if !trace || !self.check_failures.is_empty() {
            return;
        }
        let mut bad = Vec::new();
        for m in layers {
            match self.layers.get(m.name) {
                None => bad.push(format!("layer metric {} missing", m.name)),
                Some(v) if !v.is_finite() => bad.push(format!("layer metric {} = {v}", m.name)),
                Some(_) => {}
            }
        }
        for name in self.layers.keys() {
            if !layers.iter().any(|m| m.name == *name) {
                bad.push(format!("layer metric {name} is not the workload's"));
            }
        }
        self.check_failures.extend(bad);
    }
}

/// The human-readable report of one workload.
pub fn render(o: &Outcome, layers: &[Metric], trace: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} ({} samples) ==", o.workload, o.samples);
    let _ = writeln!(
        out,
        "{:<18} {:>6} {:>14} {:>14} {:>14} {:>7}",
        "metric", "unit", "value", "q1", "q3", "n"
    );
    for m in END_TO_END {
        if let Some(s) = o.e2e.get(m.name) {
            let _ = writeln!(
                out,
                "{:<18} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>7}",
                m.name, m.unit, s.value, s.q1, s.q3, s.n
            );
        }
    }
    for n in &o.notes {
        let _ = writeln!(out, "  {n}");
    }
    let _ = writeln!(
        out,
        "requests attempted {}, failed {}, check_failures = {}",
        o.attempted,
        o.failed,
        o.check_failures.len()
    );
    for f in &o.check_failures {
        let _ = writeln!(out, "  CHECK FAILED: {f}");
    }
    if trace {
        let _ = writeln!(out, "-- per-layer (traced sample) --");
        for m in layers {
            if let Some(v) = o.layers.get(m.name) {
                let _ = writeln!(out, "{:<28} {:>6} {:>16.6}", m.name, m.unit, v);
            }
        }
        let _ = writeln!(out, "-- self time by span --");
        let _ = writeln!(
            out,
            "{:<28} {:>6} {:>12} {:>12} {:>12}",
            "span", "count", "total ms", "self ms", "alloc MB"
        );
        for t in &o.self_times {
            let _ = writeln!(
                out,
                "{:<28} {:>6} {:>12.3} {:>12.3} {:>12.3}",
                t.name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.alloc_bytes as f64 / 1e6
            );
        }
    }
    out
}

/// One workload in the `--out` record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadRecord {
    /// Workload name.
    pub name: String,
    /// Untraced samples.
    pub samples: u64,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricRecord>,
    /// Per-layer metrics the workload measures (empty when untraced).
    pub per_layer: Vec<LayerRecord>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed or refused.
    pub failed: u64,
    /// Correctness violations.
    pub check_failures: Vec<String>,
    /// Digests, raw timings and sample counts.
    pub notes: Vec<String>,
}

/// One end-to-end metric in the `--out` record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricRecord {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Reported value.
    pub value: f64,
    /// First quartile over samples.
    pub q1: f64,
    /// Third quartile over samples.
    pub q3: f64,
    /// Samples behind the value.
    pub n: u64,
}

/// One per-layer metric in the `--out` record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerRecord {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value from the traced sample.
    pub value: f64,
}

impl WorkloadRecord {
    /// The record of one outcome.
    pub fn of(o: &Outcome, layers: &[Metric]) -> WorkloadRecord {
        WorkloadRecord {
            name: o.workload.to_string(),
            samples: o.samples as u64,
            end_to_end: END_TO_END
                .into_iter()
                .filter_map(|m| {
                    o.e2e.get(m.name).map(|s| MetricRecord {
                        name: m.name.into(),
                        unit: m.unit.into(),
                        value: s.value,
                        q1: s.q1,
                        q3: s.q3,
                        n: s.n as u64,
                    })
                })
                .collect(),
            per_layer: layers
                .iter()
                .filter_map(|m| {
                    o.layers.get(m.name).map(|&value| LayerRecord {
                        name: m.name.into(),
                        unit: m.unit.into(),
                        value,
                    })
                })
                .collect(),
            attempted: o.attempted,
            failed: o.failed,
            check_failures: o.check_failures.clone(),
            notes: o.notes.clone(),
        }
    }

    /// A record for a workload whose run left none.
    pub fn lost(name: &str, why: String) -> WorkloadRecord {
        WorkloadRecord {
            name: name.to_string(),
            samples: 0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            attempted: 0,
            failed: 0,
            check_failures: vec![why],
            notes: Vec::new(),
        }
    }
}

/// The one-line JSON result: `correct`, `attempted`, `failed`, and the
/// metrics of the requested kind as `{"value", "unit"}` objects. The
/// output format lists every declared per-layer metric in a traced line,
/// so a layer a workload does not measure reads 0 there (and only there).
pub fn result_line(records: &[WorkloadRecord], trace: bool) -> String {
    let correct = records.iter().all(|r| r.check_failures.is_empty());
    let attempted: u64 = records.iter().map(|r| r.attempted).sum();
    let failed: u64 = records.iter().map(|r| r.failed).sum();
    let prefix = records.len() > 1;
    let mut metrics = Vec::new();
    for r in records {
        let values: Vec<(Metric, f64)> = if trace {
            per_layer()
                .map(|m| {
                    let v = r.per_layer.iter().find(|l| l.name == m.name);
                    (m, v.map_or(0.0, |l| l.value))
                })
                .collect()
        } else {
            END_TO_END
                .into_iter()
                .filter_map(|m| {
                    let v = r.end_to_end.iter().find(|e| e.name == m.name)?;
                    Some((m, v.value))
                })
                .collect()
        };
        for (m, v) in values {
            let name = if prefix {
                format!("{}.{}", r.name, m.name)
            } else {
                m.name.to_string()
            };
            let v = if v.is_finite() { v } else { 0.0 };
            metrics.push(format!(
                "\"{name}\":{{\"value\":{v},\"unit\":\"{}\"}}",
                m.unit
            ));
        }
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Deserialize)]
    struct Declared {
        name: String,
        unit: String,
    }

    #[derive(Deserialize)]
    struct BenchmarkJson {
        end_to_end: Vec<Declared>,
        per_layer: Vec<Declared>,
    }

    fn declared() -> BenchmarkJson {
        serde_json::from_str(include_str!("../../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .into_iter()
            .chain(per_layer())
            .map(|m| m.name)
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate metric names");
    }

    #[test]
    fn emitted_metrics_equal_the_declared_set() {
        let d = declared();
        let pairs = |v: &[Declared]| -> Vec<(String, String)> {
            v.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
        };
        let ours = |it: &mut dyn Iterator<Item = Metric>| -> Vec<(String, String)> {
            it.map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(pairs(&d.end_to_end), ours(&mut END_TO_END.into_iter()));
        assert_eq!(pairs(&d.per_layer), ours(&mut per_layer()));
    }

    fn complete(name: &'static str) -> Outcome {
        let mut o = Outcome::new(name);
        for (i, m) in END_TO_END.iter().enumerate() {
            o.e2e.insert(m.name, Summary::of(&[i as f64 + 0.5]));
        }
        o.attempted = 10;
        o
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = complete("w");
        o.layers.insert("trace.overhead_pct", 2.5);
        let r = WorkloadRecord::of(&o, TRACER_LAYERS);
        let line = result_line(std::slice::from_ref(&r), false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let traced = result_line(std::slice::from_ref(&r), true);
        assert_eq!(traced.matches("\"value\"").count(), per_layer().count());
        assert!(traced.contains("\"trace.overhead_pct\":{\"value\":2.5,\"unit\":\"%\"}"));
        let two = result_line(
            &[
                r.clone(),
                WorkloadRecord {
                    name: "v".into(),
                    ..r
                },
            ],
            false,
        );
        assert!(two.contains("\"v.setup_s\"") && two.contains("\"attempted\":20"));
    }

    #[test]
    fn records_survive_a_round_trip() {
        let r = WorkloadRecord::of(&complete("w"), &[]);
        let text = serde_json::to_string(&r).unwrap();
        let back: WorkloadRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(result_line(&[back], false), result_line(&[r], false));
    }

    #[test]
    fn finish_flags_missing_zero_and_foreign_metrics() {
        let mut o = Outcome::new("w");
        o.e2e.insert("setup_s", Summary::of(&[0.0]));
        o.finish(&[], false);
        assert_eq!(o.check_failures.len(), END_TO_END.len());

        let mut traced = complete("w");
        traced.layers.insert("audit.spans_s", 1.0);
        traced.finish(TRACER_LAYERS, true);
        assert_eq!(
            traced.check_failures.len(),
            2,
            "{:?}",
            traced.check_failures
        );
    }
}
