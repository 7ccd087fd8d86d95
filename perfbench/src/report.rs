//! The metric catalog and the one-line JSON result.

use crate::spans::Row;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("decisions_per_s", "1/s"),
    ("decision_us_p50", "us"),
    ("decision_us_p99", "us"),
    ("peak_rss_mb", "MB"),
    ("bsld_vs_easy", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. `_s`
/// rows are self seconds per traced pass, `_us` rows self microseconds per
/// call, counts are per pass. A layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("swf.trace_gen_s", "s"),
    ("hpcsim.advance_s", "s"),
    ("hpcsim.advance_calls", "count"),
    ("hpcsim.backfill_pass_s", "s"),
    ("hpcsim.backfill_hit_ratio", "ratio"),
    ("hpcsim.events", "count"),
    ("hpcsim.heap_depth_mean", "count"),
    ("hpcsim.plan_repair_len_mean", "count"),
    ("hpcsim.fit_calls", "count"),
    ("hpcsim.fit_buckets_per_call", "count"),
    ("hpcsim.metrics_s", "s"),
    ("router.route_s", "s"),
    ("router.route_calls", "count"),
    ("router.reroute_s", "s"),
    ("router.reroute_calls", "count"),
    ("router.migrations_per_reroute", "ratio"),
    ("router.plan_reuse_ratio", "ratio"),
    ("rlbf.env_new_s", "s"),
    ("rlbf.env_new_calls", "count"),
    ("rlbf.env_step_us", "us"),
    ("rlbf.obs_encode_us", "us"),
    ("rlbf.act_greedy_us", "us"),
    ("rlbf.act_sample_us", "us"),
    ("ppo.gae_s", "s"),
    ("ppo.pi_iters_run", "count"),
    ("ppo.update_s", "s"),
    ("tinynn.pi_forward_us", "us"),
    ("tinynn.pi_backward_us", "us"),
    ("tinynn.v_forward_us", "us"),
    ("tinynn.v_backward_us", "us"),
    ("tinynn.adam_s", "s"),
    ("tinynn.allocs_per_forward", "count"),
    ("tinynn.allocs_per_backward", "count"),
    ("tinynn.flops_per_sample", "flop"),
    ("trace.wall_s", "s"),
    ("trace.other_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// How a span's self time is reported: summed per traced pass as
/// `<span>_s`, or averaged per call as `<span>_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Per {
    Pass,
    Call,
}

/// Every span the benchmark records, how its self time is reported, and
/// whether its call count is reported too, as `<span>_calls`.
const SPANS: [(&str, Per, bool); 17] = [
    ("hpcsim.advance", Per::Pass, true),
    ("hpcsim.backfill_pass", Per::Pass, false),
    ("hpcsim.metrics", Per::Pass, false),
    ("router.route", Per::Pass, true),
    ("router.reroute", Per::Pass, true),
    ("rlbf.env_new", Per::Pass, true),
    ("rlbf.env_step", Per::Call, false),
    ("rlbf.obs_encode", Per::Call, false),
    ("rlbf.act_greedy", Per::Call, false),
    ("rlbf.act_sample", Per::Call, false),
    ("ppo.gae", Per::Pass, false),
    ("ppo.update", Per::Pass, false),
    ("tinynn.pi_forward", Per::Call, false),
    ("tinynn.pi_backward", Per::Call, false),
    ("tinynn.v_forward", Per::Call, false),
    ("tinynn.v_backward", Per::Call, false),
    ("tinynn.adam", Per::Pass, false),
];

/// Spans whose self allocations per call are reported, and under which
/// metric.
const ALLOC_SPANS: [(&str, &str); 2] = [
    ("tinynn.pi_forward", "tinynn.allocs_per_forward"),
    ("tinynn.pi_backward", "tinynn.allocs_per_backward"),
];

/// Per-layer metrics of one traced pass of `wall_s` seconds, from its span
/// rows: the metrics [`SPANS`] and [`ALLOC_SPANS`] name, plus
/// `trace.wall_s` and `trace.other_s` (wall time no span covers), so the
/// self times of all spans plus `other` add up to the wall time.
pub fn layer_metrics(rows: &BTreeMap<&'static str, Row>, wall_s: f64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut covered_s = 0.0;
    for (name, row) in rows {
        let self_s = row.self_ns as f64 / 1e9;
        covered_s += self_s;
        let calls = row.calls.max(1) as f64;
        if let Some(&(_, per, with_calls)) = SPANS.iter().find(|s| s.0 == *name) {
            match per {
                Per::Pass => out.insert(format!("{name}_s"), self_s),
                Per::Call => out.insert(format!("{name}_us"), self_s * 1e6 / calls),
            };
            if with_calls {
                out.insert(format!("{name}_calls"), row.calls as f64);
            }
        }
        if let Some(&(_, metric)) = ALLOC_SPANS.iter().find(|s| s.0 == *name) {
            out.insert(metric.to_string(), row.self_allocs as f64 / calls);
        }
    }
    out.insert("trace.wall_s".into(), wall_s);
    out.insert("trace.other_s".into(), wall_s - covered_s);
    out
}

/// Prints a traced pass's flat profile to stderr: one row per span name
/// plus `other`, with shares of the wall time.
pub fn print_profile(rows: &BTreeMap<&'static str, Row>, wall_s: f64) {
    let mut by_time: Vec<_> = rows.iter().collect();
    by_time.sort_by_key(|(_, row)| std::cmp::Reverse(row.self_ns));
    eprintln!(
        "  {:<22} {:>10} {:>7} {:>12}",
        "span", "self s", "share", "calls"
    );
    let mut covered = 0.0;
    for (name, row) in by_time {
        let s = row.self_ns as f64 / 1e9;
        covered += s;
        eprintln!(
            "  {:<22} {:>10.4} {:>6.1}% {:>12}",
            name,
            s,
            100.0 * s / wall_s,
            row.calls
        );
    }
    let other = wall_s - covered;
    eprintln!(
        "  {:<22} {:>10.4} {:>6.1}%",
        "other",
        other,
        100.0 * other / wall_s
    );
    eprintln!(
        "  {:<22} {:>10.4} {:>6.1}%",
        "total (traced wall)", wall_s, 100.0
    );
}

/// A run's outcome: units attempted and failed, failed whole-run checks,
/// and metric values by name.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub values: BTreeMap<String, f64>,
}

impl Report {
    /// Counts one unit (a window, an epoch, a pass pair).
    pub fn unit(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a whole-run check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The result line: the end-to-end metrics (untraced) or the per-layer
    /// metrics (traced). A missing or non-finite end-to-end metric makes
    /// the run incorrect and prints as 0.
    pub fn result_line(&mut self, traced: bool) -> String {
        let catalog: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in catalog {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.problems
                        .push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.failed == 0 && self.problems.is_empty() && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_rows_plus_other_add_up_to_the_wall_time() {
        let mut rows = BTreeMap::new();
        rows.insert(
            "hpcsim.advance",
            Row {
                calls: 4,
                self_ns: 2_000_000_000,
                self_allocs: 0,
            },
        );
        rows.insert(
            "rlbf.env_step",
            Row {
                calls: 2,
                self_ns: 1_000_000_000,
                self_allocs: 0,
            },
        );
        rows.insert(
            "tinynn.pi_forward",
            Row {
                calls: 10,
                self_ns: 500_000_000,
                self_allocs: 30,
            },
        );
        let m = layer_metrics(&rows, 4.0);
        assert_eq!(m["hpcsim.advance_s"], 2.0);
        assert_eq!(m["hpcsim.advance_calls"], 4.0);
        assert_eq!(m["rlbf.env_step_us"], 500_000.0);
        assert_eq!(m["tinynn.pi_forward_us"], 50_000.0);
        assert_eq!(m["tinynn.allocs_per_forward"], 3.0);
        assert!((m["trace.other_s"] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn every_layer_metric_is_in_the_catalog() {
        let rows: BTreeMap<&'static str, Row> =
            SPANS.iter().map(|s| (s.0, Row::default())).collect();
        for name in layer_metrics(&rows, 1.0).keys() {
            assert!(
                PER_LAYER.iter().any(|m| m.0 == name),
                "{name} not in PER_LAYER"
            );
        }
    }

    #[test]
    fn json_line_has_the_contract_keys_and_flags_missing_metrics() {
        let mut r = Report::default();
        r.unit(true);
        r.set("setup_s", 0.25);
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(r.problems.iter().any(|p| p.contains("jobs_per_s")));
        let mut traced = Report::default();
        traced.unit(true);
        assert!(traced.result_line(true).starts_with("{\"correct\": true"));
    }
}
