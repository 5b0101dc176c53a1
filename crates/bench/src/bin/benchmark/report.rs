//! Metric names, units, and how one run reports them.
//!
//! `BENCHMARK.json` at the repository root declares the same names; a
//! test keeps the two in step.

use crate::plan::Workload;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("rss_growth_b_per_op", "B/op")];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// never reaches reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.late_p50_us", "us"),
    ("gen.late_p99_us", "us"),
    ("gen.cpu_us_per_op", "us/op"),
    ("loopback.echo_p50_us", "us"),
    ("os.ctx_switches_per_op", "count/op"),
    ("reactor.cpu_us_per_op", "us/op"),
    ("reactor.residual_us", "us"),
    ("codec.us_per_op", "us/op"),
    ("codec.bytes_per_op", "B/op"),
    ("task.roundtrip_us", "us"),
    ("task.worker_cpu_us_per_op", "us/op"),
    ("task.timer_cpu_us_per_op", "us/op"),
    ("front.stats_rtt_p50_us", "us"),
    ("ticketing.p50_us", "us"),
    ("ticketing.p90_us", "us"),
    ("aspects.self_us", "us"),
    ("moderator.bare_p50_us", "us"),
    ("moderator.blocks_per_op", "count/op"),
    ("moderator.wakeups_per_op", "count/op"),
    ("moderator.notifications_per_op", "count/op"),
    ("moderator.would_blocks_per_op", "count/op"),
    ("moderator.wait_p50_us", "us"),
    ("moderator.fast_path_admit_ratio", "ratio"),
    ("moderator.fast_path_fallbacks", "count"),
    ("moderator.max_queue_depth", "count"),
    ("moderator.timeouts", "count"),
    ("trace.events_per_op", "count/op"),
    ("lease.retransmit_ratio", "ratio"),
    ("lease.dup_dropped_per_visit", "count/op"),
    ("lease.reclaimed", "count"),
    ("lease.stale_dropped", "count"),
    ("peer.cpu_us_per_visit", "us/op"),
    ("faultproxy.cpu_us_per_visit", "us/op"),
];

/// Printed for reading, never compared: throughput, latency and CPU
/// time, which drift with the host by more than the bounds they were
/// specified with, and run-validity figures.
pub const INFO: &[(&str, &str)] = &[
    ("throughput_ops_s", "ops/s"),
    ("cpu_us_per_op", "us/op"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("p99_us", "us"),
    ("p999_us", "us"),
    ("latency_samples", "count"),
    ("fail_ratio", "ratio"),
    ("offered_ops_s", "ops/s"),
    ("late_p99_us", "us"),
];

/// The metrics a run of this kind reports in its result.
pub fn declared(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Every metric a run of this kind prints: the declared ones and, for an
/// untraced run, those printed for reading. `--repeat` summarises each.
pub fn printed(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().chain(INFO).copied().collect()
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(INFO)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run of one workload reports.
#[derive(Debug)]
pub struct RunResult {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Why the run does not measure what it claims (empty when valid).
    pub invalid: Vec<String>,
}

impl RunResult {
    pub fn new(workload: Workload) -> Self {
        Self {
            workload,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            checks: Vec::new(),
            invalid: Vec::new(),
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name,
            value,
            unit: unit_of(name),
        });
    }

    /// Reports 0 for layers this workload never reaches.
    pub fn absent(&mut self, names: &[&'static str]) {
        for name in names {
            self.put(name, 0.0);
        }
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// One line per metric, check and verdict; the parent process
    /// parses the `result` line and the metric lines back.
    pub fn lines(&self) -> Vec<String> {
        let w = self.workload.name();
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{w} {} {} {}", m.name, m.value, m.unit))
            .collect();
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAIL" };
            out.push(format!("{w} check {} {verdict} {}", c.name, c.detail));
        }
        if !self.invalid.is_empty() {
            out.push(format!("{w} invalid {}", self.invalid.join("; ")));
        }
        out.push(format!(
            "{w} result correct={} attempted={} failed={}",
            self.correct(),
            self.attempted,
            self.failed
        ));
        out
    }
}

/// The result object: `{"correct", "attempted", "failed", "metrics"}`.
pub fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
