//! Markdown and JSON table rendering and latency summaries for the
//! experiment harness.

use std::fmt::Write as _;

/// A simple markdown table accumulated row by row.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Prints the markdown rendering to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }

    /// Renders the table as one JSON object: `title`, `headers`, and
    /// `rows` as arrays of cell strings.
    pub fn to_json(&self) -> String {
        let strings = |cells: &[String]| {
            let quoted: Vec<String> = cells.iter().map(|c| json_string(c)).collect();
            format!("[{}]", quoted.join(", "))
        };
        let rows: Vec<String> = self.rows.iter().map(|r| strings(r)).collect();
        format!(
            "{{\"title\": {}, \"headers\": {}, \"rows\": [{}]}}",
            json_string(&self.title),
            strings(&self.headers),
            rows.join(", ")
        )
    }
}

/// `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped, everything else (`µ`, `‰`, `✔`) kept as UTF-8.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a nanosecond figure with a thousands-aware unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

/// Formats an operations-per-second figure.
pub fn fmt_ops(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1_000_000.0 {
        format!("{:.2} Mop/s", ops_per_sec / 1_000_000.0)
    } else if ops_per_sec >= 1_000.0 {
        format!("{:.1} Kop/s", ops_per_sec / 1_000.0)
    } else {
        format!("{ops_per_sec:.0} op/s")
    }
}

/// Nearest-rank percentile over an ascending-sorted sample set.
///
/// `p` is in `[0, 100]`. Returns 0 for an empty slice.
///
/// # Panics
///
/// Panics when `p` is outside `[0, 100]`.
pub fn percentile_ns(sorted: &[u64], p: f64) -> u64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// p50/p99 latency digest of one operation class, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples summarized.
    pub count: u64,
    /// Median latency.
    pub p50_ns: u64,
    /// 99th percentile latency.
    pub p99_ns: u64,
    /// Worst observed latency.
    pub max_ns: u64,
    /// Arithmetic mean latency.
    pub mean_ns: u64,
}

impl LatencySummary {
    /// Summarizes `samples` (sorted in place).
    pub fn from_unsorted(samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        let count = samples.len() as u64;
        let mean = if samples.is_empty() {
            0
        } else {
            (samples.iter().map(|&v| u128::from(v)).sum::<u128>() / u128::from(count)) as u64
        };
        Self {
            count,
            p50_ns: percentile_ns(samples, 50.0),
            p99_ns: percentile_ns(samples, 99.0),
            max_ns: samples.last().copied().unwrap_or(0),
            mean_ns: mean,
        }
    }
}

/// Times `f` over `iters` iterations and returns mean ns/op.
pub fn time_ns_per_op(iters: u64, mut f: impl FnMut()) -> f64 {
    // Warm up.
    for _ in 0..iters.min(1_000) {
        f();
    }
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ns(512.0), "512 ns");
        assert_eq!(fmt_ns(2_500.0), "2.50 µs");
        assert_eq!(fmt_ns(3_000_000.0), "3.00 ms");
        assert_eq!(fmt_ops(500.0), "500 op/s");
        assert_eq!(fmt_ops(2_500.0), "2.5 Kop/s");
        assert_eq!(fmt_ops(2_000_000.0), "2.00 Mop/s");
    }

    #[test]
    fn percentiles_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&sorted, 50.0), 50);
        assert_eq!(percentile_ns(&sorted, 95.0), 95);
        assert_eq!(percentile_ns(&sorted, 99.0), 99);
        assert_eq!(percentile_ns(&sorted, 100.0), 100);
        assert_eq!(percentile_ns(&sorted, 0.0), 1);
        assert_eq!(percentile_ns(&[], 50.0), 0);
        assert_eq!(percentile_ns(&[7], 99.0), 7);
    }

    #[test]
    fn latency_summary_digests() {
        let mut samples: Vec<u64> = (1..=1000).rev().collect();
        let s = LatencySummary::from_unsorted(&mut samples);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50_ns, 500);
        assert_eq!(s.p99_ns, 990);
        assert_eq!(s.max_ns, 1000);
        assert_eq!(s.mean_ns, 500);
    }

    #[test]
    fn json_escapes_specials_and_keeps_unicode() {
        let mut t = Table::new("E0 — \"q\" \\ path", &["a\tb", "‰"]);
        t.row(&["1.2 µs".into(), "line\nbreak \u{1}".into()]);
        t.row(&["✘".into(), String::new()]);
        assert_eq!(
            t.to_json(),
            r#"{"title": "E0 — \"q\" \\ path", "headers": ["a\tb", "‰"], "rows": [["1.2 µs", "line\nbreak \u0001"], ["✘", ""]]}"#
        );
    }

    #[test]
    fn timer_returns_positive() {
        let ns = time_ns_per_op(100, || {
            std::hint::black_box(1 + 1);
        });
        assert!(ns >= 0.0);
    }
}
