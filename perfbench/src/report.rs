//! Metric collection and the result line.
//!
//! Human-readable lines go to stdout as the run proceeds; the last line of
//! stdout is one JSON object with exactly the keys `correct`, `attempted`,
//! `failed` and `metrics`.

use std::fmt::Write as _;

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything a run reports: request counts, check failures and metrics.
#[derive(Default)]
pub struct Report {
    /// Requests attempted in the measured region.
    pub attempted: u64,
    /// Requests whose certificate failed a check.
    pub failed: u64,
    /// Failed checks that are not tied to one request (replay fidelity,
    /// determinism across passes); any entry makes the run incorrect.
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    /// Records a metric. Non-finite values are a bug in the benchmark.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed check. The first few are printed as they happen.
    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 10 {
            println!("CHECK FAILED: {message}");
        }
        self.problems.push(message);
    }

    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Prints the metrics as aligned text, then the result line.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
        }
        if !self.problems.is_empty() {
            println!("{} failed checks", self.problems.len());
        }
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// The `q`-quantile (0..=1) of ascending `sorted` samples, interpolating
/// linearly between closest ranks. Zero for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        len => {
            let pos = q.clamp(0.0, 1.0) * (len - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(len - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile(&samples, 0.5)
}

/// `num / den`, or zero when `den` is zero (a layer the workload never
/// reaches reads zero).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
