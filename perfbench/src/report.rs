//! Operation accounting, summary statistics and the result line.

use std::collections::BTreeMap;

/// Attempted and failed operations, with a count per failure reason.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// Failed because the answer was wrong (not because a call errored).
    pub wrong: u64,
    reasons: BTreeMap<String, u64>,
}

impl Ops {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts a failed call (non-200 response, store or I/O error).
    pub fn error(&mut self, reason: String) {
        self.attempted += 1;
        self.failed += 1;
        *self.reasons.entry(reason).or_default() += 1;
    }

    /// Counts a wrong answer.
    pub fn wrong(&mut self, reason: String) {
        self.wrong += 1;
        self.error(format!("wrong answer: {reason}"));
    }

    /// Records the outcome of one operation's check.
    pub fn record(&mut self, outcome: Result<(), Failure>) {
        match outcome {
            Ok(()) => self.ok(),
            Err(Failure::Error(reason)) => self.error(reason),
            Err(Failure::Wrong(reason)) => self.wrong(reason),
        }
    }

    pub fn reasons(&self) -> &BTreeMap<String, u64> {
        &self.reasons
    }
}

/// Why one operation failed.
pub enum Failure {
    /// The call itself failed.
    Error(String),
    /// The call succeeded with a wrong answer.
    Wrong(String),
}

impl From<String> for Failure {
    fn from(reason: String) -> Failure {
        Failure::Error(reason)
    }
}

/// A named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The `q`-quantile of `values` by linear interpolation (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The process's resident set size now, in MiB (`VmRSS`; 0 where
/// `/proc/self/status` cannot be read).
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hands the heap that set-up freed back to the operating system, so the
/// timed phase's resident set holds what the workload keeps, not what the
/// allocator kept from set-up: without it the resident size after a
/// cold-boot set-up ranged from 75 to 190 MiB between runs.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` only returns free memory of glibc's own heap to
    // the system; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Elsewhere the allocator keeps what it keeps.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_heap() {}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(ops: &Ops, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        ops.wrong == 0,
        ops.attempted,
        ops.failed
    )
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(mean(&v), 2.5);
    }

    #[test]
    fn result_line_counts_wrong_answers_as_failed_and_incorrect() {
        let mut ops = Ops::default();
        ops.ok();
        ops.error("refused".into());
        let line = result_json(&ops, &[metric("qps", "1/s", 2.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"qps\": {\"value\": 2.5, \"unit\": \"1/s\"}}}"
        );
        ops.wrong("3 rows".into());
        assert!(result_json(&ops, &[])
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 2"));
    }
}
