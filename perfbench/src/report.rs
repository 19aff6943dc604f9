//! Result plumbing shared by every workload: the metric record, the operation and
//! check tallies, the statistics (median, percentile rule, residual) and the host
//! block printed beside the results.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Minimum number of independent samples that must lie strictly beyond a reported
/// percentile for the percentile to be reported at all.
pub const MIN_BEYOND: usize = 10;

/// What one workload run produced: its metrics plus the tally of operations
/// attempted and failed (ingested events, trained steps, evaluated splits and the
/// correctness checks made outside the timed regions).
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    ops: BTreeMap<&'static str, u64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Outcome {
    /// Record a metric (a later record of the same name replaces the earlier one).
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    /// Count `n` operations of kind `what`, all of which succeeded.
    pub fn ops(&mut self, what: &'static str, n: u64) {
        *self.ops.entry(what).or_default() += n;
        self.attempted += n;
    }

    /// Count `n` operations of kind `what` that failed (they were attempted too).
    pub fn failures(&mut self, what: &'static str, n: u64) {
        *self.ops.entry(what).or_default() += n;
        self.attempted += n;
        self.failed += n;
    }

    /// One correctness check: counted as attempted, and as failed when `ok` is false
    /// (with `detail` kept for the report).
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.ops("checks_passed", 1);
        } else {
            self.failures("checks_failed", 1);
            self.notes
                .push(format!("check failed: {name}: {}", detail()));
        }
    }

    /// A free-form line printed before the result (workload shape, quality values).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The recorded value of a metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|&(v, _)| v)
    }

    /// Print the notes and the operation tally, then the result object as the last
    /// line. Only the metrics named in `keep` are emitted, each exactly once; a
    /// metric the workload does not run reads 0 (it did no work in that layer).
    pub fn print(&self, keep: &[(&'static str, &'static str)]) {
        for note in &self.notes {
            println!("{note}");
        }
        let mut ops = String::new();
        for (i, (what, n)) in self.ops.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(ops, "{sep}\"{what}\": {n}");
        }
        println!("ops {{{ops}}}");
        let mut metrics = String::new();
        for (i, &(name, unit)) in keep.iter().enumerate() {
            let value = self.value(name).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        let correct = self.failed == 0
            && keep
                .iter()
                .all(|(n, _)| self.value(n).is_none_or(f64::is_finite));
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
    }
}

/// A finite number in shortest round-trip form (all its digits); non-finite values,
/// which JSON cannot hold, print as 0 and make the run incorrect.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}

/// Build a workload's inputs `repeats` times, returning the last build and the wall
/// time of each (set-up time is reported as their median).
pub fn timed_setup<T>(repeats: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut built = None;
    for _ in 0..repeats.max(1) {
        drop(built.take());
        let t0 = std::time::Instant::now();
        built = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (built.expect("built at least once"), times)
}

/// Median of the values (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100] of weighted samples: each `(value, weight)`
/// stands for `weight` observations of `value` (a tick's latency charged to each of
/// the decisions it emitted). Samples need not be sorted.
///
/// # Panics
/// Panics if the total weight is zero.
pub fn weighted_percentile(samples: &[(f64, u64)], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = sorted.iter().map(|s| s.1).sum();
    assert!(total > 0, "percentile of no observations");
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for &(value, weight) in &sorted {
        seen += weight;
        if seen >= rank {
            return value;
        }
    }
    sorted.last().expect("non-empty").0
}

/// Number of samples (not weights: each sample is one independent tick) whose value
/// lies strictly above `threshold`. A percentile is reported only with at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn samples_beyond(samples: &[(f64, u64)], threshold: f64) -> usize {
    samples.iter().filter(|s| s.0 > threshold).count()
}

/// The part of a layer's busy time its measured sub-layers do not account for.
pub fn residual(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host block: core count, pool threads, CPU model, runtime SIMD features and the
/// build profile, as one JSON object.
pub fn host_block() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let (avx2, avx512f, fma) = simd_features();
    format!(
        "{{\"nproc\": {nproc}, \"pool_threads\": {}, \"cpu\": \"{}\", \"avx2\": {avx2}, \
         \"avx512f\": {avx512f}, \"fma\": {fma}, \"profile\": \"{}\", \
         \"compiled_avx2\": {}, \"compiled_fma\": {}}}",
        rayon::current_num_threads(),
        cpu.replace('"', "'"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release (lto=thin)"
        },
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "fma"),
    )
}

#[cfg(target_arch = "x86_64")]
fn simd_features() -> (bool, bool, bool) {
    (
        is_x86_feature_detected!("avx2"),
        is_x86_feature_detected!("avx512f"),
        is_x86_feature_detected!("fma"),
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_features() -> (bool, bool, bool) {
    (false, false, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn weighted_percentile_counts_each_weight() {
        // 90 observations of 1, 10 of 5: p90 is still 1, p91 is 5.
        let samples = [(5.0, 10), (1.0, 90)];
        assert_eq!(weighted_percentile(&samples, 50.0), 1.0);
        assert_eq!(weighted_percentile(&samples, 90.0), 1.0);
        assert_eq!(weighted_percentile(&samples, 91.0), 5.0);
        assert_eq!(weighted_percentile(&samples, 100.0), 5.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1,000 unit-weight samples 1..=1000: p99 = 990 leaves exactly 10 beyond.
        let samples: Vec<(f64, u64)> = (1..=1000).map(|v| (f64::from(v), 1)).collect();
        let p99 = weighted_percentile(&samples, 99.0);
        assert_eq!(p99, 990.0);
        assert_eq!(samples_beyond(&samples, p99), MIN_BEYOND);
        // With 999 samples p99 = 990 leaves only 9 beyond: p99 is not supported.
        let fewer = &samples[..999];
        assert_eq!(samples_beyond(fewer, weighted_percentile(fewer, 99.0)), 9);
        // Heavy weights do not count as independent samples: one tick of 1,000
        // decisions above 10 light ones holds p99 itself, with nothing beyond.
        let mut lumped: Vec<(f64, u64)> = (1..=10).map(|v| (f64::from(v), 1)).collect();
        lumped.push((100.0, 1000));
        assert_eq!(
            samples_beyond(&lumped, weighted_percentile(&lumped, 99.0)),
            0
        );
    }

    #[test]
    fn residual_subtracts_every_part() {
        assert_eq!(residual(100.0, &[60.0, 25.0, 5.0]), 10.0);
        assert_eq!(residual(10.0, &[]), 10.0);
        // Timer overhead can push the parts past the total: the residual then goes
        // negative rather than being clamped.
        assert_eq!(residual(10.0, &[8.0, 4.0]), -2.0);
    }

    #[test]
    fn non_finite_values_never_print() {
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(0.125), "0.125");
    }
}
