//! Measurement statistics matching the paper's methodology.
//!
//! Figure 2's caption: *"Each bar is based on at least 12 tests, only
//! including the results from the 8th- to the 92nd-percentile. The
//! maximum and minimum are marked with error lines."* [`Samples`]
//! implements exactly that reduction, plus plain percentiles for other
//! analyses.

use crate::time::SimDuration;

/// A growing collection of latency samples.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values_ms: Vec<f64>,
}

impl Samples {
    /// An empty collection.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.values_ms.push(d.as_millis_f64());
    }

    /// Records a raw millisecond value.
    pub fn record_ms(&mut self, ms: f64) {
        self.values_ms.push(ms);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values_ms.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values_ms.is_empty()
    }

    /// Raw values in insertion order, milliseconds.
    pub fn values_ms(&self) -> &[f64] {
        &self.values_ms
    }

    /// Absorbs another collection's samples (aggregating per-client
    /// measurements into one figure bar).
    pub fn merge(&mut self, other: &Samples) {
        self.values_ms.extend_from_slice(&other.values_ms);
    }

    /// Linear-interpolated percentile (`p` in 0..=100). `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.values_ms.is_empty() {
            return None;
        }
        let mut sorted = self.values_ms.clone();
        sorted.sort_by(f64::total_cmp);
        Some(percentile_sorted(&sorted, p))
    }

    /// Reduces to the paper's summary: mean over the 8th–92nd percentile
    /// band, with the overall min and max for the whiskers. `None` when
    /// empty.
    pub fn summarize(&self) -> Option<LatencySummary> {
        if self.values_ms.is_empty() {
            return None;
        }
        let mut sorted = self.values_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let lo = percentile_sorted(&sorted, 8.0);
        let hi = percentile_sorted(&sorted, 92.0);
        let band: Vec<f64> = sorted
            .iter()
            .copied()
            .filter(|&v| v >= lo && v <= hi)
            .collect();
        // For very small n the interpolated 8th/92nd percentiles can
        // both fall strictly between two samples, leaving the band
        // empty; fall back to the plain mean (the paper's trim is only
        // meaningful with its ≥12 samples anyway).
        let mean = if band.is_empty() {
            sorted.iter().sum::<f64>() / sorted.len() as f64
        } else {
            band.iter().sum::<f64>() / band.len() as f64
        };
        Some(LatencySummary {
            samples: sorted.len(),
            trimmed_mean_ms: mean,
            min_ms: sorted[0],
            max_ms: *sorted.last().unwrap(),
            p50_ms: percentile_sorted(&sorted, 50.0),
            p92_ms: hi,
        })
    }
}

/// Counters accumulated by the event scheduler ([`crate::sched::TimerWheel`]).
///
/// Deterministic by construction — every counter is a function of the
/// simulated event stream, not of wall time — so experiments can fold
/// them into reproducible reports (`repro city` publishes them).
/// Wall-clock events/sec is *derived* outside the simulator, by
/// perfbench (executed ÷ measured seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Total events ever scheduled.
    pub scheduled: u64,
    /// Events delivered by `pop`.
    pub executed: u64,
    /// Events cancelled before firing.
    pub cancelled: u64,
    /// Non-empty upper-level slot drains (each re-files its chain into
    /// finer levels) — the wheel's amortized re-sort work.
    pub cascades: u64,
    /// High-water mark of concurrently pending events.
    pub max_pending: u64,
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// The per-bar summary shown in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of raw samples behind the bar.
    pub samples: usize,
    /// Mean over the 8th–92nd percentile band (the bar height).
    pub trimmed_mean_ms: f64,
    /// Smallest raw sample (lower whisker).
    pub min_ms: f64,
    /// Largest raw sample (upper whisker).
    pub max_ms: f64,
    /// Median of all samples.
    pub p50_ms: f64,
    /// 92nd percentile of all samples.
    pub p92_ms: f64,
}

impl LatencySummary {
    /// Whisker spread — the variability signal observation 1 of the paper
    /// reads off the cellular bars.
    pub fn spread_ms(&self) -> f64 {
        self.max_ms - self.min_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from(values: &[f64]) -> Samples {
        let mut s = Samples::new();
        for &v in values {
            s.record_ms(v);
        }
        s
    }

    #[test]
    fn empty_yields_none() {
        assert!(Samples::new().summarize().is_none());
        assert!(Samples::new().percentile(50.0).is_none());
        assert!(Samples::new().is_empty());
    }

    #[test]
    fn single_sample_summary() {
        let s = from(&[42.0]);
        let sum = s.summarize().unwrap();
        assert_eq!(sum.trimmed_mean_ms, 42.0);
        assert_eq!(sum.min_ms, 42.0);
        assert_eq!(sum.max_ms, 42.0);
        assert_eq!(sum.samples, 1);
    }

    #[test]
    fn record_simduration() {
        let mut s = Samples::new();
        s.record(SimDuration::from_millis(5));
        assert_eq!(s.values_ms(), &[5.0]);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = from(&[0.0, 10.0]);
        assert_eq!(s.percentile(50.0).unwrap(), 5.0);
        assert_eq!(s.percentile(0.0).unwrap(), 0.0);
        assert_eq!(s.percentile(100.0).unwrap(), 10.0);
    }

    #[test]
    fn trimming_discards_outliers() {
        // 23 well-behaved samples at 10 ms, two wild outliers.
        let mut values = vec![10.0; 23];
        values.push(500.0);
        values.push(0.1);
        let sum = from(&values).summarize().unwrap();
        assert!(
            (sum.trimmed_mean_ms - 10.0).abs() < 0.5,
            "outliers leaked into the bar: {}",
            sum.trimmed_mean_ms
        );
        // ... but the whiskers still show them, as in the paper's plots.
        assert_eq!(sum.max_ms, 500.0);
        assert_eq!(sum.min_ms, 0.1);
        assert!(sum.spread_ms() > 499.0);
    }

    #[test]
    fn trimmed_mean_of_uniform_ramp_is_centre() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let sum = from(&values).summarize().unwrap();
        assert!((sum.trimmed_mean_ms - 49.5).abs() < 1.0);
        assert_eq!(sum.p50_ms, 49.5);
    }

    #[test]
    fn two_extreme_samples_fall_back_to_the_plain_mean() {
        // Regression: with n=2 the interpolated trim band can be empty;
        // the summary must not be NaN.
        let sum = from(&[0.0, 6474.6]).summarize().unwrap();
        assert!((sum.trimmed_mean_ms - 3237.3).abs() < 1e-9);
        assert_eq!(sum.min_ms, 0.0);
        assert_eq!(sum.max_ms, 6474.6);
    }

    #[test]
    fn merge_aggregates_without_reordering_semantics() {
        let mut a = from(&[1.0, 2.0]);
        let b = from(&[3.0]);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.summarize().unwrap().max_ms, 3.0);
        // Merging an empty set is a no-op.
        a.merge(&Samples::new());
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let a = from(&[3.0, 1.0, 2.0]).summarize().unwrap();
        let b = from(&[1.0, 2.0, 3.0]).summarize().unwrap();
        assert_eq!(a, b);
    }
}
