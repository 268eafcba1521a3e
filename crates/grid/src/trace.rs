//! Time series of grid carbon intensity.
//!
//! The smart-charging heuristic (Section 4.3) consumes a per-day carbon
//! intensity trace: it sets the charging threshold at a percentile of the
//! *previous* day's intensities and charges whenever the current intensity
//! falls below it. [`IntensityTrace`] stores a fixed-step series and provides
//! the day slicing, percentile and averaging operations that algorithm and
//! the Figure 4 reproduction need.

use std::fmt;

use junkyard_carbon::convert::{ceil_index, count_f64, floor_index, percentile_rank, round_count};
use junkyard_carbon::units::{CarbonIntensity, TimeSpan};

/// A fixed-step time series of grid carbon intensity.
///
/// # Rounding rule
///
/// A trace quantises time to whole steps. Constructors that take a target
/// duration ([`IntensityTrace::constant`]) round the sample count *up*, so
/// the covered span is at least the requested duration and exceeds it by
/// less than one step. [`IntensityTrace::duration`] always reports the
/// exact covered span (`step * len`), and the day operations
/// ([`IntensityTrace::day_count`], [`IntensityTrace::day`]) agree with each
/// other: a "day" is `round(86 400 s / step)` samples (exact whenever the
/// step divides a day evenly) and `day_count` is precisely the number of
/// indices for which `day(i)` returns `Some`.
#[derive(Debug, Clone, PartialEq)]
pub struct IntensityTrace {
    step: TimeSpan,
    values: Vec<CarbonIntensity>,
}

impl IntensityTrace {
    /// Creates a trace from a fixed step and a vector of samples.
    ///
    /// # Panics
    ///
    /// Panics if the step is not strictly positive or the sample vector is
    /// empty.
    #[must_use]
    pub fn new(step: TimeSpan, values: Vec<CarbonIntensity>) -> Self {
        assert!(step.seconds() > 0.0, "trace step must be positive");
        assert!(!values.is_empty(), "trace must contain at least one sample");
        Self { step, values }
    }

    /// A flat trace at a constant intensity covering `duration`.
    ///
    /// The sample count is rounded *up* to the next whole step (see the
    /// type-level rounding rule), so [`IntensityTrace::duration`] may report
    /// up to one step more than requested when `duration` is not a multiple
    /// of `step`.
    ///
    /// # Panics
    ///
    /// Panics if `step` or `duration` is not strictly positive.
    #[must_use]
    pub fn constant(intensity: CarbonIntensity, step: TimeSpan, duration: TimeSpan) -> Self {
        assert!(duration.seconds() > 0.0, "duration must be positive");
        let samples = ceil_index(duration.seconds() / step.seconds()).max(1);
        Self::new(step, vec![intensity; samples])
    }

    /// The sampling step.
    #[must_use]
    pub fn step(&self) -> TimeSpan {
        self.step
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the trace has no samples (never true for constructed
    /// traces, but required by convention alongside `len`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total duration covered by the trace: exactly `step * len`. For
    /// traces built by [`IntensityTrace::constant`] with a non-aligned
    /// duration this exceeds the requested duration by less than one step.
    #[must_use]
    pub fn duration(&self) -> TimeSpan {
        TimeSpan::from_secs(self.step.seconds() * count_f64(self.values.len()))
    }

    /// The raw samples.
    #[must_use]
    pub fn values(&self) -> &[CarbonIntensity] {
        &self.values
    }

    /// Sample at the given offset from the start of the trace. Offsets past
    /// the end wrap around (the synthetic traces are periodic by day), and
    /// negative offsets clamp to the first sample.
    #[must_use]
    pub fn value_at(&self, offset: TimeSpan) -> CarbonIntensity {
        if offset.seconds() <= 0.0 {
            return self.values[0];
        }
        let index = floor_index(offset.seconds() / self.step.seconds());
        self.values[index % self.values.len()]
    }

    /// Iterates over `(offset, intensity)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TimeSpan, CarbonIntensity)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, v)| (TimeSpan::from_secs(self.step.seconds() * count_f64(i)), *v))
    }

    /// Mean intensity across the trace.
    #[must_use]
    pub fn mean(&self) -> CarbonIntensity {
        let sum: f64 = self.values.iter().map(|v| v.grams_per_kwh()).sum();
        CarbonIntensity::from_grams_per_kwh(sum / count_f64(self.values.len()))
    }

    /// Minimum intensity across the trace.
    #[must_use]
    pub fn min(&self) -> CarbonIntensity {
        CarbonIntensity::from_grams_per_kwh(
            self.values
                .iter()
                .map(|v| v.grams_per_kwh())
                .fold(f64::INFINITY, f64::min),
        )
    }

    /// Maximum intensity across the trace.
    #[must_use]
    pub fn max(&self) -> CarbonIntensity {
        CarbonIntensity::from_grams_per_kwh(
            self.values
                .iter()
                .map(|v| v.grams_per_kwh())
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// The `p`-th percentile (0–100) of the trace's intensities, computed by
    /// linear interpolation between order statistics.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies outside `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> CarbonIntensity {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        let mut sorted: Vec<f64> = self.values.iter().map(|v| v.grams_per_kwh()).collect();
        sorted.sort_by(f64::total_cmp);
        let (lo, hi, frac) = percentile_rank(p, sorted.len());
        CarbonIntensity::from_grams_per_kwh(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }

    /// Number of samples in one quantised day: `round(86 400 s / step)`,
    /// exact whenever the step divides a day evenly. Zero for steps longer
    /// than ~1.5 days.
    fn samples_per_day(&self) -> usize {
        round_count(TimeSpan::from_days(1.0).seconds() / self.step.seconds())
    }

    /// Number of whole (quantised) days covered by the trace.
    ///
    /// Defined as the number of indices for which [`IntensityTrace::day`]
    /// returns `Some`, so the two can never disagree — previously this
    /// floored `duration().days()` while `day` rounded the per-day sample
    /// count, which diverged for steps that do not divide a day evenly.
    #[must_use]
    pub fn day_count(&self) -> usize {
        self.values
            .len()
            .checked_div(self.samples_per_day())
            .unwrap_or(0)
    }

    /// Extracts one whole day (day 0 is the first) as its own trace.
    /// Returns `None` if the trace does not cover that day completely —
    /// exactly when `index >= day_count()`.
    #[must_use]
    pub fn day(&self, index: usize) -> Option<IntensityTrace> {
        let per_day = self.samples_per_day();
        if per_day == 0 {
            return None;
        }
        let start = index.checked_mul(per_day)?;
        let end = start.checked_add(per_day)?;
        if end > self.values.len() {
            return None;
        }
        Some(IntensityTrace::new(
            self.step,
            self.values[start..end].to_vec(),
        ))
    }

    /// Time-weighted mean intensity over the offset window `[from, to)`,
    /// with the same periodic wrap-around as [`IntensityTrace::value_at`]
    /// (the synthetic traces are periodic by day). Partial overlaps with a
    /// sample are weighted by the overlapped fraction of the step.
    ///
    /// # Panics
    ///
    /// Panics if `from` is negative or `to <= from`.
    #[must_use]
    pub fn mean_between(&self, from: TimeSpan, to: TimeSpan) -> CarbonIntensity {
        assert!(from.seconds() >= 0.0, "window start cannot be negative");
        assert!(
            to.seconds() > from.seconds(),
            "window end must come after its start"
        );
        let step = self.step.seconds();
        let (a, b) = (from.seconds(), to.seconds());
        let mut weighted = 0.0;
        let mut t = a;
        while t < b - 1e-12 {
            let index = (t / step).floor();
            let segment_end = ((index + 1.0) * step).min(b);
            let value = self.values[floor_index(index) % self.values.len()].grams_per_kwh();
            weighted += value * (segment_end - t);
            t = segment_end;
        }
        CarbonIntensity::from_grams_per_kwh(weighted / (b - a))
    }
}

impl fmt::Display for IntensityTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples @ {:.0} s (mean {:.0})",
            self.values.len(),
            self.step.seconds(),
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> IntensityTrace {
        IntensityTrace::new(
            TimeSpan::from_minutes(5.0),
            (0..n)
                .map(|i| CarbonIntensity::from_grams_per_kwh(i as f64))
                .collect(),
        )
    }

    #[test]
    fn constant_trace_statistics() {
        let trace = IntensityTrace::constant(
            CarbonIntensity::from_grams_per_kwh(257.0),
            TimeSpan::from_minutes(5.0),
            TimeSpan::from_days(1.0),
        );
        assert_eq!(trace.len(), 288);
        assert!((trace.mean().grams_per_kwh() - 257.0).abs() < 1e-9);
        assert_eq!(trace.min(), trace.max());
        assert_eq!(trace.day_count(), 1);
    }

    #[test]
    fn value_at_indexes_and_wraps() {
        let trace = ramp(12);
        assert_eq!(trace.value_at(TimeSpan::ZERO).grams_per_kwh(), 0.0);
        assert_eq!(
            trace.value_at(TimeSpan::from_minutes(7.0)).grams_per_kwh(),
            1.0
        );
        // One full hour wraps back to the start.
        assert_eq!(
            trace.value_at(TimeSpan::from_minutes(60.0)).grams_per_kwh(),
            0.0
        );
        assert_eq!(
            trace.value_at(TimeSpan::from_minutes(-5.0)).grams_per_kwh(),
            0.0
        );
    }

    #[test]
    fn percentiles_interpolate() {
        let trace = ramp(101);
        assert!((trace.percentile(0.0).grams_per_kwh() - 0.0).abs() < 1e-9);
        assert!((trace.percentile(50.0).grams_per_kwh() - 50.0).abs() < 1e-9);
        assert!((trace.percentile(100.0).grams_per_kwh() - 100.0).abs() < 1e-9);
        assert!((trace.percentile(25.0).grams_per_kwh() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn day_slicing() {
        let trace = IntensityTrace::constant(
            CarbonIntensity::from_grams_per_kwh(100.0),
            TimeSpan::from_hours(1.0),
            TimeSpan::from_days(3.0),
        );
        assert_eq!(trace.day_count(), 3);
        let day1 = trace.day(1).unwrap();
        assert_eq!(day1.len(), 24);
        assert!(trace.day(3).is_none());
    }

    #[test]
    fn non_aligned_constant_duration_over_covers_by_less_than_one_step() {
        // 25-minute steps do not divide a day: 57.6 steps are needed, so the
        // trace rounds up to 58 and covers 10 minutes more than requested.
        let step = TimeSpan::from_minutes(25.0);
        let trace = IntensityTrace::constant(
            CarbonIntensity::from_grams_per_kwh(100.0),
            step,
            TimeSpan::from_days(1.0),
        );
        assert_eq!(trace.len(), 58);
        let covered = trace.duration().seconds();
        let requested = TimeSpan::from_days(1.0).seconds();
        assert!(covered >= requested, "must cover the requested duration");
        assert!(covered < requested + step.seconds(), "over by < one step");
    }

    #[test]
    fn day_count_agrees_with_day_slicing_for_non_aligned_steps() {
        // Regression: day_count() used to floor duration().days() while
        // day() rounded the per-day sample count; for a 10-hour step over a
        // 20-hour span day(0) existed but day_count() said zero.
        let trace = IntensityTrace::constant(
            CarbonIntensity::from_grams_per_kwh(100.0),
            TimeSpan::from_hours(10.0),
            TimeSpan::from_hours(20.0),
        );
        assert_eq!(trace.day_count(), 1);
        assert!(trace.day(0).is_some());
        assert!(trace.day(1).is_none());
        // The invariant in general: day(i) exists exactly for i < day_count.
        for (step_h, duration_h) in [(25.0 / 60.0, 24.0), (7.0, 48.0), (11.0, 24.0), (1.0, 36.0)] {
            let trace = IntensityTrace::constant(
                CarbonIntensity::from_grams_per_kwh(100.0),
                TimeSpan::from_hours(step_h),
                TimeSpan::from_hours(duration_h),
            );
            let count = trace.day_count();
            for i in 0..count {
                assert!(trace.day(i).is_some(), "step {step_h} h day {i}");
            }
            assert!(trace.day(count).is_none(), "step {step_h} h day {count}");
        }
    }

    #[test]
    fn mean_between_weights_partial_steps_and_wraps() {
        let trace = ramp(12); // 0..11 gCO2e/kWh at 5-minute steps, 1 h total.
                              // Whole-sample window.
        let m = trace.mean_between(TimeSpan::ZERO, TimeSpan::from_minutes(10.0));
        assert!((m.grams_per_kwh() - 0.5).abs() < 1e-9);
        // Partial overlap: 2.5 min of sample 0 and 5 min of sample 1.
        let m = trace.mean_between(TimeSpan::from_minutes(2.5), TimeSpan::from_minutes(10.0));
        assert!((m.grams_per_kwh() - (0.0 * 2.5 + 1.0 * 5.0) / 7.5).abs() < 1e-9);
        // Wrap-around: the second hour replays the first.
        let a = trace.mean_between(TimeSpan::ZERO, TimeSpan::from_minutes(30.0));
        let b = trace.mean_between(TimeSpan::from_minutes(60.0), TimeSpan::from_minutes(90.0));
        assert!((a.grams_per_kwh() - b.grams_per_kwh()).abs() < 1e-9);
        // The full-trace window matches mean().
        let full = trace.mean_between(TimeSpan::ZERO, trace.duration());
        assert!((full.grams_per_kwh() - trace.mean().grams_per_kwh()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "window end")]
    fn empty_mean_between_window_panics() {
        let _ = ramp(4).mean_between(TimeSpan::from_minutes(5.0), TimeSpan::from_minutes(5.0));
    }

    #[test]
    fn iter_offsets_are_regular() {
        let trace = ramp(4);
        let offsets: Vec<f64> = trace.iter().map(|(t, _)| t.minutes()).collect();
        assert_eq!(offsets, vec![0.0, 5.0, 10.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_trace_panics() {
        let _ = IntensityTrace::new(TimeSpan::from_minutes(5.0), vec![]);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn out_of_range_percentile_panics() {
        let _ = ramp(10).percentile(150.0);
    }
}
