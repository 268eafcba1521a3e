//! Per-day intensity statistics used by the smart-charging threshold rule.

use junkyard_carbon::convert::{count_f64, percentile_rank};
use junkyard_carbon::units::CarbonIntensity;
use junkyard_grid::trace::IntensityTrace;

/// Pre-sorted intensity statistics of one day of grid data.
///
/// The smart-charging threshold is a percentile of the previous day's
/// intensities; sorting once per day keeps the simulation linear.
#[derive(Debug, Clone, PartialEq)]
pub struct DayStats {
    sorted_grams_per_kwh: Vec<f64>,
}

impl DayStats {
    /// Builds the statistics from a (usually one-day) trace.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    #[must_use]
    pub fn from_trace(trace: &IntensityTrace) -> Self {
        assert!(!trace.is_empty(), "cannot summarise an empty trace");
        let mut sorted: Vec<f64> = trace.values().iter().map(|v| v.grams_per_kwh()).collect();
        sorted.sort_by(f64::total_cmp);
        Self {
            sorted_grams_per_kwh: sorted,
        }
    }

    /// Number of samples summarised.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted_grams_per_kwh.len()
    }

    /// `true` if no samples are present (never true for constructed stats).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted_grams_per_kwh.is_empty()
    }

    /// The `p`-th percentile (0–100) by linear interpolation.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies outside `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> CarbonIntensity {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        sorted_percentile(&self.sorted_grams_per_kwh, p)
    }

    /// Mean intensity of the day.
    #[must_use]
    pub fn mean(&self) -> CarbonIntensity {
        let sum: f64 = self.sorted_grams_per_kwh.iter().sum();
        CarbonIntensity::from_grams_per_kwh(sum / count_f64(self.sorted_grams_per_kwh.len()))
    }
}

/// The `p`-th percentile (0–100) of an ascending gCO2e/kWh slice by linear
/// interpolation between order statistics — the one percentile definition
/// shared by [`DayStats::percentile`] and the warm-up prefix threshold in
/// the smart-charging simulation. Zero when the slice is empty (the
/// warm-up prior before any observation).
#[must_use]
pub fn sorted_percentile(sorted: &[f64], p: f64) -> CarbonIntensity {
    if sorted.is_empty() {
        return CarbonIntensity::ZERO;
    }
    let (lo, hi, frac) = percentile_rank(p, sorted.len());
    CarbonIntensity::from_grams_per_kwh(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use junkyard_carbon::units::TimeSpan;

    fn ramp() -> DayStats {
        let values = (0..=100)
            .map(|i| CarbonIntensity::from_grams_per_kwh(f64::from(i)))
            .collect();
        DayStats::from_trace(&IntensityTrace::new(TimeSpan::from_minutes(5.0), values))
    }

    #[test]
    fn percentiles_match_ramp() {
        let stats = ramp();
        assert!((stats.percentile(0.0).grams_per_kwh() - 0.0).abs() < 1e-9);
        assert!((stats.percentile(10.0).grams_per_kwh() - 10.0).abs() < 1e-9);
        assert!((stats.percentile(100.0).grams_per_kwh() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn mean_matches_ramp() {
        assert!((ramp().mean().grams_per_kwh() - 50.0).abs() < 1e-9);
        assert_eq!(ramp().len(), 101);
        assert!(!ramp().is_empty());
    }

    #[test]
    fn unsorted_input_is_handled() {
        let values = vec![
            CarbonIntensity::from_grams_per_kwh(300.0),
            CarbonIntensity::from_grams_per_kwh(100.0),
            CarbonIntensity::from_grams_per_kwh(200.0),
        ];
        let stats = DayStats::from_trace(&IntensityTrace::new(TimeSpan::from_hours(8.0), values));
        assert!((stats.percentile(0.0).grams_per_kwh() - 100.0).abs() < 1e-9);
        assert!((stats.percentile(50.0).grams_per_kwh() - 200.0).abs() < 1e-9);
    }
}
