//! Synthetic CAISO-like grid traces.
//!
//! The paper evaluates smart charging against public California ISO supply
//! and carbon-intensity data for April 2021 (Figure 4). That telemetry is
//! not redistributable, so this module synthesises traces with the same
//! structure: a pronounced midday solar trough in carbon intensity
//! (anti-correlated with solar production), a morning and evening peak, and
//! modest day-to-day variation. The generator is seeded and deterministic,
//! and is calibrated so the mean intensity matches the paper's 257 gCO2e/kWh
//! California average.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use junkyard_carbon::convert::{count_f64, round_count};
use junkyard_carbon::units::{CarbonIntensity, TimeSpan};

use crate::trace::IntensityTrace;

/// The calibrated mean carbon intensity, gCO2e/kWh: the paper's April 2021
/// California average.
const MEAN_GRAMS_PER_KWH: f64 = 257.0;
/// Depth of the midday solar trough, gCO2e/kWh.
const SOLAR_DEPTH: f64 = 110.0;
/// Height of the evening gas peak, gCO2e/kWh.
const EVENING_PEAK: f64 = 70.0;
/// Relative day-to-day variation in how sunny and how loaded a day is.
const DAILY_JITTER: f64 = 0.12;

/// Configuration of the synthetic CAISO generator.
#[derive(Debug, Clone, PartialEq)]
pub struct CaisoSynthesizer {
    seed: u64,
    days: usize,
    step: TimeSpan,
}

impl CaisoSynthesizer {
    /// Creates a generator with the paper-calibrated defaults: 5-minute
    /// samples, a 257 gCO2e/kWh mean, a deep midday solar trough and an
    /// evening gas peak.
    ///
    /// # Panics
    ///
    /// Panics if `days` is zero.
    #[must_use]
    pub fn new(seed: u64, days: usize) -> Self {
        assert!(days > 0, "must synthesise at least one day");
        Self {
            seed,
            days,
            step: TimeSpan::from_minutes(5.0),
        }
    }

    /// Overrides the sampling step.
    ///
    /// # Panics
    ///
    /// Panics if the step is not strictly positive.
    #[must_use]
    pub fn step(mut self, step: TimeSpan) -> Self {
        assert!(step.seconds() > 0.0, "step must be positive");
        self.step = step;
        self
    }

    /// Solar output shape at `hour` of day, in `[0, 1]`, peaking at 13:00.
    #[must_use]
    pub fn solar_shape(hour: f64) -> f64 {
        let sunrise = 6.5;
        let sunset = 19.5;
        if hour <= sunrise || hour >= sunset {
            0.0
        } else {
            let x = (hour - sunrise) / (sunset - sunrise);
            (std::f64::consts::PI * x).sin().powi(2)
        }
    }

    /// Evening demand-peak shape at `hour` of day, in `[0, 1]`, peaking
    /// around 19:30.
    #[must_use]
    pub fn evening_shape(hour: f64) -> f64 {
        let peak = 19.5;
        let width = 2.6;
        (-((hour - peak) / width).powi(2)).exp()
    }

    /// Synthesises the carbon-intensity trace.
    #[must_use]
    pub fn intensity_trace(&self) -> IntensityTrace {
        let samples_per_day = round_count(TimeSpan::from_days(1.0).seconds() / self.step.seconds());
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut raw = Vec::with_capacity(samples_per_day * self.days);
        for _ in 0..self.days {
            // Day-to-day variation in how sunny and how loaded the day is.
            let solar_factor = 1.0 + DAILY_JITTER * (rng.random::<f64>() * 2.0 - 1.0);
            let demand_factor = 1.0 + DAILY_JITTER * 0.6 * (rng.random::<f64>() * 2.0 - 1.0);
            for i in 0..samples_per_day {
                let hour = 24.0 * count_f64(i) / count_f64(samples_per_day);
                let base = 290.0 * demand_factor;
                let dip = SOLAR_DEPTH * solar_factor * Self::solar_shape(hour);
                let peak = EVENING_PEAK * demand_factor * Self::evening_shape(hour);
                let noise = 6.0 * (rng.random::<f64>() * 2.0 - 1.0);
                raw.push((base - dip + peak + noise).max(50.0));
            }
        }
        // Calibrate the mean to the configured California average.
        let mean: f64 = raw.iter().sum::<f64>() / count_f64(raw.len());
        let scale = MEAN_GRAMS_PER_KWH / mean;
        let values = raw
            .into_iter()
            .map(|v| CarbonIntensity::from_grams_per_kwh(v * scale))
            .collect();
        IntensityTrace::new(self.step, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_is_calibrated_to_california_average() {
        let trace = CaisoSynthesizer::new(7, 30).intensity_trace();
        assert!(
            (trace.mean().grams_per_kwh() - 257.0).abs() < 1.0,
            "{}",
            trace.mean()
        );
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = CaisoSynthesizer::new(42, 3).intensity_trace();
        let b = CaisoSynthesizer::new(42, 3).intensity_trace();
        assert_eq!(a, b);
        let c = CaisoSynthesizer::new(43, 3).intensity_trace();
        assert_ne!(a, c);
    }

    #[test]
    fn midday_is_cleaner_than_evening() {
        let trace = CaisoSynthesizer::new(1, 30).intensity_trace();
        let day = trace.day(5).unwrap();
        let at = |h: f64| day.value_at(TimeSpan::from_hours(h)).grams_per_kwh();
        let midday = (at(12.0) + at(13.0) + at(14.0)) / 3.0;
        let evening = (at(19.0) + at(20.0)) / 2.0;
        let night = at(3.0);
        assert!(midday < evening, "midday {midday} vs evening {evening}");
        assert!(midday < night, "midday {midday} vs night {night}");
    }

    #[test]
    fn trace_covers_requested_days() {
        let synth = CaisoSynthesizer::new(9, 7);
        let trace = synth.intensity_trace();
        assert_eq!(trace.day_count(), 7);
    }

    #[test]
    fn solar_shape_is_zero_at_night_and_peaks_midday() {
        assert_eq!(CaisoSynthesizer::solar_shape(2.0), 0.0);
        assert_eq!(CaisoSynthesizer::solar_shape(22.0), 0.0);
        assert!(CaisoSynthesizer::solar_shape(13.0) > 0.95);
        assert!(CaisoSynthesizer::solar_shape(8.0) < CaisoSynthesizer::solar_shape(12.0));
    }

    #[test]
    fn intensities_stay_physical() {
        let trace = CaisoSynthesizer::new(11, 30).intensity_trace();
        assert!(trace.min().grams_per_kwh() > 40.0);
        assert!(trace.max().grams_per_kwh() < 500.0);
    }

    #[test]
    #[should_panic(expected = "at least one day")]
    fn zero_days_panics() {
        let _ = CaisoSynthesizer::new(1, 0);
    }
}
