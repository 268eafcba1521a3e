//! Diurnal load schedules: fleet-wide offered load as a function of the
//! hour of day, compiled into the microsim's ramp phases.
//!
//! The paper drives its cloudlet at flat QPS phases; real serving traffic
//! follows a day curve (quiet nights, office-hours plateau, an evening
//! peak). A [`DiurnalSchedule`] models that curve as 24 hourly multipliers
//! of a base rate, linearly interpolated between hours and periodic by
//! day. It holds one day: the run config's horizon says how many days
//! [`DiurnalSchedule::windows`] tiles it over, as [`LoadWindow`]s — the
//! routing and slice granularity of the lifecycle engine, which derives
//! each one on demand with [`DiurnalSchedule::window`].

use junkyard_carbon::convert::{count_f64, floor_index};
use junkyard_carbon::units::TimeSpan;

/// Hourly multipliers of a typical consumer-facing service: a 3 am trough
/// around a third of the base rate, an office-hours plateau and an evening
/// peak slightly above it.
pub const OFFICE_DAY_SHAPE: [f64; 24] = [
    0.40, 0.33, 0.29, 0.27, 0.28, 0.33, 0.45, 0.62, 0.80, 0.93, 1.00, 1.00, 0.97, 0.95, 0.93, 0.92,
    0.94, 1.00, 1.08, 1.15, 1.08, 0.90, 0.68, 0.50,
];

/// A periodic, piecewise-linear daily load curve.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalSchedule {
    base_qps: f64,
    hourly: [f64; 24],
}

impl DiurnalSchedule {
    /// A flat day curve at `base_qps`.
    ///
    /// # Panics
    ///
    /// Panics if the rate is negative.
    #[must_use]
    pub fn flat(base_qps: f64) -> Self {
        assert!(base_qps >= 0.0, "offered load cannot be negative");
        Self {
            base_qps,
            hourly: [1.0; 24],
        }
    }

    /// The canonical consumer-service day ([`OFFICE_DAY_SHAPE`]) scaled to
    /// a peak-hour rate of `base_qps`.
    ///
    /// # Panics
    ///
    /// Panics if the rate is negative.
    #[must_use]
    pub fn office_day(base_qps: f64) -> Self {
        Self::flat(base_qps).hourly(OFFICE_DAY_SHAPE)
    }

    /// Overrides the 24 hourly multipliers.
    ///
    /// # Panics
    ///
    /// Panics if any multiplier is negative.
    #[must_use]
    pub fn hourly(mut self, hourly: [f64; 24]) -> Self {
        assert!(
            hourly.iter().all(|m| *m >= 0.0),
            "hourly multipliers cannot be negative"
        );
        self.hourly = hourly;
        self
    }

    /// Offered load at offset `t` from the schedule start: the base rate
    /// times the hourly multiplier, linearly interpolated between hour
    /// marks and periodic by day. Negative offsets clamp to the start.
    #[must_use]
    pub fn qps_at(&self, t: TimeSpan) -> f64 {
        let hours = (t.hours().max(0.0)) % 24.0;
        let index = floor_index(hours) % 24;
        let next = (index + 1) % 24;
        let frac_of_hour = hours - hours.floor();
        self.base_qps
            * (self.hourly[index] * (1.0 - frac_of_hour) + self.hourly[next] * frac_of_hour)
    }

    /// Slices `days` repeats of the day curve into `windows_per_day` equal
    /// windows per day, each carrying the (linearised) start and end
    /// rates of its span.
    /// Window boundaries land on the schedule's piecewise-linear curve, so
    /// consecutive windows share their boundary rate and the windows of a
    /// whole day reproduce the curve exactly when `windows_per_day` is a
    /// multiple of 24 — and a chord approximation of it otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `windows_per_day` is zero.
    #[must_use]
    pub fn windows(&self, days: usize, windows_per_day: usize) -> Vec<LoadWindow> {
        assert!(windows_per_day > 0, "need at least one window per day");
        (0..days * windows_per_day)
            .map(|index| self.window(index, windows_per_day))
            .collect()
    }

    /// Window `index` of the schedule sliced into `windows_per_day` equal
    /// windows per day: the [`DiurnalSchedule::windows`] entry at that
    /// index, derived on its own, so a caller can walk a long horizon
    /// without holding every window.
    ///
    /// # Panics
    ///
    /// Panics if `windows_per_day` is zero.
    #[must_use]
    pub fn window(&self, index: usize, windows_per_day: usize) -> LoadWindow {
        assert!(windows_per_day > 0, "need at least one window per day");
        let duration = TimeSpan::from_hours(24.0 / count_f64(windows_per_day));
        let start = TimeSpan::from_secs(duration.seconds() * count_f64(index));
        LoadWindow {
            index,
            start,
            duration,
            qps_start: self.qps_at(start),
            qps_end: self.qps_at(start + duration),
        }
    }
}

/// One accounting window of a schedule: a span of wall-clock time with the
/// fleet-wide offered load linearised between its endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadWindow {
    index: usize,
    start: TimeSpan,
    duration: TimeSpan,
    qps_start: f64,
    qps_end: f64,
}

impl LoadWindow {
    /// Position of the window in the schedule.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Offset of the window start from the schedule start.
    #[must_use]
    pub fn start(&self) -> TimeSpan {
        self.start
    }

    /// Window length.
    #[must_use]
    pub fn duration(&self) -> TimeSpan {
        self.duration
    }

    /// Offset of the window end from the schedule start.
    #[must_use]
    pub fn end(&self) -> TimeSpan {
        self.start + self.duration
    }

    /// Fleet-wide offered load at the window start, requests per second.
    #[must_use]
    pub fn qps_start(&self) -> f64 {
        self.qps_start
    }

    /// Fleet-wide offered load at the window end, requests per second.
    #[must_use]
    pub fn qps_end(&self) -> f64 {
        self.qps_end
    }

    /// Time-averaged offered load across the window.
    #[must_use]
    pub fn mean_qps(&self) -> f64 {
        (self.qps_start + self.qps_end) / 2.0
    }

    /// The highest instantaneous rate of the window.
    #[must_use]
    pub fn peak_qps(&self) -> f64 {
        self.qps_start.max(self.qps_end)
    }

    /// Requests offered over the whole window.
    #[must_use]
    pub fn requests(&self) -> f64 {
        self.mean_qps() * self.duration.seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_schedule_is_constant() {
        let schedule = DiurnalSchedule::flat(500.0);
        for h in [0.0, 3.5, 12.0, 23.9] {
            assert!((schedule.qps_at(TimeSpan::from_hours(h)) - 500.0).abs() < 1e-9);
        }
        let windows = schedule.windows(1, 6);
        assert_eq!(windows.len(), 6);
        for w in &windows {
            assert_eq!(w.qps_start(), 500.0);
            assert_eq!(w.qps_end(), 500.0);
            assert!((w.duration().hours() - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn office_day_has_a_night_trough_and_evening_peak() {
        let schedule = DiurnalSchedule::office_day(1_000.0);
        let night = schedule.qps_at(TimeSpan::from_hours(3.0));
        let noon = schedule.qps_at(TimeSpan::from_hours(12.0));
        let evening = schedule.qps_at(TimeSpan::from_hours(19.0));
        assert!(night < noon * 0.4, "night {night} vs noon {noon}");
        assert!(evening > noon, "evening {evening} vs noon {noon}");
        assert_eq!(evening, 1_150.0);
    }

    #[test]
    fn qps_interpolates_between_hours_and_wraps_by_day() {
        let schedule = DiurnalSchedule::flat(100.0).hourly({
            let mut h = [1.0; 24];
            h[0] = 0.0;
            h[1] = 1.0;
            h
        });
        assert!((schedule.qps_at(TimeSpan::from_minutes(30.0)) - 50.0).abs() < 1e-9);
        // Day two replays day one.
        let a = schedule.qps_at(TimeSpan::from_hours(5.25));
        let b = schedule.qps_at(TimeSpan::from_hours(29.25));
        assert!((a - b).abs() < 1e-9);
        // Hour 23 interpolates towards hour 0 of the next day.
        let before_midnight = schedule.qps_at(TimeSpan::from_hours(23.5));
        assert!((before_midnight - 50.0).abs() < 1e-9);
    }

    #[test]
    fn windows_tile_the_schedule_and_share_boundaries() {
        let schedule = DiurnalSchedule::office_day(2_000.0);
        let windows = schedule.windows(2, 8);
        assert_eq!(windows.len(), 16);
        for pair in windows.windows(2) {
            assert!((pair[0].end().seconds() - pair[1].start().seconds()).abs() < 1e-9);
            assert!((pair[0].qps_end() - pair[1].qps_start()).abs() < 1e-9);
        }
        let covered: f64 = windows.iter().map(|w| w.duration().seconds()).sum();
        assert!((covered - TimeSpan::from_days(2.0).seconds()).abs() < 1e-6);
        // Every window's load stays within the day curve's envelope.
        for w in &windows {
            assert!(w.peak_qps() <= 2_000.0 * 1.15 + 1e-9);
            assert!(w.mean_qps() > 0.0);
            assert!((w.requests() - w.mean_qps() * w.duration().seconds()).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn zero_windows_panics() {
        let _ = DiurnalSchedule::flat(10.0).windows(1, 0);
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn one_window_of_zero_per_day_panics() {
        let _ = DiurnalSchedule::flat(10.0).window(0, 0);
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_base_rate_panics() {
        let _ = DiurnalSchedule::flat(-1.0);
    }
}
