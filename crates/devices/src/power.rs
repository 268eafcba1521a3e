//! Electrical power models: measured power-vs-load curves and duty-cycle
//! (load profile) averaging.
//!
//! Table 2 of the paper reports each device's power draw at 100 %, 50 %,
//! 10 % CPU load and at idle; [`PowerCurve`] stores those anchor points and
//! interpolates between them. [`LoadProfile`] captures the Dell R740 LCA's
//! "light-medium" operating regime (10 % of time at full load, 35 % at half
//! load, 30 % at 10 % load, 25 % idle) and averages power and throughput
//! over it (Eqs. 4 and 6).

use std::fmt;

use junkyard_carbon::ops::Throughput;
use junkyard_carbon::units::Watts;

/// A device's power draw as a function of CPU load.
///
/// The curve is piecewise-linear through the measured anchor points
/// `(0.0, idle)`, `(0.10, p10)`, `(0.50, p50)`, `(1.0, p100)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCurve {
    idle: Watts,
    p10: Watts,
    p50: Watts,
    p100: Watts,
}

impl PowerCurve {
    /// Creates a power curve from the four measured points of Table 2.
    ///
    /// # Panics
    ///
    /// Panics if any value is negative or the curve is not monotonically
    /// non-decreasing in load.
    #[must_use]
    pub fn from_measurements(idle: Watts, p10: Watts, p50: Watts, p100: Watts) -> Self {
        assert!(idle.value() >= 0.0, "power cannot be negative");
        assert!(
            idle.value() <= p10.value()
                && p10.value() <= p50.value()
                && p50.value() <= p100.value(),
            "power curve must be non-decreasing in load"
        );
        Self {
            idle,
            p10,
            p50,
            p100,
        }
    }

    /// A constant-power device (useful for peripherals such as fans).
    #[must_use]
    pub fn constant(power: Watts) -> Self {
        Self {
            idle: power,
            p10: power,
            p50: power,
            p100: power,
        }
    }

    /// Idle power draw.
    #[must_use]
    pub fn idle(self) -> Watts {
        self.idle
    }

    /// Power at 10 % CPU load.
    #[must_use]
    pub fn at_10_percent(self) -> Watts {
        self.p10
    }

    /// Power at 50 % CPU load.
    #[must_use]
    pub fn at_50_percent(self) -> Watts {
        self.p50
    }

    /// Power at 100 % CPU load.
    #[must_use]
    pub fn at_full_load(self) -> Watts {
        self.p100
    }

    /// Power at an arbitrary load in `[0, 1]`, linearly interpolated between
    /// the measured anchor points. Loads outside the range are clamped.
    #[must_use]
    pub fn power_at(self, load: f64) -> Watts {
        let load = load.clamp(0.0, 1.0);
        let (x0, y0, x1, y1) = if load <= 0.10 {
            (0.0, self.idle, 0.10, self.p10)
        } else if load <= 0.50 {
            (0.10, self.p10, 0.50, self.p50)
        } else {
            (0.50, self.p50, 1.0, self.p100)
        };
        let frac = if x1 > x0 {
            (load - x0) / (x1 - x0)
        } else {
            0.0
        };
        y0 + (y1 - y0) * frac
    }
}

impl fmt::Display for PowerCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1}/{:.1}/{:.1}/{:.1} W (idle/10%/50%/100%)",
            self.idle.value(),
            self.p10.value(),
            self.p50.value(),
            self.p100.value()
        )
    }
}

/// One segment of a duty cycle: a CPU load level held for a fraction of time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSegment {
    load: f64,
    time_fraction: f64,
}

impl LoadSegment {
    /// Creates a segment at `load` CPU utilisation for `time_fraction` of
    /// the duty cycle.
    ///
    /// # Panics
    ///
    /// Panics if either value lies outside `[0, 1]`.
    #[must_use]
    pub fn new(load: f64, time_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&load), "load must be in [0, 1]");
        assert!(
            (0.0..=1.0).contains(&time_fraction),
            "time fraction must be in [0, 1]"
        );
        Self {
            load,
            time_fraction,
        }
    }

    /// CPU load of this segment, in `[0, 1]`.
    #[must_use]
    pub fn load(self) -> f64 {
        self.load
    }

    /// Fraction of time spent in this segment, in `[0, 1]`.
    #[must_use]
    pub fn time_fraction(self) -> f64 {
        self.time_fraction
    }
}

/// Error returned when a load profile's time fractions do not sum to one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidProfile {
    /// The sum of the supplied time fractions.
    pub total_fraction: f64,
}

impl fmt::Display for InvalidProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "load profile time fractions must sum to 1.0 (got {:.4})",
            self.total_fraction
        )
    }
}

impl std::error::Error for InvalidProfile {}

/// A duty cycle: a set of load levels and the fraction of time spent at each.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProfile {
    segments: Vec<LoadSegment>,
}

impl LoadProfile {
    /// Creates a profile from segments.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidProfile`] if the time fractions do not sum to 1
    /// (within a small tolerance).
    pub fn new(segments: Vec<LoadSegment>) -> Result<Self, InvalidProfile> {
        let total: f64 = segments.iter().map(|s| s.time_fraction()).sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(InvalidProfile {
                total_fraction: total,
            });
        }
        Ok(Self { segments })
    }

    /// The "light-medium" operating regime from Dell's PowerEdge R740 LCA
    /// used throughout the paper: 10 % of time at 100 % load, 35 % at 50 %,
    /// 30 % at 10 %, 25 % idle.
    #[must_use]
    pub fn light_medium() -> Self {
        Self::new(vec![
            LoadSegment::new(1.0, 0.10),
            LoadSegment::new(0.50, 0.35),
            LoadSegment::new(0.10, 0.30),
            LoadSegment::new(0.0, 0.25),
        ])
        // lint:allow(panic-in-library): constant segments sum to 1.0
        // exactly, pinned by the duty-cycle unit tests
        .expect("light-medium fractions sum to 1")
    }

    /// A constant 100 % load duty cycle (the paper's CPU stress test).
    #[must_use]
    pub fn full_load() -> Self {
        // lint:allow(panic-in-library): a single full-weight segment
        // always passes validation
        Self::new(vec![LoadSegment::new(1.0, 1.0)]).expect("single segment sums to 1")
    }

    /// Time-weighted average CPU load of the profile.
    #[must_use]
    pub fn average_load(&self) -> f64 {
        self.segments
            .iter()
            .map(|s| s.load() * s.time_fraction())
            .sum()
    }

    /// Time-weighted average power of a device with the given power curve
    /// under this profile — the `P_avg` column of Table 2 (Eq. 4).
    ///
    /// Note that, following the paper, each segment uses the power measured
    /// at that anchor load (idle, 10 %, 50 %, 100 %), i.e. the curve is
    /// evaluated at the segment load.
    #[must_use]
    pub fn average_power(&self, curve: PowerCurve) -> Watts {
        self.segments
            .iter()
            .map(|s| curve.power_at(s.load()) * s.time_fraction())
            .sum()
    }

    /// Average useful throughput under this profile assuming throughput
    /// scales linearly with CPU load from the benchmark's full-load
    /// throughput (Eq. 6). The idle segment contributes no work.
    #[must_use]
    pub fn average_throughput(&self, full_load: Throughput) -> Throughput {
        full_load.scaled(self.average_load())
    }
}

impl Default for LoadProfile {
    /// Defaults to the paper's light-medium regime.
    fn default() -> Self {
        Self::light_medium()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use junkyard_carbon::ops::OpUnit;

    fn poweredge_curve() -> PowerCurve {
        PowerCurve::from_measurements(
            Watts::new(201.0),
            Watts::new(261.0),
            Watts::new(369.0),
            Watts::new(510.0),
        )
    }

    fn pixel_curve() -> PowerCurve {
        PowerCurve::from_measurements(
            Watts::new(0.8),
            Watts::new(1.4),
            Watts::new(1.9),
            Watts::new(2.5),
        )
    }

    #[test]
    fn table2_average_power_poweredge() {
        let avg = LoadProfile::light_medium().average_power(poweredge_curve());
        assert!((avg.value() - 308.7).abs() < 0.05, "got {avg}");
    }

    #[test]
    fn table2_average_power_pixel() {
        let avg = LoadProfile::light_medium().average_power(pixel_curve());
        // 0.10*2.5 + 0.35*1.9 + 0.30*1.4 + 0.25*0.8 = 1.535; the paper
        // rounds to 1.54.
        assert!((avg.value() - 1.54).abs() < 0.01, "got {avg}");
    }

    #[test]
    fn table2_average_power_nexus4() {
        let nexus = PowerCurve::from_measurements(
            Watts::new(0.7),
            Watts::new(1.0),
            Watts::new(2.7),
            Watts::new(3.6),
        );
        let avg = LoadProfile::light_medium().average_power(nexus);
        assert!((avg.value() - 1.78).abs() < 0.015, "got {avg}");
    }

    #[test]
    fn interpolation_at_anchor_points() {
        let c = poweredge_curve();
        assert_eq!(c.power_at(0.0), c.idle());
        assert_eq!(c.power_at(0.10), c.at_10_percent());
        assert_eq!(c.power_at(0.50), c.at_50_percent());
        assert_eq!(c.power_at(1.0), c.at_full_load());
    }

    #[test]
    fn interpolation_is_monotonic_and_clamped() {
        let c = pixel_curve();
        let mut prev = c.power_at(0.0);
        for i in 1..=100 {
            let now = c.power_at(f64::from(i) / 100.0);
            assert!(now.value() >= prev.value() - 1e-12);
            prev = now;
        }
        assert_eq!(c.power_at(-0.5), c.idle());
        assert_eq!(c.power_at(2.0), c.at_full_load());
    }

    #[test]
    fn light_medium_average_load() {
        // 0.10*1.0 + 0.35*0.5 + 0.30*0.1 + 0.25*0 = 0.305
        let avg = LoadProfile::light_medium().average_load();
        assert!((avg - 0.305).abs() < 1e-12);
    }

    #[test]
    fn average_throughput_scales_with_load() {
        let full = Throughput::per_second(39.0, OpUnit::Gflop);
        let avg = LoadProfile::light_medium().average_throughput(full);
        assert!((avg.rate() - 39.0 * 0.305).abs() < 1e-9);
        let stress = LoadProfile::full_load().average_throughput(full);
        assert!((stress.rate() - 39.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_profile_rejected() {
        let err = LoadProfile::new(vec![LoadSegment::new(1.0, 0.5)]).unwrap_err();
        assert!((err.total_fraction - 0.5).abs() < 1e-12);
        assert!(err.to_string().contains("sum to 1.0"));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn non_monotonic_curve_panics() {
        let _ = PowerCurve::from_measurements(
            Watts::new(10.0),
            Watts::new(5.0),
            Watts::new(20.0),
            Watts::new(30.0),
        );
    }

    #[test]
    fn constant_curve_and_profile() {
        let fan = PowerCurve::constant(Watts::new(4.0));
        assert_eq!(fan.power_at(0.3), Watts::new(4.0));
        let half = LoadProfile::new(vec![LoadSegment::new(0.5, 1.0)]).unwrap();
        assert!((half.average_load() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_not_empty() {
        assert!(!poweredge_curve().to_string().is_empty());
    }
}
