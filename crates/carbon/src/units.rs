//! Strongly-typed physical quantities used throughout the carbon models.
//!
//! Every quantity is a thin newtype over `f64` ([C-NEWTYPE]): carbon mass,
//! energy, power, time, data volume and the intensity quantities that link
//! them (grid carbon intensity, network energy intensity). Arithmetic that is
//! physically meaningful is provided as operator impls (for example
//! [`Watts`] `*` [`TimeSpan`] `=` [`Joules`]), which keeps unit errors out of
//! the higher-level CCI formulas.
//!
//! # Examples
//!
//! ```
//! use junkyard_carbon::units::{Watts, TimeSpan, CarbonIntensity};
//!
//! let energy = Watts::new(1.54) * TimeSpan::from_hours(24.0);
//! let grid = CarbonIntensity::from_grams_per_kwh(257.0);
//! let emitted = grid * energy;
//! assert!((emitted.kilograms() - 0.0095).abs() < 1e-3);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Number of joules in one kilowatt-hour.
pub const JOULES_PER_KWH: f64 = 3.6e6;
/// Number of milliseconds in one second.
pub const MILLIS_PER_SEC: f64 = 1_000.0;
/// Number of seconds in one hour.
pub const SECONDS_PER_HOUR: f64 = 3_600.0;
/// Number of seconds in one average day.
pub const SECONDS_PER_DAY: f64 = 86_400.0;
/// Number of seconds in one average (Julian) year.
pub const SECONDS_PER_YEAR: f64 = 365.25 * SECONDS_PER_DAY;
/// Number of seconds in one average month (1/12 of a Julian year).
pub const SECONDS_PER_MONTH: f64 = SECONDS_PER_YEAR / 12.0;

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a new quantity from its canonical-unit value.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the underlying value in the canonical unit.
            #[must_use]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is finite (neither NaN nor infinite).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the smaller of two quantities.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two quantities.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps this quantity into `[lo, hi]`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[must_use]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(precision) = f.precision() {
                    write!(f, "{:.*} {}", precision, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, Add::add)
            }
        }

        impl<'a> Sum<&'a $name> for $name {
            fn sum<I: Iterator<Item = &'a Self>>(iter: I) -> Self {
                iter.copied().sum()
            }
        }
    };
}

quantity!(
    /// A mass of CO2-equivalent emissions, stored in grams.
    GramsCo2e,
    "gCO2e"
);

quantity!(
    /// An amount of energy, stored in joules.
    Joules,
    "J"
);

quantity!(
    /// Electrical power, stored in watts.
    Watts,
    "W"
);

quantity!(
    /// A span of time, stored in seconds.
    TimeSpan,
    "s"
);

quantity!(
    /// A volume of data, stored in bytes.
    Bytes,
    "B"
);

quantity!(
    /// A request latency, stored in milliseconds.
    Millis,
    "ms"
);

quantity!(
    /// A request rate (offered or served load), stored in requests per
    /// second.
    Qps,
    "req/s"
);

impl GramsCo2e {
    /// Creates a carbon mass from kilograms of CO2-equivalent.
    ///
    /// # Examples
    ///
    /// ```
    /// use junkyard_carbon::units::GramsCo2e;
    /// assert_eq!(GramsCo2e::from_kilograms(2.0).value(), 2_000.0);
    /// ```
    #[must_use]
    pub fn from_kilograms(kg: f64) -> Self {
        Self::new(kg * 1_000.0)
    }

    /// Creates a carbon mass from milligrams of CO2-equivalent.
    #[must_use]
    pub fn from_milligrams(mg: f64) -> Self {
        Self::new(mg / 1_000.0)
    }

    /// Returns the mass in grams.
    #[must_use]
    pub fn grams(self) -> f64 {
        self.value()
    }

    /// Returns the mass in kilograms.
    #[must_use]
    pub fn kilograms(self) -> f64 {
        self.value() / 1_000.0
    }

    /// Returns the mass in milligrams.
    #[must_use]
    pub fn milligrams(self) -> f64 {
        self.value() * 1_000.0
    }
}

impl Joules {
    /// Creates an energy amount from kilowatt-hours.
    #[must_use]
    pub fn from_kwh(kwh: f64) -> Self {
        Self::new(kwh * JOULES_PER_KWH)
    }

    /// Creates an energy amount from kilojoules.
    #[must_use]
    pub fn from_kilojoules(kj: f64) -> Self {
        Self::new(kj * 1_000.0)
    }

    /// Creates an energy amount from watt-hours.
    #[must_use]
    pub fn from_watt_hours(wh: f64) -> Self {
        Self::new(wh * SECONDS_PER_HOUR)
    }

    /// Returns the energy in kilowatt-hours.
    #[must_use]
    pub fn kwh(self) -> f64 {
        self.value() / JOULES_PER_KWH
    }

    /// Returns the energy in kilojoules.
    #[must_use]
    pub fn kilojoules(self) -> f64 {
        self.value() / 1_000.0
    }

    /// Average power if this energy is spread over `span`.
    #[must_use]
    pub fn average_power(self, span: TimeSpan) -> Watts {
        Watts::new(self.value() / span.seconds())
    }
}

impl Watts {
    /// Creates a power value from kilowatts.
    #[must_use]
    pub fn from_kilowatts(kw: f64) -> Self {
        Self::new(kw * 1_000.0)
    }

    /// Returns the power in kilowatts.
    #[must_use]
    pub fn kilowatts(self) -> f64 {
        self.value() / 1_000.0
    }
}

impl TimeSpan {
    /// Creates a time span from seconds.
    #[must_use]
    pub fn from_secs(seconds: f64) -> Self {
        Self::new(seconds)
    }

    /// Creates a time span from minutes.
    #[must_use]
    pub fn from_minutes(minutes: f64) -> Self {
        Self::new(minutes * 60.0)
    }

    /// Creates a time span from hours.
    #[must_use]
    pub fn from_hours(hours: f64) -> Self {
        Self::new(hours * SECONDS_PER_HOUR)
    }

    /// Creates a time span from days.
    #[must_use]
    pub fn from_days(days: f64) -> Self {
        Self::new(days * SECONDS_PER_DAY)
    }

    /// Creates a time span from average months (1/12 of a Julian year).
    #[must_use]
    pub fn from_months(months: f64) -> Self {
        Self::new(months * SECONDS_PER_MONTH)
    }

    /// Creates a time span from Julian years.
    #[must_use]
    pub fn from_years(years: f64) -> Self {
        Self::new(years * SECONDS_PER_YEAR)
    }

    /// Returns the span in seconds.
    #[must_use]
    pub fn seconds(self) -> f64 {
        self.value()
    }

    /// Returns the span in minutes.
    #[must_use]
    pub fn minutes(self) -> f64 {
        self.value() / 60.0
    }

    /// Returns the span in hours.
    #[must_use]
    pub fn hours(self) -> f64 {
        self.value() / SECONDS_PER_HOUR
    }

    /// Returns the span in days.
    #[must_use]
    pub fn days(self) -> f64 {
        self.value() / SECONDS_PER_DAY
    }

    /// Returns the span in average months.
    #[must_use]
    pub fn months(self) -> f64 {
        self.value() / SECONDS_PER_MONTH
    }

    /// Returns the span in Julian years.
    #[must_use]
    pub fn years(self) -> f64 {
        self.value() / SECONDS_PER_YEAR
    }
}

impl Bytes {
    /// Creates a data volume from gigabytes (10^9 bytes).
    #[must_use]
    pub fn from_gigabytes(gb: f64) -> Self {
        Self::new(gb * 1e9)
    }

    /// Returns the volume in gigabytes (10^9 bytes).
    #[must_use]
    pub fn gigabytes(self) -> f64 {
        self.value() / 1e9
    }
}

impl Millis {
    /// Creates a latency from milliseconds.
    #[must_use]
    pub const fn from_millis(ms: f64) -> Self {
        Self::new(ms)
    }

    /// Creates a latency from seconds.
    #[must_use]
    pub fn from_seconds(secs: f64) -> Self {
        Self::new(secs * MILLIS_PER_SEC)
    }

    /// Returns the latency in milliseconds.
    #[must_use]
    pub const fn millis(self) -> f64 {
        self.value()
    }

    /// Returns the latency in seconds.
    #[must_use]
    pub fn seconds(self) -> f64 {
        self.value() / MILLIS_PER_SEC
    }
}

impl Qps {
    /// Creates a rate from requests per second.
    #[must_use]
    pub const fn from_per_second(qps: f64) -> Self {
        Self::new(qps)
    }

    /// Returns the rate in requests per second.
    #[must_use]
    pub const fn per_second(self) -> f64 {
        self.value()
    }

    /// Total requests arriving at this rate over `span`.
    #[must_use]
    pub fn requests_over(self, span: TimeSpan) -> f64 {
        self.value() * span.seconds()
    }
}

impl Mul<TimeSpan> for Watts {
    type Output = Joules;
    /// Power sustained for a time span yields energy.
    fn mul(self, rhs: TimeSpan) -> Joules {
        Joules::new(self.value() * rhs.seconds())
    }
}

impl Mul<Watts> for TimeSpan {
    type Output = Joules;
    fn mul(self, rhs: Watts) -> Joules {
        rhs * self
    }
}

/// Carbon intensity of an energy source or grid, in grams of CO2-equivalent
/// per kilowatt-hour.
///
/// The paper quotes grid intensities in gCO2e/kWh (for example 257 for the
/// California mix, 48 for solar, 602 for gas — Section 5.1); this type keeps
/// that unit as canonical and converts to per-joule where needed.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct CarbonIntensity(f64);

impl CarbonIntensity {
    /// A perfectly carbon-free (theoretical) energy source.
    pub const ZERO: Self = Self(0.0);

    /// Creates a carbon intensity from grams of CO2e per kilowatt-hour.
    #[must_use]
    pub const fn from_grams_per_kwh(grams_per_kwh: f64) -> Self {
        Self(grams_per_kwh)
    }

    /// Returns the intensity in grams of CO2e per kilowatt-hour.
    #[must_use]
    pub const fn grams_per_kwh(self) -> f64 {
        self.0
    }

    /// Returns the intensity in grams of CO2e per joule.
    #[must_use]
    pub fn grams_per_joule(self) -> f64 {
        self.0 / JOULES_PER_KWH
    }

    /// Carbon emitted by consuming `energy` at this intensity.
    #[must_use]
    pub fn emissions_for(self, energy: Joules) -> GramsCo2e {
        GramsCo2e::new(self.grams_per_joule() * energy.value())
    }
}

impl fmt::Display for CarbonIntensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(precision) = f.precision() {
            write!(f, "{:.*} gCO2e/kWh", precision, self.0)
        } else {
            write!(f, "{} gCO2e/kWh", self.0)
        }
    }
}

impl Mul<Joules> for CarbonIntensity {
    type Output = GramsCo2e;
    fn mul(self, rhs: Joules) -> GramsCo2e {
        self.emissions_for(rhs)
    }
}

impl Mul<CarbonIntensity> for Joules {
    type Output = GramsCo2e;
    fn mul(self, rhs: CarbonIntensity) -> GramsCo2e {
        rhs.emissions_for(self)
    }
}

impl Mul<f64> for CarbonIntensity {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Add for CarbonIntensity {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

/// Energy cost of moving data, in joules per byte.
///
/// Section 5.2 uses 5 µJ/byte for WiFi and 11 µJ/byte for LTE.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct EnergyPerByte(f64);

impl EnergyPerByte {
    /// Creates an energy intensity from joules per byte.
    #[must_use]
    pub const fn from_joules_per_byte(joules_per_byte: f64) -> Self {
        Self(joules_per_byte)
    }

    /// Creates an energy intensity from microjoules per byte.
    #[must_use]
    pub fn from_microjoules_per_byte(uj_per_byte: f64) -> Self {
        Self(uj_per_byte * 1e-6)
    }

    /// Returns the intensity in joules per byte.
    #[must_use]
    pub const fn joules_per_byte(self) -> f64 {
        self.0
    }

    /// Energy required to move `data` at this intensity.
    #[must_use]
    pub fn energy_for(self, data: Bytes) -> Joules {
        Joules::new(self.0 * data.value())
    }
}

impl Mul<Bytes> for EnergyPerByte {
    type Output = Joules;
    fn mul(self, rhs: Bytes) -> Joules {
        self.energy_for(rhs)
    }
}

/// A sustained data rate in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct DataRate(f64);

impl DataRate {
    /// No traffic.
    pub const ZERO: Self = Self(0.0);

    /// Creates a data rate from bytes per second.
    #[must_use]
    pub const fn from_bytes_per_sec(bytes_per_sec: f64) -> Self {
        Self(bytes_per_sec)
    }

    /// Creates a data rate from megabits per second.
    #[must_use]
    pub fn from_megabits_per_sec(mbps: f64) -> Self {
        Self(mbps * 1e6 / 8.0)
    }

    /// Creates a data rate from gigabits per second.
    #[must_use]
    pub fn from_gigabits_per_sec(gbps: f64) -> Self {
        Self(gbps * 1e9 / 8.0)
    }

    /// Returns the rate in bytes per second.
    #[must_use]
    pub const fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Returns the rate in megabits per second.
    #[must_use]
    pub fn megabits_per_sec(self) -> f64 {
        self.0 * 8.0 / 1e6
    }

    /// Returns the rate in gigabits per second.
    #[must_use]
    pub fn gigabits_per_sec(self) -> f64 {
        self.0 * 8.0 / 1e9
    }

    /// Data moved when sustaining this rate for `span`.
    #[must_use]
    pub fn volume_over(self, span: TimeSpan) -> Bytes {
        Bytes::new(self.0 * span.seconds())
    }
}

impl Mul<TimeSpan> for DataRate {
    type Output = Bytes;
    fn mul(self, rhs: TimeSpan) -> Bytes {
        self.volume_over(rhs)
    }
}

impl Div<f64> for DataRate {
    type Output = Self;
    fn div(self, rhs: f64) -> Self {
        Self(self.0 / rhs)
    }
}

impl Mul<f64> for DataRate {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} Mbit/s", self.megabits_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grams_kilogram_roundtrip() {
        let g = GramsCo2e::from_kilograms(12.5);
        assert!((g.grams() - 12_500.0).abs() < 1e-9);
        assert!((g.kilograms() - 12.5).abs() < 1e-9);
        assert!((g.milligrams() - 12_500_000.0).abs() < 1e-6);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::new(100.0) * TimeSpan::from_hours(1.0);
        assert!((e.kwh() - 0.1).abs() < 1e-12);
        let e2 = TimeSpan::from_hours(1.0) * Watts::new(100.0);
        assert_eq!(e, e2);
    }

    #[test]
    fn carbon_intensity_emissions() {
        // 1 kWh at California's 257 gCO2e/kWh releases 257 g.
        let ci = CarbonIntensity::from_grams_per_kwh(257.0);
        let emitted = ci * Joules::from_kwh(1.0);
        assert!((emitted.grams() - 257.0).abs() < 1e-9);
    }

    #[test]
    fn energy_per_byte_wifi() {
        // 5 uJ/byte over 1 GB is 5 kJ.
        let ei = EnergyPerByte::from_microjoules_per_byte(5.0);
        let e = ei * Bytes::from_gigabytes(1.0);
        assert!((e.kilojoules() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn data_rate_conversions() {
        let r = DataRate::from_gigabits_per_sec(1.0);
        assert!((r.megabits_per_sec() - 1_000.0).abs() < 1e-9);
        let vol = r * TimeSpan::from_secs(8.0);
        assert!((vol.gigabytes() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn timespan_constructors_consistent() {
        assert!((TimeSpan::from_years(1.0).months() - 12.0).abs() < 1e-9);
        assert!((TimeSpan::from_months(6.0).years() - 0.5).abs() < 1e-9);
        assert!((TimeSpan::from_days(1.0).hours() - 24.0).abs() < 1e-9);
        assert!((TimeSpan::from_minutes(90.0).hours() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn quantity_arithmetic() {
        let a = GramsCo2e::new(10.0);
        let b = GramsCo2e::new(4.0);
        assert_eq!((a + b).grams(), 14.0);
        assert_eq!((a - b).grams(), 6.0);
        assert_eq!((a * 2.0).grams(), 20.0);
        assert_eq!((2.0 * a).grams(), 20.0);
        assert_eq!((a / 2.0).grams(), 5.0);
        assert!((a / b - 2.5).abs() < 1e-12);
        let total: GramsCo2e = [a, b, GramsCo2e::new(1.0)].iter().sum();
        assert_eq!(total.grams(), 15.0);
    }

    #[test]
    fn quantity_min_max_clamp() {
        let a = Watts::new(3.0);
        let b = Watts::new(5.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Watts::new(9.0).clamp(a, b), b);
        assert_eq!(Watts::new(1.0).clamp(a, b), a);
    }

    #[test]
    fn display_includes_units() {
        assert_eq!(format!("{:.2}", GramsCo2e::new(1.234)), "1.23 gCO2e");
        assert_eq!(
            format!("{:.0}", CarbonIntensity::from_grams_per_kwh(257.0)),
            "257 gCO2e/kWh"
        );
        assert!(format!("{}", Watts::new(2.5)).contains('W'));
    }

    #[test]
    fn average_power_from_energy() {
        let e = Joules::from_kwh(1.0);
        let p = e.average_power(TimeSpan::from_hours(2.0));
        assert!((p.value() - 500.0).abs() < 1e-9);
    }
}
