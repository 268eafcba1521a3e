//! Battery pack specifications and wear-out projections.
//!
//! Section 4.3 of the paper: smartphone batteries survive roughly 2,500
//! charge cycles; a Pixel 3A on a light-medium duty cycle draws 1.54 W,
//! consumes ~133 kJ/day and therefore cycles its 3 Ah pack about three times
//! a day, wearing it out after ~2.3 years. [`BatterySpec`] carries the
//! electrical and embodied-carbon parameters needed for that projection and
//! for the smart-charging simulation in `junkyard-battery`.

use std::fmt;

use junkyard_carbon::units::{GramsCo2e, Joules, TimeSpan, Watts};

/// Nominal lithium-ion cell voltage used to convert amp-hours to energy.
pub const NOMINAL_CELL_VOLTAGE: f64 = 3.85;

/// Number of full charge cycles a smartphone battery survives before it is
/// considered unusable (Section 4.3, citing consumer battery studies).
pub const DEFAULT_CYCLE_LIFE: u32 = 2_500;

/// Specification of a device's battery pack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatterySpec {
    capacity_amp_hours: f64,
    voltage: f64,
    max_charge_power: Watts,
    embodied: GramsCo2e,
    cycle_life: u32,
    charge_efficiency: f64,
}

impl BatterySpec {
    /// Creates a battery specification with lossless (efficiency 1.0)
    /// charging; override with [`BatterySpec::with_charge_efficiency`].
    ///
    /// # Panics
    ///
    /// Panics if capacity, voltage or cycle life are not strictly positive.
    #[must_use]
    pub fn new(
        capacity_amp_hours: f64,
        voltage: f64,
        max_charge_power: Watts,
        embodied: GramsCo2e,
        cycle_life: u32,
    ) -> Self {
        assert!(
            capacity_amp_hours > 0.0,
            "battery capacity must be positive"
        );
        assert!(voltage > 0.0, "battery voltage must be positive");
        assert!(cycle_life > 0, "battery cycle life must be positive");
        Self {
            capacity_amp_hours,
            voltage,
            max_charge_power,
            embodied,
            cycle_life,
            charge_efficiency: 1.0,
        }
    }

    /// Overrides the wall-to-pack charging efficiency in `(0, 1]`.
    ///
    /// Lithium-ion charging is not lossless: conversion and cell losses
    /// mean the wall supplies more energy than the pack stores (a
    /// realistic round figure is ~0.9). The default of 1.0 preserves the
    /// historical lossless accounting bit for bit; studies that care about
    /// wall-side emissions should set a realistic value.
    ///
    /// # Panics
    ///
    /// Panics if `efficiency` is outside `(0, 1]`.
    #[must_use]
    pub fn with_charge_efficiency(mut self, efficiency: f64) -> Self {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "charge efficiency must be in (0, 1]"
        );
        self.charge_efficiency = efficiency;
        self
    }

    /// The Pixel 3A pack: 3 Ah, 18 W charging, 2.00 kgCO2e embodied.
    #[must_use]
    pub fn pixel_3a() -> Self {
        Self::new(
            3.0,
            NOMINAL_CELL_VOLTAGE,
            Watts::new(18.0),
            GramsCo2e::from_kilograms(2.0),
            DEFAULT_CYCLE_LIFE,
        )
    }

    /// The Nexus 4 pack: 2.1 Ah, 1.11 kgCO2e embodied.
    #[must_use]
    pub fn nexus_4() -> Self {
        Self::new(
            2.1,
            NOMINAL_CELL_VOLTAGE,
            Watts::new(10.0),
            GramsCo2e::from_kilograms(1.11),
            DEFAULT_CYCLE_LIFE,
        )
    }

    /// A ThinkPad X1 Carbon Gen 3 pack: ~50 Wh, 45 W charging.
    #[must_use]
    pub fn thinkpad_x1_carbon_g3() -> Self {
        // 50 Wh at 11.4 V is about 4.4 Ah.
        Self::new(
            4.4,
            11.4,
            Watts::new(45.0),
            GramsCo2e::from_kilograms(5.0),
            1_000,
        )
    }

    /// Maximum charging power the device accepts.
    #[must_use]
    pub fn max_charge_power(self) -> Watts {
        self.max_charge_power
    }

    /// Embodied carbon of one replacement pack.
    #[must_use]
    pub fn embodied(self) -> GramsCo2e {
        self.embodied
    }

    /// Number of full charge cycles before the pack is unusable.
    #[must_use]
    pub fn cycle_life(self) -> u32 {
        self.cycle_life
    }

    /// Wall-to-pack charging efficiency in `(0, 1]` (1.0 = lossless).
    #[must_use]
    pub fn charge_efficiency(self) -> f64 {
        self.charge_efficiency
    }

    /// Usable energy of a full charge.
    #[must_use]
    pub fn energy(self) -> Joules {
        Joules::from_watt_hours(self.capacity_amp_hours * self.voltage)
    }

    /// Full charge cycles per day needed to sustain `average_power`.
    #[must_use]
    pub fn cycles_per_day(self, average_power: Watts) -> f64 {
        let daily = average_power * TimeSpan::from_days(1.0);
        daily.value() / self.energy().value()
    }

    /// Projected pack lifetime when the device continuously draws
    /// `average_power` (the Eq. 10 denominator).
    ///
    /// # Panics
    ///
    /// Panics if `average_power` is not strictly positive.
    #[must_use]
    pub fn projected_lifetime(self, average_power: Watts) -> TimeSpan {
        assert!(average_power.value() > 0.0, "device power must be positive");
        let cycles_per_day = self.cycles_per_day(average_power);
        TimeSpan::from_days(f64::from(self.cycle_life) / cycles_per_day)
    }
}

impl fmt::Display for BatterySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} Ah @ {:.1} V ({:.0} kJ, {} cycles)",
            self.capacity_amp_hours,
            self.voltage,
            self.energy().kilojoules(),
            self.cycle_life
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_pack_energy_is_about_45_kj() {
        // The paper quotes the 3 Ah Pixel pack as 45 kJ.
        let e = BatterySpec::pixel_3a().energy();
        assert!(
            (e.kilojoules() - 41.6).abs() < 5.0,
            "got {} kJ",
            e.kilojoules()
        );
    }

    #[test]
    fn pixel_wears_out_in_about_2_point_3_years() {
        // Section 4.3: 1.54 W -> ~3 cycles/day -> ~833 days = 2.3 years.
        let life = BatterySpec::pixel_3a().projected_lifetime(Watts::new(1.54));
        assert!(
            life.years() > 2.0 && life.years() < 2.6,
            "got {} years",
            life.years()
        );
    }

    #[test]
    fn nexus4_wears_out_in_about_1_point_2_years() {
        let life = BatterySpec::nexus_4().projected_lifetime(Watts::new(1.78));
        assert!(
            life.years() > 1.0 && life.years() < 1.5,
            "got {} years",
            life.years()
        );
    }

    #[test]
    fn quarter_charge_lasts_under_two_hours() {
        // Section 4.3: a 25% Pixel charge lasts slightly under 2 hours on the
        // light-medium workload.
        let spec = BatterySpec::pixel_3a();
        let quarter = TimeSpan::from_secs(spec.energy().value() / 1.54 * 0.25);
        assert!(
            quarter.hours() > 1.3 && quarter.hours() < 2.3,
            "got {} h",
            quarter.hours()
        );
    }

    #[test]
    fn cycles_per_day_pixel() {
        let c = BatterySpec::pixel_3a().cycles_per_day(Watts::new(1.54));
        assert!(c > 2.5 && c < 3.5, "got {c}");
    }

    #[test]
    fn full_charge_time_is_reasonable() {
        let spec = BatterySpec::pixel_3a();
        let t = TimeSpan::from_secs(spec.energy().value() / spec.max_charge_power.value());
        assert!(
            t.minutes() > 30.0 && t.minutes() < 90.0,
            "got {} min",
            t.minutes()
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BatterySpec::new(0.0, 3.85, Watts::new(18.0), GramsCo2e::ZERO, 2_500);
    }

    #[test]
    fn charge_efficiency_defaults_to_lossless_and_can_be_overridden() {
        let spec = BatterySpec::pixel_3a();
        assert_eq!(spec.charge_efficiency(), 1.0);
        let lossy = spec.with_charge_efficiency(0.9);
        assert!((lossy.charge_efficiency() - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "charge efficiency")]
    fn out_of_range_efficiency_panics() {
        let _ = BatterySpec::pixel_3a().with_charge_efficiency(1.2);
    }

    #[test]
    fn display_mentions_cycles() {
        assert!(BatterySpec::pixel_3a().to_string().contains("cycles"));
    }
}
