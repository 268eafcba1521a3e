//! Mutable battery state: charge level, cycle wear and replacements.

use std::fmt;

use junkyard_carbon::units::{GramsCo2e, Joules, TimeSpan, Watts};
use junkyard_devices::battery::BatterySpec;

/// The live state of one battery pack installed in a repurposed device.
///
/// Tracks the charge level, the cumulative *equivalent full cycles* the pack
/// has endured (Section 4.3 assumes a pack dies after ~2,500 of them) and how
/// many replacement packs have been fitted so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryState {
    spec: BatterySpec,
    charge: Joules,
    equivalent_cycles: f64,
    lifetime_cycles: f64,
    replacements: u32,
}

impl BatteryState {
    /// Creates a fully charged battery of the given specification.
    #[must_use]
    pub fn new_full(spec: BatterySpec) -> Self {
        Self {
            spec,
            charge: spec.energy(),
            equivalent_cycles: 0.0,
            lifetime_cycles: 0.0,
            replacements: 0,
        }
    }

    /// Creates a battery at the given state of charge (0–1).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` lies outside `[0, 1]`.
    #[must_use]
    pub fn new_at(spec: BatterySpec, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "state of charge must be in [0, 1]"
        );
        Self {
            spec,
            charge: spec.energy() * fraction,
            equivalent_cycles: 0.0,
            lifetime_cycles: 0.0,
            replacements: 0,
        }
    }

    /// The pack specification.
    #[must_use]
    pub fn spec(&self) -> BatterySpec {
        self.spec
    }

    /// Current state of charge as a fraction of capacity (0–1).
    #[must_use]
    pub fn state_of_charge(&self) -> f64 {
        self.charge.value() / self.spec.energy().value()
    }

    /// Number of replacement packs fitted so far.
    #[must_use]
    pub fn replacements(&self) -> u32 {
        self.replacements
    }

    /// Replacement embodied carbon amortised over the wear actually
    /// accrued: every equivalent cycle consumed brings the next (paid)
    /// replacement pack `1 / cycle_life` closer, so the steady-state
    /// replacement rate prices wear at `embodied / cycle_life` per cycle
    /// whatever the current pack's remaining headroom. Unlike charging
    /// whole packs as they are replaced, this is continuous in time —
    /// short simulations are charged their fair share of a pack instead of
    /// rounding to whole replacements.
    #[must_use]
    pub fn amortized_replacement_carbon(&self) -> GramsCo2e {
        self.spec.embodied() * (self.lifetime_cycles / f64::from(self.spec.cycle_life()))
    }

    /// `true` when the current pack has exceeded its cycle life and should
    /// be replaced.
    #[must_use]
    pub fn is_worn_out(&self) -> bool {
        self.equivalent_cycles >= f64::from(self.spec.cycle_life())
    }

    /// Fits a new pack: restores full charge, resets wear and counts the
    /// replacement.
    pub fn replace(&mut self) {
        self.charge = self.spec.energy();
        self.equivalent_cycles = 0.0;
        self.replacements += 1;
    }

    /// Drains the battery by the device's consumption over `dt`.
    /// Returns the energy that could *not* be supplied (shortfall) if the
    /// pack emptied during the interval.
    #[must_use]
    pub fn discharge(&mut self, power: Watts, dt: TimeSpan) -> Joules {
        let wanted = power * dt;
        let supplied = wanted.min(self.charge);
        self.charge = (self.charge - supplied).max(Joules::ZERO);
        let cycles = supplied.value() / self.spec.energy().value();
        self.equivalent_cycles += cycles;
        self.lifetime_cycles += cycles;
        wanted - supplied
    }

    /// Charges the battery from the wall for `dt` at up to the pack's
    /// maximum charging power (a wall-side rating). Returns the energy
    /// actually drawn from the wall for charging (zero once full); with a
    /// charge efficiency below 1.0 the wall draw exceeds the energy
    /// stored, so emissions accounted on the returned energy are charged
    /// on the wall side where they physically occur.
    #[must_use]
    pub fn charge_from_wall(&mut self, dt: TimeSpan) -> Joules {
        let efficiency = self.spec.charge_efficiency();
        let headroom = self.spec.energy() - self.charge;
        let offered = self.spec.max_charge_power() * dt * efficiency;
        let stored = offered.min(headroom).max(Joules::ZERO);
        self.charge += stored;
        stored / efficiency
    }
}

impl fmt::Display for BatteryState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0}% charged, {:.1} cycles, {} replacements",
            self.state_of_charge() * 100.0,
            self.equivalent_cycles,
            self.replacements
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pixel() -> BatteryState {
        BatteryState::new_full(BatterySpec::pixel_3a())
    }

    #[test]
    fn full_battery_starts_at_100_percent() {
        let b = pixel();
        assert!((b.state_of_charge() - 1.0).abs() < 1e-12);
        assert_eq!(b.replacements(), 0);
        assert!(!b.is_worn_out());
    }

    #[test]
    fn discharge_tracks_cycles() {
        let mut b = pixel();
        // Drain half the pack.
        let half = b.spec().energy().value() / 2.0;
        let shortfall = b.discharge(Watts::new(half), TimeSpan::from_secs(1.0));
        assert_eq!(shortfall, Joules::ZERO);
        assert!((b.state_of_charge() - 0.5).abs() < 1e-9);
        assert!((b.equivalent_cycles - 0.5).abs() < 1e-9);
    }

    #[test]
    fn discharge_reports_shortfall_when_empty() {
        let mut b = BatteryState::new_at(BatterySpec::pixel_3a(), 0.01);
        let shortfall = b.discharge(Watts::new(100.0), TimeSpan::from_hours(1.0));
        assert!(shortfall.value() > 0.0);
        assert_eq!(b.charge, Joules::ZERO);
    }

    #[test]
    fn charging_stops_at_full() {
        let mut b = BatteryState::new_at(BatterySpec::pixel_3a(), 0.9);
        let drawn = b.charge_from_wall(TimeSpan::from_hours(2.0));
        assert!((b.state_of_charge() - 1.0).abs() < 1e-9);
        // Only the missing 10% was drawn, not two full hours at 18 W.
        assert!(drawn.value() < Watts::new(18.0).value() * 7200.0);
        let more = b.charge_from_wall(TimeSpan::from_minutes(5.0));
        assert_eq!(more, Joules::ZERO);
    }

    #[test]
    fn wear_out_and_replace() {
        let mut b = pixel();
        // Simulate 2,500 full cycles of wear.
        for _ in 0..2_500 {
            let _ = b.discharge(
                Watts::new(b.spec().energy().value()),
                TimeSpan::from_secs(1.0),
            );
            let _ = b.charge_from_wall(TimeSpan::from_hours(1.0));
        }
        assert!(b.is_worn_out());
        b.replace();
        assert!(!b.is_worn_out());
        assert_eq!(b.replacements(), 1);
        // The replacement is charged as packs replaced × the pack's
        // embodied carbon (the original pack came with the device).
        let charged = b.spec().embodied() * f64::from(b.replacements());
        assert!((charged.kilograms() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lossy_charging_draws_more_from_the_wall_than_it_stores() {
        let spec = BatterySpec::pixel_3a().with_charge_efficiency(0.9);
        let mut lossy = BatteryState::new_at(spec, 0.0);
        let mut lossless = BatteryState::new_at(BatterySpec::pixel_3a(), 0.0);
        let dt = TimeSpan::from_minutes(10.0);
        let lossy_draw = lossy.charge_from_wall(dt);
        let lossless_draw = lossless.charge_from_wall(dt);
        // Same wall draw while charging flat out (the charger's rating is a
        // wall-side figure), but the lossy pack stores only 90% of it.
        assert!((lossy_draw.value() - lossless_draw.value()).abs() < 1e-9);
        assert!((lossy.charge.value() - 0.9 * lossy_draw.value()).abs() < 1e-6);
        assert!((lossless.charge.value() - lossless_draw.value()).abs() < 1e-6);
        // Filling the remaining headroom still bills the wall for the loss.
        let mut nearly_full = BatteryState::new_at(spec, 0.99);
        let headroom = spec.energy().value() * 0.01;
        let draw = nearly_full.charge_from_wall(TimeSpan::from_hours(2.0));
        assert!((draw.value() - headroom / 0.9).abs() < 1e-6);
    }

    #[test]
    fn lifetime_cycles_survive_replacement_and_price_wear() {
        let mut b = pixel();
        let full = b.spec().energy().value();
        for _ in 0..2_500 {
            let _ = b.discharge(Watts::new(full), TimeSpan::from_secs(1.0));
            let _ = b.charge_from_wall(TimeSpan::from_hours(1.0));
        }
        assert!(b.is_worn_out());
        b.replace();
        assert!((b.equivalent_cycles - 0.0).abs() < 1e-9);
        assert!((b.lifetime_cycles - 2_500.0).abs() < 1e-6);
        // A whole cycle life of wear prices exactly one pack.
        assert!((b.amortized_replacement_carbon().kilograms() - 2.0).abs() < 1e-6);
        // Half a cycle life more wear adds half a pack's embodied carbon.
        for _ in 0..1_250 {
            let _ = b.discharge(Watts::new(full), TimeSpan::from_secs(1.0));
            let _ = b.charge_from_wall(TimeSpan::from_hours(1.0));
        }
        assert!((b.amortized_replacement_carbon().kilograms() - 3.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "state of charge")]
    fn invalid_state_of_charge_panics() {
        let _ = BatteryState::new_at(BatterySpec::pixel_3a(), 1.5);
    }

    #[test]
    fn display_shows_percentage() {
        assert!(pixel().to_string().contains('%'));
    }
}
