//! The smart-charging heuristic (Section 4.3).
//!
//! Smart charging opportunistically charges a battery-backed device whenever
//! the grid's instantaneous carbon intensity falls below a threshold. The
//! threshold is the P-th percentile of the *previous day's* intensities,
//! where P is the fraction of time the device needs to spend charging to
//! sustain its load. Regardless of grid conditions, the device charges
//! whenever its battery drops below a safety floor (25 % in the paper) so it
//! always retains backup capacity.

use junkyard_carbon::units::{CarbonIntensity, Watts};
use junkyard_devices::battery::BatterySpec;

use crate::trace_ext::DayStats;

/// Tunable parameters of the smart-charging policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmartChargePolicy {
    min_charge_fraction: f64,
    percentile_headroom: f64,
}

impl SmartChargePolicy {
    /// The paper's policy: charge below the 25 % floor unconditionally, and
    /// add a small headroom to the charging-time percentile so transient
    /// intensity spikes do not starve the battery.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            min_charge_fraction: 0.25,
            percentile_headroom: 1.25,
        }
    }

    /// Creates a policy with a custom battery floor and percentile headroom
    /// multiplier.
    ///
    /// # Panics
    ///
    /// Panics if the floor is outside `[0, 1]` or the headroom is below 1.
    #[must_use]
    pub fn new(min_charge_fraction: f64, percentile_headroom: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&min_charge_fraction),
            "battery floor must be in [0, 1]"
        );
        assert!(percentile_headroom >= 1.0, "headroom must be at least 1.0");
        Self {
            min_charge_fraction,
            percentile_headroom,
        }
    }

    /// The battery floor below which the device charges unconditionally.
    #[must_use]
    pub fn min_charge_fraction(self) -> f64 {
        self.min_charge_fraction
    }

    /// Fraction of time the device must spend plugged in to sustain
    /// `device_power` given the pack's charging rate: `P` in the paper's
    /// threshold rule.
    ///
    /// While plugged in the wall supplies both the device and the charger,
    /// so the battery *stores* `max_charge_power x charge_efficiency` (the
    /// charger rating is wall-side) and loses `device_power` during the
    /// rest of the cycle; a lossy pack therefore needs a proportionally
    /// larger charging share.
    #[must_use]
    pub fn required_charging_fraction(self, device_power: Watts, battery: BatterySpec) -> f64 {
        let stored = battery.max_charge_power().value() * battery.charge_efficiency();
        let load = device_power.value();
        if stored <= 0.0 {
            return 1.0;
        }
        (load / (load + stored)).clamp(0.0, 1.0)
    }

    /// The percentile (0–100) the threshold rule evaluates: the required
    /// charging fraction with headroom, clamped to `[1, 100]`.
    #[must_use]
    pub fn charging_percentile(self, device_power: Watts, battery: BatterySpec) -> f64 {
        let fraction =
            self.required_charging_fraction(device_power, battery) * self.percentile_headroom;
        (fraction * 100.0).clamp(1.0, 100.0)
    }

    /// The charging threshold for a day, given the previous day's intensity
    /// statistics: the `P`-th percentile (with headroom) of yesterday's
    /// intensities.
    #[must_use]
    pub fn threshold(
        self,
        previous_day: &DayStats,
        device_power: Watts,
        battery: BatterySpec,
    ) -> CarbonIntensity {
        previous_day.percentile(self.charging_percentile(device_power, battery))
    }

    /// Decides whether to charge right now.
    #[must_use]
    pub fn should_charge(
        self,
        state_of_charge: f64,
        current_intensity: CarbonIntensity,
        threshold: CarbonIntensity,
    ) -> ChargeDecision {
        if state_of_charge < self.min_charge_fraction {
            ChargeDecision::ChargeForBackup
        } else if state_of_charge < 1.0
            && current_intensity.grams_per_kwh() <= threshold.grams_per_kwh()
        {
            ChargeDecision::ChargeGreen
        } else {
            ChargeDecision::RunFromBattery
        }
    }
}

impl Default for SmartChargePolicy {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Outcome of one smart-charging decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeDecision {
    /// Plug in because the grid is currently green enough.
    ChargeGreen,
    /// Plug in because the battery fell below the backup floor.
    ChargeForBackup,
    /// Stay on battery.
    RunFromBattery,
}

impl ChargeDecision {
    /// `true` if the decision plugs the device into the wall.
    #[must_use]
    pub fn is_charging(self) -> bool {
        !matches!(self, ChargeDecision::RunFromBattery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use junkyard_carbon::units::TimeSpan;
    use junkyard_grid::trace::IntensityTrace;

    fn ramp_day() -> DayStats {
        let values = (0..288)
            .map(|i| CarbonIntensity::from_grams_per_kwh(100.0 + i as f64))
            .collect();
        DayStats::from_trace(&IntensityTrace::new(TimeSpan::from_minutes(5.0), values))
    }

    #[test]
    fn pixel_needs_to_charge_about_8_percent_of_the_time() {
        let policy = SmartChargePolicy::paper_default();
        let fraction = policy.required_charging_fraction(Watts::new(1.54), BatterySpec::pixel_3a());
        assert!(fraction > 0.06 && fraction < 0.10, "got {fraction}");
    }

    #[test]
    fn laptop_needs_a_larger_charging_share() {
        let policy = SmartChargePolicy::paper_default();
        let pixel = policy.required_charging_fraction(Watts::new(1.54), BatterySpec::pixel_3a());
        let laptop = policy
            .required_charging_fraction(Watts::new(11.47), BatterySpec::thinkpad_x1_carbon_g3());
        assert!(laptop > pixel);
    }

    #[test]
    fn lossy_packs_need_a_larger_charging_share() {
        // Regression: the fraction must size against the *stored* rate —
        // a 50%-efficient charger banks half the wall power, doubling the
        // effective plugged-in time the policy budgets for.
        let policy = SmartChargePolicy::paper_default();
        let load = Watts::new(1.54);
        let lossless = policy.required_charging_fraction(load, BatterySpec::pixel_3a());
        let lossy = policy
            .required_charging_fraction(load, BatterySpec::pixel_3a().with_charge_efficiency(0.5));
        assert!(lossy > lossless, "lossy {lossy} vs lossless {lossless}");
        let expected = 1.54 / (1.54 + 18.0 * 0.5);
        assert!((lossy - expected).abs() < 1e-12);
    }

    #[test]
    fn threshold_sits_near_the_clean_tail() {
        let policy = SmartChargePolicy::paper_default();
        let threshold = policy.threshold(&ramp_day(), Watts::new(1.54), BatterySpec::pixel_3a());
        // ~10th percentile of a 100..388 ramp is ~130.
        assert!(threshold.grams_per_kwh() < 160.0, "got {threshold}");
        assert!(threshold.grams_per_kwh() > 100.0);
    }

    #[test]
    fn decisions_follow_the_rules() {
        let policy = SmartChargePolicy::paper_default();
        let threshold = CarbonIntensity::from_grams_per_kwh(200.0);
        let clean = CarbonIntensity::from_grams_per_kwh(150.0);
        let dirty = CarbonIntensity::from_grams_per_kwh(300.0);
        assert_eq!(
            policy.should_charge(0.5, clean, threshold),
            ChargeDecision::ChargeGreen
        );
        assert_eq!(
            policy.should_charge(0.5, dirty, threshold),
            ChargeDecision::RunFromBattery
        );
        assert_eq!(
            policy.should_charge(0.10, dirty, threshold),
            ChargeDecision::ChargeForBackup
        );
        // A full battery never green-charges.
        assert_eq!(
            policy.should_charge(1.0, clean, threshold),
            ChargeDecision::RunFromBattery
        );
        assert!(ChargeDecision::ChargeGreen.is_charging());
        assert!(!ChargeDecision::RunFromBattery.is_charging());
    }

    #[test]
    #[should_panic(expected = "battery floor")]
    fn invalid_floor_panics() {
        let _ = SmartChargePolicy::new(1.5, 1.0);
    }
}
