//! Operational carbon accounting — the `C_C` (compute) and `C_N`
//! (networking) terms of CCI.
//!
//! Both terms are "energy times grid carbon intensity" (Eqs. 3–5 and 11 of
//! the paper); they differ only in how the energy is derived: compute energy
//! comes from the device's average electrical power over the workload mix,
//! networking energy comes from a sustained data rate and a per-byte energy
//! intensity (5 µJ/byte WiFi, 11 µJ/byte LTE in Section 5.2).

use crate::units::{CarbonIntensity, DataRate, EnergyPerByte, GramsCo2e, Joules, TimeSpan, Watts};

/// Carbon released by powering a device drawing `average_power` for
/// `lifetime` on a grid of the given carbon intensity (Eq. 11).
#[must_use]
pub fn compute_carbon(
    grid: CarbonIntensity,
    average_power: Watts,
    lifetime: TimeSpan,
) -> GramsCo2e {
    grid.emissions_for(average_power * lifetime)
}

/// Energy consumed moving data at `rate` for `lifetime` with the given
/// per-byte energy intensity.
#[must_use]
pub fn network_energy(
    rate: DataRate,
    energy_per_byte: EnergyPerByte,
    lifetime: TimeSpan,
) -> Joules {
    energy_per_byte.energy_for(rate.volume_over(lifetime))
}

/// Carbon released by the networking activity of a cluster (Eq. 5).
#[must_use]
pub fn network_carbon(
    grid: CarbonIntensity,
    rate: DataRate,
    energy_per_byte: EnergyPerByte,
    lifetime: TimeSpan,
) -> GramsCo2e {
    grid.emissions_for(network_energy(rate, energy_per_byte, lifetime))
}

/// A networking profile: how much data the system moves and what each byte
/// costs in energy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetworkProfile {
    rate: DataRate,
    energy_per_byte: EnergyPerByte,
}

impl NetworkProfile {
    /// A system that does no accounted networking (`C_N = 0`), as in the
    /// paper's single-device analysis.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Creates a networking profile from a sustained rate and a per-byte
    /// energy intensity.
    #[must_use]
    pub fn new(rate: DataRate, energy_per_byte: EnergyPerByte) -> Self {
        Self {
            rate,
            energy_per_byte,
        }
    }

    /// WiFi networking at the paper's 5 µJ/byte.
    #[must_use]
    pub fn wifi(rate: DataRate) -> Self {
        Self::new(rate, EnergyPerByte::from_microjoules_per_byte(5.0))
    }

    /// LTE networking at the paper's 11 µJ/byte.
    #[must_use]
    pub fn lte(rate: DataRate) -> Self {
        Self::new(rate, EnergyPerByte::from_microjoules_per_byte(11.0))
    }

    /// The sustained data rate.
    #[must_use]
    pub fn rate(self) -> DataRate {
        self.rate
    }

    /// The per-byte energy intensity.
    #[must_use]
    pub fn energy_per_byte(self) -> EnergyPerByte {
        self.energy_per_byte
    }

    /// Average electrical power dedicated to networking under this profile.
    #[must_use]
    pub fn average_power(self) -> Watts {
        Watts::new(self.rate.bytes_per_sec() * self.energy_per_byte.joules_per_byte())
    }

    /// Carbon released over `lifetime` on a grid with intensity `grid`.
    #[must_use]
    pub fn carbon_over(self, grid: CarbonIntensity, lifetime: TimeSpan) -> GramsCo2e {
        network_carbon(grid, self.rate, self.energy_per_byte, lifetime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_carbon_matches_hand_calculation() {
        // 308.7 W for one year on the 257 gCO2e/kWh California mix:
        // 308.7 W * 8766 h = 2706.1 kWh -> 695.5 kgCO2e.
        let c = compute_carbon(
            CarbonIntensity::from_grams_per_kwh(257.0),
            Watts::new(308.7),
            TimeSpan::from_years(1.0),
        );
        assert!((c.kilograms() - 695.5).abs() < 1.0);
    }

    #[test]
    fn network_carbon_scales_linearly_with_rate() {
        let grid = CarbonIntensity::from_grams_per_kwh(257.0);
        let life = TimeSpan::from_years(1.0);
        let one = network_carbon(
            grid,
            DataRate::from_megabits_per_sec(100.0),
            EnergyPerByte::from_microjoules_per_byte(5.0),
            life,
        );
        let two = network_carbon(
            grid,
            DataRate::from_megabits_per_sec(200.0),
            EnergyPerByte::from_microjoules_per_byte(5.0),
            life,
        );
        assert!((two.grams() / one.grams() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn wifi_cheaper_than_lte_per_byte() {
        let rate = DataRate::from_megabits_per_sec(100.0);
        let grid = CarbonIntensity::from_grams_per_kwh(257.0);
        let life = TimeSpan::from_days(30.0);
        let wifi = NetworkProfile::wifi(rate).carbon_over(grid, life);
        let lte = NetworkProfile::lte(rate).carbon_over(grid, life);
        assert!(lte > wifi);
        assert!((lte.grams() / wifi.grams() - 11.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn none_profile_is_zero() {
        let grid = CarbonIntensity::from_grams_per_kwh(500.0);
        assert_eq!(
            NetworkProfile::none().carbon_over(grid, TimeSpan::from_years(3.0)),
            GramsCo2e::ZERO
        );
    }

    #[test]
    fn network_average_power() {
        // 0.1 Gbps at 5 uJ/byte = 12.5 MB/s * 5e-6 J/B = 62.5 W.
        let p = NetworkProfile::wifi(DataRate::from_gigabits_per_sec(0.1)).average_power();
        assert!((p.value() - 62.5).abs() < 1e-9);
    }

    #[test]
    fn zero_carbon_grid_has_no_operational_emissions() {
        let c = compute_carbon(
            CarbonIntensity::ZERO,
            Watts::new(500.0),
            TimeSpan::from_years(5.0),
        );
        assert_eq!(c, GramsCo2e::ZERO);
    }
}
