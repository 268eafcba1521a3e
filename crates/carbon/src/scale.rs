//! Facility-scale metrics: PUE and the datacenter-scale CCI form.
//!
//! Section 5.3 of the paper evaluates a hypothetical 50 MW datacenter built
//! from either PowerEdge servers or Pixel 3A clusters. Power Usage
//! Effectiveness (Eq. 14) captures the facility overhead (cooling, lighting)
//! relative to IT power; the datacenter CCI (Eq. 15) multiplies the
//! operational terms by PUE before amortising over work.

use std::fmt;

use crate::units::Watts;

/// Power Usage Effectiveness of a facility (Eq. 14).
///
/// `PUE = (P_IT + P_cooling + P_lighting) / P_IT`, with 1.0 as the ideal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pue {
    it: Watts,
    cooling: Watts,
    lighting: Watts,
}

impl Pue {
    /// Creates a PUE computation from the facility's power components.
    ///
    /// # Panics
    ///
    /// Panics if the IT power is not strictly positive or any component is
    /// negative.
    #[must_use]
    pub fn new(it: Watts, cooling: Watts, lighting: Watts) -> Self {
        assert!(it.value() > 0.0, "IT power must be positive");
        assert!(
            cooling.value() >= 0.0 && lighting.value() >= 0.0,
            "facility power components cannot be negative"
        );
        Self {
            it,
            cooling,
            lighting,
        }
    }

    /// Total facility power.
    #[must_use]
    pub fn total_power(self) -> Watts {
        self.it + self.cooling + self.lighting
    }

    /// The PUE value (≥ 1.0).
    #[must_use]
    pub fn value(self) -> f64 {
        self.total_power() / self.it
    }
}

impl fmt::Display for Pue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PUE {:.2}", self.value())
    }
}

/// Simple facility-overhead model used to estimate cooling and lighting from
/// the IT load and the floor space it occupies, following the methodology
/// the paper cites for its 50 MW comparison.
///
/// * Cooling power scales with IT power by `cooling_per_watt`.
/// * Lighting power scales with floor space by `lighting_per_rack_unit`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FacilityModel {
    cooling_per_watt: f64,
    lighting_watts_per_rack_unit: f64,
}

impl FacilityModel {
    /// Creates a facility model.
    ///
    /// # Panics
    ///
    /// Panics if either coefficient is negative.
    #[must_use]
    pub fn new(cooling_per_watt: f64, lighting_watts_per_rack_unit: f64) -> Self {
        assert!(
            cooling_per_watt >= 0.0 && lighting_watts_per_rack_unit >= 0.0,
            "facility coefficients cannot be negative"
        );
        Self {
            cooling_per_watt,
            lighting_watts_per_rack_unit,
        }
    }

    /// A default air-cooled datacenter model: cooling draws ~30 % of IT power
    /// and lighting roughly 1 W per occupied rack unit. These coefficients
    /// reproduce the paper's PUE of about 1.31 for the server design and a
    /// slightly higher 1.32 for the roomier phone design.
    #[must_use]
    pub fn air_cooled_default() -> Self {
        Self::new(0.30, 1.0)
    }

    /// Estimates the facility PUE for `units` deployed units, each drawing
    /// `unit_power` and occupying `rack_units_per_unit` of space.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero or `unit_power` is not positive.
    #[must_use]
    pub fn pue_for(self, units: u64, unit_power: Watts, rack_units_per_unit: f64) -> Pue {
        assert!(units > 0, "a facility needs at least one unit");
        let it = unit_power * crate::convert::wide_count_f64(units);
        let cooling = it * self.cooling_per_watt;
        let lighting = Watts::new(
            self.lighting_watts_per_rack_unit
                * rack_units_per_unit
                * crate::convert::wide_count_f64(units),
        );
        Pue::new(it, cooling, lighting)
    }
}

impl Default for FacilityModel {
    fn default() -> Self {
        Self::air_cooled_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_facility_has_pue_one() {
        let pue = Pue::new(Watts::new(100_000.0), Watts::ZERO, Watts::ZERO);
        assert!((pue.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pue_formula() {
        let pue = Pue::new(Watts::new(100.0), Watts::new(25.0), Watts::new(5.0));
        assert!((pue.value() - 1.3).abs() < 1e-12);
        assert!((pue.total_power().value() - 130.0).abs() < 1e-12);
        assert!(pue.to_string().contains("1.30"));
    }

    #[test]
    #[should_panic(expected = "IT power must be positive")]
    fn zero_it_power_panics() {
        let _ = Pue::new(Watts::ZERO, Watts::new(1.0), Watts::ZERO);
    }

    #[test]
    fn facility_model_space_penalty() {
        // The phone design draws less per unit but occupies the same 2U of
        // space, so its lighting overhead weighs relatively more and its PUE
        // ends up slightly above the server design's — the paper's 1.32 vs
        // 1.31 observation.
        let model = FacilityModel::air_cooled_default();
        let server = model.pue_for(170_000, Watts::new(308.0), 2.0);
        let phones = model.pue_for(170_000, Watts::new(84.0), 2.0);
        assert!(phones.value() > server.value());
        assert!(
            server.value() > 1.25 && server.value() < 1.35,
            "server {}",
            server.value()
        );
        assert!(
            phones.value() > 1.28 && phones.value() < 1.40,
            "phones {}",
            phones.value()
        );
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn facility_with_no_units_panics() {
        let _ = FacilityModel::default().pue_for(0, Watts::new(100.0), 2.0);
    }
}
