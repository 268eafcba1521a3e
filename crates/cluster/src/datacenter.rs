//! Datacenter-scale provisioning and PUE (Section 5.3).
//!
//! The paper compares a 50 MW facility built from PowerEdge R740 servers
//! against one built from 54-phone Pixel 3A clusters: 170,000 units either
//! way, each occupying 2U of rack space, with PUEs of about 1.31 and 1.32
//! respectively.

use std::fmt;

use junkyard_carbon::scale::{FacilityModel, Pue};
use junkyard_carbon::units::Watts;

/// A warehouse-scale deployment of identical units.
#[derive(Debug, Clone, PartialEq)]
pub struct DatacenterDesign {
    name: String,
    unit_power: Watts,
    unit_count: u64,
    rack_units_per_unit: f64,
}

impl DatacenterDesign {
    /// Creates a datacenter of `unit_count` units each drawing `unit_power`
    /// and occupying `rack_units_per_unit` of rack space.
    ///
    /// # Panics
    ///
    /// Panics if the unit count is zero or the unit power is not positive.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        unit_power: Watts,
        unit_count: u64,
        rack_units_per_unit: f64,
    ) -> Self {
        assert!(unit_count > 0, "a datacenter needs at least one unit");
        assert!(unit_power.value() > 0.0, "unit power must be positive");
        Self {
            name: name.into(),
            unit_power,
            unit_count,
            rack_units_per_unit,
        }
    }

    /// The paper's 170,000-unit PowerEdge design (308 W per unit, 2U each).
    #[must_use]
    pub fn paper_server_datacenter() -> Self {
        Self::new("PowerEdge 50 MW", Watts::new(308.0), 170_000, 2.0)
    }

    /// The paper's 170,000-unit Pixel-cluster design (84 W per 54-phone
    /// cluster, 2U each — leaving 75 % of the space empty).
    #[must_use]
    pub fn paper_phone_datacenter() -> Self {
        Self::new("Pixel 3A cluster 50 MW", Watts::new(84.0), 170_000, 2.0)
    }

    /// Design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of deployed units.
    #[must_use]
    pub fn unit_count(&self) -> u64 {
        self.unit_count
    }

    /// Total IT power of the facility.
    #[must_use]
    pub fn it_power(&self) -> Watts {
        self.unit_power * self.unit_count as f64
    }

    /// The facility PUE (Eq. 14), under the paper's air-cooled overheads.
    #[must_use]
    pub fn pue(&self) -> Pue {
        FacilityModel::air_cooled_default().pue_for(
            self.unit_count,
            self.unit_power,
            self.rack_units_per_unit,
        )
    }
}

impl fmt::Display for DatacenterDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} units, {:.1} MW IT, {}",
            self.name,
            self.unit_count,
            self.it_power().value() / 1e6,
            self.pue()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pue_values() {
        let server = DatacenterDesign::paper_server_datacenter().pue().value();
        let phones = DatacenterDesign::paper_phone_datacenter().pue().value();
        // Paper: 1.31 for the server design, 1.32 for the phone design.
        assert!((server - 1.31).abs() < 0.03, "server PUE {server}");
        assert!((phones - 1.32).abs() < 0.03, "phone PUE {phones}");
        assert!(phones > server);
    }

    #[test]
    fn it_power_is_units_times_unit_power() {
        let dc = DatacenterDesign::paper_server_datacenter();
        assert!((dc.it_power().value() / 1e6 - 52.36).abs() < 0.01);
        assert_eq!(dc.unit_count(), 170_000);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn empty_datacenter_panics() {
        let _ = DatacenterDesign::new("x", Watts::new(100.0), 0, 2.0);
    }

    #[test]
    fn display_mentions_pue() {
        assert!(DatacenterDesign::paper_server_datacenter()
            .to_string()
            .contains("PUE"));
    }
}
