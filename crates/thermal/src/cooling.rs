//! Cloudlet cooling sizing: how many COTS server fans a phone cluster needs.
//!
//! Section 4.1 of the paper: 256 Nexus 4s at full load dissipate about
//! 666 W of heat, within the capability of two commodity 500 W-rated server
//! fans, each adding 4 W of electrical draw and ~9.3 kgCO2e of embodied
//! carbon.

use junkyard_carbon::units::{GramsCo2e, Watts};

/// A commodity server fan used to cool a phone cloudlet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerFan {
    rated_cooling: Watts,
    embodied: GramsCo2e,
}

impl ServerFan {
    /// Creates a fan specification.
    ///
    /// # Panics
    ///
    /// Panics if the rated cooling capacity is not strictly positive.
    #[must_use]
    pub fn new(rated_cooling: Watts, embodied: GramsCo2e) -> Self {
        assert!(
            rated_cooling.value() > 0.0,
            "cooling capacity must be positive"
        );
        Self {
            rated_cooling,
            embodied,
        }
    }

    /// The paper's commodity fan: rated for 500 W of heat, embodying about
    /// 9.3 kgCO2e.
    #[must_use]
    pub fn paper_cots_fan() -> Self {
        Self::new(Watts::new(500.0), GramsCo2e::from_kilograms(9.3))
    }

    /// Heat the fan is rated to remove.
    #[must_use]
    pub fn rated_cooling(self) -> Watts {
        self.rated_cooling
    }

    /// Embodied carbon of one fan.
    #[must_use]
    pub fn embodied(self) -> GramsCo2e {
        self.embodied
    }
}

impl Default for ServerFan {
    fn default() -> Self {
        Self::paper_cots_fan()
    }
}

/// A cooling plan: how many fans a cluster needs and what they cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoolingPlan {
    fan: ServerFan,
    fans_needed: u32,
    heat_load: Watts,
}

impl CoolingPlan {
    /// Sizes cooling for a cluster of `device_count` devices, each
    /// dissipating `per_device_heat`.
    ///
    /// # Panics
    ///
    /// Panics if `per_device_heat` is negative.
    #[must_use]
    pub fn for_cluster(fan: ServerFan, device_count: u32, per_device_heat: Watts) -> Self {
        assert!(
            per_device_heat.value() >= 0.0,
            "heat load cannot be negative"
        );
        let heat_load = per_device_heat * f64::from(device_count);
        let fans_needed = if heat_load.value() <= 0.0 {
            0
        } else {
            (heat_load.value() / fan.rated_cooling().value()).ceil() as u32
        };
        Self {
            fan,
            fans_needed,
            heat_load,
        }
    }

    /// Total heat load being removed.
    #[must_use]
    pub fn heat_load(self) -> Watts {
        self.heat_load
    }

    /// Number of fans required.
    #[must_use]
    pub fn fans_needed(self) -> u32 {
        self.fans_needed
    }

    /// Total embodied carbon of the fans.
    #[must_use]
    pub fn embodied(self) -> GramsCo2e {
        self.fan.embodied() * f64::from(self.fans_needed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_256_nexus4_cluster_needs_two_fans() {
        // 256 phones at ~2.6 W of thermal power each ≈ 666 W of heat.
        let plan = CoolingPlan::for_cluster(ServerFan::paper_cots_fan(), 256, Watts::new(2.6));
        assert!((plan.heat_load().value() - 665.6).abs() < 0.1);
        assert_eq!(plan.fans_needed(), 2);
        assert!((plan.embodied().kilograms() - 18.6).abs() < 1e-9);
    }

    #[test]
    fn small_cloudlet_needs_one_fan() {
        // The ten-phone cloudlet of Section 6.3 at 1.7 W per phone.
        let plan = CoolingPlan::for_cluster(ServerFan::paper_cots_fan(), 10, Watts::new(1.7));
        assert_eq!(plan.fans_needed(), 1);
    }

    #[test]
    fn zero_heat_needs_no_fans() {
        let plan = CoolingPlan::for_cluster(ServerFan::paper_cots_fan(), 100, Watts::ZERO);
        assert_eq!(plan.fans_needed(), 0);
        assert_eq!(plan.embodied(), GramsCo2e::ZERO);
    }

    #[test]
    fn fans_scale_with_heat() {
        let small = CoolingPlan::for_cluster(ServerFan::paper_cots_fan(), 54, Watts::new(2.0));
        let large = CoolingPlan::for_cluster(ServerFan::paper_cots_fan(), 540, Watts::new(2.0));
        assert!(large.fans_needed() > small.fans_needed());
        assert_eq!(small.fans_needed(), 1);
        assert_eq!(large.fans_needed(), 3);
    }

    #[test]
    #[should_panic(expected = "cooling capacity must be positive")]
    fn zero_capacity_fan_panics() {
        let _ = ServerFan::new(Watts::ZERO, GramsCo2e::ZERO);
    }
}
