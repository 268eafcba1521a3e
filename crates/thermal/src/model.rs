//! Lumped-parameter thermal models of phones and their enclosure.
//!
//! Section 4.1 of the paper stress-tests four Nexus 4s and one Nexus 5 in a
//! sealed Styrofoam box and observes: phones throttle as they warm, the
//! Nexus 4s shut themselves off at 75–80 °C internal temperature (when the
//! box air reaches about 40 °C), and the per-device thermal power stays well
//! below the 5 W thermal design point. The models here follow the paper's
//! own simplification (footnote 3): each phone is a block of silicon-like
//! material exchanging heat with a uniform body of enclosed air.

/// Specific heat capacity of air at constant pressure, J/(kg·K).
pub const AIR_SPECIFIC_HEAT: f64 = 1_005.0;
/// Density of air at room temperature, kg/m³.
pub const AIR_DENSITY: f64 = 1.20;
/// Specific heat capacity of silicon, J/(kg·K), used by the paper's Eq. 9.
pub const SILICON_SPECIFIC_HEAT: f64 = 705.0;

/// Thermal behaviour of one phone: heat capacity, coupling to the
/// surrounding air, and the throttle / shutdown set points of its firmware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhoneThermalModel {
    /// Effective thermal mass of the handset, J/K.
    heat_capacity: f64,
    /// Thermal conductance from the handset to the surrounding air, W/K.
    conductance_to_air: f64,
    /// Internal temperature at which throttling begins, °C.
    throttle_start: f64,
    /// Internal temperature at which throttling reaches its floor, °C.
    throttle_full: f64,
    /// Lowest fraction of full performance the governor will allow.
    min_performance: f64,
    /// Internal temperature at which the phone powers itself off, °C.
    shutdown_temp: f64,
    /// Equivalent silicon mass used in the paper's Eq. 9 estimate, kg.
    silicon_mass_kg: f64,
}

impl PhoneThermalModel {
    /// Creates a thermal model.
    ///
    /// # Panics
    ///
    /// Panics if any capacity/conductance/mass is not strictly positive, the
    /// throttle window is inverted, or `min_performance` is outside `(0, 1]`.
    #[must_use]
    pub fn new(
        heat_capacity: f64,
        conductance_to_air: f64,
        throttle_start: f64,
        throttle_full: f64,
        min_performance: f64,
        shutdown_temp: f64,
        silicon_mass_kg: f64,
    ) -> Self {
        assert!(heat_capacity > 0.0, "heat capacity must be positive");
        assert!(conductance_to_air > 0.0, "conductance must be positive");
        assert!(
            throttle_full > throttle_start,
            "throttle window must be increasing"
        );
        assert!(
            shutdown_temp > throttle_start,
            "shutdown must be above throttle start"
        );
        assert!(
            min_performance > 0.0 && min_performance <= 1.0,
            "minimum performance must be in (0, 1]"
        );
        assert!(silicon_mass_kg > 0.0, "silicon mass must be positive");
        Self {
            heat_capacity,
            conductance_to_air,
            throttle_start,
            throttle_full,
            min_performance,
            shutdown_temp,
            silicon_mass_kg,
        }
    }

    /// The Nexus 4 model: throttles from 45 °C, shuts down at ~77 °C
    /// internal (which the experiment reaches once the box air is ~40 °C).
    #[must_use]
    pub fn nexus_4() -> Self {
        Self::new(98.0, 0.060, 45.0, 70.0, 0.60, 77.0, 0.139)
    }

    /// The Nexus 5 model: slightly better heat spreading and a higher
    /// shutdown set point — it survived both of the paper's scenarios.
    #[must_use]
    pub fn nexus_5() -> Self {
        Self::new(92.0, 0.115, 45.0, 70.0, 0.40, 90.0, 0.130)
    }

    /// Effective thermal mass, J/K.
    #[must_use]
    pub fn heat_capacity(&self) -> f64 {
        self.heat_capacity
    }

    /// Conductance from handset to air, W/K.
    #[must_use]
    pub fn conductance_to_air(&self) -> f64 {
        self.conductance_to_air
    }

    /// Equivalent silicon mass for Eq. 9, kg.
    #[must_use]
    pub fn silicon_mass_kg(&self) -> f64 {
        self.silicon_mass_kg
    }

    /// Performance fraction the thermal governor allows at the given
    /// internal temperature: 1.0 below the throttle-start temperature,
    /// dropping linearly to the floor at the throttle-full temperature.
    #[must_use]
    pub fn performance_at(&self, internal_temp: f64) -> f64 {
        if internal_temp <= self.throttle_start {
            1.0
        } else if internal_temp >= self.throttle_full {
            self.min_performance
        } else {
            let span = self.throttle_full - self.throttle_start;
            let frac = (internal_temp - self.throttle_start) / span;
            1.0 - frac * (1.0 - self.min_performance)
        }
    }

    /// `true` once the internal temperature has reached the shutdown point.
    #[must_use]
    pub fn should_shut_down(&self, internal_temp: f64) -> bool {
        internal_temp >= self.shutdown_temp
    }
}

/// The sealed enclosure the phones sit in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Enclosure {
    /// Interior volume, m³.
    volume_m3: f64,
    /// Extra thermal mass of the walls and fittings, J/K.
    wall_heat_capacity: f64,
    /// Conductance from the enclosed air to the ambient, W/K.
    conductance_to_ambient: f64,
    /// Ambient temperature outside the box, °C.
    ambient_temp: f64,
}

impl Enclosure {
    /// Creates an enclosure.
    ///
    /// # Panics
    ///
    /// Panics if the volume or conductance is not strictly positive or the
    /// wall heat capacity is negative.
    #[must_use]
    pub fn new(
        volume_m3: f64,
        wall_heat_capacity: f64,
        conductance_to_ambient: f64,
        ambient_temp: f64,
    ) -> Self {
        assert!(volume_m3 > 0.0, "enclosure volume must be positive");
        assert!(
            wall_heat_capacity >= 0.0,
            "wall heat capacity cannot be negative"
        );
        assert!(conductance_to_ambient > 0.0, "conductance must be positive");
        Self {
            volume_m3,
            wall_heat_capacity,
            conductance_to_ambient,
            ambient_temp,
        }
    }

    /// The paper's sealed 5 × 15 × 10.5 inch Styrofoam box at a 25 °C
    /// ambient.
    #[must_use]
    pub fn paper_styrofoam_box() -> Self {
        // 5 in × 15 in × 10.5 in = 787.5 in³ ≈ 0.0129 m³.
        Self::new(0.0129, 300.0, 0.16, 25.0)
    }

    /// Mass of the enclosed air, kg.
    #[must_use]
    pub fn air_mass_kg(&self) -> f64 {
        self.volume_m3 * AIR_DENSITY
    }

    /// Total effective heat capacity of the enclosed air plus walls, J/K.
    #[must_use]
    pub fn heat_capacity(&self) -> f64 {
        self.air_mass_kg() * AIR_SPECIFIC_HEAT + self.wall_heat_capacity
    }

    /// Conductance from the enclosed air to ambient, W/K.
    #[must_use]
    pub fn conductance_to_ambient(&self) -> f64 {
        self.conductance_to_ambient
    }

    /// Ambient temperature, °C.
    #[must_use]
    pub fn ambient_temp(&self) -> f64 {
        self.ambient_temp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governor_is_full_speed_when_cool() {
        let m = PhoneThermalModel::nexus_4();
        assert_eq!(m.performance_at(30.0), 1.0);
        assert_eq!(m.performance_at(45.0), 1.0);
    }

    #[test]
    fn governor_degrades_linearly_then_floors() {
        let m = PhoneThermalModel::nexus_4();
        let mid = m.performance_at(57.5);
        assert!(mid < 1.0 && mid > 0.60);
        assert_eq!(m.performance_at(80.0), 0.60);
        // Monotone non-increasing.
        let mut prev = 1.0;
        for t in 30..90 {
            let p = m.performance_at(f64::from(t));
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }

    #[test]
    fn shutdown_thresholds_match_paper_observations() {
        let n4 = PhoneThermalModel::nexus_4();
        assert!(n4.should_shut_down(78.0));
        assert!(!n4.should_shut_down(70.0));
        // The Nexus 5 tolerates more.
        assert!(PhoneThermalModel::nexus_5().shutdown_temp > n4.shutdown_temp);
    }

    #[test]
    fn paper_box_dimensions() {
        let b = Enclosure::paper_styrofoam_box();
        assert!((b.volume_m3 - 0.0129).abs() < 1e-4);
        assert!(b.air_mass_kg() < 0.02);
        assert!(b.heat_capacity() > b.air_mass_kg() * AIR_SPECIFIC_HEAT);
        assert_eq!(b.ambient_temp(), 25.0);
    }

    #[test]
    #[should_panic(expected = "throttle window")]
    fn inverted_throttle_window_panics() {
        let _ = PhoneThermalModel::new(100.0, 0.1, 60.0, 50.0, 0.5, 80.0, 0.03);
    }

    #[test]
    #[should_panic(expected = "volume must be positive")]
    fn zero_volume_panics() {
        let _ = Enclosure::new(0.0, 100.0, 0.1, 25.0);
    }
}
