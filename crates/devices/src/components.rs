//! Per-component embodied-carbon breakdowns (Table 3 of the paper).
//!
//! The paper attributes a smartphone's embodied carbon to its subcomponents
//! (compute, network, battery, display, storage, sensors, other) so that a
//! Reuse Factor can be computed for a given second-life role. The fractions
//! are acknowledged to be rough; we store the absolute kgCO2e attributions
//! and derive fractions from them.

use std::collections::BTreeMap;
use std::fmt;

use junkyard_carbon::reuse::{ComponentUse, ReuseFactor};
use junkyard_carbon::units::GramsCo2e;

/// Functional subcomponent categories of a consumer device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Component {
    /// SoC and RAM.
    Compute,
    /// Cellular modem, WiFi and Bluetooth radios.
    Network,
    /// Battery pack and power-management ICs.
    Battery,
    /// Screen and touch assembly.
    Display,
    /// Flash storage.
    Storage,
    /// Cameras, microphones, accelerometers, audio codecs.
    Sensors,
    /// PCB, chassis, packaging and remaining ICs.
    Other,
}

impl Component {
    /// All component categories, in Table 3 order.
    pub const ALL: [Component; 7] = [
        Component::Compute,
        Component::Network,
        Component::Battery,
        Component::Display,
        Component::Storage,
        Component::Sensors,
        Component::Other,
    ];

    /// Human-readable category name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Component::Compute => "Compute",
            Component::Network => "Network",
            Component::Battery => "Battery",
            Component::Display => "Display",
            Component::Storage => "Storage",
            Component::Sensors => "Sensors",
            Component::Other => "Other",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Embodied carbon attributed to each subcomponent of a device.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComponentBreakdown {
    parts: BTreeMap<Component, GramsCo2e>,
}

impl ComponentBreakdown {
    /// Creates an empty breakdown.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or accumulates onto) a component's embodied carbon
    /// (builder style).
    #[must_use]
    pub fn with(mut self, component: Component, carbon: GramsCo2e) -> Self {
        self.add(component, carbon);
        self
    }

    /// Adds (or accumulates onto) a component's embodied carbon in place.
    pub fn add(&mut self, component: Component, carbon: GramsCo2e) {
        let entry = self.parts.entry(component).or_insert(GramsCo2e::ZERO);
        *entry += carbon;
    }

    /// The Nexus 4 breakdown of Table 3 (working estimates).
    #[must_use]
    pub fn nexus_4() -> Self {
        Self::new()
            .with(Component::Compute, GramsCo2e::from_kilograms(12.5))
            .with(Component::Network, GramsCo2e::from_kilograms(7.5))
            .with(Component::Battery, GramsCo2e::from_kilograms(7.5))
            .with(Component::Display, GramsCo2e::from_kilograms(5.0))
            .with(Component::Storage, GramsCo2e::from_kilograms(4.0))
            .with(Component::Sensors, GramsCo2e::from_kilograms(3.0))
            .with(Component::Other, GramsCo2e::from_kilograms(10.0))
    }

    /// Scales the Table 3 Nexus 4 *fractions* to a device with the given
    /// total embodied carbon. Useful for phones without their own published
    /// component-level LCA (for example the Pixel 3A).
    #[must_use]
    pub fn scaled_like_nexus_4(total: GramsCo2e) -> Self {
        let reference = Self::nexus_4();
        let reference_total = reference.total();
        let mut scaled = Self::new();
        for (component, carbon) in reference.iter() {
            let fraction = carbon.grams() / reference_total.grams();
            scaled.add(component, total * fraction);
        }
        scaled
    }

    /// Embodied carbon of one component, zero if absent.
    #[must_use]
    pub fn carbon_of(&self, component: Component) -> GramsCo2e {
        self.parts
            .get(&component)
            .copied()
            .unwrap_or(GramsCo2e::ZERO)
    }

    /// Fraction of the device's total embodied carbon attributed to
    /// `component`. Returns `None` if the breakdown is empty.
    #[must_use]
    pub fn fraction_of(&self, component: Component) -> Option<f64> {
        let total = self.total().grams();
        if total > 0.0 {
            Some(self.carbon_of(component).grams() / total)
        } else {
            None
        }
    }

    /// Total embodied carbon across all components.
    #[must_use]
    pub fn total(&self) -> GramsCo2e {
        self.parts.values().sum()
    }

    /// Iterates over `(component, carbon)` pairs in category order.
    pub fn iter(&self) -> impl Iterator<Item = (Component, GramsCo2e)> + '_ {
        self.parts.iter().map(|(c, g)| (*c, *g))
    }

    /// Builds the Eq. 8 Reuse Factor for a second-life role that exercises
    /// exactly the components in `reused`.
    #[must_use]
    pub fn reuse_factor(&self, reused: &[Component]) -> ReuseFactor {
        self.iter()
            .map(|(component, carbon)| {
                ComponentUse::new(component.name(), carbon, reused.contains(&component))
            })
            .collect()
    }

    /// The component set a headless compute node exercises: everything
    /// except the display and sensors (the paper's cloudlet example,
    /// RF ≈ 0.85).
    #[must_use]
    pub fn compute_node_role() -> Vec<Component> {
        vec![
            Component::Compute,
            Component::Network,
            Component::Battery,
            Component::Storage,
            Component::Other,
        ]
    }
}

impl FromIterator<(Component, GramsCo2e)> for ComponentBreakdown {
    fn from_iter<T: IntoIterator<Item = (Component, GramsCo2e)>>(iter: T) -> Self {
        let mut breakdown = Self::new();
        for (component, carbon) in iter {
            breakdown.add(component, carbon);
        }
        breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nexus4_total_is_about_50_kg() {
        let total = ComponentBreakdown::nexus_4().total();
        assert!((total.kilograms() - 49.5).abs() < 1e-9);
    }

    #[test]
    fn compute_fraction_matches_table3() {
        let b = ComponentBreakdown::nexus_4();
        let frac = b.fraction_of(Component::Compute).unwrap();
        assert!((frac - 0.2525).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn compute_node_reuse_factor_is_about_085() {
        let rf = ComponentBreakdown::nexus_4()
            .reuse_factor(&ComponentBreakdown::compute_node_role())
            .factor()
            .unwrap();
        assert!(rf > 0.80 && rf < 0.90, "got {rf}");
    }

    #[test]
    fn scaling_preserves_fractions() {
        let scaled = ComponentBreakdown::scaled_like_nexus_4(GramsCo2e::from_kilograms(37.0));
        assert!((scaled.total().kilograms() - 37.0).abs() < 1e-9);
        let a = scaled.fraction_of(Component::Display).unwrap();
        let b = ComponentBreakdown::nexus_4()
            .fraction_of(Component::Display)
            .unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn accumulating_same_component_adds() {
        let b = ComponentBreakdown::new()
            .with(Component::Other, GramsCo2e::new(5.0))
            .with(Component::Other, GramsCo2e::new(3.0));
        assert_eq!(b.carbon_of(Component::Other).grams(), 8.0);
    }

    #[test]
    fn empty_breakdown_has_no_fractions() {
        let b = ComponentBreakdown::new();
        assert!(b.fraction_of(Component::Compute).is_none());
        assert_eq!(b.carbon_of(Component::Display), GramsCo2e::ZERO);
    }

    #[test]
    fn collect_from_pairs() {
        let b: ComponentBreakdown = [
            (Component::Compute, GramsCo2e::new(10.0)),
            (Component::Display, GramsCo2e::new(2.0)),
        ]
        .into_iter()
        .collect();
        assert_eq!(b.total().grams(), 12.0);
        assert_eq!(b.iter().count(), 2);
    }

    #[test]
    fn component_names_stable() {
        assert_eq!(Component::Compute.to_string(), "Compute");
        assert_eq!(Component::ALL.len(), 7);
    }
}
