//! Reuse Factor — how much of a device's embodied carbon is actually put
//! back to work (Eq. 8 of the paper).
//!
//! A smartphone repurposed as a headless compute node reuses its SoC, RAM,
//! radios, battery and storage but not its display or sensors. The reuse
//! factor weighs each subcomponent by its share of the device's embodied
//! carbon and sums the shares of the components that are reused, yielding a
//! value in `[0, 1]` (0.85 for the paper's cloudlet compute-node scenario).

use std::fmt;

use crate::units::GramsCo2e;

/// One subcomponent of a device together with whether the new role reuses it.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentUse {
    name: String,
    embodied: GramsCo2e,
    reused: bool,
}

impl ComponentUse {
    /// Creates a component entry.
    #[must_use]
    pub fn new(name: impl Into<String>, embodied: GramsCo2e, reused: bool) -> Self {
        Self {
            name: name.into(),
            embodied,
            reused,
        }
    }

    /// Component name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Embodied carbon attributed to this component.
    #[must_use]
    pub fn embodied(&self) -> GramsCo2e {
        self.embodied
    }

    /// Whether the component is exercised in the device's second life.
    #[must_use]
    pub fn is_reused(&self) -> bool {
        self.reused
    }
}

/// The reuse factor of a repurposing scenario.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReuseFactor {
    components: Vec<ComponentUse>,
}

impl ReuseFactor {
    /// Creates an empty scenario with no components.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a component (builder style).
    #[must_use]
    pub fn with_component(
        mut self,
        name: impl Into<String>,
        embodied: GramsCo2e,
        reused: bool,
    ) -> Self {
        self.components
            .push(ComponentUse::new(name, embodied, reused));
        self
    }

    /// Builds a scenario from an iterator of components.
    #[must_use]
    pub fn from_components<I>(components: I) -> Self
    where
        I: IntoIterator<Item = ComponentUse>,
    {
        Self {
            components: components.into_iter().collect(),
        }
    }

    /// The components of the scenario.
    #[must_use]
    pub fn components(&self) -> &[ComponentUse] {
        &self.components
    }

    /// Total embodied carbon across all components.
    #[must_use]
    pub fn total_embodied(&self) -> GramsCo2e {
        self.components.iter().map(ComponentUse::embodied).sum()
    }

    /// Embodied carbon of the reused components only.
    #[must_use]
    pub fn reused_embodied(&self) -> GramsCo2e {
        self.components
            .iter()
            .filter(|c| c.is_reused())
            .map(ComponentUse::embodied)
            .sum()
    }

    /// The reuse factor in `[0, 1]`: reused embodied carbon divided by total
    /// embodied carbon (Eq. 8). Returns `None` when the total is zero.
    #[must_use]
    pub fn factor(&self) -> Option<f64> {
        let total = self.total_embodied().grams();
        if total > 0.0 {
            Some(self.reused_embodied().grams() / total)
        } else {
            None
        }
    }
}

impl FromIterator<ComponentUse> for ReuseFactor {
    fn from_iter<T: IntoIterator<Item = ComponentUse>>(iter: T) -> Self {
        Self::from_components(iter)
    }
}

impl Extend<ComponentUse> for ReuseFactor {
    fn extend<T: IntoIterator<Item = ComponentUse>>(&mut self, iter: T) {
        self.components.extend(iter);
    }
}

impl fmt::Display for ReuseFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.factor() {
            Some(rf) => write!(f, "RF = {rf:.2}"),
            None => f.write_str("RF undefined (no embodied carbon)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nexus4_as_compute_node() -> ReuseFactor {
        // Table 3 of the paper; compute node reuses everything except the
        // display and sensors.
        ReuseFactor::new()
            .with_component("compute", GramsCo2e::from_kilograms(12.5), true)
            .with_component("network", GramsCo2e::from_kilograms(7.5), true)
            .with_component("battery", GramsCo2e::from_kilograms(7.5), true)
            .with_component("display", GramsCo2e::from_kilograms(5.0), false)
            .with_component("storage", GramsCo2e::from_kilograms(4.0), true)
            .with_component("sensors", GramsCo2e::from_kilograms(3.0), false)
            .with_component("other", GramsCo2e::from_kilograms(10.0), true)
    }

    #[test]
    fn paper_compute_node_scenario_is_about_085() {
        let rf = nexus4_as_compute_node().factor().unwrap();
        // (49.5 - 8.0) / 49.5 = 0.838...; the paper rounds to 0.85.
        assert!(rf > 0.80 && rf < 0.90, "rf = {rf}");
    }

    #[test]
    fn reusing_everything_is_one() {
        let rf = ReuseFactor::new()
            .with_component("a", GramsCo2e::new(10.0), true)
            .with_component("b", GramsCo2e::new(5.0), true);
        assert!((rf.factor().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reusing_nothing_is_zero() {
        let rf = ReuseFactor::new().with_component("a", GramsCo2e::new(10.0), false);
        assert_eq!(rf.factor().unwrap(), 0.0);
    }

    #[test]
    fn empty_scenario_is_undefined() {
        assert!(ReuseFactor::new().factor().is_none());
        assert!(ReuseFactor::new().to_string().contains("undefined"));
    }

    #[test]
    fn collect_and_extend() {
        let mut rf: ReuseFactor = [ComponentUse::new("a", GramsCo2e::new(1.0), true)]
            .into_iter()
            .collect();
        rf.extend([ComponentUse::new("b", GramsCo2e::new(1.0), false)]);
        assert_eq!(rf.components().len(), 2);
        assert!((rf.factor().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn totals_are_consistent() {
        let rf = nexus4_as_compute_node();
        assert!((rf.total_embodied().kilograms() - 49.5).abs() < 1e-9);
        assert!((rf.reused_embodied().kilograms() - 41.5).abs() < 1e-9);
    }
}
