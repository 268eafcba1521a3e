//! Fleet sites: one fixed-capacity serving location (a junk-phone
//! cloudlet or a datacenter backend) with its compiled simulation, grid
//! region, power model and amortised embodied carbon. The same
//! [`FleetSite`] is the lifecycle's leased backend
//! ([`crate::lifecycle::LifecycleSite::try_leased`]) and, scaled to a
//! candidate's share with [`FleetSite::scaled`], the planner's rented
//! fallback.

use std::sync::Arc;

use junkyard_battery::sim::SmartChargingConfig;
use junkyard_carbon::reuse::ReuseFactor;
use junkyard_carbon::units::{CarbonIntensity, GramsCo2e, TimeSpan, Watts};
use junkyard_devices::battery::BatterySpec;
use junkyard_grid::trace::IntensityTrace;
use junkyard_microsim::compiled::CompiledSim;
use junkyard_microsim::sim::Simulation;

/// A grid region: a named carbon-intensity trace, treated as periodic (the
/// trace wraps, matching [`IntensityTrace::value_at`] semantics), that a
/// site draws its power from. Clones share the trace, so a site, a
/// lifecycle plan or a planner candidate holds a handle on it, never a
/// copy.
#[derive(Debug, Clone, PartialEq)]
pub struct GridRegion {
    name: String,
    trace: Arc<IntensityTrace>,
}

impl GridRegion {
    /// Creates a region from a name and its intensity trace.
    #[must_use]
    pub fn new(name: impl Into<String>, trace: IntensityTrace) -> Self {
        Self {
            name: name.into(),
            trace: Arc::new(trace),
        }
    }

    /// Region name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The region's intensity trace.
    #[must_use]
    pub fn trace(&self) -> &IntensityTrace {
        &self.trace
    }

    /// Time-weighted mean intensity over the offset window `[from, to)`,
    /// wrapping past the end of the trace.
    #[must_use]
    pub fn mean_intensity_between(&self, from: TimeSpan, to: TimeSpan) -> CarbonIntensity {
        self.trace.mean_between(from, to)
    }
}

/// Embodied carbon attributable to a *reused* device in its second life:
/// the non-reused share `(1 - RF)` of the device's manufacturing bill
/// (Eq. 8). The reused share was already amortised by the first life; the
/// components the new role cannot exercise (display, sensors) are the
/// carbon the deployment must still answer for.
///
/// An empty reuse scenario (undefined factor) charges nothing, matching
/// the paper's `C_M = 0` stipulation for wholly reused devices.
#[must_use]
pub fn second_life_embodied(device_embodied: GramsCo2e, reuse: &ReuseFactor) -> GramsCo2e {
    let factor = reuse.factor().unwrap_or(1.0);
    device_embodied * (1.0 - factor)
}

/// Operational-carbon scale factor earned by running the Section 4.3
/// smart-charging policy against a region's intensity trace: one minus
/// the policy's median daily saving. Battery-backed sites pass the result
/// to [`FleetSite::operational_scale`]; the trace needs at least two days
/// of history (the policy thresholds on the *previous* day).
#[must_use]
pub fn smart_charging_scale(
    device_power: Watts,
    battery: BatterySpec,
    trace: &IntensityTrace,
) -> f64 {
    let savings = SmartChargingConfig::new("fleet-site", device_power, battery)
        .run(trace)
        .median_savings_percent();
    1.0 - savings / 100.0
}

/// One serving site of the fleet.
///
/// The microsim is compiled once at construction ([`Simulation::compile`])
/// and shared by reference across the fleet's worker threads; clones of
/// the site, [`FleetSite::scaled`] ones included, share it too.
#[derive(Debug, Clone)]
pub struct FleetSite {
    name: String,
    sim: Arc<CompiledSim>,
    request_type: Option<String>,
    region: GridRegion,
    capacity_qps: f64,
    idle_power: Watts,
    dynamic_power: Watts,
    embodied: GramsCo2e,
    amortization: TimeSpan,
    operational_scale: f64,
}

impl FleetSite {
    /// Creates a site serving `sim` from `region`, able to sustain
    /// `capacity_qps` requests per second (the router never assigns more).
    ///
    /// Defaults: no power draw, no embodied carbon (amortised over three
    /// years once set), unscaled operational carbon and the application's
    /// weighted request mix.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not strictly positive.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        sim: &Simulation,
        region: GridRegion,
        capacity_qps: f64,
    ) -> Self {
        assert!(capacity_qps > 0.0, "site capacity must be positive");
        Self {
            name: name.into(),
            sim: Arc::new(sim.compile()),
            request_type: None,
            region,
            capacity_qps,
            idle_power: Watts::ZERO,
            dynamic_power: Watts::ZERO,
            embodied: GramsCo2e::ZERO,
            amortization: TimeSpan::from_years(3.0),
            operational_scale: 1.0,
        }
    }

    /// Restricts the site's workload to a single request type.
    #[must_use]
    pub fn request_type(mut self, name: impl Into<String>) -> Self {
        self.request_type = Some(name.into());
        self
    }

    /// Sets the site's electrical power model: `idle` is drawn always,
    /// `dynamic` is added in proportion to measured CPU utilisation.
    #[must_use]
    pub fn power(mut self, idle: Watts, dynamic: Watts) -> Self {
        self.idle_power = idle;
        self.dynamic_power = dynamic;
        self
    }

    /// Sets the attributable embodied carbon and the lifetime it amortises
    /// over: each simulated day is charged `embodied * day / amortization`.
    ///
    /// # Panics
    ///
    /// Panics if the amortisation lifetime is not strictly positive.
    #[must_use]
    pub fn embodied(mut self, embodied: GramsCo2e, amortization: TimeSpan) -> Self {
        assert!(
            amortization.seconds() > 0.0,
            "amortisation lifetime must be positive"
        );
        self.embodied = embodied;
        self.amortization = amortization;
        self
    }

    /// Scales the site's operational carbon by a dimensionless factor —
    /// e.g. `1.0 - savings` for the smart-charging policy of Section 4.3.
    ///
    /// # Panics
    ///
    /// Panics if the factor is negative.
    #[must_use]
    pub fn operational_scale(mut self, factor: f64) -> Self {
        assert!(factor >= 0.0, "operational scale cannot be negative");
        self.operational_scale = factor;
        self
    }

    /// The same site rented at `share` of its size: capacity, both power
    /// terms and the embodied bill scale by `share` (renting half an
    /// instance costs half its footprint), while the simulation, region,
    /// request type, amortisation lifetime and operational scale are kept.
    /// The router caps the smaller site at the scaled capacity; it still
    /// serves from the full simulation.
    #[must_use]
    pub fn scaled(&self, share: f64) -> Self {
        Self {
            capacity_qps: self.capacity_qps * share,
            idle_power: self.idle_power * share,
            dynamic_power: self.dynamic_power * share,
            embodied: self.embodied * share,
            ..self.clone()
        }
    }

    /// Site name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compiled simulation serving this site's share of the traffic.
    #[must_use]
    pub fn sim(&self) -> &CompiledSim {
        &self.sim
    }

    /// The compiled simulation as the handle the site's clones share.
    pub(crate) fn shared_sim(&self) -> &Arc<CompiledSim> {
        &self.sim
    }

    /// The request-type restriction, if any.
    #[must_use]
    pub fn request_type_name(&self) -> Option<&str> {
        self.request_type.as_deref()
    }

    /// The grid region powering the site.
    #[must_use]
    pub fn region(&self) -> &GridRegion {
        &self.region
    }

    /// The highest offered load the router may assign, requests/second.
    #[must_use]
    pub fn capacity_qps(&self) -> f64 {
        self.capacity_qps
    }

    /// The operational-carbon scale factor.
    #[must_use]
    pub fn operational_scale_factor(&self) -> f64 {
        self.operational_scale
    }

    /// Power drawn at zero utilisation.
    pub(crate) fn idle_power(&self) -> Watts {
        self.idle_power
    }

    /// Power added at full utilisation.
    pub(crate) fn dynamic_power(&self) -> Watts {
        self.dynamic_power
    }

    /// Embodied carbon amortised over `duration`.
    #[must_use]
    pub fn embodied_over(&self, duration: TimeSpan) -> GramsCo2e {
        self.embodied * (duration.seconds() / self.amortization.seconds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{flat_region, tiny_sim};

    #[test]
    fn second_life_embodied_charges_the_non_reused_share() {
        let rf = ReuseFactor::new()
            .with_component("compute", GramsCo2e::from_kilograms(30.0), true)
            .with_component("display", GramsCo2e::from_kilograms(10.0), false);
        let charged = second_life_embodied(GramsCo2e::from_kilograms(40.0), &rf);
        assert!((charged.kilograms() - 10.0).abs() < 1e-9);
        // Fully-reused and undefined scenarios charge nothing.
        let all = ReuseFactor::new().with_component("x", GramsCo2e::new(1.0), true);
        assert_eq!(
            second_life_embodied(GramsCo2e::from_kilograms(40.0), &all),
            GramsCo2e::ZERO
        );
        assert_eq!(
            second_life_embodied(GramsCo2e::from_kilograms(40.0), &ReuseFactor::new()),
            GramsCo2e::ZERO
        );
    }

    #[test]
    fn embodied_amortises_linearly_over_the_lifetime() {
        let site = FleetSite::new("s", &tiny_sim(), flat_region(257.0), 500.0)
            .embodied(GramsCo2e::from_kilograms(36.0), TimeSpan::from_years(3.0));
        let per_day = site.embodied_over(TimeSpan::from_days(1.0));
        assert!((per_day.kilograms() - 36.0 / (3.0 * 365.25)).abs() < 1e-9);
        // A whole amortisation period charges the full bill.
        let full = site.embodied_over(TimeSpan::from_years(3.0));
        assert!((full.kilograms() - 36.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_sites_rent_a_share_of_capacity_power_and_embodied() {
        let full = FleetSite::new("dc", &tiny_sim(), flat_region(420.0), 800.0)
            .request_type("search_hotel")
            .power(Watts::new(120.0), Watts::new(90.0))
            .embodied(
                GramsCo2e::from_kilograms(1_344.0),
                TimeSpan::from_years(4.0),
            )
            .operational_scale(0.9);
        let half = full.scaled(0.5);
        assert_eq!(half.capacity_qps(), 400.0);
        assert_eq!(half.idle_power(), Watts::new(60.0));
        assert_eq!(half.dynamic_power(), Watts::new(45.0));
        let year = TimeSpan::from_years(1.0);
        assert_eq!(half.embodied_over(year), full.embodied_over(year) * 0.5);
        // What is rented, not resized, is kept.
        assert_eq!(half.name(), "dc");
        assert_eq!(half.sim(), full.sim());
        assert!(Arc::ptr_eq(half.shared_sim(), full.shared_sim()));
        assert_eq!(half.region(), full.region());
        assert!(Arc::ptr_eq(&half.region().trace, &full.region().trace));
        assert_eq!(half.request_type_name(), Some("search_hotel"));
        assert_eq!(half.operational_scale_factor(), 0.9);
    }

    #[test]
    fn smart_charging_scale_saves_on_a_diurnal_grid_but_not_a_flat_one() {
        let diurnal = junkyard_grid::synth::CaisoSynthesizer::new(7, 3).intensity_trace();
        let scale = smart_charging_scale(Watts::new(1.7), BatterySpec::pixel_3a(), &diurnal);
        assert!(scale < 1.0 && scale > 0.8, "scale {scale}");
        // A flat grid offers nothing to shift towards.
        let flat = flat_region(257.0);
        let no_gain = smart_charging_scale(Watts::new(1.7), BatterySpec::pixel_3a(), flat.trace());
        assert!((no_gain - 1.0).abs() < 1e-9, "no_gain {no_gain}");
    }

    #[test]
    fn region_mean_intensity_uses_the_trace_window() {
        let region = flat_region(300.0);
        let mean =
            region.mean_intensity_between(TimeSpan::from_hours(2.0), TimeSpan::from_hours(26.0));
        assert!((mean.grams_per_kwh() - 300.0).abs() < 1e-9);
        assert_eq!(region.name(), "flat");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = FleetSite::new("s", &tiny_sim(), flat_region(257.0), 0.0);
    }
}
