//! Carbon-aware cloudlet fleet simulation — the serving layer that couples
//! the compiled microsim hot path to the grid, battery and carbon crates.
//!
//! The paper's headline result (Figures 7–9) is that cloudlets of junk
//! phones beat cloud VMs on *carbon per request*, but performance, grid
//! intensity and carbon accounting are evaluated in isolation there. This
//! crate answers the coupled question end to end:
//!
//! * [`schedule`] — one diurnal day curve, tiled over the run's horizon
//!   into windows that compile into the microsim's ramp phases
//!   (non-homogeneous Poisson arrivals).
//! * [`site`] — [`FleetSite`], the one fixed-capacity site model: one
//!   compiled cloudlet (or datacenter backend) simulation, its grid
//!   region, its power model and its amortised embodied carbon (via the
//!   paper's Reuse Factor, Eq. 8). Wrapped by
//!   [`LifecycleSite::try_leased`] it is a leased lifecycle site, and
//!   [`FleetSite::scaled`] rents a share of one.
//! * [`routing`] — per-window traffic assignment: the paper's static
//!   placement as baseline, and a carbon-aware policy that shifts load
//!   towards the region that is cleanest *right now*; plus the route
//!   tracing.
//! * [`faults`] — correlated fault injection and the failure-aware
//!   serving path: deterministic [`FaultPlan`]s, the per-(window, site)
//!   availability that grid outages, firmware-batch failures and
//!   thermal shutdowns leave standing; a
//!   stale health view with detection lag; bounded
//!   [`RetryPolicy`] retries and hedging, every
//!   attempt charged its carbon; and a degradation ladder
//!   (reroute → shed low-priority → brown-out) when retries exhaust.
//!   Every lifecycle window is resolved through it.
//! * [`lifecycle`] — [`LifecycleSim`], the crate's one fleet engine:
//!   the coupling of all of the above over any horizon, one day of
//!   leased sites (the carbon-aware fleet study) to a decade of device
//!   cohorts. Cohorts wear their batteries day by day under the
//!   simulated smart-charging schedule, fail stochastically and are
//!   refilled from junkyard stock; routing re-plans every window as
//!   capacity shrinks and recovers. Each window is priced from one
//!   measured microsim slice (warm-up, ramp, whole-second utilisation
//!   buckets, percentiles, drop fraction): operational carbon from the
//!   measured utilisation plus embodied carbon amortised per day gives
//!   gCO2e per request. A run is planned, measured and accounted:
//!   [`LifecycleSim::run_batch`] takes the plans of several fleets, runs
//!   the union of their distinct microsim slices in one `fan_out`, and
//!   keeps them in a caller-owned [`MeasuredSlices`] table, so a slice
//!   shared between fleets or batches is measured once. Slices come back
//!   in plan order, so results are identical serial or threaded.
//!
//! # Example
//!
//! ```
//! use junkyard_carbon::units::{CarbonIntensity, TimeSpan, Watts};
//! use junkyard_fleet::lifecycle::{LifecycleConfig, LifecycleSim, LifecycleSite};
//! use junkyard_fleet::routing::RoutingPolicy;
//! use junkyard_fleet::schedule::DiurnalSchedule;
//! use junkyard_fleet::site::{FleetSite, GridRegion};
//! use junkyard_grid::trace::IntensityTrace;
//! use junkyard_microsim::app::hotel_reservation;
//! use junkyard_microsim::network::NetworkModel;
//! use junkyard_microsim::node::NodeSpec;
//! use junkyard_microsim::placement::Placement;
//! use junkyard_microsim::sim::Simulation;
//!
//! let app = hotel_reservation();
//! let nodes = vec![NodeSpec::pixel_3a(0), NodeSpec::pixel_3a(1)];
//! let placement = Placement::swarm_spread(&app, &nodes, 11).unwrap();
//! let sim = Simulation::new(app, nodes, placement, NetworkModel::phone_wifi()).unwrap();
//!
//! let region = GridRegion::new(
//!     "flat-grid",
//!     IntensityTrace::constant(
//!         CarbonIntensity::from_grams_per_kwh(257.0),
//!         TimeSpan::from_hours(1.0),
//!         TimeSpan::from_days(1.0),
//!     ),
//! );
//! let site = FleetSite::new("two-phones", &sim, region, 800.0)
//!     .power(Watts::new(1.5), Watts::new(2.8));
//!
//! let fleet = LifecycleSim::new(
//!     vec![LifecycleSite::try_leased(site).unwrap()],
//!     DiurnalSchedule::flat(150.0),
//!     RoutingPolicy::Static,
//!     LifecycleConfig::days(1).windows_per_day(4).sim_slice_s(1.0).warmup_s(0.0),
//! );
//! let result = fleet.run().unwrap();
//! assert!(result.grams_per_request().unwrap() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod lifecycle;
pub mod routing;
pub mod schedule;
pub mod site;
#[cfg(test)]
pub(crate) mod testutil;

pub use faults::{DegradationLadder, FaultConfig, FaultPlan, ResiliencePolicy, RetryPolicy};
pub use lifecycle::{
    CohortDevice, LifecycleCell, LifecycleConfig, LifecyclePlan, LifecycleResult, LifecycleSim,
    LifecycleSite, MeasuredSlices, SiteConfigError, WindowHealth,
};
pub use routing::RoutingPolicy;
pub use schedule::{DiurnalSchedule, LoadWindow};
pub use site::{second_life_embodied, smart_charging_scale, FleetSite, GridRegion};
