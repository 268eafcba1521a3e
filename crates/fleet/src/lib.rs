//! Carbon-aware cloudlet fleet simulation — the serving layer that couples
//! the compiled microsim hot path to the grid, battery and carbon crates.
//!
//! The paper's headline result (Figures 7–9) is that cloudlets of junk
//! phones beat cloud VMs on *carbon per request*, but performance, grid
//! intensity and carbon accounting are evaluated in isolation there. This
//! crate answers the coupled question end to end:
//!
//! * [`schedule`] — diurnal, time-varying load schedules compiled into the
//!   microsim's ramp phases (non-homogeneous Poisson arrivals).
//! * [`site`] — a fleet site: one compiled cloudlet (or datacenter
//!   backend) simulation, its grid region, its power model and its
//!   amortised embodied carbon (via the paper's Reuse Factor, Eq. 8).
//! * [`routing`] — per-window traffic assignment: the paper's static
//!   placement as baseline, and a carbon-aware policy that shifts load
//!   towards the region that is cleanest *right now*.
//! * [`sim`] — [`FleetSim`]: drives every
//!   (window, site) cell through the compiled engine, integrates
//!   operational carbon from measured utilisation and amortised embodied
//!   carbon per window, and reports fleet-wide gCO2e per request. Cells
//!   fan out with `junkyard_microsim::fanout::fan_out`, which returns
//!   them in cell order, so results are identical serial or threaded.
//! * [`faults`] — correlated fault injection and the failure-aware
//!   serving path: deterministic [`FaultPlan`]s of
//!   grid outages, firmware-batch failures and thermal shutdowns; a
//!   stale health view with detection lag; bounded
//!   [`RetryPolicy`] retries and hedging, every
//!   attempt charged its carbon; and a degradation ladder
//!   (reroute → shed low-priority → brown-out) when retries exhaust.
//! * [`lifecycle`] — [`LifecycleSim`]: the
//!   multi-year coupling of all of the above. Device cohorts wear their
//!   batteries day by day under the simulated smart-charging schedule,
//!   fail stochastically and are refilled from junkyard stock; routing
//!   re-plans every window as capacity shrinks and recovers; the
//!   distinct microsim slices fan out with the same `fan_out`, and a
//!   [`MeasuredSlices`] table lets fleets run
//!   one after another measure a shared slice once.
//!
//! # Example
//!
//! ```
//! use junkyard_carbon::units::{CarbonIntensity, TimeSpan, Watts};
//! use junkyard_fleet::routing::RoutingPolicy;
//! use junkyard_fleet::schedule::DiurnalSchedule;
//! use junkyard_fleet::sim::{FleetConfig, FleetSim};
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
//! let fleet = FleetSim::new(
//!     vec![site],
//!     DiurnalSchedule::flat(150.0),
//!     RoutingPolicy::Static,
//!     FleetConfig::new().windows_per_day(4).sim_slice_s(1.0).warmup_s(0.0),
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
pub mod sim;
pub mod site;
#[cfg(test)]
pub(crate) mod testutil;

pub use faults::{
    DegradationLadder, FaultConfig, FaultEvent, FaultKind, FaultPlan, ResiliencePolicy, RetryPolicy,
};
pub use lifecycle::{
    CohortDevice, LifecycleCell, LifecycleConfig, LifecycleResult, LifecycleSim, LifecycleSite,
    MeasuredSlices, SiteConfigError, WindowHealth,
};
pub use routing::{RoutingPolicy, SiteWindowInput, WindowAssignment};
pub use schedule::{DiurnalSchedule, LoadWindow};
pub use sim::{FleetCell, FleetConfig, FleetResult, FleetSim};
pub use site::{second_life_embodied, smart_charging_scale, FleetSite, GridRegion};
