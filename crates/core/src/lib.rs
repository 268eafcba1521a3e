//! High-level analyses reproducing the Junkyard Computing paper.
//!
//! Each module corresponds to a part of the paper's evaluation and builds on
//! the substrate crates (devices, grid, battery, thermal, cluster,
//! microsim) and the CCI metric crate:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`tables`] | Figure 1, Tables 1–3 |
//! | [`single_device`] | Figure 2 |
//! | [`thermal_study`] | Figure 3 |
//! | [`charging_study`] | Figure 4 |
//! | [`cluster_cci`] | Figure 5 |
//! | [`energy_mix`] | Figure 6 |
//! | [`datacenter_study`] | Table 4 and the PUE comparison |
//! | [`deployments`], [`cloudlet_study`] | Figures 7, 8 and 9 |
//! | [`fleet_study`] | the coupled carbon-aware fleet extension of Figs. 7–9 |
//! | [`lifecycle_study`] | the multi-year Fig. 7-style amortised CCI trajectory |
//! | [`planner_study`] | the SLO-constrained provisioning search over Figure 7's deployment space |
//! | [`cost_study`] | the Section 6.2 cost comparison |
//!
//! Results are returned as [`report::Table`] and [`report::Chart`] values
//! that the experiment binaries print as text or CSV.
//!
//! # Example
//!
//! ```
//! use junkyard_core::single_device::SingleDeviceStudy;
//! use junkyard_devices::benchmark::Benchmark;
//!
//! let chart = SingleDeviceStudy::new(Benchmark::Dijkstra).run_paper_devices();
//! let pixel = chart.line("Pixel 3A").unwrap().final_value().unwrap();
//! let server = chart.line("PowerEdge R740").unwrap().final_value().unwrap();
//! assert!(pixel < server, "the reused phone should win on carbon per op");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod charging_study;
pub mod cloudlet_study;
pub mod cluster_cci;
pub mod cost_study;
pub mod datacenter_study;
pub mod deployments;
pub mod energy_mix;
pub mod fleet_study;
pub mod lifecycle_study;
pub mod overload_study;
pub mod planner_study;
pub mod report;
pub mod resilience_study;
pub mod single_device;
pub mod tables;
pub mod thermal_study;

pub use charging_study::{ChargingStudy, ChargingStudyResult};
pub use cloudlet_study::{CloudletWorkload, Figure7Result, Figure7Study};
pub use cluster_cci::ClusterCciStudy;
pub use datacenter_study::DatacenterStudy;
pub use deployments::{build_deployment, DeploymentKind};
pub use fleet_study::{FleetStudy, FleetStudyResult};
pub use lifecycle_study::{LifecycleStudy, LifecycleStudyResult};
pub use overload_study::{OverloadStudy, OverloadStudyResult};
pub use planner_study::{PlannerStudy, PlannerStudyResult};
pub use report::{Chart, SeriesLine, Table};
pub use resilience_study::{
    availability_nines, ResilienceStudy, ResilienceStudyResult, StrategyOutcome,
};
pub use single_device::SingleDeviceStudy;
pub use thermal_study::{run_thermal_study, ThermalStudyResult};
