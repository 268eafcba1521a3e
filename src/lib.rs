//! # Junkyard Computing — reproduction library
//!
//! A Rust reproduction of *"Junkyard Computing: Repurposing Discarded
//! Smartphones to Minimize Carbon"* (ASPLOS 2023). This facade crate
//! re-exports the workspace's crates:
//!
//! * [`carbon`] — the Computational Carbon Intensity (CCI) metric and typed
//!   units.
//! * [`devices`] — the device catalog (phones, laptops, servers, EC2
//!   instances) with performance, power, battery and embodied-carbon data.
//! * [`grid`] — grid carbon-intensity traces and power regimes.
//! * [`battery`] — battery state and the smart-charging heuristic.
//! * [`thermal`] — phone/enclosure thermal simulation and cooling sizing.
//! * [`cluster`] — cloudlet and datacenter design (sizing, topology,
//!   peripherals, PUE).
//! * [`microsim`] — the discrete-event microservice cloudlet simulator that
//!   stands in for the paper's physical DeathStarBench testbed.
//! * [`fleet`] — the carbon-aware cloudlet fleet layer: diurnal load
//!   schedules, grid-region mapping, static versus carbon-aware routing
//!   and fleet-wide gCO2e-per-request accounting.
//! * [`planner`] — the SLO-constrained provisioning optimizer: a
//!   deterministic successive-halving + local search over candidate
//!   deployments, driving the fleet/lifecycle stack as a black-box
//!   evaluator and reporting a carbon/latency/fleet-size Pareto
//!   frontier.
//! * [`obs`] — the observability layer: deterministic sim-time tracing
//!   (`Recorder`/`TraceRecorder` shards, the self-checking
//!   `ConservedLedger`).
//! * [`core`] — the high-level studies that regenerate each table and
//!   figure of the paper.
//!
//! # Quickstart
//!
//! ```
//! use junkyard::core::single_device::SingleDeviceStudy;
//! use junkyard::devices::benchmark::Benchmark;
//!
//! // Figure 2: lifetime carbon-per-op of reused devices vs a new server.
//! let chart = SingleDeviceStudy::new(Benchmark::Dijkstra).run_paper_devices();
//! for line in chart.lines() {
//!     println!("{}: {:.3} mgCO2e/MTE after 5 years", line.label(), line.final_value().unwrap());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use junkyard_battery as battery;
pub use junkyard_carbon as carbon;
pub use junkyard_cluster as cluster;
pub use junkyard_core as core;
pub use junkyard_devices as devices;
pub use junkyard_fleet as fleet;
pub use junkyard_grid as grid;
pub use junkyard_microsim as microsim;
pub use junkyard_obs as obs;
pub use junkyard_planner as planner;
pub use junkyard_thermal as thermal;

/// The crate version of the reproduction library.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_exposed() {
        assert!(!super::VERSION.is_empty());
    }
}
