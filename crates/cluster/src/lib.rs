//! Cluster-design substrate for the Junkyard Computing reproduction.
//!
//! Answers the paper's Section 4 question — "what does it take to make a
//! server out of smartphones?" — as data structures:
//!
//! * [`topology`] — wired and WiFi-tree network topologies and their
//!   per-device bandwidth.
//! * [`peripherals`] — smart plugs, server fans and switches with their
//!   embodied carbon and power.
//! * [`cloudlet`] — [`CloudletDesign`]: a set of
//!   identical devices plus peripherals, with aggregate power, throughput,
//!   embodied bills and battery schedules.
//! * [`presets`] — the five Section 5.2 comparison cloudlets and the
//!   ten-phone Section 6 prototype.
//! * [`datacenter`] — 50 MW-scale provisioning and PUE (Section 5.3).
//!
//! # Example
//!
//! ```
//! use junkyard_cluster::presets;
//! use junkyard_devices::power::LoadProfile;
//!
//! let pixel = presets::pixel_cloudlet();
//! let power = pixel.average_power(&LoadProfile::light_medium());
//! println!("{pixel} draws {power:.0}");
//! assert_eq!(pixel.device_count(), 54);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cloudlet;
pub mod datacenter;
pub mod peripherals;
pub mod presets;
pub mod topology;

pub use cloudlet::CloudletDesign;
pub use datacenter::DatacenterDesign;
pub use peripherals::Peripheral;
pub use topology::NetworkTopology;
