//! Battery and smart-charging substrate for the Junkyard Computing
//! reproduction.
//!
//! Smartphones bring their own uninterruptible power supply; Section 4.3 of
//! the paper exploits it to shift wall-power draw towards the hours when the
//! grid is greenest ("smart charging"). This crate provides:
//!
//! * [`state`] — a mutable battery model with charge tracking, cycle wear
//!   and replacement accounting.
//! * [`charging`] — the percentile-threshold smart-charging policy.
//! * [`trace_ext`] — per-day intensity statistics feeding the threshold.
//! * [`sim`] — a time-stepping simulation of a device under the policy
//!   against a grid trace, reporting the daily carbon savings of Figure 4.
//!
//! # Example
//!
//! ```
//! use junkyard_battery::sim::SmartChargingConfig;
//! use junkyard_carbon::units::Watts;
//! use junkyard_devices::battery::BatterySpec;
//! use junkyard_grid::synth::CaisoSynthesizer;
//!
//! let trace = CaisoSynthesizer::new(7, 30).intensity_trace();
//! let outcome = SmartChargingConfig::new("Pixel 3A", Watts::new(1.54), BatterySpec::pixel_3a())
//!     .run(&trace);
//! println!("{outcome}");
//! assert!(outcome.median_savings_percent() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod charging;
pub mod sim;
pub mod state;
pub mod trace_ext;

pub use charging::{ChargeDecision, SmartChargePolicy};
pub use sim::{simulate_day, DayOutcome, DayRun, SmartChargingConfig, SmartChargingOutcome};
pub use state::BatteryState;
pub use trace_ext::DayStats;
