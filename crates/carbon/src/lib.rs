//! Computational Carbon Intensity (CCI) — the carbon-accounting core of the
//! Junkyard Computing reproduction.
//!
//! This crate provides the paper's central metric and everything needed to
//! evaluate it:
//!
//! * [`units`] — strongly-typed physical quantities (gCO2e, joules, watts,
//!   time spans, data rates, grid carbon intensity, network energy
//!   intensity).
//! * [`ops`] — units of useful computational work (gflops, Mpixels, edges,
//!   requests) and throughput.
//! * [`embodied`] — manufacturing carbon bills (`C_M`), including battery
//!   replacement schedules and added peripherals.
//! * [`operational`] — compute (`C_C`) and networking (`C_N`) carbon.
//! * [`cci`] — the [`CciCalculator`] that combines all
//!   three terms and amortises them over lifetime work (Eqs. 1–7).
//! * [`reuse`] — the component-level Reuse Factor (Eq. 8).
//! * [`scale`] — facility PUE and datacenter-scale CCI (Eqs. 14–15).
//!
//! # Quick example
//!
//! ```
//! use junkyard_carbon::prelude::*;
//!
//! # fn main() -> Result<(), junkyard_carbon::cci::CciError> {
//! // A reused Pixel 3A running a light-medium duty cycle on the California
//! // grid, measured by SGEMM throughput.
//! let pixel = CciCalculator::new(OpUnit::Gflop)
//!     .embodied(EmbodiedCarbon::reused())
//!     .average_power(Watts::new(1.54))
//!     .grid(CarbonIntensity::from_grams_per_kwh(257.0))
//!     .throughput(Throughput::per_second(17.2, OpUnit::Gflop));
//!
//! let cci = pixel.cci_at(TimeSpan::from_months(36.0))?;
//! println!("Pixel 3A after 3 years: {cci}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cci;
pub mod convert;
pub mod embodied;
pub mod operational;
pub mod ops;
pub mod reuse;
pub mod scale;
pub mod units;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::cci::{CarbonBreakdown, Cci, CciCalculator, CciError};
    pub use crate::embodied::EmbodiedCarbon;
    pub use crate::operational::NetworkProfile;
    pub use crate::ops::{OpCount, OpUnit, Throughput};
    pub use crate::reuse::ReuseFactor;
    pub use crate::scale::{FacilityModel, Pue};
    pub use crate::units::{
        Bytes, CarbonIntensity, DataRate, EnergyPerByte, GramsCo2e, Joules, Millis, Qps, TimeSpan,
        Watts,
    };
}

pub use crate::cci::{CarbonBreakdown, Cci, CciCalculator, CciError};
pub use crate::embodied::EmbodiedCarbon;
pub use crate::operational::NetworkProfile;
pub use crate::ops::{OpCount, OpUnit, Throughput};
pub use crate::reuse::ReuseFactor;
pub use crate::scale::{FacilityModel, Pue};
pub use crate::units::{CarbonIntensity, GramsCo2e, Joules, Millis, Qps, TimeSpan, Watts};
