//! Grid carbon-intensity substrate for the Junkyard Computing reproduction.
//!
//! The operational carbon of a device depends on when and where its energy
//! comes from. This crate models that supply side:
//!
//! * [`sources`] — generation sources and their life-cycle carbon
//!   intensities, plus instantaneous generation mixes.
//! * [`trace`] — fixed-step carbon-intensity time series with the
//!   percentile/day-slicing operations the smart-charging heuristic needs.
//! * [`synth`] — a seeded synthetic CAISO-like generator reproducing the
//!   diurnal structure of the California grid (the paper's Figure 4a data).
//! * [`regime`] — the three power regimes of the evaluation (California
//!   mix, always-solar, zero-carbon).
//!
//! # Example
//!
//! ```
//! use junkyard_grid::synth::CaisoSynthesizer;
//!
//! let trace = CaisoSynthesizer::new(42, 30).intensity_trace();
//! // The synthetic month is calibrated to the paper's 257 gCO2e/kWh mean.
//! assert!((trace.mean().grams_per_kwh() - 257.0).abs() < 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod regime;
pub mod sources;
pub mod synth;
pub mod trace;

pub use regime::PowerRegime;
pub use sources::{EnergySource, GenerationMix};
pub use synth::CaisoSynthesizer;
pub use trace::IntensityTrace;
