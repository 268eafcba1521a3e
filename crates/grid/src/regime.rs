//! The three power regimes the paper evaluates (Section 5.1, Figure 6).

use std::fmt;

use junkyard_carbon::convert::count_f64;
use junkyard_carbon::units::{CarbonIntensity, TimeSpan};

use crate::synth::CaisoSynthesizer;
use crate::trace::IntensityTrace;

/// An energy-supply regime for powering a device or cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PowerRegime {
    /// The California grid mix (mean 257 gCO2e/kWh).
    CaliforniaMix,
    /// Solar energy available 100 % of the time (48 gCO2e/kWh, the
    /// life-cycle intensity of photovoltaics).
    AlwaysSolar,
    /// A theoretical perfectly carbon-free source (0 gCO2e/kWh); a lower
    /// bound in which only embodied carbon matters.
    ZeroCarbon,
}

impl PowerRegime {
    /// The regimes plotted in Figure 6, in the paper's order.
    pub const ALL: [PowerRegime; 3] = [
        PowerRegime::CaliforniaMix,
        PowerRegime::AlwaysSolar,
        PowerRegime::ZeroCarbon,
    ];

    /// Mean carbon intensity of the regime.
    #[must_use]
    pub fn carbon_intensity(self) -> CarbonIntensity {
        match self {
            PowerRegime::CaliforniaMix => CarbonIntensity::from_grams_per_kwh(257.0),
            PowerRegime::AlwaysSolar => CarbonIntensity::from_grams_per_kwh(48.0),
            PowerRegime::ZeroCarbon => CarbonIntensity::ZERO,
        }
    }

    /// Whether smart charging can save carbon in this regime: only the
    /// time-varying California mix has diurnal structure to exploit.
    #[must_use]
    pub fn supports_smart_charging(self) -> bool {
        matches!(self, PowerRegime::CaliforniaMix)
    }

    /// A representative intensity trace for the regime covering `days` days
    /// (seeded for reproducibility). California uses the synthetic CAISO
    /// generator; the other regimes are flat.
    ///
    /// # Panics
    ///
    /// Panics if `days` is zero.
    #[must_use]
    pub fn trace(self, seed: u64, days: usize) -> IntensityTrace {
        assert!(days > 0, "need at least one day");
        match self {
            PowerRegime::CaliforniaMix => CaisoSynthesizer::new(seed, days).intensity_trace(),
            PowerRegime::AlwaysSolar | PowerRegime::ZeroCarbon => IntensityTrace::constant(
                self.carbon_intensity(),
                TimeSpan::from_minutes(5.0),
                TimeSpan::from_days(count_f64(days)),
            ),
        }
    }

    /// Short label used in figure legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PowerRegime::CaliforniaMix => "California",
            PowerRegime::AlwaysSolar => "Solar",
            PowerRegime::ZeroCarbon => "Z.Carbon",
        }
    }
}

impl fmt::Display for PowerRegime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensities_match_paper() {
        assert!(
            (PowerRegime::CaliforniaMix
                .carbon_intensity()
                .grams_per_kwh()
                - 257.0)
                .abs()
                < 1e-9
        );
        assert!((PowerRegime::AlwaysSolar.carbon_intensity().grams_per_kwh() - 48.0).abs() < 1e-9);
        assert_eq!(
            PowerRegime::ZeroCarbon.carbon_intensity(),
            CarbonIntensity::ZERO
        );
    }

    #[test]
    fn only_california_supports_smart_charging() {
        assert!(PowerRegime::CaliforniaMix.supports_smart_charging());
        assert!(!PowerRegime::AlwaysSolar.supports_smart_charging());
        assert!(!PowerRegime::ZeroCarbon.supports_smart_charging());
    }

    #[test]
    fn traces_have_expected_means() {
        let ca = PowerRegime::CaliforniaMix.trace(5, 7);
        assert!((ca.mean().grams_per_kwh() - 257.0).abs() < 2.0);
        let solar = PowerRegime::AlwaysSolar.trace(5, 7);
        assert_eq!(solar.min(), solar.max());
        assert!((solar.mean().grams_per_kwh() - 48.0).abs() < 1e-9);
        let zero = PowerRegime::ZeroCarbon.trace(5, 7);
        assert_eq!(zero.mean(), CarbonIntensity::ZERO);
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(PowerRegime::CaliforniaMix.to_string(), "California");
        assert_eq!(PowerRegime::ZeroCarbon.to_string(), "Z.Carbon");
        assert_eq!(PowerRegime::ALL.len(), 3);
    }
}
