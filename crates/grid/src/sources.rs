//! Energy sources and their carbon intensities.
//!
//! Section 5.1 of the paper: solar emits about 48 gCO2e/kWh over its life
//! cycle, gas about 602, and the California grid mix averages 257. The
//! [`EnergySource`] enum carries life-cycle intensities for the generation
//! types that appear in the CAISO supply data (Figure 4a).

use std::fmt;

use junkyard_carbon::units::CarbonIntensity;

/// A grid generation source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum EnergySource {
    /// Utility-scale photovoltaics.
    Solar,
    /// Onshore wind.
    Wind,
    /// Natural-gas turbines.
    Gas,
    /// Hydroelectric generation.
    Hydro,
    /// Net imports from neighbouring grids (mixed provenance).
    Import,
    /// Nuclear generation.
    Nuclear,
    /// Geothermal and other renewables.
    Geothermal,
}

impl EnergySource {
    /// The sources shown in the paper's CAISO supply plot (Figure 4a).
    pub const CAISO: [EnergySource; 5] = [
        EnergySource::Solar,
        EnergySource::Wind,
        EnergySource::Gas,
        EnergySource::Hydro,
        EnergySource::Import,
    ];

    /// Life-cycle carbon intensity of the source.
    ///
    /// Solar and gas use the figures quoted in Section 5.1; the remaining
    /// values are standard life-cycle estimates (documented in `DESIGN.md`).
    #[must_use]
    pub fn carbon_intensity(self) -> CarbonIntensity {
        let grams_per_kwh = match self {
            EnergySource::Solar => 48.0,
            EnergySource::Wind => 11.0,
            EnergySource::Gas => 602.0,
            EnergySource::Hydro => 24.0,
            EnergySource::Import => 430.0,
            EnergySource::Nuclear => 12.0,
            EnergySource::Geothermal => 38.0,
        };
        CarbonIntensity::from_grams_per_kwh(grams_per_kwh)
    }

    /// Human-readable source name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EnergySource::Solar => "solar",
            EnergySource::Wind => "wind",
            EnergySource::Gas => "gas",
            EnergySource::Hydro => "hydro",
            EnergySource::Import => "import",
            EnergySource::Nuclear => "nuclear",
            EnergySource::Geothermal => "geothermal",
        }
    }
}

impl fmt::Display for EnergySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An instantaneous generation mix: how many gigawatts each source supplies.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GenerationMix {
    entries: Vec<(EnergySource, f64)>,
}

impl GenerationMix {
    /// Creates an empty mix.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `gigawatts` of generation from `source` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `gigawatts` is negative.
    #[must_use]
    pub fn with(mut self, source: EnergySource, gigawatts: f64) -> Self {
        self.add(source, gigawatts);
        self
    }

    /// Adds `gigawatts` of generation from `source` in place.
    ///
    /// # Panics
    ///
    /// Panics if `gigawatts` is negative.
    pub fn add(&mut self, source: EnergySource, gigawatts: f64) {
        assert!(gigawatts >= 0.0, "generation cannot be negative");
        if let Some(entry) = self.entries.iter_mut().find(|(s, _)| *s == source) {
            entry.1 += gigawatts;
        } else {
            self.entries.push((source, gigawatts));
        }
    }

    /// Total generation in gigawatts.
    #[must_use]
    pub fn total_gigawatts(&self) -> f64 {
        self.entries.iter().map(|(_, gw)| gw).sum()
    }

    /// Iterates over `(source, gigawatts)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EnergySource, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Generation-weighted average carbon intensity of the mix.
    /// Returns `None` when there is no generation at all.
    #[must_use]
    pub fn carbon_intensity(&self) -> Option<CarbonIntensity> {
        let total = self.total_gigawatts();
        if total <= 0.0 {
            return None;
        }
        let weighted: f64 = self
            .entries
            .iter()
            .map(|(source, gw)| source.carbon_intensity().grams_per_kwh() * gw)
            .sum();
        Some(CarbonIntensity::from_grams_per_kwh(weighted / total))
    }
}

impl FromIterator<(EnergySource, f64)> for GenerationMix {
    fn from_iter<T: IntoIterator<Item = (EnergySource, f64)>>(iter: T) -> Self {
        let mut mix = Self::new();
        for (source, gw) in iter {
            mix.add(source, gw);
        }
        mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_intensities_for_solar_and_gas() {
        assert!((EnergySource::Solar.carbon_intensity().grams_per_kwh() - 48.0).abs() < 1e-12);
        assert!((EnergySource::Gas.carbon_intensity().grams_per_kwh() - 602.0).abs() < 1e-12);
    }

    #[test]
    fn pure_solar_mix_matches_solar_intensity() {
        let mix = GenerationMix::new().with(EnergySource::Solar, 10.0);
        assert!((mix.carbon_intensity().unwrap().grams_per_kwh() - 48.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_intensity_is_weighted_average() {
        let mix = GenerationMix::new()
            .with(EnergySource::Solar, 5.0)
            .with(EnergySource::Gas, 5.0);
        let ci = mix.carbon_intensity().unwrap().grams_per_kwh();
        assert!((ci - (48.0 + 602.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_mix_has_no_intensity() {
        assert!(GenerationMix::new().carbon_intensity().is_none());
        assert_eq!(GenerationMix::new().total_gigawatts(), 0.0);
    }

    #[test]
    fn adding_same_source_accumulates() {
        let mut mix = GenerationMix::new();
        mix.add(EnergySource::Wind, 1.0);
        mix.add(EnergySource::Wind, 2.0);
        assert!((mix.total_gigawatts() - 3.0).abs() < 1e-12);
        assert_eq!(mix.iter().count(), 1);
    }

    #[test]
    fn collect_from_pairs() {
        let mix: GenerationMix = [(EnergySource::Gas, 8.0), (EnergySource::Solar, 2.0)]
            .into_iter()
            .collect();
        assert!((mix.total_gigawatts() - 10.0).abs() < 1e-12);
        let ci = mix.carbon_intensity().unwrap().grams_per_kwh();
        assert!(ci > 400.0 && ci < 602.0);
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_generation_panics() {
        let _ = GenerationMix::new().with(EnergySource::Gas, -1.0);
    }

    #[test]
    fn source_names() {
        assert_eq!(EnergySource::Solar.to_string(), "solar");
        assert_eq!(EnergySource::CAISO.len(), 5);
    }
}
