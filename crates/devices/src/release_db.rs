//! The yearly smartphone-capability dataset behind Figure 1.
//!
//! Figure 1 plots, for the five most popular Android phones released each
//! year from 2013 to 2021, their GeekBench performance (normalised so that
//! 1.0 equals an Intel Core i3), core count and memory, against the
//! capabilities of AWS T4g instances. The original figure draws on the
//! public GeekBench browser; this module carries a representative dataset
//! with the same trend (documented as a synthetic reconstruction in
//! `DESIGN.md`).

/// Capability snapshot of one phone model at release.
#[derive(Debug, Clone, PartialEq)]
pub struct PhoneRelease {
    name: &'static str,
    year: u16,
    /// GeekBench multi-core score normalised to an Intel Core i3 (= 1.0).
    performance: f64,
    cores: u32,
    memory_min_gib: f64,
    memory_max_gib: f64,
}

impl PhoneRelease {
    const fn new(
        name: &'static str,
        year: u16,
        performance: f64,
        cores: u32,
        memory_min_gib: f64,
        memory_max_gib: f64,
    ) -> Self {
        Self {
            name,
            year,
            performance,
            cores,
            memory_min_gib,
            memory_max_gib,
        }
    }

    /// Phone model name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Release year.
    #[must_use]
    pub fn year(&self) -> u16 {
        self.year
    }

    /// Normalised GeekBench performance (1.0 = Intel Core i3).
    #[must_use]
    pub fn performance(&self) -> f64 {
        self.performance
    }

    /// Number of CPU cores.
    #[must_use]
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Smallest memory configuration sold, in GiB.
    #[must_use]
    pub fn memory_min_gib(&self) -> f64 {
        self.memory_min_gib
    }

    /// Largest memory configuration sold, in GiB.
    #[must_use]
    pub fn memory_max_gib(&self) -> f64 {
        self.memory_max_gib
    }
}

/// The five most popular Android phones released each year, 2013–2021.
#[must_use]
pub fn popular_android_phones() -> Vec<PhoneRelease> {
    vec![
        PhoneRelease::new("Galaxy S4", 2013, 0.55, 4, 2.0, 2.0),
        PhoneRelease::new("HTC One", 2013, 0.50, 4, 2.0, 2.0),
        PhoneRelease::new("Nexus 5", 2013, 0.60, 4, 2.0, 2.0),
        PhoneRelease::new("LG G2", 2013, 0.58, 4, 2.0, 2.0),
        PhoneRelease::new("Xperia Z", 2013, 0.48, 4, 2.0, 2.0),
        PhoneRelease::new("Galaxy S5", 2014, 0.72, 4, 2.0, 2.0),
        PhoneRelease::new("Galaxy Note 4", 2014, 0.80, 4, 3.0, 3.0),
        PhoneRelease::new("Nexus 6", 2014, 0.78, 4, 3.0, 3.0),
        PhoneRelease::new("OnePlus One", 2014, 0.74, 4, 3.0, 3.0),
        PhoneRelease::new("LG G3", 2014, 0.70, 4, 2.0, 3.0),
        PhoneRelease::new("Galaxy S6", 2015, 1.05, 8, 3.0, 3.0),
        PhoneRelease::new("Nexus 5X", 2015, 0.88, 6, 2.0, 2.0),
        PhoneRelease::new("Nexus 6P", 2015, 0.98, 8, 3.0, 3.0),
        PhoneRelease::new("LG G4", 2015, 0.85, 6, 3.0, 3.0),
        PhoneRelease::new("OnePlus 2", 2015, 0.95, 8, 3.0, 4.0),
        PhoneRelease::new("Galaxy S7", 2016, 1.25, 8, 4.0, 4.0),
        PhoneRelease::new("Pixel", 2016, 1.30, 4, 4.0, 4.0),
        PhoneRelease::new("OnePlus 3", 2016, 1.28, 4, 6.0, 6.0),
        PhoneRelease::new("LG G5", 2016, 1.15, 4, 4.0, 4.0),
        PhoneRelease::new("Huawei P9", 2016, 1.10, 8, 3.0, 4.0),
        PhoneRelease::new("Galaxy S8", 2017, 1.55, 8, 4.0, 4.0),
        PhoneRelease::new("Pixel 2", 2017, 1.60, 8, 4.0, 4.0),
        PhoneRelease::new("OnePlus 5", 2017, 1.62, 8, 6.0, 8.0),
        PhoneRelease::new("Galaxy Note 8", 2017, 1.58, 8, 6.0, 6.0),
        PhoneRelease::new("Huawei Mate 10", 2017, 1.48, 8, 4.0, 6.0),
        PhoneRelease::new("Galaxy S9", 2018, 1.85, 8, 4.0, 4.0),
        PhoneRelease::new("Pixel 3", 2018, 1.80, 8, 4.0, 4.0),
        PhoneRelease::new("OnePlus 6", 2018, 1.95, 8, 6.0, 8.0),
        PhoneRelease::new("Huawei P20 Pro", 2018, 1.75, 8, 6.0, 6.0),
        PhoneRelease::new("Xiaomi Mi 8", 2018, 1.90, 8, 6.0, 8.0),
        PhoneRelease::new("Galaxy S10", 2019, 2.25, 8, 8.0, 8.0),
        PhoneRelease::new("Pixel 4", 2019, 2.10, 8, 6.0, 6.0),
        PhoneRelease::new("OnePlus 7 Pro", 2019, 2.30, 8, 6.0, 12.0),
        PhoneRelease::new("Huawei P30", 2019, 2.05, 8, 6.0, 8.0),
        PhoneRelease::new("Xiaomi Mi 9", 2019, 2.20, 8, 6.0, 8.0),
        PhoneRelease::new("Galaxy S20", 2020, 2.55, 8, 8.0, 12.0),
        PhoneRelease::new("Pixel 5", 2020, 2.30, 8, 8.0, 8.0),
        PhoneRelease::new("OnePlus 8", 2020, 2.65, 8, 8.0, 12.0),
        PhoneRelease::new("Xiaomi Mi 10", 2020, 2.60, 8, 8.0, 12.0),
        PhoneRelease::new("Galaxy Note 20", 2020, 2.58, 8, 8.0, 8.0),
        PhoneRelease::new("Galaxy S21", 2021, 2.95, 8, 8.0, 8.0),
        PhoneRelease::new("Pixel 6", 2021, 2.85, 8, 8.0, 12.0),
        PhoneRelease::new("OnePlus 9", 2021, 3.05, 8, 8.0, 12.0),
        PhoneRelease::new("Xiaomi Mi 11", 2021, 3.10, 8, 8.0, 12.0),
        PhoneRelease::new("Galaxy Z Flip3", 2021, 2.90, 8, 8.0, 8.0),
    ]
}

/// An AWS T4g instance size, plotted as a reference line in Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct T4gInstance {
    name: &'static str,
    /// Performance normalised to an Intel Core i3 (= 1.0).
    performance: f64,
    vcpus: u32,
    memory_gib: f64,
}

impl T4gInstance {
    const fn new(name: &'static str, performance: f64, vcpus: u32, memory_gib: f64) -> Self {
        Self {
            name,
            performance,
            vcpus,
            memory_gib,
        }
    }

    /// Instance type name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Normalised performance.
    #[must_use]
    pub fn performance(&self) -> f64 {
        self.performance
    }

    /// Number of vCPUs.
    #[must_use]
    pub fn vcpus(&self) -> u32 {
        self.vcpus
    }

    /// Memory in GiB.
    #[must_use]
    pub fn memory_gib(&self) -> f64 {
        self.memory_gib
    }
}

/// The T4g instance sizes shown as horizontal references in Figure 1
/// (as offered in August 2021).
#[must_use]
pub fn t4g_instances() -> Vec<T4gInstance> {
    vec![
        T4gInstance::new("t4g.small", 1.2, 2, 2.0),
        T4gInstance::new("t4g.medium", 1.2, 2, 4.0),
        T4gInstance::new("t4g.large", 1.2, 2, 8.0),
        T4gInstance::new("t4g.xlarge", 2.4, 4, 16.0),
        T4gInstance::new("t4g.2xlarge", 4.8, 8, 32.0),
    ]
}

/// Summary statistics of one release year, as plotted in Figure 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YearSummary {
    year: u16,
    performance_mean: f64,
    performance_min: f64,
    performance_max: f64,
    cores_mean: f64,
    cores_min: u32,
    cores_max: u32,
    memory_min_config_mean: f64,
    memory_max_config_mean: f64,
}

impl YearSummary {
    /// Release year.
    #[must_use]
    pub fn year(&self) -> u16 {
        self.year
    }

    /// Mean normalised performance of that year's popular phones.
    #[must_use]
    pub fn performance_mean(&self) -> f64 {
        self.performance_mean
    }

    /// Minimum normalised performance.
    #[must_use]
    pub fn performance_min(&self) -> f64 {
        self.performance_min
    }

    /// Maximum normalised performance.
    #[must_use]
    pub fn performance_max(&self) -> f64 {
        self.performance_max
    }

    /// Mean core count.
    #[must_use]
    pub fn cores_mean(&self) -> f64 {
        self.cores_mean
    }

    /// Minimum core count.
    #[must_use]
    pub fn cores_min(&self) -> u32 {
        self.cores_min
    }

    /// Maximum core count.
    #[must_use]
    pub fn cores_max(&self) -> u32 {
        self.cores_max
    }

    /// Mean memory of the minimum configurations, in GiB.
    #[must_use]
    pub fn memory_min_config_mean(&self) -> f64 {
        self.memory_min_config_mean
    }

    /// Mean memory of the maximum configurations, in GiB.
    #[must_use]
    pub fn memory_max_config_mean(&self) -> f64 {
        self.memory_max_config_mean
    }
}

/// Summarises the phone dataset per release year, in ascending year order.
#[must_use]
pub fn yearly_summaries() -> Vec<YearSummary> {
    let phones = popular_android_phones();
    let mut years: Vec<u16> = phones.iter().map(PhoneRelease::year).collect();
    years.sort_unstable();
    years.dedup();
    years
        .into_iter()
        .map(|year| {
            let of_year: Vec<&PhoneRelease> = phones.iter().filter(|p| p.year() == year).collect();
            let count = of_year.len() as f64;
            let perf: Vec<f64> = of_year.iter().map(|p| p.performance()).collect();
            let cores: Vec<u32> = of_year.iter().map(|p| p.cores()).collect();
            YearSummary {
                year,
                performance_mean: perf.iter().sum::<f64>() / count,
                performance_min: perf.iter().copied().fold(f64::INFINITY, f64::min),
                performance_max: perf.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                cores_mean: cores.iter().map(|c| f64::from(*c)).sum::<f64>() / count,
                cores_min: cores.iter().copied().min().unwrap_or(0),
                cores_max: cores.iter().copied().max().unwrap_or(0),
                memory_min_config_mean: of_year.iter().map(|p| p.memory_min_gib()).sum::<f64>()
                    / count,
                memory_max_config_mean: of_year.iter().map(|p| p.memory_max_gib()).sum::<f64>()
                    / count,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_covers_2013_to_2021() {
        let summaries = yearly_summaries();
        assert_eq!(summaries.first().unwrap().year(), 2013);
        assert_eq!(summaries.last().unwrap().year(), 2021);
        assert_eq!(summaries.len(), 9);
    }

    #[test]
    fn every_year_has_five_phones() {
        let phones = popular_android_phones();
        for year in 2013..=2021u16 {
            let count = phones.iter().filter(|p| p.year() == year).count();
            assert_eq!(count, 5, "year {year}");
        }
    }

    #[test]
    fn performance_trend_is_increasing() {
        let summaries = yearly_summaries();
        let first = summaries.first().unwrap().performance_mean();
        let last = summaries.last().unwrap().performance_mean();
        assert!(last > first * 3.0, "expected strong performance growth");
        // Means should be monotically non-decreasing year over year.
        for pair in summaries.windows(2) {
            assert!(pair[1].performance_mean() >= pair[0].performance_mean());
        }
    }

    #[test]
    fn recent_phones_exceed_t4g_medium() {
        // The paper's headline claim for Figure 1: recent phones meet or
        // exceed the capability of the T4g instances serving microservices.
        let medium = t4g_instances()
            .into_iter()
            .find(|i| i.name() == "t4g.medium")
            .unwrap();
        let last = yearly_summaries().pop().unwrap();
        assert!(last.performance_mean() > medium.performance());
        assert!(last.cores_mean() >= f64::from(medium.vcpus()));
        assert!(last.memory_max_config_mean() >= medium.memory_gib());
    }

    #[test]
    fn bounds_are_consistent() {
        for summary in yearly_summaries() {
            assert!(summary.performance_min() <= summary.performance_mean());
            assert!(summary.performance_mean() <= summary.performance_max());
            assert!(summary.cores_min() <= summary.cores_max());
            assert!(summary.memory_min_config_mean() <= summary.memory_max_config_mean());
        }
    }

    #[test]
    fn t4g_reference_lines_present() {
        let instances = t4g_instances();
        assert_eq!(instances.len(), 5);
        assert!(instances.iter().any(|i| i.name() == "t4g.2xlarge"));
    }
}
