//! Device specifications: everything the carbon and simulation models need
//! to know about one piece of hardware.

use std::fmt;

use junkyard_carbon::ops::Throughput;
use junkyard_carbon::units::{GramsCo2e, Watts};

use crate::battery::BatterySpec;
use crate::benchmark::{Benchmark, BenchmarkSuite};
use crate::components::ComponentBreakdown;
use crate::power::{LoadProfile, PowerCurve};

/// Broad class of a device, used to pick defaults and for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DeviceClass {
    /// Rack-mount server hardware.
    Server,
    /// Consumer laptop.
    Laptop,
    /// Smartphone.
    Smartphone,
    /// A rented cloud instance (no embodied carbon paid directly by the user,
    /// but attributed by the provider).
    CloudInstance,
}

impl DeviceClass {
    /// Human-readable class name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DeviceClass::Server => "server",
            DeviceClass::Laptop => "laptop",
            DeviceClass::Smartphone => "smartphone",
            DeviceClass::CloudInstance => "cloud instance",
        }
    }
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Full specification of a device.
///
/// Use [`DeviceSpec::builder`] to construct one; the catalog module provides
/// ready-made specifications for every device the paper evaluates.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    name: String,
    class: DeviceClass,
    release_year: u16,
    cores: u32,
    memory_gib: f64,
    benchmarks: BenchmarkSuite,
    power: PowerCurve,
    battery: Option<BatterySpec>,
    embodied: GramsCo2e,
    components: Option<ComponentBreakdown>,
    purchase_cost_usd: Option<f64>,
    hourly_cost_usd: Option<f64>,
}

impl DeviceSpec {
    /// Starts building a device specification.
    #[must_use]
    pub fn builder(name: impl Into<String>, class: DeviceClass) -> DeviceSpecBuilder {
        DeviceSpecBuilder::new(name, class)
    }

    /// Device model name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Year the device was released.
    #[must_use]
    pub fn release_year(&self) -> u16 {
        self.release_year
    }

    /// Number of CPU cores (vCPUs for cloud instances).
    #[must_use]
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Installed memory in GiB.
    #[must_use]
    pub fn memory_gib(&self) -> f64 {
        self.memory_gib
    }

    /// The device's benchmark scores.
    #[must_use]
    pub fn benchmarks(&self) -> &BenchmarkSuite {
        &self.benchmarks
    }

    /// The device's measured power curve.
    #[must_use]
    pub fn power(&self) -> PowerCurve {
        self.power
    }

    /// The device's battery pack, if it has one.
    #[must_use]
    pub fn battery(&self) -> Option<BatterySpec> {
        self.battery
    }

    /// Embodied (manufacturing) carbon of a *new* unit of this device.
    /// Reuse scenarios zero this out via the CCI embodied bill instead.
    #[must_use]
    pub fn embodied(&self) -> GramsCo2e {
        self.embodied
    }

    /// Per-component embodied-carbon breakdown, if known.
    #[must_use]
    pub fn components(&self) -> Option<&ComponentBreakdown> {
        self.components.as_ref()
    }

    /// Second-hand purchase cost in USD, if applicable.
    #[must_use]
    pub fn purchase_cost_usd(&self) -> Option<f64> {
        self.purchase_cost_usd
    }

    /// Hourly rental cost in USD, for cloud instances.
    #[must_use]
    pub fn hourly_cost_usd(&self) -> Option<f64> {
        self.hourly_cost_usd
    }

    /// Average electrical power under the given duty cycle (Table 2's
    /// `P_avg` column for the light-medium profile).
    #[must_use]
    pub fn average_power(&self, profile: &LoadProfile) -> Watts {
        profile.average_power(self.power)
    }

    /// Full-load multi-core throughput on a benchmark, if measured.
    #[must_use]
    pub fn throughput(&self, benchmark: Benchmark) -> Option<Throughput> {
        self.benchmarks
            .get(benchmark)
            .map(|s| s.multi_core_throughput())
    }

    /// Duty-cycle-averaged throughput on a benchmark (Eq. 6), if measured.
    #[must_use]
    pub fn average_throughput(
        &self,
        benchmark: Benchmark,
        profile: &LoadProfile,
    ) -> Option<Throughput> {
        self.throughput(benchmark)
            .map(|t| profile.average_throughput(t))
    }
}

impl fmt::Display for DeviceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} {}, {} cores, {:.0} GiB)",
            self.name, self.release_year, self.class, self.cores, self.memory_gib
        )
    }
}

/// Builder for [`DeviceSpec`] (many optional fields).
#[derive(Debug, Clone)]
pub struct DeviceSpecBuilder {
    spec: DeviceSpec,
}

impl DeviceSpecBuilder {
    fn new(name: impl Into<String>, class: DeviceClass) -> Self {
        Self {
            spec: DeviceSpec {
                name: name.into(),
                class,
                release_year: 0,
                cores: 1,
                memory_gib: 0.0,
                benchmarks: BenchmarkSuite::new(),
                power: PowerCurve::constant(Watts::ZERO),
                battery: None,
                embodied: GramsCo2e::ZERO,
                components: None,
                purchase_cost_usd: None,
                hourly_cost_usd: None,
            },
        }
    }

    /// Sets the release year.
    #[must_use]
    pub fn release_year(mut self, year: u16) -> Self {
        self.spec.release_year = year;
        self
    }

    /// Sets core count and memory.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or memory is negative.
    #[must_use]
    pub fn hardware(mut self, cores: u32, memory_gib: f64) -> Self {
        assert!(cores > 0, "a device needs at least one core");
        assert!(memory_gib >= 0.0, "memory cannot be negative");
        self.spec.cores = cores;
        self.spec.memory_gib = memory_gib;
        self
    }

    /// Sets the benchmark suite.
    #[must_use]
    pub fn benchmarks(mut self, benchmarks: BenchmarkSuite) -> Self {
        self.spec.benchmarks = benchmarks;
        self
    }

    /// Sets the measured power curve.
    #[must_use]
    pub fn power(mut self, power: PowerCurve) -> Self {
        self.spec.power = power;
        self
    }

    /// Sets the battery pack.
    #[must_use]
    pub fn battery(mut self, battery: BatterySpec) -> Self {
        self.spec.battery = Some(battery);
        self
    }

    /// Sets the embodied carbon of a new unit.
    #[must_use]
    pub fn embodied(mut self, embodied: GramsCo2e) -> Self {
        self.spec.embodied = embodied;
        self
    }

    /// Sets the per-component embodied breakdown.
    #[must_use]
    pub fn components(mut self, components: ComponentBreakdown) -> Self {
        self.spec.components = Some(components);
        self
    }

    /// Sets the second-hand purchase cost.
    #[must_use]
    pub fn purchase_cost_usd(mut self, cost: f64) -> Self {
        self.spec.purchase_cost_usd = Some(cost);
        self
    }

    /// Sets the hourly rental cost (cloud instances).
    #[must_use]
    pub fn hourly_cost_usd(mut self, cost: f64) -> Self {
        self.spec.hourly_cost_usd = Some(cost);
        self
    }

    /// Finalises the specification.
    #[must_use]
    pub fn build(self) -> DeviceSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use junkyard_carbon::ops::OpUnit;

    fn sample() -> DeviceSpec {
        DeviceSpec::builder("Testphone", DeviceClass::Smartphone)
            .release_year(2019)
            .hardware(8, 4.0)
            .benchmarks(
                BenchmarkSuite::new()
                    .with_score(Benchmark::Sgemm, 8.84, 39.0)
                    .with_score(Benchmark::Dijkstra, 1.08, 4.44),
            )
            .power(PowerCurve::from_measurements(
                Watts::new(0.8),
                Watts::new(1.4),
                Watts::new(1.9),
                Watts::new(2.5),
            ))
            .battery(BatterySpec::pixel_3a())
            .embodied(GramsCo2e::from_kilograms(37.0))
            .purchase_cost_usd(65.0)
            .build()
    }

    #[test]
    fn builder_populates_fields() {
        let d = sample();
        assert_eq!(d.name(), "Testphone");
        assert_eq!(d.class, DeviceClass::Smartphone);
        assert_eq!(d.release_year(), 2019);
        assert_eq!(d.cores(), 8);
        assert!((d.memory_gib() - 4.0).abs() < 1e-12);
        assert_eq!(d.purchase_cost_usd(), Some(65.0));
        assert_eq!(d.hourly_cost_usd(), None);
        assert!(d.battery().is_some());
    }

    #[test]
    fn average_power_uses_profile() {
        let d = sample();
        let avg = d.average_power(&LoadProfile::light_medium());
        assert!((avg.value() - 1.54).abs() < 0.01);
    }

    #[test]
    fn throughput_lookup() {
        let d = sample();
        let t = d.throughput(Benchmark::Sgemm).unwrap();
        assert_eq!(t.unit(), OpUnit::Gflop);
        assert!((t.rate() - 39.0).abs() < 1e-12);
        assert!(d.throughput(Benchmark::PdfRender).is_none());
        let avg = d
            .average_throughput(Benchmark::Sgemm, &LoadProfile::light_medium())
            .unwrap();
        assert!((avg.rate() - 39.0 * 0.305).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = DeviceSpec::builder("x", DeviceClass::Server).hardware(0, 1.0);
    }

    #[test]
    fn display_mentions_name_and_class() {
        let s = sample().to_string();
        assert!(s.contains("Testphone"));
        assert!(s.contains("smartphone"));
    }
}
