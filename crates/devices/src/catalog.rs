//! Ready-made device specifications for every piece of hardware the paper
//! evaluates.
//!
//! The performance (Table 1) and power (Table 2) numbers are the paper's
//! measurements reproduced verbatim. Embodied-carbon totals come from the
//! vendor LCAs the paper cites (Dell R740, Google product environmental
//! reports) or, where no public figure exists, from documented estimates
//! (see `DESIGN.md`). EC2 C5 instance power and embodied carbon follow the
//! public estimates the paper uses in Section 6.3.

use junkyard_carbon::units::{GramsCo2e, Watts};

use crate::battery::BatterySpec;
use crate::benchmark::{Benchmark, BenchmarkSuite};
use crate::components::ComponentBreakdown;
use crate::device::{DeviceClass, DeviceSpec};
use crate::power::PowerCurve;

/// The Dell PowerEdge R740 baseline server (2017).
///
/// Embodied carbon uses the manufacturing share of Dell's published R740
/// LCA (~3.3 tCO2e of a ~9.2 tCO2e lifecycle).
#[must_use]
pub fn poweredge_r740() -> DeviceSpec {
    DeviceSpec::builder("PowerEdge R740", DeviceClass::Server)
        .release_year(2017)
        .hardware(56, 192.0)
        .benchmarks(
            BenchmarkSuite::new()
                .with_score(Benchmark::Sgemm, 77.2, 2_070.0)
                .with_score(Benchmark::PdfRender, 109.1, 3_140.0)
                .with_score(Benchmark::Dijkstra, 3.58, 80.2)
                .with_score(Benchmark::MemoryCopy, 6.33, 19.5),
        )
        .power(PowerCurve::from_measurements(
            Watts::new(201.0),
            Watts::new(261.0),
            Watts::new(369.0),
            Watts::new(510.0),
        ))
        .embodied(GramsCo2e::from_kilograms(3_330.0))
        .purchase_cost_usd(12_000.0)
        .build()
}

/// The HP ProLiant DL380 G6 legacy server (2007).
#[must_use]
pub fn proliant_dl380_g6() -> DeviceSpec {
    DeviceSpec::builder("ProLiant DL380 G6", DeviceClass::Server)
        .release_year(2007)
        .hardware(8, 32.0)
        .benchmarks(
            BenchmarkSuite::new()
                .with_score(Benchmark::Sgemm, 14.2, 104.2)
                .with_score(Benchmark::PdfRender, 74.2, 528.4)
                .with_score(Benchmark::Dijkstra, 2.43, 16.9)
                .with_score(Benchmark::MemoryCopy, 6.52, 11.3),
        )
        .power(PowerCurve::from_measurements(
            Watts::new(169.0),
            Watts::new(181.0),
            Watts::new(213.0),
            Watts::new(280.0),
        ))
        .embodied(GramsCo2e::from_kilograms(2_500.0))
        .purchase_cost_usd(150.0)
        .build()
}

/// The Lenovo ThinkPad X1 Carbon Gen 3 laptop (2015).
#[must_use]
pub fn thinkpad_x1_carbon_g3() -> DeviceSpec {
    DeviceSpec::builder("ThinkPad X1 Carbon G3", DeviceClass::Laptop)
        .release_year(2015)
        .hardware(4, 8.0)
        .benchmarks(
            BenchmarkSuite::new()
                .with_score(Benchmark::Sgemm, 72.1, 123.7)
                .with_score(Benchmark::PdfRender, 123.2, 225.1)
                .with_score(Benchmark::Dijkstra, 3.08, 7.45)
                .with_score(Benchmark::MemoryCopy, 11.0, 13.1),
        )
        .power(PowerCurve::from_measurements(
            Watts::new(3.4),
            Watts::new(8.5),
            Watts::new(16.2),
            Watts::new(24.0),
        ))
        .battery(BatterySpec::thinkpad_x1_carbon_g3())
        .embodied(GramsCo2e::from_kilograms(250.0))
        .purchase_cost_usd(250.0)
        .build()
}

/// The Google Pixel 3A smartphone (2019) — the paper's cloudlet node.
#[must_use]
pub fn pixel_3a() -> DeviceSpec {
    DeviceSpec::builder("Pixel 3A", DeviceClass::Smartphone)
        .release_year(2019)
        .hardware(8, 4.0)
        .benchmarks(
            BenchmarkSuite::new()
                .with_score(Benchmark::Sgemm, 8.84, 39.0)
                .with_score(Benchmark::PdfRender, 38.9, 147.0)
                .with_score(Benchmark::Dijkstra, 1.08, 4.44)
                .with_score(Benchmark::MemoryCopy, 4.00, 5.45),
        )
        .power(PowerCurve::from_measurements(
            Watts::new(0.8),
            Watts::new(1.4),
            Watts::new(1.9),
            Watts::new(2.5),
        ))
        .battery(BatterySpec::pixel_3a())
        .embodied(GramsCo2e::from_kilograms(37.0))
        .components(ComponentBreakdown::scaled_like_nexus_4(
            GramsCo2e::from_kilograms(37.0),
        ))
        .purchase_cost_usd(65.0)
        .build()
}

/// The LG/Google Nexus 4 smartphone (2012).
#[must_use]
pub fn nexus_4() -> DeviceSpec {
    DeviceSpec::builder("Nexus 4", DeviceClass::Smartphone)
        .release_year(2012)
        .hardware(4, 2.0)
        .benchmarks(
            BenchmarkSuite::new()
                .with_score(Benchmark::Sgemm, 1.95, 8.12)
                .with_score(Benchmark::PdfRender, 14.1, 40.8)
                .with_score(Benchmark::Dijkstra, 0.654, 2.21)
                .with_score(Benchmark::MemoryCopy, 2.35, 3.22),
        )
        .power(PowerCurve::from_measurements(
            Watts::new(0.7),
            Watts::new(1.0),
            Watts::new(2.7),
            Watts::new(3.6),
        ))
        .battery(BatterySpec::nexus_4())
        .embodied(GramsCo2e::from_kilograms(49.5))
        .components(ComponentBreakdown::nexus_4())
        .purchase_cost_usd(25.0)
        .build()
}

/// Sizes of the AWS EC2 C5 instances used as baselines in Section 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum C5Size {
    /// c5.4xlarge: 16 vCPU, 32 GiB.
    XLarge4,
    /// c5.9xlarge: 36 vCPU, 72 GiB.
    XLarge9,
    /// c5.12xlarge: 48 vCPU, 96 GiB.
    XLarge12,
}

impl C5Size {
    /// All sizes used in Figure 7, ascending.
    pub const ALL: [C5Size; 3] = [C5Size::XLarge4, C5Size::XLarge9, C5Size::XLarge12];

    fn vcpus(self) -> u32 {
        match self {
            C5Size::XLarge4 => 16,
            C5Size::XLarge9 => 36,
            C5Size::XLarge12 => 48,
        }
    }

    fn memory_gib(self) -> f64 {
        match self {
            C5Size::XLarge4 => 32.0,
            C5Size::XLarge9 => 72.0,
            C5Size::XLarge12 => 96.0,
        }
    }

    fn hourly_cost_usd(self) -> f64 {
        match self {
            C5Size::XLarge4 => 0.68,
            C5Size::XLarge9 => 1.53,
            C5Size::XLarge12 => 2.04,
        }
    }

    /// The instance type name (for example `"c5.9xlarge"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            C5Size::XLarge4 => "c5.4xlarge",
            C5Size::XLarge9 => "c5.9xlarge",
            C5Size::XLarge12 => "c5.12xlarge",
        }
    }
}

/// An AWS EC2 C5 instance, modelled as a single large node.
///
/// Power and embodied carbon follow the public per-instance estimates the
/// paper uses for the c5.9xlarge (140.7 W at 10 % utilisation, 239 W at
/// 50 %, 1,344 kgCO2e embodied), scaled by vCPU count for the other sizes.
/// The benchmark suite is synthesised from the PowerEdge per-core scores
/// (same Xeon-class cores) and is used only to derive per-core speed ratios
/// for the microservice simulator.
#[must_use]
pub fn c5_instance(size: C5Size) -> DeviceSpec {
    let scale = f64::from(size.vcpus()) / 36.0;
    // Per-core single-thread throughput comparable to the R740's cores.
    let single_sgemm = 70.0;
    let parallel_efficiency = 0.75;
    let multi = |single: f64| single * f64::from(size.vcpus()) * parallel_efficiency;
    DeviceSpec::builder(size.label(), DeviceClass::CloudInstance)
        .release_year(2017)
        .hardware(size.vcpus(), size.memory_gib())
        .benchmarks(
            BenchmarkSuite::new()
                .with_score(Benchmark::Sgemm, single_sgemm, multi(single_sgemm))
                .with_score(Benchmark::PdfRender, 105.0, multi(105.0))
                .with_score(Benchmark::Dijkstra, 3.4, multi(3.4))
                .with_score(
                    Benchmark::MemoryCopy,
                    6.3,
                    6.3 * f64::from(size.vcpus()).sqrt(),
                ),
        )
        .power(PowerCurve::from_measurements(
            Watts::new(95.0 * scale),
            Watts::new(140.7 * scale),
            Watts::new(239.0 * scale),
            Watts::new(310.0 * scale),
        ))
        .embodied(GramsCo2e::from_kilograms(1_344.0 * scale))
        .hourly_cost_usd(size.hourly_cost_usd())
        .build()
}

/// Every physical device the paper characterises in Tables 1 and 2, in the
/// order the tables list them.
#[must_use]
pub fn table_devices() -> Vec<DeviceSpec> {
    vec![
        poweredge_r740(),
        proliant_dl380_g6(),
        thinkpad_x1_carbon_g3(),
        pixel_3a(),
        nexus_4(),
    ]
}

/// The devices the paper reuses (everything in Tables 1–2 except the new
/// PowerEdge baseline).
#[must_use]
pub fn reused_devices() -> Vec<DeviceSpec> {
    vec![
        proliant_dl380_g6(),
        thinkpad_x1_carbon_g3(),
        pixel_3a(),
        nexus_4(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::{LoadProfile, LoadSegment};

    #[test]
    fn table2_average_powers_match_paper() {
        let profile = LoadProfile::light_medium();
        let expectations = [
            (poweredge_r740(), 308.7),
            (proliant_dl380_g6(), 199.1),
            (thinkpad_x1_carbon_g3(), 11.47),
            (pixel_3a(), 1.54),
            (nexus_4(), 1.78),
        ];
        for (device, expected) in expectations {
            let avg = device.average_power(&profile).value();
            assert!(
                (avg - expected).abs() / expected < 0.02,
                "{}: expected {expected} W, got {avg} W",
                device.name()
            );
        }
    }

    #[test]
    fn table1_n_values_match_paper() {
        let baseline = poweredge_r740();
        let cases = [
            (proliant_dl380_g6(), Benchmark::Sgemm, 20),
            (proliant_dl380_g6(), Benchmark::PdfRender, 6),
            (proliant_dl380_g6(), Benchmark::Dijkstra, 5),
            (proliant_dl380_g6(), Benchmark::MemoryCopy, 2),
            (thinkpad_x1_carbon_g3(), Benchmark::Sgemm, 17),
            (thinkpad_x1_carbon_g3(), Benchmark::PdfRender, 14),
            (thinkpad_x1_carbon_g3(), Benchmark::Dijkstra, 11),
            (thinkpad_x1_carbon_g3(), Benchmark::MemoryCopy, 2),
            (pixel_3a(), Benchmark::Sgemm, 54),
            (pixel_3a(), Benchmark::PdfRender, 22),
            (pixel_3a(), Benchmark::Dijkstra, 19),
            // The paper's Table 1 says 256; 2070/8.12 = 254.9 rounds up to
            // 255 (noted as a minor discrepancy in EXPERIMENTS.md).
            (nexus_4(), Benchmark::Sgemm, 255),
            (nexus_4(), Benchmark::PdfRender, 77),
            (nexus_4(), Benchmark::Dijkstra, 37),
            (nexus_4(), Benchmark::MemoryCopy, 7),
        ];
        for (device, benchmark, expected) in cases {
            let n = device
                .benchmarks()
                .devices_to_match(baseline.benchmarks(), benchmark)
                .unwrap();
            assert_eq!(n, expected, "{} on {}", device.name(), benchmark);
        }
    }

    #[test]
    fn phones_have_batteries_and_radios() {
        for phone in [pixel_3a(), nexus_4()] {
            assert!(phone.battery().is_some(), "{}", phone.name());
        }
        assert!(poweredge_r740().battery().is_none());
    }

    #[test]
    fn c5_sizes_scale_monotonically() {
        let profile = LoadProfile::new(vec![LoadSegment::new(0.10, 1.0)]).unwrap();
        let mut last_power = 0.0;
        let mut last_embodied = 0.0;
        for size in C5Size::ALL {
            let spec = c5_instance(size);
            let p = spec.average_power(&profile).value();
            let e = spec.embodied().kilograms();
            assert!(p > last_power, "{}", spec.name());
            assert!(e > last_embodied, "{}", spec.name());
            last_power = p;
            last_embodied = e;
        }
    }

    #[test]
    fn c5_9xlarge_matches_public_estimates() {
        let spec = c5_instance(C5Size::XLarge9);
        assert_eq!(spec.cores(), 36);
        assert!((spec.power().at_10_percent().value() - 140.7).abs() < 1e-9);
        assert!((spec.power().at_50_percent().value() - 239.0).abs() < 1e-9);
        assert!((spec.embodied().kilograms() - 1_344.0).abs() < 1e-9);
        assert_eq!(spec.hourly_cost_usd(), Some(1.53));
    }

    #[test]
    fn catalog_listings_cover_all_devices() {
        assert_eq!(table_devices().len(), 5);
        assert_eq!(reused_devices().len(), 4);
        assert!(reused_devices()
            .iter()
            .all(|d| d.name() != "PowerEdge R740"));
    }

    #[test]
    fn pixel_components_scale_to_its_embodied_total() {
        let pixel = pixel_3a();
        let components = pixel.components().unwrap();
        assert!((components.total().grams() - pixel.embodied().grams()).abs() < 1e-6);
    }
}
