//! Single-device lifetime CCI (Figure 2) and the shared calculator builder.

use junkyard_carbon::cci::CciCalculator;
use junkyard_carbon::embodied::EmbodiedCarbon;
use junkyard_carbon::units::CarbonIntensity;
use junkyard_devices::benchmark::Benchmark;
use junkyard_devices::device::DeviceSpec;
use junkyard_devices::power::LoadProfile;

use crate::report::{Chart, SeriesLine};

/// Default lifetime axis of the paper's CCI figures: 1–60 months.
#[must_use]
pub fn lifetime_months_axis() -> Vec<f64> {
    (1..=60).map(f64::from).collect()
}

/// Builds a CCI calculator for one device on one benchmark.
///
/// `reused` devices pay no manufacturing carbon (the paper's `C_M = 0`
/// stipulation); new devices pay the catalog's embodied figure. The device
/// runs the light-medium duty cycle, and its useful work is the
/// duty-cycle-averaged multi-core benchmark throughput (Eq. 6).
///
/// # Panics
///
/// Panics if the device lacks a score for `benchmark`.
#[must_use]
pub fn device_calculator(
    device: &DeviceSpec,
    benchmark: Benchmark,
    grid: CarbonIntensity,
    reused: bool,
) -> CciCalculator {
    let profile = LoadProfile::light_medium();
    let embodied = if reused {
        EmbodiedCarbon::reused()
    } else {
        EmbodiedCarbon::manufactured(device.name(), device.embodied())
    };
    let throughput = device
        .average_throughput(benchmark, &profile)
        .unwrap_or_else(|| panic!("{} has no {benchmark} score", device.name()));
    CciCalculator::new(benchmark.op_unit())
        .embodied(embodied)
        .average_power(device.average_power(&profile))
        .grid(grid)
        .throughput(throughput)
}

/// The Figure 2 study: single-device lifetime CCI of the reused devices
/// against the new PowerEdge server, for one benchmark, on the California
/// grid.
#[derive(Debug, Clone)]
pub struct SingleDeviceStudy {
    benchmark: Benchmark,
    grid: CarbonIntensity,
}

impl SingleDeviceStudy {
    /// Creates the study for a benchmark with the paper's defaults
    /// (California mix, 60-month axis).
    #[must_use]
    pub fn new(benchmark: Benchmark) -> Self {
        Self {
            benchmark,
            grid: CarbonIntensity::from_grams_per_kwh(257.0),
        }
    }

    /// Overrides the grid carbon intensity.
    #[must_use]
    pub fn grid(mut self, grid: CarbonIntensity) -> Self {
        self.grid = grid;
        self
    }

    /// Runs the study over the given devices. `new_devices` pay their
    /// embodied carbon, the rest are treated as reused.
    ///
    /// # Panics
    ///
    /// Panics if a device lacks a score for the study's benchmark.
    #[must_use]
    pub fn run(&self, reused: &[DeviceSpec], new_devices: &[DeviceSpec]) -> Chart {
        let mut chart = Chart::new(
            format!("Single-device CCI — {}", self.benchmark),
            "lifetime (months)",
            format!("mgCO2e/{}", self.benchmark.op_unit()),
        );
        let mut add = |device: &DeviceSpec, reused: bool| {
            let calc = device_calculator(device, self.benchmark, self.grid, reused);
            let points = lifetime_months_axis()
                .iter()
                .map(|m| {
                    let cci = calc
                        .cci_at(junkyard_carbon::units::TimeSpan::from_months(*m))
                        .expect("throughput configured and lifetime positive");
                    (*m, cci.milligrams_per_op())
                })
                .collect();
            chart.push_line(SeriesLine::new(device.name(), points));
        };
        for device in reused {
            add(device, true);
        }
        for device in new_devices {
            add(device, false);
        }
        chart
    }

    /// Runs the study on the paper's device set: reused ProLiant, ThinkPad,
    /// Pixel 3A and Nexus 4 against a new PowerEdge R740.
    #[must_use]
    pub fn run_paper_devices(&self) -> Chart {
        self.run(
            &junkyard_devices::catalog::reused_devices(),
            &[junkyard_devices::catalog::poweredge_r740()],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use junkyard_devices::catalog;

    #[test]
    fn reused_phones_beat_the_new_server_on_dijkstra() {
        let chart = SingleDeviceStudy::new(Benchmark::Dijkstra).run_paper_devices();
        let pixel = chart.line("Pixel 3A").unwrap().final_value().unwrap();
        let server = chart.line("PowerEdge R740").unwrap().final_value().unwrap();
        assert!(pixel < server, "pixel {pixel} vs server {server}");
    }

    #[test]
    fn sgemm_is_where_the_laptop_is_most_competitive() {
        // Figure 2's SGEMM panel: the ThinkPad's strong FP hardware makes it
        // the exception to the "phones always win" pattern. With the paper's
        // own Table 1/2 numbers it clearly beats the Nexus 4, and its gap to
        // the Pixel 3A is far smaller on SGEMM than on the other benchmarks.
        let values = |benchmark: Benchmark| {
            let chart = SingleDeviceStudy::new(benchmark).run_paper_devices();
            let laptop = chart
                .line("ThinkPad X1 Carbon G3")
                .unwrap()
                .final_value()
                .unwrap();
            let pixel = chart.line("Pixel 3A").unwrap().final_value().unwrap();
            let nexus = chart.line("Nexus 4").unwrap().final_value().unwrap();
            (laptop, pixel, nexus)
        };
        let ratio = |benchmark: Benchmark| {
            let (laptop, pixel, _) = values(benchmark);
            laptop / pixel
        };
        let (sgemm_laptop, _, sgemm_nexus) = values(Benchmark::Sgemm);
        assert!(
            sgemm_laptop < sgemm_nexus,
            "laptop {sgemm_laptop} vs Nexus 4 {sgemm_nexus}"
        );
        let sgemm = ratio(Benchmark::Sgemm);
        let dijkstra = ratio(Benchmark::Dijkstra);
        let pdf = ratio(Benchmark::PdfRender);
        assert!(
            sgemm < dijkstra && sgemm < pdf,
            "sgemm {sgemm}, dijkstra {dijkstra}, pdf {pdf}"
        );
    }

    #[test]
    fn server_cci_improves_with_lifetime() {
        let chart = SingleDeviceStudy::new(Benchmark::PdfRender).run_paper_devices();
        let server = chart.line("PowerEdge R740").unwrap();
        let first = server.points().first().unwrap().1;
        let last = server.final_value().unwrap();
        assert!(last < first, "amortisation should reduce CCI over time");
    }

    #[test]
    fn zero_carbon_grid_flattens_reused_devices() {
        let chart = SingleDeviceStudy::new(Benchmark::Dijkstra)
            .grid(CarbonIntensity::ZERO)
            .run(&[catalog::pixel_3a()], &[]);
        let pixel = chart.line("Pixel 3A").unwrap();
        // With no embodied and no operational carbon the CCI is zero.
        assert!(pixel.points().iter().all(|(_, y)| *y == 0.0));
    }
}
